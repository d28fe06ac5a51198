"""Seeded input generator for the polisent benchmark.

Everything here is independent of polisent.  From a seed and a shape it
makes a word database (lexicon), corpora of articles, and a grown
knowledge base (KB) written directly as a valid document.  Each article
keeps the tokens that were planted in it, so the oracle can derive the
expected outputs without reading the text back.

The same seed and shape always give byte-identical files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Model

PUNCTUATION = (",", ";", ":")
TERMINATORS = (".", ".", ".", "!", "?")
PUNCTUATION_DENSITY = 0.06  # chance of a mark after a word inside a sentence
STOPWORDS = 24  # words of each kind in every lexicon
NEGATIONS = 4
REPORTING = 8
OPINIONS = 40  # half positive, half negative
NEGATIVE_SHARE = 0.5  # chance that a statement of the grown KB is negative

_ONSETS = ("b", "d", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w",
           "j", "y", "c", "f", "v", "z", "br", "tr", "kr", "pr", "st", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "au", "ei", "ia", "ou")
_CODAS = ("", "", "", "n", "m", "r", "s", "k", "ng", "t", "l")


@dataclass(frozen=True)
class LexiconShape:
    """Sizes of the word database."""

    entities: int
    two_word_share: float  # entities that also have a two-word alias
    nickname_share: float  # entities that also have a one-word alias
    outlets: int
    plain: int = 600


@dataclass(frozen=True)
class ArticleShape:
    """Article length and the densities of planted word kinds.

    Densities are chances per planted word; ``speaker_share`` is the
    chance that a sentence opens with "<entity> [stopword] <reporting verb>",
    and ``split_alias_share`` the chance that a two-word alias is planted
    with a stopword between its words (it still resolves, because
    stopwords are removed before aliases are matched).
    """

    sentences: tuple[int, int]
    tokens: tuple[int, int]
    cast: tuple[int, int]  # distinct entities an article talks about
    entity_density: float = 0.12
    opinion_density: float = 0.10
    negation_density: float = 0.04
    reporting_density: float = 0.02
    stopword_density: float = 0.25
    speaker_share: float = 0.20
    split_alias_share: float = 0.05


@dataclass(frozen=True)
class GrownShape:
    """A knowledge base synthesized as if ``articles`` had been trained."""

    articles: int
    targets: tuple[int, int]  # targets per article
    statements: tuple[int, int]  # statements per target
    entity_speaker_share: float = 0.04


@dataclass(frozen=True)
class Lexicon:
    outlet: str
    stopwords: tuple[str, ...]
    negations: tuple[str, ...]
    reporting: tuple[str, ...]
    opinions: dict  # surface -> +1 / -1
    entities: tuple[tuple[str, tuple[str, ...]], ...]  # (id, aliases)
    plain: tuple[str, ...]
    outlets: tuple[str, ...]  # article outlets; the first is the lexicon's

    def text(self) -> str:
        """The lexicon file, in polisent's canonical text form."""
        lines = [f"[outlet] {self.outlet}", "", "[stopwords]"]
        lines += sorted(self.stopwords)
        lines += ["", "[negations]"]
        lines += sorted(self.negations)
        lines += ["", "[reporting]"]
        lines += sorted(self.reporting)
        lines += ["", "[opinions]"]
        lines += [f"{s} {v:+d}" for s, v in sorted(self.opinions.items())]
        lines += ["", "[entities]"]
        for canonical, aliases in sorted(self.entities):
            if aliases:
                lines.append(f"{canonical} : {' , '.join(sorted(aliases))}")
            else:
                lines.append(canonical)
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()

    def alias_map(self) -> dict[tuple[str, ...], str]:
        windows = {}
        for canonical, aliases in self.entities:
            for surface in (canonical, *aliases):
                windows[tuple(surface.split())] = canonical
        return windows


@dataclass(frozen=True)
class Article:
    article_id: str
    outlet: str
    sentences: tuple[tuple[str, ...], ...]  # planted tokens, lowercase
    text: str  # the file: header line plus body

    @property
    def token_count(self) -> int:
        """Tokens as the tokenizer sees them: words and punctuation marks."""
        return sum(len(s) for s in self.sentences)


class _Words:
    """Unique pseudo-words; no word is handed out twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def take(self, syllables: tuple[int, int] = (2, 3)) -> str:
        while True:
            n = self.rng.randint(*syllables)
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) for _ in range(n)
            ) + self.rng.choice(_CODAS)
            if word not in self.used:
                self.used.add(word)
                return word

    def many(self, count: int, syllables: tuple[int, int] = (2, 3)) -> tuple[str, ...]:
        return tuple(self.take(syllables) for _ in range(count))


def make_lexicon(seed: int, shape: LexiconShape) -> Lexicon:
    rng = random.Random(f"lexicon/{seed}")
    words = _Words(rng)
    outlets = tuple(f"{words.take((1, 2))}news" for _ in range(shape.outlets))
    words.used.update(outlets)
    stopwords = words.many(STOPWORDS, (1, 1))
    negations = words.many(NEGATIONS, (1, 2))
    reporting = words.many(REPORTING, (2, 3))
    opinion_words = words.many(OPINIONS, (2, 3))
    opinions = {w: (1 if i % 2 else -1) for i, w in enumerate(opinion_words)}
    entities = []
    for _ in range(shape.entities):
        canonical = words.take((2, 3))
        aliases = []
        if rng.random() < shape.two_word_share:
            aliases.append(f"{words.take((1, 2))} {words.take((2, 3))}")
        if rng.random() < shape.nickname_share:
            aliases.append(words.take((1, 2)))
        entities.append((canonical, tuple(aliases)))
    plain = words.many(shape.plain, (1, 3))
    return Lexicon(
        outlet=outlets[0],
        stopwords=stopwords,
        negations=negations,
        reporting=reporting,
        opinions=opinions,
        entities=tuple(entities),
        plain=plain,
        outlets=outlets,
    )


def _mention(rng: random.Random, lexicon: Lexicon, entity, shape: ArticleShape) -> list[str]:
    canonical, aliases = entity
    surface = rng.choice((canonical, *aliases)).split()
    if len(surface) == 2 and rng.random() < shape.split_alias_share:
        surface.insert(1, rng.choice(lexicon.stopwords))
    return surface


def _sentence(rng: random.Random, lexicon: Lexicon, cast, shape: ArticleShape) -> list[str]:
    length = rng.randint(*shape.tokens)
    words: list[str] = []
    if rng.random() < shape.speaker_share:
        words += _mention(rng, lexicon, rng.choice(cast), shape)
        if rng.random() < 0.5:
            words.append(rng.choice(lexicon.stopwords))
        words.append(rng.choice(lexicon.reporting))
    opinions = tuple(lexicon.opinions)
    d_entity = shape.entity_density
    d_opinion = d_entity + shape.opinion_density
    d_negation = d_opinion + shape.negation_density
    d_reporting = d_negation + shape.reporting_density
    d_stop = d_reporting + shape.stopword_density
    while len(words) < length:
        r = rng.random()
        if r < d_entity:
            words += _mention(rng, lexicon, rng.choice(cast), shape)
        elif r < d_opinion:
            words.append(rng.choice(opinions))
        elif r < d_negation:
            words.append(rng.choice(lexicon.negations))
        elif r < d_reporting:
            words.append(rng.choice(lexicon.reporting))
        elif r < d_stop:
            words.append(rng.choice(lexicon.stopwords))
        else:
            words.append(rng.choice(lexicon.plain))
    tokens: list[str] = []
    for i, word in enumerate(words):
        tokens.append(word)
        if i + 1 < len(words) and rng.random() < PUNCTUATION_DENSITY:
            tokens.append(rng.choice(PUNCTUATION))
    tokens.append(rng.choice(TERMINATORS))
    return tokens


def _render(tokens: list[str], capitals: set[str]) -> str:
    out = []
    for i, token in enumerate(tokens):
        if token in PUNCTUATION or token in TERMINATORS:
            out[-1] += token
        elif i == 0 or token in capitals:
            out.append(token.capitalize())
        else:
            out.append(token)
    return " ".join(out)


def make_articles(
    seed: int,
    lexicon: Lexicon,
    shape: ArticleShape,
    count: int,
    prefix: str,
    stream: str,
) -> list[Article]:
    """``count`` articles with ids ``<prefix>000001`` and up, in id order."""
    rng = random.Random(f"{stream}/{seed}")
    capitals = {w for canonical, aliases in lexicon.entities
                for surface in (canonical, *aliases) for w in surface.split()}
    articles = []
    for n in range(1, count + 1):
        article_id = f"{prefix}{n:06d}"
        outlet = rng.choice(lexicon.outlets)
        cast = rng.sample(lexicon.entities, min(rng.randint(*shape.cast), len(lexicon.entities)))
        sentences = [_sentence(rng, lexicon, cast, shape)
                     for _ in range(rng.randint(*shape.sentences))]
        lines = [f"@article {article_id} @outlet {outlet}"]
        for start in range(0, len(sentences), 4):
            lines.append(" ".join(_render(s, capitals) for s in sentences[start:start + 4]))
        articles.append(Article(
            article_id=article_id,
            outlet=outlet,
            sentences=tuple(tuple(s) for s in sentences),
            text="\n".join(lines) + "\n",
        ))
    return articles


def synthesize_kb(seed: int, lexicon: Lexicon, shape: GrownShape) -> Model:
    """A knowledge base as if ``shape.articles`` prior articles had been trained.

    Each prior article gets a few targets with a few statements each; the
    article scores, history and cumulative cells follow from those
    statements exactly as training would fold them.
    """
    rng = random.Random(f"grown/{seed}")
    ids = [canonical for canonical, _ in lexicon.entities]
    model = Model(fingerprint=lexicon.fingerprint())
    for n in range(1, shape.articles + 1):
        article_id = f"h{n:06d}"
        outlet = rng.choice(lexicon.outlets)
        statements = []
        for whom in sorted(rng.sample(ids, rng.randint(*shape.targets))):
            for _ in range(rng.randint(*shape.statements)):
                who = rng.choice(ids) if rng.random() < shape.entity_speaker_share else outlet
                if who == whom:
                    who = outlet
                value = -1 if rng.random() < NEGATIVE_SHARE else 1
                statements.append((who, whom, value))
        model.fold(article_id, outlet, statements)
    return model


def write_articles(directory: Path, articles: list[Article]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for article in articles:
        (directory / f"{article.article_id}.txt").write_text(article.text, encoding="utf-8")

