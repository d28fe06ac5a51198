"""Reader, cleanser and alias-resolution stages.

Articles are plain UTF-8 text files.  The first line is a header
``@article <article_id> @outlet <outlet_id>``; everything after it is
the body.  Processing is a pure function of (body, lexicon):

    segment -> tokenize -> cleanse -> resolve

Sentences end at ``.``, ``!`` or ``?`` followed by whitespace or end of
text.  Tokenization separates word runs and punctuation marks; cleansing
drops stopwords and punctuation; resolution replaces alias windows (up
to the longest declared alias, longest match wins) with their canonical
entity id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusError
from .lexicon import WORD_RE, Lexicon

_TERMINATORS = ".!?"
_TOKEN_RE = re.compile(rf"{WORD_RE.pattern}|[^\w\s]")
_HEADER_RE = re.compile(r"^@article\s+(\S+)\s+@outlet\s+(\S+)\s*$")


@dataclass(frozen=True)
class RawArticle:
    article_id: str
    outlet_id: str
    body: str


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    sentence_index: int
    position: int


@dataclass(frozen=True)
class Sentence:
    index: int
    tokens: tuple[Token, ...]


def segment(body: str) -> list[str]:
    """Split a body into raw sentence texts.

    The position in the returned list defines the 1-based sentence
    index.  Whitespace-only fragments are dropped; every non-whitespace
    character of the body lands in exactly one sentence.
    """
    sentences: list[str] = []
    buffer: list[str] = []
    for i, char in enumerate(body):
        buffer.append(char)
        at_end = i + 1 == len(body)
        if char in _TERMINATORS and (at_end or body[i + 1].isspace()):
            text = "".join(buffer).strip()
            if text:
                sentences.append(text)
            buffer = []
    tail = "".join(buffer).strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence_text: str, index: int) -> Sentence:
    """Split one sentence into word and punctuation tokens."""
    tokens = tuple(
        Token(surface=match, normalized=match.lower(), sentence_index=index,
              position=position)
        for position, match in enumerate(_TOKEN_RE.findall(sentence_text))
    )
    return Sentence(index=index, tokens=tokens)


def cleanse(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    """Drop stopwords and punctuation tokens, keeping order."""
    kept = tuple(
        token
        for token in sentence.tokens
        if WORD_RE.search(token.normalized)
        and lexicon.lookup(token.normalized).kind != "stopword"
    )
    return Sentence(index=sentence.index, tokens=kept)


def resolve(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    """Replace alias windows with single canonical-id tokens.

    Expects a cleansed sentence.  At each position the longest matching
    window wins; a replacement token inherits the position of the first
    token it covers.
    """
    tokens = sentence.tokens
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        matched = None
        longest = min(lexicon.max_alias_window, len(tokens) - i)
        for size in range(longest, 0, -1):
            window = tuple(t.normalized for t in tokens[i:i + size])
            canonical = lexicon.entity_for_window(window)
            if canonical is not None:
                matched = (size, canonical)
                break
        if matched is None:
            out.append(tokens[i])
            i += 1
        else:
            size, canonical = matched
            first = tokens[i]
            out.append(Token(surface=canonical, normalized=canonical,
                             sentence_index=first.sentence_index,
                             position=first.position))
            i += size
    return Sentence(index=sentence.index, tokens=tuple(out))


def process(body: str, lexicon: Lexicon) -> list[Sentence]:
    """Run the full pipeline over a body."""
    result = []
    for index, text in enumerate(segment(body), start=1):
        sentence = tokenize(text, index)
        sentence = cleanse(sentence, lexicon)
        sentence = resolve(sentence, lexicon)
        result.append(sentence)
    return result


def parse_article(text: str, origin: str = "<article>") -> RawArticle:
    """Parse header plus body from raw article text."""
    first, _, body = text.partition("\n")
    match = _HEADER_RE.match(first.strip())
    if match is None:
        raise CorpusError(
            f"{origin}: first line must be '@article <id> @outlet <id>'"
        )
    return RawArticle(article_id=match.group(1), outlet_id=match.group(2).lower(),
                      body=body)


def read_article(path: str | Path) -> RawArticle:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_article(text, origin=str(path))


def load_corpus(directory: str | Path) -> list[RawArticle]:
    """Read every ``*.txt`` article, ordered by ascending article id.

    Ids compare as strings, so ``"10"`` comes before ``"2"``; zero-pad
    numeric ids to train them in numeric order.  The order decides the
    sarcasm flags and the score history, so existing corpora train as
    before.  Two files with the same article id are a :class:`CorpusError`.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory}: not a directory")
    articles = []
    origins: dict[str, Path] = {}
    for path in sorted(directory.glob("*.txt")):
        article = read_article(path)
        if article.article_id in origins:
            raise CorpusError(
                f"{path}: article id {article.article_id!r} is also used by "
                f"{origins[article.article_id]}"
            )
        origins[article.article_id] = path
        articles.append(article)
    articles.sort(key=lambda a: a.article_id)
    return articles
