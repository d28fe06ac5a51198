"""Reference text pipeline and statement extractor, kept as a test oracle.

These are the character-by-character segmenter, the ``Token`` dataclass
tokenizer, the cleanser and the window-by-window alias resolver, and the
extractor that looks every resolved token up again, as they stood before
the single-pass rewrite.  The differential tests require the library to
produce exactly what these produce.

The corpus reader at the end, :func:`read_utf8`, :func:`read_article`
and :func:`load_corpus`, is the pathlib version: ``Path.glob``, a
sort of ``Path`` objects and a text-mode read per file.  One deliberate
change since: ``Path.glob`` lists a directory whose listing is denied as
empty, and :func:`load_corpus` raises a ``CorpusError`` for it instead.

The only departure from the original text: the lexicon no longer offers
``entity_for_window`` and ``max_alias_window``, so :func:`_entity_for_window`
and :func:`_max_alias_window` read the same facts through ``lookup`` and
``entities``.  Window tokens are lowercase, and lowercasing is idempotent,
so ``lookup`` reads the same table entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from polisent.analyzer import StatementRecord
from polisent.errors import CorpusError, PolisentError
from polisent.lexicon import WORD_RE, Lexicon
from polisent.textpipe import RawArticle, parse_article

_TERMINATORS = ".!?"
_TOKEN_RE = re.compile(rf"{WORD_RE.pattern}|[^\w\s]")
SPEAKER_DISTANCE = 2


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


def _entity_for_window(lexicon: Lexicon, window: tuple[str, ...]) -> str | None:
    return lexicon.lookup(" ".join(window)).entity_id


def _max_alias_window(lexicon: Lexicon) -> int:
    return max(
        (len(s.split()) for s, token in lexicon.tokens.items() if token.entity_id),
        default=1,
    )


def segment(body: str) -> list[str]:
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
    tokens = tuple(
        Token(surface=match, normalized=match.lower(), sentence_index=index,
              position=position)
        for position, match in enumerate(_TOKEN_RE.findall(sentence_text))
    )
    return Sentence(index=index, tokens=tokens)


def cleanse(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    kept = tuple(
        token
        for token in sentence.tokens
        if WORD_RE.search(token.normalized)
        and lexicon.lookup(token.normalized).kind != "stopword"
    )
    return Sentence(index=sentence.index, tokens=kept)


def resolve(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    tokens = sentence.tokens
    out: list[Token] = []
    max_alias_window = _max_alias_window(lexicon)
    i = 0
    while i < len(tokens):
        matched = None
        longest = min(max_alias_window, len(tokens) - i)
        for size in range(longest, 0, -1):
            window = tuple(t.normalized for t in tokens[i:i + size])
            canonical = _entity_for_window(lexicon, window)
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
    result = []
    for index, text in enumerate(segment(body), start=1):
        sentence = tokenize(text, index)
        sentence = cleanse(sentence, lexicon)
        sentence = resolve(sentence, lexicon)
        result.append(sentence)
    return result


def analyze_article(article: RawArticle, lexicon: Lexicon, prior=None) -> list[StatementRecord]:
    records: list[StatementRecord] = []
    current_whom: str | None = None
    for sentence in process(article.body, lexicon):
        current_who = article.outlet_id
        classes = [lexicon.lookup(token.normalized) for token in sentence.tokens]
        negation_count = sum(1 for c in classes if c.kind == "negation")
        reporting_at = {i for i, c in enumerate(classes) if c.kind == "reporting_verb"}
        for i, token_class in enumerate(classes):
            if token_class.kind == "entity":
                speaks = any(
                    i + offset in reporting_at
                    for offset in range(1, SPEAKER_DISTANCE + 1)
                )
                if speaks:
                    current_who = token_class.entity_id
                else:
                    current_whom = token_class.entity_id
            elif token_class.kind == "opinion" and current_whom is not None:
                value = token_class.valence
                if negation_count % 2 == 1:
                    value = -value
                sarcasm = (
                    value == 1
                    and prior is not None
                    and prior.cell(current_who, current_whom).p < 0
                )
                records.append(
                    StatementRecord(
                        article_id=article.article_id,
                        sentence_index=sentence.index,
                        who=current_who,
                        whom=current_whom,
                        value=value,
                        sarcasm=sarcasm,
                    )
                )
    return records


def read_utf8(path: str | Path, error: Callable[[str], PolisentError]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_article(path: str | Path) -> RawArticle:
    path = Path(path)
    return parse_article(read_utf8(path, CorpusError), origin=str(path))


def load_corpus(directory: str | Path) -> list[RawArticle]:
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory}: not a directory")
    try:
        os.scandir(directory).close()
    except PermissionError:
        raise CorpusError(f"{directory}: cannot list the directory (permission denied)") from None
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
