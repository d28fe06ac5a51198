"""Reader, cleanser and alias-resolution stages.

Articles are plain UTF-8 text files.  The first line is a header
``@article <article_id> @outlet <outlet_id>``; everything after it is
the body.  Processing is a pure function of (body, lexicon):

    segment -> tokenize -> cleanse -> resolve

Sentences end at ``.``, ``!`` or ``?`` followed by whitespace or end of
text; segmentation searches forward for each such terminator and cuts
just after it.  Tokenization splits a sentence into word runs and
punctuation marks and lowercases them: an ASCII sentence as a whole,
then scanned with ASCII character classes (its word characters are
``[a-z0-9_]``), any other token by token.  Cleansing drops punctuation
and stopwords and keeps every other word as a :class:`Token` (the word,
its kind, and its valence or entity id), read from the lexicon's word
cache, which owns that keep rule.  The cache classifies a word the first
time it is asked for it, with one read of the token table, which holds
the shared token of every declared surface, stopwords and punctuation
included; an unknown word gets one new ``plain`` token.
Resolution walks the lexicon's token trie of entity surfaces and
replaces each alias (longest match wins) with one token holding its
canonical entity id.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusError, read_utf8
from .lexicon import ALIAS_MATCH, WORD_RE, Lexicon, Token

# A terminator followed by whitespace; a sentence ends just after it.
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s)")
_TOKEN_RE = re.compile(rf"{WORD_RE.pattern}|[^\w\s]")
# _TOKEN_RE on lowercase ASCII text: \w there is [a-z0-9_], and \s keeps \x1c-\x1f.
_ASCII_TOKEN_RE = re.compile(r"[a-z0-9_]+|[^a-z0-9_\s]")
_HEADER_RE = re.compile(r"^@article\s+(\S+)\s+@outlet\s+(\S+)\s*$")


class RawArticle(NamedTuple):
    """One article as read: its id, its lowercased outlet id and its body."""

    article_id: str
    outlet_id: str
    body: str


class Sentence(NamedTuple):
    """One sentence's tokens.

    :func:`tokenize` gives lowercase strings, words and punctuation marks;
    :func:`cleanse` and :func:`resolve` give :class:`Token` tuples.
    """

    index: int
    tokens: tuple[str, ...] | tuple[Token, ...]


# Builds a RawArticle or a Sentence without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


def segment(body: str) -> list[str]:
    """Split a body into raw sentence texts.

    The position in the returned list defines the 1-based sentence
    index.  Whitespace-only fragments are dropped; every non-whitespace
    character of the body lands in exactly one sentence.
    """
    texts, start = [], 0
    for match in _SENTENCE_END_RE.finditer(body):
        end = match.end()
        if text := body[start:end].strip():
            texts.append(text)
        start = end
    if text := body[start:].strip():
        texts.append(text)
    return texts


def tokenize(sentence_text: str, index: int) -> Sentence:
    """Split one sentence into lowercase word and punctuation tokens.

    An ASCII sentence is lowercased whole, which changes no character's
    class, and scanned with ASCII classes.  Otherwise each token is
    lowercased on its own: lowercasing can add a character that is not a
    word character (``"İ"`` becomes ``"i"`` plus a combining dot), which
    must not split the word.
    """
    if sentence_text.isascii():
        return _new(Sentence, (index, tuple(_ASCII_TOKEN_RE.findall(sentence_text.lower()))))
    return _new(Sentence, (index, tuple(map(str.lower, _TOKEN_RE.findall(sentence_text)))))


def cleanse(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    """Drop stopwords and punctuation tokens, keeping order.

    Expects a tokenized sentence.  Each word is read from the lexicon's
    word cache, which classifies a word it lacks and decides what is kept.
    """
    kept = tuple(filter(None, map(lexicon.word_cache.__getitem__, sentence.tokens)))
    return _new(Sentence, (sentence.index, kept))


def resolve(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    """Replace alias windows with single canonical-id tokens.

    Expects a cleansed sentence.  At each position the longest alias that
    the following words spell wins.  Tokens no alias covers are kept as
    the same objects.
    """
    trie = lexicon.alias_trie
    tokens = sentence.tokens
    out: list[Token] = []
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        i += 1
        node = trie.get(token.normalized)
        if node is None:
            out.append(token)
            continue
        match, end = node.get(ALIAS_MATCH), i
        j = i
        while j < n and (node := node.get(tokens[j].normalized)) is not None:
            j += 1
            if ALIAS_MATCH in node:
                match, end = node[ALIAS_MATCH], j
        if match is None:
            out.append(token)
        else:
            out.append(match)
            i = end
    return _new(Sentence, (sentence.index, tuple(out)))


def process(body: str, lexicon: Lexicon) -> list[Sentence]:
    """Run the full pipeline over a body."""
    return [
        resolve(cleanse(tokenize(text, index), lexicon), lexicon)
        for index, text in enumerate(segment(body), start=1)
    ]


def parse_article(text: str, origin: str = "<article>") -> RawArticle:
    """Parse header plus body from raw article text."""
    first, _, body = text.partition("\n")
    match = _HEADER_RE.match(first.strip())
    if match is None:
        raise CorpusError(
            f"{origin}: first line must be '@article <id> @outlet <id>'"
        )
    return _new(RawArticle, (match.group(1), match.group(2).lower(), body))


def read_article(path: str | Path) -> RawArticle:
    path = str(Path(path))  # the form every message names, as load_corpus builds it
    return parse_article(read_utf8(path, CorpusError), origin=path)


def load_corpus(directory: str | Path) -> list[RawArticle]:
    """Read every ``*.txt`` article, ordered by ascending article id.

    Ids compare as strings, so ``"10"`` comes before ``"2"``; zero-pad
    numeric ids to train them in numeric order.  The order decides the
    sarcasm flags and the score history, so existing corpora train as
    before.  Two files with the same article id are a :class:`CorpusError`,
    and so is a directory whose listing is denied.

    Read, in name order, is every entry whose name ends in ``.txt``
    (case-sensitively; hidden names and a bare ``.txt`` too), as
    ``Path.glob("*.txt")`` lists them; one that is not a regular file fails its read.
    """
    directory = str(Path(directory))
    if not os.path.isdir(directory):
        raise CorpusError(f"{directory}: not a directory")
    # Each path is the string that ``Path(directory) / name`` prints.
    prefix = "" if directory == "." else os.path.join(directory, "")
    try:
        with os.scandir(directory) as entries:
            names = sorted(entry.name for entry in entries if entry.name.endswith(".txt"))
    except PermissionError:
        raise CorpusError(f"{directory}: cannot list the directory (permission denied)") from None
    articles = []
    origins: dict[str, str] = {}
    for name in names:
        path = prefix + name
        article = parse_article(read_utf8(path, CorpusError), origin=path)
        if article.article_id in origins:
            raise CorpusError(
                f"{path}: article id {article.article_id!r} is also used by "
                f"{origins[article.article_id]}"
            )
        origins[article.article_id] = path
        articles.append(article)
    articles.sort(key=lambda a: a.article_id)
    return articles
