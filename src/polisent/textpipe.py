"""Reader, cleanser and alias-resolution stages.

Articles are plain UTF-8 text files.  The first line is a header
``@article <article_id> @outlet <outlet_id>``; everything after it is
the body.  Processing is a pure function of (body, lexicon):

    segment -> tokenize -> cleanse -> resolve

Sentences end at ``.``, ``!`` or ``?`` followed by whitespace or end of
text.  Tokenization splits a sentence into word runs and punctuation
marks and lowercases them: an ASCII sentence as a whole, any other token
by token.  Cleansing drops punctuation and stopwords and keeps every
other word as a :class:`Token` pair of word and class, read from the
lexicon's word cache.  The cache classifies each distinct word once per
lexicon, with one read of the token table, which holds the shared token
of every declared surface; an unknown word gets one new ``plain`` token.
Resolution walks the lexicon's token trie of entity surfaces and
replaces each alias (longest match wins) with one token holding its
canonical entity id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusError
from .lexicon import ALIAS_MATCH, PLAIN, WORD_RE, Lexicon, Token

# A terminator followed by whitespace: the zero-width split point.
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])(?=\s)")
_TOKEN_RE = re.compile(rf"{WORD_RE.pattern}|[^\w\s]")
_HEADER_RE = re.compile(r"^@article\s+(\S+)\s+@outlet\s+(\S+)\s*$")


@dataclass(frozen=True)
class RawArticle:
    article_id: str
    outlet_id: str
    body: str


class Sentence(NamedTuple):
    """One sentence's tokens.

    :func:`tokenize` gives lowercase strings, words and punctuation marks;
    :func:`cleanse` and :func:`resolve` give :class:`Token` pairs.
    """

    index: int
    tokens: tuple[str, ...] | tuple[Token, ...]


# Builds a Token or a Sentence without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


def segment(body: str) -> list[str]:
    """Split a body into raw sentence texts.

    The position in the returned list defines the 1-based sentence
    index.  Whitespace-only fragments are dropped; every non-whitespace
    character of the body lands in exactly one sentence.
    """
    return [text for piece in _SENTENCE_END_RE.split(body) if (text := piece.strip())]


def tokenize(sentence_text: str, index: int) -> Sentence:
    """Split one sentence into lowercase word and punctuation tokens.

    An ASCII sentence is lowercased whole, which changes no character's
    class.  Otherwise each token is lowercased on its own: lowercasing
    can add a character that is not a word character (``"İ"`` becomes
    ``"i"`` plus a combining dot), which must not split the word.
    """
    if sentence_text.isascii():
        return _new(Sentence, (index, tuple(_TOKEN_RE.findall(sentence_text.lower()))))
    return _new(Sentence, (index, tuple(map(str.lower, _TOKEN_RE.findall(sentence_text)))))


def cleanse(sentence: Sentence, lexicon: Lexicon) -> Sentence:
    """Drop stopwords and punctuation tokens, keeping order.

    Expects a tokenized sentence.  Each word is read from the lexicon's
    word cache.  A word it lacks is classified once, with one read of the
    token table: a declared word keeps the table's shared token, an
    unknown word gets a new ``plain`` one, and a dropped word is ``None``.
    """
    words, cache = sentence.tokens, lexicon.word_cache
    try:
        kept = tuple(filter(None, map(cache.__getitem__, words)))
    except KeyError:
        table = lexicon.tokens.get
        for word in words:
            if word not in cache:
                token = table(word)
                if token is None:  # isalnum() settles most words before the regex
                    is_word = word.isalnum() or WORD_RE.search(word)
                    token = _new(Token, (word, PLAIN)) if is_word else None
                elif token.__class__ is not Token:  # Dropped
                    token = None
                cache[word] = token
        kept = tuple(filter(None, map(cache.__getitem__, words)))
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
