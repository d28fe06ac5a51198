"""Persistent knowledge base: cumulative ledger, score history, registry.

The persistence format is JSON with sorted keys (byte-deterministic for
a fixed ingestion order), conventionally stored as ``*.kb.json``::

    {
      "version": 1,
      "lexicon_fingerprint": "<sha256 hex>" | null,
      "processed": ["<article_id>", ...],
      "cells": [{"who": ..., "whom": ..., "p": ..., "s": ...}, ...],
      "history": [{"outlet": ..., "whom": ...,
                   "scores": [{"article_id": ..., "num": ..., "den": ...}, ...]}]
    }

Rationals are written as numerator/denominator pairs in lowest terms.
``load`` reads the file and ``update`` is the one way to write it.

``dumps`` writes the text of ``json.dumps(document, sort_keys=True,
indent=2, ensure_ascii=False)`` by hand: with ``indent`` set the
standard library uses its pure-Python encoder, several times slower
than this.  Strings go through the C ``encode_basestring`` that the
standard library's encoder uses too, so the bytes are the same.

``loads`` enforces the full schema and every cell/history invariant in
one pass over the parsed document, section by section in the order
above and field by field within each element, so the first fault found
is the first in that order.  A cell, pair or score must be an object
with as many keys as its schema; then one ``itemgetter`` call fetches
all its fields, and a ``KeyError`` is the only way the keys can differ.
A string must be one that UTF-8 can encode, so an escaped lone surrogate
such as ``"\\ud800"`` is a fault.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .analyzer import StatementRecord, analyze_article
from .errors import (
    CorruptDocument,
    DuplicateArticle,
    LexiconMismatch,
    PolisentError,
    VersionMismatch,
    read_utf8,
    unencodable,
)
from .ledger import (
    ArticleScoreHistory,
    Cell,
    PolarityLedger,
    article_score,
    merge,  # noqa: F401  kept importable as kb.merge: bench/spans.py wraps it
)
from .lexicon import Lexicon
from .textpipe import RawArticle

FORMAT_VERSION = 1

_TOP_KEYS = frozenset({"version", "lexicon_fingerprint", "processed", "cells", "history"})
_CELL_KEYS = frozenset({"who", "whom", "p", "s"})
_PAIR_KEYS = frozenset({"outlet", "whom", "scores"})
_SCORE_KEYS = frozenset({"article_id", "num", "den"})
_cell_fields = itemgetter("who", "whom", "p", "s")
_pair_fields = itemgetter("outlet", "whom", "scores")
_score_fields = itemgetter("article_id", "num", "den")  # a history entry, as stored
# Builds a Cell without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


class KnowledgeBase:
    """Evolving training state built up one article at a time.

    Each field left out starts empty and belongs to this instance alone.
    """

    def __init__(
        self,
        cumulative: PolarityLedger | None = None,
        history: ArticleScoreHistory | None = None,
        processed: set[str] | None = None,
        lexicon_fingerprint: str | None = None,
    ) -> None:
        self.cumulative = PolarityLedger() if cumulative is None else cumulative
        self.history = ArticleScoreHistory() if history is None else history
        self.processed = set() if processed is None else processed
        self.lexicon_fingerprint = lexicon_fingerprint

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)  # the four fields above

    def __repr__(self) -> str:
        return (
            f"KnowledgeBase(articles={len(self.processed)}, "
            f"cells={len(self.cumulative)}, pairs={len(self.history)})"
        )


class ScoredArticle(NamedTuple):
    """One article's statements, its per-article ledger and its score per target."""

    records: list[StatementRecord]
    ledger: PolarityLedger
    scores: dict[str, Fraction]  # in target order


def check_lexicon(kb: KnowledgeBase, lexicon: Lexicon) -> str:
    """The lexicon's fingerprint; raises unless ``kb`` is new or was built with it."""
    fingerprint = lexicon.fingerprint()
    if kb.lexicon_fingerprint is not None and kb.lexicon_fingerprint != fingerprint:
        raise LexiconMismatch(
            "knowledge base was built with a different lexicon "
            f"({kb.lexicon_fingerprint[:12]}... != {fingerprint[:12]}...)"
        )
    return fingerprint


def score_article(article: RawArticle, lexicon: Lexicon, prior: PolarityLedger) -> ScoredArticle:
    """Extract the article's statements, ``prior`` feeding the sarcasm check, and score them.

    The one scoring path: ``ingest`` records what this returns and
    ``analyze`` prints it.
    """
    records = analyze_article(article, lexicon, prior=prior)
    ledger = PolarityLedger()
    for record in records:
        ledger.apply(record)
    scores = {whom: article_score(ledger, whom) for whom in sorted(ledger.whoms())}
    return ScoredArticle(records, ledger, scores)


def ingest(kb: KnowledgeBase, article: RawArticle, lexicon: Lexicon) -> ScoredArticle:
    """Score one article against the knowledge base and fold it in.

    The cumulative ledger as of the call is the prior.  Article scores
    are recorded for every target the article mentions, then the
    per-article cells are added into the cumulative ledger in place.
    Mutates ``kb``; raises before any mutation on duplicate articles or
    lexicon mismatch.
    """
    fingerprint = check_lexicon(kb, lexicon)
    if article.article_id in kb.processed:
        raise DuplicateArticle(article.article_id)
    scored = score_article(article, lexicon, kb.cumulative)
    for whom, score in scored.scores.items():
        kb.history.record(article.outlet_id, whom, article.article_id, score)
    kb.cumulative.add(scored.ledger)
    kb.processed.add(article.article_id)
    kb.lexicon_fingerprint = fingerprint
    return scored


def dumps(kb: KnowledgeBase) -> str:
    """The text ``json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False)`` writes."""
    string = encode_basestring
    cells = [
        f'    {{\n      "p": {cell.p},\n      "s": {cell.s},\n'
        f'      "who": {string(who)},\n      "whom": {string(whom)}\n    }}'
        for (who, whom), cell in sorted(kb.cumulative._cells.items())
    ]
    pairs = []
    for (outlet, whom), entries in kb.history.items():
        scores = [
            f'        {{\n          "article_id": {string(article_id)},\n'
            f'          "den": {den},\n          "num": {num}\n        }}'
            for article_id, num, den in entries
        ]
        pairs.append(
            f'    {{\n      "outlet": {string(outlet)},\n      "scores": {_array(scores, "      ")},\n'
            f'      "whom": {string(whom)}\n    }}'
        )
    processed = [f"    {string(article_id)}" for article_id in sorted(kb.processed)]
    fingerprint = kb.lexicon_fingerprint
    return (
        f'{{\n  "cells": {_array(cells, "  ")},\n  "history": {_array(pairs, "  ")},\n'
        f'  "lexicon_fingerprint": {"null" if fingerprint is None else string(fingerprint)},\n'
        f'  "processed": {_array(processed, "  ")},\n  "version": {FORMAT_VERSION}\n}}\n'
    )


def _array(items: list[str], indent: str) -> str:
    """A JSON array of the indented ``items``, its bracket closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _str_fault(value: object, path: str) -> CorruptDocument:
    """The error for a ``value`` that is not a non-empty string UTF-8 can encode."""
    if type(value) is str and value:
        return CorruptDocument(path, "string holds a surrogate, which UTF-8 cannot encode")
    return CorruptDocument(path, "expected a non-empty string")


def _int_fault(value: object, path: str) -> CorruptDocument:
    # bool is an int subclass, so callers test ``type(value) is int``.
    return CorruptDocument(path, f"expected an integer, got {value!r}")


def _fields_fault(value: object, path: str, keys: frozenset[str]) -> CorruptDocument:
    """The error for a ``value`` that is not an object with exactly ``keys``."""
    if not isinstance(value, dict):
        return CorruptDocument(path, "expected an object")
    extra = value.keys() - keys
    if extra:
        return CorruptDocument(path, f"unknown fields {sorted(extra)}")
    return CorruptDocument(path, f"missing fields {sorted(keys - value.keys())}")


def loads(text: str) -> KnowledgeBase:
    """Parse and check a document; raise on its first fault in schema order.

    Paths and messages are formatted only when a check fails.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptDocument("document", f"invalid JSON ({exc})") from None
    except ValueError as exc:  # an integer literal too long to convert
        raise CorruptDocument("document", f"number out of range ({exc})") from None
    except RecursionError:
        raise CorruptDocument("document", "JSON nested too deeply") from None
    # Checking every string adds about 8% to loads on a 600 KB KB.  A
    # parsed string holds a surrogate only through a "\u" escape or one
    # already in ``text``, so text without a backslash or a non-ASCII
    # character skips the check.
    strict = "\\" in text or not text.isascii()

    if type(document) is not dict or document.keys() != _TOP_KEYS:
        raise _fields_fault(document, "document", _TOP_KEYS)

    version = document["version"]
    if type(version) is not int:
        raise _int_fault(version, "version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format version {version}, expected {FORMAT_VERSION}"
        )

    fingerprint = document["lexicon_fingerprint"]
    if fingerprint is not None and (
        type(fingerprint) is not str or not fingerprint or strict and unencodable(fingerprint)
    ):
        raise _str_fault(fingerprint, "lexicon_fingerprint")

    raw_processed = document["processed"]
    if type(raw_processed) is not list:
        raise CorruptDocument("processed", "expected an array")
    processed: set[str] = set()
    for i, article_id in enumerate(raw_processed):
        if type(article_id) is not str or not article_id or strict and unencodable(article_id):
            raise _str_fault(article_id, f"processed[{i}]")
        if article_id in processed:
            raise CorruptDocument(f"processed[{i}]", f"duplicate article id {article_id!r}")
        processed.add(article_id)

    raw_cells = document["cells"]
    if type(raw_cells) is not list:
        raise CorruptDocument("cells", "expected an array")
    cumulative = PolarityLedger()
    cells = cumulative._cells
    for i, raw in enumerate(raw_cells):
        if type(raw) is not dict or len(raw) != 4:
            raise _fields_fault(raw, f"cells[{i}]", _CELL_KEYS)
        try:
            who, whom, p, s = _cell_fields(raw)
        except KeyError:  # as many keys as expected, so one of them is unknown
            raise _fields_fault(raw, f"cells[{i}]", _CELL_KEYS) from None
        if type(who) is not str or not who or strict and unencodable(who):
            raise _str_fault(who, f"cells[{i}].who")
        if type(whom) is not str or not whom or strict and unencodable(whom):
            raise _str_fault(whom, f"cells[{i}].whom")
        if type(p) is not int:
            raise _int_fault(p, f"cells[{i}].p")
        if type(s) is not int:
            raise _int_fault(s, f"cells[{i}].s")
        if s < 1:
            raise CorruptDocument(f"cells[{i}].s", "statement count must be at least 1")
        if abs(p) > s:
            raise CorruptDocument(f"cells[{i}].p", f"|p| = {abs(p)} exceeds s = {s}")
        if (who, whom) in cells:
            raise CorruptDocument(f"cells[{i}]", f"duplicate cell key ({who!r}, {whom!r})")
        cells[(who, whom)] = _new(Cell, (p, s))

    raw_history = document["history"]
    if type(raw_history) is not list:
        raise CorruptDocument("history", "expected an array")
    history = ArticleScoreHistory()
    # Every pair, also one whose empty score list is not stored.
    seen_pairs: set[tuple[str, str]] = set()
    for i, raw in enumerate(raw_history):
        if type(raw) is not dict or len(raw) != 3:
            raise _fields_fault(raw, f"history[{i}]", _PAIR_KEYS)
        try:
            outlet, whom, raw_scores = _pair_fields(raw)
        except KeyError:
            raise _fields_fault(raw, f"history[{i}]", _PAIR_KEYS) from None
        if type(outlet) is not str or not outlet or strict and unencodable(outlet):
            raise _str_fault(outlet, f"history[{i}].outlet")
        if type(whom) is not str or not whom or strict and unencodable(whom):
            raise _str_fault(whom, f"history[{i}].whom")
        if (outlet, whom) in seen_pairs:
            raise CorruptDocument(
                f"history[{i}]", f"duplicate history key ({outlet!r}, {whom!r})"
            )
        seen_pairs.add((outlet, whom))
        if type(raw_scores) is not list:
            raise CorruptDocument(f"history[{i}].scores", "expected an array")
        entries: list[tuple[str, int, int]] = []
        seen_articles: set[str] = set()
        for j, raw_score in enumerate(raw_scores):
            if type(raw_score) is not dict or len(raw_score) != 3:
                raise _fields_fault(raw_score, f"history[{i}].scores[{j}]", _SCORE_KEYS)
            try:
                entry = article_id, num, den = _score_fields(raw_score)
            except KeyError:
                raise _fields_fault(raw_score, f"history[{i}].scores[{j}]", _SCORE_KEYS) from None
            if (
                type(article_id) is not str or not article_id
                or strict and unencodable(article_id)
            ):
                raise _str_fault(article_id, f"history[{i}].scores[{j}].article_id")
            if article_id not in processed:
                raise CorruptDocument(
                    f"history[{i}].scores[{j}].article_id",
                    f"article {article_id!r} is not in the processed registry",
                )
            if article_id in seen_articles:
                raise CorruptDocument(
                    f"history[{i}].scores[{j}].article_id",
                    f"article {article_id!r} scored twice for the same pair",
                )
            seen_articles.add(article_id)
            if type(num) is not int:
                raise _int_fault(num, f"history[{i}].scores[{j}].num")
            if type(den) is not int:
                raise _int_fault(den, f"history[{i}].scores[{j}].den")
            if den < 1:
                raise CorruptDocument(
                    f"history[{i}].scores[{j}].den", "denominator must be at least 1"
                )
            if abs(num) > den:
                raise CorruptDocument(
                    f"history[{i}].scores[{j}]", f"score {num}/{den} outside [-1, 1]"
                )
            if gcd(num, den) != 1:
                raise CorruptDocument(
                    f"history[{i}].scores[{j}]", f"{num}/{den} is not in lowest terms"
                )
            entries.append(entry)
        if entries:
            history._scores[(outlet, whom)] = entries

    if fingerprint is None and (processed or raw_cells or raw_history):
        raise CorruptDocument(
            "lexicon_fingerprint", "missing fingerprint on a non-empty knowledge base"
        )

    return KnowledgeBase(cumulative, history, processed, fingerprint)


def load(path: str | Path, missing_ok: bool = False) -> KnowledgeBase:
    """The knowledge base in the file at ``path``; with ``missing_ok``, an empty one if none.

    Only a file that is not there is missing: one that cannot be read raises.
    """
    try:
        text = read_utf8(path, lambda message: CorruptDocument("document", message))
    except FileNotFoundError:
        if missing_ok:
            return KnowledgeBase()
        raise
    return loads(text)


@contextmanager
def update(path: str | Path) -> Iterator[KnowledgeBase]:
    """Yield the knowledge base at ``path`` (empty if absent) and save it if the block succeeds.

    An exclusive ``flock`` on ``.<name>.lock`` beside the KB is held from
    the load to the rename, so a second update fails at once rather than
    drop the first one's batch.  The lock file stays: were it unlinked,
    an update holding the old file and one that created a new one would
    both hold "the" lock.  A symlink at ``path`` is resolved once: the
    lock and the save act on its target, and messages name ``path``.
    A path that is there but not a regular file raises what ``load``
    raises for it in every command, before the lock file is made.
    """
    import fcntl  # POSIX only, so imported here: the other commands run anywhere
    if os.path.exists(path) and not os.path.isfile(path):
        load(path)
    target = os.path.realpath(path) if os.path.islink(path) else path
    lock = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.lock")
    try:
        fd = os.open(lock, os.O_RDONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise OSError(f"cannot save {Path(path)}: {exc.strerror or exc}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PolisentError(f"{Path(path)}: another train is writing it "
                                f"(lock file {lock} is held)") from None
        kb = load(path, missing_ok=True)
        yield kb
        _save(kb, Path(target), Path(path))
    finally:
        os.close(fd)


def _save(kb: KnowledgeBase, path: Path, shown: Path) -> None:
    """Write the document to ``.<name>.tmp`` beside ``path``, then rename it over.

    A crash at any point leaves the old or the new document, and a failed
    save removes its temp file and names ``shown``.  Under the lock no other
    save is in flight, so the temp name is fixed and a killed save's is
    removed first.  The new file keeps the old one's mode, and the directory
    is synced after the rename, so the new document survives a power loss.
    """
    text = dumps(kb)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.unlink(missing_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            if path.exists():
                os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot save {shown}: {exc.strerror or exc}") from None
