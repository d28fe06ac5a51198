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

``dumps`` writes the text of ``json.dumps(document, sort_keys=True,
indent=2, ensure_ascii=False)`` by hand: with ``indent`` set the
standard library uses its pure-Python encoder, several times slower
than this.  Strings go through the C ``encode_basestring`` that the
standard library's encoder uses too, so the bytes are the same.

``loads`` enforces the full schema and every cell/history invariant in
one pass over the parsed document, section by section in the order
above and field by field within each element, so the first fault found
is the first in that order.  A string must be one that UTF-8 can encode,
so an escaped lone surrogate such as ``"\\ud800"`` is a fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring
from typing import NamedTuple

from .analyzer import StatementRecord, analyze_article
from .errors import (
    CorruptDocument,
    DuplicateArticle,
    LexiconMismatch,
    VersionMismatch,
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
# Builds a Cell without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


@dataclass(repr=False)
class KnowledgeBase:
    """Evolving training state built up one article at a time."""

    cumulative: PolarityLedger = field(default_factory=PolarityLedger)
    history: ArticleScoreHistory = field(default_factory=ArticleScoreHistory)
    processed: set[str] = field(default_factory=set)
    lexicon_fingerprint: str | None = None

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
            f'          "den": {score.denominator},\n          "num": {score.numerator}\n        }}'
            for article_id, score in entries
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


def _unencodable(value: str) -> bool:
    """Whether UTF-8 cannot encode ``value``, as when it holds a lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


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
        type(fingerprint) is not str or not fingerprint or strict and _unencodable(fingerprint)
    ):
        raise _str_fault(fingerprint, "lexicon_fingerprint")

    raw_processed = document["processed"]
    if type(raw_processed) is not list:
        raise CorruptDocument("processed", "expected an array")
    processed: set[str] = set()
    for i, article_id in enumerate(raw_processed):
        if type(article_id) is not str or not article_id or strict and _unencodable(article_id):
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
        if type(raw) is not dict or raw.keys() != _CELL_KEYS:
            raise _fields_fault(raw, f"cells[{i}]", _CELL_KEYS)
        who = raw["who"]
        if type(who) is not str or not who or strict and _unencodable(who):
            raise _str_fault(who, f"cells[{i}].who")
        whom = raw["whom"]
        if type(whom) is not str or not whom or strict and _unencodable(whom):
            raise _str_fault(whom, f"cells[{i}].whom")
        p = raw["p"]
        if type(p) is not int:
            raise _int_fault(p, f"cells[{i}].p")
        s = raw["s"]
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
    # An article score is p/s over one article's few statements toward a
    # target, so the same values recur across articles: on the benchmark
    # KBs under 8% of the scores are distinct.  Each distinct (num, den)
    # is checked and built once.
    scores: dict[tuple[int, int], Fraction] = {}
    # Every pair, also one whose empty score list set_entries drops.
    seen_pairs: set[tuple[str, str]] = set()
    for i, raw in enumerate(raw_history):
        if type(raw) is not dict or raw.keys() != _PAIR_KEYS:
            raise _fields_fault(raw, f"history[{i}]", _PAIR_KEYS)
        outlet = raw["outlet"]
        if type(outlet) is not str or not outlet or strict and _unencodable(outlet):
            raise _str_fault(outlet, f"history[{i}].outlet")
        whom = raw["whom"]
        if type(whom) is not str or not whom or strict and _unencodable(whom):
            raise _str_fault(whom, f"history[{i}].whom")
        if (outlet, whom) in seen_pairs:
            raise CorruptDocument(
                f"history[{i}]", f"duplicate history key ({outlet!r}, {whom!r})"
            )
        seen_pairs.add((outlet, whom))
        raw_scores = raw["scores"]
        if type(raw_scores) is not list:
            raise CorruptDocument(f"history[{i}].scores", "expected an array")
        entries: list[tuple[str, Fraction]] = []
        seen_articles: set[str] = set()
        for j, raw_score in enumerate(raw_scores):
            if type(raw_score) is not dict or raw_score.keys() != _SCORE_KEYS:
                raise _fields_fault(raw_score, f"history[{i}].scores[{j}]", _SCORE_KEYS)
            article_id = raw_score["article_id"]
            if (
                type(article_id) is not str or not article_id
                or strict and _unencodable(article_id)
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
            num = raw_score["num"]
            if type(num) is not int:
                raise _int_fault(num, f"history[{i}].scores[{j}].num")
            den = raw_score["den"]
            if type(den) is not int:
                raise _int_fault(den, f"history[{i}].scores[{j}].den")
            score = scores.get((num, den))
            if score is None:  # the checks below depend on (num, den) alone
                if den < 1:
                    raise CorruptDocument(
                        f"history[{i}].scores[{j}].den", "denominator must be at least 1"
                    )
                if abs(num) > den:
                    raise CorruptDocument(
                        f"history[{i}].scores[{j}]", f"score {num}/{den} outside [-1, 1]"
                    )
                score = scores[(num, den)] = Fraction(num, den)
                if score.denominator != den:
                    raise CorruptDocument(
                        f"history[{i}].scores[{j}]", f"{num}/{den} is not in lowest terms"
                    )
            entries.append((article_id, score))
        history.set_entries(outlet, whom, entries)

    if fingerprint is None and (processed or raw_cells or raw_history):
        raise CorruptDocument(
            "lexicon_fingerprint", "missing fingerprint on a non-empty knowledge base"
        )

    return KnowledgeBase(
        cumulative=cumulative,
        history=history,
        processed=processed,
        lexicon_fingerprint=fingerprint,
    )
