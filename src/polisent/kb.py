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
Loading enforces the full schema and every cell/history invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .analyzer import StatementRecord, analyze_article
from .errors import (
    CorruptDocument,
    DuplicateArticle,
    LexiconMismatch,
    VersionMismatch,
)
from .ledger import (
    ARTICLE,
    CUMULATIVE,
    ArticleScoreHistory,
    Cell,
    PolarityLedger,
    article_score,
    merge,
)
from .lexicon import Lexicon
from .textpipe import RawArticle

FORMAT_VERSION = 1

_TOP_KEYS = {"version", "lexicon_fingerprint", "processed", "cells", "history"}


class KnowledgeBase:
    """Evolving training state built up one article at a time."""

    def __init__(
        self,
        cumulative: PolarityLedger | None = None,
        history: ArticleScoreHistory | None = None,
        processed: set[str] | None = None,
        lexicon_fingerprint: str | None = None,
    ):
        self.cumulative = cumulative if cumulative is not None else PolarityLedger(CUMULATIVE)
        self.history = history if history is not None else ArticleScoreHistory()
        self.processed = set(processed) if processed is not None else set()
        self.lexicon_fingerprint = lexicon_fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self.lexicon_fingerprint == other.lexicon_fingerprint
            and self.processed == other.processed
            and self.cumulative == other.cumulative
            and self.history == other.history
        )

    def __repr__(self) -> str:
        return (
            f"KnowledgeBase(articles={len(self.processed)}, "
            f"cells={len(self.cumulative)}, pairs={len(self.history)})"
        )


@dataclass
class IngestReport:
    """Per-article result: extracted statements, matrices and scores."""

    article_id: str
    records: list[StatementRecord] = field(default_factory=list)
    scores: dict[str, Fraction] = field(default_factory=dict)


def ingest(kb: KnowledgeBase, article: RawArticle, lexicon: Lexicon) -> IngestReport:
    """Analyze one article and fold it into the knowledge base.

    The cumulative ledger as of the call is the prior for the sarcasm
    check.  Article scores are recorded for every target the article
    mentions, then the per-article cells join the cumulative ledger.
    Mutates ``kb``; raises before any mutation on duplicate articles or
    lexicon mismatch.
    """
    fingerprint = lexicon.fingerprint()
    if kb.lexicon_fingerprint is not None and kb.lexicon_fingerprint != fingerprint:
        raise LexiconMismatch(
            "knowledge base was built with a different lexicon "
            f"({kb.lexicon_fingerprint[:12]}... != {fingerprint[:12]}...)"
        )
    if article.article_id in kb.processed:
        raise DuplicateArticle(article.article_id)

    records = analyze_article(article, lexicon, prior=kb.cumulative)
    article_ledger = PolarityLedger(ARTICLE)
    for record in records:
        article_ledger.apply(record)

    scores: dict[str, Fraction] = {}
    for whom in sorted(article_ledger.whoms()):
        score = article_score(article_ledger, whom)
        scores[whom] = score
        kb.history.record(article.outlet_id, whom, article.article_id, score)

    kb.cumulative = merge(kb.cumulative, article_ledger.as_scope(CUMULATIVE))
    kb.processed.add(article.article_id)
    kb.lexicon_fingerprint = fingerprint
    return IngestReport(
        article_id=article.article_id,
        records=records,
        scores=scores,
    )


def dumps(kb: KnowledgeBase) -> str:
    document = {
        "version": FORMAT_VERSION,
        "lexicon_fingerprint": kb.lexicon_fingerprint,
        "processed": sorted(kb.processed),
        "cells": [
            {"who": who, "whom": whom, "p": cell.p, "s": cell.s}
            for (who, whom), cell in kb.cumulative.items()
        ],
        "history": [
            {
                "outlet": outlet,
                "whom": whom,
                "scores": [
                    {
                        "article_id": article_id,
                        "num": score.numerator,
                        "den": score.denominator,
                    }
                    for article_id, score in entries
                ],
            }
            for (outlet, whom), entries in kb.history.items()
        ],
    }
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _expect(condition: bool, path: str, message: str, *args: object) -> None:
    """Raise unless ``condition``; only then is ``message`` formatted with ``args``."""
    if not condition:
        raise CorruptDocument(path, message.format(*args))


def _expect_int(value: object, path: str) -> int:
    # bool is an int subclass; reject it explicitly.
    _expect(type(value) is int, path, "expected an integer, got {!r}", value)
    return value


def _expect_str(value: object, path: str) -> str:
    _expect(isinstance(value, str) and value != "", path, "expected a non-empty string")
    return value


def _expect_keys(value: object, path: str, keys: set[str]) -> dict:
    _expect(isinstance(value, dict), path, "expected an object")
    if value.keys() != keys:
        extra = value.keys() - keys
        _expect(not extra, path, "unknown fields {}", sorted(extra))
        raise CorruptDocument(path, f"missing fields {sorted(keys - value.keys())}")
    return value


def loads(text: str) -> KnowledgeBase:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptDocument("document", f"invalid JSON ({exc})") from None
    except RecursionError:
        raise CorruptDocument("document", "JSON nested too deeply") from None

    _expect_keys(document, "document", _TOP_KEYS)

    version = _expect_int(document["version"], "version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format version {version}, expected {FORMAT_VERSION}"
        )

    fingerprint = document["lexicon_fingerprint"]
    if fingerprint is not None:
        fingerprint = _expect_str(fingerprint, "lexicon_fingerprint")

    raw_processed = document["processed"]
    _expect(isinstance(raw_processed, list), "processed", "expected an array")
    processed: set[str] = set()
    for i, article_id in enumerate(raw_processed):
        path = f"processed[{i}]"
        article_id = _expect_str(article_id, path)
        _expect(article_id not in processed, path, "duplicate article id {!r}", article_id)
        processed.add(article_id)

    raw_cells = document["cells"]
    _expect(isinstance(raw_cells, list), "cells", "expected an array")
    cumulative = PolarityLedger(CUMULATIVE)
    for i, raw in enumerate(raw_cells):
        path = f"cells[{i}]"
        raw = _expect_keys(raw, path, {"who", "whom", "p", "s"})
        who = _expect_str(raw["who"], f"{path}.who")
        whom = _expect_str(raw["whom"], f"{path}.whom")
        p = _expect_int(raw["p"], f"{path}.p")
        s = _expect_int(raw["s"], f"{path}.s")
        _expect(s >= 1, f"{path}.s", "statement count must be at least 1")
        _expect(abs(p) <= s, f"{path}.p", "|p| = {} exceeds s = {}", abs(p), s)
        _expect(
            (who, whom) not in cumulative._cells,
            path,
            "duplicate cell key ({!r}, {!r})", who, whom,
        )
        cumulative._cells[(who, whom)] = Cell(p, s)

    raw_history = document["history"]
    _expect(isinstance(raw_history, list), "history", "expected an array")
    history = ArticleScoreHistory()
    seen_pairs: set[tuple[str, str]] = set()
    for i, raw in enumerate(raw_history):
        path = f"history[{i}]"
        raw = _expect_keys(raw, path, {"outlet", "whom", "scores"})
        outlet = _expect_str(raw["outlet"], f"{path}.outlet")
        whom = _expect_str(raw["whom"], f"{path}.whom")
        _expect(
            (outlet, whom) not in seen_pairs,
            path,
            "duplicate history key ({!r}, {!r})", outlet, whom,
        )
        seen_pairs.add((outlet, whom))
        raw_scores = raw["scores"]
        _expect(isinstance(raw_scores, list), f"{path}.scores", "expected an array")
        seen_articles: set[str] = set()
        for j, raw_score in enumerate(raw_scores):
            score_path = f"{path}.scores[{j}]"
            raw_score = _expect_keys(raw_score, score_path, {"article_id", "num", "den"})
            article_id = _expect_str(raw_score["article_id"], f"{score_path}.article_id")
            _expect(
                article_id in processed,
                f"{score_path}.article_id",
                "article {!r} is not in the processed registry", article_id,
            )
            _expect(
                article_id not in seen_articles,
                f"{score_path}.article_id",
                "article {!r} scored twice for the same pair", article_id,
            )
            seen_articles.add(article_id)
            num = _expect_int(raw_score["num"], f"{score_path}.num")
            den = _expect_int(raw_score["den"], f"{score_path}.den")
            _expect(den >= 1, f"{score_path}.den", "denominator must be at least 1")
            _expect(abs(num) <= den, score_path, "score {}/{} outside [-1, 1]", num, den)
            _expect(gcd(num, den) == 1, score_path, "{}/{} is not in lowest terms", num, den)
            history.record(outlet, whom, article_id, Fraction(num, den))

    if fingerprint is None:
        _expect(
            not processed and not raw_cells and not raw_history,
            "lexicon_fingerprint",
            "missing fingerprint on a non-empty knowledge base",
        )

    return KnowledgeBase(
        cumulative=cumulative,
        history=history,
        processed=processed,
        lexicon_fingerprint=fingerprint,
    )
