"""The knowledge-base codec as it was before the hand-written layout, kept as a test oracle.

``loads`` checks each field through the ``_expect*`` helpers and records
every score through ``ArticleScoreHistory.record``.  It also rejects a
string that UTF-8 cannot encode, a rule added after the codec was frozen
so that both sides accept the same documents.  ``dumps`` is the
standard library's encoder with ``sort_keys=True, indent=2,
ensure_ascii=False``.  The differential tests require ``polisent.kb`` to
accept, reject and write exactly what these do.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from polisent.errors import CorruptDocument, VersionMismatch
from polisent.kb import FORMAT_VERSION, KnowledgeBase
from polisent.ledger import ArticleScoreHistory, Cell, PolarityLedger

_TOP_KEYS = {"version", "lexicon_fingerprint", "processed", "cells", "history"}


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
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        message = "string holds a surrogate, which UTF-8 cannot encode"
        raise CorruptDocument(path, message) from None
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
    cumulative = PolarityLedger()
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
