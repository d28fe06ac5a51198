import copy
import io
import json
import random
from fractions import Fraction

import pytest

from polisent import (
    Cell,
    CorruptDocument,
    DuplicateArticle,
    KnowledgeBase,
    LexiconMismatch,
    NEUTRAL,
    VersionMismatch,
    ingest,
    kb as kbmod,
    load_lexicon,
    outlet_tendency,
    outlet_view,
)
from support import history_entries, random_kb


def roundtrip(kb):
    return kbmod.loads(kbmod.dumps(kb))


def test_ingest_first_article(lexicon, article1):
    kb = KnowledgeBase()
    report = ingest(kb, article1, lexicon)
    assert outlet_view(kb.cumulative, "k", "andi") == Cell(-7, 7)
    assert history_entries(kb.history, "k", "andi") == [("1", Fraction(-1))]
    assert kb.processed == {"1"}
    assert kb.lexicon_fingerprint == lexicon.fingerprint()
    assert report.scores == {
        "andi": Fraction(-1),
        "deddy": Fraction(-1),
        "kpk": Fraction(1),
    }
    assert len(report.records) == 9


def test_reingest_rejected_and_kb_unchanged(lexicon, article1):
    kb = KnowledgeBase()
    ingest(kb, article1, lexicon)
    snapshot = copy.deepcopy(kb)
    with pytest.raises(DuplicateArticle):
        ingest(kb, article1, lexicon)
    assert kb == snapshot
    assert kbmod.dumps(kb) == kbmod.dumps(snapshot)


def test_ingest_folds_into_the_cumulative_ledger_in_place(lexicon, article1, article2):
    kb = KnowledgeBase()
    ingest(kb, article1, lexicon)
    cumulative = kb.cumulative
    ingest(kb, article2, lexicon)
    assert kb.cumulative is cumulative  # not a rebuilt copy per article
    assert cumulative.cell("k", "andi") == Cell(-7, 7)  # (-6, 6) from article 1, (-1, 1) from 2


def test_ingest_both_articles(trained_kb):
    assert history_entries(trained_kb.history, "k", "andi") == [
        ("1", Fraction(-1)),
        ("2", Fraction(1, 2)),
    ]
    assert outlet_tendency(trained_kb.history, "andi") == Fraction(-1, 4)
    assert outlet_tendency(trained_kb.history, "deddy") == Fraction(-1)
    assert outlet_tendency(trained_kb.history, "kpk") == Fraction(1)


def test_lexicon_mismatch_rejected(lexicon, article1, article2):
    kb = KnowledgeBase()
    ingest(kb, article1, lexicon)
    other = load_lexicon(io.StringIO("[outlet] k\n[opinions]\nbaik +1\n"))
    with pytest.raises(LexiconMismatch):
        ingest(kb, article2, other)


def test_cells_section_has_six_distinct_keys(trained_kb):
    # Hand enumeration of distinct (who, whom) pairs across both demo
    # articles: (kpk, andi), (k, andi), (k, kpk), (kpk, deddy),
    # (km, andi), (ahmad, andi).
    document = json.loads(kbmod.dumps(trained_kb))
    keys = {(c["who"], c["whom"]) for c in document["cells"]}
    assert keys == {
        ("kpk", "andi"),
        ("k", "andi"),
        ("k", "kpk"),
        ("kpk", "deddy"),
        ("km", "andi"),
        ("ahmad", "andi"),
    }
    assert len(document["cells"]) == 6


def test_empty_kb_document_shape():
    document = json.loads(kbmod.dumps(KnowledgeBase()))
    assert document == {
        "version": 1,
        "lexicon_fingerprint": None,
        "processed": [],
        "cells": [],
        "history": [],
    }


def test_roundtrip_trained(trained_kb):
    assert roundtrip(trained_kb) == trained_kb


def test_roundtrip_empty():
    assert roundtrip(KnowledgeBase()) == KnowledgeBase()


def test_roundtrip_random():
    rng = random.Random(21)
    for _ in range(200):
        kb = random_kb(rng)
        again = roundtrip(kb)
        assert again == kb
        assert kbmod.dumps(again) == kbmod.dumps(kb)


def test_save_is_byte_deterministic(trained_kb):
    assert kbmod.dumps(trained_kb) == kbmod.dumps(trained_kb)


def test_cumulative_cells_order_independent(lexicon, corpus):
    forward = KnowledgeBase()
    backward = KnowledgeBase()
    for article in corpus:
        ingest(forward, article, lexicon)
    for article in reversed(corpus):
        ingest(backward, article, lexicon)
    assert forward.cumulative == backward.cumulative
    # History order differs by construction; direct cells must not.
    assert history_entries(forward.history, "k", "andi") != history_entries(
        backward.history, "k", "andi"
    )


def test_load_truncated_document(trained_kb):
    text = kbmod.dumps(trained_kb)
    with pytest.raises(CorruptDocument):
        kbmod.loads(text[: len(text) // 2])


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000],
                         ids=["array", "object"])
def test_load_deeply_nested_document(text):
    with pytest.raises(CorruptDocument) as err:
        kbmod.loads(text)
    assert "nested too deeply" in str(err.value)


def test_load_rejects_invariant_violation(trained_kb):
    document = json.loads(kbmod.dumps(trained_kb))
    document["cells"][0]["p"] = document["cells"][0]["s"] + 1
    with pytest.raises(CorruptDocument) as err:
        kbmod.loads(json.dumps(document))
    assert "cells[0]" in str(err.value)


@pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
def test_load_rejects_surrogate_strings(trained_kb, ensure_ascii):
    document = json.loads(kbmod.dumps(trained_kb))
    document["history"][0]["whom"] = "a\ud800"
    document["cells"][1]["who"] = "\udfff"
    with pytest.raises(CorruptDocument) as err:
        kbmod.loads(json.dumps(document, ensure_ascii=ensure_ascii))
    assert str(err.value).startswith("cells[1].who: ")
    assert "surrogate" in str(err.value)
    # Escaped, a high and a low surrogate in a row are one character.
    document["cells"][1]["who"] = "\ud83d\ude00"
    with pytest.raises(CorruptDocument) as err:
        kbmod.loads(json.dumps(document, ensure_ascii=ensure_ascii))
    want = "history[0].whom: " if ensure_ascii else "cells[1].who: "
    assert str(err.value).startswith(want)


def test_load_rejects_version_mismatch(trained_kb):
    document = json.loads(kbmod.dumps(trained_kb))
    document["version"] = 99
    with pytest.raises(VersionMismatch):
        kbmod.loads(json.dumps(document))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.pop("cells"), "missing"),
        (lambda d: d["cells"][0].update(s=0), "cells[0].s"),
        (lambda d: d["cells"][0].update(who=""), "cells[0].who"),
        (lambda d: d["cells"].append(dict(d["cells"][0])), "duplicate cell"),
        (lambda d: d["processed"].append(d["processed"][0]), "duplicate article"),
        (lambda d: d["history"][0]["scores"][0].update(den=0), "den"),
        (lambda d: d["history"][0]["scores"][0].update(num=5, den=2), "outside"),
        (lambda d: d["history"][0]["scores"][0].update(num=2, den=4), "lowest terms"),
        (lambda d: d["history"][0]["scores"][0].update(article_id="ghost"), "registry"),
        (lambda d: d.update(lexicon_fingerprint=None), "fingerprint"),
        (lambda d: d["cells"][0].update(p=True), "integer"),
    ],
)
def test_load_rejects_schema_violations(trained_kb, mutate, fragment):
    document = json.loads(kbmod.dumps(trained_kb))
    mutate(document)
    with pytest.raises(CorruptDocument) as err:
        kbmod.loads(json.dumps(document))
    assert fragment in str(err.value)


def test_history_preserves_ingestion_order():
    kb = KnowledgeBase(processed={"b", "a"}, lexicon_fingerprint="f" * 64)
    kb.history.record("k", "x", "b", Fraction(1))
    kb.history.record("k", "x", "a", Fraction(-1))
    again = roundtrip(kb)
    assert history_entries(again.history, "k", "x") == [("b", Fraction(1)), ("a", Fraction(-1))]


def test_tendency_neutral_on_empty_history():
    kb = KnowledgeBase()
    assert outlet_tendency(kb.history, "anyone") is NEUTRAL
