import copy
import json
import random
from fractions import Fraction

import pytest

from polisent import kb as kbmod
from polisent.analyzer import StatementRecord
from polisent.errors import CorruptDocument, DuplicateArticle, LexiconMismatch, VersionMismatch
from polisent.kb import KnowledgeBase, ingest
from polisent.ledger import NEUTRAL, Cell, outlet_tendency, outlet_view
from polisent.lexicon import load_lexicon
from support import (
    MINI_LEXICON, history_entries, random_article, random_kb, run_cli, surfaces,
)


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
    other = load_lexicon("[outlet] k\n[opinions]\nbaik +1\n".splitlines())
    with pytest.raises(LexiconMismatch):
        ingest(kb, article2, other)


def test_analyze_prints_the_scores_train_records(capsys, tmp_path):
    # One scoring path: ``analyze`` against the KB as it stands prints the
    # score lines ``train`` then prints for the same article.
    rng = random.Random(31)
    lexicon = tmp_path / "mini.txt"
    lexicon.write_text(MINI_LEXICON.dumps(), encoding="utf-8")
    ids = [MINI_LEXICON.outlet_id] + surfaces(MINI_LEXICON, "entity")
    kb = KnowledgeBase(lexicon_fingerprint=MINI_LEXICON.fingerprint())
    for i in range(30):  # a random prior over the lexicon's ids feeds the sarcasm check
        kb.cumulative.apply(StatementRecord(
            article_id="prior", sentence_index=i + 1, who=rng.choice(ids),
            whom=rng.choice(ids), value=rng.choice((-1, 1)),
        ))
    kb_path = tmp_path / "mini.kb.json"
    kb_path.write_text(kbmod.dumps(kb), encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    scored = 0
    for i in range(40):
        article = random_article(rng, article_id=f"a{i}")
        path = corpus / f"{article.article_id}.txt"
        path.write_text(f"@article {article.article_id} @outlet {article.outlet_id}\n"
                        f"{article.body}\n", encoding="utf-8")
        code, analyzed, _ = run_cli(capsys, "analyze", path, "--lexicon", lexicon,
                                    "--kb", kb_path)
        assert code == 0
        code, trained, _ = run_cli(capsys, "train", "--corpus", corpus, "--lexicon", lexicon,
                                   "--kb", kb_path)
        assert code == 0
        prefix = f"{article.article_id} "
        assert analyzed.splitlines() == [
            line[len(prefix):] for line in trained.splitlines() if line.startswith(prefix)
        ]
        scored += bool(analyzed)
        path.unlink()
    assert scored > 20

    foreign = tmp_path / "foreign.txt"
    foreign.write_text("[outlet] out\n[opinions]\ngood +1\n", encoding="utf-8")
    path.write_text("@article new @outlet out\ne1 good.\n", encoding="utf-8")
    train_code, out, train_err = run_cli(capsys, "train", "--corpus", corpus,
                                         "--lexicon", foreign, "--kb", kb_path)
    assert (train_code, out) == (2, "")
    analyze_code, out, analyze_err = run_cli(capsys, "analyze", path, "--lexicon", foreign,
                                             "--kb", kb_path)
    assert (analyze_code, out) == (2, "")
    assert analyze_err == train_err
    assert train_err.startswith("error: knowledge base was built with a different lexicon (")


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
        (lambda d: d.update(processed={}), "processed: expected an array"),
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


@pytest.mark.parametrize("change", [
    lambda kb: kb.cumulative.apply(StatementRecord("2", 0, "k", "andi", 1)),
    lambda kb: kb.history.record("k", "andi", "9", Fraction(1)),
    lambda kb: kb.processed.add("9"),
    lambda kb: setattr(kb, "lexicon_fingerprint", "0" * 64),
], ids=["cumulative", "history", "processed", "lexicon_fingerprint"])
def test_kb_equality_reads_every_field(trained_kb, change):
    other = copy.deepcopy(trained_kb)
    assert other == trained_kb
    change(other)
    assert other != trained_kb


def test_empty_kbs_are_equal_and_share_no_state():
    one, other = KnowledgeBase(), KnowledgeBase()
    assert one == other
    one.processed.add("a")
    one.history.record("k", "x", "a", Fraction(1))
    assert other == KnowledgeBase()


def test_kb_repr_counts_articles_cells_and_pairs(trained_kb):
    assert repr(KnowledgeBase()) == "KnowledgeBase(articles=0, cells=0, pairs=0)"
    assert repr(trained_kb) == "KnowledgeBase(articles=2, cells=6, pairs=3)"
