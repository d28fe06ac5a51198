"""Tests of the benchmark itself: generator, oracle and span recorder.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads
from oracle import Extractor, Model
from polisent import KnowledgeBase, analyze_article, cli, ingest, kb, load_lexicon_file
from polisent.textpipe import parse_article

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]

SMALL_TEXT = workloads.Workload(
    name="small-text",
    lexicon=gen.LexiconShape(entities=12, two_word_share=0.5, nickname_share=0.3, outlets=3,
                             plain=60),
    train=gen.ArticleShape(sentences=(6, 10), tokens=(6, 18), cast=(2, 5),
                           speaker_share=0.3, split_alias_share=0.3),
    train_articles=15,
    query=gen.ArticleShape(sentences=(4, 8), tokens=(6, 18), cast=(2, 5)),
    analyze_per_round=4,
)
SMALL_GROWN = dataclasses.replace(
    SMALL_TEXT,
    name="small-grown",
    grown=gen.GrownShape(articles=60, targets=(1, 3), statements=(1, 3),
                         entity_speaker_share=0.1),
)


def files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", [SMALL_TEXT, SMALL_GROWN, workloads.WORKLOADS["ingest-grown"]],
                         ids=lambda w: w.name)
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, workload):
    first = files(workloads.build(workload, 7, tmp_path / "a").directory)
    again = files(workloads.build(workload, 7, tmp_path / "b").directory)
    other = files(workloads.build(workload, 8, tmp_path / "c").directory)
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in ("lexicon.txt", "batch/n000001.txt"))


def test_generated_lexicon_fingerprint_matches_polisent(tmp_path):
    inputs = workloads.build(workloads.WORKLOADS["ingest-grown"], 3, tmp_path)
    lexicon = load_lexicon_file(inputs.lexicon_path)
    assert lexicon.fingerprint() == inputs.lexicon.fingerprint()
    assert lexicon.dumps() == inputs.lexicon.text()


@pytest.mark.parametrize("seed", [1, 2])
def test_synthesized_kb_round_trips_byte_identically(tmp_path, seed):
    workload = workloads.WORKLOADS["ingest-grown"]
    inputs = workloads.build(workload, seed, tmp_path)
    text = inputs.start_text
    loaded = kb.loads(text)
    assert kb.dumps(loaded) == text
    assert loaded.lexicon_fingerprint == load_lexicon_file(inputs.lexicon_path).fingerprint()
    assert len(loaded.processed) == workload.grown.articles
    assert len(loaded.history) == len(inputs.start.history)
    assert len(loaded.cumulative) == len(inputs.start.cells)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("workload", [SMALL_TEXT, SMALL_GROWN], ids=lambda w: w.name)
def test_oracle_statements_match_polisent(tmp_path, workload, seed):
    """Statement by statement, sarcasm flags included, article after article."""
    inputs = workloads.build(workload, seed, tmp_path)
    lexicon = load_lexicon_file(inputs.lexicon_path)
    extractor = Extractor(inputs.lexicon)
    model = inputs.start.copy()
    state = kb.loads(inputs.start_text) if inputs.start_text else KnowledgeBase()
    flags = 0
    for article in inputs.batch:
        expected = extractor.statements(article, model.cells)
        report = ingest(state, parse_article(article.text), lexicon)
        actual = [(r.who, r.whom, r.value, r.sarcasm) for r in report.records]
        assert actual == expected, article.article_id
        model.fold(article.article_id, article.outlet, expected)
        flags += sum(r.sarcasm for r in report.records)
    for article in inputs.queries:
        records = analyze_article(parse_article(article.text), lexicon, prior=state.cumulative)
        assert [(r.who, r.whom, r.value, r.sarcasm) for r in records] == \
            extractor.statements(article, model.cells)
    model.fingerprint = lexicon.fingerprint()
    assert kb.dumps(state) == model.text()


@pytest.mark.parametrize("seed", range(1, 4))
@pytest.mark.parametrize("workload", [SMALL_TEXT, SMALL_GROWN], ids=lambda w: w.name)
def test_oracle_agrees_with_every_command(tmp_path, workload, seed):
    client, metrics, _ = run.measure(workload, seed, 0, tmp_path, cli)
    assert client.problems == []
    assert client.failed == 0
    assert all(value > 0 for value, _ in metrics.values())


def test_each_call_is_scaled_by_the_reference_around_it(tmp_path):
    class Stub:
        def __init__(self, times):
            self.times = list(times)

        def time(self):
            return self.times.pop(0)

    inputs = workloads.build(SMALL_GROWN, 1, tmp_path)
    calls = run.round_calls(inputs, workloads.expected(inputs))[:5]
    around = [0.01, 0.03, 0.02, 0.06, 0.04, 0.05]
    samples, scaled = defaultdict(list), defaultdict(list)
    run.run_round(run.Client(cli), inputs, calls, samples, Stub(around), scaled)
    elapsed = samples["train"] + samples["analyze"]
    assert [c for c, *_ in calls] == ["train"] + ["analyze"] * 4
    assert scaled["train"] + scaled["analyze"] == [
        pytest.approx(t * run.REF_S / ((a + b) / 2))
        for t, a, b in zip(elapsed, around, around[1:])]


def test_reference_task_is_the_same_in_every_run():
    first, again = run.Reference(), run.Reference()
    assert first.start.text() == again.start.text()
    assert [a.text for a in first.batch] == [a.text for a in again.batch]
    assert first.time() > 0 and first.times


def test_oracle_catches_a_wrong_output(tmp_path):
    inputs = workloads.build(SMALL_GROWN, 1, tmp_path)
    expected = workloads.expected(inputs)
    client = run.Client(cli)
    inputs.reset_kb()
    client.call("train", inputs.train_argv(), expected.train, inputs.kb_path,
                 expected.kb_after.replace('"p": 1', '"p": 0', 1))
    client.call("report", inputs.report_argv(), expected.report + "\n")
    client.call("analyze", ["analyze", str(tmp_path / "missing.txt"), "--lexicon",
                             str(inputs.lexicon_path), "--kb", str(inputs.kb_path)], "")
    client.call("report", ["report"], "")
    assert (client.attempted, client.failed) == (4, 4)


def test_cold_start_checks_its_outputs(tmp_path):
    client = run.Client(cli)
    _, _, spec = run.set_up(client, SMALL_TEXT, 1, tmp_path)
    assert (client.attempted, client.failed) == (4, 0)  # the warm-up round
    assert run.cold_start(client, spec) > 0
    assert (client.attempted, client.failed) == (8, 0)
    doc = json.loads(spec.read_text())
    doc["commands"][0]["kb_text"] += " "
    doc["commands"][-1]["stdout"] += "\n"
    spec.write_text(json.dumps(doc))
    assert run.cold_start(client, spec) > 0
    assert (client.attempted, client.failed) == (12, 2)
    assert [p.split(": ", 1)[1] for p in client.problems] == [
        "KB file differs from the oracle", "stdout differs from the oracle"]


def test_traced_counts_repeat_and_attributes_are_restored(tmp_path):
    from polisent import ledger, lexicon, textpipe

    owners = {cli: ("load_lexicon_file", "load_corpus", "read_article", "analyze_article",
                    "article_score", "outlet_tendency", "format_matrix"),
              kb: ("analyze_article", "merge", "article_score", "loads", "dumps", "ingest"),
              textpipe: ("process", "segment", "tokenize", "cleanse", "resolve"),
              ledger: ("outlet_view",),
              ledger.ArticleScoreHistory: ("record", "scores"),
              ledger.PolarityLedger: ("apply",),
              lexicon.Lexicon: ("fingerprint", "lookup")}
    before = {(owner, name): getattr(owner, name) for owner, names in owners.items()
              for name in names}

    results = [run.traced(SMALL_GROWN, 4, 0, tmp_path / str(i), cli) for i in range(2)]

    assert {key: getattr(*key) for key in before} == before
    counts = []
    for client, metrics, _ in results:
        assert client.failed == 0
        assert set(metrics) == {m["name"] for m in BENCHMARK_PER_LAYER}
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    assert counts[0] == counts[1]
    inputs = workloads.build(SMALL_GROWN, 4, tmp_path / "x")
    planted = sum(a.token_count for a in inputs.batch + inputs.queries)
    assert counts[0]["textpipe.tokens"] == planted


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [("cli.train", 0, 100, -1, 1), ("kb.ingest", 10, 60, 0, 1),
                    ("analyzer.analyze_article", 20, 50, 1, 1), ("kb.dumps", 70, 90, 0, 1)]
    self_s, calls = tracer.self_times()
    assert self_s["cli.train"] * 1e9 == pytest.approx(30)
    assert self_s["kb.ingest"] * 1e9 == pytest.approx(20)
    assert self_s["analyzer.analyze_article"] * 1e9 == pytest.approx(30)
    assert calls["kb.dumps"] == 1


def test_tail_has_ten_samples_beyond_it():
    percentile, value = run.tail([float(i) for i in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest-text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
