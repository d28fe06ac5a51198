"""polisent benchmark: seeded workloads through the real command line.

Usage, from the repository root::

    python3 bench/run.py --workload ingest-text --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1

Each workload generates its inputs from ``--seed`` and calls
``polisent.cli.main(argv)`` in this process, one client in a closed
loop, for about ``--seconds`` seconds.  Every output is checked against
the oracle.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process.

Every timed call is scaled by a reference task timed just before and
just after it, and each timed metric is the median of its scaled calls
in the run (see ``Reference``).  ``setup_s`` is polisent's own set-up:
``COLD_STARTS`` fresh processes each time ``import polisent`` and a
first round of commands on three articles (``cold.py``).  Generating
the inputs and running the oracle are the benchmark's own set-up; their
time is printed as a note.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import gen
import workloads
from cold import import_cli
from oracle import Extractor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COLD_STARTS = 15
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
REF_S = 0.03  # the reference task's time on the host that scaled times refer to
REF_SEED = 0  # the reference task's inputs are the same in every run


class Reference:
    """A fixed task of the benchmark's own code that tracks the host's speed.

    On a host whose cores are shared with other machines, speed can
    drift by up to 1.8x within seconds and from one run to the next (as
    measured on a 2-vCPU shared Linux container).  The reference task does what a polisent command does, with the oracle
    instead of polisent: it copies a KB of 300 prior articles, trains 40
    short articles into it, writes the KB document and parses it back.
    A call that took ``elapsed`` while the task took ``before`` and
    ``after`` around it is reported as ``elapsed * REF_S / mean(before,
    after)``: its time on a host where the task takes ``REF_S``.  The
    task never runs polisent, so a change to polisent moves only the
    numerator.
    """

    def __init__(self):
        shape = workloads.WORKLOADS["ingest-grown"]
        lexicon = gen.make_lexicon(REF_SEED, shape.lexicon)
        self.start = gen.synthesize_kb(REF_SEED, lexicon,
                                       dataclasses.replace(shape.grown, articles=300))
        self.batch = gen.make_articles(REF_SEED, lexicon, shape.train, 40, "n", "ref")
        self.extractor = Extractor(lexicon)
        self.times: list[float] = []

    def time(self) -> float:
        start = time.perf_counter()
        model = self.start.copy()
        model.train(self.extractor, self.batch)
        json.loads(model.text())
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` on a host where the reference task takes ``REF_S``."""
    return elapsed * REF_S / ((before + after) / 2)


class Client:
    """Front-door calls with their outputs checked; counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None  # set during a traced pass
        self.attempted = 0
        self.failed = 0
        self.stdout_bytes = 0
        self.problems: list[str] = []

    def call(self, command: str, argv: list[str], expected: str,
             kb_path: Path | None = None, kb_expected: str | None = None) -> float:
        """Run one command; return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.command(f"cli.{command}") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                status = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        self.stdout_bytes += len(text.encode("utf-8"))
        problem = None
        if status != 0:
            problem = f"exit {status}: {err.getvalue().strip()[:200]}"
        elif text != expected:
            problem = "stdout differs from the oracle"
        elif kb_path is not None and kb_path.read_text(encoding="utf-8") != kb_expected:
            problem = "KB file differs from the oracle"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(argv[:2])}: {problem}")
        return elapsed


def round_calls(inputs, expected) -> list[tuple]:
    """One round: train into a fresh starting KB, then the reads over it.

    Each call is (command, argv, expected stdout, KB path, expected KB text).
    """
    calls = [("train", inputs.train_argv(), expected.train, inputs.kb_path, expected.kb_after)]
    calls += [("analyze", inputs.analyze_argv(article), expected.analyze[article.article_id],
               None, None) for article in inputs.queries]
    calls += [("report", inputs.report_argv(), expected.report, None, None)
              ] * inputs.workload.reports_per_round
    calls += [("export", inputs.export_argv(), expected.export, None, None)
              ] * inputs.workload.exports_per_round
    return calls


def run_round(client: Client, inputs, calls, samples: dict[str, list[float]],
              reference: Reference | None = None,
              scaled: dict[str, list[float]] | None = None) -> None:
    """One round; with a reference, each call's scaled time goes to ``scaled``."""
    inputs.reset_kb()
    before = reference.time() if reference is not None else 0.0
    for command, argv, stdout, kb_path, kb_text in calls:
        elapsed = client.call(command, argv, stdout, kb_path, kb_text)
        samples[command].append(elapsed)
        if reference is not None:
            after = reference.time()
            scaled[command].append(scale(elapsed, before, after))
            before = after


def set_up(client: Client, workload, seed: int, directory: Path):
    """Generate and write the inputs, derive the expected outputs, warm up.

    Returns the inputs, the calls of one round, and the spec of a cold
    start.  The warm-up runs one round on three articles into an empty
    KB, so the first timed call does not pay for loading modules and
    filling caches.  That round, run again in a fresh process, is the
    cold start.  At the end, polisent's collections are kept off the
    benchmark's data, which stays alive for the whole run.
    """
    inputs = workloads.build(workload, seed, directory / "inputs")
    calls = round_calls(inputs, workloads.expected(inputs))
    tiny = dataclasses.replace(workload, train_articles=3, analyze_per_round=1, grown=None,
                               reports_per_round=1, exports_per_round=1)
    warm = workloads.build(tiny, seed, directory / "warm")
    warm_calls = round_calls(warm, workloads.expected(warm))
    run_round(client, warm, warm_calls, defaultdict(list))
    spec = directory / "cold.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "reset": str(warm.kb_path),
        "commands": [{"argv": argv, "stdout": stdout,
                      "kb": None if kb_path is None else str(kb_path), "kb_text": kb_text}
                     for _, argv, stdout, kb_path, kb_text in warm_calls],
    }), encoding="utf-8")
    gc.collect()
    gc.freeze()
    return inputs, calls, spec


def cold_start(client: Client, spec: Path) -> float | None:
    """One cold start in a fresh process; its time, or None if it failed."""
    proc = subprocess.run([sys.executable, str(BENCH / "cold.py"), str(spec)],
                          capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        client.attempted += 1
        client.failed += 1
        client.problems.append(f"cold start: exit {proc.returncode}: {proc.stderr[-200:]}")
        return None
    result = json.loads(lines[-1])
    client.attempted += result["attempted"]
    client.failed += result["failed"]
    client.problems += result["problems"][:max(0, 5 - len(client.problems))]
    return result["seconds"]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value.

    With too few samples, the largest one.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def measure(workload, seed: int, seconds: int, directory: Path, cli):
    client = Client(cli)
    start = time.perf_counter()
    reference = Reference()  # before set_up, which freezes the benchmark's data
    inputs, calls, spec = set_up(client, workload, seed, directory)
    reference.time()  # warm-up
    reference.times.clear()
    bench_setup_s = time.perf_counter() - start
    cold, cold_scaled = [], []
    before = reference.time()
    for _ in range(COLD_STARTS):
        elapsed = cold_start(client, spec)
        after = reference.time()
        if elapsed is not None:
            cold.append(elapsed)
            cold_scaled.append(scale(elapsed, before, after))
        before = after
    if len(cold) < 2:
        sys.exit("error: cold starts failed:\n  " + "\n  ".join(client.problems))
    rss_before_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        run_round(client, inputs, calls, samples, reference, scaled)
        last = time.perf_counter() - start
        rounds += 1
    train_s = statistics.median(scaled["train"])
    metrics = {
        "setup_s": (statistics.median(cold_scaled), "s"),
        "train_articles_per_s": (len(inputs.batch) / train_s, "articles/s"),
        "train_tokens_per_s": (inputs.train_tokens / train_s, "tokens/s"),
        "analyze_ms_p50": (statistics.median(scaled["analyze"]) * 1000, "ms"),
        "report_s": (statistics.median(scaled["report"]), "s"),
        "export_s": (statistics.median(scaled["export"]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    percentile, tail_s = tail(scaled["analyze"])
    notes = [
        f"rounds {rounds}; train batch {len(inputs.batch)} articles, "
        f"{inputs.train_tokens} tokens",
        f"cold starts, wall time, s: {', '.join(f'{value:.4g}' for value in sorted(cold))}; "
        f"benchmark's own set-up (generate, write, oracle, warm-up) {bench_setup_s:.4g} s",
        f"ru_maxrss before the first timed call {rss_before_mib:.4g} MiB, "
        f"at the end {metrics['peak_rss_mib'][0]:.4g} MiB",
        f"analyze latency, scaled: p50 {metrics['analyze_ms_p50'][0]:.4g} ms, "
        f"tail p{percentile:.1f} {tail_s * 1000:.4g} ms, of {len(scaled['analyze'])} samples",
        quartiles(f"reference task over {len(reference.times)} runs", reference.times),
    ]
    for command, values in samples.items():
        notes.append(quartiles(f"{command} wall time over {len(values)} calls", values))
        notes.append(quartiles(f"{command} scaled time", scaled[command]))
    return client, metrics, notes


def quartiles(what: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{what}, s: min {min(values):.4g}, p25 {q1:.4g}, p50 {q2:.4g}, "
            f"p75 {q3:.4g}, max {max(values):.4g}")


def traced(workload, seed: int, seconds: int, directory: Path, cli):
    """Per-layer metrics from a traced pass, paired with untraced passes.

    A pass is one round.  Untraced and traced passes alternate until the
    time is up; counts come from the first traced pass and must repeat
    exactly in every later one, times are the mean over traced passes.
    """
    import spans

    tracer = spans.Tracer()
    client = Client(cli)
    inputs, calls, _ = set_up(client, workload, seed, directory)
    discarded: dict[str, list[float]] = defaultdict(list)
    untraced_s = traced_s = 0.0
    totals: dict[str, float] = {}
    first = None
    passes, last = 0, 0.0
    deadline = time.perf_counter() + seconds
    while passes < 1 or time.perf_counter() + last <= deadline:
        pass_start = start = time.perf_counter()
        run_round(client, inputs, calls, discarded)
        untraced_s += time.perf_counter() - start

        tracer.reset()
        spans.instrument(tracer)
        client.tracer = tracer
        stdout_before = client.stdout_bytes
        start = time.perf_counter()
        try:
            run_round(client, inputs, calls, discarded)
        finally:
            traced_s += time.perf_counter() - start
            client.tracer = None
            tracer.restore()
        passes += 1
        last = time.perf_counter() - pass_start
        self_s, span_calls = tracer.self_times()
        for name, value in self_s.items():
            totals[name] = totals.get(name, 0.0) + value
        counts = dict(tracer.counts)
        counts.update({f"spans.{name}": n for name, n in span_calls.items()})
        counts["cli.stdout_bytes"] = client.stdout_bytes - stdout_before
        if first is None:
            first = counts
            shares = tracer.command_shares()
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{workload.name}-seed{seed}.tsv"
            tracer.write(spans_path)
            span_count = len(tracer.spans)
        elif counts != first:
            client.failed += 1
            client.problems.append("per-layer counts differ between traced passes")

    self_s = {name: value / passes for name, value in totals.items()}
    kb_doc = json.loads(inputs.kb_path.read_text(encoding="utf-8"))
    metrics = layer_metrics(self_s, first, kb_doc)
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.spans"] = (span_count, "count")
    notes = [f"passes {passes} traced, {passes} untraced; spans written to "
             f"{spans_path.relative_to(ROOT)}"]
    layers = spans.LAYERS
    whole = {layer: 0.0 for layer in layers}
    for name, value in self_s.items():
        whole[name.split(".", 1)[0]] += value
    total = sum(whole.values()) or 1.0
    notes.append("self-time share, whole pass: " + ", ".join(
        f"{layer} {whole[layer] / total:.0%}" for layer in layers))
    for command, by_layer in sorted(shares.items()):
        notes.append(f"self-time share, {command}: " + ", ".join(
            f"{layer} {by_layer[layer]:.0%}" for layer in layers))
    return client, metrics, notes


def layer_metrics(self_s: dict[str, float], counts: dict[str, int], kb_doc: dict):
    def s(name):
        return (self_s.get(name, 0.0), "s")

    def n(name):
        return (counts.get(name, 0), "count")

    tokens = counts.get("textpipe.tokens", 0)
    return {
        "lexicon.load_s": s("lexicon.load"),
        "lexicon.fingerprint_calls": n("spans.lexicon.fingerprint"),
        "lexicon.fingerprint_s": s("lexicon.fingerprint"),
        "lexicon.lookup_calls": n("lexicon.lookup_calls"),
        "lexicon.lookups_per_token": (counts.get("lexicon.lookup_calls", 0) / max(tokens, 1),
                                      "ratio"),
        "textpipe.load_corpus_s": s("textpipe.load_corpus"),
        "textpipe.segment_s": s("textpipe.segment"),
        "textpipe.tokenize_s": s("textpipe.tokenize"),
        "textpipe.cleanse_s": s("textpipe.cleanse"),
        "textpipe.resolve_s": s("textpipe.resolve"),
        "textpipe.sentences": n("textpipe.sentences"),
        "textpipe.tokens": n("textpipe.tokens"),
        "textpipe.tokens_kept": n("textpipe.tokens_kept"),
        "textpipe.alias_hits": n("textpipe.alias_hits"),
        "textpipe.kept_share": (counts.get("textpipe.tokens_kept", 0) / max(tokens, 1),
                                "ratio"),
        "analyzer.extract_self_s": s("analyzer.analyze_article"),
        "analyzer.statements": n("analyzer.statements"),
        "analyzer.sarcasm_flags": n("analyzer.sarcasm_flags"),
        "ledger.apply_calls": n("ledger.apply_calls"),
        "ledger.merge_s": s("ledger.merge"),
        "ledger.merge_cells_in": n("ledger.merge_cells_in"),
        "ledger.article_score_s": s("ledger.article_score"),
        "ledger.history_record_s": s("ledger.history_record"),
        "ledger.history_scores_calls": n("spans.ledger.history_scores"),
        "ledger.history_scores_s": s("ledger.history_scores"),
        "ledger.history_pairs_scanned": n("ledger.history_pairs_scanned"),
        "ledger.outlet_tendency_s": s("ledger.outlet_tendency"),
        "ledger.outlet_view_calls": n("spans.ledger.outlet_view"),
        "ledger.outlet_view_s": s("ledger.outlet_view"),
        "ledger.outlet_view_cells_scanned": n("ledger.outlet_view_cells_scanned"),
        "ledger.format_matrix_s": s("ledger.format_matrix"),
        "kb.loads_s": s("kb.loads"),
        "kb.loads_bytes": (counts.get("kb.loads_bytes", 0), "bytes"),
        "kb.dumps_s": s("kb.dumps"),
        "kb.dumps_bytes": (counts.get("kb.dumps_bytes", 0), "bytes"),
        "kb.ingest_self_s": s("kb.ingest"),
        "kb.cells": (len(kb_doc["cells"]), "count"),
        "kb.pairs": (len(kb_doc["history"]), "count"),
        "kb.articles": (len(kb_doc["processed"]), "count"),
        "cli.self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s"),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0), "bytes"),
    }


def run_one(args) -> int:
    import shutil

    cli = import_cli(ROOT / "src")
    workload = workloads.WORKLOADS[args.workload]
    directory = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        runner = traced if args.trace else measure
        client, metrics, notes = runner(workload, args.seed, args.seconds, directory, cli)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for problem in client.problems:
        print(f"  FAILED {problem}")
    error_rate = client.failed / client.attempted
    print(f"  error_rate {error_rate:g} ratio ({client.failed} of {client.attempted} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
