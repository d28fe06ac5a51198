"""Span recorder for the traced run.

``Tracer`` replaces the module and class attributes that polisent's own
callers resolve at call time (``kb.analyze_article``,
``cli.outlet_tendency``, ``textpipe.segment``, ``Lexicon.fingerprint``,
...) with wrappers that record one span per call: name, start, end,
parent span and request id.  Functions called once per token
(``Lexicon.lookup``, ``PolarityLedger.apply``) are counted, not timed.
``restore`` puts every original attribute back.  Spans stay in memory
until the caller writes them out.

This module is imported only by the traced run, never by the process
that measures end-to-end metrics.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Layer of each span name, for self-time shares.
LAYERS = ("lexicon", "textpipe", "analyzer", "ledger", "kb", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start_ns, end_ns, parent, request)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = 0

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.request)

    @contextmanager
    def command(self, name: str):
        """One CLI command: a new request id and a root span."""
        self.request += 1
        index, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def wrap(self, owner, attribute: str, name: str, count=None) -> None:
        """Record a span per call; ``count(counts, args, result)`` adds counts."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._replace(owner, attribute, original, traced)

    def tally(self, owner, attribute: str, name: str) -> None:
        """Count calls without a span."""
        original = getattr(owner, attribute)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attribute, original, counted)

    def _replace(self, owner, attribute, original, replacement) -> None:
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()  # the tally wrappers hold this Counter
        self._stack = []

    # -- analysis --------------------------------------------------------

    def _self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Children nest inside their parent, so the covered time is the sum
        of the children's durations.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time in seconds, and span count."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, *_), own in zip(self.spans, self._self_ns()):
            self_s[name] += own / 1e9
            calls[name] += 1
        return self_s, calls

    def command_shares(self) -> dict[str, dict[str, float]]:
        """Share of self time per layer, for each CLI command."""
        command_of = {request: name for name, _, _, parent, request in self.spans
                      if parent < 0}
        totals: dict[str, Counter] = {}
        for (name, _, _, _, request), own in zip(self.spans, self._self_ns()):
            layer = name.split(".", 1)[0]
            totals.setdefault(command_of[request], Counter())[layer] += own
        shares = {}
        for command, by_layer in totals.items():
            whole = sum(by_layer.values()) or 1
            shares[command] = {layer: by_layer[layer] / whole for layer in LAYERS}
        return shares

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                sink.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{request}\n")


def instrument(tracer: Tracer) -> None:
    """Wrap polisent's layer boundaries.  Undo with ``tracer.restore()``."""
    from polisent import cli, kb, ledger, lexicon, textpipe

    def add(counts, **increments):
        for key, value in increments.items():
            counts[key] += value

    def on_tokenize(counts, args, sentence):
        add(counts, **{"textpipe.sentences": 1, "textpipe.tokens": len(sentence.tokens)})

    def on_cleanse(counts, args, sentence):
        add(counts, **{"textpipe.tokens_kept": len(sentence.tokens)})

    def on_resolve(counts, args, sentence):
        given = {id(token) for token in args[0].tokens}
        hits = sum(1 for token in sentence.tokens if id(token) not in given)
        add(counts, **{"textpipe.alias_hits": hits})

    def on_analyze(counts, args, records):
        add(counts, **{"analyzer.statements": len(records),
                       "analyzer.sarcasm_flags": sum(1 for r in records if r.sarcasm)})

    def on_merge(counts, args, merged):
        add(counts, **{"ledger.merge_cells_in": len(args[0]) + len(args[1])})

    def on_scores(counts, args, scores):
        add(counts, **{"ledger.history_pairs_scanned": len(args[0])})

    def on_outlet_view(counts, args, cell):
        add(counts, **{"ledger.outlet_view_cells_scanned": len(args[0])})

    # The generated KB is ASCII, so its length in characters is its size
    # in bytes; encoding it here would add to the caller's self time.
    def on_loads(counts, args, result):
        add(counts, **{"kb.loads_bytes": len(args[0])})

    def on_dumps(counts, args, text):
        add(counts, **{"kb.dumps_bytes": len(text)})

    tracer.wrap(cli, "load_lexicon_file", "lexicon.load")
    tracer.wrap(lexicon.Lexicon, "fingerprint", "lexicon.fingerprint")
    tracer.tally(lexicon.Lexicon, "lookup", "lexicon.lookup_calls")

    tracer.wrap(cli, "load_corpus", "textpipe.load_corpus")
    tracer.wrap(cli, "read_article", "textpipe.read_article")
    tracer.wrap(textpipe, "process", "textpipe.process")
    tracer.wrap(textpipe, "segment", "textpipe.segment")
    tracer.wrap(textpipe, "tokenize", "textpipe.tokenize", on_tokenize)
    tracer.wrap(textpipe, "cleanse", "textpipe.cleanse", on_cleanse)
    tracer.wrap(textpipe, "resolve", "textpipe.resolve", on_resolve)

    tracer.wrap(kb, "analyze_article", "analyzer.analyze_article", on_analyze)
    tracer.wrap(cli, "analyze_article", "analyzer.analyze_article", on_analyze)

    tracer.tally(ledger.PolarityLedger, "apply", "ledger.apply_calls")
    tracer.wrap(kb, "merge", "ledger.merge", on_merge)
    tracer.wrap(kb, "article_score", "ledger.article_score")
    tracer.wrap(cli, "article_score", "ledger.article_score")
    tracer.wrap(ledger.ArticleScoreHistory, "record", "ledger.history_record")
    tracer.wrap(ledger.ArticleScoreHistory, "scores", "ledger.history_scores", on_scores)
    tracer.wrap(cli, "outlet_tendency", "ledger.outlet_tendency")
    tracer.wrap(ledger, "outlet_view", "ledger.outlet_view", on_outlet_view)
    tracer.wrap(cli, "format_matrix", "ledger.format_matrix")

    tracer.wrap(kb, "loads", "kb.loads", on_loads)
    tracer.wrap(kb, "dumps", "kb.dumps", on_dumps)
    tracer.wrap(kb, "ingest", "kb.ingest")
