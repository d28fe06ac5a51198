"""The benchmark's workloads: their shapes, inputs and expected outputs.

Every workload runs the same round of front-door commands, one client in
a closed loop: ``train`` a batch of articles into a fresh copy of the
starting KB, then ``analyze`` fresh articles, ``report`` and
``kb export --outlet <o>`` over the KB that train wrote.  The workloads
differ in the starting KB, the article shape and the mix, so that
different layers do the work:

* ``ingest-text``: empty KB, long articles.  The KB stays small, so the
  text pipeline and the analyzer dominate.
* ``ingest-grown``: a synthesized KB of 1,500 prior articles, ~1.3k
  (outlet, target) pairs and ~1.4k cells, and a bulk batch of 200 short
  articles.  The per-article merge, the tendency loop over all pairs,
  fingerprinting, ``loads`` and ``dumps`` dominate.

The grown KB is half the size first planned (3,000 articles, 2.5k
pairs), so that a run holds enough calls of each command; see README.md.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import gen
from oracle import Extractor, Model


@dataclass(frozen=True)
class Workload:
    name: str
    lexicon: gen.LexiconShape
    train: gen.ArticleShape
    train_articles: int
    query: gen.ArticleShape
    analyze_per_round: int
    grown: gen.GrownShape | None = None
    reports_per_round: int = 1
    exports_per_round: int = 1


_LONG = gen.ArticleShape(sentences=(18, 22), tokens=(8, 24), cast=(3, 6))
_SHORT = gen.ArticleShape(sentences=(6, 6), tokens=(6, 14), cast=(2, 4))
_BIG_LEXICON = gen.LexiconShape(entities=500, two_word_share=0.5, nickname_share=0.3,
                                outlets=3)
_GROWN = gen.GrownShape(articles=1500, targets=(1, 3), statements=(1, 3),
                        entity_speaker_share=0.02)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest-text",
            lexicon=gen.LexiconShape(entities=40, two_word_share=0.5, nickname_share=0.3,
                                     outlets=3),
            train=_LONG,
            train_articles=200,
            query=_LONG,
            analyze_per_round=10,
            reports_per_round=3,
            exports_per_round=3,
        ),
        Workload(
            name="ingest-grown",
            lexicon=_BIG_LEXICON,
            train=_SHORT,
            train_articles=200,
            query=_SHORT,
            analyze_per_round=4,
            grown=_GROWN,
            reports_per_round=2,
            exports_per_round=2,
        ),
    )
}


@dataclass
class Inputs:
    """Generated files of one workload, and the commands that use them."""

    workload: Workload
    lexicon: gen.Lexicon
    batch: list[gen.Article]
    queries: list[gen.Article]
    start: Model
    start_text: str | None  # the grown KB document, or None for an empty KB
    directory: Path

    @property
    def lexicon_path(self) -> Path:
        return self.directory / "lexicon.txt"

    @property
    def kb_path(self) -> Path:
        return self.directory / "kb.json"

    @property
    def train_tokens(self) -> int:
        return sum(a.token_count for a in self.batch)

    def train_argv(self) -> list[str]:
        return ["train", "--corpus", str(self.directory / "batch"),
                "--lexicon", str(self.lexicon_path), "--kb", str(self.kb_path)]

    def analyze_argv(self, article: gen.Article) -> list[str]:
        return ["analyze", str(self.directory / "queries" / f"{article.article_id}.txt"),
                "--lexicon", str(self.lexicon_path), "--kb", str(self.kb_path)]

    def report_argv(self) -> list[str]:
        return ["report", "--kb", str(self.kb_path)]

    def export_argv(self) -> list[str]:
        return ["kb", "export", "--kb", str(self.kb_path), "--outlet", self.lexicon.outlet]

    def reset_kb(self) -> None:
        """Put the starting KB in place before a train."""
        if self.start_text is None:
            self.kb_path.unlink(missing_ok=True)
        else:
            shutil.copyfile(self.directory / "start.kb.json", self.kb_path)


def build(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate and write every input of ``workload`` under ``directory``."""
    lexicon = gen.make_lexicon(seed, workload.lexicon)
    batch = gen.make_articles(seed, lexicon, workload.train, workload.train_articles,
                              "n", "batch")
    queries = gen.make_articles(seed, lexicon, workload.query, workload.analyze_per_round,
                                "q", "query")
    if workload.grown is None:
        start, start_text = Model(), None
    else:
        start = gen.synthesize_kb(seed, lexicon, workload.grown)
        start_text = start.text()
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    (directory / "lexicon.txt").write_text(lexicon.text(), encoding="utf-8")
    gen.write_articles(directory / "batch", batch)
    gen.write_articles(directory / "queries", queries)
    if start_text is not None:
        (directory / "start.kb.json").write_text(start_text, encoding="utf-8")
    return Inputs(workload, lexicon, batch, queries, start, start_text, directory)


@dataclass
class Expected:
    train: str
    kb_after: str
    analyze: dict[str, str]  # article id -> stdout
    report: str
    export: str


def expected(inputs: Inputs) -> Expected:
    extractor = Extractor(inputs.lexicon)
    model = inputs.start.copy()
    model.fingerprint = inputs.lexicon.fingerprint()
    train = model.train(extractor, inputs.batch)
    return Expected(
        train=train,
        kb_after=model.text(),
        analyze={a.article_id: model.analyze(extractor, a) for a in inputs.queries},
        report=model.report(),
        export=model.export(inputs.lexicon.outlet),
    )
