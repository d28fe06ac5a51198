"""Command-line front door.

Commands::

    polisent lexicon validate <path>
    polisent train --corpus <dir> --lexicon <path> --kb <path>
    polisent analyze <file> --lexicon <path> --kb <path> [--trace]
    polisent report --kb <path> [--entity <id>] [--format tsv|json] [--matrices]
    polisent kb export --kb <path> [--outlet <id>]

Results go to stdout, diagnostics to stderr.  Exit status 0 on success,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import kb as kbmod
from .analyzer import analyze_article, trace
from .errors import CorruptDocument, DuplicateArticle, PolisentError
from .ledger import (
    ARTICLE,
    NEUTRAL,
    PolarityLedger,
    article_score,
    classify_score,
    format_matrix,
    outlet_tendency,
)
from .lexicon import load_lexicon_file
from .textpipe import load_corpus, read_article


def _fmt_score(score) -> str:
    """Compact decimal for score lines: -1/4 -> "-0.25", -1 -> "-1"."""
    text = f"{float(score):.4f}".rstrip("0").rstrip(".")
    if text in ("", "-0"):
        return "0"
    return text


def _load_kb(path: str | Path) -> kbmod.KnowledgeBase:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDocument("document", f"not UTF-8 text ({exc.reason})") from None
    return kbmod.loads(text)


def _load_kb_or_empty(path: str | Path) -> kbmod.KnowledgeBase:
    if Path(path).exists():
        return _load_kb(path)
    return kbmod.KnowledgeBase()


def _save_kb(kb: kbmod.KnowledgeBase, path: str | Path) -> None:
    """Write the document to a temp file beside ``path``, then rename it over.

    A crash at any point leaves either the old or the new document, and
    a failed save removes its temp file.  The new file keeps the mode of
    the one it replaces.
    """
    path = Path(path)
    text = kbmod.dumps(kb)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
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


def _single_outlet(kb: kbmod.KnowledgeBase, override: str | None) -> str | None:
    if override:
        return override
    outlets = {outlet for outlet, _ in kb.history.keys()}
    if len(outlets) == 1:
        return outlets.pop()
    return None


def _print_matrices(kb: kbmod.KnowledgeBase, outlet: str | None) -> None:
    print("# matrix M (direct)")
    print(format_matrix(kb.cumulative, outlet or "0", value="p"), end="")
    print()
    print("# matrix N (direct)")
    print(format_matrix(kb.cumulative, outlet or "0", value="s"), end="")
    if outlet is None:
        return
    print()
    print("# matrix M (outlet view)")
    print(format_matrix(kb.cumulative, outlet, value="p", with_outlet_view=True), end="")
    print()
    print("# matrix N (outlet view)")
    print(format_matrix(kb.cumulative, outlet, value="s", with_outlet_view=True), end="")


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.path)
    print(f"outlet: {lexicon.outlet_id}")
    for category, count in lexicon.category_counts().items():
        print(f"{category}: {count}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.lexicon)
    kb = _load_kb_or_empty(args.kb)
    for article in load_corpus(args.corpus):
        try:
            report = kbmod.ingest(kb, article, lexicon)
        except DuplicateArticle:
            print(
                f"warning: skipping already processed article {article.article_id}",
                file=sys.stderr,
            )
            continue
        for whom, score in sorted(report.scores.items()):
            print(f"{article.article_id} {whom} {_fmt_score(score)} ({classify_score(score)})")
    for outlet, whom in kb.history.keys():
        tendency = outlet_tendency(kb.history, whom, outlet=outlet)
        print(f"tendency {whom} {_fmt_score(tendency)} ({classify_score(tendency)})")
    _save_kb(kb, args.kb)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.lexicon)
    kb = _load_kb_or_empty(args.kb)
    if kb.lexicon_fingerprint is not None and kb.lexicon_fingerprint != lexicon.fingerprint():
        print("error: knowledge base was built with a different lexicon", file=sys.stderr)
        return 2
    article = read_article(args.article)
    records = analyze_article(article, lexicon, prior=kb.cumulative)
    if args.trace:
        print(trace(records, article.outlet_id), end="")
    article_ledger = PolarityLedger(ARTICLE)
    for record in records:
        article_ledger.apply(record)
    for whom in sorted(article_ledger.whoms()):
        score = article_score(article_ledger, whom)
        print(f"{whom} {_fmt_score(score)} ({classify_score(score)})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    rows = []
    by_target = sorted(kb.history.items(), key=lambda item: (item[0][1], item[0][0]))
    for (outlet, whom), entries in by_target:
        if args.entity and whom != args.entity:
            continue
        tendency = outlet_tendency(kb.history, whom, outlet=outlet)
        rows.append(
            {
                "outlet": outlet,
                "whom": whom,
                "articles": len(entries),
                "tendency": str(tendency),
                "decimal": f"{float(tendency):.4f}" if tendency is not NEUTRAL else "neutral",
                "classification": classify_score(tendency),
            }
        )
    if args.format == "json":
        print(json.dumps({"rows": rows}, sort_keys=True, indent=2))
    else:
        print("whom\tarticles\ttendency\tdecimal\tclassification")
        for row in rows:
            print(
                f"{row['whom']}\t{row['articles']}\t{row['tendency']}"
                f"\t{row['decimal']}\t{row['classification']}"
            )
        if args.matrices:
            print()
            _print_matrices(kb, _single_outlet(kb, None))
    return 0


def cmd_kb_export(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    _print_matrices(kb, _single_outlet(kb, args.outlet))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polisent",
        description="Lexicon-driven sentiment ledger for political news text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lexicon = sub.add_parser("lexicon", help="lexicon utilities")
    lexicon_sub = lexicon.add_subparsers(dest="subcommand", required=True)
    validate = lexicon_sub.add_parser("validate", help="check a lexicon file")
    validate.add_argument("path")
    validate.set_defaults(func=cmd_lexicon_validate)

    train = sub.add_parser("train", help="ingest a corpus into a knowledge base")
    train.add_argument("--corpus", required=True, help="directory of article files")
    train.add_argument("--lexicon", required=True)
    train.add_argument("--kb", required=True, help="knowledge base file (created if absent)")
    train.set_defaults(func=cmd_train)

    analyze = sub.add_parser("analyze", help="score one article without ingesting it")
    analyze.add_argument("article")
    analyze.add_argument("--lexicon", required=True)
    analyze.add_argument("--kb", required=True)
    analyze.add_argument("--trace", action="store_true",
                         help="print the extracted statement table")
    analyze.set_defaults(func=cmd_analyze)

    report = sub.add_parser("report", help="print outlet tendencies")
    report.add_argument("--kb", required=True)
    report.add_argument("--entity", help="restrict to one target entity")
    report.add_argument("--format", choices=("tsv", "json"), default="tsv")
    report.add_argument("--matrices", action="store_true",
                        help="append matrix grids (tsv only)")
    report.set_defaults(func=cmd_report)

    kb = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = kb.add_subparsers(dest="subcommand", required=True)
    export = kb_sub.add_parser("export", help="print polarity and count matrices")
    export.add_argument("--kb", required=True)
    export.add_argument("--outlet", help="outlet id for the derived view column")
    export.set_defaults(func=cmd_kb_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PolisentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
