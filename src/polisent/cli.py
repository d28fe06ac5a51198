"""Command-line front door.

Commands::

    polisent lexicon validate <path>
    polisent train --corpus <dir> --lexicon <path> --kb <path>
    polisent analyze <file> --lexicon <path> --kb <path> [--trace]
    polisent report --kb <path> [--entity <id>] [--format tsv|json]
    polisent kb export --kb <path> [--outlet <id>]

Results go to stdout, diagnostics to stderr.  Exit status 0 on success,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:  # not POSIX: train takes no lock
    fcntl = None

from . import kb as kbmod
from .analyzer import analyze_article, trace  # noqa: F401  bench/spans.py wraps cli.analyze_article
from .errors import CorruptDocument, DuplicateArticle, PolisentError, read_utf8
from .ledger import (
    article_score,  # noqa: F401  bench/spans.py wraps cli.article_score
    classify_score,
    format_matrix,
    outlet_tendency,
)
from .lexicon import load_lexicon_file
from .textpipe import load_corpus, read_article


def _decimal(score) -> str:
    """A score to four places, -1/4 -> "-0.2500", from the float that ``float(score)`` gives."""
    return f"{score.numerator / score.denominator:.4f}"


def _fmt_score(score) -> str:
    """Compact decimal for score lines: -1/4 -> "-0.25", -1 -> "-1"."""
    text = _decimal(score).rstrip("0").rstrip(".")
    if text == "-0":
        return "0"
    return text


def _load_kb(path: str | Path) -> kbmod.KnowledgeBase:
    return kbmod.loads(read_utf8(path, lambda message: CorruptDocument("document", message)))


def _load_kb_or_empty(path: str | Path) -> kbmod.KnowledgeBase:
    if Path(path).exists():
        return _load_kb(path)
    return kbmod.KnowledgeBase()


@contextmanager
def _kb_lock(path: str | Path) -> Iterator[None]:
    """Hold an exclusive lock on the file ``.<name>.lock`` beside the KB at ``path``.

    ``train`` holds it from loading the KB to replacing it, so a second
    ``train`` fails at once rather than drop the first one's batch.  The
    file stays: were it unlinked, a train holding the old file and one
    that created a new one would both hold "the" lock.
    """
    head, name = os.path.split(path)
    lock = os.path.join(head, f".{name}.lock")
    try:
        fd = os.open(lock, os.O_RDONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise OSError(f"cannot save {Path(path)}: {exc.strerror or exc}") from None
    try:
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise PolisentError(
                    f"{Path(path)}: another train is writing it (lock file {lock} is held)"
                ) from None
        yield
    finally:
        os.close(fd)


def _save_kb(kb: kbmod.KnowledgeBase, path: str | Path) -> None:
    """Write the document to a temp file beside ``path``, then rename it over.

    A crash at any point leaves either the old or the new document, and
    a failed save removes its temp file and names ``path``, not the temp
    file.  The temp name ends in a random suffix, so a temp file that a
    killed save left behind blocks no later save.  The save runs under
    the train lock, so no other save of the KB is in flight, and it
    removes every such file first.  The new file keeps the mode of the
    one it replaces.
    """
    path = Path(path)
    text = kbmod.dumps(kb)
    stale = re.compile(rf"\.{re.escape(path.name)}\.[0-9a-f]+\.tmp")  # a random or pid suffix
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with os.scandir(path.parent) as entries:
            for entry in entries:
                if stale.fullmatch(entry.name):
                    Path(entry.path).unlink(missing_ok=True)
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
    except OSError as exc:
        raise OSError(f"cannot save {path}: {exc.strerror or exc}") from None


def _id_arg(text: str) -> str:
    """An id given on the command line: lowercased, as every stored id is, and never empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text.lower()


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.path)
    print(f"outlet: {lexicon.outlet_id}")
    for category, count in lexicon.category_counts().items():
        print(f"{category}: {count}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.lexicon)
    lines = []  # printed once the KB is saved, so a failed save prints no result
    with _kb_lock(args.kb):
        kb = _load_kb_or_empty(args.kb)
        for article in load_corpus(args.corpus):
            try:
                scored = kbmod.ingest(kb, article, lexicon)
            except DuplicateArticle:
                print(
                    f"warning: skipping already processed article {article.article_id}",
                    file=sys.stderr,
                )
                continue
            lines += [f"{article.article_id} {whom} {_fmt_score(score)} ({classify_score(score)})"
                      for whom, score in scored.scores.items()]
        for (outlet, whom), _ in kb.history.items():
            tendency = outlet_tendency(kb.history, whom, outlet=outlet)
            lines.append(f"tendency {whom} {_fmt_score(tendency)} ({classify_score(tendency)})")
        _save_kb(kb, args.kb)
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    lexicon = load_lexicon_file(args.lexicon)
    kb = _load_kb_or_empty(args.kb)
    kbmod.check_lexicon(kb, lexicon)
    article = read_article(args.article)
    scored = kbmod.score_article(article, lexicon, kb.cumulative)
    if args.trace:
        print(trace(scored.records, article.outlet_id), end="")
    for whom, score in scored.scores.items():
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
                "decimal": _decimal(tendency),
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
    return 0


def cmd_kb_export(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    outlets = {outlet for (outlet, _), _ in kb.history.items()}
    outlet = args.outlet or (outlets.pop() if len(outlets) == 1 else None)
    if args.outlet and outlet not in outlets:
        print(f"warning: outlet {outlet} has no scores in the knowledge base", file=sys.stderr)
    grids = [("M", "p", False), ("N", "s", False), ("M", "p", True), ("N", "s", True)]
    for i, (name, value, view) in enumerate(grids[: 2 if outlet is None else 4]):
        if i:
            print()
        print(f"# matrix {name} ({'outlet view' if view else 'direct'})")
        print(format_matrix(kb.cumulative, outlet or "0", value, view), end="")
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
    report.add_argument("--entity", type=_id_arg, help="restrict to one target entity")
    report.add_argument("--format", choices=("tsv", "json"), default="tsv")
    report.set_defaults(func=cmd_report)

    kb = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = kb.add_subparsers(dest="subcommand", required=True)
    export = kb_sub.add_parser("export", help="print polarity and count matrices")
    export.add_argument("--kb", required=True)
    export.add_argument("--outlet", type=_id_arg,
                        help="outlet id for the derived view column")
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
