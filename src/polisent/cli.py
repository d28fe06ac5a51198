"""Command-line front door.

Commands::

    polisent lexicon validate <path>
    polisent train --corpus <dir> --lexicon <path> --kb <path>
    polisent analyze <file> --lexicon <path> --kb <path> [--trace]
    polisent report --kb <path> [--entity <id>] [--format tsv|json]
    polisent kb export --kb <path> [--outlet <id>]

Results go to stdout, diagnostics to stderr.  Exit status 0 on success,
2 on usage or input errors, 1 if stdout closes early or cannot encode the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache
from operator import itemgetter

from . import kb as kbmod
from .analyzer import analyze_article, trace  # noqa: F401  bench/spans.py wraps cli.analyze_article
from .errors import DuplicateArticle, PolisentError, unencodable
from .ledger import (
    article_score,  # noqa: F401  bench/spans.py wraps cli.article_score
    format_matrix,
    outlet_tendency,  # noqa: F401  bench/spans.py wraps cli.outlet_tendency
    tendencies,
)
from .lexicon import load_lexicon_file
from .textpipe import load_corpus, read_article


def _ratio(num: int, den: int) -> str:
    """``num/den`` as ``str(Fraction(num, den))`` writes it: -1/4 -> "-1/4", 2/1 -> "2"."""
    return str(num) if den == 1 else f"{num}/{den}"


def _four_places(num: int, den: int) -> str:
    """``num/den`` to four places, -1/4 -> "-0.2500", from the float that ``float(score)`` gives."""
    return f"{num / den:.4f}"


def _classify(num: int) -> str:
    """The class of a score whose numerator is ``num``; denominators are positive."""
    return "neutral" if not num else "positive" if num > 0 else "negative"


def _pair_text(num: int, den: int) -> str:
    """The end of a score or tendency line: -1/4 -> "-0.25 (negative)", -1/1 -> "-1 (negative)"."""
    text = _four_places(num, den).rstrip("0").rstrip(".")
    return f"{'0' if text == '-0' else text} ({_classify(num)})"


def _nonempty(text: str) -> str:
    """A value given on the command line, such as a path, that must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _id_arg(text: str) -> str:
    """An id given on the command line: lowercased, as every stored id is, never empty, and UTF-8.

    An argument byte that is not UTF-8 reads as a lone surrogate, which no stored id holds.
    """
    if unencodable(text):
        raise argparse.ArgumentTypeError("must be valid UTF-8")
    return _nonempty(text).lower()


def cmd_lexicon_validate(args: argparse.Namespace) -> None:
    lexicon = load_lexicon_file(args.path)
    print(f"outlet: {lexicon.outlet_id}")
    for category, count in lexicon.category_counts().items():
        print(f"{category}: {count}")


def cmd_train(args: argparse.Namespace) -> None:
    lexicon = load_lexicon_file(args.lexicon)
    # One memo per command, as scores repeat: the benchmark's seed-1 grown KB has 85 values in
    # its 1,339 tendencies, whose lines took 0.9 ms bare, 0.35 ms memoized (3.11.7, 2 vCPUs).
    lines, text_of = [], cache(_pair_text)
    with kbmod.update(args.kb) as kb:
        kbmod.check_lexicon(kb, lexicon)
        for article in load_corpus(args.corpus):
            try:
                scored = kbmod.ingest(kb, article, lexicon)
            except DuplicateArticle:
                print(
                    f"warning: skipping already processed article {article.article_id}",
                    file=sys.stderr,
                )
                continue
            lines += [f"{article.article_id} {whom} {text_of(*score.as_integer_ratio())}"
                      for whom, score in scored.scores.items()]
        lines += [f"tendency {whom} {text_of(num, den)}"
                  for _, whom, _, num, den in sorted(tendencies(kb.history))]
        text = "".join(f"{line}\n" for line in lines)
        del lines  # the text alone stays in memory through the save
        if sys.stdout.encoding:  # a StringIO has none and takes any text
            # Check the exact text before the save: a re-run would skip these articles.
            text.encode(sys.stdout.encoding, sys.stdout.errors)
    sys.stdout.write(text)  # only once the KB is saved, so a failed save prints no result


def cmd_analyze(args: argparse.Namespace) -> None:
    lexicon = load_lexicon_file(args.lexicon)
    kb = kbmod.load(args.kb, missing_ok=True)
    kbmod.check_lexicon(kb, lexicon)
    article = read_article(args.article)
    scored = kbmod.score_article(article, lexicon, kb.cumulative)
    if args.trace:
        print(trace(scored.records, article.outlet_id), end="")
    for whom, score in scored.scores.items():
        print(f"{whom} {_pair_text(*score.as_integer_ratio())}")


_REPORT_FIELDS = ("outlet", "whom", "articles", "tendency", "decimal", "classification")


def cmd_report(args: argparse.Namespace) -> None:
    kb = kbmod.load(args.kb)
    fields_of = cache(lambda num, den: (_ratio(num, den), _four_places(num, den), _classify(num)))
    # One tuple of _REPORT_FIELDS per pair, by target and then outlet.
    rows = [(outlet, whom, articles) + fields_of(num, den)
            for outlet, whom, articles, num, den
            in sorted(tendencies(kb.history, args.entity), key=itemgetter(1, 0))]
    if args.format == "json":
        document = {"rows": [dict(zip(_REPORT_FIELDS, row)) for row in rows]}
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        sys.stdout.write("whom\tarticles\ttendency\tdecimal\tclassification\n" + "".join(
            f"{whom}\t{articles}\t{tendency}\t{decimal}\t{classification}\n"
            for _, whom, articles, tendency, decimal, classification in rows))


def cmd_kb_export(args: argparse.Namespace) -> None:
    kb = kbmod.load(args.kb)
    outlets = kb.history.outlets()
    outlet = args.outlet or (outlets.pop() if len(outlets) == 1 else None)
    if args.outlet and outlet not in outlets:
        print(f"warning: outlet {outlet} has no scores in the knowledge base", file=sys.stderr)
    grids = format_matrix(kb.cumulative, outlet or "0", outlet is not None)
    headers = ("# matrix M (direct)\n", "\n# matrix N (direct)\n",
               "\n# matrix M (outlet view)\n", "\n# matrix N (outlet view)\n")
    for header, grid in zip(headers, grids):  # one write each: a join would copy every byte
        sys.stdout.write(header)
        sys.stdout.write(grid)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polisent",
        description="Lexicon-driven sentiment ledger for political news text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lexicon = sub.add_parser("lexicon", help="lexicon utilities")
    lexicon_sub = lexicon.add_subparsers(dest="subcommand", required=True)
    validate = lexicon_sub.add_parser("validate", help="check a lexicon file")
    validate.add_argument("path", type=_nonempty)
    validate.set_defaults(func=cmd_lexicon_validate)

    train = sub.add_parser("train", help="ingest a corpus into a knowledge base")
    train.add_argument("--corpus", required=True, type=_nonempty,
                       help="directory of article files")
    train.add_argument("--lexicon", required=True, type=_nonempty)
    train.add_argument("--kb", required=True, type=_nonempty,
                       help="knowledge base file (created if absent)")
    train.set_defaults(func=cmd_train)

    analyze = sub.add_parser("analyze", help="score one article without ingesting it")
    analyze.add_argument("article", type=_nonempty)
    analyze.add_argument("--lexicon", required=True, type=_nonempty)
    analyze.add_argument("--kb", required=True, type=_nonempty)
    analyze.add_argument("--trace", action="store_true",
                         help="print the extracted statement table")
    analyze.set_defaults(func=cmd_analyze)

    report = sub.add_parser("report", help="print outlet tendencies")
    report.add_argument("--kb", required=True, type=_nonempty)
    report.add_argument("--entity", type=_id_arg, help="restrict to one target entity")
    report.add_argument("--format", choices=("tsv", "json"), default="tsv")
    report.set_defaults(func=cmd_report)

    kb = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = kb.add_subparsers(dest="subcommand", required=True)
    export = kb_sub.add_parser("export", help="print polarity and count matrices")
    export.add_argument("--kb", required=True, type=_nonempty)
    export.add_argument("--outlet", type=_id_arg,
                        help="outlet id for the derived view column")
    export.set_defaults(func=cmd_kb_export)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # Reference counting frees all that a command builds: polisent's objects hold
    # no cycles, and argparse's, which do, are built once, in _PARSER.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # the reader is gone, as with `| head`: stop quietly
        # As the Python docs' note on SIGPIPE advises: the flush at exit goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UnicodeEncodeError as exc:  # stdout cannot take the whole result, as when it is closed
        print(f"error: stdout: {exc}", file=sys.stderr)
        return 1
    except (PolisentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
