"""Reference implementations of the ledger's read paths, kept as a test oracle.

These are the straightforward versions that scan every history pair or
every ledger cell on each call.  The differential tests require the
library's indexed versions to return exactly what these return.
"""

from __future__ import annotations

from fractions import Fraction

from polisent.ledger import NEUTRAL, ArticleScoreHistory, Cell, PolarityLedger


def scores(history: ArticleScoreHistory, whom: str, outlet: str | None = None) -> list[Fraction]:
    collected: list[Fraction] = []
    for (o, h), entries in sorted(history.items()):
        if h == whom and (outlet is None or o == outlet):
            collected.extend(Fraction(num, den) for _, num, den in entries)
    return collected


def outlet_tendency(history: ArticleScoreHistory, whom: str, outlet: str | None = None):
    found = scores(history, whom, outlet=outlet)
    if not found:
        return NEUTRAL
    return sum(found, Fraction(0)) / len(found)


def outlet_view(cumulative_ledger: PolarityLedger, outlet: str, whom: str) -> Cell:
    total_p = 0
    total_s = 0
    for (_, target), cell in cumulative_ledger.items():
        if target == whom:
            total_p += cell.p
            total_s += cell.s
    return Cell(total_p, total_s)


def format_matrix(
    ledger: PolarityLedger,
    outlet: str,
    value: str = "p",
    with_outlet_view: bool = False,
) -> str:
    whos = [outlet] + sorted(ledger.whos() - {outlet})
    ids = ledger.whos() | ledger.whoms()
    whoms = [outlet] + sorted(ids - {outlet})
    lines = ["\t".join([""] + whos)]
    for whom in whoms:
        row = [whom]
        for who in whos:
            if with_outlet_view and who == outlet:
                cell = outlet_view(ledger, outlet, whom)
            else:
                cell = ledger.cell(who, whom)
            row.append(str(getattr(cell, value)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
