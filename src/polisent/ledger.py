"""Sparse polarity/count ledger and the scoring operations built on it.

Each cell, keyed by ``(who, whom)``, holds the running signed polarity
``p`` and the statement count ``s`` for that speaker/target pair, so
``|p| <= s`` always.  All scores are exact rationals; ``NEUTRAL`` is the
distinct no-evidence outcome and is never encoded as zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple


class _NeutralType:
    """Singleton marker for "no evidence either way"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Neutral"


NEUTRAL = _NeutralType()

Score = Fraction | _NeutralType


class Cell(NamedTuple):
    p: int = 0
    s: int = 0


_EMPTY = Cell()
# Builds a Cell without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


class PolarityLedger:
    """Associative (who, whom) -> (p, s) store; absent keys read as (0, 0)."""

    def __init__(self):
        self._cells: dict[tuple[str, str], Cell] = {}

    def cell(self, who: str, whom: str) -> Cell:
        return self._cells.get((who, whom), _EMPTY)

    def apply(self, record) -> None:
        """Fold one statement in: p += value, s += 1 for its key."""
        if record.value not in (-1, 1):
            raise ValueError(f"statement value must be -1 or +1, got {record.value}")
        key = (record.who, record.whom)
        old = self._cells.get(key, _EMPTY)
        self._cells[key] = _new(Cell, (old.p + record.value, old.s + 1))

    def items(self) -> Iterator[tuple[tuple[str, str], Cell]]:
        for key in sorted(self._cells):
            yield key, self._cells[key]

    def whos(self) -> set[str]:
        return {who for who, _ in self._cells}

    def whoms(self) -> set[str]:
        return {whom for _, whom in self._cells}

    def add(self, other: "PolarityLedger") -> None:
        """Add another ledger's cells into this one, in place."""
        cells = self._cells
        for key, cell in other._cells.items():
            old = cells.get(key)
            cells[key] = cell if old is None else Cell(old.p + cell.p, old.s + cell.s)

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolarityLedger):
            return NotImplemented
        return self._cells == other._cells

    def __repr__(self) -> str:
        return f"PolarityLedger(cells={len(self._cells)})"


def merge(a: PolarityLedger, b: PolarityLedger) -> PolarityLedger:
    """Componentwise sum over the union of keys, as a new ledger."""
    merged = PolarityLedger()
    merged._cells = dict(a._cells)
    merged.add(b)
    return merged


def speaker_score(cell: Cell) -> Score:
    """p/s as an exact rational; NEUTRAL when the pair has no statements."""
    if cell.s == 0:
        return NEUTRAL
    return Fraction(cell.p, cell.s)


def classify_score(score: Score) -> str:
    if score is NEUTRAL or score == 0:
        return "neutral"
    return "positive" if score > 0 else "negative"


def article_score(article_ledger: PolarityLedger, whom: str) -> Score:
    """Ratio of summed polarities to summed counts toward one target.

    Defined over a per-article ledger (direct cells only); folding in a
    derived outlet view first would double-count.
    """
    return speaker_score(_column_sum(article_ledger, whom))


def _column_sum(ledger: PolarityLedger, whom: str) -> Cell:
    """Componentwise sum of every speaker's cell toward ``whom``."""
    total_p = 0
    total_s = 0
    for (_, target), cell in ledger._cells.items():
        if target == whom:
            total_p += cell.p
            total_s += cell.s
    return Cell(total_p, total_s)


def outlet_view(cumulative_ledger: PolarityLedger, outlet: str, whom: str) -> Cell:
    """Derived cell attributing every statement toward ``whom`` to the outlet.

    Componentwise sum of the outlet's own cell and every other speaker's
    cell for that target.  Read-only: direct cells are never touched.
    """
    return _column_sum(cumulative_ledger, whom)


class ArticleScoreHistory:
    """Ordered per-(outlet, whom) article scores feeding the outlet tendency.

    A read by target alone (``outlet=None``) scans every pair.
    """

    def __init__(self):
        self._scores: dict[tuple[str, str], list[tuple[str, Fraction]]] = {}

    def record(self, outlet: str, whom: str, article_id: str, score: Fraction) -> None:
        if type(score) is not Fraction:  # ingest passes the one article_score built
            score = Fraction(score)
        if not -1 <= score <= 1:
            raise ValueError(f"article score {score} outside [-1, 1]")
        entries = self._scores.get((outlet, whom))
        if entries is None:
            entries = self._scores[(outlet, whom)] = []
        entries.append((article_id, score))

    def set_entries(self, outlet: str, whom: str, entries: list[tuple[str, Fraction]]) -> None:
        """Store a pair's checked ``(article_id, score)`` list, in recording order.

        Takes the list over without copying or re-checking it; an empty
        list stores nothing.
        """
        if entries:
            self._scores[(outlet, whom)] = entries

    def scores(self, whom: str, outlet: str | None = None) -> list[Fraction]:
        """Scores toward ``whom``, grouped by ascending outlet, in recording order."""
        return [score for _, score in self._entries(whom, outlet)]

    def _entries(self, whom: str, outlet: str | None) -> list[tuple[str, Fraction]]:
        """The stored entries toward ``whom``; with an outlet, its pair's own list."""
        if outlet is not None:
            return self._scores.get((outlet, whom), [])
        return [entry for (_, w), entries in self.items() if w == whom for entry in entries]

    def items(self) -> Iterator[tuple[tuple[str, str], list[tuple[str, Fraction]]]]:
        """Pairs in key order with the history's own entry lists; do not mutate them."""
        scores = self._scores
        for key in sorted(scores):
            yield key, scores[key]

    def __len__(self) -> int:
        return len(self._scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArticleScoreHistory):
            return NotImplemented
        return self._scores == other._scores

    def __repr__(self) -> str:
        return f"ArticleScoreHistory(pairs={len(self._scores)})"


def outlet_tendency(
    history: ArticleScoreHistory, whom: str, outlet: str | None = None
) -> Score:
    """Arithmetic mean of the recorded article scores for one target.

    Reads only the scores of the (outlet, whom) pair asked for; with
    ``outlet=None`` it scans every pair for those toward ``whom``.  The
    numerators are summed per denominator and then over the lcm of the
    denominators, all as integers, and the mean is one ``Fraction``.
    """
    entries = history._entries(whom, outlet)
    if not entries:
        return NEUTRAL
    sums: dict[int, int] = {}  # numerators summed per denominator
    for _, score in entries:
        d = score.denominator
        sums[d] = sums.get(d, 0) + score.numerator
    den = lcm(*sums)
    total = sum(num * (den // d) for d, num in sums.items())
    return Fraction(total, den * len(entries))


def format_matrix(
    ledger: PolarityLedger,
    outlet: str,
    value: str = "p",
    with_outlet_view: bool = False,
) -> str:
    """Tab-separated grid, rows are targets and columns are speakers.

    ``value`` selects the polarity ("p") or count ("s") matrix.  With
    ``with_outlet_view`` the outlet's column shows the derived view
    instead of its direct cells; other columns are always direct.
    """
    if value not in ("p", "s"):
        raise ValueError(f"value must be 'p' or 's', got {value!r}")
    field = Cell._fields.index(value)
    whos = [outlet] + sorted(ledger.whos() - {outlet})
    column = {who: i for i, who in enumerate(whos)}
    # One pass groups the direct cells by target as (column, value).
    rows: dict[str, list[tuple[int, int]]] = {}
    for (who, whom), cell in ledger._cells.items():
        rows.setdefault(whom, []).append((column[who], cell[field]))
    whoms = [outlet] + sorted((rows.keys() | column.keys()) - {outlet})
    # A row is its label, its cells in column order and, between them,
    # runs of zeros cut from one string: O(cells) per row, plus the copy.
    zeros = "\t0" * len(whos)
    lines = ["\t".join([""] + whos)]
    for whom in whoms:
        row = rows.get(whom)
        if row is None:
            lines.append(whom + zeros)
            continue
        row.sort()
        parts = [whom]
        done = 0  # columns written so far
        if with_outlet_view:
            # The outlet's column shows the row's sum (see ``outlet_view``)
            # in place of its own direct cell.
            parts.append(f"\t{sum(v for _, v in row)}")
            done = 1
            if row[0][0] == 0:
                del row[0]
        for i, v in row:
            parts.append(zeros[: 2 * (i - done)])
            parts.append(f"\t{v}")
            done = i + 1
        parts.append(zeros[2 * done:])
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"
