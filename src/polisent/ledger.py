"""Sparse polarity/count ledger and the scoring operations built on it.

Each cell, keyed by ``(who, whom)``, holds the running signed polarity
``p`` and the statement count ``s`` for that speaker/target pair, so
``|p| <= s`` always.  All scores are exact rationals; ``NEUTRAL`` is the
distinct no-evidence outcome and is never encoded as zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple


class _NeutralType:
    """Singleton marker for "no evidence either way"."""

    def __reduce__(self) -> str:
        return "NEUTRAL"  # copy and pickle give back the module's one instance

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
            cells[key] = cell if old is None else _new(Cell, (old.p + cell.p, old.s + cell.s))

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

    Each entry is ``(article_id, num, den)``: the score as two integers
    in lowest terms, ``den >= 1``.  ``record`` takes and ``scores()`` and
    ``outlet_tendency`` give ``Fraction`` values.
    """

    def __init__(self):
        self._scores: dict[tuple[str, str], list[tuple[str, int, int]]] = {}

    def record(self, outlet: str, whom: str, article_id: str, score: Fraction) -> None:
        if type(score) is not Fraction:  # ingest passes the one article_score built
            score = Fraction(score)
        num, den = score.as_integer_ratio()
        if abs(num) > den:
            raise ValueError(f"article score {score} outside [-1, 1]")
        entries = self._scores.get((outlet, whom))
        if entries is None:
            entries = self._scores[(outlet, whom)] = []
        entries.append((article_id, num, den))

    def scores(self, whom: str) -> list[Fraction]:
        """Scores toward ``whom`` from every outlet, by ascending outlet, in recording order."""
        return [Fraction(num, den) for _, num, den in self._entries(whom)]

    def _entries(self, whom: str) -> list[tuple[str, int, int]]:
        """The stored entries toward ``whom`` from every outlet, as ``scores`` orders them."""
        return [entry for (_, w), entries in self.items() if w == whom for entry in entries]

    def items(self) -> Iterator[tuple[tuple[str, str], list[tuple[str, int, int]]]]:
        """Pairs in key order with the history's own entry lists; do not mutate them."""
        scores = self._scores
        for key in sorted(scores):
            yield key, scores[key]

    def outlets(self) -> set[str]:
        return {outlet for outlet, _ in self._scores}

    def __len__(self) -> int:
        return len(self._scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArticleScoreHistory):
            return NotImplemented
        return self._scores == other._scores

    def __repr__(self) -> str:
        return f"ArticleScoreHistory(pairs={len(self._scores)})"


def _mean(entries: list[tuple[str, int, int]]) -> tuple[int, int]:
    """The mean of non-empty ``(article_id, num, den)`` entries as ``(num, den)`` in lowest terms.

    The scores are summed as integers over the lcm of the denominators
    seen so far, and one ``gcd`` reduces the mean: one that cancels is 0/1.
    """
    total, den = 0, 1  # the sum so far is total/den
    for _, num, d in entries:
        if den % d:
            wider = lcm(den, d)
            total *= wider // den
            den = wider
        total += num * (den // d)
    den *= len(entries)
    common = gcd(total, den)
    return total // common, den // common


def tendencies(
    history: ArticleScoreHistory, whom: str | None = None
) -> list[tuple[str, str, int, int, int]]:
    """Each pair's ``(outlet, whom, articles, num, den)``, the mean in lowest terms.

    One tuple per stored pair, or per pair toward ``whom`` when it is
    given, in no set order; callers sort.  Builds no ``Fraction``.
    """
    return [(outlet, target, len(entries), *_mean(entries))
            for (outlet, target), entries in history._scores.items()
            if whom is None or target == whom]


def outlet_tendency(history: ArticleScoreHistory, whom: str) -> Score:
    """Arithmetic mean of the recorded article scores toward ``whom``, pooled over every outlet.

    ``tendencies`` gives each pair's own mean, by the same integer sum.
    """
    entries = history._entries(whom)
    if not entries:
        return NEUTRAL
    return Fraction(*_mean(entries))


def format_matrix(
    ledger: PolarityLedger, outlet: str, with_outlet_view: bool = False
) -> list[str]:
    """Tab-separated grids, rows are targets and columns are speakers.

    Returns the polarity (M) and count (N) grids of the direct cells and,
    with ``with_outlet_view``, M and N again with the outlet's column
    showing the derived view (see ``outlet_view``) instead of its direct
    cells; other columns are always direct.
    """
    whos = [outlet] + sorted(ledger.whos() - {outlet})
    column = {who: i for i, who in enumerate(whos)}
    # One pass groups the cells by target as (column, p, s).
    rows: dict[str, list[tuple[int, int, int]]] = {}
    for (who, whom), (p, s) in ledger._cells.items():
        rows.setdefault(whom, []).append((column[who], p, s))
    whoms = [outlet] + sorted((rows.keys() | column.keys()) - {outlet})
    # All grids share one layout: the fixed text before each value slot,
    # then the text after the last.  A row with cells has a slot in the
    # outlet's column, the one column where the views differ, and one per
    # cell after it; the zeros between are cut from one prebuilt string.
    zeros = "\t0" * len(whos)
    fixed: list[str] = []
    p_direct, s_direct, p_view, s_view = [], [], [], []  # each grid's values, slot by slot
    text = "\t" + "\t".join(whos) + "\n"  # fixed text since the last slot
    for whom in whoms:
        row = rows.get(whom)
        if row is None:
            text += whom + zeros + "\n"
            continue
        row.sort()
        if row[0][0]:
            row.insert(0, (0, 0, 0))
        cols, ps, ss = zip(*row)
        fixed.append(text + whom + "\t")
        fixed += [zeros[: 2 * (c - b - 1)] + "\t" for b, c in zip(cols, cols[1:])]
        text = zeros[2 * cols[-1] + 2:] + "\n"
        p_direct += ps
        s_direct += ss
        if with_outlet_view:
            p_view.append(sum(ps))
            p_view += ps[1:]
            s_view.append(sum(ss))
            s_view += ss[1:]
    fixed.append(text)
    # Each grid is one join of the layout with its values as text: a label
    # is only ever copied, never read as a format.
    parts: list[str] = [""] * (2 * len(fixed) - 1)
    parts[::2] = fixed
    grids = []
    for values in (p_direct, s_direct, p_view, s_view)[: 4 if with_outlet_view else 2]:
        parts[1::2] = map(str, values)
        grids.append("".join(parts))
    return grids
