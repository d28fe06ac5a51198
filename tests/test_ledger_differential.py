"""Indexed history reads, integer tendency sums and sparse-row matrices agree with the oracle."""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

import ledger_oracle as oracle
from polisent.analyzer import StatementRecord
from polisent.ledger import (
    ArticleScoreHistory,
    PolarityLedger,
    format_matrix,
    outlet_tendency,
    outlet_view,
)

IDS = ("k", "m", "andi", "kpk", "deddy")
OUTLETS = ("k", "m", "t", "b", "antara")
ABSENT = "nobody"  # never a speaker, target or outlet
# Twelve speakers, so that a row's zero runs span several columns; the
# last four are never targets, so their rows are empty.
SPEAKERS = IDS + ("ani", "budi", "cahya", "a", "dewi", "eko", "zul")
TARGETS = SPEAKERS[:8]

article_scores = st.integers(1, 12).flatmap(
    lambda den: st.builds(Fraction, st.integers(-den, den), st.just(den))
)
history_entries = st.lists(
    st.tuples(st.sampled_from(OUTLETS), st.sampled_from(IDS), article_scores), max_size=30
)
statements = st.lists(
    st.tuples(st.sampled_from(SPEAKERS), st.sampled_from(TARGETS), st.sampled_from((-1, 1))),
    max_size=60,
)
# Scores over eleven distinct denominators, whose lcm is 27,720.
MANY_DENOMINATORS = [Fraction(num, den) for num, den in (
    (1, 2), (2, 3), (-3, 4), (4, 5), (-5, 6), (1, 7), (3, 8), (-2, 9), (7, 10), (5, 11), (-1, 12)
)]


def build_history(entries) -> ArticleScoreHistory:
    history = ArticleScoreHistory()
    for i, (outlet, whom, score) in enumerate(entries):
        history.record(outlet, whom, f"a{i}", score)
    return history


def build_ledger(triples) -> PolarityLedger:
    ledger = PolarityLedger()
    for i, (who, whom, value) in enumerate(triples):
        ledger.apply(StatementRecord("a", i + 1, who, whom, value))
    return ledger


@given(
    entries=history_entries,
    whom=st.sampled_from(IDS + (ABSENT,)),
    outlet=st.sampled_from(OUTLETS + (None, ABSENT)),
)
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 2))],
         whom="andi", outlet="k")
@example(entries=[(o, "andi", Fraction(i, 5)) for i, o in enumerate(reversed(OUTLETS))],
         whom="andi", outlet=None)
@example(entries=[], whom="andi", outlet=None)
@example(entries=[("k", "andi", score) for score in MANY_DENOMINATORS], whom="andi", outlet="k")
@example(entries=[(OUTLETS[i % 5], "andi", score) for i, score in enumerate(MANY_DENOMINATORS)],
         whom="andi", outlet=None)
# Outlet k's scores cancel to 0 over three denominators.
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 3)),
                  ("m", "andi", Fraction(1, 4)), ("k", "andi", Fraction(-1, 6))],
         whom="andi", outlet="k")
def test_history_reads_match_oracle(entries, whom, outlet):
    history = build_history(entries)
    assert history.scores(whom, outlet=outlet) == oracle.scores(history, whom, outlet=outlet)
    got = outlet_tendency(history, whom, outlet=outlet)
    want = oracle.outlet_tendency(history, whom, outlet=outlet)
    # Type first: a tendency that cancels to 0 is a Fraction, not NEUTRAL.
    assert type(got) is type(want)
    assert got == want


@given(
    triples=statements,
    outlet=st.sampled_from(SPEAKERS + (ABSENT,)),
    value=st.sampled_from(("p", "s")),
    with_view=st.booleans(),
)
@example(triples=[("k", "andi", 1), ("k", "andi", -1)], outlet="k", value="p", with_view=True)
@example(triples=[], outlet="k", value="s", with_view=True)
# Row andi: its only cell in the last column, then in the outlet's column.
@example(triples=[("ani", "kpk", 1), ("budi", "kpk", 1), ("zul", "andi", -1)],
         outlet="k", value="p", with_view=True)
@example(triples=[("k", "andi", 1), ("ani", "kpk", -1), ("zul", "kpk", 1)],
         outlet="k", value="s", with_view=True)
def test_matrices_match_oracle(triples, outlet, value, with_view):
    ledger = build_ledger(triples)
    assert format_matrix(ledger, outlet, value=value, with_outlet_view=with_view) == (
        oracle.format_matrix(ledger, outlet, value=value, with_outlet_view=with_view)
    )
    for whom in SPEAKERS + (ABSENT,):
        assert outlet_view(ledger, outlet, whom) == oracle.outlet_view(ledger, outlet, whom)
