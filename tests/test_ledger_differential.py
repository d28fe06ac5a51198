"""Pooled history reads, integer tendencies and sparse-row matrices agree with the oracle."""

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
    tendencies,
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
# Ids that a %-template or a str.format template would read as fields; the
# matrices draw them as speakers, targets and outlets.
FORMAT_LIKE = ("%", "%d", "{0}", "}")
matrix_statements = st.lists(
    st.tuples(st.sampled_from(SPEAKERS + FORMAT_LIKE), st.sampled_from(TARGETS + FORMAT_LIKE),
              st.sampled_from((-1, 1))),
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


@given(entries=history_entries, whom=st.sampled_from(IDS + (ABSENT,)))
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 2))], whom="andi")
@example(entries=[(o, "andi", Fraction(i, 5)) for i, o in enumerate(reversed(OUTLETS))],
         whom="andi")
@example(entries=[], whom="andi")
@example(entries=[("k", "andi", score) for score in MANY_DENOMINATORS], whom="andi")
@example(entries=[(OUTLETS[i % 5], "andi", score) for i, score in enumerate(MANY_DENOMINATORS)],
         whom="andi")
# The scores toward andi cancel to 0 over three denominators and two outlets;
# the score toward kpk is not read.
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 3)),
                  ("m", "kpk", Fraction(1, 4)), ("m", "andi", Fraction(-1, 6))],
         whom="andi")
def test_history_reads_match_oracle(entries, whom):
    history = build_history(entries)
    assert history.scores(whom) == oracle.scores(history, whom)
    got = outlet_tendency(history, whom)
    want = oracle.outlet_tendency(history, whom)
    # Type first: a tendency that cancels to 0 is a Fraction, not NEUTRAL.
    assert type(got) is type(want)
    assert got == want


@st.composite
def wide_scores(draw):
    """Scores in [-1, 1] in lowest terms, with denominators of every size up to 10**30.

    A plain draw up to 10**30 is nearly always small, so the size is drawn first.
    """
    den = draw(st.integers(1, 999)) * 10 ** draw(st.integers(0, 27)) + draw(st.integers(0, 999))
    num = den * draw(st.integers(-1000, 1000)) // 1000 + draw(st.integers(-9, 9))
    return Fraction(max(-den, min(den, num)), den)


@st.composite
def wide_histories(draw):
    """Entries over 1-5 outlets; half the time each score is followed by its negation."""
    outlets = draw(st.lists(st.sampled_from(OUTLETS), min_size=1, max_size=5, unique=True))
    entries = draw(st.lists(st.tuples(st.sampled_from(outlets), st.sampled_from(IDS),
                                      wide_scores() | article_scores), max_size=20))
    if draw(st.booleans()):  # every pair's scores sum to 0
        entries = [(o, w, sign * score) for o, w, score in entries for sign in (1, -1)]
    return entries


@given(entries=wide_histories())
@example(entries=[])
# Outlet k's scores cancel to 0 over three denominators; m's single score stays.
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 3)),
                  ("m", "andi", Fraction(1, 4)), ("k", "andi", Fraction(-1, 6))])
@example(entries=[("k", "andi", Fraction(1, 10**30 - 1)), ("k", "andi", Fraction(1, 10**30))])
@example(entries=[(OUTLETS[i % 5], "andi", score) for i, score in enumerate(MANY_DENOMINATORS)])
def test_tendencies_match_oracle(entries):
    history = build_history(entries)
    got = tendencies(history)
    assert sorted((outlet, whom) for outlet, whom, *_ in got) == [key for key, _ in history.items()]
    for outlet, whom, articles, num, den in got:
        assert (num, den) == oracle.outlet_tendency(history, whom, outlet=outlet).as_integer_ratio()
        assert articles == len(oracle.scores(history, whom, outlet=outlet))
    for whom in IDS + (ABSENT,):
        assert sorted(tendencies(history, whom)) == sorted(row for row in got if row[1] == whom)


@given(
    triples=matrix_statements,
    outlet=st.sampled_from(SPEAKERS + FORMAT_LIKE + ("0", ABSENT)),
    with_view=st.booleans(),
)
@example(triples=[("k", "andi", 1), ("k", "andi", -1)], outlet="k", with_view=True)
@example(triples=[], outlet="k", with_view=True)
@example(triples=[], outlet="0", with_view=False)
# Row andi: its only cell in the last column, then in the outlet's column.
@example(triples=[("ani", "kpk", 1), ("budi", "kpk", 1), ("zul", "andi", -1)],
         outlet="k", with_view=True)
@example(triples=[("k", "andi", 1), ("ani", "kpk", -1), ("zul", "kpk", 1)],
         outlet="k", with_view=True)
# Format-like ids as the outlet, as other speakers and as targets.
@example(triples=[("%d", "{0}", 1), ("}", "%d", -1), ("k", "%", 1)], outlet="%d",
         with_view=True)
@example(triples=[("{0}", "andi", 1), ("k", "}", -1)], outlet="{0}", with_view=True)
def test_matrices_match_oracle(triples, outlet, with_view):
    ledger = build_ledger(triples)
    views = (False, True) if with_view else (False,)
    assert format_matrix(ledger, outlet, with_outlet_view=with_view) == [
        oracle.format_matrix(ledger, outlet, value=value, with_outlet_view=view)
        for view in views for value in ("p", "s")
    ]
    for whom in SPEAKERS + (ABSENT,):
        assert outlet_view(ledger, outlet, whom) == oracle.outlet_view(ledger, outlet, whom)
