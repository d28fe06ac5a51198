"""Score lines read a Fraction's numerator and denominator, as ``float()`` and comparisons did.

The references below are the forms the score lines used before:
``float(score)`` for the decimals, comparisons with 0 for the
classification and ``-1 <= score <= 1`` for the history's range check.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polisent.cli import _decimal, _fmt_score
from polisent.ledger import NEUTRAL, ArticleScoreHistory, classify_score


def reference_decimal(score) -> str:
    return f"{float(score):.4f}"


def reference_fmt_score(score) -> str:
    text = reference_decimal(score).rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def reference_classify(score) -> str:
    if score is NEUTRAL or score == 0:
        return "neutral"
    return "positive" if score > 0 else "negative"


def outcome(function, *args):
    try:
        return ("ok", function(*args))
    except ValueError as exc:
        return ("error", str(exc))


def reference_record(score) -> None:
    score = Fraction(score)
    if not -1 <= score <= 1:
        raise ValueError(f"article score {score} outside [-1, 1]")


def record(score) -> None:
    ArticleScoreHistory().record("k", "andi", "1", score)


# Denominators up to 10**30; numerators up to twice the denominator, so
# that about half the scores lie outside [-1, 1], or anywhere in a wide range.
fractions = st.integers(1, 10**30).flatmap(lambda den: st.builds(
    Fraction, st.integers(-2 * den, 2 * den) | st.integers(-10**40, 10**40), st.just(den)))
EDGES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 10**30), Fraction(-1, 10**30),
         Fraction(10**30 + 1, 10**30), Fraction(-(10**30) - 1, 10**30), Fraction(-1, 30000),
         Fraction(1, 20000), Fraction(-1, 20000), Fraction(5, 100000), Fraction(-99995, 100000)]


def check_score_lines(score) -> None:
    assert _decimal(score) == reference_decimal(score)
    assert _fmt_score(score) == reference_fmt_score(score)
    assert classify_score(score) == reference_classify(score)


@given(score=fractions)
def test_score_lines_match_float_forms(score):
    check_score_lines(score)


@pytest.mark.parametrize("score", EDGES, ids=str)
def test_score_lines_match_float_forms_at_edges(score):
    check_score_lines(score)


def test_neutral_classifies_as_before():
    assert classify_score(NEUTRAL) == reference_classify(NEUTRAL) == "neutral"


@given(score=fractions)
@example(score=0)
@example(score=1)
@example(score=-1)
@example(score=2)
@example(score=Fraction(-3, 2))
@example(score=Fraction(10**30 + 1, 10**30))
def test_record_range_check_matches_comparisons(score):
    assert outcome(record, score) == outcome(reference_record, score)
