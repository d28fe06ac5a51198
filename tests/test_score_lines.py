"""Score lines read a Fraction's numerator and denominator, as ``float()`` and comparisons did.

The references below are the forms the score lines used before:
``float(score)`` for the decimals, comparisons with 0 for the
classification and ``-1 <= score <= 1`` for the history's range check.
``train``, ``analyze`` and ``report`` format a score from its numerator
and denominator, read off once; the same references check those forms,
and ``report``'s rows are checked against the tendencies of the frozen
ledger oracle.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ledger_oracle
from polisent import kb as kbmod
from polisent.cli import _classify, _four_places, _pair_text, _ratio, main
from polisent.kb import KnowledgeBase
from polisent.ledger import NEUTRAL, ArticleScoreHistory
from support import random_kb


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
    # analyze's and train's score line.
    text = _pair_text(*score.as_integer_ratio())
    assert text == f"{reference_fmt_score(score)} ({reference_classify(score)})"


@given(score=fractions)
def test_score_lines_match_float_forms(score):
    check_score_lines(score)


@pytest.mark.parametrize("score", EDGES, ids=str)
def test_score_lines_match_float_forms_at_edges(score):
    check_score_lines(score)


def test_neutral_classifies_as_before():
    # No command prints NEUTRAL; its class is the one a zero numerator gets.
    assert _classify(0) == reference_classify(NEUTRAL) == "neutral"


@given(score=fractions)
@example(score=0)
@example(score=1)
@example(score=-1)
@example(score=2)
@example(score=Fraction(-3, 2))
@example(score=Fraction(10**30 + 1, 10**30))
def test_record_range_check_matches_comparisons(score):
    assert outcome(record, score) == outcome(reference_record, score)


def check_pair_forms(score) -> None:
    num, den = score.numerator, score.denominator
    assert _ratio(num, den) == str(score)
    assert _four_places(num, den) == reference_decimal(score)
    assert _classify(num) == reference_classify(score)
    assert _pair_text(num, den) == f"{reference_fmt_score(score)} ({reference_classify(score)})"


@given(score=fractions)
def test_forms_from_integer_pairs_match_float_forms(score):
    check_pair_forms(score)


@pytest.mark.parametrize("score", EDGES, ids=str)
def test_forms_from_integer_pairs_match_float_forms_at_edges(score):
    check_pair_forms(score)


def report_rows(path: Path, *argv: str) -> tuple[list[list[str]], list[dict]]:
    """``report``'s tsv rows, split at tabs, and its json rows, over the KB at ``path``."""
    outputs = []
    for form in ("tsv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["report", "--kb", str(path), "--format", form, *argv]) == 0
        outputs.append(out.getvalue())
    tsv, document = outputs
    header, *lines = tsv.splitlines()
    assert header == "whom\tarticles\ttendency\tdecimal\tclassification"
    return [line.split("\t") for line in lines], json.loads(document)["rows"]


def check_report(kb: KnowledgeBase) -> None:
    """The whole report, and ``--entity`` for one present and one absent target."""
    pairs = sorted((key for key, _ in kb.history.items()), key=lambda key: (key[1], key[0]))
    want = []
    for outlet, whom in pairs:
        tendency = ledger_oracle.outlet_tendency(kb.history, whom, outlet=outlet)
        want.append({
            "outlet": outlet,
            "whom": whom,
            "articles": len(ledger_oracle.scores(kb.history, whom, outlet=outlet)),
            "tendency": str(tendency),
            "decimal": reference_decimal(tendency),
            "classification": reference_classify(tendency),
        })
    present = [pairs[len(pairs) // 2][1]] if pairs else []
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "kb.json"
        path.write_text(kbmod.dumps(kb), encoding="utf-8")
        for entity in [None, *present, "nobody"]:
            tsv, rows = report_rows(path, *(("--entity", entity) if entity else ()))
            expected = [row for row in want if entity in (None, row["whom"])]
            assert rows == expected
            assert tsv == [[row["whom"], str(row["articles"]), row["tendency"], row["decimal"],
                            row["classification"]] for row in expected]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_report_rows_match_oracle_over_random_kbs(seed):
    check_report(random_kb(random.Random(seed)))


# Scores in [-1, 1] with denominators up to 10**30, in lowest terms.
in_range = st.integers(1, 10**30).flatmap(
    lambda den: st.builds(Fraction, st.integers(-den, den), st.just(den)))
histories = st.lists(
    st.tuples(st.sampled_from(("k", "m")), st.sampled_from(("andi", "kpk")), in_range),
    max_size=10,
)
BIG = 10**30


@settings(max_examples=60, deadline=None)
@given(entries=histories)
@example(entries=[("k", "andi", Fraction(1, BIG - 1))])
@example(entries=[("k", "andi", Fraction(1, BIG - 1)), ("k", "andi", Fraction(-1, BIG - 1))])
# Three denominators whose mean cancels to 0, beside a single-entry pair.
@example(entries=[("k", "andi", Fraction(1, 2)), ("k", "andi", Fraction(-1, 3)),
                  ("k", "andi", Fraction(-1, 6)), ("m", "andi", Fraction(-1, 20000))])
def test_report_rows_match_oracle_over_wide_denominators(entries):
    history = ArticleScoreHistory()
    for i, (outlet, whom, score) in enumerate(entries):
        history.record(outlet, whom, f"a{i}", score)
    processed = {f"a{i}" for i in range(len(entries))}
    kb = KnowledgeBase(history=history, processed=processed,
                       lexicon_fingerprint="f" * 64 if entries else None)
    check_report(kb)
