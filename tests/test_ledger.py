import random
from fractions import Fraction

import pytest

from polisent import (
    ARTICLE,
    CUMULATIVE,
    ArticleScoreHistory,
    Cell,
    NEUTRAL,
    PolarityLedger,
    ScopeMismatch,
    StatementRecord,
    analyze_article,
    article_score,
    classify_score,
    format_matrix,
    merge,
    outlet_tendency,
    outlet_view,
    speaker_score,
)
from support import apply_all, brute_article_score, history_entries, random_records


def record(who, whom, value):
    return StatementRecord("a", 1, who, whom, value)


@pytest.fixture()
def article1_ledger(lexicon, article1):
    return apply_all(analyze_article(article1, lexicon), scope=ARTICLE)


@pytest.fixture()
def article2_ledger(lexicon, article2):
    return apply_all(analyze_article(article2, lexicon), scope=ARTICLE)


@pytest.fixture()
def article1_cumulative(lexicon, article1):
    return apply_all(analyze_article(article1, lexicon), scope=CUMULATIVE)


def test_apply_single_record():
    ledger = PolarityLedger(ARTICLE)
    ledger.apply(record("kpk", "andi", -1))
    assert ledger.cell("kpk", "andi") == Cell(-1, 1)
    assert ledger.cell("andi", "kpk") == Cell(0, 0)  # absent keys read as zero


def test_apply_cancellation_is_neutral():
    ledger = apply_all([record("a", "b", 1), record("a", "b", -1)])
    assert ledger.cell("a", "b") == Cell(0, 2)
    assert classify_score(speaker_score(ledger.cell("a", "b"))) == "neutral"


def test_apply_rejects_bad_value():
    class Fake:
        who, whom, value = "a", "b", 2

    ledger = PolarityLedger(ARTICLE)
    with pytest.raises(ValueError):
        ledger.apply(Fake())


def test_article1_cells(article1_ledger):
    assert article1_ledger.cell("k", "andi") == Cell(-6, 6)
    assert article1_ledger.cell("k", "kpk") == Cell(1, 1)
    assert article1_ledger.cell("kpk", "andi") == Cell(-1, 1)
    assert article1_ledger.cell("kpk", "deddy") == Cell(-1, 1)
    assert len(article1_ledger) == 4


def test_speaker_score_examples():
    assert speaker_score(Cell(-6, 6)) == Fraction(-1)
    assert speaker_score(Cell(0, 0)) is NEUTRAL
    assert speaker_score(Cell(-19, 20)) == Fraction(-19, 20)
    assert float(speaker_score(Cell(-19, 20))) == -0.95


def test_classify_examples():
    assert classify_score(speaker_score(Cell(1, 1))) == "positive"
    assert classify_score(speaker_score(Cell(0, 4))) == "neutral"
    assert classify_score(speaker_score(Cell(-7, 7))) == "negative"
    assert classify_score(speaker_score(Cell(0, 0))) == "neutral"


def test_classify_matches_score_sign():
    rng = random.Random(3)
    for _ in range(200):
        s = rng.randint(1, 30)
        p = rng.randint(-s, s)
        expected = "positive" if p > 0 else "negative" if p < 0 else "neutral"
        assert classify_score(speaker_score(Cell(p, s))) == expected


def test_article_score_article1(article1_ledger):
    assert article_score(article1_ledger, "andi") == Fraction(-1)
    assert article_score(article1_ledger, "kpk") == Fraction(1)
    assert article_score(article1_ledger, "deddy") == Fraction(-1)


def test_article_score_article2(article2_ledger):
    assert article_score(article2_ledger, "andi") == Fraction(1, 2)


def test_article_score_unmentioned_is_neutral(article1_ledger):
    assert article_score(article1_ledger, "nobody") is NEUTRAL


def test_article_score_matches_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        records = random_records(rng, rng.randint(0, 25))
        ledger = apply_all(records)
        for whom in {r.whom for r in records} | {"missing"}:
            assert article_score(ledger, whom) == brute_article_score(records, whom)


def test_outlet_view_after_article1(article1_cumulative):
    view = outlet_view(article1_cumulative, "k", "andi")
    assert view == Cell(-7, 7)


def test_outlet_view_only_outlet_statements():
    ledger = apply_all([record("k", "x", 1)], scope=CUMULATIVE)
    assert outlet_view(ledger, "k", "x") == ledger.cell("k", "x")


def test_outlet_view_article2_componentwise(lexicon, article2):
    # Componentwise sum over the three speakers: (-1+1+2, 1+1+2).
    cumulative = apply_all(analyze_article(article2, lexicon), scope=CUMULATIVE)
    view = outlet_view(cumulative, "k", "andi")
    assert view == Cell(2, 4)


def test_outlet_view_never_mutates(article1_cumulative):
    cumulative = article1_cumulative
    before = {key: cell for key, cell in cumulative.items()}
    outlet_view(cumulative, "k", "andi")
    outlet_view(cumulative, "k", "deddy")
    assert {key: cell for key, cell in cumulative.items()} == before


def test_outlet_tendency_examples():
    history = ArticleScoreHistory()
    history.record("k", "andi", "1", Fraction(-1))
    history.record("k", "andi", "2", Fraction(1, 2))
    assert outlet_tendency(history, "andi") == Fraction(-1, 4)
    assert outlet_tendency(history, "andi", outlet="k") == Fraction(-1, 4)
    assert outlet_tendency(history, "andi", outlet="m") is NEUTRAL


def test_outlet_tendency_single_and_cancelling():
    history = ArticleScoreHistory()
    history.record("k", "x", "1", Fraction(3, 7))
    assert outlet_tendency(history, "x") == Fraction(3, 7)
    history.record("k", "y", "1", Fraction(1))
    history.record("k", "y", "2", Fraction(-1))
    assert outlet_tendency(history, "y") == 0
    assert outlet_tendency(history, "absent") is NEUTRAL


def test_history_rejects_out_of_range():
    history = ArticleScoreHistory()
    with pytest.raises(ValueError):
        history.record("k", "x", "1", Fraction(3, 2))


def test_history_record_keeps_fractions_and_converts_other_types():
    history = ArticleScoreHistory()
    half = Fraction(1, 2)
    history.record("k", "x", "1", half)
    history.record("k", "x", "2", -1)
    history.record("k", "x", "3", "1/3")
    (_, first), (_, second), (_, third) = history_entries(history, "k", "x")
    assert first is half
    assert type(second) is Fraction and second == -1
    assert type(third) is Fraction and third == Fraction(1, 3)
    with pytest.raises(ValueError):
        history.record("k", "x", "4", 2)
    assert len(history_entries(history, "k", "x")) == 3


def test_history_set_entries_matches_record():
    recorded, stored = ArticleScoreHistory(), ArticleScoreHistory()
    entries = [("1", Fraction(1, 2)), ("2", Fraction(-1))]
    for article_id, score in entries:
        recorded.record("k", "x", article_id, score)
    stored.set_entries("k", "x", list(entries))
    stored.set_entries("m", "x", [])
    assert stored == recorded
    assert stored.scores("x") == [Fraction(1, 2), Fraction(-1)]
    assert list(stored.items()) == [(("k", "x"), entries)]


def test_merge_identity_and_commutativity():
    rng = random.Random(9)
    empty = PolarityLedger(ARTICLE)
    for _ in range(50):
        a = apply_all(random_records(rng, rng.randint(0, 15)))
        b = apply_all(random_records(rng, rng.randint(0, 15)))
        assert merge(a, empty) == a
        assert merge(empty, a) == a
        assert merge(a, b) == merge(b, a)


def test_merge_equals_sequential_apply():
    rng = random.Random(13)
    for _ in range(100):
        records = random_records(rng, rng.randint(0, 30))
        cut = rng.randint(0, len(records))
        merged = merge(apply_all(records[:cut]), apply_all(records[cut:]))
        assert merged == apply_all(records)


def test_merge_scope_mismatch():
    with pytest.raises(ScopeMismatch):
        merge(PolarityLedger(ARTICLE), PolarityLedger(CUMULATIVE))


def test_invariants_after_random_streams():
    rng = random.Random(17)
    for _ in range(100):
        records = random_records(rng, rng.randint(0, 40))
        ledger = apply_all(records)
        counts = {}
        for r in records:
            counts[(r.who, r.whom)] = counts.get((r.who, r.whom), 0) + 1
        for key, cell in ledger.items():
            assert abs(cell.p) <= cell.s
            assert cell.s == counts[key]
            assert cell.s > 0  # no zero-count cells are ever stored
            score = speaker_score(cell)
            assert -1 <= score <= 1


def test_matrix_direct_grid(article1_ledger):
    grid = format_matrix(article1_ledger, "k", value="p")
    assert grid == (
        "\tk\tkpk\n"
        "k\t0\t0\n"
        "andi\t-6\t-1\n"
        "deddy\t0\t-1\n"
        "kpk\t1\t0\n"
    )


def test_matrix_outlet_view_grid(article1_cumulative):
    cumulative = article1_cumulative
    polarity = format_matrix(cumulative, "k", value="p", with_outlet_view=True)
    counts = format_matrix(cumulative, "k", value="s", with_outlet_view=True)
    assert polarity == (
        "\tk\tkpk\n"
        "k\t0\t0\n"
        "andi\t-7\t-1\n"
        "deddy\t-1\t-1\n"
        "kpk\t1\t0\n"
    )
    assert counts == (
        "\tk\tkpk\n"
        "k\t0\t0\n"
        "andi\t7\t1\n"
        "deddy\t1\t1\n"
        "kpk\t1\t0\n"
    )


def test_matrix_article2_row(article2_ledger):
    grid = format_matrix(article2_ledger, "k", value="p")
    lines = grid.splitlines()
    assert lines[0] == "\tk\tahmad\tkm"
    assert "andi\t-1\t2\t1" in lines


def test_matrix_rejects_bad_value(article1_ledger):
    with pytest.raises(ValueError):
        format_matrix(article1_ledger, "k", value="q")
