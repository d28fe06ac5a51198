import random

from conftest import FIXTURES
from polisent.analyzer import StatementRecord, analyze_article, trace
from polisent.ledger import PolarityLedger
from polisent.lexicon import Lexicon, load_lexicon_file
from polisent.textpipe import RawArticle, segment, tokenize
from support import MINI_LEXICON, random_article, random_prior


def art(body, article_id="a"):
    return RawArticle(article_id=article_id, outlet_id="out", body=body)


def triples(records):
    return [(r.who, r.whom, r.value) for r in records]


def test_speaker_marked_by_reporting_verb():
    records = analyze_article(art("e1 said e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("e1", "e2", -1)]
    assert records[0].sentence_index == 1


def test_speaker_defaults_to_outlet():
    records = analyze_article(art("e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("out", "e2", -1)]


def test_speaker_allows_one_intervening_token():
    records = analyze_article(art("e1 alpha said e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("e1", "e2", -1)]


def test_entity_two_past_verb_is_target():
    records = analyze_article(art("e1 alpha beta said e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("out", "e2", -1)]
    assert records[0].whom == "e2"


def test_entity_after_verb_is_target():
    records = analyze_article(art("alpha said e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("out", "e2", -1)]


def test_double_negation_keeps_value():
    records = analyze_article(art("e2 is not never bad."), MINI_LEXICON)
    assert triples(records) == [("out", "e2", -1)]


def test_single_negation_flips_both_directions():
    negative = analyze_article(art("e2 is not bad."), MINI_LEXICON)
    positive = analyze_article(art("e2 is not good."), MINI_LEXICON)
    assert triples(negative) == [("out", "e2", 1)]
    assert triples(positive) == [("out", "e2", -1)]


def test_two_targets_in_one_sentence():
    records = analyze_article(art("e1 bad e2 good."), MINI_LEXICON)
    assert triples(records) == [("out", "e1", -1), ("out", "e2", 1)]
    assert [r.sentence_index for r in records] == [1, 1]


def test_opinion_without_target_emits_nothing():
    assert analyze_article(art("alpha is bad."), MINI_LEXICON) == []
    assert analyze_article(art(""), MINI_LEXICON) == []
    assert analyze_article(art("alpha beta gamma."), MINI_LEXICON) == []


def test_target_persists_across_sentences():
    records = analyze_article(art("e1 is alpha. the bad omega."), MINI_LEXICON)
    assert triples(records) == [("out", "e1", -1)]
    assert records[0].sentence_index == 2
    # A sentence with no entity and no opinion keeps the target, whatever else it holds.
    records = analyze_article(art("e2 is bad. alpha not said. good."), MINI_LEXICON)
    assert triples(records) == [("out", "e2", -1), ("out", "e2", 1)]
    assert records[1].sentence_index == 3


def test_speaker_resets_each_sentence():
    records = analyze_article(art("e1 said e2 is bad. e2 is bad."), MINI_LEXICON)
    assert triples(records) == [("e1", "e2", -1), ("out", "e2", -1)]


def test_self_statement_allowed():
    records = analyze_article(art("e1 said e1 is good."), MINI_LEXICON)
    assert triples(records) == [("e1", "e1", 1)]


def test_sarcasm_flag_from_negative_prior():
    prior = PolarityLedger()
    for _ in range(3):
        prior.apply(StatementRecord("x", 1, "out", "e2", -1))
    records = analyze_article(art("e2 is good."), MINI_LEXICON, prior=prior)
    assert len(records) == 1
    assert records[0].sarcasm is True
    assert records[0].value == 1  # the value itself never changes


def test_no_sarcasm_without_negative_prior():
    prior = PolarityLedger()
    prior.apply(StatementRecord("x", 1, "out", "e2", 1))
    records = analyze_article(art("e2 is good."), MINI_LEXICON, prior=prior)
    assert records[0].sarcasm is False


def test_sarcasm_checks_speaker_target_pair():
    prior = PolarityLedger()
    prior.apply(StatementRecord("x", 1, "e1", "e2", -1))
    records = analyze_article(art("e2 is good. e1 said e2 is good."), MINI_LEXICON, prior=prior)
    assert [r.sarcasm for r in records] == [False, True]


def test_sarcasm_probe_after_training(lexicon, article1):
    prior = PolarityLedger()
    for record in analyze_article(article1, lexicon):
        prior.apply(record)
    assert prior.cell("k", "andi").p == -6  # direct inspection of the prior cell
    probe = RawArticle(article_id="p", outlet_id="k", body="Andi jujur.")
    records = analyze_article(probe, lexicon, prior=prior)
    assert triples(records) == [("k", "andi", 1)]
    assert records[0].sarcasm is True


def test_negative_statements_never_flagged():
    prior = PolarityLedger()
    prior.apply(StatementRecord("x", 1, "out", "e2", -1))
    records = analyze_article(art("e2 is bad."), MINI_LEXICON, prior=prior)
    assert records[0].sarcasm is False


def test_sarcasm_never_alters_triples():
    rng = random.Random(7)
    for _ in range(50):
        article = random_article(rng)
        with_prior = analyze_article(article, MINI_LEXICON, prior=random_prior(rng))
        without = analyze_article(article, MINI_LEXICON)
        assert triples(with_prior) == triples(without)


def test_negation_parity_random():
    rng = random.Random(11)
    for _ in range(100):
        article = random_article(rng, sentences=1)
        base = analyze_article(article, MINI_LEXICON)
        body = article.body[:-1]  # strip the terminator
        plus_one = analyze_article(art(body + " not."), MINI_LEXICON)
        plus_two = analyze_article(art(body + " not never."), MINI_LEXICON)
        assert [r.value for r in plus_one] == [-r.value for r in base]
        assert [r.value for r in plus_two] == [r.value for r in base]


def test_determinism(lexicon, article1):
    first = analyze_article(article1, lexicon)
    second = analyze_article(article1, lexicon)
    assert first == second


def test_trace_golden_article1(lexicon, article1, golden_trace1):
    records = analyze_article(article1, lexicon)
    assert trace(records, "k") == golden_trace1


def test_trace_golden_article2(lexicon, article1, article2, golden_trace2):
    prior = PolarityLedger()
    for record in analyze_article(article1, lexicon):
        prior.apply(record)
    records = analyze_article(article2, lexicon, prior=prior)
    assert trace(records, "k") == golden_trace2


def test_trace_empty_is_header_only():
    assert trace([], "k") == "article_index\tsentence_index\twho\twhom\tvalue\n"


def test_trace_renders_outlet_as_zero():
    record = StatementRecord("a", 3, "out", "e1", -1)
    assert trace([record], "out").splitlines()[1] == "a\t3\t0\te1\t-1"


def test_each_word_looked_up_once(corpus, monkeypatch):
    """One lookup and one read of the token table per distinct word, in first-seen order.

    The lexicon is loaded here: the session fixture's word cache is warm.
    """
    lexicon = load_lexicon_file(FIXTURES / "lexicon.txt")
    read, looked_up = [], []

    class Counted(dict):
        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

    original = Lexicon.lookup

    def lookup(self, token):
        looked_up.append(token)
        return original(self, token)

    monkeypatch.setattr(lexicon, "tokens", Counted(lexicon.tokens))
    monkeypatch.setattr(Lexicon, "lookup", lookup)
    words = []
    for article in corpus:
        analyze_article(article, lexicon)
        words += [token for text in segment(article.body) for token in tokenize(text, 1).tokens]
        assert looked_up == read == list(dict.fromkeys(words))
    assert len(read) < len(words)  # the articles repeat words
    analyze_article(corpus[0], lexicon)
    assert looked_up == read == list(dict.fromkeys(words))
