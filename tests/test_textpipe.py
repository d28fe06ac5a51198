import re

import pytest

from polisent.errors import CorpusError
from polisent.lexicon import load_lexicon
from polisent.textpipe import Sentence, cleanse, parse_article, process, resolve, segment, tokenize


def norms(sentence):
    """The words: tokenize gives strings, cleanse and resolve give Tokens."""
    return [t if isinstance(t, str) else t.normalized for t in sentence.tokens]


def cleansed(text, lexicon):
    return cleanse(tokenize(text, 1), lexicon)


def test_segment_two_terminators():
    assert segment("A. B!") == ["A.", "B!"]


def test_segment_empty():
    assert segment("") == []
    assert segment("   \n  ") == []


def test_segment_terminator_needs_whitespace():
    assert segment("A.B") == ["A.B"]
    assert segment("A? B") == ["A?", "B"]


def test_segment_trailing_text_without_terminator():
    assert segment("A. trailing words") == ["A.", "trailing words"]


def test_fixture_article_has_17_sentences(article1, lexicon):
    # Independent oracle: count terminator characters by hand.
    assert article1.body.count(".") == 17
    assert article1.body.count("!") == 0
    assert article1.body.count("?") == 0
    sentences = segment(article1.body)
    assert len(sentences) == 17
    assert [s.index for s in process(article1.body, lexicon)] == list(range(1, 18))


@pytest.mark.parametrize(
    "body",
    ["A. B!", "one two. three", "x", "", "a.b c! d?", "  spaced .  out  "],
)
def test_segment_preserves_nonwhitespace(body):
    joined = "".join(segment(body))
    assert re.sub(r"\s+", "", joined) == re.sub(r"\s+", "", body)


def test_tokenize_words_only():
    sentence = tokenize("ABC adalah seorang koruptor", 1)
    assert norms(sentence) == ["abc", "adalah", "seorang", "koruptor"]


def test_tokenize_detaches_punctuation():
    assert norms(tokenize("Halo, dunia", 1)) == ["halo", ",", "dunia"]


def test_tokenize_whitespace_only():
    assert norms(tokenize("   ", 3)) == []


def test_tokenize_positions_and_index():
    assert tokenize("Satu dua, tiga.", 4) == Sentence(4, ("satu", "dua", ",", "tiga", "."))
    # Each token is lowercased on its own: the combining dot that "İ"
    # lowercases to is not a word character, yet stays in the word.
    assert tokenize("İstanbul!", 1).tokens == ("i\u0307stanbul", "!")


def test_cleanse_removes_stopwords(lexicon):
    sentence = tokenize("ABC adalah seorang koruptor", 1)
    assert norms(cleanse(sentence, lexicon)) == ["abc", "koruptor"]


def test_cleanse_only_stopwords(lexicon):
    assert norms(cleanse(tokenize("adalah yang itu", 1), lexicon)) == []


def test_cleanse_no_stopwords_identity(lexicon):
    sentence = tokenize("kpk hebat", 1)
    kept = cleanse(sentence, lexicon)
    assert norms(kept) == norms(sentence)
    assert list(kept.tokens) == [lexicon.lookup(w) for w in sentence.tokens]


def test_cleanse_drops_punctuation(lexicon):
    assert norms(cleanse(tokenize("halo , dunia .", 1), lexicon)) == ["halo", "dunia"]


def test_resolve_multiword_alias(lexicon):
    sentence = cleansed("lembaga antikorupsi bekerja", lexicon)
    resolved = resolve(sentence, lexicon)
    assert norms(resolved) == ["kpk", "bekerja"]
    assert resolved.tokens[0] == lexicon.lookup("kpk")
    assert resolved.tokens[1] is sentence.tokens[2]


def test_resolve_without_aliases_identity(lexicon):
    sentence = cleansed("proses hukum berjalan", lexicon)
    assert resolve(sentence, lexicon) == sentence


def test_resolve_longest_match_wins():
    lex = load_lexicon(["[outlet] out", "[entities]", "x : a b", "y : a"])
    resolved = resolve(cleansed("a b a", lex), lex)
    assert norms(resolved) == ["x", "y"]


def test_resolve_alias_longer_than_four_tokens():
    lex = load_lexicon(["[outlet] k", "[entities]", "a : satu dua tiga empat lima"])
    resolved = resolve(cleansed("kata satu dua tiga empat lima", lex), lex)
    assert norms(resolved) == ["kata", "a"]


def test_cleanse_and_resolve_idempotent(lexicon, article1):
    for sentence in (tokenize(text, i) for i, text in enumerate(segment(article1.body), 1)):
        once = cleanse(sentence, lexicon)
        assert cleanse(Sentence(once.index, tuple(norms(once))), lexicon) == once
        resolved = resolve(once, lexicon)
        assert resolve(resolved, lexicon) == resolved


def test_process_deterministic(lexicon, article1):
    assert process(article1.body, lexicon) == process(article1.body, lexicon)


def test_process_indices_contiguous(lexicon, article2):
    sentences = process(article2.body, lexicon)
    assert [s.index for s in sentences] == list(range(1, len(sentences) + 1))


def test_parse_article_header():
    article = parse_article("@article 9 @outlet K\nBody text.")
    assert article.article_id == "9"
    assert article.outlet_id == "k"
    assert article.body == "Body text."


@pytest.mark.parametrize(
    "text",
    ["no header\nbody", "@article x\nbody", "@outlet k @article x\nbody", ""],
)
def test_parse_article_rejects_bad_header(text):
    with pytest.raises(CorpusError):
        parse_article(text)


def test_load_corpus_sorted_by_article_id(tmp_path):
    (tmp_path / "zz.txt").write_text("@article 1 @outlet k\nIsi.", encoding="utf-8")
    (tmp_path / "aa.txt").write_text("@article 2 @outlet k\nIsi.", encoding="utf-8")
    (tmp_path / "mm.txt").write_text("@article 10 @outlet k\nIsi.", encoding="utf-8")
    from polisent.textpipe import load_corpus

    # String order, not numeric: "10" comes before "2".
    ids = [a.article_id for a in load_corpus(tmp_path)]
    assert ids == ["1", "10", "2"]


def test_load_corpus_rejects_missing_dir(tmp_path):
    from polisent.textpipe import load_corpus

    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")
