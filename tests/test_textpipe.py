import re

import pytest

from polisent import (
    CorpusError,
    EntityEntry,
    Lexicon,
    cleanse,
    load_lexicon,
    parse_article,
    process,
    resolve,
    segment,
    tokenize,
)


def norms(sentence):
    return [t.normalized for t in sentence.tokens]


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
    sentence = tokenize("Satu dua, tiga.", 4)
    assert [t.position for t in sentence.tokens] == [0, 1, 2, 3, 4]
    assert all(t.sentence_index == 4 for t in sentence.tokens)
    assert all(t.normalized == t.surface.lower() for t in sentence.tokens)


def test_cleanse_removes_stopwords(lexicon):
    sentence = tokenize("ABC adalah seorang koruptor", 1)
    assert norms(cleanse(sentence, lexicon)) == ["abc", "koruptor"]


def test_cleanse_only_stopwords(lexicon):
    assert norms(cleanse(tokenize("adalah yang itu", 1), lexicon)) == []


def test_cleanse_no_stopwords_identity(lexicon):
    sentence = tokenize("kpk hebat", 1)
    assert cleanse(sentence, lexicon) == sentence


def test_cleanse_drops_punctuation(lexicon):
    assert norms(cleanse(tokenize("halo , dunia .", 1), lexicon)) == ["halo", "dunia"]


def test_resolve_multiword_alias(lexicon):
    sentence = cleanse(tokenize("lembaga antikorupsi bekerja", 1), lexicon)
    resolved = resolve(sentence, lexicon)
    assert norms(resolved) == ["kpk", "bekerja"]
    assert resolved.tokens[0].position == 0
    assert resolved.tokens[1].position == 2


def test_resolve_without_aliases_identity(lexicon):
    sentence = cleanse(tokenize("proses hukum berjalan", 1), lexicon)
    assert resolve(sentence, lexicon) == sentence


def test_resolve_longest_match_wins():
    lex = Lexicon(
        "out",
        entities=[EntityEntry("x", ("a b",)), EntityEntry("y", ("a",))],
    )
    resolved = resolve(tokenize("a b a", 1), lex)
    assert norms(resolved) == ["x", "y"]


def test_resolve_alias_longer_than_four_tokens():
    lex = load_lexicon(["[outlet] k", "[entities]", "a : satu dua tiga empat lima"])
    resolved = resolve(tokenize("kata satu dua tiga empat lima", 1), lex)
    assert norms(resolved) == ["kata", "a"]


def test_cleanse_and_resolve_idempotent(lexicon, article1):
    for sentence in (tokenize(text, i) for i, text in enumerate(segment(article1.body), 1)):
        once = cleanse(sentence, lexicon)
        assert cleanse(once, lexicon) == once
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
    from polisent import load_corpus

    # String order, not numeric: "10" comes before "2".
    ids = [a.article_id for a in load_corpus(tmp_path)]
    assert ids == ["1", "10", "2"]


def test_load_corpus_rejects_missing_dir(tmp_path):
    from polisent import load_corpus

    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")
