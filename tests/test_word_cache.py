"""The lexicon's word cache is a cache: using a lexicon never changes what it is.

``Lexicon.word_cache`` fills as words are cleansed.  Its content
(``tokens``, ``dumps``, ``fingerprint``, ``category_counts``) must not
see it, and a warm lexicon must give every result a fresh one gives:
the processed sentences, the ``train`` stdout and the KB bytes.
"""

import copy
import gc
import pickle
import random
import weakref

from polisent import cli
from polisent.lexicon import load_lexicon
from polisent.textpipe import cleanse, process, tokenize
from support import MINI_LEXICON, random_article, run_cli

TEXT = MINI_LEXICON.dumps()
# Unknown words, punctuation, stopwords and declared words, some in capitals.
MIXED = ("The e1 is NOT good, alpha!  Zeta -- a e2 said: never bad? "
         "x_1 2024 ½ İstanbul ... e3 e3 fine; the poor e4.")


def fresh():
    return load_lexicon(TEXT.splitlines())


def test_cleansing_leaves_the_content_unchanged():
    lexicon = fresh()
    tokens = dict(lexicon.tokens)
    text, counts, shown = lexicon.dumps(), lexicon.category_counts(), repr(lexicon)
    words = tokenize(MIXED, 1).tokens
    cleanse(tokenize(MIXED, 1), lexicon)
    assert list(lexicon.word_cache) == list(dict.fromkeys(words))  # the cache did fill
    assert lexicon.tokens == tokens
    assert all(lexicon.tokens[surface] is token for surface, token in tokens.items())
    assert lexicon.dumps() == text
    assert lexicon.category_counts() == counts
    assert repr(lexicon) == shown
    assert lexicon.fingerprint() == fresh().fingerprint()
    assert lexicon == fresh()


def test_filled_cache_survives_pickle_and_deepcopy():
    # The cache holds its lexicon weakly: a copy must get a cache that classifies
    # through the copy, and a dropped copy must be freed at once, with no cycle.
    new_words = tokenize("Omega the GOOD e1, never x_2 -- İstanbul!", 1)
    for duplicate in (lambda lexicon: pickle.loads(pickle.dumps(lexicon)), copy.deepcopy):
        lexicon = fresh()
        cleanse(tokenize(MIXED, 1), lexicon)
        twin = duplicate(lexicon)
        assert list(twin.word_cache.items()) == list(lexicon.word_cache.items())
        assert twin == lexicon
        del lexicon  # the twin must not reach its words through the original
        assert cleanse(new_words, twin) == cleanse(new_words, fresh())
        assert "omega" in twin.word_cache
        enabled = gc.isenabled()
        gc.disable()
        try:
            gone = weakref.ref(twin)
            del twin
            assert gone() is None
        finally:
            if enabled:
                gc.enable()


def corpus(seed: int, n: int = 30):
    rng = random.Random(seed)
    return [random_article(rng, article_id=f"a{i:02d}", sentences=rng.randint(1, 6))
            for i in range(n)]


def warm(articles):
    """A lexicon that has cleansed other text and the articles in reverse order."""
    lexicon = fresh()
    cleanse(tokenize(MIXED, 1), lexicon)
    for article in reversed(articles):
        process(article.body, lexicon)
    assert lexicon.word_cache
    return lexicon


def test_warm_lexicon_processes_like_a_fresh_one():
    for seed in range(5):
        articles = corpus(seed)
        lexicon = warm(articles)
        for article in articles:
            assert process(article.body, lexicon) == process(article.body, fresh())


def test_warm_lexicon_trains_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    lexicon_path = tmp_path / "lexicon.txt"
    lexicon_path.write_text(TEXT, encoding="utf-8")
    articles = corpus(7)
    directory = tmp_path / "corpus"
    directory.mkdir()
    for article in articles:
        (directory / f"{article.article_id}.txt").write_text(
            f"@article {article.article_id} @outlet {article.outlet_id}\n{article.body}\n",
            encoding="utf-8")

    def train(kb_path):
        code, out, err = run_cli(capsys, "train", "--corpus", directory,
                                 "--lexicon", lexicon_path, "--kb", kb_path)
        assert (code, err) == (0, "")
        return out, kb_path.read_bytes()

    cold = train(tmp_path / "cold.kb.json")
    warmed = warm(articles)
    monkeypatch.setattr(cli, "load_lexicon_file", lambda path: warmed)
    assert train(tmp_path / "warm.kb.json") == cold
    assert cold[0]  # the corpus scores something
