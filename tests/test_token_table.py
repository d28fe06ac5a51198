"""Cleansing reads the lexicon's token table; ``lookup`` must agree with it.

Every declared surface has one shared token in ``Lexicon.tokens``.
For every lexicon surface and for random words (non-ASCII, ``İ``,
punctuation, stopwords, unknown words), cleansing a one-token sentence
keeps the token exactly when it is a word that is not a stopword, and
the kept token is the one ``lookup`` gives: the table's own token for a
declared word, an equal new ``plain`` one for an unknown word.  Also
pinned here: the two contracts the traced benchmark run counts with.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polisent.lexicon import WORD_RE, Token, load_lexicon
from polisent.textpipe import Sentence, cleanse, resolve, tokenize

LEXICON = load_lexicon("""\
[outlet] k
[stopwords]
si
yang
,
[negations]
tidak
[reporting]
berkata
[opinions]
baik +1
İyi +1
korup -1
! +1
x.y -1
[entities]
andi : pak andi , andi mallarangeng
kpk : komisi , komisi pemberantasan korupsi
ünal : ısmail ünal
""".splitlines())

SURFACES = sorted(LEXICON.tokens)
WORDS = sorted({w for s in SURFACES for w in s.split()}) + [
    "İ", "İstanbul", "ÇOK", "rakyat", "_", "x_1", "2024", "½", "k", "x", "y",
]


def check_word(token):
    """Cleanse ``token`` alone and compare with ``lookup``."""
    kept = cleanse(Sentence(1, (token,)), LEXICON).tokens
    looked_up = LEXICON.lookup(token)
    if WORD_RE.search(token) and looked_up.kind != "stopword":
        assert kept == (looked_up,)
        assert kept[0].normalized == token
        if token in LEXICON.tokens:
            assert kept[0] is looked_up is LEXICON.tokens[token]
    else:
        assert kept == ()


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=6))).map(" ".join))
@example(text="İyi! İSTANBUL si, yang Andi x.y korup ½ _")
def test_cleanse_agrees_with_lookup(text):
    for surface in SURFACES:
        check_word(surface)
    for token in tokenize(text, 1).tokens:
        check_word(token)


def test_every_table_token_is_a_plain_token():
    # Stopwords and punctuation surfaces too: the word cache alone decides what is dropped.
    assert all(type(token) is Token for token in LEXICON.tokens.values())
    assert {",", "!", "x.y"} <= LEXICON.tokens.keys()


def test_declared_words_are_the_shared_tokens():
    kept = cleanse(tokenize("Baik baik, andi!", 1), LEXICON).tokens
    assert kept[0] is kept[1] is LEXICON.tokens["baik"]
    assert kept[2] is LEXICON.tokens["andi"]


def test_tokenize_emits_punctuation_tokens():
    # The traced benchmark counts tokenize's tokens, punctuation included.
    assert tokenize("Andi, kata: baik!", 1).tokens == ("andi", ",", "kata", ":", "baik", "!")


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(WORDS + ["pak", "mallarangeng", "."])).map(" ".join))
@example(text="pak andi berkata komisi baik. kpk kpk andi")
def test_resolve_keeps_unmatched_tokens_and_replaces_windows_with_new_ones(text):
    # The traced benchmark counts alias hits as the tokens resolve did not get.
    for index, sentence_text in enumerate(text.split("."), start=1):
        kept = cleanse(tokenize(sentence_text, index), LEXICON)
        resolved = resolve(kept, LEXICON)
        given_ids = {id(token) for token in kept.tokens}
        carried = [token for token in resolved.tokens if id(token) in given_ids]
        rest = iter(kept.tokens)  # carried in order: a subsequence, by identity
        assert all(any(token is other for other in rest) for token in carried)
        for token in resolved.tokens:
            if id(token) not in given_ids:
                assert token.entity_id == token.normalized
        if len(carried) == len(resolved.tokens):
            assert resolved == kept
    # A canonical id in the text is replaced too, by a token cleanse did not give.
    kept = cleanse(tokenize("kpk rakyat", 1), LEXICON)
    resolved = resolve(kept, LEXICON)
    assert resolved.tokens[0] is not kept.tokens[0]
    assert resolved.tokens[1] is kept.tokens[1]
