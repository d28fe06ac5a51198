"""The single-pass text pipeline and extractor agree with the frozen originals.

Random bodies mix lexicon words in random case, non-ASCII words (``İ``
lowercases to two code points, the second not a word character), runs of
punctuation, terminators with and without whitespace after them, and
ASCII and non-ASCII whitespace.  The lexicon declares nested and
overlapping multi-word aliases, an id whose aliases share no word with
it (text spells it ``x.y``, two plain words), and punctuation declared
as a stopword and an opinion.
Per body the library must give the oracle's sentences, tokens, kept and
resolved words with their classes, alias hits and statement records, both
with a lexicon whose word cache is warm from earlier bodies and with one
loaded for the body.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import textpipe_oracle as oracle
from polisent.analyzer import StatementRecord, analyze_article
from polisent.ledger import PolarityLedger
from polisent.lexicon import load_lexicon
from polisent.textpipe import RawArticle, cleanse, process, resolve, segment, tokenize

LEXICON_TEXT = """\
[outlet] k
[stopwords]
si
yang
,
[negations]
tidak
bukan
[reporting]
berkata
kata
[opinions]
baik +1
buruk -1
İyi +1
korup -1
! +1
[entities]
andi : pak andi , andi mallarangeng , pak andi mallarangeng
kpk : lembaga antikorupsi , komisi pemberantasan korupsi , komisi
ani : bu ani , bu ani yudhoyono
majelis : majelis hakim agung
hakim : hakim agung , agung
p : a b c , q r
s : b c d , a b
xy : foo , foo bar
ünal : ısmail ünal , çelik
"""
# Shared by every example, so its word cache is warm from the examples before.
LEXICON = load_lexicon(LEXICON_TEXT.splitlines())

WORDS = (
    "si", "yang", "tidak", "bukan", "berkata", "kata", "baik", "buruk", "korup",
    "andi", "pak", "mallarangeng", "kpk", "lembaga", "antikorupsi", "komisi",
    "pemberantasan", "korupsi", "ani", "bu", "yudhoyono", "majelis", "hakim", "agung",
    "a", "b", "c", "d", "p", "q", "r", "s", "x", "y", "foo", "bar", "ünal", "ısmail",
    "çelik", "iyi", "İyi", "İYİ", "İstanbul", "ÇOK", "rakyat", "proses", "k", "_", "x_1",
    "2024", "½",
)
PUNCTUATION = (".", "!", "?", ",", "...", "?!", "!!", "—", "«", "»", "-", ":", ".,", "̇")
SPACES = ("", " ", " ", " ", "  ", "\n", "\t", " ", "\x1c", " ", "　", " . ")

word = st.sampled_from(WORDS).flatmap(
    lambda w: st.sampled_from((w, w, w.upper(), w.capitalize()))
)
# Speakers before a reporting verb, targets before an opinion, negations.
PHRASES = ("pak andi berkata", "andi si berkata", "foo bar kata", "komisi yang berkata",
           "bu ani yudhoyono kata", "agung berkata", "kpk baik", "pak andi tidak korup",
           "ısmail ünal buruk", "x.y baik", "tidak", "İyi")
phrase = st.sampled_from(PHRASES)
fragment = st.one_of(word, word, word, word, phrase, phrase, st.sampled_from(PUNCTUATION))
space = st.sampled_from((" ",) * 12 + SPACES)
sentence = st.tuples(
    st.lists(st.tuples(fragment, space), min_size=1, max_size=14),
    st.sampled_from((". ", "! ", "? ", ".\n", "?!  ", ".", "", "... ", ".\x1c")),
)
bodies = st.lists(sentence, max_size=6).map(
    lambda sentences: "".join("".join(f + s for f, s in words) + end for words, end in sentences)
)
IDS = ("andi", "kpk", "ani", "hakim", "majelis", "p", "s", "xy", "ünal")
priors = st.lists(
    st.tuples(st.sampled_from(("k",) * 4 + IDS), st.sampled_from(IDS), st.sampled_from((-1, 1))),
    max_size=30,
)


def prior_ledger(triples) -> PolarityLedger | None:
    if not triples:
        return None
    ledger = PolarityLedger()
    for i, (who, whom, value) in enumerate(triples):
        ledger.apply(StatementRecord("p", i + 1, who, whom, value))
    return ledger


def alias_hits(given, resolved) -> int:
    ids = {id(token) for token in given.tokens}
    return sum(1 for token in resolved.tokens if id(token) not in ids)


def check_stages(body, lexicon):
    texts = segment(body)
    assert texts == oracle.segment(body)
    for index, text in enumerate(texts, start=1):
        old = oracle.tokenize(text, index)
        new = tokenize(text, index)
        assert new.index == index
        assert list(new.tokens) == [t.normalized for t in old.tokens]

        old_kept, new_kept = oracle.cleanse(old, lexicon), cleanse(new, lexicon)
        assert [t.normalized for t in new_kept.tokens] == [t.normalized for t in old_kept.tokens]
        old_resolved, new_resolved = oracle.resolve(old_kept, lexicon), resolve(new_kept, lexicon)
        assert alias_hits(new_kept, new_resolved) == alias_hits(old_kept, old_resolved)
        # Each token carries the kind, valence and id the old extractor looked up.
        assert list(new_resolved.tokens) == [
            lexicon.lookup(t.normalized) for t in old_resolved.tokens
        ]


def check_article(body, lexicon, triples):
    new = process(body, lexicon)
    old = oracle.process(body, lexicon)
    assert [s.index for s in new] == [s.index for s in old]
    assert [[(t.normalized, t.entity_id) for t in s.tokens] for s in new] == [
        [(t.normalized, lexicon.lookup(t.normalized).entity_id) for t in s.tokens] for s in old
    ]
    article = RawArticle("a1", lexicon.outlet_id, body)
    prior = prior_ledger(triples)
    assert analyze_article(article, lexicon, prior) == oracle.analyze_article(
        article, lexicon, prior
    )


@settings(max_examples=300, deadline=None)
@given(body=bodies, triples=priors)
@example(body="İyi! İSTANBUL İyi.x. Andi berkata kpk baik.", triples=[])
@example(body="pak si andi mallarangeng tidak korup. bu yang ani yudhoyono baik!",
         triples=[("k", "andi", -1)])
@example(body="a b c d. b c d a b c. majelis hakim agung agung hakim!",
         triples=[])
@example(body="foo berkata komisi baik. foo bar buruk? x.y baik.",
         triples=[("xy", "kpk", -1)])
@example(body="Andi baik . Komisi\x1cburuk. ÇELİK baik?!  ısmail  ÜNAL buruk",
         triples=[("k", "ünal", -1)])
@example(body="pak andi berkata foo baik. agung tidak buruk. si komisi baik!",
         triples=[("andi", "kpk", -1)])
@example(body="Andi\x1cberkata\x1fKPK\x0bbaik. pak\x1fandi\x0btidak korup!", triples=[])
@example(body="x_1 andi 2024 baik. X_1, 2024 kpk buruk?", triples=[("k", "kpk", -1)])
def test_pipeline_matches_oracle(body, triples):
    check_stages(body, LEXICON)
    check_article(body, LEXICON, triples)
    # A lexicon loaded for this example meets every word for the first time.
    check_stages(body, load_lexicon(LEXICON_TEXT.splitlines()))
    check_article(body, load_lexicon(LEXICON_TEXT.splitlines()), triples)


def test_fixture_corpus_matches_oracle(lexicon, corpus):
    for article in corpus:
        check_stages(article.body, lexicon)
        check_article(article.body, lexicon, [("k", "andi", -1), ("deddy", "kpk", -1)])
