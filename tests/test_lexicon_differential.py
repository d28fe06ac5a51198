"""The single-table lexicon agrees with the frozen three-check version.

Random lexicon texts mix valid declarations with duplicates within and
across categories, multi-word and colliding aliases, entity ids equal to
the outlet, bad valences, syntax errors and mixed case.  The only
difference allowed is the rejection of aliases the text pipeline could
never match (a non-word character or a stopword inside the alias).
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexicon_oracle as oracle
from conftest import FIXTURES
from polisent.errors import DuplicateSurface, LexiconError, PolisentError
from polisent.lexicon import load_lexicon
from polisent.textpipe import Sentence, resolve

# Few words, so that declarations collide often.
WORDS = ("k", "m", "Andi", "andi", "si", "anu", "baik", "BURUK", "tidak", "kata", "satu",
         "dua", "tiga", "empat", "lima", "pak", "bu", "Ketua", "majelis", "lembaga",
         "komisi", "hukum", "rakyat", "x.y", "a-b")
UNKNOWN = ("zzz", "K", "SATU")


def weighted(*choices):
    """One of the strategies, each drawn as often as its weight."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(
        lambda s: s
    )


word = st.sampled_from(WORDS)
alias = st.lists(word, min_size=1, max_size=6).map(" ".join)
two_words = st.tuples(word, word).map(" ".join)  # malformed outside [opinions]
word_line = weighted((20, word), (1, two_words))
valence = st.sampled_from(("+1", "-1") * 3 + ("1", "+2", "0", "x"))
opinion_line = weighted((20, st.tuples(word, valence).map(" ".join)), (1, word))
entity_line = weighted(
    (5, word),
    (20, st.tuples(word, st.lists(alias, min_size=1, max_size=3)).map(
        lambda pair: f"{pair[0]} : {' , '.join(pair[1])}"
    )),
    (1, st.just("a : b : c")),
    (1, st.just("e : x , , y")),
)
SECTION_LINES = {
    "stopwords": word_line,
    "negations": word_line,
    "reporting": word_line,
    "opinions": opinion_line,
    "entities": entity_line,
}
noise = st.sampled_from(("", "# comment", "[nosuch]", "[outlet] k", "[outlet]", "stray"))


@st.composite
def lexicon_texts(draw):
    blocks = []
    for name, line in SECTION_LINES.items():
        if draw(st.booleans()):
            header = draw(st.sampled_from((f"[{name}]", f"[{name.upper()}]")))
            blocks.append([header] + draw(st.lists(line, max_size=5)))
    blocks = draw(st.permutations(blocks))
    outlet = draw(st.sampled_from(("[outlet] k",) * 4 + ("[outlet] M", "[OUTLET] andi", None)))
    if outlet is not None:  # between sections: it ends the one before it
        blocks.insert(draw(st.integers(0, len(blocks))), [outlet])
    lines = [line for block in blocks for line in block]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines) + "\n"


def load(loader, text):
    try:
        return loader(text.splitlines()), None
    except LexiconError as exc:
        return None, exc


def dead_aliases(lexicon):
    return [
        alias
        for entity in lexicon.entities
        for alias in entity.aliases
        if any(not re.fullmatch(r"\w+", w) or w in lexicon.stopwords for w in alias.split())
    ]


def classes(lexicon, tokens):
    return [(c.kind, c.valence, c.entity_id) for c in map(lexicon.lookup, tokens)]


def window_entity(lexicon, window):
    """The canonical id that ``resolve`` puts in place of the whole window, or None."""
    given = tuple(lexicon.lookup(w)._replace(normalized=w) for w in window)  # case kept
    tokens = resolve(Sentence(1, given), lexicon).tokens
    if len(tokens) == 1 and tokens[0] is not given[0]:
        return tokens[0].normalized
    return None


@settings(max_examples=400, deadline=None)
@given(text=lexicon_texts())
@example(text=(FIXTURES / "lexicon.txt").read_text(encoding="utf-8"))
@example(text="[outlet] k\n[entities]\na : satu dua tiga empat lima\n")
@example(text="[outlet] k\n[stopwords]\nsi\n[entities]\nb : si anu\n")
@example(text="[outlet] k\n[entities]\nc : x.y\n")
@example(text="[outlet] k\n[entities]\nc : x.y\nk\n")
@example(text="[outlet] k\n[entities]\nx.y : foo\n")
@example(text="[outlet] k\n[entities]\nc : x.y\na-b\n")
@example(text="[outlet] k\n[stopwords]\njujur\n[opinions]\njujur +1\nbaik +2\n")
def test_load_matches_oracle(text):
    old, old_err = load(oracle.load_lexicon, text)
    new, new_err = load(load_lexicon, text)

    if type(new_err) is LexiconError and str(new_err) != str(old_err):
        # A dead alias.  The oracle accepted it, or failed later in the
        # file on a check that follows it: the outlet or the entity id.
        if old_err is None:
            assert any(repr(a) in str(new_err) for a in dead_aliases(old))
        else:
            assert type(old_err) in (DuplicateSurface, LexiconError)
            assert old_err.line > new_err.line
        return
    assert type(new_err) is type(old_err)
    if old_err is not None:
        assert new_err.line == old_err.line
        return
    assert not dead_aliases(old)

    assert new.dumps() == old.dumps()
    assert new.fingerprint() == old.fingerprint()
    assert new.category_counts() == old.category_counts()
    assert repr(new) == repr(old)
    surfaces = [
        *old.stopwords, *old.negation_words, *old.reporting_verbs,
        *(e.surface for e in old.opinion_entries),
        *(s for e in old.entities for s in (e.canonical_id, *e.aliases)),
    ]
    tokens = sorted({w for s in surfaces for w in s.split()} | set(UNKNOWN))
    tokens += [t.upper() for t in tokens]
    assert classes(new, tokens) == classes(old, tokens)

    windows = {tuple(s.split()) for s in surfaces} | {("andi", "anu"), ("zzz",)}
    windows |= {(a, b) for a in tokens[:8] for b in tokens[:8]}
    for window in windows:
        assert window_entity(new, window) == old.entity_for_window(window)


headers = st.sampled_from([f"[{name}]" for name in SECTION_LINES] + ["[outlet] k", "[outlet]"])
any_line = st.one_of(
    headers,
    st.sampled_from(list(SECTION_LINES.values())).flatmap(lambda line: line),
    noise,
    st.text(alphabet="[]:,+-#01kK \t  x.", max_size=12),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.one_of(
    lexicon_texts().flatmap(lambda text: st.permutations(text.splitlines())),
    st.lists(any_line, max_size=20),
))
def test_load_raises_only_polisent_errors(lines):
    try:
        load_lexicon("\n".join(lines).splitlines())
    except PolisentError:
        pass
