import pytest
from hypothesis import example, given, settings

from polisent.errors import DuplicateSurface, InvalidValence, LexiconError, MalformedLine
from polisent.lexicon import ALIAS_MATCH, load_lexicon
from polisent.textpipe import cleanse, resolve, tokenize
from support import MINI_LEXICON
from test_lexicon_differential import grown_text, lexicon_texts


def loads(text):
    return load_lexicon(text.splitlines())


def resolved(lexicon, text):
    return [t.normalized for t in resolve(cleanse(tokenize(text, 1), lexicon), lexicon).tokens]


def test_fixture_lookup_koruptor(lexicon):
    cls = lexicon.lookup("koruptor")
    assert cls.kind == "opinion"
    assert cls.valence == -1


def test_fixture_lookup_examples(lexicon):
    assert lexicon.lookup("adalah").kind == "stopword"
    tersangka = lexicon.lookup("tersangka")
    assert (tersangka.kind, tersangka.valence) == ("opinion", -1)
    assert lexicon.lookup("zzzunknown").kind == "plain"
    assert lexicon.lookup("tidak").kind == "negation"
    assert lexicon.lookup("menyatakan").kind == "reporting_verb"
    andi = lexicon.lookup("andi")
    assert (andi.kind, andi.entity_id) == ("entity", "andi")


def test_alias_maps_to_owner(lexicon):
    assert lexicon.lookup("mallarangeng").kind == "plain"  # only full alias matches
    assert resolved(lexicon, "andi mallarangeng") == ["andi"]
    assert resolved(lexicon, "lembaga antikorupsi") == ["kpk"]
    assert resolved(lexicon, "mallarangeng andi") == ["mallarangeng", "andi"]
    assert resolved(lexicon, "nope") == ["nope"]


def test_lookup_is_case_insensitive(lexicon):
    for token in ("Adalah", "KORUPTOR", "Andi"):
        assert lexicon.lookup(token) == lexicon.lookup(token.lower())


def test_vacuous_lexicon():
    lex = loads("[outlet] k\n")
    assert lex.outlet_id == "k"
    assert lex.tokens == {}
    assert set(lex.category_counts().values()) == {0}
    assert lex.lookup("anything").kind == "plain"


def test_duplicate_across_categories():
    text = "[outlet] k\n[stopwords]\njujur\n[opinions]\njujur +1\n"
    with pytest.raises(DuplicateSurface) as err:
        loads(text)
    assert err.value.line == 5


def test_duplicate_opinion_surface():
    with pytest.raises(DuplicateSurface):
        loads("[outlet] k\n[opinions]\nbaik +1\nbaik -1\n")


def test_alias_in_two_entries():
    with pytest.raises(DuplicateSurface):
        loads("[outlet] k\n[entities]\na : si anu\nb : si anu\n")


def test_alias_containing_stopword_rejected():
    # Cleansing drops "si" before resolution, so "si anu" could never match.
    with pytest.raises(LexiconError) as err:
        loads("[outlet] k\n[entities]\nb : si anu\n[stopwords]\nsi\n")
    assert err.value.line == 3
    assert "'si anu'" in str(err.value)


def test_alias_containing_non_word_character_rejected():
    with pytest.raises(LexiconError) as err:
        loads("[outlet] k\n[entities]\nc : x.y\n")
    assert err.value.line == 3
    assert "'x.y'" in str(err.value)


def test_entity_id_with_non_word_character_rejected():
    # Text "x.y" tokenizes as x and y, so the id could never resolve.
    with pytest.raises(LexiconError) as err:
        loads("[outlet] k\n[entities]\nc : foo\nx.y : bar\n")
    assert err.value.line == 4
    assert "entity id 'x.y'" in str(err.value)


def test_entity_id_collides_with_outlet():
    with pytest.raises(DuplicateSurface):
        loads("[outlet] k\n[entities]\nk : media\n")


def test_invalid_valence():
    with pytest.raises(InvalidValence) as err:
        loads("[outlet] k\n[opinions]\nbaik +2\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "[outlet] k\n[opinions]\nbaik\n",
        "[outlet] k\n[opinions]\nbaik dua +1\n",
        "[outlet] k\n[opinions]\nbaik x\n",
        "[outlet] k\n[stopwords]\ndua kata\n",
        "[outlet] k\nstray content\n",
        "[outlet] k\n[nosuch]\n",
        "[outlet]\n",
        "[outlet] k\n[outlet] m\n",
        "[outlet] k\n[entities]\na : b : c\n",
        "[outlet] k\n[entities]\na : x , , y\n",
        "[outlet] k\n[entities]\nhakim agung : agung\n",
        "[stopwords]\nini\n",
    ],
)
def test_malformed_lines(text):
    with pytest.raises(MalformedLine):
        loads(text)


def test_missing_outlet_reports_line():
    with pytest.raises(MalformedLine) as err:
        loads("[stopwords]\n")
    assert "outlet" in str(err.value)
    assert err.value.line == 1
    # A lexicon with no lines has no line to name.
    with pytest.raises(MalformedLine) as err:
        loads("")
    assert (err.value.line, str(err.value)) == (None, "missing [outlet] declaration")


def test_comments_and_blanks_ignored():
    lex = loads("# heading\n\n[outlet] k\n# more\n[negations]\ntidak\n")
    assert lex.lookup("tidak").kind == "negation"


def test_surfaces_normalized_lowercase():
    lex = loads("[outlet] K\n[opinions]\nBaik +1\n[entities]\nAndi : Pak Andi\n")
    assert lex.outlet_id == "k"
    assert lex.lookup("baik").valence == 1
    assert resolved(lex, "Pak Andi") == ["andi"]


def test_entity_line_without_aliases():
    lex = loads("[outlet] k\n[entities]\nahmad\n")
    assert lex.category_counts()["aliases"] == 0
    assert lex.lookup("ahmad").entity_id == "ahmad"


def test_disjointness_exhaustive(lexicon):
    # Each surface is one table entry, so the categories count it once.
    assert sum(lexicon.category_counts().values()) == len(lexicon.tokens)
    for surface in lexicon.tokens:
        assert lexicon.lookup(surface).kind != "plain"


def test_roundtrip_equality(lexicon):
    reloaded = loads(lexicon.dumps())
    assert reloaded == lexicon
    assert reloaded.fingerprint() == lexicon.fingerprint()


def test_roundtrip_is_order_insensitive():
    a = loads("[outlet] k\n[stopwords]\nx\ny\n[opinions]\nbaik +1\nburuk -1\n")
    b = loads("[outlet] k\n[opinions]\nburuk -1\nbaik +1\n[stopwords]\ny\nx\n")
    assert a == b
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_changes_with_content():
    a = loads("[outlet] k\n[stopwords]\nsatu\n")
    b = loads("[outlet] k\n[stopwords]\ndua\n")
    assert a != b
    assert a.fingerprint() != b.fingerprint()


def assert_one_replacement_per_entity(lexicon):
    """Every surface of an entity, one-word or multi-word, ends at a trie node holding
    the entity's one replacement token: equal to the id's table token, not that object.

    ``resolve`` tells a replaced window from a kept word by that identity alone.
    """
    replacements = {}
    for surface, token in lexicon.tokens.items():
        if token.entity_id is None:
            continue
        node = lexicon.alias_trie
        for word in surface.split():
            node = node[word]
        replacement = replacements.setdefault(token.entity_id, node[ALIAS_MATCH])
        assert node[ALIAS_MATCH] is replacement, surface
        id_token = lexicon.tokens[token.entity_id]
        assert replacement == id_token and replacement is not id_token, surface


def test_trie_holds_one_replacement_per_entity_of_the_mini_lexicon():
    assert_one_replacement_per_entity(MINI_LEXICON)


@settings(max_examples=200, deadline=None)
@given(text=lexicon_texts())
@example(text=grown_text())
def test_trie_holds_one_replacement_per_entity(text):
    try:
        lexicon = loads(text)
    except LexiconError:
        return  # a rejected text builds no trie
    assert_one_replacement_per_entity(lexicon)
