import io

import pytest

from polisent import (
    DuplicateSurface,
    EntityEntry,
    InvalidValence,
    Lexicon,
    LexiconError,
    MalformedLine,
    OpinionEntry,
    cleanse,
    load_lexicon,
    resolve,
    tokenize,
)


def loads(text):
    return load_lexicon(io.StringIO(text))


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
    assert not lex.opinion_entries
    assert not lex.stopwords
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
    with pytest.raises(LexiconError) as err:
        Lexicon("k", entities=[EntityEntry("c", ("x.y",))])
    assert err.value.line is None


def test_entity_id_with_non_word_character_rejected():
    # Text "x.y" tokenizes as x and y, so the id could never resolve.
    with pytest.raises(LexiconError) as err:
        loads("[outlet] k\n[entities]\nc : foo\nx.y : bar\n")
    assert err.value.line == 4
    assert "entity id 'x.y'" in str(err.value)
    with pytest.raises(LexiconError) as err:
        Lexicon("k", entities=[EntityEntry("x.y", ("bar",))])
    assert err.value.line is None


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
    assert lex.entities[0].aliases == ()
    assert lex.lookup("ahmad").entity_id == "ahmad"


def test_disjointness_exhaustive(lexicon):
    surfaces = (
        list(lexicon.stopwords)
        + list(lexicon.negation_words)
        + list(lexicon.reporting_verbs)
        + [e.surface for e in lexicon.opinion_entries]
    )
    for surface in surfaces:
        kinds = {
            surface in lexicon.stopwords,
            surface in lexicon.negation_words,
            surface in lexicon.reporting_verbs,
        }
        claimed = sum(
            [
                surface in lexicon.stopwords,
                surface in lexicon.negation_words,
                surface in lexicon.reporting_verbs,
                any(surface == e.surface for e in lexicon.opinion_entries),
                lexicon.lookup(surface).entity_id is not None,
            ]
        )
        assert claimed == 1, f"{surface} claimed by {claimed} categories"
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


def test_programmatic_validation():
    with pytest.raises(DuplicateSurface):
        Lexicon("k", stopwords=["x"], negation_words=["x"])
    with pytest.raises(InvalidValence):
        Lexicon("k", opinion_entries=[OpinionEntry("x", 0)])
    with pytest.raises(DuplicateSurface):
        Lexicon("k", entities=[EntityEntry("k")])


@pytest.mark.parametrize(
    "fields",
    [
        {"entities": [EntityEntry("ANDI", ("pak andi",))]},  # its alias became a plain 'ANDI'
        {"entities": [EntityEntry("andi", ("Pak Andi",))]},
        {"entities": [EntityEntry("hakim  agung", ("agung",))]},  # an id is one word
        {"entities": [EntityEntry("hakim agung")]},
        {"opinion_entries": [OpinionEntry("Baik", 1)]},
        {"stopwords": ["Si"]},
    ],
)
def test_programmatic_surfaces_that_cannot_match_rejected(fields):
    # Tokens are lowercase words, so these could never match any text.
    with pytest.raises(LexiconError) as err:
        Lexicon("k", **fields)
    assert err.value.line is None
