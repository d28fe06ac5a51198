"""The one-pass ``kb.loads`` and the hand-written ``kb.dumps`` agree with the frozen codec.

Random valid knowledge bases must load to the same ``KnowledgeBase`` and
dump to the same bytes on both sides.  Mutations of valid documents
(a field dropped, added or retyped at every level, a bound exceeded, a
key or id duplicated, a score not in lowest terms, an empty score list,
a string holding a surrogate) must be accepted or rejected alike, with the same exception class and
message, and that class must be a ``PolisentError``.  Faults made on the
text of a valid document (truncation, a stray character, an overlong
integer) must raise only ``PolisentError`` too.
"""

import json
import re
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kb_oracle as oracle
from polisent import kb as kbmod
from polisent.errors import PolisentError
from polisent.kb import KnowledgeBase
from polisent.ledger import Cell

# Strings that the encoder must escape or pass through unchanged.
AWKWARD = ("k", "andi", "Ände", "合", "é́", 'a"b', "a\\b", "\n", "\t\x00\x1f", "\x7f",
           " ", "/", "😀", " ", "null")
text_ids = st.one_of(st.sampled_from(AWKWARD), st.text(min_size=1, max_size=6))
counts = st.one_of(st.integers(1, 9), st.integers(1, 10**30))


# Scores recur across articles in a real KB; drawing often from a few
# small ones makes repeats, and scores sharing a numerator or a
# denominator, common within one document.
COMMON_SCORES = sorted({Fraction(num, den) for den in (1, 2, 3) for num in range(-den, den + 1)})


@st.composite
def fractions(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(COMMON_SCORES))
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**20)))
    return Fraction(draw(st.integers(-den, den)), den)


@st.composite
def knowledge_bases(draw, rich=False):
    """A valid KB; a ``rich`` one has an article, a cell and a scored pair at least."""
    least = int(rich)
    processed = draw(st.sets(text_ids, min_size=least, max_size=6))
    kb = KnowledgeBase(processed=processed)
    if processed or draw(st.booleans()):
        kb.lexicon_fingerprint = draw(st.one_of(st.just("f" * 64), text_ids))
    if not processed:
        return kb
    for who, whom in draw(st.sets(st.tuples(text_ids, text_ids), min_size=least, max_size=6)):
        s = draw(counts)
        kb.cumulative._cells[(who, whom)] = Cell(draw(st.integers(-s, s)), s)
    articles = st.lists(st.sampled_from(sorted(processed)), unique=True, min_size=least)
    for outlet, whom in draw(st.sets(st.tuples(text_ids, text_ids), min_size=least, max_size=4)):
        for article_id in draw(articles):
            kb.history.record(outlet, whom, article_id, draw(fractions()))
    return kb


# -- mutations of a valid document --------------------------------------

FIELDS = {
    "document": ("version", "lexicon_fingerprint", "processed", "cells", "history"),
    "cell": ("who", "whom", "p", "s"),
    "pair": ("outlet", "whom", "scores"),
    "score": ("article_id", "num", "den"),
}
# Deepest first: hypothesis draws the first choice of a list most often.
KINDS = ("score", "pair", "cell", "document")
ANY_FIELD = sorted({name for names in FIELDS.values() for name in names} | {"extra"})
VALUES = (None, True, False, 0, 1, -1, 2, 1.0, 1.5, "", "x", "1", [], {}, [1], {"x": 1},
          10**30, -(10**30))
# A scalar JSON value as ``json.dumps`` writes it.
SCALAR = r'-?\d+(?:\.\d+)?|"(?:[^"\\]|\\.)*"|null|true|false'


class Parts:
    """The objects and arrays of a valid document, found before it is mutated.

    A mutation of an object that an earlier one cut from the document
    changes nothing, and the document is still mutated once.
    """

    def __init__(self, document):
        self.document = document
        self.processed = document["processed"]
        self.history = document["history"]
        self.objects = [("document", document)]
        self.objects += [("cell", cell) for cell in document["cells"]]
        for pair in self.history:
            self.objects.append(("pair", pair))
            self.objects += [("score", score) for score in pair["scores"]]
        self.arrays = [self.processed, document["cells"], self.history]
        self.arrays += [pair["scores"] for pair in self.history]

    def of_kind(self, *kinds):
        return [obj for kind, obj in self.objects if kind in kinds]

    def draw_object(self, draw):
        """A kind of object, then one object of it, so that scores are not rare."""
        present = {kind for kind, _ in self.objects}
        kind = draw(st.sampled_from([kind for kind in KINDS if kind in present]))
        return kind, draw(st.sampled_from(self.of_kind(kind)))


def drop_field(draw, parts):
    _, obj = parts.draw_object(draw)
    if obj:
        del obj[draw(st.sampled_from(sorted(obj)))]


def add_field(draw, parts):
    _, obj = parts.draw_object(draw)
    obj[draw(st.sampled_from(ANY_FIELD))] = draw(st.sampled_from(VALUES))


def retype_field(draw, parts):
    kind, obj = parts.draw_object(draw)
    obj[draw(st.sampled_from(FIELDS[kind]))] = draw(st.sampled_from(VALUES))


def retype_two_fields(draw, parts):
    """Two fields of one object, so that the order of its checks shows."""
    kind, obj = parts.draw_object(draw)
    for name in draw(st.lists(st.sampled_from(FIELDS[kind]), min_size=2, max_size=2,
                              unique=True)):
        obj[name] = draw(st.sampled_from(VALUES))


def retype_element(draw, parts):
    array = draw(st.sampled_from(parts.arrays))
    if array:
        array[draw(st.integers(0, len(array) - 1))] = draw(st.sampled_from(VALUES))


def exceed_bound(draw, parts):
    bounded = [obj for obj in parts.of_kind("cell", "score")
               if type(obj.get("s", obj.get("den"))) is int]
    if not bounded:
        return
    obj = draw(st.sampled_from(bounded))
    if "s" in obj:
        s = obj["s"]
        obj.update(draw(st.sampled_from(({"s": 0}, {"s": -1}, {"p": s + 1}, {"p": -s - 1}))))
    else:
        den = obj["den"]
        obj.update(draw(st.sampled_from(
            ({"den": 0}, {"den": -1}, {"num": den + 1}, {"num": -den - 1}, {"num": 1, "den": -1})
        )))


def duplicate(draw, parts):
    array = draw(st.sampled_from(parts.arrays))
    if array:
        copy = json.loads(json.dumps(draw(st.sampled_from(array))))
        array.insert(draw(st.integers(0, len(array))), copy)


def not_lowest_terms(draw, parts):
    scores = [score for score in parts.of_kind("score")
              if type(score.get("num")) is int and type(score.get("den")) is int]
    if scores:
        score = draw(st.sampled_from(scores))
        factor = draw(st.integers(2, 4))
        score.update(num=score["num"] * factor, den=score["den"] * factor)


def empty_scores(draw, parts):
    """A pair with no scores: accepted and dropped, but its key still counts."""
    pairs = parts.of_kind("pair")
    outlet = draw(st.sampled_from([pair.get("outlet") for pair in pairs] + ["k"]))
    whom = draw(st.sampled_from([pair.get("whom") for pair in pairs] + ["nobody"]))
    parts.history.insert(draw(st.integers(0, len(parts.history))),
                         {"outlet": outlet, "whom": whom, "scores": []})


def ghost_article(draw, parts):
    scores = parts.of_kind("score")
    if scores:
        draw(st.sampled_from(scores))["article_id"] = "ghost"


def null_fingerprint(draw, parts):
    parts.document["lexicon_fingerprint"] = None


# Strings holding surrogates.  Written escaped, json.loads joins the first
# pair into one code point and keeps the rest; written raw, it keeps all.
SURROGATES = ("\ud83d\ude00", "\ud800", "a\udfff", "\udc00\ud800", "é\udbff")
STRINGS = {"document": ("lexicon_fingerprint",), "cell": ("who", "whom"),
           "pair": ("outlet", "whom"), "score": ("article_id",)}


def surrogate_string(draw, parts):
    """A string field or an article id of the registry that UTF-8 may not encode."""
    value = draw(st.sampled_from(SURROGATES))
    processed = parts.processed
    if processed and draw(st.booleans()):
        processed[draw(st.integers(0, len(processed) - 1))] = value
    else:
        kind, obj = parts.draw_object(draw)
        obj[draw(st.sampled_from(STRINGS[kind]))] = value


MUTATIONS = (retype_two_fields, retype_field, drop_field, add_field, retype_element, exceed_bound,
             duplicate, not_lowest_terms, empty_scores, ghost_article, null_fingerprint,
             surrogate_string)


@st.composite
def mutated_documents(draw):
    kb = draw(st.one_of(knowledge_bases(rich=True), knowledge_bases()))
    parts = Parts(json.loads(oracle.dumps(kb)))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
        mutate(draw, parts)
    text = json.dumps(parts.document, ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 7)) == 0:
        # A duplicate key after a scalar field: json.loads keeps the last value.
        matches = list(re.finditer(rf'"(\w+)": ({SCALAR})', text))
        if matches:
            m = draw(st.sampled_from(matches))
            value = json.dumps(draw(st.sampled_from(VALUES)))
            text = f'{text[:m.end()]}, "{m.group(1)}": {value}{text[m.end():]}'
    return text


def outcome(loads, text):
    try:
        return loads(text), None
    except Exception as exc:  # compared by class and message below
        return None, exc


# -- the tests -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(kb=knowledge_bases())
@example(kb=KnowledgeBase())
@example(kb=KnowledgeBase(lexicon_fingerprint="f" * 64))
def test_valid_knowledge_bases_match_oracle(kb):
    text = oracle.dumps(kb)
    assert kbmod.dumps(kb) == text
    new, old = kbmod.loads(text), oracle.loads(text)
    assert new == old == kb
    assert kbmod.dumps(new) == text


def document(processed=("a",), cells=(), history=(), fingerprint="f"):
    return json.dumps({"version": 1, "lexicon_fingerprint": fingerprint,
                       "processed": list(processed), "cells": list(cells),
                       "history": list(history)})


def pair(*scores):
    return {"outlet": "k", "whom": "x", "scores": list(scores)}


@settings(max_examples=300, deadline=None)
@given(text=mutated_documents())
@example(text=document(history=[pair()]))
@example(text=document(history=[pair(), pair()]))
@example(text=document(processed=[], fingerprint=None, history=[pair()]))
@example(text=document(history=[pair({"article_id": "a", "num": 2, "den": 4})]))
@example(text=document(history=[pair({"article_id": "a", "num": None, "den": "1"})]))
@example(text=document(cells=[{"who": "k", "whom": "x", "p": 1, "s": 0}]))
@example(text=document(processed=["a", "\ud800"]))
@example(text=document(cells=[{"who": "k", "whom": "\ud83d\ude00", "p": 1, "s": 1}]))
@example(text=document(cells=[{"who": "k", "whom": "\ud83d\ude00", "p": 1, "s": 1}])
         .replace("\\ud83d\\ude00", "\ud83d\ude00"))
@example(text=document(history=[pair({"article_id": "\udc00", "num": 1, "den": 1})]))
def test_mutated_documents_match_oracle(text):
    new, new_err = outcome(kbmod.loads, text)
    old, old_err = outcome(oracle.loads, text)
    assert new_err is None or isinstance(new_err, PolisentError), repr(new_err)
    assert type(new_err) is type(old_err)
    assert str(new_err) == str(old_err)
    if old_err is None:
        assert new == old
        assert kbmod.dumps(new) == oracle.dumps(old)


def corrupt_text(draw, text):
    """A textual fault: truncation, a stray character or an overlong integer."""
    at = draw(st.integers(0, len(text)))
    return draw(st.sampled_from((
        text[:at],
        text[:at] + draw(st.sampled_from(("}", "]", ",", '"', "\\", "\ud800", "x"))) + text[at:],
        re.sub(r"\d+", "9" * 5000, text, count=draw(st.integers(1, 3))),
    )))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_text_raises_only_polisent_errors(data):
    text = corrupt_text(data.draw, oracle.dumps(data.draw(knowledge_bases())))
    _, err = outcome(kbmod.loads, text)
    assert err is None or isinstance(err, PolisentError), repr(err)

