"""Word database: opinion words, negations, stopwords, reporting verbs, entities.

The database is loaded from a line-oriented UTF-8 text file with
``#`` comments and bracketed section headers::

    [outlet] k
    [stopwords]     # one token per line
    [negations]
    [reporting]
    [opinions]      # lines "<surface> <+1|-1>"
    [entities]      # lines "<canonical_id> : <alias> , <alias> , ..."

Every surface form is normalized to lowercase and may be declared only
once, in one category.  A canonical entity id acts as its own implicit
alias.  Every alias must be able to match text: each of its words is a
single word token and none of them is a stopword, since cleansing drops
stopwords before aliases are resolved.  The id is one word token too.
A :class:`Lexicon` built in code follows the same rules: a surface that
is not its own lowercase, or an id of more than one word, is rejected.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import DuplicateSurface, InvalidValence, LexiconError, MalformedLine

_SECTIONS = ("stopwords", "negations", "reporting", "opinions", "entities")

# One word token.  The tokenizer splits text into these and punctuation.
WORD_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class OpinionEntry:
    surface: str
    valence: int


@dataclass(frozen=True)
class EntityEntry:
    canonical_id: str
    aliases: tuple[str, ...] = ()


class TokenClass(NamedTuple):
    """Classification of one normalized token.

    ``kind`` is one of ``stopword``, ``negation``, ``opinion``,
    ``entity``, ``reporting_verb`` or ``plain``.  ``valence`` is set for
    opinions, ``entity_id`` for entities.
    """

    kind: str
    valence: int | None = None
    entity_id: str | None = None


STOPWORD = TokenClass("stopword")
NEGATION = TokenClass("negation")
REPORTING_VERB = TokenClass("reporting_verb")
PLAIN = TokenClass("plain")
_OPINIONS = {1: TokenClass("opinion", valence=1), -1: TokenClass("opinion", valence=-1)}
_WORD_CLASSES = {"stopwords": STOPWORD, "negations": NEGATION, "reporting": REPORTING_VERB}
# Key of the match in a node of ``Lexicon.alias_trie``; no word is empty.
ALIAS_MATCH = ""


class Token(NamedTuple):
    """A kept word and its class."""

    normalized: str
    token_class: TokenClass


class Dropped(Token):
    """The token of a surface cleansing drops: a stopword or punctuation."""

    __slots__ = ()


# Builds a Token without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


def _claim(table: dict[str, Token], surface: str, token_class: TokenClass) -> None:
    """Enter one surface's shared token in the table; a second declaration is an error."""
    if surface != surface.lower():
        raise LexiconError(f"surface {surface!r} is not lowercase, so no token can match it")
    previous = table.get(surface)
    if previous is not None:
        raise DuplicateSurface(
            f"{surface!r} already declared as {previous.token_class.kind.replace('_', ' ')}"
        )
    kept = token_class is not STOPWORD and (surface.isalnum() or WORD_RE.search(surface))
    table[surface] = _new(Token if kept else Dropped, (surface, token_class))


def _claim_entity(table: dict[str, Token], entity: EntityEntry) -> None:
    """Claim the id and every alias, keyed by their space-joined words."""
    token_class = TokenClass("entity", entity_id=entity.canonical_id)
    for surface in (entity.canonical_id, *entity.aliases):
        words = surface.split()
        if not words:
            raise MalformedLine(f"entity {entity.canonical_id!r} declares an empty alias")
        _claim(table, " ".join(words), token_class)


def _opinion_class(entry: OpinionEntry) -> TokenClass:
    token_class = _OPINIONS.get(entry.valence)
    if token_class is None:
        raise InvalidValence(
            f"opinion {entry.surface!r} has valence {entry.valence}, expected +1 or -1"
        )
    return token_class


def _check_entity(entity: EntityEntry, outlet_id: str, stopwords: frozenset[str]) -> None:
    """Reject an entity that shadows the outlet or a surface that cannot match."""
    canonical = entity.canonical_id
    if canonical == outlet_id:
        raise DuplicateSurface(f"entity id {canonical!r} collides with the outlet id")
    # isalnum() settles most surfaces: \w is a character isalnum() accepts, or "_".
    if not canonical.isalnum() and not WORD_RE.fullmatch(canonical):
        raise LexiconError(f"entity id {canonical!r} contains a non-word character")
    for alias in entity.aliases:
        words = alias.split()
        joined = "".join(words)
        if not joined.isalnum() and not WORD_RE.fullmatch(joined):
            raise LexiconError(f"alias {alias!r} contains a non-word character")
        if not stopwords.isdisjoint(words):
            raise LexiconError(f"alias {alias!r} contains a stopword")


class Lexicon:
    """Immutable word database: a surface-to-token table and an alias trie.

    ``tokens`` maps each surface (a multi-word one by its words joined
    with one space) to its one shared :class:`Token`; a :class:`Dropped`
    token marks a surface that cleansing drops.  ``_tokens`` is a table
    :func:`load_lexicon` has already claimed and checked.
    """

    def __init__(
        self,
        outlet_id: str,
        opinion_entries: Iterable[OpinionEntry] = (),
        negation_words: Iterable[str] = (),
        stopwords: Iterable[str] = (),
        reporting_verbs: Iterable[str] = (),
        entities: Iterable[EntityEntry] = (),
        *,
        _tokens: dict[str, Token] | None = None,
    ):
        self.outlet_id = outlet_id.lower()
        if not self.outlet_id:
            raise MalformedLine("outlet id must be non-empty")
        stopwords, negation_words, reporting_verbs = map(
            tuple, (stopwords, negation_words, reporting_verbs)
        )
        self.stopwords = frozenset(stopwords)
        self.negation_words = frozenset(negation_words)
        self.reporting_verbs = frozenset(reporting_verbs)
        self.opinion_entries = tuple(opinion_entries)
        self.entities = tuple(entities)
        self._fingerprint: str | None = None

        if _tokens is None:
            _tokens = {}
            for surfaces, token_class in (
                (stopwords, STOPWORD), (negation_words, NEGATION), (reporting_verbs, REPORTING_VERB)
            ):
                for surface in surfaces:
                    _claim(_tokens, surface, token_class)
            for entry in self.opinion_entries:
                _claim(_tokens, entry.surface, _opinion_class(entry))
            for entity in self.entities:
                _claim_entity(_tokens, entity)
                _check_entity(entity, self.outlet_id, self.stopwords)
        self.tokens = _tokens

        # Token trie of the entity surfaces: a node maps the next word to
        # its child, and ALIAS_MATCH to the token that replaces the words
        # so far.  That token is never the one cleansing gives for the id,
        # so a replaced window can be told from a kept word by identity.
        self.alias_trie: dict[str, dict] = {}
        for entity in self.entities:
            canonical = entity.canonical_id
            replacement = _new(Token, (canonical, _tokens[canonical].token_class))
            for surface in (canonical, *entity.aliases):
                node = self.alias_trie
                for word in surface.split():
                    node = node.setdefault(word, {})
                node[ALIAS_MATCH] = replacement

    def lookup(self, token: str) -> TokenClass:
        """Classify one token.  Unknown tokens are ``plain``.

        Total and case-insensitive: the token is lowercased before the
        table is read.
        """
        found = self.tokens.get(token.lower())
        return PLAIN if found is None else found.token_class

    def category_counts(self) -> dict[str, int]:
        return {
            "stopwords": len(self.stopwords),
            "negations": len(self.negation_words),
            "reporting_verbs": len(self.reporting_verbs),
            "opinions": len(self.opinion_entries),
            "entities": len(self.entities),
            "aliases": sum(len(e.aliases) for e in self.entities),
        }

    def dumps(self) -> str:
        """Canonical text form; parseable by :func:`load_lexicon`."""
        lines = [f"[outlet] {self.outlet_id}", "", "[stopwords]"]
        lines += sorted(self.stopwords)
        lines += ["", "[negations]"]
        lines += sorted(self.negation_words)
        lines += ["", "[reporting]"]
        lines += sorted(self.reporting_verbs)
        lines += ["", "[opinions]"]
        lines += [
            f"{e.surface} {e.valence:+d}"
            for e in sorted(self.opinion_entries, key=lambda e: e.surface)
        ]
        lines += ["", "[entities]"]
        for entity in sorted(self.entities, key=lambda e: e.canonical_id):
            if entity.aliases:
                lines.append(
                    f"{entity.canonical_id} : {' , '.join(sorted(entity.aliases))}"
                )
            else:
                lines.append(entity.canonical_id)
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """Content hash binding knowledge bases to the lexicon they used.

        Computed on the first call and kept, since the lexicon is immutable.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:
        counts = self.category_counts()
        body = ", ".join(f"{k}={v}" for k, v in counts.items())
        return f"Lexicon(outlet={self.outlet_id!r}, {body})"


def load_lexicon(source: IO[str] | Iterable[str]) -> Lexicon:
    """Parse a lexicon file.  All errors carry the offending line number.

    Surfaces are claimed into the lexicon's token table in file order,
    so the first fault in the file is the one reported; the entities are
    checked once the stopwords are all known.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    outlet: str | None = None
    section: str | None = None
    words: dict[str, list[str]] = {name: [] for name in _WORD_CLASSES}
    opinions: list[OpinionEntry] = []
    entities: list[tuple[int, EntityEntry]] = []
    tokens: dict[str, Token] = {}

    line_no = 0  # after the loop: the last line, which a missing outlet reports
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                header = line.lower()
                if header.startswith("[outlet]"):
                    value = header[len("[outlet]"):].strip()
                    if len(value.split()) != 1:
                        raise MalformedLine("expected '[outlet] <id>'")
                    if outlet is not None:
                        raise MalformedLine("duplicate [outlet] declaration")
                    outlet, section = value, None
                    continue
                name = header.strip("[]")
                if header != f"[{name}]" or name not in _SECTIONS:
                    raise MalformedLine(f"unknown section header {line!r}")
                section = name
            elif section is None:
                raise MalformedLine("content outside any section")
            elif section in words:
                parts = line.lower().split()
                if len(parts) != 1:
                    raise MalformedLine("expected one token per line")
                _claim(tokens, parts[0], _WORD_CLASSES[section])
                words[section].append(parts[0])
            elif section == "opinions":
                parts = line.lower().split()
                if len(parts) != 2:
                    raise MalformedLine("expected '<surface> <+1|-1>'")
                surface, valence_text = parts
                try:
                    entry = OpinionEntry(surface, int(valence_text))
                except ValueError:
                    raise MalformedLine(
                        f"valence {valence_text!r} is not an integer"
                    ) from None
                _claim(tokens, surface, _opinion_class(entry))
                opinions.append(entry)
            else:  # entities
                if line.count(":") > 1:
                    raise MalformedLine("expected '<id> : <alias> , ...'")
                head, _, tail = line.lower().partition(":")
                canonical = head.strip()
                if len(canonical.split()) != 1:
                    raise MalformedLine("entity id must be a single token")
                aliases = []
                tail = tail.strip()
                if tail:
                    for piece in tail.split(","):
                        alias = " ".join(piece.split())
                        if not alias:
                            raise MalformedLine("empty alias")
                        aliases.append(alias)
                entity = EntityEntry(canonical, tuple(aliases))
                _claim_entity(tokens, entity)
                entities.append((line_no, entity))

        if outlet is None:
            raise MalformedLine("missing [outlet] declaration")
        stopwords = frozenset(words["stopwords"])
        for line_no, entity in entities:
            _check_entity(entity, outlet, stopwords)
    except LexiconError as exc:
        raise type(exc)(str(exc), line=line_no) from None

    return Lexicon(
        outlet_id=outlet,
        opinion_entries=opinions,
        negation_words=words["negations"],
        stopwords=words["stopwords"],
        reporting_verbs=words["reporting"],
        entities=[entity for _, entity in entities],
        _tokens=tokens,
    )


def load_lexicon_file(path: str | Path) -> Lexicon:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return load_lexicon(text.splitlines())
