"""The word database as it was before the single surface table, kept as a test oracle.

``Lexicon`` checks surface collisions in three places (the loader's
``claim``, ``_check_disjoint`` and the alias-window and opinion-count
checks) and classifies a token by reading up to five tables.  The
differential tests require the library's ``load_lexicon`` to accept and
reject the same texts, with the same error class and line, and to agree
on ``lookup``, ``entity_for_window``, ``dumps`` and ``fingerprint``.
The loader also rejects an entity id with a non-word character, which
no text can match; that rule was added after the lexicon was frozen.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import IO, Iterable

from polisent.errors import DuplicateSurface, InvalidValence, LexiconError, MalformedLine

_SECTIONS = ("stopwords", "negations", "reporting", "opinions", "entities")

# Longest alias window considered when resolving multi-word names.
MAX_ALIAS_TOKENS = 4


@dataclass(frozen=True)
class OpinionEntry:
    surface: str
    valence: int


@dataclass(frozen=True)
class EntityEntry:
    canonical_id: str
    display_name: str
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class TokenClass:
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


class Lexicon:
    """Immutable word database with token classification and alias maps."""

    def __init__(
        self,
        outlet_id: str,
        opinion_entries: Iterable[OpinionEntry] = (),
        negation_words: Iterable[str] = (),
        stopwords: Iterable[str] = (),
        reporting_verbs: Iterable[str] = (),
        entities: Iterable[EntityEntry] = (),
    ):
        self.outlet_id = outlet_id.lower()
        self.opinion_entries = tuple(opinion_entries)
        self.negation_words = frozenset(negation_words)
        self.stopwords = frozenset(stopwords)
        self.reporting_verbs = frozenset(reporting_verbs)
        self.entities = tuple(entities)
        self._fingerprint: str | None = None

        if not self.outlet_id:
            raise MalformedLine("outlet id must be non-empty")

        self._opinion_valence: dict[str, int] = {}
        for entry in self.opinion_entries:
            if entry.valence not in (-1, 1):
                raise InvalidValence(
                    f"opinion {entry.surface!r} has valence {entry.valence}"
                )
            self._opinion_valence[entry.surface] = entry.valence

        # Alias windows map token tuples to canonical ids; single-token
        # windows double as the lookup table for entity classification.
        self._alias_windows: dict[tuple[str, ...], str] = {}
        for entity in self.entities:
            if entity.canonical_id == self.outlet_id:
                raise DuplicateSurface(
                    f"entity id {entity.canonical_id!r} collides with the outlet id"
                )
            for surface in (entity.canonical_id, *entity.aliases):
                window = tuple(surface.split())
                if not window:
                    raise MalformedLine(
                        f"entity {entity.canonical_id!r} declares an empty alias"
                    )
                if window in self._alias_windows:
                    raise DuplicateSurface(f"alias {surface!r} declared twice")
                self._alias_windows[window] = entity.canonical_id

        self.max_alias_window = min(
            MAX_ALIAS_TOKENS,
            max((len(w) for w in self._alias_windows), default=1),
        )
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        categories = [
            ("stopword", self.stopwords),
            ("negation", self.negation_words),
            ("reporting verb", self.reporting_verbs),
            ("opinion", self._opinion_valence.keys()),
            ("entity surface", {" ".join(w) for w in self._alias_windows}),
        ]
        seen: dict[str, str] = {}
        for label, surfaces in categories:
            for surface in surfaces:
                if surface in seen:
                    raise DuplicateSurface(
                        f"{surface!r} declared both as {seen[surface]} and as {label}"
                    )
                seen[surface] = label
        if len(self._opinion_valence) != len(self.opinion_entries):
            raise DuplicateSurface("opinion surface declared twice")

    def lookup(self, token: str) -> TokenClass:
        """Classify one token.  Unknown tokens are ``plain``.

        Total and case-insensitive: the token is lowercased before the
        category tables are consulted.
        """
        token = token.lower()
        if token in self.stopwords:
            return STOPWORD
        if token in self.negation_words:
            return NEGATION
        if token in self.reporting_verbs:
            return REPORTING_VERB
        valence = self._opinion_valence.get(token)
        if valence is not None:
            return TokenClass("opinion", valence=valence)
        canonical = self._alias_windows.get((token,))
        if canonical is not None:
            return TokenClass("entity", entity_id=canonical)
        return PLAIN

    def entity_for_window(self, window: tuple[str, ...]) -> str | None:
        """Canonical id for an exact alias window, or None."""
        return self._alias_windows.get(window)

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

    def _key(self):
        return (
            self.outlet_id,
            dict(self._opinion_valence),
            self.stopwords,
            self.negation_words,
            self.reporting_verbs,
            {e.canonical_id: frozenset(e.aliases) for e in self.entities},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        counts = self.category_counts()
        body = ", ".join(f"{k}={v}" for k, v in counts.items())
        return f"Lexicon(outlet={self.outlet_id!r}, {body})"


def load_lexicon(source: IO[str] | Iterable[str]) -> Lexicon:
    """Parse a lexicon file.  All errors carry the offending line number."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    outlet: str | None = None
    section: str | None = None
    stopwords: list[str] = []
    negations: list[str] = []
    reporting: list[str] = []
    opinions: list[OpinionEntry] = []
    entities: list[EntityEntry] = []
    entity_lines: list[int] = []
    seen: dict[str, tuple[str, int]] = {}

    def claim(surface: str, category: str, line_no: int) -> None:
        if surface in seen:
            prev_category, prev_line = seen[surface]
            raise DuplicateSurface(
                f"{surface!r} already declared as {prev_category} on line {prev_line}",
                line=line_no,
            )
        seen[surface] = (category, line_no)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            header = line.lower()
            if header.startswith("[outlet]"):
                value = header[len("[outlet]"):].strip()
                if len(value.split()) != 1:
                    raise MalformedLine("expected '[outlet] <id>'", line=line_no)
                if outlet is not None:
                    raise MalformedLine("duplicate [outlet] declaration", line=line_no)
                outlet = value
                section = None
                continue
            name = header.strip("[]")
            if header == f"[{name}]" and name in _SECTIONS:
                section = name
                continue
            raise MalformedLine(f"unknown section header {line!r}", line=line_no)
        if section is None:
            raise MalformedLine("content outside any section", line=line_no)

        if section in ("stopwords", "negations", "reporting"):
            parts = line.lower().split()
            if len(parts) != 1:
                raise MalformedLine("expected one token per line", line=line_no)
            token = parts[0]
            label = {"stopwords": "stopword", "negations": "negation",
                     "reporting": "reporting verb"}[section]
            claim(token, label, line_no)
            {"stopwords": stopwords, "negations": negations,
             "reporting": reporting}[section].append(token)
        elif section == "opinions":
            parts = line.lower().split()
            if len(parts) != 2:
                raise MalformedLine("expected '<surface> <+1|-1>'", line=line_no)
            surface, valence_text = parts
            try:
                valence = int(valence_text)
            except ValueError:
                raise MalformedLine(
                    f"valence {valence_text!r} is not an integer", line=line_no
                ) from None
            if valence not in (-1, 1):
                raise InvalidValence(
                    f"valence must be +1 or -1, got {valence}", line=line_no
                )
            claim(surface, "opinion", line_no)
            opinions.append(OpinionEntry(surface, valence))
        else:  # entities
            if line.count(":") > 1:
                raise MalformedLine("expected '<id> : <alias> , ...'", line=line_no)
            head, _, tail = line.lower().partition(":")
            canonical = head.strip()
            if len(canonical.split()) != 1:
                raise MalformedLine("entity id must be a single token", line=line_no)
            aliases = []
            tail = tail.strip()
            if tail:
                for piece in tail.split(","):
                    alias = " ".join(piece.split())
                    if not alias:
                        raise MalformedLine("empty alias", line=line_no)
                    aliases.append(alias)
            claim(canonical, "entity", line_no)
            for alias in aliases:
                claim(alias, "entity alias", line_no)
            entities.append(EntityEntry(canonical, canonical, tuple(aliases)))
            entity_lines.append(line_no)

    if outlet is None:
        raise MalformedLine("missing [outlet] declaration", line=len(lines) or None)
    for entity, line_no in zip(entities, entity_lines):
        if entity.canonical_id == outlet:
            raise DuplicateSurface(
                f"entity id {entity.canonical_id!r} collides with the outlet id",
                line=line_no,
            )
        if not re.fullmatch(r"\w+", entity.canonical_id):
            raise LexiconError(
                f"entity id {entity.canonical_id!r} contains a non-word character",
                line=line_no,
            )

    return Lexicon(
        outlet_id=outlet,
        opinion_entries=opinions,
        negation_words=negations,
        stopwords=stopwords,
        reporting_verbs=reporting,
        entities=entities,
    )
