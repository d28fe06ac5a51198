"""Word database: opinion words, negations, stopwords, reporting verbs, entities.

The database is loaded from a line-oriented UTF-8 text file with
bracketed section headers.  A comment is a whole line starting with
``#``; a ``#`` after other text on a line is part of that line::

    [outlet] k
    [stopwords]
    # one token per line
    [negations]
    [reporting]
    [opinions]
    # lines "<surface> <+1|-1>"
    [entities]
    # lines "<canonical_id> : <alias> , <alias> , ..."

Every surface form is normalized to lowercase and may be declared only
once, in one category.  A canonical entity id acts as its own implicit
alias.  Every alias must be able to match text: each of its words is a
single word token and none of them is a stopword, since cleansing drops
stopwords before aliases are resolved.  The id is one word token too.
A :class:`Lexicon` is built only from this text, by :func:`load_lexicon`
or :func:`load_lexicon_file`, which make every check.  Each surface is
held as one flat :class:`Token`: the word, the kind its section gives
it, and its valence or entity id; a word the lexicon lacks is ``plain``.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DuplicateSurface, InvalidValence, LexiconError, MalformedLine, read_utf8

# One word token.  The tokenizer splits text into these and punctuation.
WORD_RE = re.compile(r"\w+")


# Each section of a lexicon file and the kind of token it declares, in the
# order :meth:`Lexicon.dumps` writes them.
_KINDS = {"stopwords": "stopword", "negations": "negation", "reporting": "reporting_verb",
          "opinions": "opinion", "entities": "entity"}
# Key of the match in a node of ``Lexicon.alias_trie``; no word is empty.
ALIAS_MATCH = ""


class Token(NamedTuple):
    """A word and its classification.

    ``kind`` is one of ``stopword``, ``negation``, ``opinion``,
    ``entity``, ``reporting_verb`` or ``plain``.  ``valence`` is set for
    opinions, ``entity_id`` for entities.
    """

    normalized: str
    kind: str
    valence: int | None = None
    entity_id: str | None = None


# Builds a Token without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


def _claim(table: dict[str, Token], surface: str, kind: str,
           valence: int | None = None, entity_id: str | None = None) -> None:
    """Enter one surface's shared token in the table; a second declaration is an error."""
    previous = table.get(surface)
    if previous is not None:
        raise DuplicateSurface(
            f"{surface!r} already declared as {previous.kind.replace('_', ' ')}"
        )
    table[surface] = _new(Token, (surface, kind, valence, entity_id))


def _check_entity(canonical: str, aliases: list[str], outlet_id: str, stopwords: set[str]) -> None:
    """Reject an entity that shadows the outlet or a surface that cannot match."""
    if canonical == outlet_id:
        raise DuplicateSurface(f"entity id {canonical!r} collides with the outlet id")
    # isalnum() settles most surfaces: \w is a character isalnum() accepts, or "_".
    if not canonical.isalnum() and not WORD_RE.fullmatch(canonical):
        raise LexiconError(f"entity id {canonical!r} contains a non-word character")
    for alias in aliases:
        words = alias.split()
        joined = "".join(words)
        if not joined.isalnum() and not WORD_RE.fullmatch(joined):
            raise LexiconError(f"alias {alias!r} contains a non-word character")
        if not stopwords.isdisjoint(words):
            raise LexiconError(f"alias {alias!r} contains a stopword")


class Lexicon:
    """Immutable word database: a surface-to-token table and an alias trie.

    ``tokens`` maps each surface (a multi-word one by its words joined
    with one space) to its one shared :class:`Token`, stopwords and
    punctuation surfaces included.  The table is the only store of
    content: :func:`load_lexicon` fills and checks it, and the trie, the
    text form and the counts are derived from it.

    ``word_cache`` is derived too: :func:`~polisent.textpipe.cleanse`
    fills it with one entry per distinct word it meets (779 on the
    benchmark's ``ingest-text`` batch, seed 1; 1,406 on ``ingest-grown``),
    the token it keeps or ``None``.  The content never reads it.
    """

    def __init__(self, outlet_id: str, tokens: dict[str, Token]):
        self.outlet_id = outlet_id
        self.tokens = tokens
        self._fingerprint: str | None = None
        self.word_cache: dict[str, Token | None] = {}

        # Token trie of the entity surfaces: a node maps the next word to
        # its child, and ALIAS_MATCH to the token that replaces the words
        # so far.  Each entity has one such token, never the one cleansing
        # gives for the id, so a replaced window can be told from a kept
        # word by identity.
        self.alias_trie: dict[str, dict] = {}
        replacements: dict[str, Token] = {}
        for surface, token in tokens.items():
            entity_id = token.entity_id
            if entity_id is None:
                continue
            if entity_id not in replacements:
                replacements[entity_id] = _new(Token, (entity_id, "entity", None, entity_id))
            node = self.alias_trie
            for word in surface.split():
                node = node.setdefault(word, {})
            node[ALIAS_MATCH] = replacements[entity_id]

    def lookup(self, token: str) -> Token:
        """The table's token for one word, or a new ``plain`` one if it lacks the word.

        Total and case-insensitive: the word is lowercased before the
        table is read.
        """
        word = token.lower()
        return self.tokens.get(word) or _new(Token, (word, "plain", None, None))

    def _sections(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """One pass over the table in surface order, so every list comes out sorted.

        Returns the text lines of each word kind, in section order, and
        the aliases of each entity id.
        """
        lines: dict[str, list[str]] = {k: [] for k in _KINDS.values() if k != "entity"}
        aliases: dict[str, list[str]] = {}
        for surface, token in sorted(self.tokens.items()):
            _, kind, valence, entity_id = token
            if entity_id is None:
                lines[kind].append(surface if valence is None else f"{surface} {valence:+d}")
            else:
                owned = aliases.setdefault(entity_id, [])
                if surface != entity_id:
                    owned.append(surface)
        return lines, aliases

    def category_counts(self) -> dict[str, int]:
        lines, aliases = self._sections()
        return {
            **{f"{kind}s": len(found) for kind, found in lines.items()},
            "entities": len(aliases),
            "aliases": sum(map(len, aliases.values())),
        }

    def dumps(self) -> str:
        """Canonical text form; parseable by :func:`load_lexicon`."""
        lines, aliases = self._sections()
        out = [f"[outlet] {self.outlet_id}"]
        for name, found in zip(_KINDS, lines.values()):  # the entities come last
            out += ["", f"[{name}]", *found]
        out += ["", "[entities]"]
        out += [f"{c} : {' , '.join(owned)}" if owned else c
                for c, owned in sorted(aliases.items())]
        return "\n".join(out) + "\n"

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


def load_lexicon(lines: Iterable[str]) -> Lexicon:
    """Parse the lines of a lexicon file.  All errors carry the offending line number.

    Surfaces are claimed into the lexicon's token table in file order,
    so the first fault in the file is the one reported; the entities are
    checked once the stopwords are all known.
    """
    outlet: str | None = None
    section: str | None = None
    entities: list[tuple[int, str, list[str]]] = []
    tokens: dict[str, Token] = {}

    line_no = 0  # after the loop: the last line, which a missing outlet reports
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lowered = line.lower()
            if line.startswith("["):
                if lowered.startswith("[outlet]"):
                    value = lowered[len("[outlet]"):].strip()
                    if len(value.split()) != 1:
                        raise MalformedLine("expected '[outlet] <id>'")
                    if outlet is not None:
                        raise MalformedLine("duplicate [outlet] declaration")
                    outlet, section = value, None
                    continue
                name = lowered.strip("[]")
                if lowered != f"[{name}]" or name not in _KINDS:
                    raise MalformedLine(f"unknown section header {line!r}")
                section = name
            elif section is None:
                raise MalformedLine("content outside any section")
            elif section == "opinions":
                parts = lowered.split()
                if len(parts) != 2:
                    raise MalformedLine("expected '<surface> <+1|-1>'")
                surface, valence_text = parts
                try:
                    valence = int(valence_text)
                except ValueError:
                    raise MalformedLine(
                        f"valence {valence_text!r} is not an integer"
                    ) from None
                if valence not in (1, -1):
                    raise InvalidValence(
                        f"opinion {surface!r} has valence {valence}, expected +1 or -1"
                    )
                _claim(tokens, surface, "opinion", valence)
            elif section == "entities":
                if line.count(":") > 1:
                    raise MalformedLine("expected '<id> : <alias> , ...'")
                head, _, tail = lowered.partition(":")
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
                for surface in (canonical, *aliases):
                    _claim(tokens, surface, "entity", entity_id=canonical)
                entities.append((line_no, canonical, aliases))
            else:  # stopwords, negations, reporting
                parts = lowered.split()
                if len(parts) != 1:
                    raise MalformedLine("expected one token per line")
                _claim(tokens, parts[0], _KINDS[section])

        if outlet is None:
            raise MalformedLine("missing [outlet] declaration")
        stopwords = {s for s, token in tokens.items() if token.kind == "stopword"}
        for line_no, canonical, aliases in entities:
            _check_entity(canonical, aliases, outlet, stopwords)
    except LexiconError as exc:
        raise type(exc)(str(exc), line=line_no) from None

    return Lexicon(outlet, tokens)


def load_lexicon_file(path: str | Path) -> Lexicon:
    return load_lexicon(read_utf8(path, LexiconError).splitlines())
