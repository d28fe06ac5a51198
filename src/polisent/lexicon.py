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

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DuplicateSurface, InvalidValence, LexiconError, MalformedLine, read_utf8

# The built-in SHA-256 gives hashlib's digest without loading OpenSSL at every start.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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


def _claim(table: dict[str, Token], surface: str, kind: str, valence: int | None = None) -> Token:
    """Enter one surface's shared token in the table and return it; a redeclaration is an error."""
    previous = table.get(surface)
    if previous is not None:
        raise DuplicateSurface(
            f"{surface!r} already declared as {previous.kind.replace('_', ' ')}"
        )
    token = table[surface] = _new(Token, (surface, kind, valence, None))
    return token


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
    punctuation surfaces included.  ``alias_trie`` is a token trie of the
    entity surfaces: a node maps the next word to its child, and
    ``ALIAS_MATCH`` to the token that replaces the words so far.
    :func:`load_lexicon` builds both in its one pass over the file, with
    the tokens of each word section and the surfaces of each entity, and
    a ``Lexicon`` stores what it is given.  It derives only two things.
    The fingerprint hashes the text form with the built-in SHA-256; that
    text sorts copies of the short section lists, each entity's aliases
    and the entity ids, never the whole table.

    ``word_cache`` is the other: :func:`~polisent.textpipe.cleanse`
    fills it with one entry per distinct word it meets (779 on the
    benchmark's ``ingest-text`` batch, seed 1; 1,406 on ``ingest-grown``),
    the token it keeps or ``None``.  The content never reads it.
    """

    def __init__(self, outlet_id: str, tokens: dict[str, Token], alias_trie: dict[str, dict],
                 words: dict[str, list[Token]], entities: list[tuple[int, list[str]]]):
        self.outlet_id = outlet_id
        self.tokens = tokens
        self.alias_trie = alias_trie
        self._words = words  # each word section's tokens, by section name
        self._entities = entities  # each entity's line and surfaces, id first
        self._fingerprint: str | None = None
        self.word_cache: dict[str, Token | None] = {}

    def lookup(self, token: str) -> Token:
        """The table's token for one word, or a new ``plain`` one if it lacks the word.

        Total and case-insensitive: the word is lowercased before the
        table is read.
        """
        word = token.lower()
        return self.tokens.get(word) or _new(Token, (word, "plain", None, None))

    def category_counts(self) -> dict[str, int]:
        entities = self._entities
        return {
            **{f"{_KINDS[name]}s": len(found) for name, found in self._words.items()},
            "entities": len(entities),
            "aliases": sum(len(surfaces) for _, surfaces in entities) - len(entities),
        }

    def dumps(self) -> str:
        """Canonical text form; parseable by :func:`load_lexicon`."""
        out = [f"[outlet] {self.outlet_id}"]
        for name, found in self._words.items():  # the entities come last
            out += ["", f"[{name}]"]
            # By surface, which no two tokens share.
            out += [t[0] if t[2] is None else f"{t[0]} {t[2]:+d}" for t in sorted(found)]
        out += ["", "[entities]"]
        # Each entity's surfaces sort by its id, which no two entities share.
        out += [f"{c} : {' , '.join(sorted(aliases))}" if aliases else c
                for c, *aliases in sorted(surfaces for _, surfaces in self._entities)]
        return "\n".join(out) + "\n"

    def fingerprint(self) -> str:
        """Content hash binding knowledge bases to the lexicon they used.

        Computed on the first call and kept, since the lexicon is immutable.
        """
        if self._fingerprint is None:
            self._fingerprint = sha256(self.dumps().encode("utf-8")).hexdigest()
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

    One pass builds everything the :class:`Lexicon` holds.  It claims
    each surface into the token table in file order, so the first fault
    in the file is the one reported.  As it claims an entity's surfaces
    it adds them to the alias trie, and it keeps each word section's
    tokens and each entity's surfaces for the text form.  Once the
    stopwords are all known, the entity rules are checked over all the
    entities at once; only if that finds a fault does
    :func:`_check_entity` go through them in file order to report the
    first one.
    """
    outlet: str | None = None
    section: str | None = None
    entities: list[tuple[int, list[str]]] = []  # each entity's line and surfaces, id first
    entity_words: list[str] = []  # the words of every id and alias
    stopwords: set[str] = set()
    tokens: dict[str, Token] = {}
    trie: dict[str, dict] = {}
    sections: dict[str, list[Token]] = {name: [] for name in _KINDS if name != "entities"}

    line_no = 0  # after the loop: the last line, which a missing outlet reports, or 0 for none
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            lowered = line.lower()
            if section == "entities" and line[0] != "[":  # most lines of a large lexicon
                head, _, tail = lowered.partition(":")
                if ":" in tail:
                    raise MalformedLine("expected '<id> : <alias> , ...'")
                words = head.split()
                if len(words) != 1:
                    raise MalformedLine("entity id must be a single token")
                canonical = words[0]
                surfaces, spellings = [canonical], [words]
                if tail and not tail.isspace():
                    for piece in tail.split(","):
                        alias_words = piece.split()
                        if not alias_words:
                            raise MalformedLine("empty alias")
                        surfaces.append(" ".join(alias_words))
                        spellings.append(alias_words)
                        entity_words += alias_words
                # Every surface of the entity ends at one trie node holding one
                # token, a copy of the id's token in the table, never the one
                # cleansing gives for the id, so a replaced window can be told
                # from a kept word by identity.
                replacement = _new(Token, (canonical, "entity", None, canonical))
                for surface, spelling in zip(surfaces, spellings):
                    token = _new(Token, (surface, "entity", None, canonical))
                    if tokens.setdefault(surface, token) is not token:
                        _claim(tokens, surface, "entity")  # raises: the surface is taken
                    node = trie
                    for word in spelling:
                        node = node.setdefault(word, {})
                    node[ALIAS_MATCH] = replacement
                entities.append((line_no, surfaces))
                entity_words.append(canonical)
            elif line[0] == "[":
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
                sections["opinions"].append(_claim(tokens, surface, "opinion", valence))
            else:  # stopwords, negations, reporting
                parts = lowered.split()
                if len(parts) != 1:
                    raise MalformedLine("expected one token per line")
                sections[section].append(_claim(tokens, parts[0], _KINDS[section]))
                if section == "stopwords":
                    stopwords.add(parts[0])

        if outlet is None:
            raise MalformedLine("missing [outlet] declaration")
        joined = "".join(entity_words)
        if ((outlet in tokens and tokens[outlet].entity_id == outlet)
                or (joined and not joined.isalnum() and not WORD_RE.fullmatch(joined))
                or not stopwords.isdisjoint(entity_words)):
            for line_no, (canonical, *aliases) in entities:
                _check_entity(canonical, aliases, outlet, stopwords)
    except LexiconError as exc:
        raise type(exc)(str(exc), line=line_no or None) from None

    return Lexicon(outlet, tokens, trie, sections, entities)


def load_lexicon_file(path: str | Path) -> Lexicon:
    """The lexicon in the file at ``path``, which may be a pipe, as ``<(cat lexicon.txt)`` is."""
    return load_lexicon(read_utf8(path, LexiconError, pipes=True).splitlines())
