"""Exception types shared across the package, the one reader of UTF-8 files
(``read_utf8``) and the one test of a string UTF-8 cannot encode (``unencodable``)."""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Callable


class PolisentError(Exception):
    """Base class for all errors raised by this package."""


class LexiconError(PolisentError):
    """Problem in a word-database file.

    ``line`` is the 1-based line number in the source file.  It is None
    only for a fault that is not on one line, such as a file that is not
    UTF-8.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLine(LexiconError):
    """Syntax error in a lexicon file."""


class DuplicateSurface(LexiconError):
    """One surface form declared in two categories or two entries."""


class InvalidValence(LexiconError):
    """Opinion valence outside the allowed {-1, +1}."""


class CorpusError(PolisentError):
    """Unreadable or malformed article file."""


class DuplicateArticle(PolisentError):
    """Article id already present in the knowledge base."""


class LexiconMismatch(PolisentError):
    """Knowledge base was built with a different lexicon."""


class VersionMismatch(PolisentError):
    """Persisted knowledge base uses an unsupported format version."""


class CorruptDocument(PolisentError):
    """Persisted knowledge base violates the document schema.

    ``path`` points at the offending field, e.g. ``cells[3].p``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _open_nonblocking(path: str | Path, flags: int) -> int:
    return os.open(path, flags | os.O_NONBLOCK)


def read_utf8(
    path: str | Path, error: Callable[[str], PolisentError], pipes: bool = False
) -> str:
    """The text of a UTF-8 file; ``error`` builds what a file that is not UTF-8 raises.

    One unbuffered binary read and one decode.  ``\\r\\n`` and a lone
    ``\\r`` read as ``\\n``, as in text mode's universal newlines, and a
    byte-order mark is kept as ``\\ufeff``.

    The file is opened with ``O_NONBLOCK``, so that a FIFO without a
    writer cannot block the open, and must be a regular file: anything
    else, such as a FIFO or a device like ``/dev/zero``, raises ``error``
    before a byte is read.  With ``pipes`` a pipe or FIFO is read too,
    to its end; one without a writer reads as empty.
    """
    with open(path, "rb", buffering=0, opener=_open_nonblocking) as handle:
        mode = os.fstat(handle.fileno()).st_mode
        if not stat.S_ISREG(mode):
            if not (pipes and stat.S_ISFIFO(mode)):
                raise error(f"{path}: not a regular file")
            os.set_blocking(handle.fileno(), True)
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def unencodable(value: str) -> bool:
    """Whether UTF-8 cannot encode ``value``, as when it holds a lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False
