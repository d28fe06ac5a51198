"""Exception types shared across the package, the one reader of UTF-8 files
(``read_utf8``) and the one test of a string UTF-8 cannot encode (``unencodable``)."""

from __future__ import annotations

import errno
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


# The read size where ``st_size`` gives none, as for a pipe: a pipe buffer's worth on Linux.
_CHUNK = 1 << 16


def read_utf8(
    path: str | Path, error: Callable[[str], PolisentError], pipes: bool = False
) -> str:
    """The text of a UTF-8 file; ``error`` builds what a file that is not UTF-8 raises.

    Plain ``os`` calls and one decode: an open, an ``fstat``, reads sized
    from ``st_size`` until one returns nothing (two for a regular file)
    and a close, with no file object.  ``\\r\\n`` and a lone ``\\r`` read
    as ``\\n``, as in text mode's universal newlines, and a byte-order
    mark is kept as ``\\ufeff``.

    The file is opened with ``O_NONBLOCK``, so that a FIFO without a
    writer cannot block the open, and must be a regular file.  A
    directory raises the ``IsADirectoryError`` that ``open`` gives;
    anything else, such as a FIFO or a device like ``/dev/zero``, raises
    ``error`` before a byte is read.  With ``pipes`` a pipe or FIFO is
    read too, to its end; one without a writer reads as empty.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            if stat.S_ISDIR(info.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            if not (pipes and stat.S_ISFIFO(info.st_mode)):
                raise error(f"{path}: not a regular file")
            os.set_blocking(fd, True)
        chunks, size = [], info.st_size or _CHUNK
        while chunk := os.read(fd, size):
            chunks.append(chunk)
    finally:
        os.close(fd)
    data = b"".join(chunks)
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
