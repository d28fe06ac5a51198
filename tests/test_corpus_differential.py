"""The corpus reader agrees with the frozen pathlib reader.

For each corpus directory and each way of naming it, ``load_corpus`` must
give the oracle's articles in the oracle's order, or raise the oracle's
exception class with the oracle's message.  The directories hold the
entries whose handling ``Path.glob("*.txt")`` decides (hidden names, a
bare ``.txt``, an upper-case suffix, a directory and a dangling link so
named) and the contents whose handling text mode decides (CRLF and lone
CR line ends, a byte-order mark, bytes that are not UTF-8), plus
duplicate ids and a bad header.  Random file contents check ``read_utf8``
on its own.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import textpipe_oracle as oracle
from polisent.errors import CorpusError, LexiconError, read_utf8
from polisent.textpipe import load_corpus, read_article
from support import deny_listing


def outcome(function, *args):
    """What a call gives: ("ok", result) or ("error", class, message)."""
    try:
        return ("ok", function(*args))
    except Exception as exc:  # the comparison is the point: any class, any message
        return ("error", type(exc), str(exc))


def article(article_id: str, body: str = "Andi berkata KPK baik.") -> bytes:
    return f"@article {article_id} @outlet k\n{body}\n".encode("utf-8")


# Each corpus: file name -> bytes, or a builder for entries that are not files.
CORPORA = {
    "plain": {"2.txt": article("2"), "10.txt": article("10"), "1.txt": article("1"),
              "notes.md": b"not an article", "3.txt~": b"backup"},
    "empty": {},
    "glob names": {".hidden.txt": article("h"), ".txt": article("bare"),
                   "A.TXT": b"never read", "b.Txt": b"never read", "c.txt": article("c")},
    "line ends": {"crlf.txt": article("crlf", "Andi berkata\r\nKPK baik.\r\nAni buruk.").replace(
                      b"\n", b"\r\n"),
                  "cr.txt": b"@article cr @outlet k\rAndi berkata\rKPK baik.\r",
                  "mixed.txt": b"@article mixed @outlet k\r\r\nA.\n\rB.\r\n\r"},
    "bom": {"bom.txt": b"\xef\xbb\xbf" + article("bom")},
    "bom in body": {"bom.txt": article("bom", "\ufeffAndi baik.")},
    "not utf-8": {"1.txt": article("1"), "2.txt": b"@article 2 @outlet k\nAndi \xff\xfe baik.\n"},
    "truncated utf-8": {"1.txt": article("1") + b"\xc3"},
    "duplicate ids": {"a.txt": article("7"), "b.txt": article("8"), "c.txt": article("7")},
    "bad header": {"1.txt": article("1"), "2.txt": b"@outlet k @article 2\nbody\n"},
    "empty file": {"1.txt": b""},
    "directory so named": {"1.txt": article("1"), "d.txt": lambda path: path.mkdir()},
    "dangling link": {"1.txt": article("1"),
                      "l.txt": lambda path: path.symlink_to(path.parent / "gone")},
    "link to a file": {"1.txt": article("1"),
                       "l.txt": lambda path: path.symlink_to(path.parent / "1.txt")},
}


def build(directory: Path, entries: dict) -> Path:
    directory.mkdir()
    for name, content in entries.items():
        if callable(content):
            content(directory / name)
        else:
            (directory / name).write_bytes(content)
    return directory


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("form", ["relative", "trailing slash", "double slash", "dot prefix",
                                  "dot suffix", "absolute", "Path", "dot"])
def test_load_corpus_matches_oracle(tmp_path, monkeypatch, name, form):
    corpus = build(tmp_path / "corpus", CORPORA[name])
    monkeypatch.chdir(corpus if form == "dot" else tmp_path)
    argument = {
        "relative": "corpus", "trailing slash": "corpus/", "double slash": "corpus//",
        "dot prefix": "./corpus", "dot suffix": "corpus/.", "absolute": str(corpus),
        "Path": Path("corpus"), "dot": ".",
    }[form]
    expected = outcome(oracle.load_corpus, argument)
    assert outcome(load_corpus, argument) == expected


@pytest.mark.parametrize("argument", ["missing", "file.txt", "link", "", "file.txt/"])
def test_load_corpus_not_a_directory_matches_oracle(tmp_path, monkeypatch, argument):
    monkeypatch.chdir(tmp_path)
    Path("file.txt").write_bytes(article("1"))
    Path("link").symlink_to("missing")
    expected = outcome(oracle.load_corpus, argument)
    assert outcome(load_corpus, argument) == expected


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="a superuser reads a directory whatever its mode")
def test_load_corpus_unreadable_directory_matches_oracle(tmp_path):
    corpus = build(tmp_path / "corpus", CORPORA["plain"])
    corpus.chmod(0o300)  # searchable, not listable
    try:
        assert outcome(load_corpus, corpus) == outcome(oracle.load_corpus, corpus)
    finally:
        corpus.chmod(0o700)


def test_load_corpus_unlistable_directory_is_an_error(tmp_path, monkeypatch):
    # Denied the listing, both readers raise rather than read an empty corpus.
    corpus = build(tmp_path / "corpus", CORPORA["plain"])
    deny_listing(monkeypatch, corpus)
    expected = ("error", CorpusError, f"{corpus}: cannot list the directory (permission denied)")
    assert outcome(load_corpus, corpus) == expected
    assert outcome(oracle.load_corpus, corpus) == expected


@pytest.mark.parametrize("argument", ["c/1.txt", "./c/1.txt", "c//1.txt", "c/./1.txt",
                                      "c/missing.txt", "c/d.txt", "c/2.txt", "c/"])
def test_read_article_matches_oracle(tmp_path, monkeypatch, argument):
    monkeypatch.chdir(tmp_path)
    build(tmp_path / "c", {"1.txt": article("1").replace(b"\n", b"\r\n"),
                           "2.txt": b"@article 2 @outlet k\n\xff\n",
                           "d.txt": lambda path: path.mkdir()})
    assert outcome(read_article, argument) == outcome(oracle.read_article, argument)


PIECES = st.sampled_from([
    b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xc3\xa9",
    b"\xe2\x82", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b"\xed\xa0\x80", b"\x00", b" ",
    b"Andi baik.", b"\xc4\xb0yi",
])


@given(content=st.lists(PIECES, max_size=30).map(b"".join))
@example(content=b"")
@example(content=b"a\r")
@example(content=b"\r\n\r")
def test_read_utf8_matches_oracle(content):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "f.txt")
        with open(path, "wb") as handle:
            handle.write(content)
        for error in (CorpusError, LexiconError):
            assert outcome(read_utf8, path, error) == outcome(oracle.read_utf8, path, error)
