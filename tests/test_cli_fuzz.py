"""Every command over mutated inputs and odd paths: exit 0 or 2, never a traceback.

Each example writes the fixtures' lexicon, one article and a KB trained
from the fixtures, each with a few bytes deleted, replaced or inserted,
and may swap any path argument for one that is missing, a directory,
empty, a dangling symlink or a symlink loop.  Then ``lexicon validate``,
``analyze``, ``report``, ``kb export`` and ``train`` run through
``cli.main`` in this process.  ``main`` must return 0 or 2, and nothing
may escape it but argparse's ``SystemExit(2)``.  An exit 2 ends stderr
with its one ``error: `` line, and a ``train`` that exits 2 leaves the
KB's bytes as they were.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from polisent.cli import main
from polisent.kb import KnowledgeBase, dumps, ingest
from polisent.lexicon import load_lexicon_file
from polisent.textpipe import load_corpus

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
LEXICON = (FIXTURES / "lexicon.txt").read_bytes()
ARTICLE = (FIXTURES / "corpus" / "1.txt").read_bytes()


def trained_kb() -> bytes:
    lexicon = load_lexicon_file(FIXTURES / "lexicon.txt")
    kb = KnowledgeBase()
    for article in load_corpus(FIXTURES / "corpus"):
        ingest(kb, article, lexicon)
    return dumps(kb).encode()


KB = trained_kb()

# Fragments that the lexicon, article and KB parsers each treat specially.
FRAGMENTS = (b"\n", b"\r", b"\x00", b"\xff", b"\xed\xa0\x80", b" ", b"[", b"]", b"{", b"}",
             b'"', b",", b":", b"-", b"0", b"+1", b"99999999999999999999", b"1e400", b"null",
             b"[outlet]", b"[entities]", b"@article", b"@outlet", b"andi", b"\\ud800")


def apply(data: bytes, edits: list[tuple[int, int, bytes]]) -> bytes:
    """Each edit replaces ``cut`` bytes at ``at`` with ``insert``."""
    for at, cut, insert in edits:
        at = min(at, len(data))
        data = data[:at] + insert + data[at + cut:]
    return data


def mutated(original: bytes) -> st.SearchStrategy[bytes]:
    edit = st.tuples(st.integers(0, len(original)), st.integers(0, 8),
                     st.sampled_from(FRAGMENTS) | st.binary(max_size=4))
    return st.lists(edit, max_size=3).map(lambda edits: apply(original, edits))


# "file" is the ordinary argument: a regular file, or for the corpus a directory.
kinds = st.sampled_from(
    ("file", "file", "file", "missing", "directory", "empty", "dangling", "loop"))


def place(path: Path, kind: str, data: bytes) -> str:
    """The path argument of ``kind``, with ``data`` in it if it is a file."""
    if kind == "empty":
        return ""
    if kind == "file":
        path.write_bytes(data)
    elif kind == "directory":
        path.mkdir()
    elif kind == "dangling":
        path.symlink_to(path.with_name("nowhere"))
    elif kind == "loop":
        path.symlink_to(path)
    return str(path)


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            assert ": error: " in err.getvalue().splitlines()[-1], argv
            return 2
    assert code in (0, 2), argv
    if code == 2:
        lines = err.getvalue().split("\n")
        assert lines.pop() == "", argv
        assert [line for line in lines if line.startswith("error: ")] == [lines[-1]], argv
    return code


def snapshot(path: str) -> bytes | type:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    lexicon=mutated(LEXICON),
    article=mutated(ARTICLE),
    kb=mutated(KB),
    lexicon_kind=kinds,
    article_kind=kinds,
    corpus_kind=kinds,
    kb_kind=kinds,
    entity=st.sampled_from(("andi", "k", "zz", "ANDI", "")),
    flags=st.sets(st.sampled_from(("trace", "json", "entity", "outlet"))),
)
def test_every_command_exits_0_or_2(lexicon, article, kb, lexicon_kind, article_kind,
                                    corpus_kind, kb_kind, entity, flags):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        lexicon_path = place(root / "lexicon.txt", lexicon_kind, lexicon)
        article_path = place(root / "a.txt", article_kind, article)
        if corpus_kind == "file":  # the ordinary corpus: a directory that holds the article
            (root / "corpus").mkdir()
            place(root / "corpus" / "a.txt", article_kind, article)
            corpus = str(root / "corpus")
        else:  # for a corpus, the odd "directory" is a regular file
            corpus = place(root / "corpus", "file" if corpus_kind == "directory" else corpus_kind,
                           article)
        kb_path = place(root / "kb.json", kb_kind, kb)
        run(["lexicon", "validate", lexicon_path])
        run(["analyze", article_path, "--lexicon", lexicon_path, "--kb", kb_path,
             *(["--trace"] if "trace" in flags else [])])
        run(["report", "--kb", kb_path,
             *(["--format", "json"] if "json" in flags else []),
             *(["--entity", entity] if "entity" in flags else [])])
        run(["kb", "export", "--kb", kb_path,
             *(["--outlet", entity] if "outlet" in flags else [])])
        before = snapshot(kb_path)
        if run(["train", "--corpus", corpus, "--lexicon", lexicon_path, "--kb", kb_path]) == 2:
            assert snapshot(kb_path) == before
