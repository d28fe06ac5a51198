import errno
import fcntl
import gc
import importlib.util
import json
import os
import re
import shutil
import signal
import socket
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES, REPO
from polisent import kb as kbmod
from polisent.cli import _pair_text, main
from polisent.kb import KnowledgeBase
from polisent.lexicon import load_lexicon_file
from polisent.textpipe import load_corpus
from support import deny_listing, deny_reading, run_cli as run

LEXICON = str(FIXTURES / "lexicon.txt")
CORPUS = str(FIXTURES / "corpus")


@pytest.fixture()
def kb_path(tmp_path):
    return str(tmp_path / "demo.kb.json")


@pytest.fixture()
def trained_kb_path(capsys, kb_path):
    code, _, _ = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON, "--kb", kb_path)
    assert code == 0
    return kb_path


def test_cli_import_loads_no_dataclasses_chain():
    # Every command is a fresh process, so each one pays for the import;
    # dataclasses alone pulls in inspect, ast, dis and tokenize.
    script = ("import sys; before = set(sys.modules); import polisent.cli; "
              "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    new = subprocess.run([sys.executable, "-c", script], env=env, cwd=REPO,
                         capture_output=True, text=True, check=True).stdout.split()
    assert "polisent.cli" in new
    assert {"dataclasses", "inspect", "ast", "dis"}.isdisjoint(new)


@pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                    reason="this Python has no built-in SHA-256 module")
def test_cli_import_loads_no_openssl():
    # The lexicon fingerprint hashes with the built-in SHA-256; hashlib
    # would load OpenSSL's _hashlib in every cold start.  -S keeps site's
    # own imports out of the check.
    script = (f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import polisent.cli; "
              "print('_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", script], cwd=REPO,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_lexicon_validate_ok(capsys):
    code, out, _ = run(capsys, "lexicon", "validate", LEXICON)
    assert code == 0
    counts = dict(
        line.split(": ") for line in out.strip().splitlines() if ": " in line
    )
    assert counts["outlet"] == "k"
    assert int(counts["opinions"]) >= 1
    assert int(counts["negations"]) >= 1
    assert int(counts["stopwords"]) >= 1


def test_lexicon_validate_duplicate(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[outlet] k\n[stopwords]\njujur\n[opinions]\njujur +1\n", encoding="utf-8")
    code, _, err = run(capsys, "lexicon", "validate", str(bad))
    assert code == 2
    assert "line 5" in err


def test_lexicon_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "lexicon", "validate", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_train_prints_scores_and_tendencies(capsys, kb_path):
    code, out, _ = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON, "--kb", kb_path)
    assert code == 0
    lines = out.splitlines()
    assert "1 andi -1 (negative)" in lines
    assert "1 deddy -1 (negative)" in lines
    assert "1 kpk 1 (positive)" in lines
    assert "2 andi 0.5 (positive)" in lines
    assert "andi -0.25 (negative)" in out
    assert "tendency andi -0.25 (negative)" in lines
    assert Path(kb_path).exists()


def test_train_empty_corpus_leaves_kb_unchanged(capsys, tmp_path, trained_kb_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    before = Path(trained_kb_path).read_bytes()
    code, _, _ = run(capsys, "train", "--corpus", str(empty), "--lexicon", LEXICON,
                     "--kb", trained_kb_path)
    assert code == 0
    assert Path(trained_kb_path).read_bytes() == before


def test_train_rerun_is_idempotent(capsys, trained_kb_path):
    before = Path(trained_kb_path).read_bytes()
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON,
                         "--kb", trained_kb_path)
    assert code == 0
    assert Path(trained_kb_path).read_bytes() == before
    assert err.count("skipping already processed") == 2
    assert "tendency andi -0.25 (negative)" in out


@pytest.mark.parametrize("corpus", ["extra", "empty", "missing"])
def test_train_mismatched_lexicon(capsys, tmp_path, trained_kb_path, corpus):
    # The lexicon is checked before the corpus is read: with only kb.ingest's
    # check, an empty corpus exited 0 and rewrote the KB, a missing one was the error.
    other = tmp_path / "other.txt"
    other.write_text("[outlet] k\n[opinions]\nbaik +1\n", encoding="utf-8")
    (tmp_path / "extra").mkdir()
    (tmp_path / "extra" / "3.txt").write_text("@article 3 @outlet k\nIsi baik.", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    kb = Path(trained_kb_path)
    before = (kb.read_bytes(), kb.stat().st_ino, sorted(os.listdir(tmp_path)))
    code, out, err = run(capsys, "train", "--corpus", tmp_path / corpus, "--lexicon", other,
                         "--kb", kb)
    assert (code, out) == (2, "")
    assert "different lexicon" in err
    assert (kb.read_bytes(), kb.stat().st_ino, sorted(os.listdir(tmp_path))) == before


def test_analyze_mismatched_lexicon(capsys, tmp_path, trained_kb_path):
    other = tmp_path / "other.txt"
    other.write_text("[outlet] k\n[opinions]\nbaik +1\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(FIXTURES / "corpus" / "2.txt"),
                         "--lexicon", str(other), "--kb", trained_kb_path)
    assert code == 2
    assert out == ""
    assert "different lexicon" in err


def test_analyze_with_trace(capsys, trained_kb_path, tmp_path, golden_trace2):
    # Score the second demo article against a kb trained on the first only.
    kb_path = str(tmp_path / "first.kb.json")
    first_only = tmp_path / "first"
    first_only.mkdir()
    shutil.copy(FIXTURES / "corpus" / "1.txt", first_only / "1.txt")
    code, _, _ = run(capsys, "train", "--corpus", str(first_only), "--lexicon", LEXICON,
                     "--kb", kb_path)
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "corpus" / "2.txt"),
                       "--lexicon", LEXICON, "--kb", kb_path, "--trace")
    assert code == 0
    assert out.startswith(golden_trace2)
    assert "andi 0.5 (positive)" in out.splitlines()


def test_analyze_without_trace(capsys, trained_kb_path):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "corpus" / "2.txt"),
                       "--lexicon", LEXICON, "--kb", trained_kb_path)
    assert code == 0
    assert out.splitlines() == ["andi 0.5 (positive)"]


def test_analyze_opinion_free_article(capsys, tmp_path, trained_kb_path):
    quiet = tmp_path / "quiet.txt"
    quiet.write_text("@article q @outlet k\nSidang berjalan lancar.", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(quiet), "--lexicon", LEXICON,
                       "--kb", trained_kb_path, "--trace")
    assert code == 0
    assert out == "article_index\tsentence_index\twho\twhom\tvalue\n"


def test_analyze_never_mutates_kb(capsys, trained_kb_path):
    before = Path(trained_kb_path).read_bytes()
    run(capsys, "analyze", str(FIXTURES / "corpus" / "2.txt"),
        "--lexicon", LEXICON, "--kb", trained_kb_path, "--trace")
    assert Path(trained_kb_path).read_bytes() == before


def test_analyze_unreadable_input(capsys, tmp_path, trained_kb_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.txt"),
                       "--lexicon", LEXICON, "--kb", trained_kb_path)
    assert code == 2
    assert "error" in err


def test_report_rows(capsys, trained_kb_path):
    code, out, _ = run(capsys, "report", "--kb", trained_kb_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "whom\tarticles\ttendency\tdecimal\tclassification"
    assert "andi\t2\t-1/4\t-0.2500\tnegative" in lines
    assert "deddy\t1\t-1\t-1.0000\tnegative" in lines
    assert "kpk\t1\t1\t1.0000\tpositive" in lines


def test_report_entity_filter(capsys, trained_kb_path):
    code, out, _ = run(capsys, "report", "--kb", trained_kb_path, "--entity", "deddy")
    assert code == 0
    assert out.splitlines() == [
        "whom\tarticles\ttendency\tdecimal\tclassification",
        "deddy\t1\t-1\t-1.0000\tnegative",
    ]


def test_report_entity_is_lowercased(capsys, trained_kb_path):
    # Every stored id is lowercase, as the lexicon and article headers make it.
    _, lower, _ = run(capsys, "report", "--kb", trained_kb_path, "--entity", "deddy")
    code, upper, _ = run(capsys, "report", "--kb", trained_kb_path, "--entity", "DEDDY")
    assert code == 0
    assert upper == lower
    assert len(upper.splitlines()) == 2


def test_report_empty_entity_is_a_usage_error(capsys, trained_kb_path):
    # No stored id is empty, so "" could only ever match every row or none.
    code, out, err = run(capsys, "report", "--kb", trained_kb_path, "--entity", "")
    assert (code, out) == (2, "")
    assert "argument --entity: must not be empty" in err


def test_report_json_matches_tsv_values(capsys, trained_kb_path):
    code, out, _ = run(capsys, "report", "--kb", trained_kb_path, "--format", "json")
    assert code == 0
    rows = {row["whom"]: row for row in json.loads(out)["rows"]}
    assert rows["andi"] == {
        "outlet": "k",
        "whom": "andi",
        "articles": 2,
        "tendency": "-1/4",
        "decimal": "-0.2500",
        "classification": "negative",
    }


def test_report_empty_kb(capsys, tmp_path, kb_path):
    empty = tmp_path / "none"
    empty.mkdir()
    run(capsys, "train", "--corpus", str(empty), "--lexicon", LEXICON, "--kb", kb_path)
    code, out, _ = run(capsys, "report", "--kb", kb_path)
    assert code == 0
    assert out.splitlines() == ["whom\tarticles\ttendency\tdecimal\tclassification"]


def test_report_missing_kb(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--kb", str(tmp_path / "nope.kb.json"))
    assert code == 2
    assert "error" in err


def test_kb_export_matrices(capsys, trained_kb_path):
    code, out, _ = run(capsys, "kb", "export", "--kb", trained_kb_path)
    assert code == 0
    assert "# matrix M (direct)" in out
    assert "# matrix N (direct)" in out
    assert "# matrix M (outlet view)" in out
    blocks = out.split("# matrix ")
    direct_m = blocks[1]
    assert "andi\t-7\t2\t1" in direct_m  # cumulative direct row for andi
    view_m = blocks[3]
    assert "andi\t-5\t2\t1" in view_m  # outlet column folds all speakers in


def test_kb_export_outlet_is_lowercased(capsys, trained_kb_path):
    _, lower, _ = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "k")
    code, upper, _ = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "K")
    assert code == 0
    assert upper == lower
    assert "\tK\t" not in upper and "\nK\t" not in upper


def test_kb_export_empty_outlet_is_a_usage_error(capsys, trained_kb_path):
    # Not a silent fallback to the single outlet in the score history.
    code, out, err = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "")
    assert (code, out) == (2, "")
    assert "argument --outlet: must not be empty" in err


def test_report_has_no_matrices_option(capsys, trained_kb_path):
    # `kb export` is the one command that prints the grids.
    code, out, err = run(capsys, "report", "--kb", trained_kb_path, "--matrices")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --matrices" in err


def test_kb_export_outlet_without_scores_warns(capsys, trained_kb_path):
    code, out, err = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "zz")
    assert code == 0
    assert out.startswith("# matrix M (direct)\n\tzz\t")  # the grids still print
    assert err == "warning: outlet zz has no scores in the knowledge base\n"
    _, _, err = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "k")
    assert err == ""


# `kb export` stdout over the fixtures' trained KB, whose one outlet is k: with
# --outlet k (the same as no --outlet), with --outlet zz and, once a third
# article from outlet m is trained in, with no --outlet (grids headed 0).
EXPORT_K = (
    "# matrix M (direct)\n"
    "\tk\tahmad\tkm\tkpk\n"
    "k\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\n"
    "andi\t-7\t2\t1\t-1\n"
    "deddy\t0\t0\t0\t-1\n"
    "km\t0\t0\t0\t0\n"
    "kpk\t1\t0\t0\t0\n"
    "\n"
    "# matrix N (direct)\n"
    "\tk\tahmad\tkm\tkpk\n"
    "k\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\n"
    "andi\t7\t2\t1\t1\n"
    "deddy\t0\t0\t0\t1\n"
    "km\t0\t0\t0\t0\n"
    "kpk\t1\t0\t0\t0\n"
    "\n"
    "# matrix M (outlet view)\n"
    "\tk\tahmad\tkm\tkpk\n"
    "k\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\n"
    "andi\t-5\t2\t1\t-1\n"
    "deddy\t-1\t0\t0\t-1\n"
    "km\t0\t0\t0\t0\n"
    "kpk\t1\t0\t0\t0\n"
    "\n"
    "# matrix N (outlet view)\n"
    "\tk\tahmad\tkm\tkpk\n"
    "k\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\n"
    "andi\t11\t2\t1\t1\n"
    "deddy\t1\t0\t0\t1\n"
    "km\t0\t0\t0\t0\n"
    "kpk\t1\t0\t0\t0\n"
)

EXPORT_ZZ = (
    "# matrix M (direct)\n"
    "\tzz\tahmad\tk\tkm\tkpk\n"
    "zz\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\n"
    "andi\t0\t2\t-7\t1\t-1\n"
    "deddy\t0\t0\t0\t0\t-1\n"
    "k\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\n"
    "kpk\t0\t0\t1\t0\t0\n"
    "\n"
    "# matrix N (direct)\n"
    "\tzz\tahmad\tk\tkm\tkpk\n"
    "zz\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\n"
    "andi\t0\t2\t7\t1\t1\n"
    "deddy\t0\t0\t0\t0\t1\n"
    "k\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\n"
    "kpk\t0\t0\t1\t0\t0\n"
    "\n"
    "# matrix M (outlet view)\n"
    "\tzz\tahmad\tk\tkm\tkpk\n"
    "zz\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\n"
    "andi\t-5\t2\t-7\t1\t-1\n"
    "deddy\t-1\t0\t0\t0\t-1\n"
    "k\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\n"
    "kpk\t1\t0\t1\t0\t0\n"
    "\n"
    "# matrix N (outlet view)\n"
    "\tzz\tahmad\tk\tkm\tkpk\n"
    "zz\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\n"
    "andi\t11\t2\t7\t1\t1\n"
    "deddy\t1\t0\t0\t0\t1\n"
    "k\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\n"
    "kpk\t1\t0\t1\t0\t0\n"
)

EXPORT_TWO_OUTLETS = (
    "# matrix M (direct)\n"
    "\t0\tahmad\tk\tkm\tkpk\tm\n"
    "0\t0\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\t0\n"
    "andi\t0\t2\t-7\t1\t-1\t0\n"
    "deddy\t0\t0\t0\t0\t-1\t0\n"
    "k\t0\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\t0\n"
    "kpk\t0\t0\t1\t0\t0\t1\n"
    "m\t0\t0\t0\t0\t0\t0\n"
    "\n"
    "# matrix N (direct)\n"
    "\t0\tahmad\tk\tkm\tkpk\tm\n"
    "0\t0\t0\t0\t0\t0\t0\n"
    "ahmad\t0\t0\t0\t0\t0\t0\n"
    "andi\t0\t2\t7\t1\t1\t0\n"
    "deddy\t0\t0\t0\t0\t1\t0\n"
    "k\t0\t0\t0\t0\t0\t0\n"
    "km\t0\t0\t0\t0\t0\t0\n"
    "kpk\t0\t0\t1\t0\t0\t1\n"
    "m\t0\t0\t0\t0\t0\t0\n"
)


def test_kb_export_stdout_with_outlet(capsys, trained_kb_path):
    code, out, err = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "k")
    assert (code, out, err) == (0, EXPORT_K, "")
    assert run(capsys, "kb", "export", "--kb", trained_kb_path) == (0, EXPORT_K, "")


def test_kb_export_stdout_outlet_without_scores(capsys, trained_kb_path):
    code, out, err = run(capsys, "kb", "export", "--kb", trained_kb_path, "--outlet", "zz")
    assert (code, out) == (0, EXPORT_ZZ)
    assert err == "warning: outlet zz has no scores in the knowledge base\n"


def test_kb_export_stdout_two_outlets(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    (corpus / "3.txt").write_text("@article 3 @outlet m\nAndi berkata KPK baik.\n")
    kb = str(tmp_path / "two.kb.json")
    code, _, _ = run(capsys, "train", "--corpus", str(corpus), "--lexicon", LEXICON, "--kb", kb)
    assert code == 0
    assert run(capsys, "kb", "export", "--kb", kb) == (0, EXPORT_TWO_OUTLETS, "")


@pytest.mark.parametrize("score, text", [
    (Fraction(-1, 4), "-0.25"), (Fraction(-1), "-1"), (Fraction(-1, 30000), "0"),
])
def test_fmt_score(score, text):
    assert _pair_text(*score.as_integer_ratio()) == f"{text} (negative)"


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "train")
    assert code == 2


@pytest.fixture()
def new_article_corpus(tmp_path):
    """A corpus of one article the trained demo KB has not seen."""
    extra = tmp_path / "extra"
    extra.mkdir()
    (extra / "3.txt").write_text("@article 3 @outlet k\nAndi berkata KPK baik.",
                                 encoding="utf-8")
    return str(extra)


def test_train_failed_save_keeps_old_kb(capsys, monkeypatch, trained_kb_path,
                                        new_article_corpus):
    before = Path(trained_kb_path).read_bytes()

    def fail(src, dst):
        raise OSError("injected failure")

    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run(capsys, "train", "--corpus", new_article_corpus, "--lexicon", LEXICON,
                         "--kb", trained_kb_path)
    assert (code, out) == (2, "")
    assert "injected failure" in err
    assert Path(trained_kb_path).read_bytes() == before
    assert sorted(p.name for p in Path(trained_kb_path).parent.iterdir()) == [
        ".demo.kb.json.lock", "demo.kb.json", "extra"
    ]


def test_train_into_missing_directory_prints_no_results(capsys, tmp_path):
    # No score line may claim a result the KB does not hold, and the
    # error names the KB, not the temp file beside it.
    kb_path = tmp_path / "missing" / "kb.json"
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert str(kb_path) in err
    assert ".tmp" not in err


def test_train_save_keeps_file_mode(capsys, trained_kb_path, new_article_corpus):
    os.chmod(trained_kb_path, 0o600)
    code, _, _ = run(capsys, "train", "--corpus", new_article_corpus, "--lexicon", LEXICON,
                     "--kb", trained_kb_path)
    assert code == 0
    assert stat.S_IMODE(os.stat(trained_kb_path).st_mode) == 0o600


def test_train_saves_past_a_stale_temp_file(capsys, tmp_path):
    # A save killed before its rename leaves its temp file behind; a later
    # train must still save, and removes it.  The temp files of another
    # KB whose name starts the same stay.
    kb_path = tmp_path / "kb.json"
    stale = tmp_path / ".kb.json.tmp"
    stale.write_text("partial", encoding="utf-8")
    (tmp_path / ".kb.json.old.0123456789abcdef.tmp").write_text("other", encoding="utf-8")
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, err) == (0, "")
    assert "tendency andi -0.25 (negative)" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".kb.json.lock", ".kb.json.old.0123456789abcdef.tmp", "kb.json"
    ]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(os.stat(kb_path).st_mode) == 0o666 & ~umask  # a new KB


def test_train_save_syncs_the_file_then_the_directory(capsys, monkeypatch, tmp_path):
    # The temp file is synced before the rename and the directory after it,
    # so the new document survives a power loss once train returns.
    kb_path = tmp_path / "kb.json"
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd)))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", None))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    code, _, _ = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON, "--kb", kb_path)
    assert code == 0
    assert [name for name, _ in calls] == ["fsync", "replace", "fsync"]
    synced_file, synced_directory = calls[0][1], calls[2][1]
    assert stat.S_ISREG(synced_file.st_mode)
    assert synced_file.st_ino == kb_path.stat().st_ino  # the temp file, now the KB
    assert stat.S_ISDIR(synced_directory.st_mode)
    assert synced_directory.st_ino == tmp_path.stat().st_ino


@pytest.mark.parametrize("kb", ["kbdir", "kbdir/", "."])
def test_train_into_a_directory_leaves_no_lock_file(capsys, monkeypatch, tmp_path, kb):
    # A KB path naming a directory fails before the lock file beside it is made.
    monkeypatch.chdir(tmp_path)
    Path("kbdir").mkdir()
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON, "--kb", kb)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {kb!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kbdir"]
    assert list(Path("kbdir").iterdir()) == []


def test_train_unlistable_corpus_exits_2(capsys, monkeypatch, kb_path):
    # A corpus read as empty would exit 0 having ingested nothing.
    deny_listing(monkeypatch, CORPUS)
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert err == f"error: {CORPUS}: cannot list the directory (permission denied)\n"
    assert not Path(kb_path).exists()


def test_train_fails_while_another_train_holds_the_lock(capsys, tmp_path, trained_kb_path,
                                                        new_article_corpus):
    # Two trains of one KB would each save their own batch, and the later
    # rename would drop the earlier one's: the second fails before it loads.
    before = Path(trained_kb_path).read_bytes()
    lock = Path(trained_kb_path).with_name(".demo.kb.json.lock")
    train = ("train", "--corpus", new_article_corpus, "--lexicon", LEXICON,
             "--kb", trained_kb_path)
    fd = os.open(lock, os.O_RDONLY | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, out, err = run(capsys, *train)
    finally:
        os.close(fd)
    assert (code, out) == (2, "")
    assert err == (f"error: {trained_kb_path}: another train is writing it "
                   f"(lock file {lock} is held)\n")
    assert Path(trained_kb_path).read_bytes() == before
    # A train releases the lock whether it fails or saves.
    bad = ("train", "--corpus", str(tmp_path / "nope"), "--lexicon", LEXICON,
           "--kb", trained_kb_path)
    assert run(capsys, *bad)[0] == 2
    code, out, err = run(capsys, *train)
    assert (code, err) == (0, "")
    assert out.startswith("3 ")
    assert run(capsys, *train)[0] == 0


def train_bytes(capsys, kb_path, corpus):
    """The bytes ``kb_path`` would hold after a clean train of ``corpus``, and its stdout.

    The train runs on a copy, so ``kb_path`` is left as it is.
    """
    copy = Path(kb_path).parent / "clean" / "kb.json"
    copy.parent.mkdir()
    shutil.copy(kb_path, copy)
    code, out, err = run(capsys, "train", "--corpus", corpus, "--lexicon", LEXICON, "--kb", copy)
    assert (code, err) == (0, "")
    data = copy.read_bytes()
    shutil.rmtree(copy.parent)
    return data, out


def test_train_through_a_symlink_updates_its_target(capsys, tmp_path, trained_kb_path,
                                                    new_article_corpus):
    # Renaming over the link would replace it with a file and leave the
    # target without the batch; a lock beside the link would not exclude
    # a train through the target's own path.
    target = Path(trained_kb_path)
    expected, expected_out = train_bytes(capsys, target, new_article_corpus)
    link = tmp_path / "a" / "kb.json"
    link.parent.mkdir()
    link.symlink_to(Path("..") / target.name)
    train = ("train", "--corpus", new_article_corpus, "--lexicon", LEXICON, "--kb", link)
    code, out, err = run(capsys, *train)
    assert (code, out, err) == (0, expected_out, "")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == expected
    assert [p.name for p in link.parent.iterdir()] == ["kb.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".demo.kb.json.lock", "a", "demo.kb.json", "extra"
    ]
    lock = target.with_name(".demo.kb.json.lock")
    fd = os.open(lock, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, out, err = run(capsys, *train)
    finally:
        os.close(fd)
    assert (code, out) == (2, "")
    assert err == f"error: {link}: another train is writing it (lock file {lock} is held)\n"
    assert link.is_symlink() and target.read_bytes() == expected


@pytest.mark.parametrize("argv, name", [
    (("train", "--corpus", CORPUS, "--lexicon", LEXICON, "--kb", ""), "--kb"),
    (("train", "--corpus", "", "--lexicon", LEXICON, "--kb", "kb.json"), "--corpus"),
    (("train", "--corpus", CORPUS, "--lexicon", "", "--kb", "kb.json"), "--lexicon"),
    (("analyze", str(FIXTURES / "corpus" / "1.txt"), "--lexicon", LEXICON, "--kb", ""), "--kb"),
    (("analyze", "", "--lexicon", LEXICON, "--kb", "kb.json"), "article"),
    (("analyze", "1.txt", "--lexicon", "", "--kb", "kb.json"), "--lexicon"),
    (("lexicon", "validate", ""), "path"),
    (("report", "--kb", ""), "--kb"),
    (("kb", "export", "--kb", ""), "--kb"),
], ids=["train-kb", "train-corpus", "train-lexicon", "analyze-kb", "analyze-article",
        "analyze-lexicon", "validate-path", "report-kb", "export-kb"])
def test_empty_path_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, name):
    # An empty --kb made train leave "..lock" in the working directory, and an
    # empty --corpus trained every *.txt there. An empty article read the
    # working directory and named '.', and an empty lexicon read ''.
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURES / "corpus" / "1.txt", "1.txt")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {name}: must not be empty\n")
    assert [p.name for p in tmp_path.iterdir()] == ["1.txt"]


# Each OS step of a save, in the order a train runs them; the last two
# come after the rename.
SAVE_STEPS = ["lock open", "stale unlink", "temp open", "write", "file fsync", "chmod",
              "replace", "directory open", "directory fsync"]


def fail_save_step_once(monkeypatch, step):
    """Make ``step`` of the next save raise ``OSError`` once.

    Returns a list that holds ``step`` once the fault has fired.
    """
    fired = []

    def fault(hit):
        if hit and not fired:
            fired.append(step)
            raise OSError(errno.EIO, f"injected {step} fault")

    def wrap(owner, name, hit):
        original = getattr(owner, name)

        def faulty(*args, **kwargs):
            fault(hit(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, faulty)

    def fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        write = handle.write
        handle.write = lambda text: fault(step == "write") or write(text)
        return handle

    def fsync_hit(fd):
        mode = os.fstat(fd).st_mode
        return step == ("directory fsync" if stat.S_ISDIR(mode) else "file fsync")

    def open_hit(path, *args):
        kind = "lock" if str(path).endswith(".lock") else "temp" if str(path).endswith(
            ".tmp") else "directory" if os.path.isdir(path) else None
        return step == f"{kind} open"

    real_fdopen = os.fdopen
    wrap(os, "open", open_hit)
    wrap(Path, "unlink", lambda path, *args: step == "stale unlink")
    monkeypatch.setattr(os, "fdopen", fdopen)
    wrap(os, "fsync", fsync_hit)
    wrap(os, "chmod", lambda *args: step == "chmod")
    wrap(os, "replace", lambda *args: step == "replace")
    return fired


@pytest.mark.parametrize("step", SAVE_STEPS)
def test_train_survives_a_fault_at_each_save_step(capsys, monkeypatch, tmp_path,
                                                  trained_kb_path, new_article_corpus, step):
    # A failed step exits 2 naming the KB and leaves no temp file of its
    # own; the KB holds the old document until the rename and the new
    # one after it.  A train without the fault then saves as usual.
    kb_path = Path(trained_kb_path)
    before = kb_path.read_bytes()
    after, _ = train_bytes(capsys, kb_path, new_article_corpus)
    stale = kb_path.with_name(".demo.kb.json.tmp")  # a killed save's
    stale.write_text("partial", encoding="utf-8")
    train = ("train", "--corpus", new_article_corpus, "--lexicon", LEXICON, "--kb", kb_path)
    with monkeypatch.context() as patch:
        fired = fail_save_step_once(patch, step)
        code, out, err = run(capsys, *train)
    assert fired == [step]
    assert (code, out) == (2, "")
    assert err == f"error: cannot save {kb_path}: injected {step} fault\n"
    removed = SAVE_STEPS.index(step) > SAVE_STEPS.index("stale unlink")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [".demo.kb.json.lock", "demo.kb.json", "extra", *([] if removed else [stale.name])]
    )
    renamed = SAVE_STEPS.index(step) > SAVE_STEPS.index("replace")
    assert kb_path.read_bytes() == (after if renamed else before)
    code, _, _ = run(capsys, *train)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".demo.kb.json.lock", "demo.kb.json", "extra"
    ]
    assert kb_path.read_bytes() == after


# Run the command line given after ``point`` and ``marker``, stopping it when
# the save reaches ``point``: there it creates ``marker`` and waits to be killed.
KILL_SCRIPT = """\
import os, stat, sys, time
from polisent import cli, kb

point, marker, *argv = sys.argv[1:]
owner, name, hit = {
    "dumps": (kb, "dumps", lambda *args: True),
    "replace": (os, "replace", lambda *args: True),
    "directory fsync": (os, "fsync", lambda fd: stat.S_ISDIR(os.fstat(fd).st_mode)),
}[point]
original = getattr(owner, name)

def stop(*args):
    if hit(*args):
        open(marker, "x").close()
        time.sleep(60)
    return original(*args)

setattr(owner, name, stop)
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("point", ["dumps", "replace", "directory fsync"])
def test_train_killed_mid_save_leaves_a_whole_kb(capsys, tmp_path, tmp_path_factory,
                                                 trained_kb_path, new_article_corpus, point):
    # SIGKILL runs no cleanup.  The KB still holds the old bytes before the
    # rename and the new ones after it, the lock dies with the process, and
    # the next train saves, removing a temp file the killed one left.
    kb_path = Path(trained_kb_path)
    before = kb_path.read_bytes()
    after, _ = train_bytes(capsys, kb_path, new_article_corpus)
    train = ("train", "--corpus", new_article_corpus, "--lexicon", LEXICON, "--kb", kb_path)
    marker = tmp_path_factory.mktemp("kill") / "stopped"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen([sys.executable, "-c", KILL_SCRIPT, point, str(marker),
                             *map(str, train)], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not marker.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL
    tmp = kb_path.with_name(".demo.kb.json.tmp")
    renamed = point == "directory fsync"
    assert kb_path.read_bytes() == (after if renamed else before)
    assert tmp.exists() == (point == "replace")
    if tmp.exists():
        assert tmp.read_bytes() == after  # written and synced, not yet renamed
    code, _, _ = run(capsys, *train)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".demo.kb.json.lock", "demo.kb.json", "extra"
    ]
    assert kb_path.read_bytes() == after


@pytest.mark.parametrize("command", ["analyze", "train"])
def test_unreadable_kb_is_not_a_missing_one(capsys, monkeypatch, trained_kb_path, command):
    # A KB whose stat fails with EACCES read as absent: analyze scored
    # against an empty KB and train saved a new one over it, both exiting 0.
    before = Path(trained_kb_path).read_bytes()
    argv = {"analyze": ("analyze", CORPUS + "/1.txt"), "train": ("train", "--corpus", CORPUS)}
    deny_reading(monkeypatch, trained_kb_path)
    code, out, err = run(capsys, *argv[command], "--lexicon", LEXICON, "--kb", trained_kb_path)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 13] Permission denied: {trained_kb_path!r}\n"
    monkeypatch.undo()
    assert Path(trained_kb_path).read_bytes() == before


@pytest.mark.parametrize("argv", [("report",), ("kb", "export")], ids=["report", "kb-export"])
def test_closed_stdout_exits_1_quietly(trained_kb_path, argv):
    # `polisent report --kb K | head -1` printed "error: [Errno 32] Broken
    # pipe" and exited 2: a reader that stops early is not an input error.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = "import sys; from polisent.cli import main; sys.exit(main())"
    try:
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--kb", trained_kb_path],
                              env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def run_with_closed_stdout(monkeypatch, *argv):
    """Run the command line in this process, its stdout a pipe whose reader is gone."""
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        return main([str(arg) for arg in argv])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc/self/fd")
def test_closed_stdout_leaves_no_fd_open(monkeypatch, trained_kb_path):
    # main pointed stdout at os.devnull through a new fd that it never
    # closed: each in-process call on a closed stdout left one more open.
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert run_with_closed_stdout(monkeypatch, "report", "--kb", trained_kb_path) == 1
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["ok", "polisent-error", "os-error", "closed-stdout", "usage"])
def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch, tmp_path,
                                                   trained_kb_path, outcome, enabled):
    corrupt = tmp_path / "corrupt.kb.json"
    corrupt.write_text("{}", encoding="utf-8")
    argv, expected = {
        "ok": (("report", "--kb", trained_kb_path), 0),
        "polisent-error": (("report", "--kb", corrupt), 2),
        "os-error": (("report", "--kb", tmp_path / "missing.kb.json"), 2),
        "closed-stdout": (("report", "--kb", trained_kb_path), 1),
        "usage": (("report", "--format", "xml"), 2),
    }[outcome]
    during = []
    load = kbmod.load
    monkeypatch.setattr(kbmod, "load", lambda *args: during.append(gc.isenabled()) or load(*args))
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "closed-stdout":
            code = run_with_closed_stdout(monkeypatch, *argv)
        else:
            code, _, _ = run(capsys, *argv)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert code == expected
    assert during == ([] if outcome == "usage" else [False])


def test_polisent_objects_hold_no_reference_cycles(trained_kb_path):
    # cli.main runs each command with the collector paused, which is safe
    # while reference counting alone frees everything polisent builds.
    text = Path(trained_kb_path).read_text(encoding="utf-8")

    def work():
        lexicon = load_lexicon_file(LEXICON)
        assert kbmod.loads(text).processed
        kb = KnowledgeBase()
        for article in load_corpus(CORPUS):
            kbmod.ingest(kb, article, lexicon)
        assert kbmod.dumps(kb) == text

    work()  # imports and caches filled on first use are not garbage
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_main_leaves_no_cyclic_garbage_and_no_parser_state(capsys, tmp_path):
    # main once rebuilt its argparse tree, whose objects hold reference
    # cycles, on every call; it now reuses one, which must forget each call.
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    (corpus / "3.txt").write_text("@article 3 @outlet m\nAndi berkata KPK baik.\n",
                                  encoding="utf-8")
    kb = tmp_path / "kb.json"
    calls = [
        ("train", "--corpus", corpus, "--lexicon", LEXICON, "--kb", kb),
        ("analyze", FIXTURES / "corpus" / "1.txt", "--lexicon", LEXICON, "--kb", kb),
        ("report", "--kb", kb, "--entity", "andi"),
        ("report", "--kb", kb),
        ("kb", "export", "--kb", kb, "--outlet", "k"),
        ("kb", "export", "--kb", kb),
        ("lexicon", "validate", LEXICON),
    ]
    outs = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert gc.collect() == 0, argv
            outs.append(out)
    finally:
        if enabled:
            gc.enable()
    whoms = [[line.split("\t")[0] for line in out.splitlines()[1:]] for out in outs[2:4]]
    assert whoms == [["andi"], ["andi", "deddy", "kpk", "kpk"]]
    assert [out.count("# matrix") for out in outs[4:6]] == [4, 2]
    # A memo lives as long as its command: one held by a module would grow in a
    # long-lived caller and serve the next call warm hits.
    filled = [f"{name}.{attr}" for name, module in list(sys.modules.items())
              if name == "polisent" or name.startswith("polisent.")
              for attr, value in vars(module).items()
              if callable(getattr(value, "cache_info", None)) and value.cache_info().currsize]
    assert filled == []


NOT_UTF8 = b"@article 3 @outlet k\nAndi \xff\xfe baik.\n"


def test_non_utf8_article(capsys, tmp_path, trained_kb_path):
    article = tmp_path / "3.txt"
    article.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "analyze", str(article), "--lexicon", LEXICON,
                         "--kb", trained_kb_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {article}: not UTF-8 text")


def test_non_utf8_corpus_article(capsys, tmp_path, kb_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    (corpus / "3.txt").write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "train", "--corpus", str(corpus), "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {corpus / '3.txt'}: not UTF-8 text")
    assert not Path(kb_path).exists()


def test_non_utf8_lexicon(capsys, tmp_path, kb_path):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_bytes(b"[outlet] k\n[opinions]\nbaik +1\n\xe9 -1\n")
    code, out, err = run(capsys, "train", "--corpus", CORPUS, "--lexicon", str(lexicon),
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {lexicon}: not UTF-8 text")
    code, _, err = run(capsys, "lexicon", "validate", str(lexicon))
    assert code == 2
    assert "not UTF-8 text" in err


def test_non_utf8_kb_names_the_file(capsys, tmp_path):
    kb_path = tmp_path / "bad.kb.json"
    kb_path.write_bytes(b"\xff{}")
    code, out, err = run(capsys, "report", "--kb", str(kb_path))
    assert (code, out) == (2, "")
    assert err == f"error: document: {kb_path}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("command", [("report",), ("kb", "export")],
                         ids=["report", "export"])
@pytest.mark.parametrize("content", [b"[" * 100000, b"\xff{}"],
                         ids=["deeply-nested", "not-utf8"])
def test_unreadable_kb_document(capsys, tmp_path, command, content):
    kb_path = tmp_path / "bad.kb.json"
    kb_path.write_bytes(content)
    code, out, err = run(capsys, *command, "--kb", str(kb_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: document: ")


@pytest.mark.parametrize("command, path",
                         [("train", "processed[2]"), ("report", "history[0].whom")])
def test_surrogate_in_kb_is_an_input_error(capsys, trained_kb_path, command, path):
    # Each would otherwise reach a UTF-8 write: train saves the registry,
    # report prints the target.
    document = json.loads(Path(trained_kb_path).read_text(encoding="utf-8"))
    if command == "train":
        document["processed"].append("\ud800")
    else:
        document["history"][0]["whom"] = "\ud800"
    bad = json.dumps(document)  # escaped, as ensure_ascii writes it
    Path(trained_kb_path).write_text(bad, encoding="utf-8")
    argv = {"train": ["train", "--corpus", CORPUS, "--lexicon", LEXICON], "report": ["report"]}
    code, out, err = run(capsys, *argv[command], "--kb", trained_kb_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")
    assert Path(trained_kb_path).read_text(encoding="utf-8") == bad


def test_train_duplicate_article_id_in_corpus(capsys, tmp_path, kb_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    (corpus / "copy.txt").write_text("@article 1 @outlet k\nAndi baik.", encoding="utf-8")
    code, out, err = run(capsys, "train", "--corpus", str(corpus), "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert str(corpus / "1.txt") in err
    assert str(corpus / "copy.txt") in err
    assert "already processed" not in err
    assert not Path(kb_path).exists()


HUGE = "9" * 5000  # longer than the integer literals json.loads converts


@pytest.mark.parametrize("command", ["report", "analyze", "train"])
@pytest.mark.parametrize("field", ["version", "cell-s"])
def test_integer_literal_too_long(capsys, trained_kb_path, command, field):
    text = Path(trained_kb_path).read_text(encoding="utf-8")
    if field == "version":
        bad = text.replace('"version": 1', f'"version": {HUGE}')
    else:
        bad = re.sub(r'"s": \d+', f'"s": {HUGE}', text, count=1)
    assert bad != text
    Path(trained_kb_path).write_text(bad, encoding="utf-8")
    argv = {
        "report": ["report"],
        "analyze": ["analyze", str(FIXTURES / "corpus" / "1.txt"), "--lexicon", LEXICON],
        "train": ["train", "--corpus", CORPUS, "--lexicon", LEXICON],
    }[command]
    code, out, err = run(capsys, *argv, "--kb", trained_kb_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: document: ")
    assert Path(trained_kb_path).read_text(encoding="utf-8") == bad


def run_subprocess(*argv, timeout=10, environ=(), **kwargs):
    """Run the command line in a new process; a command that hangs fails the test."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **dict(environ))
    script = "import sys; from polisent.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def test_train_with_a_fifo_in_the_corpus_exits_2(tmp_path, trained_kb_path):
    # A FIFO named *.txt in the corpus blocked train's open while it held the
    # KB's lock, so every later train of that KB failed until it was killed.
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    os.mkfifo(corpus / "x.txt")
    before = Path(trained_kb_path).read_bytes()
    proc = run_subprocess("train", "--corpus", corpus, "--lexicon", LEXICON,
                          "--kb", trained_kb_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {corpus / 'x.txt'}: not a regular file\n"
    assert Path(trained_kb_path).read_bytes() == before
    (corpus / "x.txt").unlink()
    assert run_subprocess("train", "--corpus", corpus, "--lexicon", LEXICON,
                          "--kb", trained_kb_path).returncode == 0


def test_output_that_stdout_cannot_encode_exits_1(tmp_path):
    # A target that an ASCII stdout cannot write ended in a UnicodeEncodeError
    # traceback, and train failed only after it had saved the KB, so a re-run
    # skipped the article and its score lines were lost.
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("[outlet] k\n[opinions]\nbaik +1\n[entities]\nände\nandi\n",
                       encoding="utf-8")
    corpus, later = tmp_path / "corpus", tmp_path / "later"
    corpus.mkdir()
    later.mkdir()
    (corpus / "1.txt").write_text("@article 1 @outlet k\nÄnde baik.\n", encoding="utf-8")
    (later / "2.txt").write_text("@article 2 @outlet k\nAndi baik.\n", encoding="utf-8")
    kb = tmp_path / "kb.json"
    train = ("train", "--lexicon", lexicon, "--kb", kb, "--corpus")

    def fails(*argv):
        proc = run_subprocess(*argv, environ={"PYTHONIOENCODING": "ascii"})
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: stdout: ")
        assert proc.stderr.endswith(errors[0] + "\n")

    fails(*train, corpus)
    assert not kb.exists()  # checked before the save
    proc = run_subprocess(*train, corpus, environ={"PYTHONIOENCODING": "utf-8"})
    assert (proc.returncode, proc.stdout) == (
        0, "1 ände 1 (positive)\ntendency ände 1 (positive)\n")
    saved = kb.read_bytes()
    fails("report", "--kb", kb)
    fails(*train, later)  # its score line is ASCII, but a tendency line names ände
    assert kb.read_bytes() == saved


@pytest.mark.parametrize("argv", [("kb", "export", "--outlet"), ("report", "--entity")],
                         ids=["kb-export", "report"])
def test_id_that_is_not_utf8_exits_2(trained_kb_path, argv):
    # An argument byte that is not UTF-8 reads as a lone surrogate. kb export read
    # the whole KB, printed a warning and a grid header, then exited 1.
    proc = run_subprocess(*argv, "\udcff", "--kb", trained_kb_path,
                          environ={"PYTHONIOENCODING": "utf-8"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"error: argument {argv[-1]}: must be valid UTF-8\n")


@pytest.mark.parametrize("argv", [
    ("report",), ("report", "--format", "json"), ("kb", "export"),
    ("analyze", CORPUS + "/1.txt", "--lexicon", LEXICON),
    ("train", "--corpus", CORPUS, "--lexicon", LEXICON),
], ids=["report", "report-json", "kb-export", "analyze", "train"])
def test_fifo_kb_exits_2(tmp_path, argv):
    # Opening a FIFO without a writer blocked every command that reads the KB.
    fifo = tmp_path / "kb.json"
    os.mkfifo(fifo)
    proc = run_subprocess(*argv, "--kb", fifo)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: document: {fifo}: not a regular file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.json"]  # no lock file


@pytest.mark.parametrize("argv", [
    ("report",), ("kb", "export"),
    ("analyze", CORPUS + "/1.txt", "--lexicon", LEXICON),
    ("train", "--corpus", CORPUS, "--lexicon", LEXICON),
], ids=["report", "kb-export", "analyze", "train"])
def test_socket_kb_gives_one_message(capsys, monkeypatch, tmp_path, argv):
    # A socket cannot be opened, so every command reports the OS error; train
    # printed a message of its own. A relative name keeps the socket path short.
    monkeypatch.chdir(tmp_path)
    with socket.socket(socket.AF_UNIX) as server:
        server.bind("kb.json")
        code, out, err = run(capsys, *argv, "--kb", "kb.json")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.ENXIO}] {os.strerror(errno.ENXIO)}: 'kb.json'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]  # no lock file


def test_fifo_article_exits_2(tmp_path, trained_kb_path):
    fifo = tmp_path / "x.txt"
    os.mkfifo(fifo)
    proc = run_subprocess("analyze", fifo, "--lexicon", LEXICON, "--kb", trained_kb_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {fifo}: not a regular file\n"


def test_device_in_the_corpus_is_not_read(capsys, tmp_path, kb_path):
    # A corpus entry linked to a device such as /dev/zero was read until memory
    # ran out; /dev/null stands in for it here.
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    (corpus / "x.txt").symlink_to(os.devnull)
    code, out, err = run(capsys, "train", "--corpus", corpus, "--lexicon", LEXICON,
                         "--kb", kb_path)
    assert (code, out) == (2, "")
    assert err == f"error: {corpus / 'x.txt'}: not a regular file\n"
    assert not Path(kb_path).exists()


def test_lexicon_may_be_a_pipe_but_not_a_device(capsys, tmp_path):
    # `--lexicon <(cat lexicon.txt)` names a pipe with a writer: it is read to its end.
    with open(LEXICON, "rb") as lexicon:
        proc = run_subprocess("lexicon", "validate", "/dev/stdin", stdin=lexicon)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, "lexicon", "validate", LEXICON)[1]
    # Read to its end past the first read too: the declarations follow 200 KB of comments.
    padded = "# padding\n" * 20000 + Path(LEXICON).read_text(encoding="utf-8")
    assert run_subprocess("lexicon", "validate", "/dev/stdin", input=padded).stdout == proc.stdout
    # A FIFO without a writer reads as empty, which is no lexicon.
    fifo = tmp_path / "lexicon.txt"
    os.mkfifo(fifo)
    proc = run_subprocess("lexicon", "validate", fifo)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: missing [outlet] declaration\n"
    code, out, err = run(capsys, "lexicon", "validate", os.devnull)
    assert (code, out, err) == (2, "", f"error: {os.devnull}: not a regular file\n")
