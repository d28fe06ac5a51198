import json
import os
import re
import shutil
import stat
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES
from polisent.cli import _fmt_score
from support import run_cli as run

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


def test_train_mismatched_lexicon(capsys, tmp_path, trained_kb_path):
    other = tmp_path / "other.txt"
    other.write_text("[outlet] k\n[opinions]\nbaik +1\n", encoding="utf-8")
    extra = tmp_path / "extra"
    extra.mkdir()
    (extra / "3.txt").write_text("@article 3 @outlet k\nIsi baik.", encoding="utf-8")
    code, _, err = run(capsys, "train", "--corpus", str(extra), "--lexicon", str(other),
                       "--kb", trained_kb_path)
    assert code == 2
    assert "different lexicon" in err


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


@pytest.mark.parametrize("score, text", [
    (Fraction(-1, 4), "-0.25"), (Fraction(-1), "-1"), (Fraction(-1, 30000), "0"),
])
def test_fmt_score(score, text):
    assert _fmt_score(score) == text


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
    # train in a process with the same pid must still save, and removes
    # it.  The temp files of another KB whose name starts the same stay.
    kb_path = tmp_path / "kb.json"
    stale = tmp_path / f".kb.json.{os.getpid()}.tmp"
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


def test_train_fails_while_another_train_holds_the_lock(capsys, tmp_path, trained_kb_path,
                                                        new_article_corpus):
    # Two trains of one KB would each save their own batch, and the later
    # rename would drop the earlier one's: the second fails before it loads.
    fcntl = pytest.importorskip("fcntl")
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
