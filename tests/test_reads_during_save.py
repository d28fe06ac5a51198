"""Readers during a save: `report` and `kb export` see a whole KB while `train` saves it.

`train` saves by temp file and rename, and the readers take no lock, so
each read must give the output of one whole KB state, never a torn one.
"""

import json
import os
import shutil
import subprocess
import sys
import time

from conftest import FIXTURES, REPO
from support import run_cli as run

LEXICON = str(FIXTURES / "lexicon.txt")
OPINIONS = ["jujur", "buruk", "baik", "gagal", "hebat"]
READS = {"report": ("report",), "export": ("kb", "export", "--outlet", "k")}

# Train each batch directory given after the log, lexicon and KB paths into
# the KB, one after the other.  Each sync of a save, the temp file's before
# the rename and the directory's after it, waits until the readers have
# finished three more reads, so with two readers at least one read both
# begins and ends inside it.  The log gets every exit status and every
# save's (start, end) on the monotonic clock, which is system-wide on Linux.
WRITER = """\
import json, os, sys, time
from polisent import cli, kb

log, counter, lexicon, path, *batches = sys.argv[1:]
fsync, save, saves = os.fsync, kb._save, []

def slow_fsync(fd):
    target, deadline = os.path.getsize(counter) + 3, time.monotonic() + 2
    while os.path.getsize(counter) < target and time.monotonic() < deadline:
        time.sleep(0.001)
    fsync(fd)

def timed_save(*args):
    start = time.monotonic()
    try:
        save(*args)
    finally:
        saves.append((start, time.monotonic()))

os.fsync, kb._save = slow_fsync, timed_save
codes = [cli.main(["train", "--corpus", batch, "--lexicon", lexicon, "--kb", path])
         for batch in batches]
with open(log, "w", encoding="utf-8") as handle:
    json.dump({"codes": codes, "saves": saves}, handle)
"""

# Run one command line in a loop until the stop file exists, then once more,
# appending a byte to the counter after each read.  The log gets each
# distinct (exit status, stdout, stderr) and each read's (start, end, index
# of that result).
READER = """\
import io, json, os, sys, time
from polisent import cli

log, counter, stop, *argv = sys.argv[1:]
results, reads = {}, []
fd = os.open(counter, os.O_WRONLY | os.O_APPEND)
while True:
    last = os.path.exists(stop)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    start = time.monotonic()
    code = cli.main(argv)
    end = time.monotonic()
    result = (code, sys.stdout.getvalue(), sys.stderr.getvalue())
    reads.append((start, end, results.setdefault(result, len(results))))
    os.write(fd, b".")
    if last:
        break
os.close(fd)
with open(log, "w", encoding="utf-8") as handle:
    json.dump({"results": list(results), "reads": reads}, handle)
"""


def python(script, *argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, argv)], env=env,
                            **kwargs)


def test_reads_during_saves_see_whole_kb_states(capsys, tmp_path):
    kb = tmp_path / "kb.json"
    assert run(capsys, "train", "--corpus", FIXTURES / "corpus", "--lexicon", LEXICON,
               "--kb", kb)[0] == 0
    batches = []
    for i, opinion in enumerate(OPINIONS, start=10):
        batch = tmp_path / f"batch{i}"
        batch.mkdir()
        (batch / f"{i}.txt").write_text(f"@article {i} @outlet k\nAhmad menyatakan Andi "
                                        f"{opinion}.\n", encoding="utf-8")
        batches.append(batch)

    # The stdout of each command over each of the 6 KB states, by sequential runs on a copy.
    copy = tmp_path / "sequential" / "kb.json"
    copy.parent.mkdir()
    shutil.copy(kb, copy)
    states = {name: {} for name in READS}
    for state, batch in enumerate([*batches, None]):
        for name, argv in READS.items():
            code, out, err = run(capsys, *argv, "--kb", copy)
            assert (code, err) == (0, "")
            states[name][out] = state
        if batch:
            assert run(capsys, "train", "--corpus", batch, "--lexicon", LEXICON,
                       "--kb", copy)[0] == 0
    assert all(len(outputs) == 6 for outputs in states.values())

    counter, stop = tmp_path / "reads", tmp_path / "stop"
    counter.touch()
    logs = {name: tmp_path / f"{name}.log" for name in [*READS, "writer"]}
    procs = []
    try:
        for name, argv in READS.items():
            procs.append(python(READER, logs[name], counter, stop, *argv, "--kb", kb))
        deadline = time.monotonic() + 5
        while counter.stat().st_size < len(READS):  # the readers have started reading
            assert time.monotonic() < deadline
            time.sleep(0.005)
        writer = python(WRITER, logs["writer"], counter, LEXICON, kb, *batches,
                        stdout=subprocess.DEVNULL)
        procs.append(writer)
        assert writer.wait(timeout=30) == 0
        stop.touch()
        assert [proc.wait(timeout=10) for proc in procs] == [0, 0, 0]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()

    written = json.loads(logs["writer"].read_text(encoding="utf-8"))
    assert written["codes"] == [0] * len(batches)
    assert kb.read_bytes() == copy.read_bytes()
    overlapped = 0
    for name in READS:
        read = json.loads(logs[name].read_text(encoding="utf-8"))
        seen = []
        for code, out, err in read["results"]:
            assert (code, err) == (0, "")
            assert out in states[name], f"{name} read a KB that no state gives"
            seen.append(states[name][out])
        order = [seen[index] for _, _, index in read["reads"]]
        assert order == sorted(order), f"{name} read an older state after a newer one"
        assert order[-1] == len(batches)
        overlapped += sum(start < save_end and save_start < end
                          for start, end, _ in read["reads"]
                          for save_start, save_end in written["saves"])
    assert overlapped > 0, "no read overlapped a save"
