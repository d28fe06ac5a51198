"""One cold start of polisent, timed in a fresh process.

Usage::

    python3 bench/cold.py <spec.json>

The spec names polisent's ``src`` directory, a KB file to remove first,
and a list of commands with their expected stdout (and, after ``train``,
the expected KB file).  The clock runs from just before ``import
polisent`` to the end of the last command, so it covers the import and
every first-call cost, but not the interpreter's own start.  Outputs are
checked after the clock stops.  The last line of stdout is one JSON
object with ``seconds``, ``attempted``, ``failed`` and ``problems``.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def import_cli(src: Path):
    """polisent's CLI module from ``src``, never another copy."""
    if not (src / "polisent" / "cli.py").is_file():
        sys.exit(f"error: {src / 'polisent'} not found; run from a polisent checkout")
    sys.path.insert(0, str(src))
    from polisent import cli
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported polisent from {cli.__file__}, not from {src}")
    return cli


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    Path(spec["reset"]).unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    cli = import_cli(Path(spec["src"]))
    for command in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(command["argv"])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        kb_text = None
        if command["kb"] is not None:
            kb_text = Path(command["kb"]).read_text(encoding="utf-8")
        results.append((status, out.getvalue(), err.getvalue(), kb_text))
    seconds = time.perf_counter() - start

    problems = []
    for command, (status, text, err, kb_text) in zip(spec["commands"], results):
        if status != 0:
            problem = f"exit {status}: {err.strip()[:200]}"
        elif text != command["stdout"]:
            problem = "stdout differs from the oracle"
        elif kb_text != command["kb_text"]:
            problem = "KB file differs from the oracle"
        else:
            continue
        problems.append(f"cold {' '.join(command['argv'][:2])}: {problem}")
    print(json.dumps({"seconds": seconds, "attempted": len(results),
                      "failed": len(problems), "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
