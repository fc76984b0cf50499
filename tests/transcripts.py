"""Golden transcripts of the README's ``braidgate`` command lines.

``tests/golden/`` holds one stdout transcript per ``braidgate`` line of the
README's CLI block, headed by the line and its exit code, and the
``catalog_report.json`` that the README's ``report-all --seed 0`` line
writes.  ``tests/test_golden.py`` reruns every line in-process and compares.

A change that moves observable output regenerates the files with

    PYTHONPATH=src python tests/transcripts.py

and lists every changed line in ``CHANGES.md``.
"""

import contextlib
import io
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from braidgate import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT = Path("reports") / "catalog_report.json"  # where the README's report-all line writes


def readme_lines() -> list[str]:
    """The ``braidgate`` lines of the README's CLI block, in order."""
    text = (ROOT / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "\nbraidgate " in b)
    return [line for line in block.splitlines() if line.startswith("braidgate ")]


def transcript_name(index: int, line: str) -> str:
    return f"readme_{index:02d}_{shlex.split(line)[1]}.txt"


def run_line(line: str, cwd) -> tuple[int, str]:
    """Exit code and stdout of one README line, run in-process in ``cwd``;
    the stderr timer is not part of it."""
    argv = shlex.split(line, comments=True)[1:]
    out, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


def transcript(line: str, code: int, stdout: str) -> str:
    return f"$ {line}\n# exit {code}\n{stdout}"


def parse_transcript(text: str) -> tuple[str, int, str]:
    """(line, exit code, stdout) of one transcript file."""
    head, exit_line, stdout = text.split("\n", 2)
    return head.removeprefix("$ "), int(exit_line.removeprefix("# exit ")), stdout


def regenerate() -> None:
    for old in GOLDEN.glob("readme_*.txt"):
        old.unlink()
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for i, line in enumerate(readme_lines()):
            code, stdout = run_line(line, tmp)
            (GOLDEN / transcript_name(i, line)).write_text(transcript(line, code, stdout))
        shutil.copyfile(Path(tmp) / REPORT, GOLDEN / REPORT.name)
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
