"""The observable output of every README command line, pinned.

Each README ``braidgate`` line is rerun in-process and compared with its
transcript in ``tests/golden/``, and the ``catalog_report.json`` that
``report-all --seed 0`` writes with the golden one.  Keys, strings,
integers, verdicts and exit codes must match exactly.  Floats must match to
1e-12 relative, |a - b| <= 1e-12 max(|a|, |b|), so that a BLAS with other
last-bit rounding passes while a change of route that moves twelve digits
fails.  Two values that are both rounding noise, at most 1e-12 of the
largest number in the golden output (a residual of 1e-16 beside entries of
order 1, say), match whatever their digits.  JSON output is compared as
parsed JSON; text output token by token, its numbers as above and
everything between them exactly.

A change that moves output regenerates the files (see ``transcripts.py``)
and lists every changed line in ``CHANGES.md``.
"""

import json
import math
import re

import pytest

from transcripts import GOLDEN, REPORT, parse_transcript, readme_lines, run_line, transcript_name

RTOL = 1e-12
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def _close(a: float, b: float, noise: float) -> bool:
    top = max(abs(a), abs(b))
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= RTOL * top or top <= noise


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if type(value) in (int, float) else []


def _noise(numbers) -> float:
    return RTOL * max((abs(x) for x in numbers if math.isfinite(x)), default=0.0)


def _same_json(got, want, noise=None, path="$"):
    """Assert that two parsed JSON values match as the module docstring says."""
    noise = _noise(_numbers(want)) if noise is None else noise
    if isinstance(want, float) or isinstance(got, float):
        assert type(got) in (int, float) and type(want) in (int, float), path
        assert _close(got, want, noise), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            _same_json(got[k], want[k], noise, f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, noise, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def _same_text(got: str, want: str):
    """Assert that two text outputs match as the module docstring says."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    noise = _noise(float(x) for x in _NUMBER.findall(want))
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        assert _NUMBER.split(g) == _NUMBER.split(w), f"line {n}: {g!r} != {w!r}"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            ints = _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b)
            assert a == b if ints else _close(float(a), float(b), noise), f"line {n}: {g!r} != {w!r}"


def _same_output(got: str, want: str):
    try:
        parsed = json.loads(want)
    except json.JSONDecodeError:
        _same_text(got, want)
    else:
        _same_json(json.loads(got), parsed)


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """(line, exit code, stdout) of every README line, rerun in one directory."""
    cwd = tmp_path_factory.mktemp("readme")
    return cwd, [(line, *run_line(line, cwd)) for line in readme_lines()]


def test_every_readme_line_has_its_transcript(reruns):
    _, runs = reruns
    names = sorted(p.name for p in GOLDEN.glob("readme_*.txt"))
    assert names == sorted(transcript_name(i, line) for i, (line, _, _) in enumerate(runs))


@pytest.mark.parametrize("index", range(len(readme_lines())))
def test_readme_line_matches_transcript(reruns, index):
    line, code, stdout = reruns[1][index]
    want_line, want_code, want_stdout = parse_transcript(
        (GOLDEN / transcript_name(index, line)).read_text())
    assert (line, code) == (want_line, want_code)
    _same_output(stdout, want_stdout)


def test_catalog_report_matches(reruns):
    cwd, _ = reruns
    got = json.loads((cwd / REPORT).read_text())
    _same_json(got, json.loads((GOLDEN / REPORT.name).read_text()))


def test_comparison_is_exact_but_for_float_rounding():
    _same_json({"a": [1.0, "x", True, 3, 2e-16]}, {"a": [1.0 + 1e-15, "x", True, 3, 0.0]})
    _same_text("residual: 0.30000000000000004 at C1.0", "residual: 0.3 at C1.0")
    for got, want in (({"a": 1.0}, {"a": 1.0 + 1e-9}), ({"a": 2}, {"a": 3}),
                      ({"a": [1.0, 1e-11]}, {"a": [1.0, 0.0]}),
                      ({"a": True}, {"a": False}), ({"a": 1}, {"b": 1}), ([1], [1, 1])):
        with pytest.raises(AssertionError):
            _same_json(got, want)
    for got, want in (("pass: True", "pass: False"), ("count: 5", "count: 6"),
                      ("x: 1.5", "x: 1.5000001"), ("C1.0", "C1.1"), ("a", "a\nb")):
        with pytest.raises(AssertionError):
            _same_text(got, want)
