"""A seeded fuzz of the command line: ``cli.main`` in-process over the grammar
of its flags, with warnings raised as errors.

Each case draws a subcommand and, where it takes one, an operator with its
own parameter names: a catalog entry, eight X-type values, a Hietarinta
family or a 4x4 matrix, or an enhancement recipe for ``linkpoly``.  Numbers
are mostly ordinary, plus 0, 1e+-150, 1e308, nan, inf and malformed
literals; words take exponents 0, -5 and 99999 among the usual ones.  Every
invocation must return an exit code in {0, 1, 2, 3} with no exception
escaping, and an exit of 2 or 3 must print exactly one line on stderr, an
``error:`` line.  Every value is passed as ``--flag=value``, so a value that
starts with '-' reaches the command rather than argparse's option parser.
"""

import json
import random
import warnings

from braidgate.cli import main
from braidgate.enhancement import RECIPES
from braidgate.hietarinta import HIETARINTA_FORMS
from braidgate.yang_baxter import CATALOG

SEED = 0
CASES = 1000

# argv that each gave a traceback or a wrong refusal before it was mended
FIXED = [
    ["linkpoly", "--recipe=C3.mu3", "--params=h1=1,h7=1,h8=1", "--word=s1^-5"],
    ["linkpoly", "--recipe=C3.mu2", "--params=h1=1,h7=1,h8=1", "--word=s1^-5"],
    ["linkpoly", "--recipe=C10.mu2", "--params=h1=1e-150,h7=1e-150", "--word=s2^3 s1"],
    ["enhance", "--class=C10.1", "--params=h1=[1e308,1e308],h2=1e-8"],
    ["enhance", "--class=C9.2", "--params=h1=[1e308,1e308],h7=1e-8"],
    ["enhance", "--class=C10.1", "--params=h1=1e160,h2=1e160"],
]

# relative weights: report-all writes the whole catalog report, about ten
# ordinary commands' time, and a solve costs several
SUBCOMMANDS = {"catalog": 2, "verify": 4, "invariants": 3, "linkpoly": 6, "enhance": 2,
               "epower": 3, "classify": 2, "orbit": 3, "report-all": 0.2}

EDGE = ("0", "1e150", "1e-150", "-1e150", "1e308", "-1e308", "nan", "inf", "-inf")
MALFORMED = ("1e", "abc", "1+", "[1,", "[1,2,3]", "1]", "[", "", "1i1")
JSON_EDGE = ("0", "1e150", "1e-150", "1e308", "-1e308", "NaN", "Infinity", "[1e308,1e308]")
JSON_MALFORMED = ("1e", "true", '"1"', "[1]", "[1,")
EXPONENTS = (1, -1, 2, -2, 3, 0, -5, 99999)
TOLERANCES = ("1e-9", "1e-3", "1e-300", "0", "1", "-1", "nan", "inf")


def _ordinary(rng):
    re, im = round(rng.gauss(0, 2), 3), round(rng.gauss(0, 2), 3)
    return rng.choice((repr(re), f"{re}{im:+}i", f"[{re},{im}]"))


# ``odd`` is the chance that a number is an edge value or, a quarter of the
# time, a malformed one; each case draws it, so that many cases are all clean
def _number(rng, odd):
    u = rng.random()
    if u >= odd:
        return _ordinary(rng)
    return rng.choice(EDGE if u < 0.75 * odd else MALFORMED)


def _json_number(rng, odd):
    u = rng.random()
    if u >= odd:
        return rng.choice((repr(round(rng.gauss(0, 2), 3)),
                           f"[{round(rng.gauss(0, 2), 3)},{round(rng.gauss(0, 2), 3)}]"))
    return rng.choice(JSON_EDGE if u < 0.75 * odd else JSON_MALFORMED)


def _params(rng, names, odd):
    names = list(names)
    if names and rng.random() < 0.05:
        names.pop(rng.randrange(len(names)))
    if rng.random() < 0.05:
        names.append("typo")
    return "--params=" + ",".join(f"{n}={_number(rng, odd)}" for n in names)


def _operator(rng, odd):
    kind = rng.choice(("class", "xtype", "hietarinta", "matrix"))
    if kind == "class":
        eid = rng.choice(sorted(CATALOG))
        return [f"--class={eid}", _params(rng, CATALOG[eid].free_params, odd)]
    if kind == "xtype":
        return ["--xtype=" + ",".join(_number(rng, odd) for _ in range(8))]
    if kind == "hietarinta":
        name = rng.choice(sorted(HIETARINTA_FORMS))
        return [f"--hietarinta={name}", _params(rng, HIETARINTA_FORMS[name][0], odd)]
    # half of the matrices keep the X pattern, so X-type checks run too
    xtype = rng.random() < 0.5
    rows = [[_json_number(rng, odd) if not xtype or i in (j, 3 - j) else "0" for j in range(4)]
            for i in range(4)]
    return ["--matrix=[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"]


def _word(rng, strands):
    tokens = []
    for _ in range(rng.randrange(7)):
        if rng.random() < 0.05:
            tokens.append(rng.choice(("s0", "x1", "s1^", "s1^^2", "s-1", "s1^+")))
        else:
            tokens.append(f"s{rng.randrange(1, strands)}^{rng.choice(EXPONENTS)}")
    return " ".join(tokens)


def _draw(rng, outdir):
    command = rng.choices(list(SUBCOMMANDS), weights=list(SUBCOMMANDS.values()))[0]
    odd = rng.choice((0.0, 0.1, 0.4))
    argv = [command]
    if command == "catalog":
        if rng.random() < 0.5:
            argv.append("--class=" + rng.choice(("1", "12", "13", "x", " 3", "0")))
        if rng.random() < 0.2:
            argv.append("--hietarinta")
    elif command == "linkpoly":
        rid = rng.choice(sorted(RECIPES))
        strands = rng.choice((2, 3, 5, 6, 7, 9, 20))
        argv += [f"--recipe={rid}", _params(rng, RECIPES[rid].free_params, odd),
                 f"--word={_word(rng, strands)}"]
        if rng.random() < 0.5:
            argv.append(f"--strands={rng.choice((1, strands, strands + 1, 100000))}")
    elif command == "classify":
        eid = rng.choice(sorted(CATALOG) + ["C99.0", "H1,3"])
        argv.append(f"--class={eid}")
        if eid in CATALOG and rng.random() < 0.5:
            argv.append(_params(rng, CATALOG[eid].free_params, odd))
    elif command == "report-all":
        argv += [f"--outdir={outdir}", f"--seed={rng.randrange(100)}"]
    else:
        argv += _operator(rng, odd)
        if command == "verify" and rng.random() < 0.3:
            argv.append("--enhancements")
    if command != "report-all":
        argv += rng.choice(([], ["--json"], ["--csv"]))
    if command not in ("catalog", "classify") and rng.random() < 0.1:
        argv.append("--tol=" + rng.choice(TOLERANCES))
    return argv


def test_no_input_escapes_the_exit_codes(capsys, tmp_path):
    rng = random.Random(SEED)
    cases = FIXED + [_draw(rng, tmp_path) for _ in range(CASES)]
    findings = []
    for argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # any escape is a finding
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3):
            findings.append((argv, code))
        elif code in (2, 3) and not (err.startswith("error: ") and err.count("\n") == 1):
            findings.append((argv, code, err))
    assert not findings, json.dumps(findings[:5], indent=1, default=str)
