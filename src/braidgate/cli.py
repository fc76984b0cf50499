"""Command-line front end.

Subcommands: catalog, verify, invariants, linkpoly, enhance, epower,
classify, orbit, report-all.  Operators are specified by catalog id plus
parameters, raw X-type parameters, a Hietarinta family, or an explicit
matrix.  Complex values are accepted as "a+bi" or "[re,im]" and always
printed as [re, im] pairs.  The exit codes are listed in EXIT_CODES.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import enhancement, entangling_power, hietarinta, invariants, yang_baxter
from .enhancement import InvalidEnhancementError
from .matrix_core import DEFAULT_TOL, XTYPE_SUPPORT, SingularMatrixError, is_xtype, max_norm
from .yang_baxter import BraidWord, CATALOG, InadmissibleParamsError, assemble

CHECK_FAILED = 1
USAGE_ERROR = 2
DOMAIN_ERROR = 3
EXIT_CODES = "exit codes: 0 pass, 1 check failed, 2 usage error, 3 singular or inadmissible input"


class UsageError(Exception):
    pass


def default_tol() -> float:
    """The tolerance without --tol: BRAIDGATE_TOL if set and non-empty, else
    DEFAULT_TOL.  The package reads the environment nowhere else."""
    env = os.environ.get("BRAIDGATE_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError:
        raise ValueError(f"BRAIDGATE_TOL must be a number, got {env!r}") from None


def _json_complex(v) -> complex:
    """A parsed JSON number or [re, im] pair of numbers as a complex value."""
    pair = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in pair):
        raise UsageError(f"expected a number or a [re, im] pair, got {json.dumps(v)}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise UsageError(f"{json.dumps(v)} is out of range") from None


def _json_literal(text: str, what: str):
    """``text`` parsed as JSON; a UsageError naming ``what`` and the text
    when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {text!r} is not valid JSON: {exc}") from None


def _parse_complex(text: str) -> complex:
    """Accept 'a+bi', plain reals, or '[re,im]'."""
    text = text.strip()
    if text.startswith("["):
        return _json_complex(_json_literal(text, "complex literal"))
    if text.endswith("i"):  # the imaginary unit ends the literal; "inf" keeps its i
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise UsageError(f"bad complex literal {text!r}") from None


def _split_commas(text: str) -> list[str]:
    """Split on commas that are not inside brackets; a ']' with no '[' open
    before it, or a '[' never closed, is a UsageError naming that text."""
    parts, depth, cur = [], 0, []
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
            if depth == 1:
                opened = i
        elif ch == "]":
            if depth == 0:
                raise UsageError(f"unbalanced ']' in {''.join(cur) + ch!r}")
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError(f"complex literal {text[opened:]!r} is not valid JSON: "
                         "its '[' is never closed")
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_params(text: str | None) -> dict[str, complex]:
    if not text:
        return {}
    out = {}
    for chunk in _split_commas(text):
        if "=" not in chunk:
            raise UsageError(f"expected name=value, got {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = _parse_complex(value)
    return out


def _jsonable(obj):
    """The report with complex values as [re, im] pairs and numpy values as
    Python ones; the only converter, so handlers report values as computed."""
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def resolve_operator(args) -> tuple[np.ndarray, dict]:
    """Turn the operator flags into a matrix plus an echo of the inputs."""
    given = [name for name in ("cls", "xtype", "hietarinta", "matrix")
             if getattr(args, name, None)]
    if len(given) != 1:
        raise UsageError("specify exactly one of --class, --xtype, --hietarinta, --matrix")
    if given[0] in ("xtype", "matrix") and getattr(args, "params", None) is not None:
        raise UsageError(f"--params applies to --class and --hietarinta, not --{given[0]}")
    params = _parse_params(getattr(args, "params", None))
    if args.cls:
        entry = yang_baxter.catalog_entry(args.cls)
        return assemble(entry.fill(params)), {"class": args.cls, "params": params}
    if args.xtype:
        values = [_parse_complex(v) for v in _split_commas(args.xtype)]
        if len(values) != 8:
            raise UsageError("--xtype needs eight comma-separated complex values")
        return assemble(values), {"xtype": values}
    if args.hietarinta:
        m = hietarinta.hietarinta_assemble(args.hietarinta, params)
        return m, {"hietarinta": args.hietarinta, "params": params}
    rows = _json_literal(args.matrix, "--matrix")
    if not (isinstance(rows, list) and len(rows) == 4
            and all(isinstance(row, list) and len(row) == 4 for row in rows)):
        raise UsageError("--matrix must be a 4x4 array")
    m = np.array([[_json_complex(v) for v in row] for row in rows])
    return m, {"matrix": m}


def _emit(args, report: dict, failed: bool) -> int:
    report = _jsonable(report)
    if args.csv:
        _emit_csv(report)
    elif args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_text(report)
    return CHECK_FAILED if failed else 0


def _emit_text(report, indent=0):
    """Print a dict or a list, one leaf per line."""
    pad = "  " * indent
    if isinstance(report, dict):
        for k, v in report.items():
            if isinstance(v, (dict, list)) and not _is_cnum(v):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt_leaf(v)}")
        return
    for v in report:
        if isinstance(v, (dict, list)) and not _is_cnum(v):
            _emit_text(v, indent)
            print()
        else:
            print(f"{pad}- {_fmt_leaf(v)}")


def _is_cnum(v):
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(t, (int, float)) for t in v))


def _fmt_leaf(v):
    if _is_cnum(v):
        return f"[{v[0]:.17g}, {v[1]:.17g}]"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = report.get("rows") if isinstance(report, dict) else None
    if rows:
        keys = sorted({k for row in rows for k in row})
        writer.writerow(keys)
        for row in rows:
            writer.writerow([json.dumps(row.get(k)) for k in keys])
    else:
        writer.writerow(["key", "value"])
        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}.{k}" if prefix else k, v)
            else:
                writer.writerow([prefix, json.dumps(obj)])
        walk("", report)
    sys.stdout.write(buf.getvalue())


def _base_report(args, command: str) -> dict:
    rep = {"command": command}
    if "tol" in vars(args):
        rep["tolerance"] = args.tol
    return rep


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    rows = []
    if args.hietarinta_list:
        for name, (pars, _) in hietarinta.HIETARINTA_FORMS.items():
            rows.append({"id": name, "params": list(pars)})
    else:
        classes = sorted({entry.class_id for entry in CATALOG.values()})
        if args.cls and not (args.cls.strip().isdigit() and int(args.cls) in classes):
            raise UsageError(f"unknown class {args.cls!r}; known: "
                             f"{classes[0]}..{classes[-1]}")
        for eid, entry in CATALOG.items():
            if args.cls and entry.class_id != int(args.cls):
                continue
            rows.append({
                "id": eid,
                "free_params": list(entry.free_params),
                "constraints": dict(entry.constraints),
                "eigenvalues": entry.eigen_pattern,
                "enhancements": list(
                    CATALOG[f"C{entry.class_id}.0"].enhancement_refs
                ),
            })
    report = _base_report(args, "catalog")
    report["count"] = len(rows)
    if not args.hietarinta_list and not args.cls:
        report["classes"] = len(classes)
    report["rows"] = rows
    return _emit(args, report, failed=False)


def cmd_verify(args) -> int:
    r, echo = resolve_operator(args)
    report = _base_report(args, "verify")
    report["operator"] = echo
    checks = {}
    residual, ok = yang_baxter.check_ybe(r, args.tol)
    checks["ybe"] = {"residual": residual, "scale": yang_baxter.ybe_scale(r), "pass": ok}
    inv = invariants.quadratic_invariants(r)
    ids = invariants.check_identities(inv)
    scale = invariants.identity_scale(r)
    checks["invariant_identities"] = {"residuals": list(ids), "scale": scale,
                                      "pass": all(v <= args.tol * scale for v in ids)}
    if args.enhancements:
        if not args.cls:
            raise UsageError("--enhancements requires --class")
        entry = CATALOG[args.cls]
        if entry.variant_id != 0:
            raise UsageError(f"--enhancements takes a class representative, "
                             f"C{entry.class_id}.0, not the variant {args.cls}")
        # a recipe pins class parameters (C1.I sets h8 = h1), so it enhances
        # the operator named only where its R is that operator; a recipe that
        # instantiates has passed (a)-(c) at args.tol
        bound = args.tol * max_norm(r)
        recipes = {}
        for rid in entry.enhancement_refs:
            sub = {k: echo["params"][k] for k in enhancement.RECIPES[rid].free_params}
            try:
                e = enhancement.instantiate_recipe(rid, sub, args.tol)
            except InvalidEnhancementError as exc:
                recipes[rid] = {"error": str(exc), "pass": False}
                continue
            if max_norm(e.R - r) > bound:
                recipes[rid] = {"applies": False}
                continue
            recipes[rid] = {"residuals": list(e.residuals), "scales": list(e.scales), "pass": True}
        checks["enhancements"] = recipes
    report["checks"] = checks
    failed = not (checks["ybe"]["pass"] and checks["invariant_identities"]["pass"]
                  and all(v.get("pass", True) for v in checks.get("enhancements", {}).values()))
    return _emit(args, report, failed)


def cmd_invariants(args) -> int:
    r, echo = resolve_operator(args)
    inv = invariants.quadratic_invariants(r)
    report = _base_report(args, "invariants")
    report["operator"] = echo
    report["invariants"] = inv.to_json()
    ids = invariants.check_identities(inv)
    scale = invariants.identity_scale(r)
    report["identity_residuals"] = list(ids)
    report["identity_scale"] = scale
    if is_xtype(r, args.tol):
        report["xtype_closed_forms"] = invariants.xtype_closed_forms(r[XTYPE_SUPPORT])
    failed = not all(v <= args.tol * scale for v in ids)
    return _emit(args, report, failed)


def cmd_linkpoly(args) -> int:
    if args.recipe not in enhancement.RECIPES:
        raise UsageError(f"unknown recipe {args.recipe!r}; see `catalog`")
    e = enhancement.instantiate_recipe(args.recipe, _parse_params(args.params), args.tol)
    word = BraidWord.parse(args.word, strands=args.strands)
    value = enhancement.link_polynomial(e, word, args.tol)
    report = _base_report(args, "linkpoly")
    report.update({
        "recipe": args.recipe,
        "word": str(word),
        "strands": word.strands,
        "writhe": word.writhe(),
        "value": value,
    })
    return _emit(args, report, failed=False)


def cmd_enhance(args) -> int:
    r, echo = resolve_operator(args)
    solutions, points = enhancement._solve(r, args.tol)
    report = _base_report(args, "enhance")
    report["operator"] = echo
    # families and points come in the solver's canonical order
    report["families"] = [{"mu": s.mu_coeffs(), "x": s.x, "y": s.y} for s in solutions]
    report["count"] = len(solutions)
    report["nullity"] = sum(p["multiplicity"] for p in points)
    report["points"] = points
    return _emit(args, report, failed=False)


def cmd_epower(args) -> int:
    r, echo = resolve_operator(args)
    report = _base_report(args, "epower")
    report["operator"] = echo
    value = entangling_power.entangling_power(r)
    report["entangling_power"] = value
    failed = False
    if is_xtype(r, args.tol):
        closed = entangling_power.entangling_power_closed(r, args.tol)
        report["closed"] = closed
        report["difference"] = abs(closed - value)
        report["scale"] = entangling_power.epower_scale(r)
        failed = not report["difference"] <= args.tol * report["scale"]  # NaN fails
    return _emit(args, report, failed)


def cmd_classify(args) -> int:
    if not args.cls:
        raise UsageError("classify needs --class")
    report = _base_report(args, "classify")
    report.update(hietarinta.classify(args.cls))  # an unknown id is a usage error
    if args.params:  # every catalog entry is a recipe's source or target
        recipe = next(r_ for r_ in hietarinta.RECIPE_TABLE if args.cls in (r_.source, r_.target))
        got, want = recipe.run(_parse_params(args.params))
        residual, scale = max_norm(got - want), max_norm(want)
        report.update(recipe_residual=residual, recipe_scale=scale,
                      recipe_pass=residual <= DEFAULT_TOL * scale)
    return _emit(args, report, failed=not report.get("recipe_pass", True))


def cmd_orbit(args) -> int:
    r, echo = resolve_operator(args)
    if not is_xtype(r, args.tol):
        raise UsageError("orbit analysis addresses X-type operators")
    rank, gen_report = yang_baxter.lie_orbit_rank(r)
    report = _base_report(args, "orbit")
    report["operator"] = echo
    report["rank"] = rank
    report["generators"] = gen_report
    return _emit(args, report, failed=False)


def cmd_report_all(args) -> int:
    """Regenerate the battery of per-class golden reports into a directory."""
    rng = np.random.default_rng(args.seed)
    battery = {}
    failed = False
    for eid, entry in CATALOG.items():
        params = entry.random_params(rng)
        h = entry.fill(params)
        r = assemble(h)
        residual, ok = yang_baxter.check_ybe(r, args.tol)
        eig = invariants.class_eigen_report(entry, params, args.tol)
        item = {
            "params": params,
            "ybe_residual": residual,
            "ybe_pass": ok,
            "eigen_report_pass": eig.passed,
            "invariants": invariants.quadratic_invariants(r).to_json(),
        }
        if entry.variant_id == 0:
            ep = entangling_power.class_epower(entry, params, args.tol)
            item["epower"] = {"formula": ep["formula"], "closed": ep["closed"],
                              "difference": ep["difference"]}
            failed |= not ep["passed"]
        failed |= not (ok and eig.passed)
        battery[eid] = item
    path = os.path.join(args.outdir, "catalog_report.json")
    try:
        os.makedirs(args.outdir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(_jsonable({"seed": args.seed, "tolerance": args.tol,
                                 "entries": battery}), fh, indent=2, sort_keys=True)
    except OSError as exc:  # a file in the way of the directory, or a directory of the file
        raise UsageError(f"cannot write {exc.filename}: {exc.strerror}") from None
    print(f"wrote {path}")
    return CHECK_FAILED if failed else 0


def _add_operator_flags(p: argparse.ArgumentParser):
    p.add_argument("--class", dest="cls", help="catalog id, e.g. C3.0")
    p.add_argument("--xtype", help="eight comma-separated complex h values")
    p.add_argument("--hietarinta", help="family name, e.g. 'H1,3'")
    p.add_argument("--matrix", help="4x4 matrix as JSON rows of numbers or [re,im] pairs")
    p.add_argument("--params", help="comma-separated name=value assignments")


def _add_output_flags(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON report")
    group.add_argument("--csv", action="store_true", help="emit CSV rows")


def _add_tol_flag(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float,
                   help=f"comparison tolerance (default: BRAIDGATE_TOL, else {DEFAULT_TOL:g})")


def _add_common_flags(p: argparse.ArgumentParser):
    _add_output_flags(p)
    _add_tol_flag(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidgate",
        description="Braiding two-qubit gates: catalog, invariants, links, entangling power",
        epilog=EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("catalog", help="list catalog classes or Hietarinta families")
    p.add_argument("--class", dest="cls", help="restrict to one class number")
    p.add_argument("--hietarinta", dest="hietarinta_list", action="store_true",
                   help="list the Hietarinta families instead")
    _add_output_flags(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="Yang-Baxter and enhancement checks")
    _add_operator_flags(p)
    p.add_argument("--enhancements", action="store_true",
                   help="also verify the enhancement recipes of a class representative")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", help="linear and quadratic local invariants")
    _add_operator_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_invariants)

    entries = yang_baxter.MAX_ENTRIES.bit_length() - 1
    terms = yang_baxter.MAX_TERMS.bit_length() - 1
    dense = yang_baxter.DENSE_STRANDS
    p = sub.add_parser(
        "linkpoly", help="evaluate the link polynomial of a braid word",
        description="Evaluate L(w) of the word, reduced by far commutativity when it is read "
                    f"(the word the report echoes): up to {dense} "
                    "strands (DENSE_STRANDS) on the dense state mu^(x m) of the m strands left "
                    "once each edge strand with at most one letter is traced out, one 4x4 "
                    "product per letter, and on more by contracting the closed braid as a "
                    "tensor network, one matrix product per step: generator by generator, or "
                    f"in a greedy order where a tensor would exceed 2^{2 * dense} entries. A word "
                    "whose planned contraction would hold more than "
                    f"2^{entries} entries at once, or sum more than 2^{terms} terms in one "
                    "step, is refused before anything is allocated (exit 2).")
    p.add_argument("--recipe", required=True, help="enhancement recipe id, e.g. C1.I")
    p.add_argument("--params", help="recipe parameters, e.g. h1=1,h4=2,h5=2")
    p.add_argument("--word", required=True, help='braid word, e.g. "s1^3 s2^-1"')
    p.add_argument("--strands", type=int,
                   help="strand count (default: inferred); the bound is on the planned "
                        f"contraction, not on the strands: at most 2^{entries} entries "
                        f"held at once and 2^{terms} terms per step")
    _add_common_flags(p)
    p.set_defaults(func=cmd_linkpoly)

    p = sub.add_parser(
        "enhance", help="solve for all (mu, x, y) enhancements",
        description="Find every enhancement with mu in the Pauli span from the roots of "
                    "the conditions, solved exactly; an operator whose roots are not "
                    "isolated points is refused (exit 2).")
    _add_operator_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("epower", help="exact entangling power, X-type checked by closed form")
    _add_operator_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_epower)

    p = sub.add_parser("classify", help="map a catalog entry to its Hietarinta family")
    p.add_argument("--class", dest="cls", help="catalog id, e.g. C12.0")
    p.add_argument("--params", help="parameters for a residual check of the stored recipe")
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="local-algebra orbit rank of an X-type operator")
    _add_operator_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("report-all", help="regenerate golden catalog reports")
    p.add_argument("--outdir", default="reports", help="output directory")
    _add_tol_flag(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the parameter draws")
    p.set_defaults(func=cmd_report_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if "tol" in vars(args):
            if args.tol is None:
                args.tol = default_tol()
            if not 0 < args.tol < 1:  # NaN fails the comparison too
                raise UsageError(f"the tolerance must lie strictly between 0 and 1, "
                                 f"got {args.tol!r}")
        # an overflow or an invalid value (inf - inf) is an error, never an
        # inf or NaN that a check compares
        with np.errstate(over="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
    except BrokenPipeError:
        # the reader has gone: exit 1 with no traceback, and point stdout at
        # devnull so that the flush at interpreter exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_FAILED
    except (SingularMatrixError, InadmissibleParamsError, InvalidEnhancementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (UsageError, KeyError, ValueError) as exc:
        # str() of a KeyError would quote its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: this input overflows a float64 ({exc})", file=sys.stderr)
        return USAGE_ERROR
    if not getattr(args, "json", False) and not getattr(args, "csv", False):
        print(f"[{time.monotonic() - start:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
