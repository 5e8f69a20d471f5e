"""Command-line front end.

Exit codes: 0 success, 1 internal invariant failure (a cross-check or
verification suite failed), 2 invalid input.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .poly import ExactError
from .knotprops import two_bridge_params, HYPERBOLIC
from .newton import (binom_check, complexabs_check, expected_vertices,
                     lemma_polynomial, polygon)
from .report import Knot, build_report, render_text, to_json
from .riley import (ideal_generator_check, normalize_unit, riley_poly_J,
                    riley_poly_matrix, riley_poly_pq, trace_formula_check)
from .seq import identity_suite


def _print(rep, as_json):
    sys.stdout.write(to_json(rep) if as_json else render_text(rep))


def cmd_analyze(args):
    _print(build_report(args.k, args.l), args.json)
    return 0


def _unavailable_paths(section, prefix=""):
    """Dotted paths of the report sections, at any depth, that are
    unavailable, such as "two_bridge.fourplat"."""
    paths = []
    for key, v in section.items():
        if isinstance(v, dict):
            if "unavailable" in v:
                paths.append(prefix + key)
            else:
                paths += _unavailable_paths(v, prefix + key + ".")
    return paths


def _sweep_row(pair):
    k, l = pair
    try:
        rep = build_report(k, l)
        row = {"k": k, "l": l, "classification": rep["classification"]}
        tb = rep["two_bridge"]
        if "p" in tb:
            row["p"], row["q"] = tb["p"], tb["q"]
        if isinstance(rep.get("genus_X"), list):
            row["genus_X"] = {e["component"]: e["genus"]
                              for e in rep["genus_X"]}
        cc = rep.get("component_count", {})
        row["components"] = cc.get("count", cc.get("degenerate"))
        alex = rep.get("alexander", {})
        row["fibered"] = alex.get("fibered")
        row["disagreements"] = (_unavailable_paths(rep)
                                if rep["classification"] == HYPERBOLIC
                                else [])
        return row
    except Exception as e:  # a failed row must not kill the sweep
        return {"k": k, "l": l, "error": "%s: %s" % (type(e).__name__, e)}


def cmd_sweep(args):
    if args.kmax < 2 or args.lmax < 2:
        raise ExactError("sweep bounds must be >= 2")
    pairs = [(k, l)
             for k in range(-args.kmax, args.kmax + 1)
             for l in range(-args.lmax, args.lmax + 1)
             if k % 2 == 0 or l % 2 == 0]
    # The pool forks all its workers up front: no more than the cores.
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, pairs, chunksize=8))
    else:
        rows = [_sweep_row(p) for p in pairs]
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    bad = [r for r in rows if r.get("error") or r.get("disagreements")]
    sys.stderr.write("sweep: %d rows, %d with failures\n"
                     % (len(rows), len(bad)))
    return 1 if bad else 0


def _verify_identities(args, lines):
    rep = identity_suite(args.range)
    for chk in rep.checks:
        lines.append(("identity %s" % chk.name, chk.ok))
    return rep.ok


def _verify_newton(args, lines):
    ok = True
    for p in (2, 3, 5):
        good = all(
            polygon(lemma_polynomial("one", n, p).points).vertices
            == expected_vertices("one", n, p)
            for n in range(1, args.range + 1))
        lines.append(("shifted-unit polygon grid p=%d" % p, good))
        ok = ok and good
    for kind in ("i", "alpha"):
        good = all(
            polygon(lemma_polynomial(kind, n).points).vertices
            == expected_vertices(kind, n)
            for n in (3, 6, 9, 12))
        lines.append(("quadratic-shift polygon grid %s" % kind, good))
        ok = ok and good
    good = all(binom_check(n, p).ok
               for p in (2, 3) for n in range(p, 82, p))
    lines.append(("binomial valuations n<=81", good))
    ok = ok and good
    good = complexabs_check(range(-10, 11)).ok
    lines.append(("halving-function modulus |n|<=10", good))
    return ok and good


def _verify_riley(args, lines):
    seed = args.seed or ""
    ok = True
    for k in range(-args.kmax, args.kmax + 1):
        if abs(k) < 2:
            continue
        good = trace_formula_check(k, 50, seed=seed)
        ok = ok and good
    lines.append(("trace closed form |k|<=%d" % args.kmax, ok))
    grid_ok = True
    for k in range(-args.kmax, args.kmax + 1):
        if abs(k) < 2:
            continue
        for n in range(-args.nmax, args.nmax + 1):
            if n == 0:
                continue
            a = normalize_unit(riley_poly_J(k, n))
            b = normalize_unit(riley_poly_matrix(k, n))
            grid_ok = grid_ok and (a == b)
            tb = two_bridge_params(k, 2 * n)
            if tb.p > 1:
                c = normalize_unit(riley_poly_pq(tb.p, tb.q))
                grid_ok = grid_ok and (c == a)
    lines.append(("word-vs-matrix and normal-form grid", grid_ok))
    ideal_ok = all(ideal_generator_check(k, n, 5, seed=seed)
                   for k in (2, 3, -4) for n in (1, -2))
    lines.append(("vanishing-ideal generator spot checks", ideal_ok))
    return ok and grid_ok and ideal_ok


def cmd_verify(args):
    lines = []
    ok = True
    if args.suite in ("identities", "all"):
        ok = _verify_identities(args, lines) and ok
    if args.suite in ("newton", "all"):
        ok = _verify_newton(args, lines) and ok
    if args.suite in ("riley", "all"):
        ok = _verify_riley(args, lines) and ok
    if args.json:
        _print({"checks": [{"name": name, "ok": good} for name, good in lines],
                "ok": ok}, True)
    else:
        width = max(len(name) for name, _ in lines)
        for name, good in lines:
            print("%-*s  %s" % (width, name, "pass" if good else "FAIL"))
    return 0 if ok else 1


def cmd_model(args):
    _print(Knot(args.k, args.l).section("models"), args.json)
    return 0


def cmd_tracefield(args):
    _print(Knot(args.k, args.l).section("trace_field"), args.json)
    return 0


def cmd_newton(args):
    lp = lemma_polynomial(args.variant, args.n, args.p)
    pg = polygon(lp.points)
    out = pg.to_dict()
    want = expected_vertices(args.variant, args.n, args.p)
    out["matches_expected"] = pg.vertices == want
    _print(out, args.json)
    return 0 if out["matches_expected"] else 1


def cmd_commensurability(args):
    _print(Knot(args.k, args.l).section("commensurability"), args.json)
    return 0


def _add_kl(sp):
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-l", type=int, required=True)


def _common_options(suppress):
    """The options accepted before and after the subcommand.  The
    subparsers' copies (`suppress`) have no default, so that they set an
    option only when it is given after the subcommand and do not
    overwrite what the top-level parser read."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON", **kw)
    common.add_argument("--jobs", type=int, help="worker processes for sweeps",
                        **kw)
    common.add_argument("--seed", help="seed label for randomized spot checks "
                                       "(BRIDGEVAR_SEED overrides)", **kw)
    return common


def build_parser():
    common = _common_options(suppress=True)
    ap = argparse.ArgumentParser(
        prog="bridgevar",
        description="Exact character-variety models and invariants of "
                    "the double twist knots J(k,l).",
        parents=[_common_options(suppress=False)])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full report for one knot",
                        parents=[common])
    _add_kl(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sweep", help="grid of reports as JSON lines",
                        parents=[common])
    sp.add_argument("--kmax", type=int, default=10)
    sp.add_argument("--lmax", type=int, default=10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run a lemma regression suite",
                        parents=[common])
    sp.add_argument("suite", choices=("identities", "newton", "riley", "all"))
    sp.add_argument("--range", type=int, default=20,
                    help="identity index bound / polygon n bound")
    sp.add_argument("--kmax", type=int, default=7)
    sp.add_argument("--nmax", type=int, default=4)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("model", help="print the curve models",
                        parents=[common])
    _add_kl(sp)
    sp.set_defaults(func=cmd_model)

    sp = sub.add_parser("tracefield", help="trace-field degree data",
                        parents=[common])
    _add_kl(sp)
    sp.set_defaults(func=cmd_tracefield)

    sp = sub.add_parser("newton", help="polygon of a valuation-lemma polynomial",
                        parents=[common])
    sp.add_argument("--variant", choices=("one", "i", "alpha"), default="one")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=int, default=None)
    sp.set_defaults(func=cmd_newton)

    sp = sub.add_parser("commensurability",
                        help="fibered/commensurability certificate",
                        parents=[common])
    _add_kl(sp)
    sp.set_defaults(func=cmd_commensurability)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if os.environ.get("BRIDGEVAR_SEED"):
        args.seed = os.environ["BRIDGEVAR_SEED"]
    try:
        return args.func(args)
    except (ExactError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except AssertionError as e:
        sys.stderr.write("invariant failure: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
