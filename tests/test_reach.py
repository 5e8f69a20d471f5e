"""`src/` holds what a command reaches.

Every subcommand runs in process under `sys.setprofile`, after each
module of the package is executed afresh under it too (every command
imports the package).  The functions of `src/bridgevar` never entered
must then be exactly `UNREACHED`, each with its reason: code that only
tests call belongs in the tests, as an oracle.  A function is named by
its file and its AST name, found through `co_firstlineno` (the line of
its first decorator, or of `def`), since `co_qualname` is missing
before Python 3.11.
"""

import ast
import contextlib
import io
import os
import sys

import bridgevar
from bridgevar import cli, kernels, riley, seq
from bridgevar.knotprops import HYPERBOLIC, classify

PACKAGE = os.path.dirname(os.path.realpath(bridgevar.__file__))

ERROR_PATH = "error path: no command input in this run fails there"
BENCHMARK = "the benchmark calls it; only a benchmark change may drop it"
SMALL_METHOD = "a small method of a polynomial type, part of its API"
LONG_BASE = ("poly_powmod_p reduces only a base of degree >= deg m, and "
             "every degree pattern raises x to its power")
EVALUATION_ROUTE = ("resultant_mod_p evaluates and interpolates only past "
                    "poly.KRONECKER_GATE, the measured crossover; the "
                    "knots of these runs stay below it")
UNREACHED = {
    "cli:_error_row": ERROR_PATH,
    "cli:_forked_rows": "runs only with --jobs > 1, which forks",
    "kernels:poly_divmod_p": LONG_BASE,
    "kernels:poly_mul_p": BENCHMARK,
    "kernels:poly_rem_p": LONG_BASE + "; " + BENCHMARK,
    "kernels:poly_resultant_p": EVALUATION_ROUTE,
    "poly:_eval_p": EVALUATION_ROUTE,
    "poly:_interpolate_p": EVALUATION_ROUTE,
    "poly:_as_coeff": ERROR_PATH,
    "poly:_pollard_rho": "factorint needs it for a large prime factor",
    "poly:parse_poly": "reads the polynomial text of a JSON witness back",
    "riley:TraceSubringError.__init__": ERROR_PATH,
    "riley:_subring_error": ERROR_PATH,
    "poly:BiPoly.__bool__": SMALL_METHOD,
    "poly:BiPoly.__hash__": SMALL_METHOD,
    "poly:BiPoly.__pow__": SMALL_METHOD,
    "poly:BiPoly.__repr__": SMALL_METHOD,
    "poly:BiPoly.__rsub__": SMALL_METHOD,
    "poly:BiPoly.coeff": SMALL_METHOD,
    "poly:BiPoly.const": SMALL_METHOD,
    "poly:BiPoly.eval_point": SMALL_METHOD,
    "poly:BiPoly.gen_outer": SMALL_METHOD,
    "poly:BiPoly.relabel": SMALL_METHOD,
    "poly:QuadElem.__eq__": SMALL_METHOD,
    "poly:QuadElem.__hash__": SMALL_METHOD,
    "poly:QuadElem.__pow__": SMALL_METHOD,
    "poly:QuadElem.__repr__": SMALL_METHOD,
    "poly:QuadElem.__rsub__": SMALL_METHOD,
    "poly:QuadElem.is_zero": SMALL_METHOD,
    "poly:UniPoly.__hash__": SMALL_METHOD,
    "poly:UniPoly.__repr__": SMALL_METHOD,
    "poly:UniPoly.content": SMALL_METHOD,
}

# every classify label, and k = l hyperbolic (4, 4) and trefoil (2, 2)
KNOTS = ((4, -6), (4, 4), (-3, -2), (2, 2), (0, 4), (1, 4), (3, 5))
SECTION_COMMANDS = ("analyze", "model", "tracefield", "commensurability")


def package_functions():
    """{(file, first line, name): "module:Qualified.name"} for every
    function the package's source defines, nested ones and methods
    included."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                walk(ast.parse(fh.read()), path, name[:-3] + ":")
    return out


def runs():
    """(argv, expected exit code): the section commands refuse a knot
    that is not hyperbolic with exit 2."""
    for k, l in KNOTS:
        for cmd in SECTION_COMMANDS:
            code = (0 if cmd in ("analyze", "model")
                    or classify(k, l) == HYPERBOLIC else 2)
            for extra in ([], ["--json"]):
                yield [cmd, "-k", str(k), "-l", str(l)] + extra, code
    # a trace field of degree 21, whose degree patterns run in rings past
    # kernels.NARROW_GATE; the fields of KNOTS stay below it
    yield ["tracefield", "-k", "6", "-l", "-7"], 0
    # an inconclusive trace field (two more primes would close it): only
    # such a field runs the rational-root search after the prime loop
    yield ["tracefield", "-k", "-8", "-l", "-6"], 0
    yield ["verify", "all"], 0
    yield ["sweep", "--kmax", "3", "--lmax", "3", "--jobs", "1"], 0
    yield ["newton", "-n", "6", "-p", "3"], 0
    yield ["newton", "--variant", "i", "-n", "6"], 0
    yield ["newton", "--variant", "alpha", "-n", "6"], 0


def test_src_holds_what_a_command_reaches(monkeypatch):
    # empty caches, as a new command starts with: a term or a slot set
    # cached by an earlier test would hide the code that builds it
    monkeypatch.setattr(seq, "_memo", {})
    kernels._euclid_slots.cache_clear()
    riley._dickson_l1.cache_clear()
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bridgevar" or name.startswith("bridgevar.")]
    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for mod in modules:
            # the module body again, in a namespace of its own: what an
            # import runs, without replacing the loaded module
            with open(mod.__file__) as fh:
                body = compile(fh.read(), mod.__file__, "exec")
            exec(body, {"__name__": mod.__name__ + "._reach",
                        "__package__": mod.__package__})
        for argv, want in runs():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append((argv, cli.main(argv), want))
    finally:
        sys.setprofile(previous)
    assert [c for c in codes if c[1] != c[2]] == []
    entered = {(os.path.realpath(path), line, name)
               for path, line, name in calls}
    unreached = {name for key, name in package_functions().items()
                 if key not in entered}
    # no command reaches these, and they have no reason
    assert sorted(unreached - set(UNREACHED)) == []
    # a command reaches these now, or they are gone
    assert sorted(set(UNREACHED) - unreached) == []
