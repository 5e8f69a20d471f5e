"""Per-layer tracing of bridgevar from outside the package.

`Tracer.install()` wraps the public functions of each layer module and
rebinds every name in every loaded ``bridgevar`` module that refers to the
same function object.  Calls made through names imported into another
module (``poly`` imports the kernels by name, ``geometry`` imports
``resultant``, ``_kernels.poly_powmod_p`` calls ``poly_mul_p`` through its
own globals) therefore reach the wrapper too.  Nothing under ``src/`` is
edited; `uninstall()` puts the original objects back.

For each wrapped function the tracer keeps the number of calls, the
inclusive time (outermost activation only, as cProfile does), the self
time (inclusive time minus the time of wrapped callees) and the number
of calls that raised.  A few functions also record computed work.
"""

import functools
import inspect
import sys
import threading
import time

PACKAGE = "bridgevar"
LAYERS = ("kernels", "poly", "seq", "curves", "geometry", "knotprops",
          "riley", "report", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.active = 0
        self.extra = {}


def _count_coeff_pairs(stat, args, result):
    a, b = args[0], args[1]
    pairs = stat.extra.get("coeff_pairs", 0)
    stat.extra["coeff_pairs"] = pairs + len(a) * len(b)


def _max_resultant_degree(stat, args, result):
    deg = result.degree
    if deg >= 0 and deg > stat.extra.get("max_degree", 0):
        stat.extra["max_degree"] = int(deg)


def _count_conclusive(stat, args, result):
    if result.verdict != "inconclusive":
        stat.extra["conclusive"] = stat.extra.get("conclusive", 0) + 1


# Work counters recorded from a call's arguments and result.
HOOKS = {
    "kernels.poly_mul": _count_coeff_pairs,
    "kernels.poly_mul_p": _count_coeff_pairs,
    "poly.resultant": _max_resultant_degree,
    "poly.irreducibility_analysis": _count_conclusive,
}


class Tracer:
    """Call counts and self times for the public functions of bridgevar.

    One tracer per process; wrapped calls must come from one thread
    (`merge` alone may be called from another).
    """

    def __init__(self, clock=time.perf_counter):
        self.stats = {}
        # (caller key, callee key) -> [calls, seconds], for this process only
        self.edges = {}
        self._clock = clock
        self._stack = []
        self._patches = []
        self._lock = threading.Lock()

    def wrap(self, key, fn, hook=None):
        """Return a wrapper of `fn` that records its calls under `key`."""
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = self._clock
        edges = self.edges

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            frame = [0.0, key]  # time spent in wrapped callees, and who
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.total += dt
                stat.self_time += dt - frame[0]
                if stack:
                    caller = stack[-1]
                    caller[0] += dt
                    edge = edges.get((caller[1], key))
                    if edge is None:
                        edge = edges[caller[1], key] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += dt
            if hook is not None:
                hook(stat, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _targets(self, layers):
        """{id(fn): (key, fn)} for the public functions of each layer."""
        targets = {}
        for layer in layers:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isroutine(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                # kernels re-exports the backend's functions; every other
                # layer owns only what it defines.
                owned = (origin.startswith(PACKAGE + ".")
                         if layer == "kernels" else origin == mod.__name__)
                if owned and id(obj) not in targets:
                    targets[id(obj)] = ("%s.%s" % (layer, name), obj)
        return targets

    def install(self, layers=LAYERS):
        """Wrap every public function of `layers` wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        for layer in layers:
            __import__(prefix + layer)
        targets = self._targets(layers)
        wrappers = {oid: self.wrap(key, fn, HOOKS.get(key))
                    for oid, (key, fn) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(prefix)):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][1]:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def uninstall(self):
        while self._patches:
            mod, name, obj = self._patches.pop()
            setattr(mod, name, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self):
        """Plain-data copy of the counters, for pickling across processes."""
        return {key: (s.calls, s.total, s.self_time, s.errors, dict(s.extra))
                for key, s in self.stats.items()}

    def delta(self, before):
        """The counters added since `before`, an earlier `snapshot()`."""
        out = {}
        for key, now in self.snapshot().items():
            calls, total, self_time, errors, extra = now
            b_calls, b_total, b_self, b_errors, b_extra = before.get(
                key, (0, 0.0, 0.0, 0, {}))
            if calls == b_calls:
                continue
            out[key] = (calls - b_calls, total - b_total, self_time - b_self,
                        errors - b_errors,
                        {name: v if name == "max_degree"
                         else v - b_extra.get(name, 0)
                         for name, v in extra.items()})
        return out

    def merge(self, snap):
        """Add a `snapshot()` taken in another process to these counters."""
        with self._lock:
            for key, (calls, total, self_time, errors, extra) in snap.items():
                stat = self.stats.setdefault(key, Stat())
                stat.calls += calls
                stat.total += total
                stat.self_time += self_time
                stat.errors += errors
                for name, v in extra.items():
                    if name == "max_degree":
                        stat.extra[name] = max(stat.extra.get(name, 0), v)
                    else:
                        stat.extra[name] = stat.extra.get(name, 0) + v

    def metrics(self, knots, wall):
        """Per-layer metrics named ``<module>.<function>.<stat>``.

        `knots` is the number of knots the counters cover, the denominator
        of the ``calls_per_knot`` ratios; `wall` is the traced wall time,
        the denominator of ``self_share`` (which sums to about the number
        of worker processes when the work ran in a pool).
        """
        out = {}
        for key in sorted(self.stats):
            s = self.stats[key]
            out[key + ".calls"] = s.calls
            out[key + ".s"] = s.total
            out[key + ".self_s"] = s.self_time
            out[key + ".self_share"] = s.self_time / wall
            out[key + ".errors"] = s.errors
            for name, v in s.extra.items():
                if name != "conclusive":
                    out["%s.%s" % (key, name)] = v
        for key in ("kernels.poly_mul", "kernels.poly_mul_p"):
            out.setdefault(key + ".coeff_pairs", 0)
        out.setdefault("poly.resultant.max_degree", 0)
        irr = self.stats.get("poly.irreducibility_analysis")
        done = irr.calls - irr.errors if irr else 0
        out["poly.irreducibility_analysis.conclusive_share"] = (
            irr.extra.get("conclusive", 0) / done if done else 0.0)
        for key in ("geometry.smoothness_certificate", "curves.d_model"):
            stat = self.stats.get(key)
            out[key + ".calls_per_knot"] = (
                stat.calls / knots if stat and knots else 0.0)
        return out

    def table(self):
        """Text table of the counters, largest self time first, followed
        by the self time of each layer."""
        rows = sorted(((s.self_time, key, s) for key, s in self.stats.items()
                       if s.calls), key=lambda r: (-r[0], r[1]))
        width = max([len(key) for _, key, _ in rows] + [8])
        lines = ["%-*s %10s %10s %10s %6s  %s" % (width, "function", "calls",
                                                   "s", "self_s", "errors",
                                                   "work")]
        for _, key, s in rows:
            work = " ".join("%s=%s" % kv for kv in sorted(s.extra.items()))
            lines.append("%-*s %10d %10.4f %10.4f %6d  %s" % (
                width, key, s.calls, s.total, s.self_time, s.errors, work))
        layers = {}
        for self_time, key, _ in rows:
            layer = key.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_time
        lines.append("self time by layer: " + ", ".join(
            "%s %.3f s" % kv for kv in sorted(layers.items(),
                                              key=lambda kv: -kv[1])))
        return "\n".join(lines)
