"""Span tracing of the mcfhom layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer module, and
the public methods of the classes those modules define, with wrappers that
record one span per call: name, start, end, parent and a work count taken
from the arguments or the result.  Nothing under ``src/`` is edited; the
wrappers are module and class attributes set at run time, so every call that
goes through a module attribute or a module global is seen.

Two kinds of call are too frequent for one span each and are recorded as a
call count plus summed time instead: ``GridBlock.contains`` and the functions
returned by ``expr.compile_field`` (one call per field evaluation).  No span
is recorded inside them.

A recursive call of a function that already has an open span is folded into
that span rather than becoming a span of its own, so recursive tree walks in
``expr`` cost one span per outermost call.

Spans stay in memory until ``write`` puts them in a tab-separated file at the
end of a pass; ``layer_metrics`` derives the per-layer times and counts.
"""
from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("expr", "flow", "block", "lyapunov", "morse", "homalg", "conley",
          "cli")

_HOT_METHODS = {("block", "GridBlock", "contains"): "block.contains"}
_FIELD_EVAL = "expr.field_eval"

# Functions whose time is "expression compilation" in the expr layer.
_COMPILE = frozenset("expr." + n for n in (
    "derive", "gradient", "hessian", "negative_gradient", "compile_scalar",
    "compile_field", "compile_jacobian"))


def _steps(args, kwargs, out):
    traj = out[0] if isinstance(out, tuple) else out
    return traj.steps


def _snf_entries(args, kwargs, out):
    a = args[0]
    return len(a) * (len(a[0]) if a else 0)


def _budget(args, kwargs, out):
    return 1 if out[0].tag == "budget" else 0


# Work counts attached to a span, read from the call's arguments or result.
_WORK = {
    "flow.integrate": _steps,
    "flow.integrate_until": _steps,
    "flow.classify_limit": _budget,
    "block.check_isolation": lambda a, k, out: len(out.samples),
    "morse.find_critical_points": lambda a, k, out: len(out),
    "morse.count_connections": lambda a, k, out: len(out.witnesses),
    "homalg.smith_normal_form": _snf_entries,
    "homalg.build_cubical_complex": lambda a, k, out: sum(out.dims),
}


class Tracer:
    def __init__(self):
        self.names = []     # span name
        self.starts = []
        self.ends = []
        self.parents = []   # index of the enclosing span, -1 at the top
        self.work = []      # work count of the span (see _WORK)
        self.child = []     # time covered by child spans and hot calls
        self.hot = {}       # name -> [calls, seconds]
        self._stack = []
        self._active = {}   # name -> 1 while a span of that name is open
        self._hot_depth = 0
        self._compiled = set()

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of every layer module."""
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(mod, attr, self._span(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            hot = _HOT_METHODS.get((layer, cls.__name__, attr))
            wrapped = (self._hot(hot, fn) if hot
                       else self._span(f"{layer}.{cls.__name__}.{attr}", fn))
            setattr(cls, attr, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        work = _WORK.get(name)
        if name == "expr.compile_scalar":
            work = self._first_compile
        # the functions compile_field returns are traced as hot calls
        wrap_result = (functools.partial(self._hot, _FIELD_EVAL)
                       if name == "expr.compile_field" else None)
        names, starts, ends = self.names, self.starts, self.ends
        parents, works, child = self.parents, self.work, self.child
        stack, active = self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._hot_depth or active.get(name):
                return fn(*args, **kwargs)
            i = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            child.append(0.0)
            stack.append(i)
            active[name] = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = 0
                starts[i] = t0
                ends[i] = t1
                if parent >= 0:
                    child[parent] += t1 - t0
            if work is not None:
                works[i] = work(args, kwargs, out)
            return wrap_result(out) if wrap_result else out

        return traced

    def _first_compile(self, args, kwargs, out):
        e = args[0]
        if e in self._compiled:
            return 0
        self._compiled.add(e)
        return 1

    def _hot(self, name, fn):
        agg = self.hot.setdefault(name, [0, 0.0])
        stack, child = self._stack, self.child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._hot_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._hot_depth -= 1
                if not self._hot_depth:
                    agg[0] += 1
                    agg[1] += dt
                    if stack:
                        child[stack[-1]] += dt

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\twork\tself\n")
            for i, name in enumerate(self.names):
                dur = self.ends[i] - self.starts[i]
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}"
                         f"\t{self.parents[i]}\t{self.work[i]}"
                         f"\t{dur - self.child[i]!r}\n")
            for name, (calls, secs) in sorted(self.hot.items()):
                fh.write(f"# hot\t{name}\t{calls}\t{secs!r}\n")

    def layer_metrics(self):
        """Per-layer times (s) and work counts of one traced pass."""
        names, parents, work = self.names, self.parents, self.work
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(names)
        # ancestor flags; a parent always has a smaller index than its child
        in_compile = [False] * n
        in_complex = [False] * n
        in_perturb = [False] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                in_compile[i] = in_compile[p] or names[p] in _COMPILE
                in_complex[i] = (in_complex[p]
                                 or names[p] == "morse.build_complex")
                in_perturb[i] = (in_perturb[p]
                                 or names[p] == "lyapunov.morse_perturb")
        calls, secs, works = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur[i]
            works[name] = works.get(name, 0) + work[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - self.child[i]
        for name, (_, secs_hot) in self.hot.items():
            layer_self[name.split(".", 1)[0]] += secs_hot

        def t(name):
            return secs.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        def w(name):
            return works.get(name, 0)

        def hot(name):
            return self.hot.get(name, [0, 0.0])

        compile_s = sum(dur[i] for i in range(n)
                        if names[i] in _COMPILE and not in_compile[i])
        orbits = c("flow.integrate") + c("flow.integrate_until")
        orbit_steps = w("flow.integrate") + w("flow.integrate_until")
        orbit_s = t("flow.integrate") + t("flow.integrate_until")
        labels = sum(1 for i in range(n) if in_complex[i]
                     and names[i] == "flow.classify_limit")
        budget = sum(work[i] for i in range(n) if in_complex[i]
                     and names[i] == "flow.classify_limit")
        us_per_step = 1e6 * orbit_s / orbit_steps if orbit_steps else 0.0
        witnesses = w("morse.count_connections")
        label_yield = witnesses / labels if labels else 0.0
        return {
            "expr.compile_s": (compile_s, "s"),
            "expr.compiles": (w("expr.compile_scalar"), "count"),
            "expr.field_evals": (hot(_FIELD_EVAL)[0], "count"),
            "flow.s": (layer_self["flow"], "s"),
            "flow.orbits": (orbits, "count"),
            "flow.steps": (orbit_steps, "count"),
            "flow.us_per_step": (us_per_step, "us"),
            "flow.transport_s": (t("flow.transport_frame"), "s"),
            "flow.transports": (c("flow.transport_frame"), "count"),
            "block.classify_s": (t("block.classify_boundary"), "s"),
            "block.classify_calls": (c("block.classify_boundary"), "count"),
            "block.isolation_s": (t("block.check_isolation"), "s"),
            "block.isolation_samples": (w("block.check_isolation"), "count"),
            "block.contains_s": (hot("block.contains")[1], "s"),
            "block.contains_calls": (hot("block.contains")[0], "count"),
            "lyapunov.verify_s": (t("lyapunov.verify_lyapunov"), "s"),
            "lyapunov.perturb_s": (t("lyapunov.morse_perturb"), "s"),
            "lyapunov.cert_isolation_calls": (sum(
                1 for i in range(n) if in_perturb[i]
                and names[i] == "block.check_isolation"), "count"),
            "morse.crit_s": (t("morse.find_critical_points"), "s"),
            "morse.crits": (w("morse.find_critical_points"), "count"),
            "morse.complex_s": (t("morse.build_complex"), "s"),
            "morse.sphere_labels": (labels, "count"),
            "morse.witnesses": (witnesses, "count"),
            "morse.label_yield": (label_yield, "ratio"),
            "morse.budget_hits": (budget, "count"),
            "homalg.homology_s": (t("homalg.homology"), "s"),
            "homalg.snf_s": (t("homalg.smith_normal_form"), "s"),
            "homalg.snf_calls": (c("homalg.smith_normal_form"), "count"),
            "homalg.snf_entries": (w("homalg.smith_normal_form"), "count"),
            "homalg.mod2_s": (t("homalg.rank_mod2"), "s"),
            "homalg.d2_s": (t("homalg.verify_d_squared"), "s"),
            "homalg.d2_checks": (c("homalg.verify_d_squared"), "count"),
            "homalg.cubical_build_s": (t("homalg.build_cubical_complex"), "s"),
            "homalg.cells": (w("homalg.build_cubical_complex"), "count"),
            "conley.hi_s": (t("conley.compute_HI"), "s"),
            "conley.exit_theorem_s": (t("conley.verify_exit_theorem"), "s"),
            "conley.s": (layer_self["conley"], "s"),
            "cli.load_s": (t("cli.load_system"), "s"),
            "trace.spans": (n, "count"),
        }
