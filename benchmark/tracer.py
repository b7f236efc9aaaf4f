"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function and method of the toricbound
modules and replaces each reference to them in every toricbound module, so a
name imported with ``from .intlin import solve_rational`` is traced at that
import site too. A layer is a module; a span's self time is its duration
minus the durations of the wrapped calls made inside it.

Spans are kept in memory as (name, start, end, parent, job) and written out
when the run ends. The high-frequency leaf calls in ``AGGREGATED`` get no span
of their own: their count and time are summed per parent span, which keeps
memory bounded. Work counts are exact, so two traced runs of one seed give
identical counts; times are wall-clock nanoseconds of a single-threaded
process.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("intlin", "linalg", "cones", "hilbert", "fans", "bounded", "surface",
           "filtration", "serialize", "cli")

# high-frequency leaves, besides every intlin function
AGGREGATED = {"LaurentPoly.evaluate", "ShiftedPolyhedron.contains", "SymmetricRationalMatrix.apply"}

# (scope, callee): calls of callee made while scope is on the stack
SCOPED = {
    ("hilbert.hilbert_basis", "intlin.solve_rational"),
    ("hilbert.semigroup_contains", "cones.RationalCone.from_generators"),
    ("hilbert.semigroup_contains", "cones.RationalCone.from_inequalities"),
    ("hilbert.dickson_decompose", "hilbert.ShiftedPolyhedron.contains"),
    ("bounded.check_tc", "bounded.LaurentPoly.evaluate"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.aggregated: dict = defaultdict(lambda: [0, 0])  # (parent, name) -> [count, ns]
        self.self_ns: Counter = Counter()  # layer -> ns
        self.fn_self_ns: Counter = Counter()  # name -> ns
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.active: Counter = Counter()
        self.stack: list[list] = []  # [name, start, child_ns, span index]
        self.job = -1
        self._restore: list = []

    # -- installation ----------------------------------------------------------

    def install(self):
        originals = {}
        for short in MODULES:
            mod = sys.modules[f"toricbound.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = self._wrap(f"{short}.{name}", short, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "toricbound" and not modname.startswith("toricbound."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, originals[obj])

    def _wrap_class(self, short, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{short}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(qual, short, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(qual, short, attr)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, qual, layer, fn):
        leaf = layer == "intlin" or qual.split(".", 1)[1] in AGGREGATED
        hook = HOOKS.get(qual)
        scopes = [s for s, c in SCOPED if c == qual]
        is_scope = any(s == qual for s, _ in SCOPED)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][3] if stack else None
            if leaf:
                idx = None
            else:
                idx = len(tracer.spans)
                tracer.spans.append([qual, 0, 0, parent, tracer.job])
            if is_scope:
                tracer.active[qual] += 1
            frame = [qual, perf_counter_ns(), 0, idx if idx is not None else parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                own = dur - frame[2]
                tracer.self_ns[layer] += own
                tracer.fn_self_ns[qual] += own
                tracer.calls[qual] += 1
                if is_scope:
                    tracer.active[qual] -= 1
                for s in scopes:
                    if tracer.active[s]:
                        tracer.work[f"{s}>{qual}"] += 1
                if leaf:
                    rec = tracer.aggregated[(parent, qual)]
                    rec[0] += 1
                    rec[1] += dur
                else:
                    span = tracer.spans[idx]
                    span[1], span[2] = frame[1], end
            if hook is not None:
                hook(tracer.work, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    @contextmanager
    def job_span(self, label, job):
        """One job: a root span owned by the benchmark."""
        self.job = job
        start = perf_counter_ns()
        self.spans.append([f"job:{label}", start, 0, None, job])
        frame = [label, start, 0, len(self.spans) - 1]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter_ns()
            # a RecursionError can cut wrappers short: close what it left open
            while self.stack[-1] is not frame:
                idx = self.stack.pop()[3]
                if self.spans[idx][2] == 0:
                    self.spans[idx][2] = end
            self.active.clear()
            self.stack.pop()
            self.spans[frame[3]][2] = end
            self.self_ns["bench"] += end - start - frame[2]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for (parent, name), (count, ns) in self.aggregated.items():
                fh.write(json.dumps({"name": name, "parent": parent, "count": count,
                                     "ns": ns}) + "\n")

    # -- metrics ---------------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        c, w = self.calls, self.work

        def ms(layer):
            return self.self_ns[layer] / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        basis = w["basis_elements"]
        queries = c["hilbert.semigroup_contains"]
        built = c["cones.RationalCone.from_generators"] + c["cones.RationalCone.from_inequalities"]
        built_in_queries = (w["hilbert.semigroup_contains>cones.RationalCone.from_generators"]
                            + w["hilbert.semigroup_contains>cones.RationalCone.from_inequalities"])
        tests = w["hilbert.dickson_decompose>hilbert.ShiftedPolyhedron.contains"]
        rays = c["bounded.certify_K0_membership"]
        out = {
            "hilbert.self_ms": (ms("hilbert"), "ms"),
            "intlin.self_ms": (ms("intlin"), "ms"),
            "intlin.solve_rational.calls": (c["intlin.solve_rational"], "count"),
            "hilbert.hilbert_basis.calls": (c["hilbert.hilbert_basis"], "count"),
            "hilbert.basis_elements": (basis, "count"),
            "hilbert.solves_per_element": (
                ratio(w["hilbert.hilbert_basis>intlin.solve_rational"], basis), "ratio"),
            "hilbert.semigroup_contains.calls": (queries, "count"),
            "hilbert.cones_per_query": (ratio(built_in_queries, queries), "ratio"),
            "cones.self_ms": (ms("cones"), "ms"),
            "cones.constructions": (built, "count"),
            "hilbert.dickson_decompose.calls": (c["hilbert.dickson_decompose"], "count"),
            "hilbert.module_generators": (w["module_generators"], "count"),
            "hilbert.polyhedron_tests": (tests, "count"),
            "hilbert.dickson_yield": (ratio(w["module_generators"], tests), "ratio"),
            "filtration.self_ms": (ms("filtration"), "ms"),
            "filtration.lattice_points": (w["lattice_points"], "count"),
            "intlin.rank_of.calls": (c["intlin.rank_of"], "count"),
            "linalg.self_ms": (ms("linalg"), "ms"),
            "linalg.inertia.calls": (c["linalg.inertia"], "count"),
            "linalg.inertia.entries": (w["inertia_entries"], "count"),
            "surface.self_ms": (ms("surface"), "ms"),
            "surface.positive_combination.calls": (c["surface.positive_combination"], "count"),
            "surface.positive_combination.self_ms": (
                self.fn_self_ns["surface.positive_combination"] / 1e6, "ms"),
            "fans.self_ms": (ms("fans"), "ms"),
            "fans.smooth_resolution.calls": (c["fans.smooth_resolution"], "count"),
            "fans.rays_added": (w["rays_added"], "count"),
            "bounded.self_ms": (ms("bounded"), "ms"),
            "bounded.check_tc.calls": (c["bounded.check_tc"], "count"),
            "bounded.poly_evaluations": (c["bounded.LaurentPoly.evaluate"], "count"),
            "bounded.evaluations_per_ray": (
                ratio(w["bounded.check_tc>bounded.LaurentPoly.evaluate"], rays), "ratio"),
            "bounded.tc_decided": (w["tc_decided"], "count"),
            "cli.self_ms": (ms("cli"), "ms"),
            "serialize.self_ms": (ms("serialize"), "ms"),
            "intlin.integer_kernel.calls": (c["intlin.integer_kernel"], "count"),
            "trace.overhead": (overhead, "ratio"),
        }
        return out


# -- work counts read from arguments and results -----------------------------------


def _hilbert_basis(work, args, result):
    work["basis_elements"] += len(result.generators)


def _dickson(work, args, result):
    work["module_generators"] += len(result.generators)


def _level(work, args, result):
    if isinstance(result.dimension, int):
        work["lattice_points"] += result.dimension


def _inertia(work, args, result):
    work["inertia_entries"] += args[0].size ** 2


def _resolution(work, args, result):
    work["rays_added"] += len(result.rays) - len(args[0].rays)


def _check_tc(work, args, result):
    from toricbound.bounded import BasicSet, TCStatus

    s = args[2] if len(args) > 2 else None
    if isinstance(s, BasicSet) and result.status in (TCStatus.VERIFIED, TCStatus.VIOLATED):
        work["tc_decided"] += 1


HOOKS = {
    "hilbert.hilbert_basis": _hilbert_basis,
    "hilbert.dickson_decompose": _dickson,
    "filtration.filtration_level": _level,
    "linalg.inertia": _inertia,
    "fans.smooth_resolution": _resolution,
    "bounded.check_tc": _check_tc,
}
