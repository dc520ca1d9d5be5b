"""Per-layer tracing installed from outside the program.

Each traced public function is replaced, under every name by which a
fraclap module looks it up, with a wrapper that records a span (name,
start, end, parent, request id) in memory.  The special functions are
called tens of thousands of times per solve, so they are counted (with
their distinct arguments) but not timed; their time shows as self time
of the caller (norm_vector, solve_diagonal).

A span's self time is its duration minus the durations of its direct
children.  Per-request figures are sums over the request's spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, defining module, function name)
TIMED = (
    ("quadrature.gauss_jacobi", "fraclap.quadrature", "gauss_jacobi"),
    ("gegenbauer.forward_transform", "fraclap.gegenbauer", "forward_transform"),
    ("gegenbauer.evaluate_expansion", "fraclap.gegenbauer", "evaluate_expansion"),
    ("gegenbauer.eval_gegenbauer_batch", "fraclap.gegenbauer", "eval_gegenbauer_batch"),
    ("gegenbauer.norm_vector", "fraclap.gegenbauer", "norm_vector"),
    ("operator_core.solve_diagonal", "fraclap.operator_core", "solve_diagonal"),
    ("multi_interval.solve", "fraclap.multi_interval", "solve"),
    ("multi_interval.gmres", "fraclap.multi_interval", "gmres"),
    ("multi_interval.apply_offdiagonal", "fraclap.multi_interval", "apply_offdiagonal"),
    ("sobolev_metrics.error_between", "fraclap.sobolev_metrics", "error_between"),
    ("cli.main", "fraclap.cli", "main"),
)
COUNTED = (
    ("specfun.gegenbauer_norm_h", "fraclap.specfun", "gegenbauer_norm_h"),
    ("specfun.eigenvalue_lambda", "fraclap.specfun", "eigenvalue_lambda"),
    ("specfun.gamma_ratio", "fraclap.specfun", "gamma_ratio"),
)
# the right-hand side is a callable made by these factories
RHS_FACTORIES = (("fraclap.problem", "make_rhs"), ("fraclap.problem", "make_mode_rhs"))
RHS = "problem.rhs"
ITERATIONS = "multi_interval.gmres.iterations"


# calls whose distinct (degree, exponent) arguments are counted
DISTINCT = {"quadrature.gauss_jacobi", "specfun.gegenbauer_norm_h", "specfun.eigenvalue_lambda"}


def _distinct_key(name, args, kwargs):
    if name not in DISTINCT:
        return None
    degree, exponent = (list(args) + list(kwargs.values()))[:2]
    return (int(degree), float(exponent))


class Tracer:
    """Spans and counters of the requests run while enabled."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, request]
        self.stack = []
        self.request = None
        self.enabled = False
        self.counts = defaultdict(int)  # (request, name) -> calls
        self.distinct = defaultdict(set)  # (request, name) -> argument keys
        self.iterations = defaultdict(int)  # request -> GMRES iterations
        self.functions = {}  # metric prefix -> original function
        self.missing = []

    def _timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            record = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1, tracer.request]
            spans.append(record)
            tracer.stack.append(index)
            key = _distinct_key(name, args, kwargs)
            if key is not None:
                tracer.distinct[(tracer.request, name)].add(key)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                tracer.stack.pop()
            if name == "multi_interval.gmres":
                tracer.iterations[tracer.request] += getattr(result, "iterations", 0)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[(tracer.request, name)] += 1
                key = _distinct_key(name, args, kwargs)
                if key is not None:
                    tracer.distinct[(tracer.request, name)].add(key)
            return fn(*args, **kwargs)

        return wrapper

    def _rhs_factory(self, fn):
        timed = self._timed

        def wrapper(*args, **kwargs):
            rhs, label = fn(*args, **kwargs)
            return timed(RHS, rhs), label

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in fraclap's modules.

        A function the program no longer has is skipped: its metrics read
        0 and `missing` names it.
        """
        replacements = {}
        targets = [(name, module, attr, self._timed) for name, module, attr in TIMED]
        targets += [(name, module, attr, self._counted) for name, module, attr in COUNTED]
        targets += [(RHS, module, attr, lambda _, fn: self._rhs_factory(fn)) for module, attr in RHS_FACTORIES]
        for name, module, attr, make in targets:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if name != RHS:
                self.functions[name] = original
            replacements[id(original)] = (original, make(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fraclap" or mod_name.startswith("fraclap.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def per_request(self):
        """{request: {metric: value}} of calls, self seconds, distinct ratios."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, request in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, request), children in zip(self.spans, child_ns):
            out[request][name + ".calls"] += 1
            out[request][name + ".s"] += (end - start - children) * 1e-9
        for (request, name), calls in self.counts.items():
            out[request][name + ".calls"] += calls
        for (request, name), keys in self.distinct.items():
            out[request][name + ".calls_per_distinct"] = out[request][name + ".calls"] / len(keys)
        for request, iterations in self.iterations.items():
            out[request][ITERATIONS] = iterations
        return {request: dict(values) for request, values in out.items()}
