"""Problem configuration: domain + exponent + right-hand side + solver
knobs, plus the registry of named built-in right-hand sides used by the
command-line driver and the experiment scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .multi_interval import Domain
from .specfun import DomainError, gegenbauer_norm_h, s_value


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed for one solve.

    n may be a single resolution shared by all intervals or one entry
    per interval; rhs is a vectorized callable f(x).
    """

    s: float
    domain: Domain
    rhs: Callable
    n: int | tuple[int, ...] = 16
    gmres_tol: float = 1e-13
    rhs_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "s", s_value(self.s))
        ns = self.n_per_interval()
        if any(n < 1 for n in ns):
            raise DomainError(f"per-interval resolution must be >= 1, got {ns}")
        if not 0.0 < self.gmres_tol < 1.0:
            raise DomainError(f"gmres tolerance must be in (0, 1), got {self.gmres_tol}")

    def n_per_interval(self) -> tuple[int, ...]:
        if isinstance(self.n, (int, np.integer)):
            return (int(self.n),) * len(self.domain)
        ns = tuple(int(v) for v in self.n)
        if len(ns) == 1:
            return ns * len(self.domain)
        if len(ns) != len(self.domain):
            raise DomainError(
                f"got {len(ns)} resolutions for {len(self.domain)} intervals"
            )
        return ns

    def with_n(self, n) -> "ProblemSpec":
        return ProblemSpec(self.s, self.domain, self.rhs, n, self.gmres_tol, self.rhs_label)


def make_rhs(name: str, params: str = "") -> tuple[Callable, str]:
    """Build a named right-hand side; returns (callable, canonical label).

    Built-ins: constant[:c], runge (1/(x^2+0.01)), absx (|x|),
    polynomial:c0,c1,... (monomial coefficients).  The domain-aware
    gegenbauer-mode:k goes through resolve_rhs.
    """
    if name == "constant":
        c = float(params) if params else 1.0

        def f(x, c=c):
            return np.full_like(np.asarray(x, dtype=float), c)

        return f, f"constant:{c:g}"
    if name == "runge":
        return (lambda x: 1.0 / (np.asarray(x, dtype=float) ** 2 + 0.01)), "runge"
    if name == "absx":
        return (lambda x: np.abs(np.asarray(x, dtype=float))), "absx"
    if name == "polynomial":
        if not params:
            raise DomainError("polynomial rhs needs coefficients, e.g. polynomial:1,0,2")
        coeffs = np.array([float(v) for v in params.split(",")])

        def f(x, coeffs=coeffs):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        return f, "polynomial:" + ",".join(f"{v:g}" for v in coeffs)
    raise DomainError(f"unknown rhs name {name!r}")


def make_mode_rhs(k: int, s, domain: Domain) -> tuple[Callable, str]:
    """f equal to the k-th normalized Gegenbauer polynomial C~_k^{(s+1/2)}
    of the reference variable on each interval (and extended by its
    polynomial values in between).
    """
    from .gegenbauer import eval_gegenbauer

    sv = s_value(s)
    if k < 0:
        raise DomainError(f"mode index must be >= 0, got {k}")
    h = gegenbauer_norm_h(k, sv)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        # map each point through the reference frame of its interval;
        # points between intervals use the nearest interval's frame
        mids = np.array([0.5 * (a + b) for a, b in domain.intervals])
        idx = np.argmin(np.abs(x[..., None] - mids), axis=-1)
        for i, (a, b) in enumerate(domain.intervals):
            sel = idx == i
            xt = 2.0 * (x[sel] - a) / (b - a) - 1.0
            out[sel] = eval_gegenbauer(k, sv + 0.5, xt) / h
        return out

    return f, f"gegenbauer-mode:{k}"


def resolve_rhs(descriptor: str, s, domain: Domain) -> tuple[Callable, str]:
    """Parse NAME[:params] into a callable, handling the domain-aware case."""
    name, _, params = descriptor.partition(":")
    if name == "gegenbauer-mode":
        if not params:
            raise DomainError("gegenbauer-mode needs an index, e.g. gegenbauer-mode:2")
        return make_mode_rhs(int(params), s, domain)
    return make_rhs(name, params)
