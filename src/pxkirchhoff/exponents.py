"""Variable exponent fields and the structural conditions they must satisfy.

Exponents are sampled once per mesh element (at centroids), matching the
elementwise quadrature rule used throughout.  All operations here are pure
value transformations, re-entrant and free of shared mutable state.
"""

from dataclasses import dataclass

import numpy as np

from .discretization import Mesh
from .errors import DomainError, ShapeError

__all__ = [
    "ExponentField",
    "ValidationReport",
    "build_exponent_field",
    "constant_exponent",
    "critical_exponent",
    "validate_problem_exponents",
    "default_theta",
]


@dataclass(eq=False)
class ExponentField:
    """Per-element exponent samples with cached infimum and supremum."""

    values: np.ndarray
    lo: float
    hi: float

    def __len__(self) -> int:
        return len(self.values)


def build_exponent_field(samples, mesh: Mesh) -> ExponentField:
    """Wrap per-element exponent samples, checking length, finiteness and
    that every sample exceeds 1."""
    values = np.asarray(samples, dtype=float)
    if values.shape != (mesh.n_elements,):
        raise ShapeError(
            f"expected {mesh.n_elements} exponent samples, got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError("exponent samples must be finite")
    if np.any(values <= 1.0):
        raise DomainError("exponent must exceed 1")
    return ExponentField(values, float(values.min()), float(values.max()))


def constant_exponent(value: float, mesh: Mesh) -> ExponentField:
    """Constant exponent field (classical p-Laplacian regime)."""
    return build_exponent_field(np.full(mesh.n_elements, float(value)), mesh)


def critical_exponent(p: ExponentField, dimension: int) -> ExponentField:
    """Elementwise Sobolev-critical exponent N*p/(N - p) for p below N;
    DomainError for a dimension N below 1 or a sample p >= N."""
    if dimension < 1:
        raise DomainError(f"dimension must be at least 1, got {dimension}")
    if np.any(p.values >= dimension):
        raise DomainError("supercritical exponent sample")
    values = dimension * p.values / (dimension - p.values)
    return ExponentField(values, float(values.min()), float(values.max()))


@dataclass
class ValidationReport:
    """Outcome of the structural exponent checks.

    ``chain_ok`` is true iff none of the chain inequalities failed;
    ``theta_interval`` is the admissible open range for the superlinearity
    exponent, or None when that range is empty.
    """

    chain_ok: bool
    theta_interval: tuple[float, float] | None
    failures: list[str]


_CHAIN_FAILURES = ("1 < p-", "p+ < 2p-", "2p- < q-", "q < p*")


def validate_problem_exponents(
    p: ExponentField, q: ExponentField, dimension: int | None = None
) -> ValidationReport:
    """Check the exponent chain 1 < p- <= p(x) <= p+ < 2p- < q- <= q(x) < p*(x).

    Interior comparisons are non-strict so constant fields are admissible;
    the structural inequalities are strict.  With an explicit ``dimension``
    the subcritical bound uses N*p/(N - p) and demands p < N elementwise
    (DomainError otherwise); with ``dimension=None`` the critical exponent
    is treated as +infinity and the bound is vacuous, which is the relevant
    reading for desk-scale meshes of dimension 1 or 2.
    """
    if len(p) != len(q):
        raise ShapeError("p and q must be sampled on the same mesh")
    failures = []
    if not p.lo > 1.0:
        failures.append("1 < p-")
    if not p.hi < 2.0 * p.lo:
        failures.append("p+ < 2p-")
    if not 2.0 * p.lo < q.lo:
        failures.append("2p- < q-")
    if dimension is not None:
        p_star = critical_exponent(p, dimension)
        if not np.all(q.values < p_star.values):
            failures.append("q < p*")

    theta_lo = p.hi
    theta_hi = 2.0 * p.lo**2 / p.hi
    if theta_lo < theta_hi:
        theta_interval = (theta_lo, theta_hi)
    else:
        theta_interval = None
        failures.append("theta interval empty")

    chain_ok = not any(f in _CHAIN_FAILURES for f in failures)
    return ValidationReport(chain_ok, theta_interval, failures)


def default_theta(p: ExponentField, q: ExponentField) -> float:
    """Default superlinearity exponent: min(q-, 2(p-)^2/p+ - 1e-6).

    Pure-power nonlinearities satisfy the superlinear lower bound only for
    theta <= q-, so the default caps at q- while staying inside the open
    admissible interval.
    """
    return min(q.lo, 2.0 * p.lo**2 / p.hi - 1e-6)
