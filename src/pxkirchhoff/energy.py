"""The nonlocal Kirchhoff energy, its Gateaux derivative, and nonlinearities.

The energy of a zero-trace grid function u is

    J(u) = a*A(u) - (b/2)*A(u)^2 - lambda * I(1/p |u|^p) - I(G(x, u)),

with A(u) = I(1/p |grad u|^p) and I(.) the centroid quadrature.  Its
derivative against the interior hat functions is the discrete residual; the
quadratic part a*A - (b/2)*A^2 is capped at a^2/(2b) for every u, which is
the threshold below which compactness of descent sequences is trusted.
"""

from dataclasses import dataclass

import numpy as np

from .discretization import (
    GridFunction,
    Mesh,
    centroid_values,
    gradient_of,
    require_zero_trace,
)
from .errors import DomainError, ShapeError
from .exponents import (
    ExponentField,
    default_theta,
    validate_problem_exponents,
)

__all__ = [
    "NonlinearitySpec",
    "KirchhoffProblem",
    "nonlinearity_eval",
    "kirchhoff_A",
    "energy_J",
    "gradient_J",
    "ar_condition_check",
    "ARReport",
]

_KINDS = ("zero", "pure_power", "scaled_power")


@dataclass(eq=False)
class NonlinearitySpec:
    """Odd superlinear nonlinearity g(x, s) with exact primitive G(x, s).

    pure_power evaluates g = |s|^{q(x)-2} s and G = |s|^{q(x)} / q(x);
    scaled_power multiplies both by a positive coefficient; zero is the
    unperturbed problem.  All kinds are odd in s and vanish at s = 0.
    """

    kind: str
    q: ExponentField
    coefficient: float = 1.0
    theta: float | None = None
    s_A: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "scaled_power" and not self.coefficient > 0.0:
            raise DomainError("scaled_power coefficient must be positive")
        if self.s_A < 0.0:
            raise DomainError("s_A must be nonnegative")


def _G(spec: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized primitive G at per-element arguments s."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    q = spec.q.values
    G = np.abs(s) ** q / q
    if spec.kind == "scaled_power":
        G = spec.coefficient * G
    return G


def _g_and_G(spec: NonlinearitySpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (g, G) at per-element arguments s."""
    if spec.kind == "zero":
        return np.zeros_like(s), np.zeros_like(s)
    q = spec.q.values
    mag = np.abs(s)
    g = np.where(mag > 0.0, mag ** (q - 2.0) * s, 0.0)
    if spec.kind == "scaled_power":
        g = spec.coefficient * g
    return g, _G(spec, s)


def nonlinearity_eval(spec: NonlinearitySpec, element: int, s: float) -> tuple[float, float]:
    """(g, G) at a single element's exponent sample and argument s."""
    if spec.kind == "zero":
        return 0.0, 0.0
    q = float(spec.q.values[element])
    mag = abs(float(s))
    g = mag ** (q - 2.0) * s if mag > 0.0 else 0.0
    G = mag**q / q
    if spec.kind == "scaled_power":
        return spec.coefficient * g, spec.coefficient * G
    return float(g), float(G)


@dataclass(eq=False)
class KirchhoffProblem:
    """Problem data: constants a, b, lambda, exponent fields, nonlinearity.

    Construction validates a, b > 0, the exponent chain (with the critical
    exponent treated as +infinity at desk-scale mesh dimensions), and the
    superlinearity exponent theta against its admissible interval.
    """

    a: float
    b: float
    lam: float
    p: ExponentField
    g: NonlinearitySpec
    mesh: Mesh

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError("constants a and b must be positive")
        if len(self.p) != self.mesh.n_elements or len(self.g.q) != self.mesh.n_elements:
            raise ShapeError("exponent fields must be sampled on the problem mesh")
        if self.g.kind != "zero" and self.g.theta is None:
            interval = validate_problem_exponents(self.p, self.g.q).theta_interval
            if interval is not None:
                self.g.theta = default_theta(self.p, self.g.q)

    @property
    def ps_ceiling(self) -> float:
        """a^2/(2b): energy levels below it are compactness-safe."""
        return self.a**2 / (2.0 * self.b)

    def validate(self):
        """Full exponent-chain report for this problem's p and q fields."""
        return validate_problem_exponents(self.p, self.g.q)

    def require_valid_chain(self):
        """Raise DomainError unless the chain and theta checks hold.

        Energies and gradients are evaluable on any problem; the solvers
        call this gate first, so validation passes before any solve.
        """
        report = self.validate()
        if not report.chain_ok:
            raise DomainError(f"exponent chain violated: {report.failures}")
        if self.g.kind != "zero":
            if report.theta_interval is None:
                raise DomainError(
                    "superlinearity interval (p+, 2(p-)^2/p+) is empty"
                )
            lo, hi = report.theta_interval
            theta = self.g.theta
            if theta is None or not (lo < theta < hi and theta <= self.g.q.lo):
                raise DomainError(
                    f"theta={theta} outside ({lo:g}, {hi:g}) intersected "
                    f"with theta <= q- = {self.g.q.lo:g}"
                )


def _A_of_gradients(grads: np.ndarray, p: ExponentField, meas: np.ndarray) -> float:
    gmag = np.linalg.norm(grads, axis=1)
    return float(np.dot(gmag**p.values / p.values, meas))


def kirchhoff_A(u: GridFunction, p: ExponentField) -> float:
    """The nonlocal integrand A(u): quadrature of (1/p(x)) |grad u|^{p(x)}."""
    require_zero_trace(u)
    return _A_of_gradients(gradient_of(u), p, u.mesh.element_measures)


def _energy_of_elements(
    prob: KirchhoffProblem, grads: np.ndarray, uc: np.ndarray
) -> float:
    """J from per-element gradients and centroid values.

    The quadrature tail of ``energy_J``; the solver's restriction of J to a
    segment calls it too, so the energy formula exists once.
    """
    meas = prob.mesh.element_measures
    p = prob.p.values
    A = _A_of_gradients(grads, prob.p, meas)
    lam_term = float(np.dot(np.abs(uc) ** p / p, meas))
    g_term = float(np.dot(_G(prob.g, uc), meas))
    return prob.a * A - 0.5 * prob.b * A * A - prob.lam * lam_term - g_term


def energy_J(u: GridFunction, prob: KirchhoffProblem) -> float:
    """Total energy of u for the given problem."""
    require_zero_trace(u)
    return _energy_of_elements(prob, gradient_of(u), centroid_values(u))


def gradient_J(u: GridFunction, prob: KirchhoffProblem) -> GridFunction:
    """Residual grid function: <J'(u), hat_i> at interior vertices, 0 on boundary.

    This is the exact gradient of the discrete energy with respect to the
    interior nodal values.  The nonlocal coefficient K = a - b*A(u) is
    computed once per assembly; contributions are accumulated in a fixed
    element order, so identical inputs give bitwise-identical sums.
    """
    require_zero_trace(u)
    mesh = prob.mesh
    p = prob.p.values
    meas = mesh.element_measures

    grads = gradient_of(u)
    gmag = np.linalg.norm(grads, axis=1)
    A = float(np.dot(gmag**p / p, meas))
    K = prob.a - prob.b * A

    # |grad u|^{p-2} grad u, continuously extended by 0 where grad u = 0
    w = np.where(gmag > 0.0, gmag ** (p - 2.0), 0.0)
    flux = w[:, None] * grads
    diff_contrib = np.einsum("ed,evd->ev", flux, mesh.hat_gradients) * meas[:, None]

    uc = centroid_values(u)
    s_pow = np.where(np.abs(uc) > 0.0, np.abs(uc) ** (p - 2.0) * uc, 0.0)
    g_vals, _ = _g_and_G(prob.g, uc)
    # hat functions take the value 1/(d+1) at element centroids
    lumped = (prob.lam * s_pow + g_vals) * meas / (mesh.dimension + 1)

    contrib = K * diff_contrib - lumped[:, None]
    residual = np.zeros(mesh.n_vertices)
    np.add.at(residual, mesh.elements, contrib)
    return GridFunction(mesh, residual)


@dataclass
class ARReport:
    """Outcome of the superlinearity (Ambrosetti-Rabinowitz) checks."""

    violations: list[str]
    c1: float

    @property
    def ok(self) -> bool:
        return not self.violations


def ar_condition_check(spec: NonlinearitySpec, s_grid) -> ARReport:
    """Check 0 < theta*G(x,s) <= s*g(x,s) on the grid, plus the growth floor.

    All grid points must satisfy |s| >= s_A.  Also verifies the derived
    bound G(x,s) >= C1 |s|^theta with C1 = min over elements of
    G(x, s_A) / s_A^theta.  Violations are reported, not raised.
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if spec.s_A <= 0.0:
        raise DomainError("the growth-floor check needs s_A > 0")
    if np.any(np.abs(s_grid) < spec.s_A):
        raise DomainError("grid points must satisfy |s| >= s_A")
    theta = spec.theta
    if theta is None:
        raise DomainError("spec.theta must be set before the check")

    violations = []
    slack = 1e-12
    _, G_at_sA = _g_and_G(spec, np.full(len(spec.q), spec.s_A))
    c1 = float(np.min(G_at_sA)) / spec.s_A**theta

    for s in s_grid:
        g, G = _g_and_G(spec, np.full(len(spec.q), s))
        lhs = theta * G
        rhs = s * g
        if not np.all(lhs > 0.0):
            violations.append(f"theta*G not positive at s={s:g}")
        if np.any(lhs > rhs * (1.0 + slack) + slack):
            violations.append(f"theta*G > s*g at s={s:g}")
        if np.any(G < c1 * abs(s) ** theta * (1.0 - 1e-9)):
            violations.append(f"G below C1|s|^theta at s={s:g}")
    return ARReport(violations, c1)
