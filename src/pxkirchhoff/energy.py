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
    element_gradients,
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


def _positive_power(mag: np.ndarray, e) -> np.ndarray:
    """mag**e where mag > 0 and 0 elsewhere; 0**e is never evaluated, so a
    negative exponent raises no division warning."""
    return np.power(mag, e, out=np.zeros_like(mag), where=mag > 0.0)


def _g(spec: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized nonlinearity g at per-element arguments s (or stacks of them)."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    g = _positive_power(np.abs(s), spec.q.values - 2.0) * s
    if spec.kind == "scaled_power":
        g = spec.coefficient * g
    return g


def _G(spec: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized primitive G at per-element arguments s (or stacks of them)."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    q = spec.q.values
    G = np.abs(s) ** q / q
    if spec.kind == "scaled_power":
        G = spec.coefficient * G
    return G


def _g_and_G(spec: NonlinearitySpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (g, G) at per-element arguments s."""
    return _g(spec, s), _G(spec, s)


def nonlinearity_eval(spec: NonlinearitySpec, element: int, s: float) -> tuple[float, float]:
    """(g, G) at a single element's exponent sample and argument s."""
    g, G = _g_and_G(spec, np.full(len(spec.q), float(s)))
    return float(g[element]), float(G[element])


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


def _p_integral(mag: np.ndarray, p: ExponentField, meas: np.ndarray):
    """I(1/p |x|^p) of per-element magnitudes: A from |grad u|, B from |u_c|.

    ``mag`` may be a stack of per-element rows; the result has the stack's
    shape.
    """
    return np.dot(mag**p.values / p.values, meas)


def kirchhoff_A(u: GridFunction, p: ExponentField) -> float:
    """The nonlocal integrand A(u): quadrature of (1/p(x)) |grad u|^{p(x)}."""
    require_zero_trace(u)
    gmag = np.linalg.norm(gradient_of(u), axis=1)
    return float(_p_integral(gmag, p, u.mesh.element_measures))


def _energy_of_elements(prob: KirchhoffProblem, A, uc: np.ndarray):
    """J from A(u) and the per-element centroid values.

    ``A`` may be a stack of values and ``uc`` the matching stack of
    per-element rows; J has the stack's shape.  ``energy_J`` and the
    solver's restriction of J to a line both call it, so the energy formula
    exists once.
    """
    meas = prob.mesh.element_measures
    lam_term = _p_integral(np.abs(uc), prob.p, meas)
    g_term = np.dot(_G(prob.g, uc), meas)
    return prob.a * A - 0.5 * prob.b * A * A - prob.lam * lam_term - g_term


def energy_J(u: GridFunction, prob: KirchhoffProblem) -> float:
    """Total energy of u for the given problem."""
    require_zero_trace(u)
    meas = prob.mesh.element_measures
    A = _p_integral(np.linalg.norm(gradient_of(u), axis=1), prob.p, meas)
    return float(_energy_of_elements(prob, A, centroid_values(u)))


def _derivative_terms(mesh: Mesh, p: ExponentField, nodal: np.ndarray):
    """A(u) and the element data of the derivatives of A and B at nodal values.

    Returns (A, flux, uc, s_pow).  ``flux`` holds |grad u|^{p-2} grad u times
    the element measure in the rows of the gradient map, so that
    A'(u) = Dg^T flux; ``uc`` are the centroid values and
    s_pow = |uc|^{p-2} uc, so that B'(u) = C^T (s_pow * meas).  Both weights
    are continuously extended by 0 where their argument vanishes.
    """
    pv, meas = p.values, mesh.element_measures
    grads = element_gradients(mesh, nodal)
    gmag = np.linalg.norm(grads, axis=1)
    A = _p_integral(gmag, p, meas)
    w = _positive_power(gmag, pv - 2.0) * meas
    uc = mesh.centroid_map @ nodal
    s_pow = _positive_power(np.abs(uc), pv - 2.0) * uc
    return A, (w[:, None] * grads).ravel(), uc, s_pow


def gradient_J(u: GridFunction, prob: KirchhoffProblem) -> GridFunction:
    """Residual grid function: <J'(u), hat_i> at interior vertices, 0 on boundary.

    This is the exact gradient of the discrete energy with respect to the
    interior nodal values, assembled as two sparse adjoint products:
    K * Dg^T(flux * meas) - C^T((lambda |u_c|^{p-2} u_c + g(x, u_c)) * meas),
    with the nonlocal coefficient K = a - b*A(u) computed once.  The adjoint
    maps are fixed CSR matrices, so identical inputs give bitwise-identical
    sums.
    """
    require_zero_trace(u)
    mesh = prob.mesh
    A, flux, uc, s_pow = _derivative_terms(mesh, prob.p, u.nodal_values)
    K = prob.a - prob.b * A
    lumped = (prob.lam * s_pow + _g(prob.g, uc)) * mesh.element_measures
    residual = K * (mesh.gradient_adjoint @ flux) - mesh.centroid_adjoint @ lumped
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
