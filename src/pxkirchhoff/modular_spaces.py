"""Variable-exponent Lebesgue/Sobolev machinery.

The modular is the quadrature of |u|^{p(x)}; the Luxemburg norm is the
unique scaling mu with modular(u/mu) = 1, found by Newton's method on
ln modular against ln(mu).  Norm values and modular values are plain
nonnegative floats; the power inequalities tying them together are
enforced by the property tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import GridFunction, Mesh, gradient_of, integrate
from .energy import _magnitude
from .errors import DomainError, MaxIterations, ShapeError
from .exponents import ExponentField

__all__ = [
    "modular",
    "luxemburg_norm",
    "conjugate_field",
    "holder_pairing",
    "sobolev_norm",
    "check_modular_norm_relations",
    "ModularNormReport",
]

_S_TOL = 1e-10  # a Newton step in ln(mu) this small leaves an error of about its square
_NEWTON_CAP = 50
_SLACK = 1e-9  # relative slack of the norm-modular relations for root-finding error


def _check_shapes(samples: np.ndarray, p: ExponentField, mesh: Mesh):
    if samples.shape != (mesh.n_elements,) or len(p) != mesh.n_elements:
        raise ShapeError(
            f"need {mesh.n_elements} samples and exponents, "
            f"got {samples.shape} and {len(p)}"
        )
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")


def modular(samples, p: ExponentField, mesh: Mesh) -> float:
    """The modular: integral of |u|^{p(x)} with elementwise exponents.

    Raises DomainError when the value overflows to infinity for finite
    samples.
    """
    samples = np.asarray(samples, dtype=float)
    _check_shapes(samples, p, mesh)
    with np.errstate(over="ignore"):
        value = integrate(np.abs(samples) ** p.values, mesh)
    if not np.isfinite(value):
        raise DomainError("the modular overflows the float range for these samples")
    return value


def luxemburg_norm(samples, p: ExponentField, mesh: Mesh) -> float:
    """inf{mu > 0 : modular(u/mu) <= 1}, which is 0 exactly for u = 0.

    mu = peak * e^s with v = u / peak and s the root of the convex,
    decreasing F(s) = ln modular(v e^{-s}).  With M = modular(v), the
    norm-modular inequalities (Fan-Zhao 2001, Thm 1.3) bracket s between
    ln M / p+ and ln M / p-, so Newton's method from the lower end rises
    monotonically to the root (MaxIterations after ``_NEWTON_CAP`` steps).
    For constant p it is the closed form (integral of |u|^p)^(1/p).
    """
    samples = np.asarray(samples, dtype=float)
    _check_shapes(samples, p, mesh)
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return 0.0

    pv = p.values
    w = mesh.element_measures * (np.abs(samples) / peak) ** pv
    log_M = math.log(w.sum())
    if p.lo == p.hi:
        return peak * math.exp(log_M / p.lo)
    s = min(log_M / p.lo, log_M / p.hi)
    for _ in range(_NEWTON_CAP):
        tilt = w * np.exp(-s * pv)
        rho = tilt.sum()
        step = math.log(rho) * rho / (tilt @ pv)  # -F(s) / F'(s)
        s += step
        if abs(step) <= _S_TOL:
            return peak * math.exp(s)
    raise MaxIterations(f"Luxemburg norm: Newton step {step:.3g} at cap {_NEWTON_CAP}")


def conjugate_field(p: ExponentField) -> ExponentField:
    """Pointwise conjugate exponent p/(p - 1), so 1/p + 1/p' = 1 holds."""
    values = p.values / (p.values - 1.0)
    return ExponentField(values, float(values.min()), float(values.max()))


def holder_pairing(u, v, p: ExponentField, mesh: Mesh) -> tuple[float, float]:
    """The pairing integral of u*v and its Holder-type upper bound.

    Returns (pairing, bound) with
    bound = (1/p- + 1/p'-) * |u|_{p(.)} * |v|_{p'(.)}; the inequality
    |pairing| <= bound always holds.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_shapes(u, p, mesh)
    _check_shapes(v, p, mesh)
    pairing = integrate(u * v, mesh)
    pc = conjugate_field(p)
    bound = (1.0 / p.lo + 1.0 / pc.lo) * luxemburg_norm(u, p, mesh) * luxemburg_norm(
        v, pc, mesh
    )
    return pairing, bound


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of |grad u|: the norm adopted on the zero-trace space."""
    gmag = _magnitude(gradient_of(u))
    return luxemburg_norm(gmag, p, u.mesh)


@dataclass
class ModularNormReport:
    """Norm/modular pair with any violated power-inequality relations."""

    norm: float
    modular: float
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_modular_norm_relations(u, p: ExponentField, mesh: Mesh) -> ModularNormReport:
    """Verify the power inequalities between Luxemburg norm and modular.

    Checks, up to a relative _SLACK absorbing root-finding error:
    norm > 1 implies norm^{p-} <= rho <= norm^{p+};
    norm < 1 implies norm^{p+} <= rho <= norm^{p-};
    and norm and rho sit on the same side of 1.
    """
    nrm = luxemburg_norm(u, p, mesh)
    rho = modular(u, p, mesh)
    violations = []

    def leq(x, y):
        return x <= y * (1.0 + _SLACK) + _SLACK

    if nrm > 1.0 + _SLACK:
        if not (leq(nrm**p.lo, rho) and leq(rho, nrm**p.hi)):
            violations.append("norm>1: norm^p- <= rho <= norm^p+")
        if not rho > 1.0 - _SLACK:
            violations.append("norm>1 but rho<=1")
    elif nrm < 1.0 - _SLACK:
        if not (leq(nrm**p.hi, rho) and leq(rho, nrm**p.lo)):
            violations.append("norm<1: norm^p+ <= rho <= norm^p-")
        if not rho < 1.0 + _SLACK:
            violations.append("norm<1 but rho>=1")
    else:
        if abs(rho - 1.0) > max(p.hi, 2.0) * _SLACK:
            violations.append("norm=1 but rho!=1")
    return ModularNormReport(nrm, rho, violations)
