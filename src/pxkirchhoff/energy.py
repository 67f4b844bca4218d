"""The functionals of the model: the Kirchhoff energy, its first and second
derivatives, its restriction to a ray, the Rayleigh quotient, and the
nonlinearities.

The energy of a zero-trace grid function u is

    J(u) = a*A(u) - (b/2)*A(u)^2 - lambda * I(1/p |u|^p) - I(G(x, u)),

with A(u) = I(1/p |grad u|^p) and I(.) the centroid quadrature.  Its
derivative against the interior hat functions is the discrete residual; the
quadratic part a*A - (b/2)*A^2 is capped at a^2/(2b) for every u, which is
the threshold below which compactness of descent sequences is trusted.
The second derivative on the interior vertices is a symmetric sparse
matrix on the mesh's fixed interior pattern plus a rank-one term: the
solvers take the sparse part as its pattern data (``_kirchhoff_hessian``),
and ``hessian_J`` returns it as a matrix.  One element kernel,
``_hessian_of_elements``, assembles K A'' minus a lower-order centroid
term for a given K, so it also gives the Hessian A'' - R B'' of the
Rayleigh equation A'(u) = R B'(u) (``_rayleigh_hessian``).  J along a ray
r u with its exact slope (``_energy_ray``), J on spheres of fixed radii
(``_energy_on_spheres``), and R = A / B with
B(u) = I(1/p |u|^p), with its gradient, its change along a line u + t d
(``_rayleigh_line``, from the ray weights the gradient returns) and its
values along the ray e^s u (``_rayleigh_on_ray``), live here too.

Every functional reads nodal values only through their element data, and
this module owns them: ``_point`` gathers a ``_Point`` once (Dg u and C u,
two sparse products, then |Dg u|).  The ``*_of_elements`` forms take a
point or arrays of its data (J, J' with A, J'' and A'' - R B'' as pattern
data, R' with R and the ray weights), as does the function that
``_energy_on_spheres`` returns, and the nodal forms (``gradient_J``,
``hessian_J``) call them on their ``_point``; the solvers hold points and
never gather.
"""

from dataclasses import dataclass, replace

import numpy as np

from .discretization import (
    GridFunction,
    Mesh,
    centroid_values,
    element_gradients,
    gradient_of,
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
    "hessian_J",
    "ar_condition_check",
    "ARReport",
]

_KINDS = ("zero", "pure_power", "scaled_power")


@dataclass(eq=False)
class NonlinearitySpec:
    """Odd superlinear nonlinearity g(x, s) with exact primitive G(x, s).

    pure_power evaluates g = |s|^{q(x)-2} s and G = |s|^{q(x)} / q(x);
    scaled_power multiplies both by a positive coefficient; zero is the
    unperturbed problem.  All kinds are odd in s and vanish at s = 0, and
    every G is a power in s: G(x, r s) = r^{q(x)} G(x, s) for r > 0, which
    J along a ray (``_energy_ray``) and on spheres (``_energy_on_spheres``)
    relies on.
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


def _magnitude(g: np.ndarray) -> np.ndarray:
    """Row lengths |g_e| of per-element vectors, shape (n_elements, d)."""
    return np.sqrt(np.einsum("ed,ed->e", g, g))


def _gather(mesh: Mesh, nodal: np.ndarray):
    """The element data of raw nodal values: the element gradients Dg u,
    shape (n_elements, d), and the centroid values C u."""
    return element_gradients(mesh, nodal), mesh.centroid_map @ nodal


@dataclass(eq=False)
class _Point:
    """Raw nodal values and their element data from one gather: the element
    gradients Dg u, their magnitudes and the centroid values C u."""

    nodal: np.ndarray
    grads: np.ndarray
    gmag: np.ndarray
    uc: np.ndarray


def _point(mesh: Mesh, nodal: np.ndarray) -> _Point:
    """The ``_Point`` of raw nodal values: one gather, then the magnitude."""
    grads, uc = _gather(mesh, nodal)
    return _Point(nodal, grads, _magnitude(grads), uc)


def _positive_power(mag: np.ndarray, e) -> np.ndarray:
    """mag**e where mag > 0 and 0 elsewhere; 0**e is never evaluated, so a
    negative exponent raises no division warning."""
    return np.power(mag, e, out=np.zeros_like(mag), where=mag > 0.0)


def _g(spec: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized nonlinearity g at per-element arguments s."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    g = _positive_power(np.abs(s), spec.q.values - 2.0) * s
    if spec.kind == "scaled_power":
        g = spec.coefficient * g
    return g


def _g_prime(spec: NonlinearitySpec, s: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Vectorized derivative dg/ds at per-element arguments s on the ``live``
    elements, 0 on the others (``_bounded_power``)."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    q = spec.q.values
    gp = (q - 1.0) * _bounded_power(np.abs(s), q - 2.0, live, "a vanishing centroid value")
    if spec.kind == "scaled_power":
        gp = spec.coefficient * gp
    return gp


def _G(spec: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized primitive G at per-element arguments s."""
    if spec.kind == "zero":
        return np.zeros_like(s)
    q = spec.q.values
    G = np.abs(s) ** q / q
    if spec.kind == "scaled_power":
        G = spec.coefficient * G
    return G


def nonlinearity_eval(spec: NonlinearitySpec, element: int, s: float) -> tuple[float, float]:
    """(g, G) at a single element's exponent sample and argument s;
    ShapeError for an element outside [0, len(spec.q))."""
    if not 0 <= element < len(spec.q):
        raise ShapeError(f"element {element} outside [0, {len(spec.q)})")
    s = np.full(len(spec.q), float(s))
    return float(_g(spec, s)[element]), float(_G(spec, s)[element])


@dataclass(eq=False)
class KirchhoffProblem:
    """Problem data: constants a, b, lambda, exponent fields, nonlinearity.

    Construction checks a, b > 0 and the field lengths only; an unset
    theta gets its default in a copy of the spec, never in the caller's.
    The chain and theta are checked by ``require_valid_chain``, which every
    solver calls first.
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
                self.g = replace(self.g, theta=default_theta(self.p, self.g.q))

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
    """I(1/p |x|^p) of per-element magnitudes: A from |grad u|, B from |u_c|."""
    return np.dot(mag**p.values / p.values, meas)


def kirchhoff_A(u: GridFunction, p: ExponentField) -> float:
    """The nonlocal integrand A(u): quadrature of (1/p(x)) |grad u|^{p(x)}."""
    return float(_p_integral(_magnitude(gradient_of(u)), p, u.mesh.element_measures))


def _energy_of_elements(prob: KirchhoffProblem, A, uc: np.ndarray):
    """J from A(u) and the per-element centroid values, for ``energy_J``
    and the solvers' points; J along a ray shares ``_energy_of_terms`` with
    it."""
    meas = prob.mesh.element_measures
    lam_term = _p_integral(np.abs(uc), prob.p, meas)
    return _energy_of_terms(prob, A, lam_term, np.dot(_G(prob.g, uc), meas))


def _energy_of_terms(prob: KirchhoffProblem, A, B, G):
    """J = a*A - (b/2)*A^2 - lambda*B - G from A(u), B(u) and I(G(x, u))."""
    return prob.a * A - 0.5 * prob.b * A * A - prob.lam * B - G


def _require_problem_mesh(u: GridFunction, prob: KirchhoffProblem) -> None:
    """ShapeError unless u lives on the problem's own mesh: the energy and
    its derivatives take measures and exponents from ``prob.mesh``."""
    if u.mesh is not prob.mesh:
        raise ShapeError("the grid function must live on the problem mesh")


def energy_J(u: GridFunction, prob: KirchhoffProblem) -> float:
    """Total energy of u for the given problem (ShapeError unless u lives on
    ``prob.mesh``)."""
    _require_problem_mesh(u, prob)
    meas = prob.mesh.element_measures
    A = _p_integral(_magnitude(gradient_of(u)), prob.p, meas)
    return float(_energy_of_elements(prob, A, centroid_values(u)))


def _derivative_terms_of_elements(mesh: Mesh, p: ExponentField, at: _Point):
    """The element data of the derivatives of A and B, from the element data
    of the point ``at``.

    Returns (flux, s_pow).  ``flux`` holds |grad u|^{p-2} grad u times
    the element measure in the rows of the gradient map, so that
    A'(u) = Dg^T flux; s_pow = |uc|^{p-2} uc, so that B'(u) = C^T (s_pow *
    meas).  Both weights are continuously extended by 0 where their argument
    vanishes.
    """
    pv, meas = p.values, mesh.element_measures
    w = _positive_power(at.gmag, pv - 2.0) * meas
    s_pow = _positive_power(np.abs(at.uc), pv - 2.0) * at.uc
    return (w[:, None] * at.grads).ravel(), s_pow


def gradient_J(u: GridFunction, prob: KirchhoffProblem) -> GridFunction:
    """Residual grid function: <J'(u), hat_i> at interior vertices, 0 on boundary.

    This is the exact gradient of the discrete energy with respect to the
    interior nodal values, assembled as two sparse adjoint products:
    K * Dg^T(flux * meas) - C^T((lambda |u_c|^{p-2} u_c + g(x, u_c)) * meas),
    with the nonlocal coefficient K = a - b*A(u) computed once.  The adjoint
    maps are fixed CSR matrices, so identical inputs give bitwise-identical
    sums; ``_residual_of_elements`` assembles it.  ShapeError unless u
    lives on ``prob.mesh``.
    """
    _require_problem_mesh(u, prob)
    at = _point(prob.mesh, u.nodal_values)
    return GridFunction(prob.mesh, _residual_of_elements(prob, at)[0])


def _residual_of_elements(prob: KirchhoffProblem, at: _Point):
    """(residual, A): the raw nodal values of ``gradient_J`` and A(u), from
    the element data of the point ``at``."""
    mesh = prob.mesh
    A = _p_integral(at.gmag, prob.p, mesh.element_measures)
    flux, s_pow = _derivative_terms_of_elements(mesh, prob.p, at)
    K = prob.a - prob.b * A
    lumped = (prob.lam * s_pow + _g(prob.g, at.uc)) * mesh.element_measures
    return K * (mesh.gradient_adjoint @ flux) - mesh.centroid_adjoint @ lumped, float(A)


def _bounded_power(mag: np.ndarray, e: np.ndarray, live: np.ndarray,
                   cause: str) -> np.ndarray:
    """mag**e on the ``live`` elements, with 0**0 = 1, and 0 on the others,
    where no power is computed; DomainError naming ``cause`` where a
    negative exponent meets mag = 0 on a live element, since the power is
    unbounded there."""
    if np.any(live & (mag == 0.0) & (e < 0.0)):
        raise DomainError(f"J'' does not exist: {cause} with exponent below 2")
    return np.power(mag, e, out=np.zeros_like(mag), where=live)


def hessian_J(u: GridFunction, prob: KirchhoffProblem):
    """The exact second derivative of the discrete energy at u, on the
    interior vertices: the J'' of the Dirichlet problem.

    Returns (S, dA) with J''(u) = S - b * dA dA^T, where

        S = K A''(u) - lambda B''(u) - G''(u),   dA = A'(u),

    and K = a - b*A(u).  S is the element kernel ``_hessian_of_elements``
    with that K and the lower-order term lambda (p-1) |u_c|^{p-2} +
    g'(x, u_c), built as a ``csc_matrix`` from its pattern data
    (``Mesh.interior_pattern_matrix``); ``_kirchhoff_hessian`` assembles it.
    dA is Dg^T(meas |grad u|^{p-2} grad u), the gradient of A, restricted
    to the interior.

    Raises DomainError where an exponent below 2 meets a vanishing gradient
    (or, in the lambda and g' terms, a vanishing centroid value), because
    |.|^{p-2} is unbounded there.  Only elements with an interior vertex
    are checked: on the others a zero-trace u vanishes, and they add
    nothing to the interior J''.  ShapeError unless u lives on ``prob.mesh``.
    """
    _require_problem_mesh(u, prob)
    data, dA = _kirchhoff_hessian(prob, _point(prob.mesh, u.nodal_values))
    return prob.mesh.interior_pattern_matrix(data), dA


def _kirchhoff_hessian(prob: KirchhoffProblem, at: _Point):
    """``hessian_J`` from the element data of the point ``at``, with S as
    its data in ``Mesh.interior_pattern`` order: (data, dA).  Newton's
    method factors S by a band LU scattered from its data
    (``Mesh.interior_pattern_lu``) and builds no matrix; only the Morse
    counts build one, for the SuperLU whose inertia they read
    (``Mesh.interior_pattern_splu``)."""
    mesh = prob.mesh
    live = mesh.interior_pattern.live
    lower = _g_prime(prob.g, at.uc, live)
    if prob.lam != 0.0:
        lower = lower + _centroid_curvature(prob.p, at.uc, live, prob.lam)
    K = prob.a - prob.b * _p_integral(at.gmag, prob.p, mesh.element_measures)
    data, w = _hessian_of_elements(mesh, prob.p, at, K, lower)
    dA = (mesh.gradient_adjoint @ (w[:, None] * at.grads).ravel())[mesh.interior]
    return data, dA


def _rayleigh_hessian(mesh: Mesh, p: ExponentField, at: _Point, R: float) -> np.ndarray:
    """The pattern data of A''(u) - R B''(u) at the point ``at``: the
    element kernel ``_hessian_of_elements`` with K = 1 and the lower-order
    term R (p-1) |u_c|^{p-2}.  It is the derivative of A'(u) - R B'(u) with
    R held fixed, and has no rank-one term."""
    lower = _centroid_curvature(p, at.uc, mesh.interior_pattern.live, R)
    return _hessian_of_elements(mesh, p, at, 1.0, lower)[0]


def _centroid_curvature(p: ExponentField, uc: np.ndarray, live: np.ndarray, c: float):
    """c (p-1) |u_c|^{p-2} on the ``live`` elements (``_bounded_power``):
    the element weights of c B''(u) on the centroid mass."""
    pv = p.values
    return c * (pv - 1.0) * _bounded_power(np.abs(uc), pv - 2.0, live,
                                           "a vanishing centroid value")


def _hessian_of_elements(mesh: Mesh, p: ExponentField, at: _Point, K: float,
                         lower: np.ndarray):
    """The one element kernel of every second derivative: the pattern data
    of K A''(u) - C^T diag(lower meas) C at the point ``at``, in
    ``Mesh.interior_pattern`` order, and the weights w = meas |grad u|^{p-2}
    of A'' (0 off the live elements), from which A'(u) = Dg^T(w grad u).

    The matrix is a sum of one (d+1) x (d+1) block per element,

        K w (G^T G + (p-2) v v^T) - lower * meas / (d+1)^2 * 1 1^T,

    with G the element's hat gradients (``Mesh.hat_gradients``), whose Gram
    part G^T G is the mesh's (``Mesh.hat_gram``), and v = G^T n for
    n = grad u / |grad u|.  ``BlockPattern.scatter`` adds the blocks into the
    mesh's fixed interior pattern (``Mesh.interior_pattern``).  Every block
    is bitwise symmetric, so the matrix is too: its CSR arrays are its CSC
    arrays.  The blocks are formed in place.  Raises DomainError where an
    exponent below 2 meets a vanishing gradient on a live element."""
    pattern = mesh.interior_pattern
    pv, meas = p.values, mesh.element_measures
    w = _bounded_power(at.gmag, pv - 2.0, pattern.live, "a vanishing element gradient") * meas
    # element-last stacks: G is (d, d+1, n_e), the blocks (d+1, d+1, n_e)
    G = mesh.hat_gradients.transpose(1, 2, 0)
    n = np.divide(at.grads.T, at.gmag, out=np.zeros(at.grads.shape[::-1]),
                  where=at.gmag > 0.0)
    v = np.einsum("ke,kie->ie", n, G)
    blocks = np.multiply(v[:, None], v[None])
    blocks *= pv - 2.0
    blocks += mesh.hat_gram
    blocks *= K * w
    blocks -= lower * meas / (mesh.dimension + 1) ** 2
    # an off-diagonal entry sums at most two blocks (an edge of at most two
    # simplices for d <= 2), so the sum is the same in either order
    return pattern.scatter(blocks), w


def _stiffness_norm(mesh: Mesh, gmag: np.ndarray) -> float:
    """The norm of u in the constant-exponent stiffness, sqrt(u^T K u), from
    its element gradient magnitudes: K = Dg^T diag(meas) Dg, so
    u^T K u = I(|grad u|^2), and no sparse product is needed."""
    return float(np.sqrt(np.dot(gmag * gmag, mesh.element_measures)))


def _rayleigh_line(mesh: Mesh, p: ExponentField, at: _Point, direction: np.ndarray,
                   w: np.ndarray):
    """R along the line u + t*direction, from element data gathered once.

    ``at`` holds the element gradients G and centroid values uc of u, and
    ``w`` its ray weights (``_ray_weights``) stacked as rows, as
    ``_rayleigh_gradient_of_elements`` returns them, so the powers of u are
    not taken again.  Those of the direction, Gd and dc, are gathered here,
    together with the per-element products G.G, G.Gd and Gd.Gd, so
    |grad(u + t d)|^2 is a quadratic in t and the centroid values are
    uc + t dc.  Returns
    (change, data): change(t) = R(u + t d) - R(u), for ``_armijo``, and
    data(t) = (|grad(u + t d)|, uc + t dc), the element data of the point.
    Neither makes a sparse product.  The change is (dA - R dB) / (B + dB),
    summed from the increments |a|^p expm1(p/2 log1p(x)) = |a(t)|^p - |a|^p,
    |a(t)|^2 = |a|^2 (1 + x), of a = |grad u| and a = u_c; each keeps its
    relative accuracy where a difference of two values of R is rounding.
    """
    dg, dc = _gather(mesh, direction)
    gg, gd, dd = (np.einsum("ed,ed->e", x, y)
                  for x, y in ((at.grads, at.grads), (at.grads, dg), (dg, dg)))
    # the rows of each stack are a = |grad u| and a = u_c; w = meas |a|^p / p,
    # |a(t)|^2 = |a|^2 (1 + t (lin + t quad)) where a != 0, and t^2 a2 where a = 0
    A, B = w.sum(axis=1)
    r = np.divide(dc, at.uc, out=np.zeros_like(dc), where=at.uc != 0.0)
    lin = np.array([np.divide(2.0 * gd, gg, out=np.zeros_like(gg), where=gg > 0.0), 2.0 * r])
    quad = np.array([np.divide(dd, gg, out=np.zeros_like(gg), where=gg > 0.0), r * r])
    a2 = np.array([dd, dc * dc])
    born = np.nonzero((np.array([gg, at.uc]) == 0.0) & (a2 > 0.0))
    half_p = 0.5 * p.values
    w_born = (mesh.element_measures / p.values)[born[1]] * a2[born] ** half_p[born[1]]

    def data(t):
        return np.sqrt(np.maximum(gg + t * (2.0 * gd + t * dd), 0.0)), at.uc + t * dc

    def change(t):
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf where a(t) = 0
            rise = w * np.expm1(half_p * np.log1p(np.maximum(t * (lin + t * quad), -1.0)))
        rise[born] += w_born * abs(t) ** (2 * half_p[born[1]])
        dA, dB = rise.sum(axis=1)
        return float((dA - (A / B) * dB) / (B + dB))

    return change, data


def _ray_weights(mesh: Mesh, p: ExponentField, gmag: np.ndarray, uc: np.ndarray):
    """(w_A, w_B) from |grad u| and u_c, so that A(r u) = sum w_A r^p and
    B(r u) = sum w_B r^p: w_A = meas |grad u|^p / p, w_B = meas |u_c|^p / p."""
    pv, meas = p.values, mesh.element_measures
    return meas * gmag**pv / pv, meas * np.abs(uc) ** pv / pv


def _energy_ray(prob: KirchhoffProblem, nodal: np.ndarray):
    """(|grad u|, ray) with ray(r) = (J(r u), r dJ/dr, D(r)) for scalar or
    1-D r > 0, from one gather.

    Every term of J is a power along the ray: A and B by ``_ray_weights``
    and I(G(x, r u)) = sum w_G r^q with w_G = meas G(x, u_c).  So the slope
    is exact from the same weights,

        r dJ/dr = K(r u) sum p w_A r^p - D(r),
        D(r) = lambda sum p w_B r^p + sum q w_G r^q,

    and where it vanishes, at a maximum of J on the ray, K = D / sum p w_A
    r^p has the sign of D: positive when lambda >= 0 and G(x, u) != 0.
    """
    pv, qv = prob.p.values, prob.g.q.values
    at = _point(prob.mesh, nodal)
    w_A, w_B = _ray_weights(prob.mesh, prob.p, at.gmag, at.uc)
    w_G = _G(prob.g, at.uc) * prob.mesh.element_measures
    pw_A, pw_B, qw_G = pv * w_A, pv * w_B, qv * w_G

    def ray(r):
        log_r = np.log(np.asarray(r, dtype=float))[..., None]
        r_p = np.exp(log_r * pv)
        A, B = r_p @ w_A, r_p @ w_B
        rise_A, rise_B = r_p @ pw_A, r_p @ pw_B
        r_q = np.exp(np.multiply(log_r, qv, out=r_p), out=r_p)  # one stack in memory
        drive = prob.lam * rise_B + r_q @ qw_G
        J = _energy_of_terms(prob, A, B, r_q @ w_G)
        return J, (prob.a - prob.b * A) * rise_A - drive, drive

    return at.gmag, ray


def _energy_on_spheres(prob: KirchhoffProblem, radii: np.ndarray):
    """on_spheres(at, norm) = J(rho_k u / norm) for every radius rho_k of
    ``radii``, from the element data of the point ``at`` (of u) and a norm
    of u.

    Every term of J is a power along a ray (``_energy_ray``): with
    v = u / norm, A(rho v) = sum rho^p w_A and B(rho v) = sum rho^p w_B for
    the weights of v (``_ray_weights``), and I(G(x, rho v)) = sum rho^q w_G
    with w_G = meas G(x, v_c).  The tables rho_k^p and rho_k^q, radii by
    elements, are taken once here, so each point costs only its own powers
    and three products with them.
    """
    pv, qv = prob.p.values, prob.g.q.values
    rho = radii[:, None]
    r_p, r_q = rho**pv, rho**qv
    mesh = prob.mesh

    def on_spheres(at: _Point, norm: float):
        vc = at.uc / norm
        w_A, w_B = _ray_weights(mesh, prob.p, at.gmag / norm, vc)
        w_G = _G(prob.g, vc) * mesh.element_measures
        return _energy_of_terms(prob, r_p @ w_A, r_p @ w_B, r_q @ w_G)

    return on_spheres


def _rayleigh_on_ray(s: float, c: np.ndarray, w_A: np.ndarray, w_B: np.ndarray):
    """R(e^s u) and its slope d ln R / ds from the weights w_A, w_B of u
    (``_ray_weights``) and the centred exponent c = p - p-.

    The weights of e^s u are those of u times e^{s p}.  The common factor
    e^{s p-} cancels in R, so the weights are tilted by e^{s c} instead,
    which is exactly 1 for constant p.  The slope is the difference of the
    means of c under the weights w_A e^{s c} and w_B e^{s c}; it is exactly
    0 when c is.
    """
    tilt = np.exp(s * c)
    A, B = w_A @ tilt, w_B @ tilt
    c_tilt = c * tilt
    return float(A / B), float((w_A @ c_tilt) / A - (w_B @ c_tilt) / B)


def _rayleigh_gradient_of_elements(mesh: Mesh, p: ExponentField, at: _Point):
    """(R'(u), R(u), w) with R = A / B and R' = (A'(u) - R(u) B'(u)) / B(u),
    zero on the boundary, from the element data of the point ``at``; the
    two adjoint products are its only sparse products.

    The powers |grad u|^p and |u_c|^p are taken once.  A and B come from
    them with the arithmetic of ``_p_integral``, and w, the rows w_A and w_B
    of ``_ray_weights``, with its arithmetic, for ``_rayleigh_line``: both
    are bitwise those functions' values.
    """
    pv, meas = p.values, mesh.element_measures
    x_A, x_B = at.gmag**pv, np.abs(at.uc) ** pv
    A, B = np.dot(x_A / pv, meas), np.dot(x_B / pv, meas)
    flux, s_pow = _derivative_terms_of_elements(mesh, p, at)
    grad = (mesh.gradient_adjoint @ flux
            - (A / B) * (mesh.centroid_adjoint @ (s_pow * meas))) / B
    grad[mesh.boundary_mask] = 0.0
    return grad, float(A / B), np.array([meas * x_A / pv, meas * x_B / pv])


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
    c1 = float(np.min(_G(spec, np.full(len(spec.q), spec.s_A)))) / spec.s_A**theta

    for s in s_grid:
        s_full = np.full(len(spec.q), s)
        g, G = _g(spec, s_full), _G(spec, s_full)
        lhs = theta * G
        rhs = s * g
        if not np.all(lhs > 0.0):
            violations.append(f"theta*G not positive at s={s:g}")
        if np.any(lhs > rhs * (1.0 + slack) + slack):
            violations.append(f"theta*G > s*g at s={s:g}")
        if np.any(G < c1 * abs(s) ** theta * (1.0 - 1e-9)):
            violations.append(f"G below C1|s|^theta at s={s:g}")
    return ARReport(violations, c1)
