"""Critical-point machinery: Rayleigh quotients, mountain-pass geometry,
the path-deformation solver, and a finite-dimensional multiplicity search.

Only the algorithms live here.  Every functional they evaluate (J, J', J
along a line, the Rayleigh quotient, its gradient and its restriction to a
ray) comes from ``energy``, and both descents backtrack through one Armijo
step, ``_armijo``.

The solver runs Newton's method on the exact sparse Hessian from the peak
of a discrete path from 0 to a low-energy point e, and accepts its point
only at or below the peak's energy (Li-Zhou 2001).  Each step factors the
sparse part of J'' with one symmetric sparse LU (``_splu``); the rank-one
part is solved by Sherman-Morrison.  The fallback deforms
the path: a descent step at its peak, neighboring points pulled toward it.
Descent directions are preconditioned with the constant-exponent stiffness
(a discrete Sobolev gradient, ``_sobolev_descent``), which keeps iteration
counts mesh-independent; the reported residual stays the plain interior l2
norm of the assembled derivative.  The solution's Morse index is reported:
it is counted by inertia from the same symmetric LU, and one sparse
eigensolve for the two lowest eigenvalues cross-checks it (``_morse``).
All eigensolves are sparse, and every stiffness solve (the descent, the
eigenbasis shift-invert, the Morse inverse mass) uses the mesh's one LU
(``Mesh.interior_stiffness_lu``).  Element data come only from
``energy._point``: the solvers hold its points and never gather.

The multiplicity search runs its starts one after another, in start-index
order, and merges results deterministically by (energy, start-index) order.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .discretization import GridFunction, Mesh, _splu
from .energy import (
    KirchhoffProblem,
    _line_energy,
    _energy_of_elements,
    _energy_ray,
    _hessian_of_elements,
    _point,
    _Point,
    _rayleigh_gradient_of_elements,
    _rayleigh_line,
    _rayleigh_of_elements,
    _rayleigh_on_ray,
    _rayleigh_ray_of_elements,
    _residual_of_elements,
    _stiffness_norm,
    energy_J,
)
from .errors import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    MaxIterations,
)
from .exponents import ExponentField
from .modular_spaces import luxemburg_norm, sobolev_norm

__all__ = [
    "GeometryReport",
    "SolveReport",
    "rayleigh_quotient_min",
    "find_negative_energy_point",
    "verify_mountain_geometry",
    "mountain_pass_solve",
    "multiplicity_search",
    "laplace_eigenbasis",
]


# -- Sobolev descent, eigenbasis, backtracking and Brent's root ---------------

def _sobolev_descent(mesh: Mesh, g: np.ndarray) -> np.ndarray:
    """-K^{-1} g on the interior vertices and 0 on the boundary, K the
    interior stiffness: the discrete H1_0 descent direction, solved with the
    mesh's one symmetric LU of K (``Mesh.interior_stiffness_lu``)."""
    d = np.zeros(mesh.n_vertices)
    d[mesh.interior] = -mesh.interior_stiffness_lu.solve(g[mesh.interior])
    return d


def _start_vector(n: int) -> np.ndarray:
    """Fixed ARPACK start vector, so eigensolves are deterministic."""
    return np.random.default_rng(0).standard_normal(n)


def laplace_eigenbasis(mesh: Mesh, k: int) -> list[GridFunction]:
    """First k Dirichlet eigenvectors of the constant-2 Laplacian.

    These span the nested subspaces used to seed the multiplicity search and
    provide smooth low-frequency probe directions.  They come from a sparse
    shift-invert eigensolve of the interior stiffness and mass pencil at
    shift 0, which inverts the stiffness with the mesh's one symmetric LU
    (``Mesh.interior_stiffness_lu``), and are normalized in the mass inner
    product; ARPACK finds at most n - 1 of n pairs, so a full basis takes
    its last vector as the mass-orthogonal complement of the others.  Signs
    are fixed so the entry of largest magnitude is positive.  Raises
    TypeError when k is not an integer and DomainError when it is negative
    or exceeds the number of interior vertices.
    """
    k = operator.index(k)
    _nonnegative("k", k)
    idx = mesh.interior
    n = len(idx)
    if k > n:
        raise DomainError(f"mesh has only {n} interior vertices")
    M = mesh.mass[np.ix_(idx, idx)].tocsc()
    vecs = np.empty((n, 0))
    if min(k, n - 1) > 0:
        OPinv = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=mesh.interior_stiffness_lu.solve, dtype=float)
        vals, vecs = scipy.sparse.linalg.eigsh(
            mesh.interior_stiffness, min(k, n - 1), M,
            sigma=0.0, OPinv=OPinv, v0=_start_vector(n),
        )
        vecs = vecs[:, np.argsort(vals)]
    if k == n:
        complement = np.linalg.qr(M @ vecs, mode="complete")[0][:, -1:]
        vecs = np.hstack([vecs, complement])
    basis = []
    for v in vecs.T:
        v = v * np.sign(v[np.argmax(np.abs(v))]) / np.sqrt(v @ (M @ v))
        nodal = np.zeros(mesh.n_vertices)
        nodal[idx] = v
        basis.append(GridFunction(mesh, nodal))
    return basis


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")


def _armijo(f, f0: float, slope: float, step: float) -> float | None:
    """Backtracking with Armijo's sufficient decrease: halve ``step`` until
    f(step) <= f0 + 1e-4 * step * slope and return it, or None once the step
    falls to 1e-16.  A NaN or +inf value of f never passes a finite bound."""
    while step > 1e-16:
        if f(step) <= f0 + 1e-4 * step * slope:
            return step
        step *= 0.5
    return None


_BRENT_RTOL = 4.0 * math.ulp(1.0)  # relative resolution of a Brent root
_BRENT_ITER = 100                   # iteration cap of a Brent root


def _brent_root(f, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """Root of f in the bracket [a, b], given fa = f(a) and fb = f(b).

    Brent's method (Brent 1973, ch. 4) as scipy's ``brentq.c`` runs it: the
    same arithmetic in the same order, with rtol = 4 eps, so it returns the
    same iterates and the same root.  An exactly zero end is returned as
    that end.  Raises DomainError for a NaN value of f or ends of one sign,
    and MaxIterations once _BRENT_ITER iterations are used up.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise DomainError(f"the function value at t = {x:.17g} is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"f has one sign at both ends of [{xpre:.17g}, {xcur:.17g}]: "
                          f"f(a) = {fpre:.6g}, f(b) = {fcur:.6g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise DomainError(f"the function value at t = {xcur:.17g} is NaN")
    raise MaxIterations(
        f"no root of f in [{a:.17g}, {b:.17g}] to xtol {xtol:g} within "
        f"{_BRENT_ITER} iterations (last iterate t = {xcur:.17g})"
    )


# -- Rayleigh quotient --------------------------------------------------------

_S_MAX = 6.0   # a ray search looks for the minimum of R(e^s u) on |s| <= _S_MAX
_S_TOL = 2e-12  # resolution in s of that minimum


def _ray_minimize(mesh: Mesh, p: ExponentField, nodal: np.ndarray) -> np.ndarray:
    """e^s u at the minimum of R(e^s u) over |s| <= _S_MAX, by ``_ray_scale``
    on the element data of raw nodal values."""
    at = _point(mesh, nodal)
    return _ray_scale(mesh, p, at.gmag, at.uc) * nodal


def _ray_scale(mesh: Mesh, p: ExponentField, gmag: np.ndarray, uc: np.ndarray) -> float:
    """e^s at the minimum of R(e^s u) over |s| <= _S_MAX, from |grad u| and
    the centroid values u_c of u; e^s u has the element data e^s |grad u|
    and e^s u_c.

    The minimum is the root of d ln R / ds on the ray's weights
    (``_rayleigh_ray_of_elements``), bracketed by the slopes at the ends of
    the interval and found by ``_brent_root``.  For constant p the slope is
    exactly 0, R is scale-free, and the scale is 1.  Raises MaxIterations
    when the slope keeps one sign over the interval: R then has no minimizer
    on the ray.
    """
    ray = _rayleigh_ray_of_elements(mesh, p, gmag, uc)

    def slope(s):
        return _rayleigh_on_ray(s, *ray)[1]

    lo, hi = slope(-_S_MAX), slope(_S_MAX)
    if lo == hi == 0.0:
        return 1.0
    if not lo < 0.0 < hi:
        toward = "0" if lo >= 0.0 else "infinity"
        raise MaxIterations(
            f"R decreases along the whole ray e^s u as u scales toward {toward} "
            f"(d ln R/ds = {lo:.3g} at s = -{_S_MAX:g}, {hi:.3g} at s = {_S_MAX:g}): "
            "it has no minimizer on the ray, and for non-monotone p the "
            "infimum of R can be 0"
        )
    return float(np.exp(_brent_root(slope, -_S_MAX, lo, _S_MAX, hi, _S_TOL)))


def rayleigh_quotient_min(
    p: ExponentField,
    mesh: Mesh,
    *,
    seed: int = 0,
    n_seeds: int = 3,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> tuple[float, GridFunction]:
    """Locally minimize R(u) = A(u) / I(1/p |u|^p) over nonzero functions.

    Preconditioned gradient descent on the ratio (quotient rule for its
    gradient) with backtracking, restarted from ``n_seeds`` positive random
    starts; the smallest converged value wins.  For constant p this is the
    classical p-Laplacian Rayleigh quotient.  After each accepted step the
    iterate is normalized in the stiffness norm and R is minimized exactly
    along its ray e^s u (``_ray_scale``); a random start is only normalized,
    from one gather, since the first step renormalizes anyway.

    Each step gathers the element data of the iterate u (``_point``) and of
    the direction d (``_sobolev_descent``) once, two sparse products each.
    The gradient of R, every Armijo trial (``_rayleigh_line``), the normalization
    (``_stiffness_norm``), the ray search and R at the new iterate come from
    those data by elementwise arithmetic; with the two adjoint products of
    the gradient a step makes six sparse products.  The data are gathered
    afresh at the start of every step, so no rounding carries over from
    one step to the next.  A start converges when R moves by at most
    ``tol`` (relative) twice in a row, the slope is no longer negative, or
    the line search stalls; MaxIterations is raised if every start uses up
    ``max_iter`` steps, and at once when R decreases along a whole ray
    (for non-monotone p the infimum can be 0, and no minimizer exists).
    A negative ``seed`` or ``max_iter``, an ``n_seeds`` below 1, or a
    ``tol`` that is not finite and positive is a DomainError.
    """
    _nonnegative("seed", seed)
    _nonnegative("max_iter", max_iter)
    if n_seeds < 1:
        raise DomainError(f"n_seeds must be at least 1, got {n_seeds}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    rng = np.random.default_rng(seed)
    idx = mesh.interior

    best = None
    for _ in range(n_seeds):
        nodal = np.zeros(mesh.n_vertices)
        nodal[idx] = 0.1 + rng.random(len(idx))
        at = _point(mesh, nodal)
        norm = _stiffness_norm(mesh, at.gmag)
        nodal /= norm
        R = _rayleigh_of_elements(mesh, p, at.gmag / norm, at.uc / norm)
        converged = False
        stable = 0
        for _ in range(max_iter):
            at = _point(mesh, nodal)
            grad = _rayleigh_gradient_of_elements(mesh, p, at)
            d = _sobolev_descent(mesh, grad)
            slope = float(np.dot(grad[idx], d[idx]))
            if slope >= 0.0:
                converged = True
                break
            step = min(1.0, _stiffness_norm(mesh, at.gmag) / np.sqrt(-slope))
            ratio, data = _rayleigh_line(mesh, p, at, d)
            step = _armijo(ratio, R, slope, step)
            if step is None:
                converged = True  # stalled at line-search resolution
                break
            gmag, uc = data(step)
            scale = 1.0 / _stiffness_norm(mesh, gmag)
            scale *= _ray_scale(mesh, p, scale * gmag, scale * uc)
            nodal = (nodal + step * d) * scale
            R_new = _rayleigh_of_elements(mesh, p, scale * gmag, scale * uc)
            stable = stable + 1 if abs(R - R_new) <= tol * max(1.0, abs(R_new)) else 0
            R = R_new
            if stable >= 2:
                converged = True
                break
        if converged and (best is None or R < best[0]):
            best = (R, nodal)

    if best is None:
        raise MaxIterations(f"no Rayleigh start converged within {max_iter} steps")
    return best[0], GridFunction(mesh, best[1])


# -- mountain-pass geometry ---------------------------------------------------

@dataclass(eq=False)
class GeometryReport:
    """Verified mountain-pass geometry: a sphere with a positive energy
    floor and a point beyond it with negative energy."""

    rho: float
    alpha: float
    directions_tested: int
    negative_point: GridFunction
    negative_energy: float


def _scale_until_negative(
    prob: KirchhoffProblem,
    nodal: np.ndarray,
    min_norm: float | None = None,
    max_doublings: int = 60,
) -> GridFunction:
    """The first t u, t = 1, 2, 4, ..., with J(t u) < 0 and norm t|u| above
    ``min_norm``; J from the ray's weights (``_energy_ray``), gathered once."""
    gmag, energy = _energy_ray(prob, nodal)
    norm = 0.0 if min_norm is None else luxemburg_norm(gmag, prob.p, prob.mesh)
    t = 1.0
    for _ in range(max_doublings + 1):
        if energy(t) < 0.0 and (min_norm is None or t * norm > min_norm):
            return GridFunction(prob.mesh, t * nodal)
        t *= 2.0
    raise MaxIterations(
        "energy stayed nonnegative after 60 doublings; "
        "check the superlinearity hypotheses and exponent chain"
    )


def find_negative_energy_point(
    prob: KirchhoffProblem, psi: GridFunction, min_norm: float | None = None
) -> GridFunction:
    """Double t from 1 until J(t*psi) < 0 and return e = t*psi.

    psi must be nonzero, nonnegative, and zero on the boundary.  Superlinear
    growth guarantees termination; MaxIterations after 60 doublings signals
    a hypothesis violation upstream.
    """
    if np.all(psi.nodal_values == 0.0):
        raise DomainError("psi must be nonzero")
    if np.any(psi.nodal_values < 0.0):
        raise DomainError("psi must be nonnegative")
    return _scale_until_negative(prob, psi.nodal_values, min_norm)


def verify_mountain_geometry(
    prob: KirchhoffProblem,
    rho_grid,
    n_dirs: int,
    seed: int = 0,
) -> GeometryReport:
    """Sample J on spheres of the given radii and certify the pass geometry.

    Directions mix a few deterministic low-frequency eigenvector probes with
    ``n_dirs`` random zero-trace draws, each gathered once (``_energy_ray``):
    J(rho u/|u|) at every radius follows from its weights and |u| from the
    same gradient magnitudes.  The largest radius whose sampled minimum is
    positive is selected and a negative-energy point beyond it is attached.
    Raises GeometryNotFound when every radius has a nonpositive sampled
    floor (or the grid is empty), and DomainError for a radius not finite
    and positive or a negative ``n_dirs`` or ``seed``."""
    prob.require_valid_chain()
    _nonnegative("n_dirs", n_dirs)
    _nonnegative("seed", seed)
    radii = np.sort(np.atleast_1d(np.asarray(rho_grid, dtype=float)))
    if radii.size == 0:
        raise GeometryNotFound("empty radius grid")
    for rho in radii:
        if not 0.0 < rho < np.inf:
            raise DomainError(f"radius {rho} must be finite and positive")
    rng = np.random.default_rng(seed)
    mesh, p = prob.mesh, prob.p

    n_probe = min(3, len(mesh.interior))
    directions = [d.nodal_values for d in laplace_eigenbasis(mesh, n_probe)]
    for _ in range(n_dirs):
        nodal = np.zeros(mesh.n_vertices)
        nodal[mesh.interior] = rng.standard_normal(len(mesh.interior))
        directions.append(nodal)

    floors = np.full(radii.size, np.inf)
    for nodal in directions:
        gmag, energy = _energy_ray(prob, nodal)
        floors = np.minimum(floors, energy(radii / luxemburg_norm(gmag, p, mesh)))
    positive = np.flatnonzero(floors > 0.0)
    if positive.size == 0:
        raise GeometryNotFound(
            f"no radius in {radii.tolist()} had a positive sampled floor"
        )
    rho, alpha = float(radii[positive[-1]]), float(floors[positive[-1]])

    psi = directions[0]  # the ground eigenvector
    e = _scale_until_negative(prob, np.abs(psi), min_norm=rho)  # one-signed
    return GeometryReport(
        rho=rho,
        alpha=alpha,
        directions_tested=len(directions),
        negative_point=e,
        negative_energy=energy_J(e, prob),
    )


# -- mountain-pass solve ------------------------------------------------------

@dataclass(eq=False)
class SolveReport:
    """Outcome of one mountain-pass solve.

    ``iterations`` counts path sweeps, 0 when Newton certifies from the
    first path's peak, and ``newton_steps`` the accepted Newton steps, over
    all polish attempts, discarded ones included.  ``path_energies`` is the
    monotone record of path maxima (the running minimax estimate, an upper
    bound for ``energy``); ``iteration_trace`` holds one raw row per path
    peak, ``iterations + 1`` in all (iteration, path-max energy, residual,
    A(u), K(u)), emitted as CSV.  ``morse_index`` is the
    number of negative eigenvalues of the pencil (J''(u), interior
    stiffness) at the solution, counted by inertia from a symmetric LU of
    the sparse part of J'' and cross-checked by ARPACK (``_morse``), and
    ``lowest_eigenvalues`` its two lowest eigenvalues; both are None where
    J'' does not exist (an exponent below 2 at a vanishing gradient on an
    element with an interior vertex).  The index is reported, not gated on.
    ``below_ps_ceiling`` is true iff ``energy`` is strictly below the
    compactness ceiling a^2/(2b).
    """

    solution: GridFunction
    energy: float
    residual_norm: float
    nonlocal_coefficient: float
    below_ps_ceiling: bool
    iterations: int
    path_energies: list[float]
    iteration_trace: list[tuple[int, float, float, float, float]]
    newton_steps: int = 0
    morse_index: int | None = None
    lowest_eigenvalues: tuple[float, ...] | None = None


_CANDIDATES = 5     # equispaced points of a cell evaluated in one batch
_T_TOL = 1e-12      # resolution in t of a segment maximum
_NEWTON_STEPS = 20  # Newton steps per polish attempt


def _segment_max(prob: KirchhoffProblem, ua: np.ndarray, ub: np.ndarray):
    """Maximize J along the segment ua + t (ub - ua); return (point, J).

    J and its slope are evaluated at five equispaced candidates of a cell,
    first [0, 1], in one batched call.  The slope at the best candidate
    points to the side of the maximum:

    * if it vanishes, or points out of the cell at one of its ends (at the
      segment's ends: the maximum is that endpoint), that candidate is
      returned, an endpoint bitwise as ``ua`` or ``ub``;
    * if it changes sign across the neighbouring cell, the root of dJ/dt
      there is the maximum, found by ``_brent_root`` to 1e-12 in t from
      the batch's slopes at the cell's ends;
    * otherwise the neighbouring cell holds a maximum without a sign change
      at its ends, and it is searched the same way.
    """
    delta = ub - ua
    line = _line_energy(prob, ua, delta)
    lo, hi = 0.0, 1.0
    while True:
        t = np.linspace(lo, hi, _CANDIDATES)
        J, dJ = line(t)
        k = int(np.argmax(J))
        step = int(np.sign(dJ[k]))
        j = k + step
        if step == 0 or not 0 <= j < _CANDIDATES:
            break
        (lo, f_lo), (hi, f_hi) = sorted(((t[k], dJ[k]), (t[j], dJ[j])))
        if dJ[j] * step <= 0.0:
            root = _brent_root(lambda s: line(s)[1], lo, f_lo, hi, f_hi, _T_TOL)
            return ua + root * delta, float(line(root)[0])
        if hi - lo <= _T_TOL:
            break
    best = t[k]
    point = ua.copy() if best == 0.0 else ub.copy() if best == 1.0 else ua + best * delta
    return point, float(J[k])


def _newton_direction(S, dA: np.ndarray, b: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (S - b dA dA^T) d = rhs with one sparse LU of S (``_splu``) and
    the Sherman-Morrison formula for the rank-one term.  Raises RuntimeError
    when S or the rank-one update is singular."""
    lu = _splu(S)
    y, z = lu.solve(rhs), lu.solve(dA)
    denom = 1.0 - b * float(dA @ z)
    if not (np.isfinite(denom) and denom != 0.0):
        raise RuntimeError("the rank-one update makes J'' singular")
    return y + z * (b * float(dA @ y) / denom)


def _newton_polish(prob, at: _Point, g: np.ndarray, res: float, tol: float):
    """Newton's method on J'(u) = 0 from the point ``at``, where J'(u) = g
    has residual res.

    Each step solves J''(u) d = -J'(u) on the interior vertices and halves
    the step (``_armijo`` on res^2/2, whose slope along d is -res^2) until
    K > 0 and the residual falls; a trial with K <= 0 is never accepted.
    The start comes with its element data, so only the trials are gathered,
    once each (``_point``).  Returns (point, residual, A, steps) once the
    residual is at most tol, or (None, None, None, steps) when the attempt
    cannot certify: J'' is undefined or singular, no step decreases the
    residual, or _NEWTON_STEPS run out.  ``steps`` counts the accepted
    steps.  The point, any nearby critical point, keeps its element data;
    the caller checks its level.
    """
    mesh, idx = prob.mesh, prob.mesh.interior
    trials = {}

    def merit(t):
        trial = _point(mesh, at.nodal + t * d)
        grad, A = _residual_of_elements(prob, trial)
        if not prob.a - prob.b * A > 0.0:
            return np.inf
        r = float(np.linalg.norm(grad[idx]))
        trials[t] = (trial, grad, r, A)
        return 0.5 * r * r

    steps = 0
    while steps < _NEWTON_STEPS:
        d = np.zeros(mesh.n_vertices)
        try:
            S, dA = _hessian_of_elements(prob, at)
            d[idx] = _newton_direction(S, dA, prob.b, -g[idx])
        except (DomainError, RuntimeError):
            break
        t = _armijo(merit, 0.5 * res * res, -res * res, 1.0)
        if t is None:
            break
        at, g, res, A = trials.pop(t)
        steps += 1
        if res <= tol:
            return at, res, A, steps
        trials.clear()
    return None, None, None, steps


def _inertia_index(S, dA: np.ndarray, b: float) -> int | None:
    """The number of negative eigenvalues of S - b dA dA^T, by inertia.

    When the symmetric LU of S (``_splu``) keeps its row order equal to its
    column order, P S P^T = L U with U = D L^T, so by Sylvester's law S has
    as many negative eigenvalues as D = diag(U).  The bordered matrix
    [[S, dA], [dA^T, 1/b]] has S - b dA dA^T as the Schur complement of
    1/b > 0 and 1/b - dA^T S^{-1} dA as that of S, so by Haynsworth's
    inertia additivity the count is neg(D) + [1 - b dA^T S^{-1} dA < 0].
    Returns None when S is singular, the LU pivots off the diagonal, or the
    rank-one term is not finite.
    """
    try:
        lu = _splu(S)
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    schur = 1.0 - b * float(dA @ lu.solve(dA))
    if not np.isfinite(schur):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0)) + int(schur < 0.0)


def _morse(prob: KirchhoffProblem, at: _Point) -> tuple:
    """(index, two lowest eigenvalues) of the pencil (J''(u), stiffness) on
    the interior vertices at the point ``at``, or (None, None) where J''
    does not exist.

    The stiffness is positive definite, so the index is the number of
    negative eigenvalues of J'' itself, which ``_inertia_index`` counts from
    one symmetric LU of its sparse part.  One ARPACK call then finds the two lowest
    eigenvalues (with two interior vertices, the lowest and the largest),
    inverting the stiffness with ``Mesh.interior_stiffness_lu``, and the
    number of negatives among them must equal min(index, 2).  When the
    inertia is unavailable or that cross-check fails, ARPACK finds the k
    lowest eigenvalues, k = 2, 4, 8, ... until one is nonnegative; it finds
    at most n - 1 of n, so when all of those are negative the largest
    eigenvalue decides the last.
    """
    try:
        S, dA = _hessian_of_elements(prob, at)
    except DomainError:
        return None, None
    n = S.shape[0]
    stiff = prob.mesh.interior_stiffness
    if n == 1:
        vals = np.array([(S[0, 0] - prob.b * dA[0] ** 2) / stiff[0, 0]])
        return int(vals[0] < 0.0), (float(vals[0]),)
    H = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: S @ v - prob.b * dA * (dA @ v), dtype=float)
    Minv = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=prob.mesh.interior_stiffness_lu.solve, dtype=float)

    def lowest(k, which="SA"):
        return np.sort(scipy.sparse.linalg.eigsh(
            H, k, stiff, which=which, Minv=Minv, v0=_start_vector(n),
            return_eigenvectors=False))

    k = min(2, n - 1)
    vals = lowest(k)
    index = _inertia_index(S, dA, prob.b)
    if index is not None:
        if k == 1:
            vals = np.append(vals, lowest(1, "LA"))
        if np.count_nonzero(vals < 0.0) == min(index, 2):
            return index, tuple(float(v) for v in vals)
        vals = vals[:k]
    while vals[-1] < 0.0 and k < n - 1:
        k = min(2 * k, n - 1)
        vals = lowest(k)
    index = int(np.sum(vals < 0.0))
    if index == n - 1:
        vals = np.append(vals, lowest(1, "LA"))
        index += int(vals[-1] < 0.0)
    return index, tuple(float(v) for v in vals[:2])


def mountain_pass_solve(
    prob: KirchhoffProblem,
    e: GridFunction,
    *,
    n_path: int = 31,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> SolveReport:
    """Deform a discrete path from 0 to e until its peak is a critical point.

    Each sweep locates the maximal-energy point along the current polyline
    (continuously, on the segments adjacent to the vertex maximum).  The
    solve terminates when the interior l2 residual there is at most ``tol``.

    From the first sweep on, the peak is handed to a Newton polish on the
    exact sparse Hessian (``_newton_polish``), which returns as soon as its
    residual is at most ``tol``.  Its point is accepted only if its energy
    is at most J_peak, the energy of the path peak it started from: any
    path's peak bounds the mountain-pass level from above.  An attempt that
    cannot certify, or lands above J_peak, is discarded, and the next waits
    until the peak residual has fallen another decade.  Meanwhile the sweep
    takes a backtracking descent step at the peak along the preconditioned
    negative gradient and pulls the neighboring path points toward it.
    ``iterations`` counts these steps and ``newton_steps`` the accepted
    Newton steps; the trace holds one row per peak.  The solution's Morse
    index is computed last (``_morse``).

    Path-point energies are cached: J(t e) on the first path comes from e's
    ray (``_energy_ray``), and after each sweep only the updated points (the
    peak's vertex and its interior neighbors) are re-evaluated, so a solve
    makes at most ``1 + 3 * iterations`` calls to ``energy_J``.  The segment
    maxima and the line search evaluate J through its restriction to a line,
    gathered once per segment: one batched evaluation of J and its exact
    slope dJ/dt at five candidates and, when the maximum lies inside the
    segment, the root of dJ/dt in the bracketing cell.  A peak or Newton
    trial is gathered once (``_point``), and the Newton polish starts from
    the peak's point; A, K, J, J' and J'' there, the energy guard and the
    Morse index included, come from its element data.

    Raises DegenerateCoefficient the moment the nonlocal coefficient
    K(u) = a - b*A(u) is nonpositive at a sweep's peak (the operator loses
    its coercive sign there, which this solver refuses to hide; a Newton
    trial with K <= 0 is backtracked instead), MaxIterations if the sweep
    or line-search budget runs out, and DomainError for a negative
    ``max_iter`` or a ``tol`` that is not finite and positive.
    """
    prob.require_valid_chain()
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    mesh = prob.mesh
    J_e = energy_J(e, prob)
    if not J_e < 0.0:
        raise DomainError("e must have negative energy; run the geometry check")
    if n_path < 3:
        raise DomainError("need at least 3 path points")
    _nonnegative("max_iter", max_iter)
    idx = mesh.interior

    ts = np.linspace(0.0, 1.0, n_path)
    path = [t * e.nodal_values for t in ts]
    path_energies: list[float] = []
    trace: list[tuple[int, float, float, float, float]] = []
    record = np.inf
    newton_from, newton_steps = np.inf, 0

    def report(point, energy, res, K, sweeps):
        morse_index, lowest = _morse(prob, point)
        return SolveReport(
            solution=GridFunction(mesh, point.nodal),
            energy=energy,
            residual_norm=res,
            nonlocal_coefficient=K,
            below_ps_ceiling=energy < prob.ps_ceiling,
            iterations=sweeps,
            path_energies=path_energies,
            iteration_trace=trace,
            newton_steps=newton_steps,
            morse_index=morse_index,
            lowest_eigenvalues=lowest,
        )

    # J(0) = 0 and J(e) are known; J(t e) at the other points from e's ray
    energies = [0.0, *_energy_ray(prob, e.nodal_values)[1](ts[1:-1]), J_e]
    for it in range(max_iter):
        m = 1 + int(np.argmax(energies[1:-1]))
        # continuous peak along the two segments adjacent to the vertex max
        lo = _segment_max(prob, path[m - 1], path[m])
        hi = _segment_max(prob, path[m], path[m + 1])
        peak, J_peak = lo if lo[1] >= hi[1] else hi

        at = _point(mesh, peak)
        g, A = _residual_of_elements(prob, at)
        K = prob.a - prob.b * A
        if K <= 0.0:
            raise DegenerateCoefficient(
                f"nonlocal coefficient K = {K:.6g} <= 0 at the current iterate"
            )
        res = float(np.linalg.norm(g[idx]))

        record = min(record, J_peak)
        path_energies.append(record)
        trace.append((it, J_peak, res, A, K))

        if res <= tol:
            return report(at, J_peak, res, K, it)
        if res <= newton_from:
            point, res_n, A_n, steps = _newton_polish(prob, at, g, res, tol)
            newton_steps += steps
            if point is not None:
                J_u = float(_energy_of_elements(prob, A_n, point.uc))
                if J_u <= J_peak:  # a critical point no higher than the path's peak
                    return report(point, J_u, res_n, prob.a - prob.b * A_n, it)
            newton_from = res / 10.0  # retry one decade further down

        d = _sobolev_descent(mesh, g)
        slope = float(np.dot(g[idx], d[idx]))
        # keep the deformation local: never step past the neighbor spacing,
        # otherwise the peak can vault the ridge into the far valley
        spacing = max(_stiffness_norm(mesh, _point(mesh, v).gmag)
                      for v in (peak - path[m - 1], path[m + 1] - peak))
        d_norm = np.sqrt(-slope)
        step = min(1.0, spacing / d_norm) if d_norm > 0.0 else 1.0
        J_ray = _line_energy(prob, peak, d)
        step = _armijo(lambda s: J_ray(s)[0], J_peak, slope, step)
        if step is None:
            raise MaxIterations(
                f"line search stalled at residual {res:.3e} (tol {tol:g})"
            )
        new = peak + step * d
        path[m] = new
        energies[m] = energy_J(GridFunction(mesh, new), prob)
        for j in (m - 1, m + 1):
            if 0 < j < n_path - 1:
                path[j] = 0.5 * (path[j] + new)
                energies[j] = energy_J(GridFunction(mesh, path[j]), prob)

    raise MaxIterations(f"no convergence within {max_iter} sweeps")


# -- multiplicity -------------------------------------------------------------

def multiplicity_search(
    prob: KirchhoffProblem,
    *,
    n_starts: int = 8,
    k_max: int = 4,
    distinct_tol: float = 1e-3,
    seed: int = 0,
    n_path: int = 31,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> list[SolveReport]:
    """Mountain-pass solves from nested eigen-subspace seeds, one per orbit.

    Requires a >= b and an odd nonlinearity (every cataloged kind is odd),
    a nonnegative seed and n_starts, 0 <= distinct_tol < inf, and
    k_max >= 1 when n_starts > 0 (DomainError otherwise, as for a bad
    ``tol``).  The first
    min(k_max, n_starts) starts are the pure eigenvector directions; the
    rest draw random combinations from the nested spans.
    Starts whose solve fails (MaxIterations, DegenerateCoefficient) are
    skipped; if every start fails, the last failure's type is raised with
    each start's index, exception type and message.  Solutions are
    deduplicated under u -> -u using ``distinct_tol`` in the Sobolev norm
    and returned sorted by increasing energy (ties broken by start index).
    """
    prob.require_valid_chain()
    if not prob.a >= prob.b:
        raise DomainError("multiplicity search requires a >= b")
    _nonnegative("seed", seed)
    _nonnegative("n_starts", n_starts)
    if not 0.0 <= distinct_tol < np.inf:
        raise DomainError(f"distinct_tol must be finite and nonnegative, got {distinct_tol}")
    results = []
    if n_starts == 0:
        return results
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    rng = np.random.default_rng(seed)
    basis = laplace_eigenbasis(prob.mesh, k_max)
    failures = []

    for i in range(n_starts):
        if i < k_max:
            nodal = basis[i].nodal_values.copy()
        else:
            k = 1 + (i % k_max)
            coeffs = rng.standard_normal(k)
            nodal = sum(c * b.nodal_values for c, b in zip(coeffs, basis))
        nrm = sobolev_norm(GridFunction(prob.mesh, nodal), prob.p)
        if nrm == 0.0:
            continue
        try:
            e = _scale_until_negative(prob, nodal / nrm)
            report = mountain_pass_solve(
                prob, e, n_path=n_path, tol=tol, max_iter=max_iter
            )
        except (MaxIterations, DegenerateCoefficient) as exc:
            failures.append((i, exc))
            continue
        results.append((report.energy, i, report))
    if failures and not results:
        causes = "; ".join(f"start {i}: {type(exc).__name__}: {exc}"
                           for i, exc in failures)
        last = failures[-1][1]
        raise type(last)(f"every start failed: {causes}") from last

    results.sort(key=lambda item: (item[0], item[1]))

    def orbit_distance(u, v):  # the Sobolev distance from u to v or -v
        return min(sobolev_norm(GridFunction(prob.mesh, w), prob.p)
                   for w in (u - v, u + v))

    distinct: list[SolveReport] = []
    for _, _, rep in results:
        u = rep.solution.nodal_values
        if all(orbit_distance(u, kept.solution.nodal_values) > distinct_tol
               for kept in distinct):
            distinct.append(rep)
    return distinct
