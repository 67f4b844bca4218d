"""Critical-point machinery: Rayleigh quotients, mountain-pass geometry,
the path-deformation solver, and a finite-dimensional multiplicity search.

The solver deforms a discrete path from 0 to a low-energy point e: locate
the maximal-energy point along the polyline, take a descent step there, and
locally redistribute neighboring path points toward it.  Descent directions
are preconditioned with the constant-exponent stiffness (a discrete Sobolev
gradient), which keeps iteration counts mesh-independent; the reported
residual stays the plain interior l2 norm of the assembled derivative.

The multiplicity search runs its starts one after another, in start-index
order, and merges results deterministically by (energy, start-index) order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.optimize import brentq, minimize_scalar

from .discretization import GridFunction, Mesh, element_gradients
from .energy import (
    KirchhoffProblem,
    _derivative_terms,
    _energy_of_elements,
    _g,
    _p_integral,
    _positive_power,
    energy_J,
    gradient_J,
    kirchhoff_A,
)
from .errors import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    MaxIterations,
)
from .exponents import ExponentField
from .modular_spaces import sobolev_norm

__all__ = [
    "GeometryReport",
    "SolveReport",
    "rayleigh_quotient_min",
    "find_negative_energy_point",
    "verify_mountain_geometry",
    "mountain_pass_solve",
    "multiplicity_search",
    "ps_threshold_check",
    "laplace_eigenbasis",
]


# -- Sobolev preconditioner and eigenbasis ------------------------------------

class _SobolevPreconditioner:
    """Riesz map for the discrete H1_0 inner product on interior vertices."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        idx = mesh.interior
        K = mesh.stiffness[np.ix_(idx, idx)].tocsc()
        self._solve = scipy.sparse.linalg.factorized(K)

    def apply(self, nodal: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_vertices)
        out[self.mesh.interior] = self._solve(nodal[self.mesh.interior])
        return out

    def h_norm(self, nodal: np.ndarray) -> float:
        """Norm induced by the constant-exponent stiffness."""
        return float(np.sqrt(max(nodal @ (self.mesh.stiffness @ nodal), 0.0)))


def laplace_eigenbasis(mesh: Mesh, k: int) -> list[GridFunction]:
    """First k Dirichlet eigenvectors of the constant-2 Laplacian.

    These span the nested subspaces used to seed the multiplicity search and
    provide smooth low-frequency probe directions.  Signs are fixed so the
    entry of largest magnitude is positive.
    """
    idx = mesh.interior
    if k > len(idx):
        raise DomainError(f"mesh has only {len(idx)} interior vertices")
    Kd = mesh.stiffness[np.ix_(idx, idx)].toarray()
    Md = mesh.mass[np.ix_(idx, idx)].toarray()
    _, vecs = scipy.linalg.eigh(Kd, Md)
    basis = []
    for j in range(k):
        v = vecs[:, j]
        v = v * np.sign(v[np.argmax(np.abs(v))])
        nodal = np.zeros(mesh.n_vertices)
        nodal[idx] = v
        basis.append(GridFunction(mesh, nodal))
    return basis


# -- Rayleigh quotient --------------------------------------------------------

def _rayleigh_ratio(mesh: Mesh, p: ExponentField, nodal: np.ndarray) -> float:
    """R(u) = A(u) / B(u) at raw nodal values; no derivative is assembled."""
    meas = mesh.element_measures
    A = _p_integral(np.linalg.norm(element_gradients(mesh, nodal), axis=1), p, meas)
    return float(A / _p_integral(np.abs(mesh.centroid_map @ nodal), p, meas))


def _rayleigh_gradient(mesh: Mesh, p: ExponentField, nodal: np.ndarray) -> np.ndarray:
    """R'(u) = (A'(u) - R(u) B'(u)) / B(u), zero on the boundary."""
    meas = mesh.element_measures
    A, flux, uc, s_pow = _derivative_terms(mesh, p, nodal)
    B = _p_integral(np.abs(uc), p, meas)
    grad = (mesh.gradient_adjoint @ flux
            - (A / B) * (mesh.centroid_adjoint @ (s_pow * meas))) / B
    grad[mesh.boundary_mask] = 0.0
    return grad


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
    starts; the smallest attained value wins.  For constant p this is the
    classical p-Laplacian Rayleigh quotient.  Raises MaxIterations if every
    start stalls above tolerance.
    """
    rng = np.random.default_rng(seed)
    precond = _SobolevPreconditioner(mesh)
    idx = mesh.interior

    def ray_minimize(nodal):
        # exact minimization along the ray t*u; a no-op for constant p,
        # where the ratio is scale-free
        res = minimize_scalar(
            lambda s: _rayleigh_ratio(mesh, p, np.exp(s) * nodal),
            bounds=(-6.0, 6.0), method="bounded", options={"xatol": 1e-10},
        )
        return np.exp(res.x) * nodal

    best = None
    for _ in range(n_seeds):
        nodal = np.zeros(mesh.n_vertices)
        nodal[idx] = 0.1 + rng.random(len(idx))
        nodal /= precond.h_norm(nodal)
        nodal = ray_minimize(nodal)
        R = _rayleigh_ratio(mesh, p, nodal)
        converged = False
        stable = 0
        for _ in range(max_iter):
            grad = _rayleigh_gradient(mesh, p, nodal)
            d = -precond.apply(grad)
            slope = float(np.dot(grad[idx], d[idx]))
            if slope >= 0.0:
                converged = True
                break
            step = min(1.0, precond.h_norm(nodal) / np.sqrt(-slope))
            accepted = None
            while step > 1e-16:
                trial = nodal + step * d
                Rt = _rayleigh_ratio(mesh, p, trial)
                if np.isfinite(Rt) and Rt <= R + 1e-4 * step * slope:
                    accepted = trial
                    break
                step *= 0.5
            if accepted is None:
                converged = True  # stalled at line-search resolution
                break
            nodal = accepted / precond.h_norm(accepted)
            nodal = ray_minimize(nodal)
            R_new = _rayleigh_ratio(mesh, p, nodal)
            stable = stable + 1 if abs(R - R_new) <= tol * max(1.0, abs(R_new)) else 0
            R = R_new
            if stable >= 2:
                converged = True
                break
        if converged and (best is None or R < best[0]):
            best = (R, nodal)

    if best is None:
        raise MaxIterations("Rayleigh descent stalled above tolerance on all seeds")
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
    t = 1.0
    for _ in range(max_doublings + 1):
        cand = GridFunction(prob.mesh, t * nodal)
        if energy_J(cand, prob) < 0.0 and (
            min_norm is None or sobolev_norm(cand, prob.p) > min_norm
        ):
            return cand
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
    ``n_dirs`` random zero-trace draws, all normalized to unit Sobolev norm.
    The largest radius whose sampled minimum is positive is selected and a
    negative-energy point beyond it is attached.  Raises GeometryNotFound
    when every radius has a nonpositive sampled floor (or the grid is empty).
    """
    prob.require_valid_chain()
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if rho_grid.size == 0:
        raise GeometryNotFound("empty radius grid")
    rng = np.random.default_rng(seed)
    mesh = prob.mesh

    n_probe = min(3, len(mesh.interior))
    directions = laplace_eigenbasis(mesh, n_probe)
    for _ in range(n_dirs):
        nodal = np.zeros(mesh.n_vertices)
        nodal[mesh.interior] = rng.standard_normal(len(mesh.interior))
        directions.append(GridFunction(mesh, nodal))
    unit = []
    for d in directions:
        nrm = sobolev_norm(d, prob.p)
        unit.append(d.nodal_values / nrm)

    best = None
    for rho in np.sort(rho_grid):
        alpha = min(
            energy_J(GridFunction(mesh, rho * nodal), prob) for nodal in unit
        )
        if alpha > 0.0:
            best = (float(rho), float(alpha))
    if best is None:
        raise GeometryNotFound(
            f"no radius in {rho_grid.tolist()} had a positive sampled floor"
        )
    rho, alpha = best

    psi = directions[0]  # the ground eigenvector
    if np.any(psi.nodal_values < 0.0):  # discrete ground state is one-signed
        psi = GridFunction(mesh, np.abs(psi.nodal_values))
    e = _scale_until_negative(prob, psi.nodal_values, min_norm=rho)
    return GeometryReport(
        rho=rho,
        alpha=alpha,
        directions_tested=len(unit),
        negative_point=e,
        negative_energy=energy_J(e, prob),
    )


# -- mountain-pass solve ------------------------------------------------------

@dataclass(eq=False)
class SolveReport:
    """Outcome of one mountain-pass solve.

    ``path_energies`` is the monotone record of path maxima (the running
    minimax estimate); ``iteration_trace`` holds the raw per-iteration rows
    (iteration, path-max energy, residual, A(u), K(u)) emitted as CSV.
    """

    solution: GridFunction
    energy: float
    residual_norm: float
    nonlocal_coefficient: float
    below_ps_ceiling: bool
    iterations: int
    path_energies: list[float]
    iteration_trace: list[tuple[int, float, float, float, float]]


def _line_energy(prob: KirchhoffProblem, base: np.ndarray, direction: np.ndarray):
    """J and its slope dJ/dt along the line base + t*direction.

    Returns a function of a scalar or 1-D array ``t`` that gives the pair
    (J(t), J'(t)) in the shape of ``t``, from one elementwise pass over the
    stack.  The element gradients and centroid values of ``base`` and
    ``direction`` are gathered once, together with the per-element products
    g0.g0, g0.dg and dg.dg of their gradients, so |grad u(t)|^2 is a
    quadratic in t.  Zero trace is checked once, on both vectors: every
    point of the line inherits it exactly.  The slope is exact:

        J'(t) = K(t) A'(t) - I((lambda |u_c|^{p-2} u_c + g(x, u_c)) dc),

    with K(t) = a - b*A(t), A'(t) = I(|grad u|^{p-2} grad u . grad d) and dc
    the centroid values of the direction.
    """
    mesh = prob.mesh
    pv, meas = prob.p.values, mesh.element_measures
    for nodal in (base, direction):
        if np.any(nodal[mesh.boundary_mask] != 0.0):
            raise DomainError("path points must have zero boundary trace")
    g0, dg = (element_gradients(mesh, v) for v in (base, direction))
    c0, dc = (mesh.centroid_map @ v for v in (base, direction))
    g0g0, g0dg, dgdg = (np.einsum("ed,ed->e", x, y)
                        for x, y in ((g0, g0), (g0, dg), (dg, dg)))
    dc_meas = dc * meas

    def evaluate(t):
        t = np.asarray(t, dtype=float)[..., None]
        gdot = g0dg + t * dgdg  # grad u(t) . grad d
        gmag = np.sqrt(np.maximum(g0g0 + t * (g0dg + gdot), 0.0))
        uc = c0 + t * dc
        A = _p_integral(gmag, prob.p, meas)
        dA = np.dot(_positive_power(gmag, pv - 2.0) * gdot, meas)
        lumped = prob.lam * _positive_power(np.abs(uc), pv - 2.0) * uc + _g(prob.g, uc)
        slope = (prob.a - prob.b * A) * dA - np.dot(lumped, dc_meas)
        return _energy_of_elements(prob, A, uc), slope

    return evaluate


_CANDIDATES = 5     # equispaced points of a cell evaluated in one batch
_T_TOL = 1e-12      # resolution in t of a segment maximum


def _segment_max(prob: KirchhoffProblem, ua: np.ndarray, ub: np.ndarray):
    """Maximize J along the segment ua + t (ub - ua); return (point, J).

    J and its slope are evaluated at five equispaced candidates of a cell,
    first [0, 1], in one batched call.  The slope at the best candidate
    points to the side of the maximum:

    * if it vanishes, or points out of the cell at one of its ends (at the
      segment's ends: the maximum is that endpoint), that candidate is
      returned, an endpoint bitwise as ``ua`` or ``ub``;
    * if it changes sign across the neighbouring cell, the root of dJ/dt
      there is the maximum, found by ``brentq`` to 1e-12 in t;
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
        lo, hi = sorted((t[k], t[j]))
        if dJ[j] * step <= 0.0:
            # brentq first evaluates both ends, which this batch already did
            ends = {t[k]: dJ[k], t[j]: dJ[j]}
            root = brentq(lambda s: ends[s] if s in ends else line(s)[1],
                          lo, hi, xtol=_T_TOL)
            return ua + root * delta, float(line(root)[0])
        if hi - lo <= _T_TOL:
            break
    best = t[k]
    point = ua.copy() if best == 0.0 else ub.copy() if best == 1.0 else ua + best * delta
    return point, float(J[k])


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
    (continuously, on the segments adjacent to the vertex maximum), takes a
    backtracking descent step there along the preconditioned negative
    gradient, and pulls the neighboring path points toward the new peak.
    Terminates when the interior l2 residual at the peak drops to ``tol``.

    Path-point energies are evaluated once and cached; after each sweep only
    the updated points (the peak's vertex and its interior neighbors) are
    re-evaluated.  The segment maxima and the line search evaluate J through
    its restriction to a line, whose element data is gathered once per
    segment, so a solve makes at most ``n_path + 1 + 3 * iterations`` calls
    to ``energy_J``.  A segment maximum comes from one batched evaluation of
    J and its exact slope dJ/dt at five candidates and, when it lies inside
    the segment, from the root of dJ/dt in the bracketing cell.

    Raises DegenerateCoefficient the moment the nonlocal coefficient
    K(u) = a - b*A(u) is nonpositive at the current iterate (the operator
    loses its coercive sign there, which this solver refuses to hide), and
    MaxIterations if the sweep or line-search budget runs out.
    """
    prob.require_valid_chain()
    mesh = prob.mesh
    if not energy_J(e, prob) < 0.0:
        raise DomainError("e must have negative energy; run the geometry check")
    if n_path < 3:
        raise DomainError("need at least 3 path points")
    precond = _SobolevPreconditioner(mesh)
    idx = mesh.interior

    ts = np.linspace(0.0, 1.0, n_path)
    path = [t * e.nodal_values for t in ts]
    path_energies: list[float] = []
    trace: list[tuple[int, float, float, float, float]] = []
    record = np.inf

    def energy_at(nodal):
        return energy_J(GridFunction(mesh, nodal), prob)

    energies = [energy_at(nodal) for nodal in path]
    for it in range(max_iter):
        m = 1 + int(np.argmax(energies[1:-1]))
        # continuous peak along the two segments adjacent to the vertex max
        lo = _segment_max(prob, path[m - 1], path[m])
        hi = _segment_max(prob, path[m], path[m + 1])
        peak, J_peak = lo if lo[1] >= hi[1] else hi

        u_peak = GridFunction(mesh, peak)
        A = kirchhoff_A(u_peak, prob.p)
        K = prob.a - prob.b * A
        if K <= 0.0:
            raise DegenerateCoefficient(
                f"nonlocal coefficient K = {K:.6g} <= 0 at the current iterate"
            )
        g = gradient_J(u_peak, prob)
        res = float(np.linalg.norm(g.nodal_values[idx]))

        record = min(record, J_peak)
        path_energies.append(record)
        trace.append((it, J_peak, res, A, K))

        if res <= tol:
            return SolveReport(
                solution=u_peak,
                energy=J_peak,
                residual_norm=res,
                nonlocal_coefficient=K,
                below_ps_ceiling=J_peak < prob.ps_ceiling,
                iterations=it,
                path_energies=path_energies,
                iteration_trace=trace,
            )

        d = -precond.apply(g.nodal_values)
        slope = float(np.dot(g.nodal_values[idx], d[idx]))
        # keep the deformation local: never step past the neighbor spacing,
        # otherwise the peak can vault the ridge into the far valley
        spacing = max(
            precond.h_norm(peak - path[m - 1]),
            precond.h_norm(path[m + 1] - peak),
        )
        d_norm = np.sqrt(-slope)
        step = min(1.0, spacing / d_norm) if d_norm > 0.0 else 1.0
        J_ray = _line_energy(prob, peak, d)
        while step > 1e-16 and not J_ray(step)[0] <= J_peak + 1e-4 * step * slope:
            step *= 0.5
        if not step > 1e-16:
            raise MaxIterations(
                f"line search stalled at residual {res:.3e} (tol {tol:g})"
            )
        new = peak + step * d
        path[m] = new
        energies[m] = energy_at(new)
        for j in (m - 1, m + 1):
            if 0 < j < n_path - 1:
                path[j] = 0.5 * (path[j] + new)
                energies[j] = energy_at(path[j])

    raise MaxIterations(f"no convergence within {max_iter} sweeps")


def ps_threshold_check(report: SolveReport, prob: KirchhoffProblem) -> bool:
    """True iff the reported level sits strictly below a^2/(2b)."""
    return report.energy < prob.ps_ceiling


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

    Requires a >= b and an odd nonlinearity (every cataloged kind is odd).
    The first min(k_max, n_starts) starts are the pure eigenvector
    directions; the rest draw random combinations from the nested spans.
    Starts whose solve fails are skipped; solutions are deduplicated under
    u -> -u using ``distinct_tol`` in the Sobolev norm and returned sorted
    by increasing energy (ties broken by start index).
    """
    prob.require_valid_chain()
    if not prob.a >= prob.b:
        raise DomainError("multiplicity search requires a >= b")
    results = []
    if n_starts <= 0:
        return results
    rng = np.random.default_rng(seed)
    basis = laplace_eigenbasis(prob.mesh, k_max)

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
        except (MaxIterations, DegenerateCoefficient):
            continue
        results.append((report.energy, i, report))

    results.sort(key=lambda item: (item[0], item[1]))
    distinct: list[SolveReport] = []
    for _, _, rep in results:
        is_new = True
        for kept in distinct:
            diff = GridFunction(
                prob.mesh, rep.solution.nodal_values - kept.solution.nodal_values
            )
            summ = GridFunction(
                prob.mesh, rep.solution.nodal_values + kept.solution.nodal_values
            )
            dist = min(sobolev_norm(diff, prob.p), sobolev_norm(summ, prob.p))
            if dist <= distinct_tol:
                is_new = False
                break
        if is_new:
            distinct.append(rep)
    return distinct
