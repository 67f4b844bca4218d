"""Independent verification machinery for the test suite.

Everything here recomputes quantities along routes disjoint from the library
implementation: central finite differences, a from-scratch 1-D
Euler-Lagrange assembly with damped (optionally deflated) Newton iteration,
a tridiagonal eigenvalue reference, scalar root-finds on closed-form
integrals, a Luxemburg norm by bracket expansion and bisection, J''
assembled from the mesh's sparse operators, and the Rayleigh descent on
nodal values.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import brentq

from pxkirchhoff.energy import _rayleigh_gradient, _rayleigh_ratio
from pxkirchhoff.solver import _armijo, _ray_minimize


def central_difference(f, u, v, h=1e-5):
    """(f(u + h v) - f(u - h v)) / (2 h) for nodal arrays u, v."""
    return (f(u + h * v) - f(u - h * v)) / (2.0 * h)


def residual_1d(a, b, lam, coeff, p_vals, q_vals, h_vals, nodal):
    """Interior Euler-Lagrange residual of the Kirchhoff problem, assembled
    from scratch for a 1-D mesh with element sizes h_vals."""
    du = np.diff(nodal) / h_vals
    A = np.sum(np.abs(du) ** p_vals / p_vals * h_vals)
    K = a - b * A
    flux = np.abs(du) ** (p_vals - 2.0) * du
    uc = 0.5 * (nodal[:-1] + nodal[1:])
    lower = lam * np.abs(uc) ** (p_vals - 2.0) * uc
    lower = lower + coeff * np.abs(uc) ** (q_vals - 2.0) * uc
    F = np.zeros_like(nodal)
    F[:-1] += -K * flux - lower * 0.5 * h_vals
    F[1:] += K * flux - lower * 0.5 * h_vals
    return F[1:-1]


def make_residual_1d(prob):
    """Close residual_1d over a library problem's data (1-D meshes only)."""
    h_vals = prob.mesh.element_measures
    coeff = {"zero": 0.0, "pure_power": 1.0}.get(prob.g.kind, prob.g.coefficient)

    def fn(interior):
        nodal = np.concatenate(([0.0], interior, [0.0]))
        return residual_1d(
            prob.a, prob.b, prob.lam, coeff,
            prob.p.values, prob.g.q.values, h_vals, nodal,
        )

    return fn


def _fd_jacobian(fn, x, eps=1e-7):
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += eps
        xm[j] -= eps
        J[:, j] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return J


def newton_1d(fn, x0, tol=1e-12, max_iter=80):
    """Damped Newton with finite-difference Jacobian; returns (x, converged)."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        F = fn(x)
        if np.linalg.norm(F) < tol:
            return x, True
        J = _fd_jacobian(fn, x)
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return x, False
        t, base = 1.0, np.linalg.norm(F)
        while t > 1e-12:
            if np.linalg.norm(fn(x + t * dx)) < base:
                break
            t *= 0.5
        x = x + t * dx
    return x, np.linalg.norm(fn(x)) < tol


def deflated_roots_1d(fn, starts, tol=1e-11, max_iter=120, min_dist=1e-6):
    """Enumerate roots of fn by Newton with deflation of earlier finds.

    The deflated system is M(x) * fn(x) with the shifted-power deflation
    factor M(x) = prod(1/|x - r|^2 + 1); Newton runs on the deflated system
    but convergence is certified on the raw residual.
    """
    roots: list[np.ndarray] = []

    def deflation(x):
        m = 1.0
        for r in roots:
            m *= 1.0 / max(np.sum((x - r) ** 2), 1e-30) + 1.0
        return m

    for x0 in starts:
        def deflated(x):
            return deflation(x) * fn(x)

        x, _ = newton_1d(deflated, x0, tol=tol, max_iter=max_iter)
        if np.linalg.norm(fn(x)) >= tol:
            continue
        if all(
            min(np.linalg.norm(x - r), np.linalg.norm(x + r)) > min_dist
            for r in roots
        ):
            roots.append(x)
    return roots


def fd_ground_eigenvalue(n, length):
    """Smallest Dirichlet eigenvalue of -u'' on (0, length) via the standard
    second-difference tridiagonal matrix."""
    h = length / n
    diag = np.full(n - 1, 2.0 / h**2)
    off = np.full(n - 2, -1.0 / h**2)
    vals = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def luxemburg_constant_u_affine_p(c, c0, c1, length):
    """Root of the closed form integral over (0, length) of (c/mu)^{c0+c1 x}.

    For a constant function u = c and affine exponent p(x) = c0 + c1*x the
    modular has the antiderivative (c/mu)^{c0} * ((c/mu)^{c1 x} - 1) /
    (c1 * log(c/mu)); a scalar bracketing root-find inverts modular = 1.
    """

    def rho(mu):
        r = c / mu
        if abs(r - 1.0) < 1e-14:
            return length
        return r**c0 * (r ** (c1 * length) - 1.0) / (c1 * np.log(r))

    return brentq(lambda mu: rho(mu) - 1.0, 1e-3 * c, 1e3 * c, xtol=1e-14)


def luxemburg_bisection(samples, p_values, measures, rel_tol=1e-12):
    """Luxemburg norm by bracket expansion and bisection on modular(u/mu) = 1.

    The map mu -> sum measures |u/mu|^p is continuous and strictly
    decreasing for u != 0.  The first bracket is the peak magnitude times
    |Omega|^{1/p-}, widened 1e3-fold on each side until it holds the root;
    bisection then runs until the bracket is ``rel_tol`` wide relative to
    its lower end.  Returns 0 for u = 0.
    """
    absu = np.abs(np.asarray(samples, dtype=float))
    p_values = np.asarray(p_values, dtype=float)
    measures = np.asarray(measures, dtype=float)
    peak = float(np.max(absu))
    if peak == 0.0:
        return 0.0

    def rho(mu):
        return float(np.dot((absu / mu) ** p_values, measures))

    scale = peak * measures.sum() ** (1.0 / p_values.min())
    lo, hi = 1e-3 * scale, 1e3 * scale
    while rho(lo) < 1.0:
        lo *= 1e-3
    while rho(hi) > 1.0:
        hi *= 1e3
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hessian_by_operators(u, prob):
    """J''(u) = S - b dA dA^T on the interior vertices, as (S, dA), from the
    gradient and centroid maps of the mesh: K Dg^T W Dg with the block
    diagonal W = blockdiag(meas |grad u|^{p-2} (I + (p-2) n n^T)), minus
    C^T diag(meas (lambda (p-1) |u_c|^{p-2} + g'(x, u_c))) C, restricted to
    the interior.  u must have no vanishing gradient or centroid value on
    any element with an interior vertex where an exponent is below 2."""
    mesh = prob.mesh
    idx = mesh.interior
    pv, meas, dim = prob.p.values, mesh.element_measures, mesh.dimension
    grads = (mesh.gradient_map @ u.nodal_values).reshape(-1, dim)
    gmag = np.linalg.norm(grads, axis=1)
    live = ~mesh.boundary_mask[mesh.elements].all(axis=1)
    w = np.zeros_like(gmag)
    w[live] = gmag[live] ** (pv[live] - 2.0) * meas[live]
    dA = mesh.gradient_adjoint @ (w[:, None] * grads).ravel()
    n = np.divide(grads, gmag[:, None], out=np.zeros_like(grads),
                  where=gmag[:, None] > 0.0)
    blocks = w[:, None, None] * (np.eye(dim) + (pv - 2.0)[:, None, None]
                                 * n[:, :, None] * n[:, None, :])
    rows = np.arange(mesh.n_elements + 1)
    W = scipy.sparse.bsr_matrix((blocks, rows[:-1], rows),
                                shape=(mesh.n_elements * dim,) * 2)
    A2 = mesh.gradient_adjoint @ W @ mesh.gradient_map

    uc = mesh.centroid_map @ u.nodal_values
    lower = np.zeros_like(uc)
    if prob.g.kind != "zero":
        q = prob.g.q.values
        coeff = prob.g.coefficient if prob.g.kind == "scaled_power" else 1.0
        lower[live] = coeff * (q[live] - 1.0) * np.abs(uc[live]) ** (q[live] - 2.0)
    if prob.lam != 0.0:
        lower[live] += prob.lam * (pv[live] - 1.0) * np.abs(uc[live]) ** (pv[live] - 2.0)
    lower2 = (mesh.centroid_adjoint @ scipy.sparse.diags(lower * meas)
              @ mesh.centroid_map)
    K = prob.a - prob.b * np.dot(gmag**pv / pv, meas)
    S = (K * A2 - lower2).tocsr()
    return S[idx][:, idx], dA[idx]


def rayleigh_descent_on_nodes(p, mesh, seed=0, n_seeds=3, max_iter=500, tol=1e-10):
    """The descent of ``rayleigh_quotient_min`` with every quantity taken
    from nodal values: the gradient, each Armijo trial, the ray search and
    R at the new iterate each gather their own element data, and the
    stiffness norms and the descent direction come from the stiffness
    matrix itself, by a product and a sparse direct solve.  Returns (R,
    nodal values, steps), where steps counts the line searches of all
    starts, or None if no start converged."""
    rng = np.random.default_rng(seed)
    idx = mesh.interior

    def h_norm(v):
        return np.sqrt(v @ mesh.stiffness @ v)

    best, steps = None, 0
    for _ in range(n_seeds):
        nodal = np.zeros(mesh.n_vertices)
        nodal[idx] = 0.1 + rng.random(len(idx))
        nodal /= h_norm(nodal)
        R = _rayleigh_ratio(mesh, p, nodal)
        converged = False
        stable = 0
        for _ in range(max_iter):
            grad = _rayleigh_gradient(mesh, p, nodal)
            d = np.zeros(mesh.n_vertices)
            d[idx] = -scipy.sparse.linalg.spsolve(mesh.interior_stiffness, grad[idx])
            slope = float(np.dot(grad[idx], d[idx]))
            if slope >= 0.0:
                converged = True
                break
            step = min(1.0, h_norm(nodal) / np.sqrt(-slope))
            steps += 1
            step = _armijo(lambda s: _rayleigh_ratio(mesh, p, nodal + s * d),
                           R, slope, step)
            if step is None:
                converged = True
                break
            accepted = nodal + step * d
            nodal = _ray_minimize(mesh, p, accepted / h_norm(accepted))
            R_new = _rayleigh_ratio(mesh, p, nodal)
            stable = stable + 1 if abs(R - R_new) <= tol * max(1.0, abs(R_new)) else 0
            R = R_new
            if stable >= 2:
                converged = True
                break
        if converged and (best is None or R < best[0]):
            best = (R, nodal)
    return (None if best is None else (best[0], best[1], steps))
