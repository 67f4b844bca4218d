"""Independent verification machinery for the test suite.

Everything here recomputes quantities along routes disjoint from the library
implementation: central finite differences, a from-scratch 1-D
Euler-Lagrange assembly with damped (optionally deflated) Newton iteration,
a tridiagonal eigenvalue reference, scalar root-finds on closed-form
integrals, a Luxemburg norm by bracket expansion and bisection, the
stiffness, the mass, J'' and the Hessian A'' - R B'' of the Rayleigh
equation assembled from the mesh's sparse operators, the interior block
pattern by ``np.unique``, the interior bandwidth from the elements' vertex
positions, a bounded
scalar maximization of the direct energy along a ray, and the Rayleigh
descent on nodal values, with the nodal forms of R, R' and the ray search
that it and the tests call (the library itself only works on gathered
element data).
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import brentq, minimize_scalar

from pxkirchhoff import GridFunction, energy_J
from pxkirchhoff.energy import _point, _ray_weights, _rayleigh_gradient_of_elements
from pxkirchhoff.solver import _NEWTON_FROM, _REFACTOR, _armijo, _ray_scale


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


def stiffness_by_operators(mesh):
    """The constant-exponent (p = 2) stiffness Dg^T diag(meas) Dg over all
    vertices, as CSR, from two sparse products of the gradient maps."""
    meas = scipy.sparse.diags(np.repeat(mesh.element_measures, mesh.dimension))
    return (mesh.gradient_adjoint @ meas @ mesh.gradient_map).tocsr()


def mass_by_operators(mesh):
    """The centroid-quadrature mass C^T diag(meas) C over all vertices, as
    CSR, from two sparse products of the centroid maps."""
    return _centroid_mass(mesh, np.ones(mesh.n_elements)).tocsr()


def _A_second_by_operators(mesh, p, nodal):
    """(A''(u), A'(u), |grad u|, u_c, live) over all vertices, from the
    gradient and centroid maps: A'' = Dg^T W Dg with the block diagonal
    W = blockdiag(meas |grad u|^{p-2} (I + (p-2) n n^T)), and live flags
    the elements with an interior vertex."""
    pv, meas, dim = p.values, mesh.element_measures, mesh.dimension
    grads = (mesh.gradient_map @ nodal).reshape(-1, dim)
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
    uc = mesh.centroid_map @ nodal
    return mesh.gradient_adjoint @ W @ mesh.gradient_map, dA, gmag, uc, live


def _centroid_mass(mesh, weights):
    """C^T diag(weights meas) C over all vertices."""
    return (mesh.centroid_adjoint @ scipy.sparse.diags(weights * mesh.element_measures)
            @ mesh.centroid_map)


def hessian_by_operators(u, prob):
    """J''(u) = S - b dA dA^T on the interior vertices, as (S, dA), from the
    gradient and centroid maps of the mesh: K Dg^T W Dg with the block
    diagonal W = blockdiag(meas |grad u|^{p-2} (I + (p-2) n n^T)), minus
    C^T diag(meas (lambda (p-1) |u_c|^{p-2} + g'(x, u_c))) C, restricted to
    the interior.  u must have no vanishing gradient or centroid value on
    any element with an interior vertex where an exponent is below 2."""
    mesh, pv = prob.mesh, prob.p.values
    idx = mesh.interior
    A2, dA, gmag, uc, live = _A_second_by_operators(mesh, prob.p, u.nodal_values)
    lower = np.zeros_like(uc)
    if prob.g.kind != "zero":
        q = prob.g.q.values
        coeff = prob.g.coefficient if prob.g.kind == "scaled_power" else 1.0
        lower[live] = coeff * (q[live] - 1.0) * np.abs(uc[live]) ** (q[live] - 2.0)
    if prob.lam != 0.0:
        lower[live] += prob.lam * (pv[live] - 1.0) * np.abs(uc[live]) ** (pv[live] - 2.0)
    K = prob.a - prob.b * np.dot(gmag**pv / pv, mesh.element_measures)
    S = (K * A2 - _centroid_mass(mesh, lower)).tocsr()
    return S[idx][:, idx], dA[idx]


def rayleigh_hessian_by_operators(mesh, p, nodal, R):
    """A''(u) - R B''(u) on the interior vertices, the derivative of
    A'(u) - R B'(u) with R held fixed, from the same operator products:
    Dg^T W Dg - R C^T diag((p-1) |u_c|^{p-2} meas) C."""
    pv, idx = p.values, mesh.interior
    A2, _, _, uc, live = _A_second_by_operators(mesh, p, nodal)
    lower = np.zeros_like(uc)
    lower[live] = R * (pv[live] - 1.0) * np.abs(uc[live]) ** (pv[live] - 2.0)
    return (A2 - _centroid_mass(mesh, lower)).tocsr()[idx][:, idx]


def interior_pattern_by_unique(mesh):
    """The fields of ``Mesh.interior_pattern`` (keep, slot, indptr, indices,
    live) from ``np.unique`` over int64 keys row * n + col of the broadcast
    block rows and columns: its sorted keys are the CSR entries, and its
    inverse is the slot of each kept entry."""
    n = len(mesh.interior)
    position = np.full(mesh.n_vertices, -1)
    position[mesh.interior] = np.arange(n)
    local = position[mesh.elements].T  # (d+1, n_e), -1 on the boundary
    rows, cols = (x.ravel() for x in np.broadcast_arrays(local[:, None], local[None]))
    keep = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return keep, slot.ravel(), indptr, (keys % n).astype(np.int32), (local >= 0).any(axis=0)


def interior_bandwidth_by_elements(mesh):
    """The interior bandwidth kl from the elements alone, with no pattern:
    the largest spread max - min of the interior positions of one element's
    vertices, over the elements with at least one interior vertex."""
    n = len(mesh.interior)
    position = np.full(mesh.n_vertices, -1)
    position[mesh.interior] = np.arange(n)
    local = position[mesh.elements]
    hi = local.max(axis=1)
    lo = np.where(local >= 0, local, n).min(axis=1)
    return int(np.max(hi - lo, initial=0, where=hi >= 0))


def ray_max_bounded(prob, nodal, lo, hi):
    """(r, J(r u)) at the maximum of J(r u) over r in [lo, hi]: bounded Brent
    on ``energy_J`` of each scaled point, with no slope and no ray weights."""
    res = minimize_scalar(
        lambda r: -energy_J(GridFunction(prob.mesh, r * nodal), prob),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
    )
    return float(res.x), -float(res.fun)


def rayleigh_ratio(mesh, p, nodal):
    """R(u) = A(u) / B(u) at raw nodal values, as the descent reports it."""
    return _rayleigh_gradient_of_elements(mesh, p, _point(mesh, nodal))[1]


def rayleigh_gradient(mesh, p, nodal):
    """R'(u) at raw nodal values, zero on the boundary."""
    return _rayleigh_gradient_of_elements(mesh, p, _point(mesh, nodal))[0]


def rayleigh_ray(mesh, p, nodal):
    """The element data (c, w_A, w_B) of R along the ray e^s u at raw nodal
    values, for ``_rayleigh_on_ray``: the centred exponent c = p - p- and
    the ray weights of u."""
    at = _point(mesh, nodal)
    return (p.values - p.lo, *_ray_weights(mesh, p, at.gmag, at.uc))


def ray_minimize(mesh, p, nodal):
    """e^s u at the minimum of R(e^s u) over the solver's interval of s, by
    its ray search ``_ray_scale`` on the element data of raw nodal values."""
    at = _point(mesh, nodal)
    return _ray_scale(mesh, p, at.gmag, at.uc) * nodal


def rayleigh_ratio_long(mesh, p, nodal):
    """R(u) in long double from raw nodal values, gathered vertex by vertex
    through the hat gradients instead of the sparse maps."""
    u = np.asarray(nodal, dtype=np.longdouble)[mesh.elements]
    grads = np.einsum("edk,ek->ed", mesh.hat_gradients.astype(np.longdouble), u)
    pv = p.values.astype(np.longdouble)
    meas = mesh.element_measures.astype(np.longdouble)
    A = np.sum(meas * np.sum(grads * grads, axis=1) ** (pv / 2) / pv)
    return A / np.sum(meas * np.abs(u.mean(axis=1)) ** pv / pv)


def rayleigh_descent_on_nodes(p, mesh, seed=0, max_iter=500, tol=1e-6):
    """The descent of ``rayleigh_quotient_min`` with every quantity taken
    from nodal values: the gradient, each Armijo trial, the ray search and
    R at the new iterate each gather their own element data, and the
    stiffness norms and the descent direction come from the stiffness
    matrix itself, by a product and a sparse direct solve.  Each Armijo
    trial compares values of R in long double (``rayleigh_ratio_long``),
    whose rounding lies far below the changes of R that it judges.

    For variable p, below the solver's residual ``_NEWTON_FROM`` it steps
    along d = -H^{-1}(A'(u) - R B'(u)) with H from operator products
    (``rayleigh_hessian_by_operators``), solved by ``spsolve``, with the
    solver's rules: H is kept and rebuilt at the current iterate after a
    step that leaves more than ``_REFACTOR`` of the residual; a direction
    that is no descent direction, or whose search along a kept H fails,
    gives way to the stiffness direction, and H is dropped; a failed search
    along an H built at the current iterate is a stall.

    The one start stops once its residual sqrt(-slope) is at most ``tol``.
    Returns (R, nodal values, steps, newton_steps), where steps counts the
    steps and newton_steps those along H, or None if the start was not
    certified."""
    rng = np.random.default_rng(seed)
    idx = mesh.interior
    stiffness = stiffness_by_operators(mesh)
    interior_stiffness = stiffness[np.ix_(idx, idx)].tocsc()

    def h_norm(v):
        return np.sqrt(v @ stiffness @ v)

    def search(d, slope, step):
        R_long = rayleigh_ratio_long(mesh, p, nodal)
        return _armijo(
            lambda s: float(rayleigh_ratio_long(mesh, p, nodal + s * d) - R_long),
            0.0, slope, step)

    nodal = np.zeros(mesh.n_vertices)
    nodal[idx] = 0.1 + rng.random(len(idx))
    nodal /= h_norm(nodal)
    R = rayleigh_ratio(mesh, p, nodal)
    H, last, newton_steps = None, np.inf, 0
    for steps in range(max_iter):
        grad = rayleigh_gradient(mesh, p, nodal)
        d = np.zeros(mesh.n_vertices)
        d[idx] = -scipy.sparse.linalg.spsolve(interior_stiffness, grad[idx])
        slope = float(np.dot(grad[idx], d[idx]))
        residual = np.sqrt(max(-slope, 0.0))
        if residual <= tol:
            return R, nodal, steps, newton_steps
        step = None
        if p.hi != p.lo and residual < _NEWTON_FROM:
            fresh = H is None or residual > _REFACTOR * last
            if fresh:
                H = rayleigh_hessian_by_operators(mesh, p, nodal, R)
            uc = mesh.centroid_map @ nodal
            B = np.dot(np.abs(uc) ** p.values / p.values, mesh.element_measures)
            h = np.zeros(mesh.n_vertices)
            h[idx] = -scipy.sparse.linalg.spsolve(H.tocsc(), B * grad[idx])
            h_slope = float(np.dot(grad[idx], h[idx]))
            if h_slope < 0.0:
                step = search(h, h_slope, 1.0)
                if step is None and fresh:
                    return None
            if step is None:
                H = None
            else:
                d, newton_steps = h, newton_steps + 1
        last = residual
        if step is None:
            step = search(d, slope, min(1.0, h_norm(nodal) / residual))
            if step is None:
                return None
        accepted = nodal + step * d
        nodal = ray_minimize(mesh, p, accepted / h_norm(accepted))
        R = rayleigh_ratio(mesh, p, nodal)
    return None
