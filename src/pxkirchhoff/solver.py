"""Critical-point machinery: Rayleigh quotients, mountain-pass geometry,
the ray-maximum descent solver, and a finite-dimensional multiplicity search.

Only the algorithms live here.  Every functional they evaluate (J, J', J
and its slope along a ray, the Rayleigh quotient, its gradient, its change
along a line and its restriction to a ray) comes from ``energy``, and both
descents backtrack through one Armijo step, ``_armijo``.

The Rayleigh descent finishes, for variable p, along the Hessian of the
Rayleigh equation, factored once and kept (a chord method), from the same
element kernel as J'' (``energy._hessian_of_elements``).

The mountain-pass solver holds one point, the maximum of J on its ray
(``_ray_max``): each ray from 0 is a path to negative energy, so its peak
bounds the mountain-pass level from above.  It runs Newton's method on the
exact sparse Hessian from that peak, and accepts its point only at or
below the peak's energy (Li-Zhou 2001).  Each step factors the sparse part
of J'' from its pattern data (``energy._hessian_of_elements``) with
LAPACK's band LU on the mesh's interior pattern
(``Mesh.interior_pattern_lu``), on every mesh; the rank-one part is solved
by Sherman-Morrison.  The fallback descends on the ray maximum: a
backtracking step at the peak, after which each trial's ray is maximized
again.  Descent directions are preconditioned with the constant-exponent
stiffness (a discrete Sobolev gradient, ``_sobolev_descent``), which keeps
iteration counts mesh-independent; the reported residual stays the plain
interior l2 norm of the assembled derivative.

The solution's Morse index, the number of negative eigenvalues of the
pencil (J'', K), K the interior stiffness, is two inertia counts and no
eigensolve (``_morse``): the negative eigenvalues of J'' + delta K and of
J'' - delta K, which agree exactly when the index is certified with no
eigenvalue in [-delta, delta).  On more than _DENSE_N interior vertices
each count comes from the symmetric SuperLU of the shifted sparse part of
J'', in minimum-degree order (``Mesh.interior_pattern_splu``), and on at
most _DENSE_N, or where that LU gives none, from LAPACK's dense
Bunch-Kaufman LDL^T (``dsytrf``).  The one eigenproblem left, the Laplace
eigenbasis of (K, M), goes through ``_lowest``: on at most _DENSE_N
interior vertices LAPACK solves it dense (``dsygvx``, called directly), as
the largest eigenvalues of (M, K), so that LAPACK factors K and keeps
their digits; above it ARPACK solves it in its standard mode on
U^{-T} M U^{-1}, for the band Cholesky K = U^T U, the mesh's one factor of
the stiffness (``Mesh.interior_stiffness_lu``), which every stiffness
solve uses too: one product of ``_PencilOperator`` per step, two calls of
LAPACK's triangular band solve and one of scipy's CSR kernel.  Element
data come only from ``energy._point`` and ``energy._energy_ray``: the
solvers hold their points and rays and never gather.

The multiplicity search runs its starts one after another, in start-index
order, skips a start that lies on start 0's ray, and merges results
deterministically by (energy, start-index) order.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools

from .discretization import GridFunction, Mesh
from .energy import (
    KirchhoffProblem,
    _energy_of_elements,
    _energy_ray,
    _kirchhoff_hessian,
    _point,
    _Point,
    _ray_weights,
    _rayleigh_gradient_of_elements,
    _rayleigh_hessian,
    _rayleigh_line,
    _rayleigh_on_ray,
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
    "RayleighResult",
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
    mesh's one factor of K (``Mesh.interior_stiffness_lu``)."""
    d = np.zeros(mesh.n_vertices)
    d[mesh.interior] = -mesh.interior_stiffness_lu.solve(g[mesh.interior])
    return d


# On at most this many interior vertices the eigenbasis is solved dense by
# LAPACK (``dsygvx``) and the Morse counts come from the dense LDL^T
# (``dsytrf``); above it ARPACK and the symmetric SuperLU take them.  A
# solve makes one eigenbasis (k = 3) and two counts, and on 1-D meshes
# their routes break even at about 85 and about 135 interior vertices, so
# the solve breaks even near 105: dense 0.99 against 1.05 ms at 99, 1.54
# against 1.16 ms at 128.  In 2-D the dense routes win further out: 1.42
# against 1.92 ms on the 12^2 square (121), 4.9 against 2.5 ms at 16^2
# (225).  128 serves both (p = 2 + 0.2x, BLAS on one thread;
# ``benchmarks/analyze_once.py pencils``, ``BENCH_morse_counts.json``).
_DENSE_N = 128


# Eigenvector entries within this relative distance of the largest magnitude
# tie for fixing the sign, so the sign does not follow rounding.
_SIGN_RTOL = 1e-8


def _start_vector(n: int) -> np.ndarray:
    """Fixed ARPACK start vector, so the sparse eigensolves (pencils above
    _DENSE_N interior vertices) are deterministic."""
    return np.random.default_rng(0).standard_normal(n)


class _PencilOperator(scipy.sparse.linalg.LinearOperator):
    """y -> U^{-T} S U^{-1} y for the band array U of a triangular factor
    K = U^T U and the symmetric matrix S on ``mesh``'s interior pattern
    with pattern data ``data``.

    Each product calls the kernels that scipy's own products reach after
    their dispatch: LAPACK's ``dtbtrs`` for U^{-1} and U^{-T}, and scipy's
    CSR kernel for S on the pattern's arrays, whose CSC arrays are its CSR
    arrays, as S is symmetric.  The sums run in the order of S's CSC
    product, so S x is bitwise ``S @ x``."""

    def __init__(self, mesh: Mesh, data: np.ndarray, U: np.ndarray):
        pattern = mesh.interior_pattern
        n = len(pattern.indptr) - 1
        super().__init__(np.float64, (n, n))
        self.pattern, self.data, self.U = pattern, data, U

    def _matvec(self, y: np.ndarray) -> np.ndarray:
        x = lapack.dtbtrs(self.U, y)[0]
        n, pattern = self.shape[0], self.pattern
        z = np.zeros(n)
        _sparsetools.csr_matvec(n, n, pattern.indptr, pattern.indices, self.data, x, z)
        return lapack.dtbtrs(self.U, z, trans="T", overwrite_b=1)[0]


def _lowest(mesh: Mesh, data: np.ndarray, k: int, *, vectors: bool = False):
    """The k lowest eigenvalues, ascending, of the pencil (K, X) on the
    interior vertices of ``mesh``, for K the interior stiffness and X the
    positive definite matrix on the interior pattern with pattern data
    ``data`` (the mass): the reciprocals of the k largest eigenvalues of
    (X, K).  With ``vectors``, (values, vectors), the eigenvectors as the
    columns of an array in the order of the values.

    The eigenbasis is the solver's one eigenproblem, and here its route is
    chosen.  A pencil on at most _DENSE_N interior vertices, or k = n
    (which ARPACK cannot give), is solved by LAPACK's ``dsygvx`` on dense
    arrays, which the pattern data of X and K fill directly
    (``Mesh.interior_pattern_dense``), for the k largest eigenvalues of
    (X, K), so that LAPACK factors K, not X.  Above it ARPACK solves it,
    from a fixed start vector.  With the stiffness's band Cholesky
    K = U^T U (``Mesh.interior_stiffness_lu``), (X, K) has the eigenvalues
    of the standard matrix U^{-T} X U^{-1}, and its eigenvectors are
    x = U^{-1} y for that matrix's y (Golub-Van Loan 8.7), so ARPACK finds
    the largest eigenvalues of that matrix in its standard mode, on
    y -> U^{-T} X U^{-1} y (``_PencilOperator``), and needs no inner
    product in K.  Raises LinAlgError when LAPACK fails and ValueError for
    a dense pencil with a value that is not finite.
    """
    n = len(mesh.interior)
    if k == n or n <= _DENSE_N:
        X = mesh.interior_pattern_dense(data)
        if not np.isfinite(X).all():
            raise ValueError("the pencil's matrix must not contain infs or NaNs")
        K, job = mesh.interior_pattern_dense(mesh.interior_stiffness_data), "V" if vectors else "N"
        vals, vecs, m, _, info = lapack.dsygvx(
            X, K, jobz=job, range="I", il=n - k + 1, iu=n,
            lwork=int(lapack.dsygvx_lwork(n)[0]), overwrite_a=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"LAPACK's eigensolve of the pencil failed (info {info})")
        vals, vecs = vals[:m], vecs[:, :m]
    else:
        U = mesh.interior_stiffness_lu.factor
        out = scipy.sparse.linalg.eigsh(_PencilOperator(mesh, data, U), k, which="LA",
                                        v0=_start_vector(n), return_eigenvectors=vectors)
        vals, vecs = out if vectors else (out, None)
        if vectors:
            vecs = lapack.dtbtrs(U, vecs)[0]
    order = np.argsort(-vals)
    vals = 1.0 / vals[order]
    return (vals, vecs[:, order]) if vectors else vals


def laplace_eigenbasis(mesh: Mesh, k: int) -> list[GridFunction]:
    """First k Dirichlet eigenvectors of the constant-2 Laplacian.

    These span the nested subspaces used to seed the multiplicity search and
    provide smooth low-frequency probe directions.  They are the lowest
    eigenvectors of the interior stiffness and mass pencil (K, M), found by
    ``_lowest`` as the reciprocals of the k largest eigenvalues of (M, K):
    dense by LAPACK on at most _DENSE_N interior vertices or for a full
    basis (k = n, which ARPACK cannot give), so that LAPACK factors K, not
    M; above it by ARPACK, in standard mode on the pencil whitened by the
    stiffness's band Cholesky.  They are normalized in the mass inner
    product, and signs are fixed so the entry of largest magnitude is
    positive; among entries within a relative 1e-8 of that magnitude the
    first vertex decides, so an antisymmetric mode gets the same sign on
    both routes.  Raises TypeError when k is not an integer and DomainError
    when it is negative or exceeds the number of interior vertices.
    """
    k = operator.index(k)
    _nonnegative("k", k)
    idx = mesh.interior
    n = len(idx)
    if k > n:
        raise DomainError(f"mesh has only {n} interior vertices")
    if k == 0:
        return []
    M = mesh.interior_mass
    vecs = _lowest(mesh, M.data, k, vectors=True)[1]
    basis = []
    for v in vecs.T:
        mag = np.abs(v)
        first = np.argmax(mag >= (1.0 - _SIGN_RTOL) * mag.max())
        v = v * np.sign(v[first]) / np.sqrt(v @ (M @ v))
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


def _ray_scale(mesh: Mesh, p: ExponentField, gmag: np.ndarray, uc: np.ndarray) -> float:
    """e^s at the minimum of R(e^s u) over |s| <= _S_MAX, from |grad u| and
    the centroid values u_c of u; e^s u has the element data e^s |grad u|
    and e^s u_c.

    The minimum is the root of d ln R / ds on the ray's weights
    (``_ray_weights``, tilted by ``_rayleigh_on_ray``), bracketed by the
    slopes at the ends of the interval and found by ``_brent_root``.  For
    constant p the slope is exactly 0, R is scale-free, and the scale is 1.
    Raises MaxIterations when the slope keeps one sign over |s| <= _S_MAX:
    R then has no minimizer on that segment of the ray.  One may lie beyond
    it, where p varies little (1-D, p = 2 + 0.01x, seeds 0-2), or none may
    exist: for non-monotone p the infimum of R can be 0.
    """
    c, (w_A, w_B) = p.values - p.lo, _ray_weights(mesh, p, gmag, uc)

    def slope(s):
        return _rayleigh_on_ray(s, c, w_A, w_B)[1]

    lo, hi = slope(-_S_MAX), slope(_S_MAX)
    if lo == hi == 0.0:
        return 1.0
    if not lo < 0.0 < hi:
        toward = "0" if lo >= 0.0 else "infinity"
        raise MaxIterations(
            f"R decreases along the whole ray segment e^s u, |s| <= {_S_MAX:g}, as u "
            f"scales toward {toward} (d ln R/ds = {lo:.3g} at s = -{_S_MAX:g}, {hi:.3g} "
            f"at s = {_S_MAX:g}): it has no minimizer on the ray within |s| <= {_S_MAX:g}. "
            "One may lie beyond it where p varies little; for non-monotone p the "
            "infimum of R can be 0, and none exists"
        )
    return float(np.exp(_brent_root(slope, -_S_MAX, lo, _S_MAX, hi, _S_TOL)))


@dataclass(eq=False)
class RayleighResult:
    """The certified ``value`` of R, its ``minimizer``, and the certificate
    of its start: the ``residual`` (at most ``tol``), the ``steps`` taken,
    and how many of them, ``newton_steps``, went along the frozen Hessian
    A'' - R B''."""

    value: float
    minimizer: GridFunction
    residual: float
    steps: int
    newton_steps: int


_NEWTON_FROM = 0.1  # residual below which the Rayleigh descent steps along A'' - R B''
_REFACTOR = 0.5     # that Hessian is refactored after a step leaving more than this share
                    # of the residual


def _rayleigh_newton(mesh: Mesh, p: ExponentField, at: _Point, R: float, grad: np.ndarray,
                     w: np.ndarray, lu):
    """(lu, d, slope) for a step along the Hessian H of the Rayleigh
    equation: ``lu`` is the LU of H, as given, or of H = A''(u) - R B''(u)
    at the point ``at`` (``energy._rayleigh_hessian``) when it is None,
    from its pattern data (``Mesh.interior_pattern_lu``, a band LU);
    d = -H^{-1}(A'(u) - R B'(u)) = -B H^{-1} R'(u), zero on the boundary,
    with B = B(u) from the ray weights ``w``; and slope = R'(u) d < 0.
    (None, None, None) when H or its LU fails (DomainError, RuntimeError)
    or d is no descent direction."""
    idx = mesh.interior
    d = np.zeros(mesh.n_vertices)
    try:
        if lu is None:
            lu = mesh.interior_pattern_lu(_rayleigh_hessian(mesh, p, at, R))
        d[idx] = -lu.solve(w[1].sum() * grad[idx])
    except (DomainError, RuntimeError):
        return None, None, None
    slope = float(np.dot(grad[idx], d[idx]))
    return (lu, d, slope) if slope < 0.0 else (None, None, None)


def rayleigh_quotient_min(
    p: ExponentField,
    mesh: Mesh,
    *,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> RayleighResult:
    """Locally minimize R(u) = A(u) / I(1/p |u|^p) over nonzero functions.

    Preconditioned gradient descent on the ratio (quotient rule for its
    gradient) with backtracking, from one positive random start.  For
    constant p this is the classical p-Laplacian Rayleigh quotient, whose
    positive minimizer is unique up to scale (Lindqvist 1990).  After each
    accepted step the iterate is normalized in the stiffness norm and R is
    minimized exactly along its ray e^s u (``_ray_scale``); the start is
    only normalized, from one gather.

    The descent is preconditioned by the stiffness K (``_sobolev_descent``)
    until its residual falls below _NEWTON_FROM, and for variable p by the
    Hessian of the Rayleigh equation A'(u) = R B'(u) from there on: the
    direction is d = -H^{-1}(A'(u) - R B'(u)) with H = A''(u0) - R(u0)
    B''(u0) (``energy._rayleigh_hessian``, the element kernel of J'') and
    its Armijo search starts at 1.  H is factored at the first such
    iterate u0 by LAPACK's band LU (``Mesh.interior_pattern_lu``) and
    kept, a chord method (Kelley 1995, ch. 5), and refactored at the
    current iterate only after a step that fails to halve the residual.  A
    step falls back to the Sobolev direction, and drops the LU, when H or
    its LU fails, d is no descent direction, or no step along an H of an
    earlier iterate decreases R.  Along the H of the current iterate that
    means the computed R' is rounding, and the start stalls, as when no
    Sobolev step decreases R.  For constant p, R is scale-free and
    H u = (p-1)(A' - R B'), so the step would only rescale u: the descent
    keeps the stiffness throughout.

    Each step gathers the element data of the iterate u (``_point``) and of
    the direction d once, two sparse products each.  The gradient of R,
    every Armijo trial, the normalization (``_stiffness_norm``) and the ray
    search come from those data by elementwise arithmetic; with the two
    adjoint products of the gradient a step makes six sparse products.  The
    trials judge the change of R along the line (``_rayleigh_line``), which
    keeps its relative accuracy where R moves by a few ulps.  The data are
    gathered afresh at every step, so no rounding carries over from one
    step to the next.

    The start is certified, and stops, once its residual sqrt(-slope) =
    sqrt(g^T K^{-1} g), the H^{-1} norm of g = R'(u), is at most ``tol``.
    ``steps`` counts every step and ``newton_steps`` those along H.  If the
    line search stalls or it uses up ``max_iter`` steps first,
    MaxIterations names how it ended and its smallest residual.  It is
    raised at once when R decreases along the whole segment |s| <= _S_MAX
    of a ray e^s u, the one that ``_ray_scale`` searches: for non-monotone p
    the infimum can be 0 and no minimizer exists, but where p varies little
    the minimum on the ray can lie beyond the segment.  A negative ``seed`` or
    ``max_iter``, or a ``tol`` that is not finite and positive is a
    DomainError.
    """
    _nonnegative("seed", seed)
    _nonnegative("max_iter", max_iter)
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    idx = mesh.interior

    nodal = np.zeros(mesh.n_vertices)
    nodal[idx] = 0.1 + np.random.default_rng(seed).random(len(idx))
    nodal /= _stiffness_norm(mesh, _point(mesh, nodal).gmag)
    smallest, ended = math.inf, f"{max_iter} steps were used up"
    lu, last, newton_steps = None, math.inf, 0
    for steps in range(max_iter):
        at = _point(mesh, nodal)
        grad, R, w = _rayleigh_gradient_of_elements(mesh, p, at)
        d = _sobolev_descent(mesh, grad)
        slope = float(np.dot(grad[idx], d[idx]))
        residual = math.sqrt(max(-slope, 0.0))
        if residual <= tol:
            return RayleighResult(R, GridFunction(mesh, nodal), residual, steps, newton_steps)
        smallest = min(smallest, residual)
        step = None
        if p.hi != p.lo and residual < _NEWTON_FROM:
            fresh = lu is None or residual > _REFACTOR * last
            lu, h, h_slope = _rayleigh_newton(mesh, p, at, R, grad, w, None if fresh else lu)
            if lu is not None:
                change, data = _rayleigh_line(mesh, p, at, h, w)
                step = _armijo(change, 0.0, h_slope, 1.0)
                if step is None and fresh:  # no step along this iterate's own H
                    ended = "the line search stalled"
                    break
            if step is None:
                lu = None
            else:
                d, newton_steps = h, newton_steps + 1
        last = residual
        if step is None:
            change, data = _rayleigh_line(mesh, p, at, d, w)
            step = _armijo(change, 0.0, slope,
                           min(1.0, _stiffness_norm(mesh, at.gmag) / residual))
            if step is None:
                ended = "the line search stalled"
                break
        gmag, uc = data(step)
        scale = 1.0 / _stiffness_norm(mesh, gmag)
        scale *= _ray_scale(mesh, p, scale * gmag, scale * uc)
        nodal = (nodal + step * d) * scale
        del change, data, w  # keep no line data through the next step's gather
    raise MaxIterations(f"no Rayleigh start was certified ({ended}): its smallest "
                        f"residual was {smallest:.3g} > tol {tol:g}")


# -- mountain-pass geometry ---------------------------------------------------

@dataclass(eq=False)
class GeometryReport:
    """Sampled mountain-pass geometry: a sphere of radius ``rho`` on which
    every sampled direction has energy at least ``alpha`` > 0, and a point
    beyond it with negative energy.

    ``alpha`` is the minimum of J over the ``directions_tested`` sampled
    directions, not over the sphere, so it is no proven floor: at
    p = 2 + 0.2x and lambda = 1.02 lambda_p (1-D, n = 100) the solution's
    own ray meets the sphere rho = 0.02 below the reported alpha."""

    rho: float
    alpha: float
    directions_tested: int
    negative_point: GridFunction
    negative_energy: float


_R_DOUBLINGS = 60  # doublings (or halvings) of r along a ray before it gives up


def _scale_until_negative(
    prob: KirchhoffProblem, nodal: np.ndarray, min_norm: float | None = None
) -> GridFunction:
    """The first t u, t = 1, 2, 4, ..., 2^_R_DOUBLINGS, with J(t u) < 0 and
    norm t|u| above ``min_norm``; J from the ray's weights
    (``_energy_ray``), gathered once."""
    gmag, ray = _energy_ray(prob, nodal)
    norm = 0.0 if min_norm is None else luxemburg_norm(gmag, prob.p, prob.mesh)
    t = 1.0
    for _ in range(_R_DOUBLINGS + 1):
        if ray(t)[0] < 0.0 and (min_norm is None or t * norm > min_norm):
            return GridFunction(prob.mesh, t * nodal)
        t *= 2.0
    raise MaxIterations(
        f"energy stayed nonnegative after {_R_DOUBLINGS} doublings; "
        "check the superlinearity hypotheses and exponent chain"
    )


def find_negative_energy_point(
    prob: KirchhoffProblem, psi: GridFunction, min_norm: float | None = None
) -> GridFunction:
    """Double t from 1 until J(t*psi) < 0 and return e = t*psi.

    psi must be nonzero, nonnegative, and zero on the boundary.  Superlinear
    growth guarantees termination; MaxIterations after _R_DOUBLINGS (60)
    doublings signals a hypothesis violation upstream.
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
    """Sample J on spheres of the given radii and report the pass geometry
    that the samples show (``GeometryReport``; its alpha is a sampled
    minimum, not a proven floor).

    Directions mix a few deterministic low-frequency eigenvector probes with
    ``n_dirs`` random zero-trace draws, each gathered once (``_energy_ray``):
    J(rho u/|u|) at every radius follows from its weights and |u| from the
    same gradient magnitudes.  The largest radius whose sampled minimum is
    positive is selected and a negative-energy point beyond it is attached.
    Raises GeometryNotFound when every radius has a nonpositive sampled
    minimum (or the grid is empty), and DomainError for a radius not finite
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
        gmag, ray = _energy_ray(prob, nodal)
        floors = np.minimum(floors, ray(radii / luxemburg_norm(gmag, p, mesh))[0])
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

    ``iterations`` counts ray-descent steps, 0 when Newton certifies from the
    first ray's peak, and ``newton_steps`` the accepted Newton steps, over
    all polish attempts, discarded ones included.  ``path_energies`` is the
    monotone record of ray maxima (the running minimax estimate, an upper
    bound for ``energy``); ``iteration_trace`` holds one raw row per ray
    peak, ``iterations + 1`` in all (iteration, ray-max energy, residual,
    A(u), K(u)), emitted as CSV.  ``morse_index`` is the
    number of negative eigenvalues of the pencil (J''(u), interior
    stiffness) at the solution, and ``morse_margin`` its certified margin
    delta = 1e-6 a: no eigenvalue lies in [-delta, delta), as the counts of
    eigenvalues below -delta and below +delta agree (``_morse``, by
    inertia).  Both are None where those counts differ or J'' does not
    exist (an exponent below 2 at a vanishing gradient on an element with
    an interior vertex); a point with no eigenvalue below -delta is not
    reported.  ``below_ps_ceiling`` is true iff ``energy`` is strictly
    below the compactness ceiling a^2/(2b).
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
    morse_margin: float | None = None


_NEWTON_STEPS = 20    # Newton steps per polish attempt
_R_TOL = 1e-12        # resolution in r of a ray maximum
_MORSE_MARGIN = 1e-6  # the Morse index's certified margin delta, relative to a


def _ray_max(prob: KirchhoffProblem, nodal: np.ndarray):
    """The maximum of J on the ray r u, r > 0: (r u, J(r u), D(r)) with D
    the drive of ``_energy_ray``, or None when J has no maximum on the ray.

    J and its slope r dJ/dr come from the ray's weights, gathered once.
    From r = 1 the search walks the way the slope points, doubling or
    halving r, until the slope changes sign; a local maximum lies in that
    last step, at the root of the slope, which ``_brent_root`` finds to
    _R_TOL in r.  A slope of exactly 0 at r = 1 makes u the maximum itself.
    None is returned when the slope keeps its sign for _R_DOUBLINGS steps,
    over r in [2^-_R_DOUBLINGS, 2^_R_DOUBLINGS].
    """
    ray = _energy_ray(prob, nodal)[1]
    r = 1.0
    J, f, drive = ray(r)
    if f == 0.0:
        return r * nodal, float(J), float(drive)
    up = f > 0.0
    for _ in range(_R_DOUBLINGS):
        r_next = 2.0 * r if up else 0.5 * r
        f_next = float(ray(r_next)[1])
        if (f_next <= 0.0) if up else (f_next >= 0.0):
            root = _brent_root(lambda x: ray(x)[1], r, f, r_next, f_next, _R_TOL)
            J_root, _, drive_root = ray(root)
            return root * nodal, float(J_root), float(drive_root)
        r, f = r_next, f_next
    return None


def _newton_direction(lu, dA: np.ndarray, b: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (S - b dA dA^T) d = rhs from an LU of S, any factor with a
    ``solve`` (``Mesh.interior_pattern_lu`` of its pattern data, LAPACK's
    band LU), by the Sherman-Morrison formula for the rank-one term: one
    solve with the two columns rhs and dA.  Raises RuntimeError when the
    rank-one update is singular."""
    y, z = lu.solve(np.column_stack([rhs, dA])).T
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
            data, dA = _kirchhoff_hessian(prob, at)
            d[idx] = _newton_direction(mesh.interior_pattern_lu(data), dA, prob.b, -g[idx])
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


def _inertia_index(mesh: Mesh, data: np.ndarray, dA: np.ndarray, b: float) -> int | None:
    """The number of negative eigenvalues of S - b dA dA^T, by inertia, for
    the matrix S on the interior pattern of ``mesh`` with pattern data
    ``data`` (``_hessian_of_elements``).

    The symmetric SuperLU of S in minimum-degree order
    (``Mesh.interior_pattern_splu``) factors Q S Q^T for the permutation
    Q of its ``perm_c``; a band LU would not do, as its partial pivoting
    swaps rows and its U carries no inertia.  When the LU keeps its row
    order ``perm_r`` equal to ``perm_c``, P Q S Q^T P^T = L U with
    U = D L^T, so by Sylvester's law S has as many negative eigenvalues as
    D = diag(U).  The bordered matrix [[S, dA], [dA^T, 1/b]] has
    S - b dA dA^T as the Schur complement of 1/b > 0 and
    1/b - dA^T S^{-1} dA as that of S, so by Haynsworth's inertia
    additivity the count is neg(D) + [1 - b dA^T S^{-1} dA < 0].
    Returns None when S is singular, the LU pivots off the diagonal, or the
    rank-one term is not finite.
    """
    try:
        lu = mesh.interior_pattern_splu(data)
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    schur = 1.0 - b * float(dA @ lu.solve(dA))
    if not np.isfinite(schur):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0)) + int(schur < 0.0)


def _dense_inertia(X: np.ndarray) -> int | None:
    """The number of negative eigenvalues of the symmetric array X, which
    it overwrites, by inertia from LAPACK's Bunch-Kaufman LDL^T
    (``dsytrf``; Bunch-Kaufman 1977): X = P L D L^T P^T with D block
    diagonal, so X has D's inertia (Sylvester).  A 1x1 block counts by its
    sign; a 2x2 block has a negative determinant, one eigenvalue of each
    sign, and counts one.  Returns None when D is exactly singular or not
    finite."""
    ldl, ipiv, info = lapack.dsytrf(X, lower=1, overwrite_a=1)  # reads the lower triangle
    d = ldl.diagonal()
    if info or not np.isfinite(d).all():
        return None
    one = ipiv > 0  # a 2x2 block has two equal negative entries
    return int(np.count_nonzero(d[one] < 0.0)) + int(np.count_nonzero(~one)) // 2


def _count(mesh: Mesh, data: np.ndarray, dA: np.ndarray, b: float) -> int | None:
    """The number of negative eigenvalues of S - b dA dA^T, for the matrix
    S on the interior pattern of ``mesh`` with pattern data ``data``: on
    more than _DENSE_N interior vertices from the symmetric SuperLU of S
    (``_inertia_index``); on at most _DENSE_N, or where that LU gives no
    count, from the Bunch-Kaufman LDL^T of the dense matrix, the rank-one
    term included (``_dense_inertia``).  None when neither gives one."""
    if len(dA) > _DENSE_N:
        count = _inertia_index(mesh, data, dA, b)
        if count is not None:
            return count
    # the rank-one term on the lower triangle, the one that dsytrf reads
    X = blas.dsyr(-b, dA, a=mesh.interior_pattern_dense(data), lower=1, overwrite_a=1)
    return _dense_inertia(X)


def _morse(prob: KirchhoffProblem, at: _Point) -> tuple[int | None, int | None]:
    """The counts of the eigenvalues of the pencil (J''(u), K) below -delta
    and below +delta at the point ``at``, for K the interior stiffness and
    delta = _MORSE_MARGIN a, or (None, None) where J'' does not exist.

    K is positive definite, so the eigenvalues below sigma are as many as
    the negative eigenvalues of J'' - sigma K (Sylvester's law of inertia;
    spectrum slicing, Parlett, The Symmetric Eigenvalue Problem, ch. 3).
    J'' comes as the pattern data of its sparse part S and the rank-one
    factor dA (``_hessian_of_elements``), and K's pattern data lie on S's
    pattern, so the counts are ``_count`` of S + delta K and of
    S - delta K, with the rank-one term.  When the two counts agree, they
    are the Morse index and no eigenvalue lies in [-delta, delta).  No
    eigensolve is made.  A count is None when neither factorization gives
    it (``_count``).
    """
    try:
        data, dA = _kirchhoff_hessian(prob, at)
    except DomainError:
        return None, None
    mesh, delta = prob.mesh, _MORSE_MARGIN * prob.a
    K = mesh.interior_stiffness_data
    return (_count(mesh, data + delta * K, dA, prob.b),
            _count(mesh, data - delta * K, dA, prob.b))


def mountain_pass_solve(
    prob: KirchhoffProblem,
    e: GridFunction,
    *,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> SolveReport:
    """Descend on the ray maximum phi(u) = max_r J(r u) from the ray of e
    until its peak is a critical point.

    Along every ray J(r u) -> -inf (2p- > p+), so phi(u) exists, and each
    ray, a path from 0 to a point of negative energy, bounds the
    mountain-pass level from above: minimizing phi is the local minimax
    method with empty support (Li-Zhou 2001).  Every peak, the first on e's
    ray and then each trial's, is found by one walk from r = 1
    (``_ray_max``).  The solve terminates when the interior l2 residual at
    a peak is at most ``tol``.

    From the first peak on, the peak is handed to a Newton polish on the
    exact sparse Hessian (``_newton_polish``), which returns as soon as its
    residual is at most ``tol``.  Its point is accepted only if its energy
    J_u satisfies 0 < J_u <= J_peak: a mountain-pass level is positive (the
    trivial solution u = 0 has J = 0), and J_peak, the energy of the ray
    peak it started from, bounds it.  An attempt that cannot certify, or
    lands outside that range, is discarded, and the next waits until the
    peak residual has halved.  Meanwhile each descent step moves the peak
    along the preconditioned negative gradient d (``_sobolev_descent``)
    and re-maximizes J on the ray of every trial;
    ``_armijo`` backtracks on phi(peak + t d), whose slope at t = 0 is
    J'(peak) d, from the step that moves the peak by its own stiffness norm
    (or 1, if smaller).
    ``iterations`` counts these steps and ``newton_steps`` the accepted
    Newton steps; the trace holds one row per peak.  The solution's Morse
    counts are made last (``_morse``), and a point with no eigenvalue of
    (J'', K) below -delta, whose index is 0 or within the margin of it, is
    not reported (index None, where J'' does not exist or the counts at
    -delta and +delta differ, is).

    ``energy_J`` is called once, at e.  A ray and a peak are each gathered
    once (``_energy_ray``, ``_point``), and the Newton polish starts from
    the peak's point; A, K, J, J' and J'' there, the energy guard and the
    Morse index included, come from its element data.

    Raises DegenerateCoefficient the moment the nonlocal coefficient
    K(u) = a - b*A(u) is nonpositive at a ray's peak (the operator loses its
    coercive sign there, which this solver refuses to hide; a Newton trial
    with K <= 0 is backtracked instead).  At a peak r dJ/dr = 0 makes K the
    ratio of r d(lambda B + I(G))/dr to r dA/dr, which is positive when
    lambda >= 0 and g != 0: a degenerate peak needs lambda < 0 or g = 0.
    Raises GeometryNotFound when J has no maximum on e's ray or the point
    found has no eigenvalue below -delta (near lambda = lambda_p the first
    peak can be a point next to u = 0 whose residual already passes
    ``tol``), MaxIterations if the step or line-search budget runs out, and
    DomainError for a negative ``max_iter`` or a ``tol`` that is not finite
    and positive.
    """
    prob.require_valid_chain()
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    mesh = prob.mesh
    if not energy_J(e, prob) < 0.0:
        raise DomainError("e must have negative energy; run the geometry check")
    _nonnegative("max_iter", max_iter)
    idx = mesh.interior

    path_energies: list[float] = []
    trace: list[tuple[int, float, float, float, float]] = []
    record = np.inf
    newton_from, newton_steps = np.inf, 0

    def report(point, energy, res, K, steps):
        below, upto = _morse(prob, point)
        delta = _MORSE_MARGIN * prob.a
        if below == 0:
            raise GeometryNotFound(
                f"the critical point found (J = {energy:.6g}, max|u| = "
                f"{np.max(np.abs(point.nodal)):.3g}) has Morse index 0: the pencil (J'', "
                f"stiffness) has no eigenvalue below -{delta:.3g} there, so it is no "
                "mountain-pass point (one where J'' is nondegenerate has index 1)"
            )
        index = below if below == upto else None
        return SolveReport(
            solution=GridFunction(mesh, point.nodal),
            energy=energy,
            residual_norm=res,
            nonlocal_coefficient=K,
            below_ps_ceiling=energy < prob.ps_ceiling,
            iterations=steps,
            path_energies=path_energies,
            iteration_trace=trace,
            newton_steps=newton_steps,
            morse_index=index,
            morse_margin=None if index is None else delta,
        )

    peak = _ray_max(prob, e.nodal_values)
    if peak is None:
        raise GeometryNotFound(
            "J has no maximum on the ray of e: its slope r dJ/dr keeps one sign "
            f"over r in [2^-{_R_DOUBLINGS}, 2^{_R_DOUBLINGS}] times e"
        )
    for it in range(max_iter):
        nodal, J_peak, drive = peak
        at = _point(mesh, nodal)
        g, A = _residual_of_elements(prob, at)
        K = prob.a - prob.b * A
        if K <= 0.0 or drive <= 0.0:
            raise DegenerateCoefficient(
                f"nonlocal coefficient K = {K:.6g} <= 0 at the current iterate" if K <= 0.0
                else f"nonlocal coefficient K <= 0 at the ray's peak: r d(lambda B + I(G))/dr "
                f"= {drive:.6g} <= 0 there, and r dJ/dr = 0 makes K = that / r dA/dr "
                f"(computed K = {K:.3g})"
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
                # a critical point above 0 and no higher than the ray's peak: a
                # mountain-pass level is positive, and J(0) = 0
                if 0.0 < J_u <= J_peak:
                    return report(point, J_u, res_n, prob.a - prob.b * A_n, it)
            newton_from = res / 2.0  # retry once the residual has halved

        d = _sobolev_descent(mesh, g)
        slope = float(np.dot(g[idx], d[idx]))
        trials = {}

        def phi(t):
            trials[t] = _ray_max(prob, nodal + t * d)
            return np.inf if trials[t] is None else trials[t][1]

        step = _armijo(phi, J_peak, slope,
                       min(1.0, _stiffness_norm(mesh, at.gmag) / math.sqrt(-slope)))
        if step is None:
            raise MaxIterations(
                f"line search stalled at residual {res:.3e} (tol {tol:g})"
            )
        peak = trials[step]

    raise MaxIterations(f"no convergence within {max_iter} descent steps")


# -- multiplicity -------------------------------------------------------------

_DISTINCT_TOL = 1e-3  # Sobolev distance below which two solutions are one orbit (up to sign)


def multiplicity_search(
    prob: KirchhoffProblem,
    *,
    n_starts: int = 8,
    k_max: int = 4,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> list[SolveReport]:
    """Mountain-pass solves from nested eigen-subspace seeds, one per orbit.

    Requires a >= b and an odd nonlinearity (every cataloged kind is odd),
    a nonnegative seed and n_starts, and k_max >= 1 when n_starts > 0
    (DomainError otherwise, as for a bad ``tol``).  The first
    min(k_max, n_starts) starts are the pure eigenvector directions; each
    later start i draws k = 1 + (i mod k_max) random coefficients of the
    first k eigenvectors.  A start with k = 1 lies on the ray of start 0
    or of its mirror image, where the solve repeats start 0's up to sign,
    so it draws its coefficient, which keeps the random stream of the
    later starts, and is not solved.  Starts whose solve fails
    (MaxIterations, DegenerateCoefficient, or GeometryNotFound when J has no
    maximum on the start's ray or the point found has Morse index 0) are
    skipped, and the orbits of the other starts are kept; if every start
    fails, the last failure's type is raised with each start's index,
    exception type and message.  Solutions are deduplicated under u -> -u,
    two being one orbit within _DISTINCT_TOL in the Sobolev norm, and
    returned sorted by increasing energy (ties broken by start index).
    """
    prob.require_valid_chain()
    if not prob.a >= prob.b:
        raise DomainError("multiplicity search requires a >= b")
    _nonnegative("seed", seed)
    _nonnegative("n_starts", n_starts)
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
            if k == 1:  # start 0's ray or its mirror: the same orbit
                continue
            nodal = sum(c * b.nodal_values for c, b in zip(coeffs, basis))
        nrm = sobolev_norm(GridFunction(prob.mesh, nodal), prob.p)
        if nrm == 0.0:
            continue
        try:
            e = _scale_until_negative(prob, nodal / nrm)
            report = mountain_pass_solve(prob, e, tol=tol, max_iter=max_iter)
        except (MaxIterations, DegenerateCoefficient, GeometryNotFound) as exc:
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
        if all(orbit_distance(u, kept.solution.nodal_values) > _DISTINCT_TOL
               for kept in distinct):
            distinct.append(rep)
    return distinct
