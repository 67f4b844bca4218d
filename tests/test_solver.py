import gc
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import brentq, minimize_scalar

from pxkirchhoff import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    GridFunction,
    KirchhoffProblem,
    MaxIterations,
    NonlinearitySpec,
    build_exponent_field,
    build_interval_mesh,
    build_rect_mesh,
    constant_exponent,
    energy_J,
    find_negative_energy_point,
    gradient_J,
    hessian_J,
    kirchhoff_A,
    laplace_eigenbasis,
    mountain_pass_solve,
    multiplicity_search,
    rayleigh_quotient_min,
    sobolev_norm,
    verify_mountain_geometry,
)
from pxkirchhoff import energy, solver
from pxkirchhoff.energy import (
    _point,
    _rayleigh_gradient,
    _rayleigh_on_ray,
    _rayleigh_ratio,
    _rayleigh_ray,
)
from pxkirchhoff.solver import _scale_until_negative, _segment_max
from oracles import (
    central_difference,
    make_residual_1d,
    newton_1d,
    rayleigh_descent_on_nodes,
)

RHO_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]


def model_problem(n=100, a=1.0, b=0.1, lam=0.0, q_const=4.5, theta=3.2,
                  kind="pure_power", coefficient=1.0):
    mesh = build_interval_mesh(n, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(q_const, mesh)
    spec = NonlinearitySpec(kind, q, coefficient=coefficient, theta=theta)
    return KirchhoffProblem(a, b, lam, p, spec, mesh)


def tent_on(mesh, peak=1.0):
    x = mesh.vertices[:, 0]
    return GridFunction(mesh, 2.0 * peak * np.minimum(x, 1.0 - x))


def _singular(*args):
    raise RuntimeError("Factor is exactly singular")


def fail_first_newton_attempt(monkeypatch):
    """Make the first Newton attempt fail on a singular J'' and let later
    ones run, so the next solve runs sweeps and Newton both; returns the
    peak residuals the attempts start from."""
    attempts = []
    direction, polish = solver._newton_direction, solver._newton_polish

    def first_attempt_fails(prob_, at, g, res, tol):
        attempts.append(res)
        monkeypatch.setattr(solver, "_newton_direction",
                            _singular if len(attempts) == 1 else direction)
        return polish(prob_, at, g, res, tol)

    monkeypatch.setattr(solver, "_newton_polish", first_attempt_fails)
    return attempts


@pytest.fixture(scope="module")
def model_solution():
    prob = model_problem()
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    return prob, geo, rep


# -- rayleigh ------------------------------------------------------------------

def test_rayleigh_homogeneity_constant_p():
    mesh = build_interval_mesh(80, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    lam, minimizer = rayleigh_quotient_min(p, mesh, seed=1, max_iter=200)
    base = _rayleigh_ratio(mesh, p, minimizer.nodal_values)
    for c in (0.5, -3.0, 7.7):
        assert _rayleigh_ratio(mesh, p, c * minimizer.nodal_values) == pytest.approx(
            base, rel=1e-12
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_rayleigh_descent_gradient_matches_finite_differences(dim):
    if dim == 1:
        mesh = build_interval_mesh(40, 0.0, 1.0)
        p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    else:
        mesh = build_rect_mesh(5, 6, ((0.0, 0.0), (1.0, 1.5)))
        p = constant_exponent(2.5, mesh)
    rng = np.random.default_rng(dim)
    nodal = GridFunction(mesh, 0.2 + rng.random(mesh.n_vertices)).nodal_values
    grad = _rayleigh_gradient(mesh, p, nodal)
    assert np.all(grad[mesh.boundary_mask] == 0.0)
    for _ in range(3):
        v = GridFunction(mesh, rng.standard_normal(mesh.n_vertices)).nodal_values
        fd = central_difference(lambda x: _rayleigh_ratio(mesh, p, x), nodal, v)
        assert fd == pytest.approx(float(np.dot(grad, v)), rel=1e-6)


def test_rayleigh_monotone_variable_p():
    mesh = build_interval_mesh(100, 0.0, 1.0)
    from pxkirchhoff import build_exponent_field

    p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    lam, _ = rayleigh_quotient_min(p, mesh, seed=0, max_iter=300)
    assert lam > 0.0


def test_rayleigh_stall_raises():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    with pytest.raises(MaxIterations):
        rayleigh_quotient_min(constant_exponent(2.0, mesh), mesh, max_iter=0)


def _rayleigh_mesh_and_p(case):
    if case == "1d_variable_p":
        mesh = build_interval_mesh(100, 0.0, 1.0)
        return mesh, build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    mesh = build_rect_mesh(16, 16, ((0.0, 0.0), (1.0, 1.0)))
    if case == "2d_constant_p":
        return mesh, constant_exponent(2.5, mesh)
    return mesh, build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)


@pytest.mark.parametrize("case", ["1d_variable_p", "2d_variable_p", "2d_constant_p"])
def test_rayleigh_descent_matches_the_descent_on_nodes(case, monkeypatch):
    # the descent on gathered element data takes the same steps (one Armijo
    # search each) as the one that re-gathers from nodal values for every
    # quantity
    mesh, p = _rayleigh_mesh_and_p(case)
    searches = []
    armijo = solver._armijo
    monkeypatch.setattr(solver, "_armijo", lambda *args: searches.append(1) or armijo(*args))
    lam, minimizer = rayleigh_quotient_min(p, mesh, seed=3, max_iter=300)
    ref_lam, ref_nodal, ref_steps = rayleigh_descent_on_nodes(p, mesh, seed=3, max_iter=300)
    assert lam == pytest.approx(ref_lam, rel=1e-12)
    assert len(searches) == ref_steps
    scale = np.max(np.abs(ref_nodal))
    assert np.max(np.abs(minimizer.nodal_values - ref_nodal)) <= 1e-8 * scale


class _CountingMap:
    """A sparse matrix that counts its products with vectors."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __matmul__(self, x):
        self.products.append(x.shape)
        return self.matrix @ x


def test_rayleigh_descent_gathers_twice_per_step(monkeypatch):
    # a start normalizes and takes R from one gather (two products, and no
    # stiffness product); then each step gathers u and d and makes the two
    # adjoint products of the gradient; the Armijo trials make none
    mesh, p = _rayleigh_mesh_and_p("2d_variable_p")
    mesh.interior_stiffness  # the preconditioner's matrix, built before counting
    products = []
    maps = {name: getattr(mesh, name) for name in (
        "gradient_map", "centroid_map", "gradient_adjoint", "centroid_adjoint", "stiffness")}
    for name, matrix in maps.items():
        mesh.__dict__[name] = _CountingMap(matrix, products)
    gathers = []
    element_gradients = energy.element_gradients
    monkeypatch.setattr(energy, "element_gradients",
                        lambda *args: gathers.append(1) or element_gradients(*args))
    trial_products = []
    armijo = solver._armijo

    def counted(f, f0, slope, step):
        before = len(products)
        step = armijo(f, f0, slope, step)
        trial_products.append(len(products) - before)
        return step

    monkeypatch.setattr(solver, "_armijo", counted)
    steps = 5
    with pytest.raises(MaxIterations):
        rayleigh_quotient_min(p, mesh, n_seeds=1, max_iter=steps)
    assert trial_products == [0] * steps
    assert len(gathers) == 1 + 2 * steps
    assert len(products) == 2 + 6 * steps


def _ray_cases(dim):
    """(mesh, variable p, smooth zero-trace functions) whose rays hold an
    interior minimum of R."""
    rng = np.random.default_rng(5)
    if dim == 1:
        mesh = build_interval_mesh(100, 0.0, 1.0)
        x = mesh.vertices[:, 0]
        p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
        us = [np.sin(np.pi * x) + sum(c * np.sin((j + 1) * np.pi * x)
                                      for j, c in enumerate(0.3 * rng.standard_normal(3)))
              for _ in range(4)]
    else:
        mesh = build_rect_mesh(10, 10, ((0.0, 0.0), (1.0, 1.0)))
        x, y = mesh.vertices.T
        p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
        us = [np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0.3 * c * x)
              for c in rng.standard_normal(4)]
    for u in us:
        u[mesh.boundary_mask] = 0.0
    return mesh, p, us


@pytest.mark.parametrize("dim", [1, 2])
def test_ray_restriction_matches_the_ratio_and_its_slope(dim):
    mesh, p, us = _ray_cases(dim)
    for u in us:
        ray = _rayleigh_ray(mesh, p, u)
        for s in (-6.0, -1.0, 0.0, 2.0, 6.0):
            R, slope = _rayleigh_on_ray(s, *ray)
            assert R == pytest.approx(_rayleigh_ratio(mesh, p, np.exp(s) * u), rel=1e-13)
            fd = central_difference(
                lambda t: np.log(_rayleigh_ratio(mesh, p, np.exp(t) * u)), s, 1.0)
            assert slope == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_ray_search_matches_bounded_brent(dim):
    mesh, p, us = _ray_cases(dim)
    for u in us:
        res = minimize_scalar(  # the derivative-free reference
            lambda s: _rayleigh_ratio(mesh, p, np.exp(s) * u),
            bounds=(-6.0, 6.0), method="bounded", options={"xatol": 1e-10},
        )
        assert -6.0 + 1e-3 < res.x < 6.0 - 1e-3  # an interior minimum
        R = _rayleigh_ratio(mesh, p, solver._ray_minimize(mesh, p, u))
        assert R <= res.fun * (1.0 + 1e-13)


def test_ray_search_is_a_no_op_for_constant_p():
    mesh, _, us = _ray_cases(2)
    p = constant_exponent(2.5, mesh)
    assert _rayleigh_on_ray(3.0, *_rayleigh_ray(mesh, p, us[0]))[1] == 0.0
    assert solver._ray_minimize(mesh, p, us[0]).tobytes() == us[0].tobytes()


def test_rayleigh_non_monotone_p_names_the_missing_minimizer():
    # for p = 2 + |x - 1/2| the infimum of R is 0 (Fan-Zhang-Zhao 2005), so
    # R decreases along a whole ray and the solver says so at once
    mesh = build_interval_mesh(100, 0.0, 1.0)
    p = build_exponent_field(2.0 + np.abs(mesh.element_centroids[:, 0] - 0.5), mesh)
    start = time.perf_counter()
    with pytest.raises(MaxIterations, match="R decreases along the whole ray") as err:
        rayleigh_quotient_min(p, mesh, seed=0, max_iter=2000)
    assert time.perf_counter() - start < 1.0
    assert "no minimizer on the ray" in str(err.value)
    assert "infimum of R can be 0" in str(err.value)


def _retained_per_call(f):
    """Bytes of traced memory that each of 99 more calls of f leaves behind,
    with the cyclic collector off, after one warm-up and one traced call."""
    f()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        f()
        one = tracemalloc.get_traced_memory()[0]
        for _ in range(99):
            f()
        hundred = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return (hundred - one) / 99


def _square_ground_mode(n=16):
    mesh = build_rect_mesh(n, n, ((0.0, 0.0), (1.0, 1.0)))
    x, y = mesh.vertices.T
    phi = np.sin(np.pi * x) * np.sin(np.pi * y)
    phi[mesh.boundary_mask] = 0.0
    return mesh, phi


def test_ray_searches_retain_no_element_data():
    # the ray slope is a closure over the element weights; once a search
    # returns, nothing may keep that closure (and so one per-element array)
    # alive until the cyclic collector runs
    mesh, phi = _square_ground_mode()
    p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    u = phi * (1.0 + 0.3 * mesh.vertices[:, 0])
    assert not np.array_equal(solver._ray_minimize(mesh, p, u), u)
    assert _retained_per_call(lambda: solver._ray_minimize(mesh, p, u)) < 8 * mesh.n_elements


# -- negative-energy point -----------------------------------------------------

def test_doubling_returns_first_power_past_root():
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh)
    # quadrature oracle: J(t*tent) = 2 t^2 - 0.25 t^4 up to the O(h^2)
    # quartic quadrature defect, so the sign flips between t = 2 and t = 4
    assert energy_J(tent, prob) == pytest.approx(1.75, abs=1e-2)
    assert energy_J(GridFunction(prob.mesh, 2 * tent.nodal_values), prob) > 0.0
    assert energy_J(GridFunction(prob.mesh, 4 * tent.nodal_values), prob) < 0.0
    e = find_negative_energy_point(prob, tent)
    assert np.array_equal(e.nodal_values, 4.0 * tent.nodal_values)


def test_doubling_continues_past_min_norm():
    # |tent| = 2 in the Sobolev norm; J < 0 from t = 4, norm > 10 from t = 8
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh)
    e = find_negative_energy_point(prob, tent, min_norm=10.0)
    assert np.array_equal(e.nodal_values, 8.0 * tent.nodal_values)


def test_doubling_without_nonlinearity():
    prob = model_problem(kind="zero")
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    assert energy_J(e, prob) < 0.0


def test_negative_point_preconditions():
    prob = model_problem()
    with pytest.raises(DomainError):
        find_negative_energy_point(prob, GridFunction(prob.mesh, np.zeros(101)))
    with pytest.raises(DomainError):
        find_negative_energy_point(
            prob, GridFunction(prob.mesh, -tent_on(prob.mesh).nodal_values)
        )


# -- geometry ------------------------------------------------------------------

def test_geometry_tent_direction_closed_form():
    prob = model_problem(q_const=4.0, theta=3.0)
    # J(0.5 * tent/2) = 0.125 - 0.05*0.125^2 - 0.25^4/(4*5), about 0.124
    quarter_tent = GridFunction(prob.mesh, 0.25 * tent_on(prob.mesh).nodal_values)
    expected = 0.125 - 0.05 * 0.125**2 - 0.25**4 / 20.0
    assert energy_J(quarter_tent, prob) == pytest.approx(expected, abs=1e-4)
    assert energy_J(quarter_tent, prob) > 0.0


def test_geometry_report_invariants(model_solution):
    prob, geo, _ = model_solution
    assert geo.rho > 0.0 and geo.alpha > 0.0
    assert geo.directions_tested == 23  # 3 eigen probes + 20 random draws
    assert geo.negative_energy == pytest.approx(energy_J(geo.negative_point, prob))
    assert geo.negative_energy < 0.0
    assert sobolev_norm(geo.negative_point, prob.p) > geo.rho


def test_geometry_computes_eigenbasis_once(monkeypatch):
    prob = model_problem()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return laplace_eigenbasis(*args, **kwargs)

    monkeypatch.setattr(solver, "laplace_eigenbasis", counted)
    verify_mountain_geometry(prob, RHO_GRID, 5, seed=0)
    assert len(calls) == 1


def test_geometry_not_found_for_large_lambda():
    mesh = build_interval_mesh(100, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    lam_p, _ = rayleigh_quotient_min(p, mesh, seed=0)
    prob = model_problem(lam=1.05 * lam_p)
    with pytest.raises(GeometryNotFound):
        verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)


def test_geometry_empty_grid():
    prob = model_problem()
    with pytest.raises(GeometryNotFound):
        verify_mountain_geometry(prob, [], 10, seed=0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_geometry_rejects_radii_not_finite_and_positive(bad):
    # J is even, so a radius of -1 would sample the sphere of radius 1
    prob = _variable_p_1d()
    with pytest.raises(DomainError, match=f"radius {bad} must be finite and positive"):
        verify_mountain_geometry(prob, [0.1, bad, 1.0], 5, seed=0)


def _brute_force_geometry(prob, rho_grid, n_dirs, seed):
    """The geometry probe by energy_J and sobolev_norm at every sample: the
    same directions, floors over sorted radii, and doublings of the ground
    vector until J < 0 and its norm exceeds the chosen radius."""
    mesh = prob.mesh
    rng = np.random.default_rng(seed)
    directions = [d.nodal_values for d in laplace_eigenbasis(mesh, 3)]
    for _ in range(n_dirs):
        nodal = np.zeros(mesh.n_vertices)
        nodal[mesh.interior] = rng.standard_normal(len(mesh.interior))
        directions.append(nodal)
    unit = [d / sobolev_norm(GridFunction(mesh, d), prob.p) for d in directions]
    floors = [(rho, min(energy_J(GridFunction(mesh, rho * u), prob) for u in unit))
              for rho in sorted(rho_grid)]
    rho, alpha = [f for f in floors if f[1] > 0.0][-1]
    psi, t = np.abs(directions[0]), 1.0
    while True:
        e = GridFunction(mesh, t * psi)
        if energy_J(e, prob) < 0.0 and sobolev_norm(e, prob.p) > rho:
            return rho, alpha, e
        t *= 2.0


def _variable_p_1d():
    mesh = build_interval_mesh(60, 0.0, 1.0)
    p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("scaled_power", constant_exponent(4.5, mesh),
                            coefficient=3.0, theta=3.2)
    return KirchhoffProblem(1.0, 0.1, 2.0, p, spec, mesh)


def _constant_p_2d():
    mesh = build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))
    spec = NonlinearitySpec("scaled_power", constant_exponent(4.5, mesh),
                            coefficient=2.0, theta=3.2)
    return KirchhoffProblem(1.0, 0.05, 5.0, constant_exponent(2.0, mesh), spec, mesh)


@pytest.mark.parametrize("make", [_variable_p_1d, _constant_p_2d], ids=["1d", "2d"])
def test_geometry_rays_match_brute_force_samples(make, monkeypatch):
    prob = make()
    grid = [0.05, 0.2, 1.0, 4.0, 6.0, 8.0, 16.0]  # floors turn negative at 6 or 8
    rho, alpha, e = _brute_force_geometry(prob, grid, 12, seed=3)
    calls = []
    monkeypatch.setattr(solver, "energy_J", lambda u, pr: calls.append(u) or energy_J(u, pr))
    geo = verify_mountain_geometry(prob, grid[::-1], 12, seed=3)
    assert len(calls) == 1  # the reported negative energy; every sample is a ray's
    assert geo.rho == rho < 8.0 and geo.alpha > 0.0
    assert geo.alpha == pytest.approx(alpha, rel=1e-12)
    assert np.array_equal(geo.negative_point.nodal_values, e.nodal_values)
    assert geo.directions_tested == 15


def test_geometry_memory_per_element():
    # one direction at a time: no stack of directions by elements
    mesh = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0)))
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    verify_mountain_geometry(prob, RHO_GRID, 2, seed=0)  # warm up lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * mesh.n_elements


def test_geometry_rejects_negative_n_dirs():
    with pytest.raises(DomainError, match="n_dirs must be nonnegative, got -3"):
        verify_mountain_geometry(model_problem(n=12), RHO_GRID, -3)


# -- mountain pass -------------------------------------------------------------

def test_model_solve_report(model_solution):
    prob, geo, rep = model_solution
    assert rep.residual_norm <= 1e-6
    assert 0.0 < rep.energy < prob.ps_ceiling
    assert rep.nonlocal_coefficient > 0.0
    assert rep.below_ps_ceiling
    assert rep.below_ps_ceiling == (rep.energy < prob.ps_ceiling)
    # independent residual certificate
    recheck = gradient_J(rep.solution, prob).nodal_values
    assert np.linalg.norm(recheck[prob.mesh.interior]) <= 1e-6
    # nontriviality relative to the verified radius
    assert sobolev_norm(rep.solution, prob.p) > 0.1 * geo.rho


def test_path_energies_monotone(model_solution):
    _, _, rep = model_solution
    assert all(a >= b for a, b in zip(rep.path_energies, rep.path_energies[1:]))
    assert len(rep.path_energies) == rep.iterations + 1
    assert len(rep.iteration_trace) == rep.iterations + 1


def test_solve_energy_call_budget(monkeypatch):
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    calls = []

    def counted(u, p):
        calls.append(1)
        return energy_J(u, p)

    monkeypatch.setattr(solver, "energy_J", counted)
    attempts = fail_first_newton_attempt(monkeypatch)
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert rep.iterations > 0 and rep.newton_steps > 0
    assert attempts[0] == rep.iteration_trace[0][2]  # first attempt at sweep 0
    assert len(calls) <= 15 + 1 + 3 * rep.iterations


def test_segment_max_rejects_nonzero_trace():
    prob = model_problem()
    ua = tent_on(prob.mesh).nodal_values
    ub = 2.0 * ua
    ub[0] = 1e-3
    with pytest.raises(DomainError):
        _segment_max(prob, ua, ub)


def test_armijo_halves_to_sufficient_decrease():
    # f(s) = (s - 1/4)^2 - 1/16 descends from f(0) = 0 with slope -1/2;
    # steps 1 and 1/2 miss the Armijo bound, 1/4 meets it
    def f(s):
        return (s - 0.25) ** 2 - 0.0625

    assert solver._armijo(f, 0.0, -0.5, 1.0) == 0.25
    for bad in (np.nan, np.inf):
        assert solver._armijo(lambda s: bad, 0.0, -1.0, 1.0) is None
    assert solver._armijo(f, 0.0, -0.5, 1e-16) is None


def _cubic(c):
    return lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]


def test_brent_root_matches_scipy_brentq_bitwise():
    rng = np.random.default_rng(7)
    compared = 0
    while compared < 2000:
        f = _cubic(rng.standard_normal(4).tolist())
        a, b = rng.uniform(-3.0, 3.0, 2).tolist()
        if not f(a) * f(b) < 0.0:
            continue
        compared += 1
        for xtol in (1e-12, 2e-12, 1e-6):
            for x0, x1 in ((a, b), (b, a)):
                root = solver._brent_root(f, x0, f(x0), x1, f(x1), xtol)
                assert root == brentq(f, x0, x1, xtol=xtol)


def test_brent_root_returns_an_exactly_zero_end():
    f = _cubic([1.0, 0.0, -1.0, 0.0])  # x^3 - x: roots -1, 0, 1
    for a, b, root in ((0.0, 0.5, 0.0), (0.0, 2.0, 0.0), (-0.5, 1.0, 1.0), (2.0, 1.0, 1.0)):
        assert solver._brent_root(f, a, f(a), b, f(b), 1e-12) == root


def test_brent_root_rejects_nan_and_one_signed_ends():
    def f(x):
        return np.nan if x > 0.25 else x - 1.0

    with pytest.raises(DomainError, match=r"value at t = 0\.5 is NaN"):
        solver._brent_root(f, 0.0, -1.0, 1.0, 1.0, 1e-12)
    with pytest.raises(DomainError, match=r"value at t = 1 is NaN"):
        solver._brent_root(f, 0.0, -1.0, 1.0, np.nan, 1e-12)
    with pytest.raises(DomainError, match="one sign at both ends"):
        solver._brent_root(f, 0.0, -1.0, 1.0, -2.0, 1e-12)


def test_brent_root_raises_once_its_cap_is_used_up(monkeypatch):
    f = _cubic([1.0, 0.0, 0.0, -0.3])
    monkeypatch.setattr(solver, "_BRENT_ITER", 2)
    with pytest.raises(MaxIterations, match=r"no root of f in \[0, 1\] .* within 2 iterations"):
        solver._brent_root(f, 0.0, f(0.0), 1.0, f(1.0), 1e-12)
    monkeypatch.undo()
    assert solver._brent_root(f, 0.0, f(0.0), 1.0, f(1.0), 1e-12) == brentq(f, 0.0, 1.0, xtol=1e-12)


def test_segment_max_finds_the_ray_peak():
    # J(t*tent) rises from J(0) = 0 and is negative at t = 4, so the segment
    # has an interior maximum; the direct energy must agree with it there
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh).nodal_values
    point, J = _segment_max(prob, np.zeros_like(tent), 4.0 * tent)
    assert 0.0 < J
    assert J == pytest.approx(energy_J(GridFunction(prob.mesh, point), prob), rel=1e-13)
    for s in (0.99, 1.01):
        assert energy_J(GridFunction(prob.mesh, s * point), prob) <= J


def _bounded_brent_max(prob, ua, ub):
    # the derivative-free reference: bounded Brent on the direct energy
    delta = ub - ua
    res = minimize_scalar(
        lambda t: -energy_J(GridFunction(prob.mesh, ua + t * delta), prob),
        bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12},
    )
    return -float(res.fun)


@pytest.mark.parametrize("variable_p", [False, True])
def test_segment_max_matches_bounded_brent(variable_p):
    # J(t*tent) peaks near t = 2 (q = 4), so segments from about tent to
    # 3 tent, bent by smooth noise, have an interior maximum
    mesh = build_interval_mesh(100, 0.0, 1.0)
    if variable_p:
        p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    else:
        p = constant_exponent(2.0, mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0)
    prob = KirchhoffProblem(1.0, 0.1, 0.3, p, spec, mesh)
    tent = tent_on(mesh).nodal_values
    x = mesh.vertices[:, 0]
    rng = np.random.default_rng(7)
    for _ in range(6):
        bend = sum(c * np.sin((j + 1) * np.pi * x)
                   for j, c in enumerate(0.05 * rng.standard_normal(3)))
        ua = (1.0 + 0.2 * rng.random()) * tent + bend
        ub = (2.8 + 0.2 * rng.random()) * tent - bend
        ua[mesh.boundary_mask] = ub[mesh.boundary_mask] = 0.0
        point, J = _segment_max(prob, ua, ub)
        assert J > max(energy_J(GridFunction(mesh, u), prob) for u in (ua, ub))
        assert J == pytest.approx(energy_J(GridFunction(mesh, point), prob), rel=1e-13)
        reference = _bounded_brent_max(prob, ua, ub)
        assert J >= reference - 1e-13 * abs(reference)


def test_segment_max_monotone_segments_return_the_endpoint():
    # J(t*tent) rises on 0 < t < 2, so 0.2 tent -> 0.5 tent ascends
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh).nodal_values
    low, high = 0.2 * tent, 0.5 * tent
    for ua, ub, end in ((low, high, high), (high, low, high)):
        point, J = _segment_max(prob, ua, ub)
        assert point.tobytes() == end.tobytes()
        assert J == pytest.approx(energy_J(GridFunction(prob.mesh, end), prob), rel=1e-13)


def test_segment_searches_retain_no_line_data(monkeypatch):
    # the 2-D ground mode's ray peaks inside [phi, 4 phi], so each search
    # ends in a Brent root of the line slope, a closure over the line's
    # element data; see test_ray_searches_retain_no_element_data
    mesh, phi = _square_ground_mode()
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    roots = []
    brent_root = solver._brent_root
    monkeypatch.setattr(solver, "_brent_root", lambda *a: roots.append(1) or brent_root(*a))
    _segment_max(prob, phi, 4.0 * phi)
    assert roots == [1]
    monkeypatch.undo()
    assert _retained_per_call(lambda: _segment_max(prob, phi, 4.0 * phi)) < 8 * mesh.n_elements


def test_segment_search_line_evaluations(monkeypatch):
    # each call of the line restriction is one (possibly batched) evaluation
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    evaluations, per_search = [0], []
    line_energy, segment_max = solver._line_energy, solver._segment_max

    def counted_line(*args):
        restriction = line_energy(*args)

        def evaluate(t):
            evaluations[0] += 1
            return restriction(t)

        return evaluate

    def counted_search(*args):
        before = evaluations[0]
        out = segment_max(*args)
        per_search.append(evaluations[0] - before)
        return out

    monkeypatch.setattr(solver, "_line_energy", counted_line)
    monkeypatch.setattr(solver, "_segment_max", counted_search)
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert len(per_search) == 2 * (rep.iterations + 1)
    assert np.mean(per_search) <= 12
    assert max(per_search) <= 45


def test_solve_requires_negative_endpoint():
    prob = model_problem()
    with pytest.raises(DomainError):
        mountain_pass_solve(prob, tent_on(prob.mesh))


def test_immediate_return_at_critical_path_point(model_solution):
    prob, _, rep = model_solution
    u_star = rep.solution.nodal_values
    scale = 2.0
    while energy_J(GridFunction(prob.mesh, scale * u_star), prob) >= 0.0:
        scale *= 2.0
    e = GridFunction(prob.mesh, scale * u_star)
    quick = mountain_pass_solve(prob, e, n_path=int(scale) + 1, tol=1e-5)
    assert quick.iterations == 0
    assert quick.energy == pytest.approx(rep.energy, abs=1e-8)


def test_plus_minus_e_land_on_one_orbit(model_solution):
    prob, geo, rep = model_solution
    neg = mountain_pass_solve(
        prob, GridFunction(prob.mesh, -geo.negative_point.nodal_values),
        n_path=31, tol=1e-6,
    )
    assert abs(neg.energy - rep.energy) <= 1e-8
    mirror = min(
        sobolev_norm(GridFunction(prob.mesh, neg.solution.nodal_values - rep.solution.nodal_values), prob.p),
        sobolev_norm(GridFunction(prob.mesh, neg.solution.nodal_values + rep.solution.nodal_values), prob.p),
    )
    assert mirror <= 1e-3


def test_antisymmetric_seed_reaches_the_one_node_orbit():
    # Newton from the peak of the antisymmetric seed's path lands on the
    # one-node orbit that the exact scaling reduction predicts (4.91670,
    # K 0.0187), below that peak
    prob = model_problem()
    phi2 = laplace_eigenbasis(prob.mesh, 2)[1]
    e = _scale_until_negative(
        prob, phi2.nodal_values / sobolev_norm(phi2, prob.p)
    )
    rep = mountain_pass_solve(prob, e, n_path=31, tol=1e-6)
    assert rep.residual_norm <= 1e-6
    assert rep.newton_steps > 0
    assert rep.energy <= rep.iteration_trace[-1][1]
    assert rep.energy == pytest.approx(4.91670, abs=1e-5)
    assert rep.nonlocal_coefficient == pytest.approx(0.0187, abs=1e-4)
    u = rep.solution.nodal_values
    assert np.allclose(u, -u[::-1], atol=1e-8)  # one node, at x = 1/2
    fn = make_residual_1d(prob)
    root, ok = newton_1d(fn, u[1:-1].copy(), tol=1e-12)
    assert ok and np.max(np.abs(root - u[1:-1])) <= 1e-6


def test_degenerate_coefficient_is_raised():
    # with lambda < 0 the ray peak of the ground direction can sit where K
    # is already negative: the solver must surface that rather than continue
    prob = model_problem(lam=-20.0, kind="scaled_power")
    x = prob.mesh.vertices[:, 0]
    seed = GridFunction(prob.mesh, np.sin(np.pi * x))
    e = _scale_until_negative(prob, seed.nodal_values / sobolev_norm(seed, prob.p))
    with pytest.raises(DegenerateCoefficient, match="K = -1.02"):
        mountain_pass_solve(prob, e, n_path=31, tol=1e-6)


def test_newton_trial_with_nonpositive_K_is_backtracked(monkeypatch):
    # from the third eigenvector's ray peak on the coarse mesh, full Newton
    # steps toward the two-node orbit (K 0.0023) overshoot into K <= 0;
    # those trials must be halved away, never accepted.  Each trial's K
    # comes from the A that the kernel's residual form returns.
    prob = model_problem(n=12)
    phi3 = laplace_eigenbasis(prob.mesh, 3)[2]
    e = _scale_until_negative(prob, phi3.nodal_values / sobolev_norm(phi3, prob.p))
    polishing, trial_K, accepted = [False], [], []
    polish, residual, armijo = (solver._newton_polish, solver._residual_of_elements,
                                solver._armijo)

    def flagged_polish(*args):
        polishing[0] = True
        return polish(*args)

    def recorded_residual(pb, *data):
        g, A = residual(pb, *data)
        if polishing[0]:
            trial_K.append(pb.a - pb.b * A)
        return g, A

    def recorded_armijo(f, f0, slope, step):
        t = armijo(f, f0, slope, step)
        if polishing[0] and t is not None:
            accepted.append(trial_K[-1])  # the K of the trial that passed
        return t

    monkeypatch.setattr(solver, "_newton_polish", flagged_polish)
    monkeypatch.setattr(solver, "_residual_of_elements", recorded_residual)
    monkeypatch.setattr(solver, "_armijo", recorded_armijo)
    rep = mountain_pass_solve(prob, e, n_path=31, tol=1e-6)
    assert min(trial_K) <= 0.0
    assert accepted and min(accepted) > 0.0
    assert rep.newton_steps > 0
    assert rep.residual_norm <= 1e-6
    assert 0.0 < rep.nonlocal_coefficient < 0.01
    assert rep.energy == pytest.approx(4.989576, abs=1e-6)

    # even a K <= 0 trial whose residual read 0 would not be accepted
    def zero_where_K_nonpositive(pb, *data):
        g, A = residual(pb, *data)
        return (np.zeros_like(g) if pb.a - pb.b * A <= 0.0 else g), A

    monkeypatch.setattr(solver, "_residual_of_elements", zero_where_K_nonpositive)
    faked = mountain_pass_solve(prob, e, n_path=31, tol=1e-6)
    assert faked.nonlocal_coefficient > 0.0
    assert faked.energy == rep.energy


def test_newton_invariants_sweeps_budget_and_searches(monkeypatch):
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    energy_calls, searches = [0], [0]
    energy, segment_max = solver.energy_J, solver._segment_max

    def counted_energy(u, pb):
        energy_calls[0] += 1
        return energy(u, pb)

    def counted_search(*args):
        searches[0] += 1
        return segment_max(*args)

    monkeypatch.setattr(solver, "energy_J", counted_energy)
    monkeypatch.setattr(solver, "_segment_max", counted_search)
    attempts = fail_first_newton_attempt(monkeypatch)
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert rep.newton_steps > 0 and rep.iterations > 0
    assert len(rep.path_energies) == len(rep.iteration_trace) == rep.iterations + 1
    assert energy_calls[0] <= 1 + 3 * rep.iterations
    assert searches[0] == 2 * (rep.iterations + 1)
    # Newton was first tried from the first sweep's peak, and the sweep that
    # handed over again had its peak residual a decade lower
    assert attempts[0] == rep.iteration_trace[0][2]
    assert len(attempts) == 2
    assert rep.iteration_trace[-1][2] == attempts[1] <= attempts[0] / 10.0
    assert rep.residual_norm <= 1e-6 < rep.iteration_trace[-1][2]
    assert rep.energy == energy(rep.solution, prob)


def _kernel_cases():
    """A 1-D and a 2-D problem with variable p, lambda != 0 and a scaled
    power, each with a random zero-trace point."""
    rng = np.random.default_rng(5)
    for mesh in (build_interval_mesh(30, 0.0, 1.0),
                 build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0)))):
        p = build_exponent_field(2.1 + 0.3 * mesh.element_centroids[:, 0], mesh)
        spec = NonlinearitySpec("scaled_power", constant_exponent(5.0, mesh),
                                coefficient=1.5)
        prob = KirchhoffProblem(1.0, 0.1, 2.0, p, spec, mesh)
        yield prob, GridFunction(mesh, rng.standard_normal(mesh.n_vertices))


def test_kernel_forms_are_bitwise_the_nodal_functions():
    # the residual, A, J and J'' that the solver forms from one gather are
    # bitwise those of gradient_J, kirchhoff_A, energy_J and hessian_J
    for prob, u in _kernel_cases():
        at, idx = _point(prob.mesh, u.nodal_values), prob.mesh.interior
        g, A = solver._residual_of_elements(prob, at)
        assert np.array_equal(g[idx], gradient_J(u, prob).nodal_values[idx])
        assert A == kirchhoff_A(u, prob.p)
        assert float(solver._energy_of_elements(prob, A, at.uc)) == energy_J(u, prob)
        S, dA = solver._hessian_of_elements(prob, at)
        S_ref, dA_ref = hessian_J(u, prob)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(S, name), getattr(S_ref, name))
        assert np.array_equal(dA, dA_ref)


def test_solve_certificate_is_bitwise_the_nodal_functions():
    # the residual, K and energy reported for a Newton point come from its
    # kept element data, and equal the nodal functions at the solution
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert rep.newton_steps > 0
    u, idx = rep.solution, prob.mesh.interior
    assert rep.residual_norm == float(np.linalg.norm(gradient_J(u, prob).nodal_values[idx]))
    assert rep.nonlocal_coefficient == prob.a - prob.b * kirchhoff_A(u, prob.p)
    assert rep.energy == energy_J(u, prob)
    assert (rep.morse_index, rep.lowest_eigenvalues) == solver._morse(
        prob, _point(prob.mesh, u.nodal_values))


def test_newton_polish_gathers_once_per_trial(monkeypatch):
    # one gather per merit trial: the start is the peak's point, and the
    # Hessians, the accepted residuals and the returned point need none
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    handed, polish = [], solver._newton_polish
    monkeypatch.setattr(solver, "_newton_polish",
                        lambda *args: handed.append(args) or polish(*args))
    mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    monkeypatch.undo()

    gathers, trials = [], [0]
    element_gradients, armijo = energy.element_gradients, solver._armijo
    monkeypatch.setattr(energy, "element_gradients",
                        lambda *args: gathers.append(1) or element_gradients(*args))

    def counted(f, f0, slope, step):
        def trial(t):
            trials[0] += 1
            return f(t)
        return armijo(trial, f0, slope, step)

    monkeypatch.setattr(solver, "_armijo", counted)
    point, res, A, steps = polish(*handed[0])
    assert point is not None and res <= 1e-6 and trials[0] >= steps > 1
    assert len(gathers) == trials[0]
    monkeypatch.undo()
    again = _point(prob.mesh, point.nodal)  # the kept data are those of the point
    for name in ("grads", "gmag", "uc"):
        assert np.array_equal(getattr(point, name), getattr(again, name))


def test_first_path_energies_come_from_the_ray_of_e(monkeypatch):
    # J(t e) at the interior points of the first path comes from the
    # weights of e's ray, gathered once, and agrees with energy_J there
    rays, ray = [], solver._energy_ray

    def recorded(pb, nodal):
        gmag, energy_on_ray = ray(pb, nodal)

        def evaluate(r):
            J = energy_on_ray(r)
            rays.append((nodal, np.asarray(r), J))
            return J

        return gmag, evaluate

    monkeypatch.setattr(solver, "_energy_ray", recorded)
    n_path = 15
    (variable, _), _ = _kernel_cases()  # 1-D, variable p, lambda = 2
    for prob in (model_problem(n=60), variable):
        e = find_negative_energy_point(prob, tent_on(prob.mesh))
        rays.clear()
        mountain_pass_solve(prob, e, n_path=n_path, tol=1e-6)
        (nodal, r, J), = rays
        assert np.array_equal(nodal, e.nodal_values)
        assert np.array_equal(r, np.linspace(0.0, 1.0, n_path)[1:-1])
        ref = np.array([energy_J(GridFunction(prob.mesh, t * nodal), prob) for t in r])
        assert np.all(np.abs(J - ref) <= 1e-13 * np.abs(ref))


def test_failed_newton_attempts_fall_back_to_sweeping(monkeypatch):
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    polished = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert polished.iterations == 0 and polished.newton_steps > 0

    monkeypatch.setattr(solver, "_newton_direction", _singular)
    swept = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert swept.residual_norm <= 1e-6
    assert swept.iterations > polished.iterations
    assert swept.newton_steps == 0
    assert swept.energy == pytest.approx(polished.energy, rel=1e-9)
    assert swept.morse_index == polished.morse_index == 1

    # after one failed attempt the next waits a decade of residual, then certifies
    monkeypatch.undo()
    attempts = fail_first_newton_attempt(monkeypatch)
    retried = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert retried.newton_steps > 0
    assert polished.iterations < retried.iterations < swept.iterations
    assert retried.iteration_trace[-1][2] <= attempts[0] / 10.0
    assert retried.energy == pytest.approx(polished.energy, rel=1e-9)


def test_newton_point_above_the_path_peak_is_discarded(monkeypatch):
    # any path's peak bounds the mountain-pass level from above, so a Newton
    # point above the peak it started from is another critical point: here
    # the polish returns the one-node orbit (4.917), above every peak of the
    # ground path, and each attempt is discarded until the sweeps certify
    prob = model_problem(n=60)
    phi2 = laplace_eigenbasis(prob.mesh, 2)[1]
    higher = mountain_pass_solve(
        prob, _scale_until_negative(prob, phi2.nodal_values / sobolev_norm(phi2, prob.p)))
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    polished = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    peaks = []

    def polish_to_higher(prob_, at, g, res, tol):
        peaks.append(energy_J(GridFunction(prob_.mesh, at.nodal), prob_))
        return (_point(prob_.mesh, higher.solution.nodal_values), higher.residual_norm,
                kirchhoff_A(higher.solution, prob_.p), 1)

    monkeypatch.setattr(solver, "_newton_polish", polish_to_higher)
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert higher.residual_norm <= 1e-6 and higher.nonlocal_coefficient > 0.0
    assert len(peaks) > 1 and higher.energy > max(peaks)
    assert rep.residual_norm == rep.iteration_trace[-1][2] <= 1e-6  # the swept answer
    assert rep.energy == rep.iteration_trace[-1][1]
    assert rep.energy == pytest.approx(polished.energy, rel=1e-9)


def test_newton_steps_are_mesh_independent():
    # Newton on the exact Hessian from the first path peak needs the same
    # number of steps on a mesh twice as fine
    steps = []
    for n in (60, 120):
        prob = model_problem(n=n)
        e = find_negative_energy_point(prob, tent_on(prob.mesh))
        rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
        assert rep.iterations == 0 and rep.residual_norm <= 1e-6
        steps.append(rep.newton_steps)
    assert steps[0] == steps[1] > 0


def test_negative_max_iter_is_a_domain_error():
    prob = model_problem(n=12)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    with pytest.raises(DomainError, match="max_iter must be nonnegative, got -1"):
        mountain_pass_solve(prob, e, max_iter=-1)
    # not MaxIterations, which would name a used-up budget
    with pytest.raises(DomainError, match="max_iter must be nonnegative, got -1"):
        rayleigh_quotient_min(prob.p, prob.mesh, max_iter=-1)


def test_sherman_morrison_solve_matches_a_dense_solve():
    prob = model_problem(n=12)
    rng = np.random.default_rng(5)
    u = GridFunction(prob.mesh, 0.5 + rng.random(prob.mesh.n_vertices))
    S, dA = hessian_J(u, prob)
    dense = S.toarray() - prob.b * np.outer(dA, dA)
    rhs = rng.standard_normal(len(dA))
    d = solver._newton_direction(S, dA, prob.b, rhs)
    assert np.allclose(d, np.linalg.solve(dense, rhs), rtol=1e-10, atol=1e-12)
    with pytest.raises(RuntimeError):  # a singular rank-one update
        solver._newton_direction(scipy.sparse.identity(3, format="csc"),
                                 np.array([1.0, 0.0, 0.0]), 1.0, np.ones(3))
    with pytest.raises(RuntimeError):  # a singular sparse part
        solver._newton_direction(scipy.sparse.csc_matrix((3, 3)),
                                 np.ones(3), 1.0, np.ones(3))


def _dense_pencil_eigenvalues(prob, u):
    # central differences of gradient_J, column by column, against the
    # interior stiffness: an oracle independent of hessian_J and ARPACK
    idx = prob.mesh.interior
    H = np.empty((len(idx), len(idx)))
    for j, i in enumerate(idx):
        v = np.zeros(prob.mesh.n_vertices)
        v[i] = 1.0
        H[:, j] = central_difference(
            lambda x: gradient_J(GridFunction(prob.mesh, x), prob).nodal_values,
            u.nodal_values, v, h=1e-6,
        )[idx]
    stiff = prob.mesh.stiffness[np.ix_(idx, idx)].toarray()
    return scipy.linalg.eigh(0.5 * (H + H.T), stiff, eigvals_only=True)


def _inertia(prob, u):
    return solver._inertia_index(*hessian_J(u, prob), prob.b)


def test_morse_index_1d_model(model_solution):
    prob, _, rep = model_solution
    assert rep.morse_index == 1
    low, second = rep.lowest_eigenvalues
    assert low < 0.0 < second
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    assert rep.lowest_eigenvalues == pytest.approx(ref[:2], abs=1e-6)


@pytest.mark.parametrize("n", [24, 25])
def test_morse_index_on_even_and_odd_meshes(n):
    # an odd mesh puts an element, not a vertex, at the middle of the
    # symmetric ground state; the index is still 1 there
    prob = model_problem(n=n)
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    assert rep.lowest_eigenvalues == pytest.approx(ref[:2], abs=1e-6)


def test_morse_index_2d():
    mesh = build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(4.5, mesh)
    prob = KirchhoffProblem(
        1.0, 0.02, 0.0, p, NonlinearitySpec("pure_power", q, theta=3.2), mesh
    )
    geo = verify_mountain_geometry(prob, [0.01, 0.05, 0.1, 0.5, 1.0, 2.0], 15, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=25, tol=1e-6)
    assert rep.morse_index == 1
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert _inertia(prob, rep.solution) == int(np.sum(ref < 0.0))
    assert rep.lowest_eigenvalues == pytest.approx(ref[:2], abs=1e-6)


@pytest.fixture(scope="module")
def index_three_orbit():
    # the two-node orbit of the coarse mesh has index 3
    prob = model_problem(n=12)
    phi3 = laplace_eigenbasis(prob.mesh, 3)[2]
    e = _scale_until_negative(prob, phi3.nodal_values / sobolev_norm(phi3, prob.p))
    return prob, mountain_pass_solve(prob, e, n_path=31, tol=1e-6)


def _count_eigsh(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(A, k, *args, **kwargs):
        calls.append(k)
        return eigsh(A, k, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


def test_morse_index_counts_every_negative_eigenvalue(index_three_orbit, monkeypatch):
    # the index comes from inertia and one ARPACK call for the two lowest
    # eigenvalues, which the index-3 orbit has both negative
    prob, rep = index_three_orbit
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 3
    assert rep.lowest_eigenvalues == pytest.approx(ref[:2], abs=1e-6)
    calls = _count_eigsh(monkeypatch)
    at = _point(prob.mesh, rep.solution.nodal_values)
    assert solver._morse(prob, at) == (3, rep.lowest_eigenvalues)
    assert calls == [2]


def test_inertia_counts_the_rank_one_term():
    # with g = 0 and p = 2, S = K * stiffness is positive definite, and
    # 1 - b A'^T S^{-1} A' = 1 - 2bA/K: the rank-one term -b A'A'^T makes
    # one eigenvalue negative exactly when A(u) > a / (3b)
    mesh = build_interval_mesh(30, 0.0, 1.0)
    spec = NonlinearitySpec("zero", constant_exponent(4.5, mesh))
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    tent = tent_on(mesh)
    for A, index in ((0.5, 0), (2.0, 1)):  # in units of a / (3b)
        scale = np.sqrt(A * prob.a / (3.0 * prob.b) / kirchhoff_A(tent, prob.p))
        u = GridFunction(mesh, scale * tent.nodal_values)
        S, dA = hessian_J(u, prob)
        assert np.all(np.linalg.eigvalsh(S.toarray()) > 0.0)
        dense = np.linalg.eigvalsh(S.toarray() - prob.b * np.outer(dA, dA))
        assert solver._inertia_index(S, dA, prob.b) == int(np.sum(dense < 0.0)) == index
        assert solver._morse(prob, _point(mesh, u.nodal_values))[0] == index


def test_inertia_matches_a_dense_count_at_random_points():
    counts = set()
    for dim in (1, 2):
        if dim == 1:
            mesh = build_interval_mesh(30, 0.0, 1.0)
        else:
            mesh = build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0)))
        p = build_exponent_field(2.1 + 0.3 * mesh.element_centroids[:, 0], mesh)
        basis = np.array([b.nodal_values for b in laplace_eigenbasis(mesh, 4)])
        rng = np.random.default_rng(dim)
        for lam in (0.0, 2.0):
            spec = NonlinearitySpec("pure_power", constant_exponent(5.0, mesh))
            prob = KirchhoffProblem(1.0, 0.1, lam, p, spec, mesh)
            for _ in range(8):
                nodal = rng.standard_normal(4) @ basis * rng.uniform(0.05, 1.0)
                S, dA = hessian_J(GridFunction(mesh, nodal), prob)
                dense = np.linalg.eigvalsh(S.toarray() - prob.b * np.outer(dA, dA))
                index = solver._inertia_index(S, dA, prob.b)
                assert index == int(np.sum(dense < 0.0))
                counts.add(index)
    assert len(counts) >= 4


class _OffDiagonalLU:
    """A factorization whose row order differs from its column order."""

    def __init__(self, lu):
        self.lu, self.perm_c, self.perm_r = lu, lu.perm_c, lu.perm_c[::-1].copy()

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_morse_falls_back_to_doubling_without_a_symmetric_lu(index_three_orbit, monkeypatch):
    prob, rep = index_three_orbit
    at = _point(prob.mesh, rep.solution.nodal_values)
    calls = _count_eigsh(monkeypatch)
    monkeypatch.setattr(solver, "_inertia_index", lambda *args: None)
    doubling = solver._morse(prob, at)
    assert doubling[0] == 3 and calls == [2, 4]
    monkeypatch.undo()

    splu = solver._splu
    monkeypatch.setattr(solver, "_splu", lambda S: _OffDiagonalLU(splu(S)))
    assert solver._inertia_index(*hessian_J(rep.solution, prob), prob.b) is None
    assert solver._morse(prob, at) == doubling
    # an index that the eigenvalues contradict is not reported either
    monkeypatch.setattr(solver, "_inertia_index", lambda *args: 1)
    assert solver._morse(prob, at) == doubling


@pytest.mark.parametrize("n", [2, 3])
def test_morse_index_with_one_or_two_interior_vertices(n):
    # ARPACK finds at most n - 1 of n eigenvalues; the rest come another way
    prob = model_problem(n=n)
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    assert rep.lowest_eigenvalues == pytest.approx(ref[:2], abs=1e-6)


def test_morse_index_is_none_where_the_hessian_does_not_exist():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(1.8, mesh), spec, mesh)
    x = mesh.vertices[:, 0]
    flat = GridFunction(mesh, np.minimum(np.minimum(x, 1.0 - x), 0.3))
    assert solver._morse(prob, _point(mesh, flat.nodal_values)) == (None, None)


def test_p_below_two_in_2d_certifies_with_newton_and_a_morse_index():
    # the corner triangles of the rectangle have no interior vertex; they
    # used to make J'' raise for every p- < 2, so Newton never ran and the
    # Morse index was None
    mesh = build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=2.5)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(1.6, mesh), spec, mesh)
    geo = verify_mountain_geometry(prob, [0.01, 0.05, 0.1, 0.5, 1.0, 2.0], 15, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=25, tol=1e-6)
    assert rep.iterations == 0 and rep.newton_steps > 0
    assert rep.residual_norm <= 1e-6 and rep.nonlocal_coefficient > 0.0
    assert rep.morse_index is not None
    assert rep.morse_index == _inertia(prob, rep.solution) == 1


def test_above_ceiling_level_flagged():
    # strongly negative lambda lifts the pass level past a^2/(2b) while the
    # nonlocal coefficient stays positive
    prob = model_problem(b=1.0, lam=-16.0, kind="scaled_power", coefficient=200.0)
    geo = verify_mountain_geometry(prob, [0.003, 0.01, 0.03, 0.1, 0.3, 1.0], 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    assert rep.energy > prob.ps_ceiling
    assert not rep.below_ps_ceiling
    assert rep.nonlocal_coefficient > 0.0
    assert rep.below_ps_ceiling == (rep.energy < prob.ps_ceiling)


def test_mountain_pass_2d():
    from pxkirchhoff import build_rect_mesh

    mesh = build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(4.5, mesh)
    prob = KirchhoffProblem(
        1.0, 0.02, 0.0, p, NonlinearitySpec("pure_power", q, theta=3.2), mesh
    )
    geo = verify_mountain_geometry(prob, [0.01, 0.05, 0.1, 0.5, 1.0, 2.0], 15, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=25, tol=1e-6)
    assert rep.residual_norm <= 1e-6
    assert 0.0 < rep.energy < prob.ps_ceiling
    assert rep.nonlocal_coefficient > 0.0
    # the ground bump inherits the square's symmetry
    u = rep.solution.nodal_values.reshape(9, 9)
    assert np.allclose(u, u.T, atol=1e-4)
    assert np.allclose(u, u[::-1, ::-1], atol=1e-4)


def test_ps_threshold_strictness(monkeypatch):
    # the solver's flag is a strict inequality: a level exactly at the
    # ceiling a^2/(2b) is not below it
    prob = model_problem(n=12)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    level = mountain_pass_solve(prob, e).energy
    for ceiling, below in ((math.nextafter(level, math.inf), True), (level, False),
                           (math.nextafter(level, -math.inf), False)):
        monkeypatch.setattr(KirchhoffProblem, "ps_ceiling",
                            property(lambda self, c=ceiling: c))
        rep = mountain_pass_solve(prob, e)
        assert rep.energy == level
        assert rep.below_ps_ceiling is below


# -- multiplicity --------------------------------------------------------------

def test_multiplicity_no_starts():
    prob = model_problem()
    assert multiplicity_search(prob, n_starts=0) == []


def test_multiplicity_names_every_failed_start():
    # with lambda = -3 every eigenvector start drives K(u) below 0 at a
    # sweep's peak; the search reports each start's cause instead of []
    prob = model_problem(n=12, lam=-3.0)
    with pytest.raises(DegenerateCoefficient, match="every start failed") as err:
        multiplicity_search(prob, n_starts=4, k_max=4, seed=1)
    for i in range(4):
        assert f"start {i}: DegenerateCoefficient: nonlocal coefficient K = -" in str(err.value)
    assert isinstance(err.value.__cause__, DegenerateCoefficient)


def test_multiplicity_requires_a_positive_k_max():
    prob = model_problem(n=12)
    for k_max in (0, -1):
        with pytest.raises(DomainError, match=f"k_max must be at least 1, got {k_max}"):
            multiplicity_search(prob, n_starts=2, k_max=k_max)
    assert multiplicity_search(prob, n_starts=0, k_max=0) == []


def test_multiplicity_requires_a_geq_b():
    prob = model_problem(a=1.0, b=1.5, lam=0.0)
    with pytest.raises(DomainError):
        multiplicity_search(prob, n_starts=2)


def test_multiplicity_dedups_sign_orbit():
    prob = model_problem()
    reports = multiplicity_search(prob, n_starts=2, k_max=1, seed=0)
    assert len(reports) == 1
    assert reports[0].residual_norm <= 1e-6


def test_multiplicity_finds_the_one_node_orbit_for_variable_p():
    # p = 2 + 0.2x: Newton from the first path peak reaches the one-node
    # orbit (K 0.0127), which the sweeps alone never reached
    mesh = build_interval_mesh(12, 0.0, 1.0)
    p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, p, spec, mesh)
    reports = multiplicity_search(prob, n_starts=6, k_max=4, seed=1)
    assert [r.energy for r in reports] == pytest.approx([3.884681336, 4.940839406], rel=1e-9)
    fn = make_residual_1d(prob)
    for rep in reports:
        assert rep.residual_norm <= 1e-6 and rep.nonlocal_coefficient > 0.0
        assert rep.energy <= rep.iteration_trace[-1][1]  # at most the last peak
        root, ok = newton_1d(fn, rep.solution.nodal_values[1:-1].copy(), tol=1e-12)
        polished = energy_J(GridFunction(mesh, np.concatenate(([0.0], root, [0.0]))), prob)
        assert ok and abs(rep.energy - polished) <= 1e-10 * polished


@pytest.mark.parametrize("call", [
    lambda prob: rayleigh_quotient_min(prob.p, prob.mesh, seed=-1),
    lambda prob: verify_mountain_geometry(prob, RHO_GRID, 5, seed=-1),
    lambda prob: multiplicity_search(prob, n_starts=2, seed=-1),
], ids=["rayleigh_quotient_min", "verify_mountain_geometry", "multiplicity_search"])
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
        call(model_problem(n=12))


def test_negative_n_starts_is_a_domain_error():
    prob = model_problem(n=12)
    with pytest.raises(DomainError, match="n_starts must be nonnegative, got -1"):
        multiplicity_search(prob, n_starts=-1)
    assert multiplicity_search(prob, n_starts=0) == []


@pytest.mark.parametrize("n_seeds", [0, -2])
def test_rayleigh_needs_at_least_one_seed(n_seeds):
    prob = model_problem(n=12)
    with pytest.raises(DomainError, match=f"n_seeds must be at least 1, got {n_seeds}"):
        rayleigh_quotient_min(prob.p, prob.mesh, n_seeds=n_seeds)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    # nan or a nonpositive tol can never certify, so the solve would run its
    # whole sweep budget before MaxIterations; an infinite one certifies any peak
    # (the Rayleigh descent accepted each of them silently)
    prob = model_problem(n=12)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        mountain_pass_solve(prob, e, tol=tol)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        multiplicity_search(prob, n_starts=2, tol=tol)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        rayleigh_quotient_min(prob.p, prob.mesh, tol=tol)


@pytest.mark.parametrize("distinct_tol", [math.nan, -1.0, math.inf])
def test_multiplicity_distinct_tol_must_be_finite_and_nonnegative(distinct_tol):
    # nan merges every orbit into the first one kept, and a negative tol
    # keeps the ground orbit once per start that found it
    prob = model_problem(n=12)
    with pytest.raises(DomainError, match="distinct_tol must be finite and nonnegative"):
        multiplicity_search(prob, n_starts=5, k_max=4, distinct_tol=distinct_tol)
    assert len(multiplicity_search(prob, n_starts=5, k_max=4, distinct_tol=0.0)) >= 4


def test_eigenbasis_shapes():
    mesh = build_interval_mesh(40, 0.0, 1.0)
    basis = laplace_eigenbasis(mesh, 3)
    x = mesh.vertices[:, 0]
    first = basis[0].nodal_values
    ref = np.sin(np.pi * x)
    ref *= first[20] / ref[20]
    assert np.allclose(first, ref, atol=2e-3)
    with pytest.raises(DomainError):
        laplace_eigenbasis(mesh, 40)


def test_eigenbasis_full_basis_without_warning():
    # ARPACK finds at most n - 1 of n pairs; k = n still works, silently
    mesh = build_interval_mesh(6, 0.0, 1.0)
    idx = mesh.interior
    basis = laplace_eigenbasis(mesh, len(idx))
    V = np.array([b.nodal_values[idx] for b in basis]).T
    K = mesh.stiffness[np.ix_(idx, idx)].toarray()
    M = mesh.mass[np.ix_(idx, idx)].toarray()
    ref = scipy.linalg.eigh(K, M, eigvals_only=True)
    assert np.allclose(V.T @ M @ V, np.eye(len(idx)), atol=1e-12)
    assert np.allclose(np.diag(V.T @ K @ V), ref, rtol=1e-12)
    one = build_interval_mesh(2, 0.0, 1.0)
    (only,) = laplace_eigenbasis(one, 1)
    assert only.nodal_values[1] > 0.0


def test_eigenbasis_2d_near_degenerate_modes_by_span():
    # modes 2 and 3 of the square nearly coincide (49.67 and 49.82 at 32^2):
    # the vectors are not unique, their span is
    mesh = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0)))
    idx = mesh.interior
    basis = laplace_eigenbasis(mesh, 4)
    V = np.array([b.nodal_values[idx] for b in basis]).T
    K = mesh.stiffness[np.ix_(idx, idx)].toarray()
    M = mesh.mass[np.ix_(idx, idx)].toarray()
    vals, ref = scipy.linalg.eigh(K, M, subset_by_index=(0, 3))
    assert vals[1:3] == pytest.approx([49.67, 49.82], abs=5e-3)
    assert np.allclose(np.diag(V.T @ K @ V), vals, rtol=1e-10)
    assert np.max(scipy.linalg.subspace_angles(V[:, 1:3], ref[:, 1:3])) <= 1e-8
    for j in (0, 3):
        assert min(np.max(np.abs(V[:, j] - s * ref[:, j])) for s in (1, -1)) <= 1e-8


def test_eigenbasis_rejects_a_negative_or_fractional_k():
    mesh = build_interval_mesh(12, 0.0, 1.0)
    with pytest.raises(DomainError, match="k must be nonnegative, got -1"):
        laplace_eigenbasis(mesh, -1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        laplace_eigenbasis(mesh, 2.5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        multiplicity_search(model_problem(n=12), n_starts=2, k_max=2.5)
    assert laplace_eigenbasis(mesh, np.int64(2))[1].nodal_values[3] != 0.0


# -- one stiffness LU per mesh -------------------------------------------------

def _geometry_and_solve(prob):
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    assert rep.morse_index == 1


def _two_rayleigh_minimizations(prob):
    for seed in (0, 1):
        rayleigh_quotient_min(prob.p, prob.mesh, seed=seed)


STIFFNESS_TASKS = pytest.mark.parametrize("n, task", [
    (40, _geometry_and_solve),
    (12, lambda prob: multiplicity_search(prob, n_starts=5, k_max=4, seed=1)),
    (40, _two_rayleigh_minimizations),
], ids=["geometry_and_solve", "multiplicity", "rayleigh"])


def _count_stiffness_lus(monkeypatch, mesh) -> list:
    """Wrap splu in every module that binds it (eigsh's shift-invert and
    ``factorized`` hold their own bindings); the list collects each
    factorization of the mesh's interior stiffness."""
    S, splu, calls = mesh.interior_stiffness, scipy.sparse.linalg.splu, []

    def counted(A, *args, **kwargs):
        if A.shape == S.shape and abs(A - S).max() == 0.0:
            calls.append(A.shape)
        return splu(A, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("splu") is splu:
            monkeypatch.setattr(module, "splu", counted)
    return calls


@STIFFNESS_TASKS
def test_stiffness_is_factored_once_per_mesh(n, task, monkeypatch):
    prob = model_problem(n=n)
    calls = _count_stiffness_lus(monkeypatch, prob.mesh)
    task(prob)
    assert len(calls) == 1


@STIFFNESS_TASKS
def test_no_stiffness_solve_calls_factorized(n, task, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorized was called")

    monkeypatch.setattr(scipy.sparse.linalg, "factorized", refuse)
    task(model_problem(n=n))
