import gc
import math
import re
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
    Mesh,
    NonlinearitySpec,
    SolveReport,
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
from pxkirchhoff import discretization, energy, solver
from pxkirchhoff.discretization import _splu
from pxkirchhoff.energy import _point, _rayleigh_gradient_of_elements, _rayleigh_on_ray
from pxkirchhoff.solver import _ray_max, _scale_until_negative
from oracles import (
    central_difference,
    make_residual_1d,
    mass_by_operators,
    newton_1d,
    ray_max_bounded,
    ray_minimize,
    rayleigh_descent_on_nodes,
    rayleigh_gradient,
    rayleigh_ratio,
    rayleigh_ray,
    stiffness_by_operators,
)

RHO_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]


def model_problem(n=100, a=1.0, b=0.1, lam=0.0, q_const=4.5, theta=3.2,
                  kind="pure_power", coefficient=1.0):
    mesh = build_interval_mesh(n, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(q_const, mesh)
    spec = NonlinearitySpec(kind, q, coefficient=coefficient, theta=theta)
    return KirchhoffProblem(a, b, lam, p, spec, mesh)


def wide_problem(ny=3, lam=2.0):
    """A p = 2 problem on the 57 x ny rect mesh of the unit square: its
    interior bandwidth, kl = nx = 57, is wider than that of any benchmark
    mesh (mp2d 32, eig2d 48), on few interior vertices."""
    mesh = build_rect_mesh(57, ny, ((0.0, 0.0), (1.0, 1.0)))
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    return KirchhoffProblem(1.0, 0.1, lam, constant_exponent(2.0, mesh), spec, mesh)


def tent_on(mesh, peak=1.0):
    x = mesh.vertices[:, 0]
    return GridFunction(mesh, 2.0 * peak * np.minimum(x, 1.0 - x))


def _singular(*args):
    raise RuntimeError("Factor is exactly singular")


def fail_first_newton_attempt(monkeypatch):
    """Make the first Newton attempt fail on a singular J'' and let later
    ones run, so the next solve runs ray-descent steps and Newton both;
    returns the peak residuals the attempts start from."""
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
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    return prob, geo, rep


# -- rayleigh ------------------------------------------------------------------

def test_rayleigh_homogeneity_constant_p():
    mesh = build_interval_mesh(80, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    minimizer = rayleigh_quotient_min(p, mesh, seed=1, max_iter=200).minimizer
    base = rayleigh_ratio(mesh, p, minimizer.nodal_values)
    for c in (0.5, -3.0, 7.7):
        assert rayleigh_ratio(mesh, p, c * minimizer.nodal_values) == pytest.approx(
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
    grad = rayleigh_gradient(mesh, p, nodal)
    assert np.all(grad[mesh.boundary_mask] == 0.0)
    for _ in range(3):
        v = GridFunction(mesh, rng.standard_normal(mesh.n_vertices)).nodal_values
        fd = central_difference(lambda x: rayleigh_ratio(mesh, p, x), nodal, v)
        assert fd == pytest.approx(float(np.dot(grad, v)), rel=1e-6)


def test_rayleigh_monotone_variable_p():
    mesh = build_interval_mesh(100, 0.0, 1.0)
    from pxkirchhoff import build_exponent_field

    p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    lam = rayleigh_quotient_min(p, mesh, seed=0, max_iter=300).value
    assert lam > 0.0


def test_rayleigh_stall_raises():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    with pytest.raises(MaxIterations):
        rayleigh_quotient_min(constant_exponent(2.0, mesh), mesh, max_iter=0)


def _square_with_variable_p(n):
    mesh = build_rect_mesh(n, n, ((0.0, 0.0), (1.0, 1.0)))
    return mesh, build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)


def test_rayleigh_tol_below_the_floor_names_the_residual_reached():
    # the line search judges changes of R far below its ulp, so 1e-12 is
    # reached; 1e-16 lies below rounding, and the start that stalls there
    # is not returned as certified
    mesh, p = _square_with_variable_p(8)
    ray = rayleigh_quotient_min(p, mesh, tol=1e-12)
    assert ray.residual <= 1e-12
    start = time.perf_counter()
    with pytest.raises(MaxIterations) as err:
        rayleigh_quotient_min(p, mesh, tol=1e-16)
    assert time.perf_counter() - start < 1.0
    found = re.fullmatch(r"no Rayleigh start was certified \(the line search stalled\): "
                         r"its smallest residual was (\S+) > tol 1e-16", str(err.value))
    assert found and 1e-16 < float(found[1]) < 1e-12


def test_rayleigh_value_spreads_by_rounding_over_seeds():
    mesh, p = _square_with_variable_p(16)
    rays = [rayleigh_quotient_min(p, mesh, seed=seed) for seed in range(5)]
    values = [ray.value for ray in rays]
    assert max(values) - min(values) <= 1e-13 * min(values)
    assert all(ray.residual <= 1e-6 and ray.steps > 0 for ray in rays)


def test_rayleigh_stall_names_how_its_start_ended(monkeypatch):
    # the start's line search stalls at its second step: the start is not
    # returned, and MaxIterations names the stall and its smallest residual
    mesh, p = _square_with_variable_p(16)
    armijo = solver._armijo
    searches = []

    def stall_second(*args):
        searches.append(1)
        return None if len(searches) == 2 else armijo(*args)

    monkeypatch.setattr(solver, "_armijo", stall_second)
    with pytest.raises(MaxIterations, match=r"\(the line search stalled\): its smallest "
                       r"residual was .* > tol 1e-06"):
        rayleigh_quotient_min(p, mesh)
    assert len(searches) == 2


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
    ray = rayleigh_quotient_min(p, mesh, seed=3, max_iter=300)
    ref_lam, ref_nodal, ref_steps, ref_newton = rayleigh_descent_on_nodes(
        p, mesh, seed=3, max_iter=300)
    assert ray.value == pytest.approx(ref_lam, rel=1e-12)
    assert len(searches) == ref_steps == ray.steps
    assert ray.newton_steps == ref_newton
    # constant p keeps the stiffness throughout; variable p steps along H
    assert (ray.newton_steps == 0) if case == "2d_constant_p" else (ray.newton_steps > 0)
    scale = np.max(np.abs(ref_nodal))
    assert np.max(np.abs(ray.minimizer.nodal_values - ref_nodal)) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(5))
def test_rayleigh_1d_variable_p_certifies_within_40_steps(seed):
    # the descent alone took 128-137 steps here; the steps along the frozen
    # Hessian finish it
    mesh, p = _rayleigh_mesh_and_p("1d_variable_p")
    ray = rayleigh_quotient_min(p, mesh, seed=seed)
    assert ray.residual <= 1e-6
    assert ray.steps <= 40 and ray.newton_steps > 0


def test_rayleigh_p_below_two_certifies():
    # p = 1.2 + 0.2x: the descent alone used up its 500 steps at every seed
    mesh = build_interval_mesh(100, 0.0, 1.0)
    p = build_exponent_field(1.2 + 0.2 * mesh.element_centroids[:, 0], mesh)
    ray = rayleigh_quotient_min(p, mesh, seed=0)
    assert ray.residual <= 1e-6 and ray.newton_steps > 0
    assert rayleigh_ratio(mesh, p, ray.minimizer.nodal_values) == ray.value


def test_rayleigh_falls_back_to_the_stiffness_when_the_lu_fails(monkeypatch):
    mesh, p = _rayleigh_mesh_and_p("2d_variable_p")
    reference = rayleigh_quotient_min(p, mesh, seed=3).value

    def singular(self, data):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(Mesh, "interior_pattern_lu", singular)
    ray = rayleigh_quotient_min(p, mesh, seed=3)
    assert ray.residual <= 1e-6 and ray.newton_steps == 0
    assert ray.value == pytest.approx(reference, rel=1e-13)


def test_rayleigh_factors_one_hessian_per_start_at_48(monkeypatch):
    mesh, p = _square_with_variable_p(48)
    calls = []
    factor = Mesh.interior_pattern_lu
    monkeypatch.setattr(Mesh, "interior_pattern_lu",
                        lambda self, data: calls.append(1) or factor(self, data))
    ray = rayleigh_quotient_min(p, mesh, seed=1000)
    assert ray.residual <= 1e-6 and ray.newton_steps >= 2
    assert len(calls) == 1


def test_rayleigh_falls_back_to_the_stiffness_when_the_band_lu_is_singular(monkeypatch):
    mesh, p = _rayleigh_mesh_and_p("2d_variable_p")
    reference = rayleigh_quotient_min(p, mesh, seed=3)
    monkeypatch.setattr(solver, "_rayleigh_hessian",
                        lambda mesh, *args: np.zeros(len(mesh.interior_pattern.indices)))
    at = _point(mesh, reference.minimizer.nodal_values)
    grad, R, w = _rayleigh_gradient_of_elements(mesh, p, at)
    with pytest.raises(RuntimeError, match="singular"):
        mesh.interior_pattern_lu(solver._rayleigh_hessian(mesh, p, at, R))
    assert solver._rayleigh_newton(mesh, p, at, R, grad, w, None) == (None, None, None)
    ray = rayleigh_quotient_min(p, mesh, seed=3)
    assert ray.residual <= 1e-6 and ray.newton_steps == 0
    assert ray.value == pytest.approx(reference.value, rel=1e-13)


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
    mesh.interior_stiffness_lu  # the preconditioner, factored before counting
    products = []
    maps = {name: getattr(mesh, name) for name in (
        "gradient_map", "centroid_map", "gradient_adjoint", "centroid_adjoint")}
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
        rayleigh_quotient_min(p, mesh, max_iter=steps)
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
        ray = rayleigh_ray(mesh, p, u)
        for s in (-6.0, -1.0, 0.0, 2.0, 6.0):
            R, slope = _rayleigh_on_ray(s, *ray)
            assert R == pytest.approx(rayleigh_ratio(mesh, p, np.exp(s) * u), rel=1e-13)
            fd = central_difference(
                lambda t: np.log(rayleigh_ratio(mesh, p, np.exp(t) * u)), s, 1.0)
            assert slope == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_ray_search_matches_bounded_brent(dim):
    mesh, p, us = _ray_cases(dim)
    for u in us:
        res = minimize_scalar(  # the derivative-free reference
            lambda s: rayleigh_ratio(mesh, p, np.exp(s) * u),
            bounds=(-6.0, 6.0), method="bounded", options={"xatol": 1e-10},
        )
        assert -6.0 + 1e-3 < res.x < 6.0 - 1e-3  # an interior minimum
        R = rayleigh_ratio(mesh, p, ray_minimize(mesh, p, u))
        assert R <= res.fun * (1.0 + 1e-13)


def test_ray_search_is_a_no_op_for_constant_p():
    mesh, _, us = _ray_cases(2)
    p = constant_exponent(2.5, mesh)
    assert _rayleigh_on_ray(3.0, *rayleigh_ray(mesh, p, us[0]))[1] == 0.0
    assert ray_minimize(mesh, p, us[0]).tobytes() == us[0].tobytes()


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


def test_rayleigh_ray_search_names_the_segment_it_searched():
    # p = 2 + 0.01x is monotone, but the minimum of R on the first step's ray
    # lies beyond the searched |s| <= 6: the message says that it found none
    # there, not that the ray has none
    mesh = build_interval_mesh(100, 0.0, 1.0)
    p = build_exponent_field(2.0 + 0.01 * mesh.element_centroids[:, 0], mesh)
    with pytest.raises(MaxIterations, match=r"ray segment e\^s u, \|s\| <= 6,") as err:
        rayleigh_quotient_min(p, mesh, seed=0)
    assert "no minimizer on the ray within |s| <= 6." in str(err.value)
    assert "One may lie beyond it where p varies little" in str(err.value)


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
    assert not np.array_equal(ray_minimize(mesh, p, u), u)
    assert _retained_per_call(lambda: ray_minimize(mesh, p, u)) < 8 * mesh.n_elements


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [
    lambda prob, u: find_negative_energy_point(prob, u),
    lambda prob, u: mountain_pass_solve(prob, u),
    lambda prob, u: energy_J(u, prob),
    lambda prob, u: kirchhoff_A(u, prob.p),
    lambda prob, u: gradient_J(u, prob),
    lambda prob, u: hessian_J(u, prob),
], ids=["find_negative_energy_point", "mountain_pass_solve", "energy_J", "kirchhoff_A",
        "gradient_J", "hessian_J"])
def test_a_non_finite_nodal_value_is_refused_before_every_entry_point(entry, bad):
    # refused where it arises, as the point is built, instead of surfacing
    # as a stalled doubling, a nonnegative energy or a NaN result
    prob = model_problem()
    values = tent_on(prob.mesh).nodal_values.copy()
    values[prob.mesh.n_vertices // 3] = bad
    with pytest.raises(DomainError, match="nodal values must be finite"):
        entry(prob, GridFunction(prob.mesh, values))


def test_doubling_continues_past_min_norm():
    # |tent| = 2 in the Sobolev norm; J < 0 from t = 4, norm > 10 from t = 8
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh)
    e = find_negative_energy_point(prob, tent, min_norm=10.0)
    assert np.array_equal(e.nodal_values, 8.0 * tent.nodal_values)


def test_doubling_stops_after_the_ray_doubling_budget(monkeypatch):
    # J(t tent) < 0 from t = 4 = 2^2: one doubling reaches only t = 2
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh)
    monkeypatch.setattr(solver, "_R_DOUBLINGS", 1)
    with pytest.raises(MaxIterations, match="energy stayed nonnegative after 1 doublings"):
        find_negative_energy_point(prob, tent)
    monkeypatch.setattr(solver, "_R_DOUBLINGS", 2)
    e = find_negative_energy_point(prob, tent)
    assert np.array_equal(e.nodal_values, 4.0 * tent.nodal_values)


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
    lam_p = rayleigh_quotient_min(p, mesh, seed=0).value
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


def test_geometry_gathers_each_direction_once(monkeypatch):
    # every sphere sample of a direction comes from its one gather; the only
    # ray is that of the doublings of e
    prob = _variable_p_1d()
    gathered, rays = [], []
    gather, ray = energy._gather, solver._energy_ray
    monkeypatch.setattr(energy, "_gather",
                        lambda mesh, nodal: gathered.append(nodal) or gather(mesh, nodal))
    monkeypatch.setattr(solver, "_energy_ray",
                        lambda pr, nodal: rays.append(nodal) or ray(pr, nodal))
    geo = verify_mountain_geometry(prob, [0.05, 0.2, 1.0, 4.0, 6.0, 8.0, 16.0], 12, seed=3)
    assert geo.directions_tested == 15
    assert len(rays) == 1 and len(gathered) == geo.directions_tested + 1
    assert gathered[-1] is rays[0]
    assert len({g.tobytes() for g in gathered[:-1]}) == geo.directions_tested


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
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert rep.iterations > 0 and rep.newton_steps > 0
    assert attempts[0] == rep.iteration_trace[0][2]  # first attempt at the first peak
    assert len(calls) == 1  # the check of e; every peak comes from its ray


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


def test_ray_max_finds_the_ray_peak():
    # J(t*tent) rises from J(0) = 0 and is negative at t = 4, so the ray has
    # an interior maximum; the direct energy must agree with it there, and
    # the walks from 4 tent (halving) and from tent find it alike
    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh).nodal_values
    point, J, drive = _ray_max(prob, 4.0 * tent)
    assert 0.0 < J and 0.0 < drive
    assert J == pytest.approx(energy_J(GridFunction(prob.mesh, point), prob), rel=1e-13)
    for s in (0.99, 1.01):
        assert energy_J(GridFunction(prob.mesh, s * point), prob) <= J
    grown, J_grown, _ = _ray_max(prob, tent)
    assert J_grown == pytest.approx(J, rel=1e-13)
    assert np.allclose(grown, point, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("variable_p", [False, True])
def test_ray_max_matches_bounded_brent(variable_p):
    # J(t*tent) peaks near t = 2 (q = 4), so rays through tent, bent by
    # smooth noise, peak inside (1, 8): the walk from u doubles r, and the
    # walk from 8 u halves it.  Both maxima match a bounded scalar
    # maximization of the direct energy along the ray
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
        u = (1.0 + 0.2 * rng.random()) * tent + bend
        u[mesh.boundary_mask] = 0.0
        r_ref, reference = ray_max_bounded(prob, u, 0.5, 8.0)
        assert 1.0 < r_ref < 8.0 - 1e-3  # an interior maximum above r = 1
        for start in (u, 8.0 * u):
            point, J, _ = _ray_max(prob, start)
            assert J == pytest.approx(energy_J(GridFunction(mesh, point), prob), rel=1e-13)
            assert J >= reference - 1e-13 * abs(reference)
            assert abs(J - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_ray_peaks_have_positive_K_for_nonnegative_lambda(lam):
    # r dJ/dr = 0 at a ray's peak gives K sum p w_A r^p = lambda sum p w_B
    # r^p + sum q w_G r^q > 0 for lambda >= 0 and g != 0
    rng = np.random.default_rng(11)
    for mesh in (build_interval_mesh(40, 0.0, 1.0),
                 build_rect_mesh(8, 7, ((0.0, 0.0), (1.0, 1.0)))):
        p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
        spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
        prob = KirchhoffProblem(1.0, 0.1, lam, p, spec, mesh)
        for _ in range(8):
            u = GridFunction(mesh, rng.standard_normal(mesh.n_vertices))
            point, J, drive = _ray_max(prob, u.nodal_values)
            assert drive > 0.0 and J > 0.0
            assert prob.a - prob.b * kirchhoff_A(GridFunction(mesh, point), p) > 0.0


@pytest.mark.parametrize("n", [23, 32, 35])
def test_zero_nonlinearity_peak_is_degenerate(n):
    # with g = 0 and lambda = 0, J = a A - (b/2) A^2 peaks on every ray where
    # K = a - b A vanishes, and there the residual K A' is as small as K: the
    # solve must raise rather than certify it, whether the computed K reads
    # +2e-13 (n = 23), 0 (n = 32) or -2e-16 (n = 35)
    mesh = build_interval_mesh(n, 0.0, 1.0)
    spec = NonlinearitySpec("zero", constant_exponent(4.5, mesh))
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    e = find_negative_energy_point(prob, tent_on(mesh))
    point, _, drive = _ray_max(prob, e.nodal_values)
    assert drive == 0.0
    assert abs(prob.a - prob.b * kirchhoff_A(GridFunction(mesh, point), prob.p)) <= 1e-10
    with pytest.raises(DegenerateCoefficient, match=r"nonlocal coefficient K (= \S+ )?<= 0"):
        mountain_pass_solve(prob, e, tol=1e-6)


def test_ray_without_a_maximum_is_geometry_not_found():
    # p = 2 and lambda = 30 > lambda_1 = pi^2: a J - lambda B < 0 along the
    # ground eigenvector, so J < 0 and falls along its whole ray
    prob = model_problem(lam=30.0)
    phi = laplace_eigenbasis(prob.mesh, 1)[0]
    assert _ray_max(prob, phi.nodal_values) is None
    with pytest.raises(GeometryNotFound, match="no maximum on the ray of e"):
        mountain_pass_solve(prob, phi, tol=1e-6)


def _walked_radii(monkeypatch, prob, nodal):
    """(_ray_max(prob, nodal), the radii at which it evaluated the ray)."""
    radii, energy_ray = [], solver._energy_ray

    def recorded(*args):
        gmag, ray = energy_ray(*args)
        return gmag, lambda r: radii.append(float(r)) or ray(r)

    monkeypatch.setattr(solver, "_energy_ray", recorded)
    out = _ray_max(prob, nodal)
    monkeypatch.undo()
    return out, radii


def test_ray_max_gives_up_after_the_ray_doubling_budget(monkeypatch):
    # a slope that keeps one sign is followed for exactly _R_DOUBLINGS steps
    # from r = 1, halving where J falls along the whole ray (lambda = 30 >
    # lambda_1, see above) and doubling on a ray scaled so far down that
    # its peak lies beyond 2^_R_DOUBLINGS; two more doublings reach that peak
    n = solver._R_DOUBLINGS
    falling = model_problem(lam=30.0)
    phi = laplace_eigenbasis(falling.mesh, 1)[0].nodal_values
    out, radii = _walked_radii(monkeypatch, falling, phi)
    assert out is None and radii == [2.0**-k for k in range(n + 1)]

    prob = model_problem(q_const=4.0, theta=3.0)
    tent = tent_on(prob.mesh).nodal_values
    point, J, _ = _ray_max(prob, tent)
    r_peak = point[np.argmax(tent)] / tent.max()
    assert 1.0 < r_peak < 4.0  # so the peak of 2^-n tent lies in (2^n, 2^(n + 2))
    tiny = 2.0**-n * tent
    out, radii = _walked_radii(monkeypatch, prob, tiny)
    assert out is None and radii == [2.0**k for k in range(n + 1)]
    monkeypatch.setattr(solver, "_R_DOUBLINGS", n + 2)
    far, J_far, _ = _ray_max(prob, tiny)
    assert J_far == pytest.approx(J, rel=1e-13)
    assert np.allclose(far, point, rtol=1e-10, atol=0.0)


def test_trial_ray_without_a_maximum_is_halved_away(monkeypatch):
    # a descent trial whose ray has no maximum has no value of phi: the line
    # search must halve past it, never step onto it
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    monkeypatch.setattr(solver, "_newton_direction", _singular)
    reference = mountain_pass_solve(prob, e, tol=1e-6)
    ray_max, refused = solver._ray_max, []

    def first_trial_has_no_maximum(pb, nodal):
        refused.append(1)
        return None if len(refused) == 2 else ray_max(pb, nodal)  # e's ray first

    monkeypatch.setattr(solver, "_ray_max", first_trial_has_no_maximum)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert len(refused) > 2 and rep.residual_norm <= 1e-6
    assert rep.energy == pytest.approx(reference.energy, rel=1e-9)


def test_ray_max_retains_no_element_data(monkeypatch):
    # the 2-D ground mode's ray peaks near r = 4, so each search ends in a
    # Brent root of the ray slope, a closure over the ray's element weights;
    # see test_ray_searches_retain_no_element_data
    mesh, phi = _square_ground_mode()
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    roots = []
    brent_root = solver._brent_root
    monkeypatch.setattr(solver, "_brent_root", lambda *a: roots.append(1) or brent_root(*a))
    _ray_max(prob, phi)
    assert roots == [1]
    monkeypatch.undo()
    assert _retained_per_call(lambda: _ray_max(prob, phi)) < 8 * mesh.n_elements


def test_ray_max_gathers_once_per_ray(monkeypatch):
    # each ray maximum, the first one's and each descent trial's, gathers
    # its element data once, and each call of its ray form is one
    # (possibly batched) evaluation
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    gathers, evaluations, per_ray = [0], [0], []
    element_gradients, energy_ray, ray_max = (energy.element_gradients, solver._energy_ray,
                                              solver._ray_max)

    def counted_ray(*args):
        gmag, ray = energy_ray(*args)

        def evaluate(r):
            evaluations[0] += 1
            return ray(r)

        return gmag, evaluate

    def counted_max(*args):
        before = gathers[0], evaluations[0]
        out = ray_max(*args)
        per_ray.append((gathers[0] - before[0], evaluations[0] - before[1]))
        return out

    monkeypatch.setattr(energy, "element_gradients",
                        lambda *a: gathers.__setitem__(0, gathers[0] + 1) or element_gradients(*a))
    monkeypatch.setattr(solver, "_energy_ray", counted_ray)
    monkeypatch.setattr(solver, "_ray_max", counted_max)
    fail_first_newton_attempt(monkeypatch)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert rep.iterations > 0
    assert len(per_ray) > rep.iterations
    assert all(g == 1 for g, _ in per_ray)
    assert np.mean([n for _, n in per_ray]) <= 12
    assert max(n for _, n in per_ray) <= 45


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
    quick = mountain_pass_solve(prob, e, tol=1e-5)
    assert quick.iterations == 0
    assert quick.energy == pytest.approx(rep.energy, abs=1e-8)


def test_plus_minus_e_land_on_one_orbit(model_solution):
    prob, geo, rep = model_solution
    neg = mountain_pass_solve(
        prob, GridFunction(prob.mesh, -geo.negative_point.nodal_values),
        tol=1e-6,
    )
    assert abs(neg.energy - rep.energy) <= 1e-8
    mirror = min(
        sobolev_norm(GridFunction(prob.mesh, neg.solution.nodal_values - rep.solution.nodal_values), prob.p),
        sobolev_norm(GridFunction(prob.mesh, neg.solution.nodal_values + rep.solution.nodal_values), prob.p),
    )
    assert mirror <= 1e-3


def test_antisymmetric_seed_reaches_the_one_node_orbit():
    # Newton from the ray peak of the antisymmetric seed lands on the
    # one-node orbit that the exact scaling reduction predicts (4.91670,
    # K 0.0187), below that peak
    prob = model_problem()
    phi2 = laplace_eigenbasis(prob.mesh, 2)[1]
    e = _scale_until_negative(
        prob, phi2.nodal_values / sobolev_norm(phi2, prob.p)
    )
    rep = mountain_pass_solve(prob, e, tol=1e-6)
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
        mountain_pass_solve(prob, e, tol=1e-6)


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
    rep = mountain_pass_solve(prob, e, tol=1e-6)
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
    faked = mountain_pass_solve(prob, e, tol=1e-6)
    assert faked.nonlocal_coefficient > 0.0
    assert faked.energy == rep.energy


def test_newton_invariants_sweeps_budget_and_searches(monkeypatch):
    # one ray maximum for e's ray and one per Armijo trial of each descent
    # step, and energy_J only for the check of e
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    energy_calls, searches = [0], [0]
    energy, ray_max = solver.energy_J, solver._ray_max

    def counted_energy(u, pb):
        energy_calls[0] += 1
        return energy(u, pb)

    def counted_search(*args):
        searches[0] += 1
        return ray_max(*args)

    monkeypatch.setattr(solver, "energy_J", counted_energy)
    monkeypatch.setattr(solver, "_ray_max", counted_search)
    attempts = fail_first_newton_attempt(monkeypatch)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert rep.newton_steps > 0 and rep.iterations > 0
    assert len(rep.path_energies) == len(rep.iteration_trace) == rep.iterations + 1
    assert energy_calls[0] == 1
    assert searches[0] >= 1 + rep.iterations  # e's ray, then at least one trial a step
    # Newton was first tried from the first peak, and the peak that handed
    # over again was the first whose residual had halved
    assert attempts[0] == rep.iteration_trace[0][2]
    assert len(attempts) == 2
    assert rep.iteration_trace[-1][2] == attempts[1] <= attempts[0] / 2.0
    assert all(row[2] > attempts[0] / 2.0 for row in rep.iteration_trace[1:-1])
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
        data, dA = solver._kirchhoff_hessian(prob, at)
        S = prob.mesh.interior_pattern_matrix(data)
        S_ref, dA_ref = hessian_J(u, prob)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(S, name), getattr(S_ref, name))
        assert np.array_equal(dA, dA_ref)


def test_solve_certificate_is_bitwise_the_nodal_functions():
    # the residual, K and energy reported for a Newton point come from its
    # kept element data, and equal the nodal functions at the solution
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert rep.newton_steps > 0
    u, idx = rep.solution, prob.mesh.interior
    assert rep.residual_norm == float(np.linalg.norm(gradient_J(u, prob).nodal_values[idx]))
    assert rep.nonlocal_coefficient == prob.a - prob.b * kirchhoff_A(u, prob.p)
    assert rep.energy == energy_J(u, prob)
    index = rep.morse_index
    assert solver._morse(prob, _point(prob.mesh, u.nodal_values)) == (index, index)
    assert rep.morse_margin == solver._MORSE_MARGIN * prob.a


def test_newton_polish_gathers_once_per_trial(monkeypatch):
    # one gather per merit trial: the start is the peak's point, and the
    # Hessians, the accepted residuals and the returned point need none
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    handed, polish = [], solver._newton_polish
    monkeypatch.setattr(solver, "_newton_polish",
                        lambda *args: handed.append(args) or polish(*args))
    mountain_pass_solve(prob, e, tol=1e-6)
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
    # the first peak comes from the weights of e's ray, gathered once: its
    # walk starts at e itself, where the ray agrees with energy_J, and the
    # first record is J at the root of the ray's slope, a local maximum
    rays, ray_form = [], solver._energy_ray

    def recorded(pb, nodal):
        gmag, ray = ray_form(pb, nodal)
        calls = []
        rays.append((nodal, calls))

        def evaluate(r):
            out = ray(r)
            calls.append((np.asarray(r), out[0]))
            return out

        return gmag, evaluate

    monkeypatch.setattr(solver, "_energy_ray", recorded)
    (variable, _), _ = _kernel_cases()  # 1-D, variable p, lambda = 2
    for prob in (model_problem(n=60), variable):
        e = find_negative_energy_point(prob, tent_on(prob.mesh))
        rays.clear()
        rep = mountain_pass_solve(prob, e, tol=1e-6)
        assert [np.array_equal(nodal, e.nodal_values) for nodal, _ in rays].count(True) == 1
        nodal, calls = rays[0]
        assert np.array_equal(nodal, e.nodal_values)
        (r, J), (root, J_peak) = calls[0], calls[-1]
        assert r == 1.0 and J == pytest.approx(energy_J(e, prob), rel=1e-13)
        assert rep.path_energies[0] == rep.iteration_trace[0][1] == J_peak
        peak = energy_J(GridFunction(prob.mesh, root * nodal), prob)
        assert J_peak == pytest.approx(peak, rel=1e-13)
        for s in (1.0 - 1e-3, 1.0 + 1e-3):
            assert energy_J(GridFunction(prob.mesh, s * root * nodal), prob) < J_peak


def test_failed_newton_attempts_fall_back_to_sweeping(monkeypatch):
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    polished = mountain_pass_solve(prob, e, tol=1e-6)
    assert polished.iterations == 0 and polished.newton_steps > 0

    monkeypatch.setattr(solver, "_newton_direction", _singular)
    swept = mountain_pass_solve(prob, e, tol=1e-6)
    assert swept.residual_norm <= 1e-6
    assert swept.iterations > polished.iterations
    assert swept.newton_steps == 0
    assert swept.energy == pytest.approx(polished.energy, rel=1e-9)
    assert swept.morse_index == polished.morse_index == 1

    # after one failed attempt the next waits until the residual has
    # halved, then certifies
    monkeypatch.undo()
    attempts = fail_first_newton_attempt(monkeypatch)
    retried = mountain_pass_solve(prob, e, tol=1e-6)
    assert retried.newton_steps > 0
    assert polished.iterations < retried.iterations < swept.iterations
    assert retried.iteration_trace[-1][2] <= attempts[0] / 2.0
    assert retried.energy == pytest.approx(polished.energy, rel=1e-9)


def test_newton_point_above_the_path_peak_is_discarded(monkeypatch):
    # any ray's peak bounds the mountain-pass level from above, so a Newton
    # point above the peak it started from is another critical point: here
    # the polish returns the one-node orbit (4.917), above every ray peak of
    # the ground descent, and each attempt is discarded until the descent
    # certifies
    prob = model_problem(n=60)
    phi2 = laplace_eigenbasis(prob.mesh, 2)[1]
    higher = mountain_pass_solve(
        prob, _scale_until_negative(prob, phi2.nodal_values / sobolev_norm(phi2, prob.p)))
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    polished = mountain_pass_solve(prob, e, tol=1e-6)
    peaks = []

    def polish_to_higher(prob_, at, g, res, tol):
        peaks.append(energy_J(GridFunction(prob_.mesh, at.nodal), prob_))
        return (_point(prob_.mesh, higher.solution.nodal_values), higher.residual_norm,
                kirchhoff_A(higher.solution, prob_.p), 1)

    monkeypatch.setattr(solver, "_newton_polish", polish_to_higher)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert higher.residual_norm <= 1e-6 and higher.nonlocal_coefficient > 0.0
    assert len(peaks) > 1 and higher.energy > max(peaks)
    assert rep.residual_norm == rep.iteration_trace[-1][2] <= 1e-6  # the descent's answer
    assert rep.energy == rep.iteration_trace[-1][1]
    assert rep.energy == pytest.approx(polished.energy, rel=1e-9)


def test_trivial_newton_point_is_discarded(monkeypatch):
    # a mountain-pass level is positive, so a Newton point with J <= 0 is no
    # answer: here the polish returns u = 0, a critical point (J'(0) = 0)
    # below every ray peak, and each attempt is discarded until the descent
    # certifies
    prob = model_problem(n=60)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    polished = mountain_pass_solve(prob, e, tol=1e-6)
    attempts = []

    def polish_to_zero(prob_, at, g, res, tol):
        attempts.append(res)
        return _point(prob_.mesh, np.zeros(prob_.mesh.n_vertices)), 0.0, 0.0, 1

    monkeypatch.setattr(solver, "_newton_polish", polish_to_zero)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert len(attempts) > 1
    assert rep.residual_norm == rep.iteration_trace[-1][2] <= 1e-6  # the descent's answer
    assert rep.energy == rep.iteration_trace[-1][1] > 0.0
    assert rep.energy == pytest.approx(polished.energy, rel=1e-9)
    assert np.max(np.abs(rep.solution.nodal_values)) > 0.1


@pytest.mark.parametrize("seed", [0, 1])
def test_a_point_of_morse_index_0_is_no_mountain_pass_solution(seed):
    # at lambda = lambda_p the first ray peak from |u| of the solution at
    # 0.9999 lambda_p is a point next to u = 0 (max|u| ~ 2e-8, J ~ 1e-31)
    # whose residual already passes tol, and J'' there has no negative
    # eigenvalue: it used to be reported after 0 steps, with Morse index 0
    prob = model_problem(n=100)
    lam_p = rayleigh_quotient_min(prob.p, prob.mesh, seed=seed).value
    below = model_problem(n=100, lam=0.9999 * lam_p)
    radii = [0.05 * 2.0 ** k for k in range(7)]
    u = mountain_pass_solve(
        below, verify_mountain_geometry(below, radii, 20, seed=1000).negative_point)
    at = model_problem(n=100, lam=lam_p)
    e = find_negative_energy_point(at, GridFunction(at.mesh, np.abs(u.solution.nodal_values)))
    with pytest.raises(GeometryNotFound, match="has Morse index 0"):
        mountain_pass_solve(at, e)


def _slow_case(dim, n, p_of_x, lam):
    """A problem of ROADMAP item 2's slow cases and the geometry's start."""
    if dim == 1:
        mesh = build_interval_mesh(n, 0.0, 1.0)
    else:
        mesh = build_rect_mesh(n, n, ((0.0, 0.0), (1.0, 1.0)))
    p = build_exponent_field(p_of_x(mesh.element_centroids[:, 0]), mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, lam, p, spec, mesh)
    return prob, verify_mountain_geometry(prob, RHO_GRID, 20, seed=0).negative_point


P16_LAMBDA2 = (1, 401, lambda x: 1.6 + 0.0 * x, 2.0)
P16_LAMBDA2_LEVEL = 1.4346401930066182


@pytest.mark.parametrize("case, symmetrize, max_steps, level", [
    # the path-deformation solver took 725 sweeps and 61 sweeps here; the
    # 1-D start is the geometry's made exactly symmetric, (e + e reversed)/2
    (P16_LAMBDA2, True, 50, P16_LAMBDA2_LEVEL),
    ((2, 32, lambda x: 2.0 + 0.2 * x, 0.0), False, 20, 4.441374108703747),
], ids=["1d_p1.6_lambda2", "2d_p2+0.2x"])
def test_ray_descent_certifies_where_newton_needs_help(case, symmetrize, max_steps, level):
    # Newton from the first peak does not certify in these cases; the
    # descent on the ray maximum reaches a peak from which it does, and the
    # level agrees with the path-deformation solver's
    prob, e = _slow_case(*case)
    if symmetrize:
        e = GridFunction(prob.mesh, 0.5 * (e.nodal_values + e.nodal_values[::-1]))
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert 0 < rep.iterations <= max_steps
    assert rep.residual_norm <= 1e-6 and rep.nonlocal_coefficient > 0.0
    assert rep.morse_index == 1
    assert rep.energy == pytest.approx(level, rel=1e-10)


def test_p16_certifies_from_the_first_peak_of_the_geometry_start():
    # whether Newton certifies from the first peak of this flat-element case
    # follows rounding (ROADMAP item 2); from the geometry's own start it
    # does, at the level the descent reaches from the symmetric start
    prob, e = _slow_case(*P16_LAMBDA2)
    rep = mountain_pass_solve(prob, e, tol=1e-6)
    assert rep.iterations == 0 and rep.newton_steps > 0
    assert rep.residual_norm <= 1e-6 and rep.nonlocal_coefficient > 0.0
    assert rep.morse_index == 1
    assert rep.energy == pytest.approx(P16_LAMBDA2_LEVEL, rel=1e-10)


def test_newton_steps_are_mesh_independent():
    # Newton on the exact Hessian from the first ray peak needs the same
    # number of steps on a mesh twice as fine
    steps = []
    for n in (60, 120):
        prob = model_problem(n=n)
        e = find_negative_energy_point(prob, tent_on(prob.mesh))
        rep = mountain_pass_solve(prob, e, tol=1e-6)
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
    d = solver._newton_direction(prob.mesh.interior_pattern_lu(S.data), dA, prob.b, rhs)
    assert np.allclose(d, np.linalg.solve(dense, rhs), rtol=1e-10, atol=1e-12)
    with pytest.raises(RuntimeError):  # a singular rank-one update
        solver._newton_direction(_splu(scipy.sparse.identity(3, format="csc")),
                                 np.array([1.0, 0.0, 0.0]), 1.0, np.ones(3))
    with pytest.raises(RuntimeError):  # a singular sparse part
        solver._newton_direction(_splu(scipy.sparse.csc_matrix((3, 3))),
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
    stiff = stiffness_by_operators(prob.mesh)[np.ix_(idx, idx)].toarray()
    return scipy.linalg.eigh(0.5 * (H + H.T), stiff, eigvals_only=True)


def _inertia(prob, u):
    S, dA = hessian_J(u, prob)
    return solver._inertia_index(prob.mesh, S.data, dA, prob.b)


def _count_eigsh(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(A, k, *args, **kwargs):
        calls.append(k)
        return eigsh(A, k, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


def _count_dsytrf(monkeypatch):
    """Wrap LAPACK's dsytrf; the list collects the order of each LDL^T."""
    calls, dsytrf = [], scipy.linalg.lapack.dsytrf

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return dsytrf(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", counted)
    return calls


# The cutoff 0 sends every pencil to ARPACK; the real cutoff sends the small
# meshes of these tests to LAPACK.
ROUTES = (("arpack", 0), ("dense", solver._DENSE_N))

# The cutoff 0 makes every Morse count from the symmetric SuperLU; the real
# cutoff makes those of the small meshes of these tests from the dense LDL^T.
COUNT_ROUTES = (("superlu", 0), ("dense", solver._DENSE_N))


def _morse_on_both_routes(monkeypatch, prob, u) -> dict:
    """solver._morse at u on each count route, by route name: the dense
    route factors both shifted matrices by dsytrf, the SuperLU route
    neither, and no route makes an eigensolve."""
    at = _point(prob.mesh, u.nodal_values)
    out = {}
    for route, cutoff in COUNT_ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        calls, ldls = _count_eigsh(monkeypatch), _count_dsytrf(monkeypatch)
        out[route] = solver._morse(prob, at)
        assert calls == [] and len(ldls) == (2 if route == "dense" else 0)
        monkeypatch.undo()
    return out


def _check_morse(monkeypatch, prob, rep, ref):
    """The solve's index is the oracle's count of negative eigenvalues, no
    oracle eigenvalue lies within the margin delta of 0, and both count
    routes give the index at -delta and at +delta; the solve, on these
    small meshes, took the dense route."""
    delta = solver._MORSE_MARGIN * prob.a
    assert rep.morse_margin == delta
    assert rep.morse_index == int(np.sum(ref < 0.0))
    assert not np.any(np.abs(ref) <= delta)
    index = rep.morse_index
    assert _morse_on_both_routes(monkeypatch, prob, rep.solution) == {
        "superlu": (index, index), "dense": (index, index)}


def test_morse_index_1d_model(model_solution, monkeypatch):
    prob, _, rep = model_solution
    assert rep.morse_index == 1
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    _check_morse(monkeypatch, prob, rep, ref)


@pytest.mark.parametrize("n", [24, 25])
def test_morse_index_on_even_and_odd_meshes(n, monkeypatch):
    # an odd mesh puts an element, not a vertex, at the middle of the
    # symmetric ground state; the index is still 1 there
    prob = model_problem(n=n)
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    _check_morse(monkeypatch, prob, rep, ref)


def test_morse_index_2d(monkeypatch):
    mesh = build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(4.5, mesh)
    prob = KirchhoffProblem(
        1.0, 0.02, 0.0, p, NonlinearitySpec("pure_power", q, theta=3.2), mesh
    )
    geo = verify_mountain_geometry(prob, [0.01, 0.05, 0.1, 0.5, 1.0, 2.0], 15, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    assert rep.morse_index == 1
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert _inertia(prob, rep.solution) == int(np.sum(ref < 0.0))
    _check_morse(monkeypatch, prob, rep, ref)


@pytest.fixture(scope="module")
def index_three_orbit():
    # the two-node orbit of the coarse mesh has index 3
    prob = model_problem(n=12)
    phi3 = laplace_eigenbasis(prob.mesh, 3)[2]
    e = _scale_until_negative(prob, phi3.nodal_values / sobolev_norm(phi3, prob.p))
    return prob, mountain_pass_solve(prob, e, tol=1e-6)


def test_morse_index_counts_every_negative_eigenvalue(index_three_orbit, monkeypatch):
    # each count route finds all three negative eigenvalues of the index-3
    # orbit, at -delta and at +delta
    prob, rep = index_three_orbit
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 3
    _check_morse(monkeypatch, prob, rep, ref)


def test_inertia_counts_the_rank_one_term(monkeypatch):
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
        assert solver._inertia_index(mesh, S.data, dA, prob.b) == int(np.sum(dense < 0.0)) == index
        routes = _morse_on_both_routes(monkeypatch, prob, u)
        assert routes == {"superlu": (index, index), "dense": (index, index)}


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
                index = solver._inertia_index(mesh, S.data, dA, prob.b)
                assert index == int(np.sum(dense < 0.0))
                counts.add(index)
    assert len(counts) >= 4


@pytest.mark.parametrize("dim", [1, 2])
def test_inertia_on_a_reused_and_a_fresh_mesh_matches_the_dense_count(dim):
    # every inertia count orders its own matrix by minimum degree and keeps
    # no order on the mesh: on a reused mesh and on a fresh one it gives the
    # dense count at each point
    def build():
        if dim == 1:
            return build_interval_mesh(30, 0.0, 1.0)
        return build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0)))

    mesh = build()
    p = build_exponent_field(2.1 + 0.3 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(5.0, mesh))
    prob = KirchhoffProblem(1.0, 0.1, 2.0, p, spec, mesh)
    basis = np.array([b.nodal_values for b in laplace_eigenbasis(mesh, 4)])
    rng = np.random.default_rng(10 + dim)
    counts = set()
    for _ in range(8):
        nodal = rng.standard_normal(4) @ basis * rng.uniform(0.05, 1.0)
        S, dA = hessian_J(GridFunction(mesh, nodal), prob)
        index = solver._inertia_index(mesh, S.data, dA, prob.b)
        assert index == solver._inertia_index(build(), S.data, dA, prob.b)
        dense = np.linalg.eigvalsh(S.toarray() - prob.b * np.outer(dA, dA))
        assert index == int(np.sum(dense < 0.0))
        counts.add(index)
    assert len(counts) >= 2


def test_newton_steps_take_one_band_lu_each_and_each_morse_count_one_splu(monkeypatch):
    # a solve on the mesh wider than any benchmark mesh and on the mp2d mesh
    # (both over _DENSE_N interior vertices): every Newton step factors J''
    # by one band LU, and only the two Morse counts order the pattern, each
    # by minimum degree in one SuperLU of the shifted matrix on it
    square = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0)))
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, square), theta=3.2)
    for prob in (wide_problem(ny=4, lam=0.0),
                 KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, square), spec, square)):
        mesh = prob.mesh
        assert len(mesh.interior) > solver._DENSE_N
        geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
        band_lus, specs = [], []
        dgbtrf, splu = scipy.linalg.lapack.dgbtrf, scipy.sparse.linalg.splu

        def counted_dgbtrf(ab, kl, *args, **kwargs):
            assert kl == mesh.interior_bandwidth
            band_lus.append(kl)
            return dgbtrf(ab, kl, *args, **kwargs)

        def counted_splu(A, *args, **kwargs):
            assert A.nnz == len(mesh.interior_pattern.indices)
            specs.append(kwargs["permc_spec"])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", counted_dgbtrf)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
        monkeypatch.undo()
        assert rep.morse_index == 1 and rep.newton_steps >= 2
        assert len(band_lus) == rep.newton_steps
        assert specs == ["MMD_AT_PLUS_A"] * 2


@pytest.mark.parametrize("dim", [1, 2])
def test_band_lu_solves_the_hessians_as_superlu_does(dim):
    # the sparse part of J'' and A'' - R B'' at random points of a band mesh
    if dim == 1:
        mesh = build_interval_mesh(30, 0.0, 1.0)
    else:
        mesh = build_rect_mesh(12, 10, ((0.0, 0.0), (1.0, 1.0)))
    p = build_exponent_field(2.1 + 0.3 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(5.0, mesh))
    prob = KirchhoffProblem(1.0, 0.1, 2.0, p, spec, mesh)
    basis = np.array([b.nodal_values for b in laplace_eigenbasis(mesh, 4)])
    rng = np.random.default_rng(20 + dim)
    n = len(mesh.interior)
    for _ in range(3):
        at = _point(mesh, rng.standard_normal(4) @ basis * rng.uniform(0.05, 1.0))
        R = _rayleigh_gradient_of_elements(mesh, p, at)[1]
        for data in (solver._kirchhoff_hessian(prob, at)[0],
                     solver._rayleigh_hessian(mesh, p, at, R)):
            factor = mesh.interior_pattern_lu(data)
            assert isinstance(factor, discretization._BandLU)
            rhs = rng.standard_normal((n, 2))
            ref = _splu(mesh.interior_pattern_matrix(data)).solve(rhs)
            assert np.max(np.abs(factor.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))


class _OffDiagonalLU:
    """A factorization whose row order differs from its column order."""

    def __init__(self, lu):
        self.lu, self.perm_c, self.perm_r = lu, lu.perm_c, lu.perm_c[::-1].copy()

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_morse_gives_no_count_where_superlu_carries_no_inertia(index_three_orbit,
                                                               monkeypatch):
    # with the cutoff 0 every count asks SuperLU for the inertia; a SuperLU
    # that pivots off its diagonal carries none, and each count is None: no
    # dense array of the matrix is filled and no dense LDL^T is made
    prob, rep = index_three_orbit
    at = _point(prob.mesh, rep.solution.nodal_values)
    phi3 = laplace_eigenbasis(prob.mesh, 3)[2]  # the fixture's start
    e = _scale_until_negative(prob, phi3.nodal_values / sobolev_norm(phi3, prob.p))
    monkeypatch.setattr(solver, "_DENSE_N", 0)
    monkeypatch.setattr(discretization, "_splu", lambda *args: _OffDiagonalLU(_splu(*args)))
    S, dA = hessian_J(rep.solution, prob)
    assert solver._inertia_index(prob.mesh, S.data, dA, prob.b) is None
    ldls = _count_dsytrf(monkeypatch)
    monkeypatch.setattr(discretization.Mesh, "interior_pattern_dense",
                        lambda *args: pytest.fail("a dense array was filled"))
    assert solver._morse(prob, at) == (None, None) and ldls == []

    # a solve from the fixture's start finds the same point and reports
    # neither an index nor a margin
    again = mountain_pass_solve(prob, e, tol=1e-6)
    assert again.energy == rep.energy and rep.morse_index == 3
    assert again.morse_index is None and again.morse_margin is None and ldls == []


@pytest.mark.parametrize("n", [2, 3])
def test_morse_index_with_one_or_two_interior_vertices(n, monkeypatch):
    # both count routes work on one or two interior vertices
    prob = model_problem(n=n)
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    ref = _dense_pencil_eigenvalues(prob, rep.solution)
    assert rep.morse_index == _inertia(prob, rep.solution) == int(np.sum(ref < 0.0)) == 1
    _check_morse(monkeypatch, prob, rep, ref)


def test_dense_inertia_counts_a_two_by_two_pivot():
    # the zero diagonal of [[0, 1], [1, 0]] makes Bunch-Kaufman take a 2x2
    # pivot, which holds one negative eigenvalue; bordered, the count still
    # equals eigvalsh's
    rng = np.random.default_rng(5)
    counts = set()
    for d in (-3.0, -0.5, 0.5, 3.0):
        X = np.zeros((4, 4))
        X[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        X[2:, :2] = 0.1 * rng.standard_normal((2, 2))
        X[:2, 2:] = X[2:, :2].T
        X[2:, 2:] = np.diag([d, 2.0 * d])
        _, ipiv, _ = scipy.linalg.lapack.dsytrf(X, lower=1)
        assert np.count_nonzero(ipiv < 0) >= 2  # a 2x2 block
        count = solver._dense_inertia(X.copy())
        assert count == int(np.sum(np.linalg.eigvalsh(X) < 0.0))
        counts.add(count)
    assert counts == {1, 3}
    assert solver._dense_inertia(np.zeros((2, 2))) is None  # D exactly singular


@pytest.mark.parametrize("cutoff", [0, solver._DENSE_N, sys.maxsize])
def test_morse_makes_no_eigensolve(cutoff, monkeypatch):
    # on every mesh and route the counts at -delta and +delta are those of
    # the dense pencil's eigenvalues, and no eigensolve is made
    rng = np.random.default_rng(8)
    for mesh in (build_interval_mesh(2, 0.0, 1.0), build_interval_mesh(30, 0.0, 1.0),
                 build_interval_mesh(200, 0.0, 1.0),
                 build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0))),
                 build_rect_mesh(14, 14, ((0.0, 0.0), (1.0, 1.0)))):
        p = build_exponent_field(2.1 + 0.3 * mesh.element_centroids[:, 0], mesh)
        spec = NonlinearitySpec("pure_power", constant_exponent(5.0, mesh))
        prob = KirchhoffProblem(1.0, 0.1, 2.0, p, spec, mesh)
        basis = np.array([b.nodal_values for b in laplace_eigenbasis(mesh, 1)])
        nodal = rng.uniform(0.5, 2.0) * basis[0] + 0.1 * rng.standard_normal(mesh.n_vertices)
        nodal[mesh.boundary_mask] = 0.0
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        calls = _count_eigsh(monkeypatch)
        for name in ("dsygvd", "dsygvx"):
            monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, **kwargs: pytest.fail())
        counts = solver._morse(prob, _point(mesh, nodal))
        monkeypatch.undo()
        assert calls == []
        S, dA = hessian_J(GridFunction(mesh, nodal), prob)
        K = mesh.interior_pattern_dense(mesh.interior_stiffness_data)
        mu = scipy.linalg.eigh(S.toarray() - prob.b * np.outer(dA, dA), K, eigvals_only=True)
        delta = solver._MORSE_MARGIN * prob.a
        assert counts == (int(np.sum(mu < -delta)), int(np.sum(mu < delta)))


def test_counts_that_differ_at_the_margin_give_no_index(monkeypatch):
    # at u = 0, p = 2 and lambda = a mu_1, mu_1 the first eigenvalue of
    # (K, M), the pencil (J''(0), K) = (a K - lambda M, K) has the eigenvalue
    # a - lambda / mu_1 = 0 up to rounding: one count below +delta, none
    # below -delta
    mesh = build_interval_mesh(30, 0.0, 1.0)
    (mu1,) = solver._lowest(mesh, 1)[0]
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, mu1, constant_exponent(2.0, mesh), spec, mesh)
    assert solver._morse(prob, _point(mesh, np.zeros(mesh.n_vertices))) == (0, 1)
    # a solve whose counts differ reports neither an index nor a margin; one
    # with no count below -delta reports no point
    model = model_problem(n=24)
    e = find_negative_energy_point(model, tent_on(model.mesh))
    monkeypatch.setattr(solver, "_morse", lambda *args: (1, 2))
    rep = mountain_pass_solve(model, e, tol=1e-6)
    assert rep.morse_index is None and rep.morse_margin is None
    monkeypatch.setattr(solver, "_morse", lambda *args: (0, 1))
    with pytest.raises(GeometryNotFound, match="has Morse index 0"):
        mountain_pass_solve(model, e, tol=1e-6)


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
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    assert rep.iterations == 0 and rep.newton_steps > 0
    assert rep.residual_norm <= 1e-6 and rep.nonlocal_coefficient > 0.0
    assert rep.morse_index is not None
    assert rep.morse_index == _inertia(prob, rep.solution) == 1


def test_above_ceiling_level_flagged():
    # strongly negative lambda lifts the pass level past a^2/(2b) while the
    # nonlocal coefficient stays positive
    prob = model_problem(b=1.0, lam=-16.0, kind="scaled_power", coefficient=200.0)
    geo = verify_mountain_geometry(prob, [0.003, 0.01, 0.03, 0.1, 0.3, 1.0], 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
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
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
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
    assert multiplicity_search(prob, k_max=0) == []


def test_multiplicity_names_every_failed_start():
    # with lambda = -3 every eigenvector start drives K(u) below 0 at a
    # ray's peak; the search reports each start's cause instead of []
    prob = model_problem(n=12, lam=-3.0)
    with pytest.raises(DegenerateCoefficient, match="every start failed") as err:
        multiplicity_search(prob, k_max=4)
    for i in range(4):
        assert f"start {i}: DegenerateCoefficient: nonlocal coefficient K = -" in str(err.value)
    assert isinstance(err.value.__cause__, DegenerateCoefficient)


def test_multiplicity_skips_a_start_without_a_mountain_pass_point(monkeypatch):
    # a start whose solve raises GeometryNotFound (no maximum of J on its
    # ray, or a point of Morse index 0) fails like one that runs out of
    # steps: the orbits of the other starts are kept
    prob = model_problem(n=12)
    every = multiplicity_search(prob, k_max=4)
    solve, starts = solver.mountain_pass_solve, []

    def failing(prob, e, **kwargs):
        starts.append(e)
        if len(starts) == 2:
            raise GeometryNotFound("J has no maximum on the ray of e")
        return solve(prob, e, **kwargs)

    monkeypatch.setattr(solver, "mountain_pass_solve", failing)
    reports = multiplicity_search(prob, k_max=4)
    assert len(starts) == 4 and 1 <= len(reports) == len(every) - 1
    assert {r.energy for r in reports} < {r.energy for r in every}

    def never(prob, e, **kwargs):
        raise GeometryNotFound("J has no maximum on the ray of e")

    monkeypatch.setattr(solver, "mountain_pass_solve", never)
    with pytest.raises(GeometryNotFound, match="every start failed") as err:
        multiplicity_search(prob, k_max=2)
    assert "start 1: GeometryNotFound: J has no maximum" in str(err.value)


def test_multiplicity_requires_a_nonnegative_integer_k_max():
    # k_max counts the eigenvector starts: none gives no orbit, and a
    # fractional count is refused by laplace_eigenbasis
    prob = model_problem(n=12)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        multiplicity_search(prob, k_max=2.5)
    assert multiplicity_search(prob, k_max=0) == []


def test_negative_n_starts_is_a_domain_error():
    # the number of starts is k_max, one per eigenvector: a negative count
    # is refused by its own name
    prob = model_problem(n=12)
    with pytest.raises(DomainError, match="k_max must be nonnegative, got -1"):
        multiplicity_search(prob, k_max=-1)


def test_multiplicity_requires_a_geq_b():
    prob = model_problem(a=1.0, b=1.5, lam=0.0)
    with pytest.raises(DomainError):
        multiplicity_search(prob, k_max=2)


def test_multiplicity_dedups_sign_orbit(monkeypatch):
    # at n = 25 the start on eigenvector 4 lands on -u for the ground state
    # u of start 0: four solves give three orbits, of indices 1 to 3
    prob = model_problem(n=25)
    starts = _recorded_solves(monkeypatch)
    reports = multiplicity_search(prob, k_max=4)
    assert len(starts) == 4
    assert [r.morse_index for r in reports] == [1, 2, 3]
    assert [r.energy for r in reports] == pytest.approx(
        [3.6935519331, 4.9188406058, 4.9871430962], rel=1e-10)
    assert all(r.residual_norm <= 1e-6 for r in reports)


def _recorded_solves(monkeypatch):
    """Wrap the solver's mountain_pass_solve; the list collects the start e
    of each call."""
    solve, starts = solver.mountain_pass_solve, []

    def recorded(prob, e, **kwargs):
        starts.append(e.nodal_values)
        return solve(prob, e, **kwargs)

    monkeypatch.setattr(solver, "mountain_pass_solve", recorded)
    return starts


def test_multiplicity_solves_one_start_per_eigenvector(monkeypatch):
    # k_max = 4: four solves, start i on the ray of eigenvector i, and the
    # orbits are those of acceptance 8
    prob = model_problem(n=12)
    starts = _recorded_solves(monkeypatch)
    reports = multiplicity_search(prob, k_max=4)
    assert len(starts) == 4
    for e, b in zip(starts, laplace_eigenbasis(prob.mesh, 4)):
        ratio = e @ b.nodal_values / (b.nodal_values @ b.nodal_values)
        assert ratio > 0.0 and np.allclose(e, ratio * b.nodal_values, rtol=0.0,
                                           atol=1e-12 * ratio)
    assert [r.energy for r in reports] == pytest.approx(
        [3.7148637507215154, 4.926006462901305, 4.989576453445927, 4.9976373600474995],
        rel=1e-10)


@pytest.mark.parametrize("n, energies", [
    (12, [2.418408107164678, 4.463204724523759, 4.789794702668154, 4.894068238672694]),
    (25, [2.395935499394819, 4.441141305169043, 4.770721274102254, 4.876200105458628]),
])
def test_multiplicity_at_a_positive_lambda(n, energies):
    # p = 2, lambda = 2: the four eigenvector starts reach the four orbits
    # that eight starts (four of them random mixtures) found, with Morse
    # indices 1 to 4; the ground energy may differ by rounding, as a mixture
    # can land a few ulps lower on the same orbit
    reports = multiplicity_search(model_problem(n=n, lam=2.0), k_max=4)
    assert [r.energy for r in reports] == pytest.approx(energies, rel=1e-10)
    assert [r.morse_index for r in reports] == [1, 2, 3, 4]


@pytest.mark.parametrize("shift, kept", [(0.0, 0), (-1e-12, 1)])
def test_multiplicity_keeps_the_lower_of_a_sign_pair(shift, kept, monkeypatch):
    # starts 0 and 1 return u and -u: only the report first in (energy,
    # start index) order is kept
    prob = model_problem(n=12)
    solve, made = solver.mountain_pass_solve, []

    def mirrored(prob, e, **kwargs):
        if not made:
            made.append(solve(prob, e, **kwargs))
            return made[0]
        first = made[0]
        made.append(SolveReport(**{**vars(first), "energy": first.energy + shift,
                                   "solution": GridFunction(
                                       prob.mesh, -first.solution.nodal_values)}))
        return made[1]

    monkeypatch.setattr(solver, "mountain_pass_solve", mirrored)
    reports = multiplicity_search(prob, k_max=2)
    assert len(made) == 2 and reports == [made[kept]]


def test_newton_polish_builds_no_sparse_matrix(monkeypatch):
    # J'' reaches its band LU as pattern data, so no Newton attempt
    # constructs a csc_matrix, on the mesh wider than any benchmark mesh
    prob = wide_problem()
    polish, init = solver._newton_polish, scipy.sparse.csc_matrix.__init__
    built, attempts = [], []

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counted_polish(*args):
        before = len(built)
        out = polish(*args)
        attempts.append((len(built) - before, out[3]))
        return out

    monkeypatch.setattr(scipy.sparse.csc_matrix, "__init__", counted_init)
    monkeypatch.setattr(solver, "_newton_polish", counted_polish)
    multiplicity_search(prob, k_max=4)
    assert len(attempts) >= 3 and all(steps > 0 for _, steps in attempts)
    assert [n_built for n_built, _ in attempts] == [0] * len(attempts)


def test_multiplicity_finds_the_one_node_orbit_for_variable_p():
    # p = 2 + 0.2x: Newton from the first path peak reaches the one-node
    # orbit (K 0.0127), which the sweeps alone never reached
    mesh = build_interval_mesh(12, 0.0, 1.0)
    p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.0, p, spec, mesh)
    reports = multiplicity_search(prob, k_max=4)
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
], ids=["rayleigh_quotient_min", "verify_mountain_geometry"])
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
        call(model_problem(n=12))


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    # nan or a nonpositive tol can never certify, so the solve would run its
    # whole step budget before MaxIterations; an infinite one certifies any peak
    # (the Rayleigh descent accepted each of them silently)
    prob = model_problem(n=12)
    e = find_negative_energy_point(prob, tent_on(prob.mesh))
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        mountain_pass_solve(prob, e, tol=tol)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        multiplicity_search(prob, k_max=2, tol=tol)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        rayleigh_quotient_min(prob.p, prob.mesh, tol=tol)


def test_eigenbasis_shapes(monkeypatch):
    mesh = build_interval_mesh(40, 0.0, 1.0)
    x = mesh.vertices[:, 0]
    ref = np.sin(np.pi * x)
    for _, cutoff in ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        first = laplace_eigenbasis(mesh, 3)[0].nodal_values
        assert np.allclose(first, ref * first[20] / ref[20], atol=2e-3)
    assert laplace_eigenbasis(mesh, 0) == []
    with pytest.raises(DomainError):
        laplace_eigenbasis(mesh, 40)


def test_eigenbasis_full_basis_without_warning(monkeypatch):
    # ARPACK finds at most n - 1 of n pairs, so k = n takes the dense route
    # on either side of the cutoff, silently
    mesh = build_interval_mesh(6, 0.0, 1.0)
    idx = mesh.interior
    K = stiffness_by_operators(mesh)[np.ix_(idx, idx)].toarray()
    M = mass_by_operators(mesh)[np.ix_(idx, idx)].toarray()
    ref = scipy.linalg.eigh(K, M, eigvals_only=True)
    one = build_interval_mesh(2, 0.0, 1.0)
    for _, cutoff in ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        calls = _count_eigsh(monkeypatch)
        basis = laplace_eigenbasis(mesh, len(idx))
        V = np.array([b.nodal_values[idx] for b in basis]).T
        assert np.allclose(V.T @ M @ V, np.eye(len(idx)), atol=1e-12)
        assert np.allclose(np.diag(V.T @ K @ V), ref, rtol=1e-12)
        (only,) = laplace_eigenbasis(one, 1)
        assert only.nodal_values[1] > 0.0
        assert calls == []


def test_dense_eigenbasis_matches_the_exact_eigenvalues(monkeypatch):
    # on a uniform 1-D mesh K and M are tridiagonal Toeplitz, so the pencil
    # (K, M) has the eigenvalues (4/h^2) tan^2(j pi h / 2) and the sine modes
    # exactly; LAPACK finds the largest eigenvalues 1/lambda of (M, K), with
    # K factored, and keeps their digits (eigh(K, M), with M factored, was
    # off by 1.9e-9 here)
    mesh = build_interval_mesh(129, 0.0, 1.0)
    idx, h = mesh.interior, 1.0 / 129
    assert len(idx) == solver._DENSE_N
    calls = _count_eigsh(monkeypatch)
    basis = laplace_eigenbasis(mesh, 4)
    x, M = mesh.vertices[idx, 0], mesh.interior_mass
    for j, u in enumerate(basis, start=1):  # off by about 4e-11 with M factored
        w = np.sin(j * np.pi * x)
        w *= np.sign(w[np.argmax(np.abs(w) >= (1.0 - 1e-8) * np.abs(w).max())])
        w /= np.sqrt(w @ (M @ w))
        assert np.max(np.abs(u.nodal_values[idx] - w)) <= 1e-12 * np.max(np.abs(w))
    vals = solver._lowest(mesh, 4)[0]
    assert calls == []
    exact = 4.0 / h**2 * np.tan(np.arange(1, 5) * np.pi * h / 2.0) ** 2
    assert np.max(np.abs(vals - exact) / exact) <= 1e-13


@pytest.mark.parametrize("mesh", [build_interval_mesh(30, 0.0, 1.0),
                                  build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0)))],
                         ids=["1d", "2d"])
def test_pencil_operator_is_bitwise_the_sparse_products(mesh):
    # ARPACK's operator calls the CSR kernel and dtbtrs directly; its
    # products are bitwise those of the CSC mass and the band solves
    U = mesh.interior_stiffness_lu.factor
    y = np.random.default_rng(7).standard_normal(len(mesh.interior))
    x = scipy.linalg.lapack.dtbtrs(U, y)[0]
    whitened = scipy.linalg.lapack.dtbtrs(U, mesh.interior_mass @ x, trans="T")[0]
    assert np.array_equal(solver._PencilOperator(mesh, U) @ y, whitened)


def test_eigenbasis_2d_near_degenerate_modes_by_span(monkeypatch):
    # modes 2 and 3 of the square nearly coincide (49.67 and 49.82 at 32^2):
    # the vectors are not unique, their span is
    mesh = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0)))
    idx = mesh.interior
    K = stiffness_by_operators(mesh)[np.ix_(idx, idx)].toarray()
    M = mass_by_operators(mesh)[np.ix_(idx, idx)].toarray()
    vals, ref = scipy.linalg.eigh(K, M, subset_by_index=(0, 3))
    assert vals[1:3] == pytest.approx([49.67, 49.82], abs=5e-3)
    # 961 interior vertices: ARPACK at the real cutoff, dense above it
    for cutoff in (solver._DENSE_N, len(idx)):
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        basis = laplace_eigenbasis(mesh, 4)
        V = np.array([b.nodal_values[idx] for b in basis]).T
        assert np.allclose(np.diag(V.T @ K @ V), vals, rtol=1e-10)
        assert np.max(scipy.linalg.subspace_angles(V[:, 1:3], ref[:, 1:3])) <= 1e-8
        for j in (0, 3):
            assert min(np.max(np.abs(V[:, j] - s * ref[:, j])) for s in (1, -1)) <= 1e-8


def test_routes_agree_at_the_cutoff(monkeypatch):
    # a 1-D mesh with _DENSE_N interior vertices takes the dense routes and
    # one with _DENSE_N + 1 the ARPACK eigenbasis and the SuperLU counts;
    # the other routes, forced, give the same Morse counts and eigenbasis
    for n, real in ((solver._DENSE_N, "dense"), (solver._DENSE_N + 1, "arpack")):
        prob = model_problem(n=n + 1)
        geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
        rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
        at = _point(prob.mesh, rep.solution.nodal_values)
        calls, ldls = _count_eigsh(monkeypatch), _count_dsytrf(monkeypatch)
        morse, basis = solver._morse(prob, at), laplace_eigenbasis(prob.mesh, 4)
        assert (len(calls) > 0) == (len(ldls) == 0) == (real == "arpack")
        assert morse == (rep.morse_index, rep.morse_index) == (1, 1)
        monkeypatch.setattr(solver, "_DENSE_N", n if real == "arpack" else 0)
        other, other_basis = solver._morse(prob, at), laplace_eigenbasis(prob.mesh, 4)
        monkeypatch.undo()
        assert other == morse
        for u, v in zip(basis, other_basis):
            u, v = u.nodal_values, v.nodal_values
            assert min(np.max(np.abs(u - s * v)) for s in (1, -1)) <= 1e-10


@pytest.fixture(scope="module", params=["1d_n400", "2d_32", "2d_wide"])
def band_solution(request):
    """A problem on more than _DENSE_N interior vertices and its
    mountain-pass point: the mp1d and mp2d problems (399 and 961 interior
    vertices, of interior bandwidth 1 and 32), and ``wide_problem(ny=4)``
    (168, of interior bandwidth 57)."""
    if request.param == "2d_wide":
        prob = wide_problem(ny=4, lam=0.0)
    else:
        if request.param == "1d_n400":
            mesh, slope = build_interval_mesh(400, 0.0, 1.0), 0.2
        else:
            mesh, slope = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0))), 0.0
        p = build_exponent_field(2.0 + slope * mesh.element_centroids[:, 0], mesh)
        spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2)
        prob = KirchhoffProblem(1.0, 0.1, 0.0, p, spec, mesh)
    mesh = prob.mesh
    assert mesh.interior_bandwidth == {"1d_n400": 1, "2d_32": 32, "2d_wide": 57}[request.param]
    assert len(mesh.interior) > solver._DENSE_N
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    return prob, _point(mesh, rep.solution.nodal_values)


def test_whitened_route_agrees_with_the_dense_route(band_solution, monkeypatch):
    # at every bandwidth the eigenbasis runs ARPACK in standard mode on
    # U^{-T} M U^{-1}, K = U^T U, with neither a mass matrix nor a shift, and
    # the Morse counts make no eigensolve; the dense routes, forced, give
    # the same Morse counts, which the oracle's eigenvalues confirm, and the
    # same eigenbasis
    prob, at = band_solution
    mesh, idx = prob.mesh, prob.mesh.interior
    calls = _eigsh_arguments(monkeypatch)
    morse, basis = solver._morse(prob, at), laplace_eigenbasis(mesh, 3)
    assert calls == [(None, None)]
    monkeypatch.setattr(solver, "_DENSE_N", len(idx))
    dense_morse, dense_basis = solver._morse(prob, at), laplace_eigenbasis(mesh, 3)
    assert len(calls) == 1
    assert morse == dense_morse == (1, 1)
    ref = _dense_pencil_eigenvalues(prob, GridFunction(mesh, at.nodal))
    assert int(np.sum(ref < 0.0)) == 1
    assert not np.any(np.abs(ref) <= solver._MORSE_MARGIN * prob.a)
    K = mesh.interior_pattern_matrix(mesh.interior_stiffness_data)
    V, W = ([b.nodal_values[idx] for b in vs] for vs in (basis, dense_basis))
    for v, w in zip(V, W):
        assert v @ (K @ v) == pytest.approx(w @ (K @ w), rel=1e-12)
    if mesh.dimension == 1:
        # on this uniform mesh K and M are tridiagonal Toeplitz, so the sine
        # modes are exact (the sign rule: the first entry of largest
        # magnitude is positive)
        x, M = mesh.vertices[idx, 0], mesh.interior_mass
        W = [np.sin(j * np.pi * x) for j in (1, 2, 3)]
        W = [w * np.sign(w[np.argmax(np.abs(w) >= (1.0 - 1e-8) * np.abs(w).max())])
             / np.sqrt(w @ (M @ w)) for w in W]
    for v, w in zip(V, W):
        assert np.max(np.abs(v - w)) <= 1e-10 * np.max(np.abs(w))


def _eigsh_arguments(monkeypatch):
    """Wrap eigsh; the list collects the M and sigma of each call."""
    calls, eigsh = [], scipy.sparse.linalg.eigsh

    def recorded(A, k, M=None, sigma=None, *args, **kwargs):
        calls.append((M, sigma))
        return eigsh(A, k, M, sigma, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    return calls


def test_eigenbasis_signs_agree_on_both_routes(monkeypatch):
    # modes 2 and 4 of the symmetric interval are antisymmetric: their two
    # entries of largest magnitude differ only by rounding, and the first
    # vertex among them fixes the sign on either route
    mesh = build_interval_mesh(12, 0.0, 1.0)
    dense = laplace_eigenbasis(mesh, 4)
    monkeypatch.setattr(solver, "_DENSE_N", 0)
    arpack = laplace_eigenbasis(mesh, 4)
    for u, v in zip(dense, arpack):
        u, v = u.nodal_values, v.nodal_values
        assert np.max(np.abs(u - v)) <= 1e-10 * np.max(np.abs(u))


def test_eigenbasis_uses_the_cached_interior_mass(monkeypatch):
    mesh = build_interval_mesh(12, 0.0, 1.0)
    M = mesh.interior_mass
    monkeypatch.setattr(type(mesh), "mass", property(lambda self: pytest.fail("sliced")),
                        raising=False)
    for _, cutoff in ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        V = np.array([b.nodal_values[mesh.interior] for b in laplace_eigenbasis(mesh, 4)]).T
        assert np.allclose(V.T @ (M @ V), np.eye(4), atol=1e-12)


def test_eigenbasis_rejects_a_negative_or_fractional_k():
    mesh = build_interval_mesh(12, 0.0, 1.0)
    with pytest.raises(DomainError, match="k must be nonnegative, got -1"):
        laplace_eigenbasis(mesh, -1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        laplace_eigenbasis(mesh, 2.5)
    assert laplace_eigenbasis(mesh, np.int64(2))[1].nodal_values[3] != 0.0


# -- one stiffness LU per mesh -------------------------------------------------

def _geometry_and_solve(prob):
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    assert rep.morse_index == 1


def _two_rayleigh_minimizations(prob):
    for seed in (0, 1):
        rayleigh_quotient_min(prob.p, prob.mesh, seed=seed)


# Each task with the stiffness LUs it makes on the ARPACK route and on the
# dense route: the two mountain-pass tasks take no descent step, so on the
# dense route nothing solves with the stiffness.
STIFFNESS_TASKS = pytest.mark.parametrize("n, task, lus", [
    (40, _geometry_and_solve, {"arpack": 1, "dense": 0}),
    (12, lambda prob: multiplicity_search(prob, k_max=4),
     {"arpack": 1, "dense": 0}),
    (40, _two_rayleigh_minimizations, {"arpack": 1, "dense": 1}),
], ids=["geometry_and_solve", "multiplicity", "rayleigh"])


def _count_stiffness_lus(monkeypatch, mesh) -> list:
    """Wrap splu in every module that binds it, so that a SuperLU of the
    mesh's interior stiffness through any scipy function with a binding of
    its own (``factorized``, ARPACK's shift-invert mode) is caught too; the
    list collects each such factorization."""
    S = mesh.interior_pattern_matrix(mesh.interior_stiffness_data)
    splu, calls = scipy.sparse.linalg.splu, []

    def counted(A, *args, **kwargs):
        if A.shape == S.shape and abs(A - S).max() == 0.0:
            calls.append(A.shape)
        return splu(A, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("splu") is splu:
            monkeypatch.setattr(module, "splu", counted)
    return calls


def _assert_one_band_cholesky(make_problem, task, lus, monkeypatch):
    """Run ``task`` on both routes; the stiffness of ``make_problem()``'s mesh
    is factored ``lus[route]`` times by LAPACK's band Cholesky, never by
    SuperLU."""
    dpbtrf = scipy.linalg.lapack.dpbtrf
    for route, cutoff in ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        prob, factored = make_problem(), []
        calls = _count_stiffness_lus(monkeypatch, prob.mesh)
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                            lambda *args, **kwargs: factored.append(1) or dpbtrf(*args, **kwargs))
        task(prob)
        assert len(factored) == lus[route] and calls == []
        monkeypatch.undo()


@STIFFNESS_TASKS
def test_stiffness_is_factored_once_per_mesh(n, task, lus, monkeypatch):
    # on the mesh wider than any benchmark mesh, with at most _DENSE_N
    # interior vertices
    _assert_one_band_cholesky(wide_problem, task, lus, monkeypatch)


@STIFFNESS_TASKS
def test_band_stiffness_is_factored_once_per_mesh(n, task, lus, monkeypatch):
    # on these 1-D meshes
    _assert_one_band_cholesky(lambda: model_problem(n=n), task, lus, monkeypatch)


@STIFFNESS_TASKS
def test_no_stiffness_solve_calls_factorized(n, task, lus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorized was called")

    monkeypatch.setattr(scipy.sparse.linalg, "factorized", refuse)
    for _, cutoff in ROUTES:
        monkeypatch.setattr(solver, "_DENSE_N", cutoff)
        task(model_problem(n=n))
