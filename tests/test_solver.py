import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pxkirchhoff import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    GridFunction,
    KirchhoffProblem,
    MaxIterations,
    NonlinearitySpec,
    SolveReport,
    build_exponent_field,
    build_interval_mesh,
    build_rect_mesh,
    constant_exponent,
    energy_J,
    find_negative_energy_point,
    gradient_J,
    laplace_eigenbasis,
    mountain_pass_solve,
    multiplicity_search,
    ps_threshold_check,
    rayleigh_quotient_min,
    sobolev_norm,
    verify_mountain_geometry,
)
from pxkirchhoff import solver
from pxkirchhoff.solver import (
    _rayleigh_gradient,
    _rayleigh_ratio,
    _scale_until_negative,
    _segment_max,
)
from oracles import central_difference

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


# -- mountain pass -------------------------------------------------------------

def test_model_solve_report(model_solution):
    prob, geo, rep = model_solution
    assert rep.residual_norm <= 1e-6
    assert 0.0 < rep.energy < prob.ps_ceiling
    assert rep.nonlocal_coefficient > 0.0
    assert rep.below_ps_ceiling
    assert rep.below_ps_ceiling == ps_threshold_check(rep, prob)
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
    rep = mountain_pass_solve(prob, e, n_path=15, tol=1e-6)
    assert rep.iterations > 0
    assert len(calls) <= 15 + 1 + 3 * rep.iterations


def test_segment_max_rejects_nonzero_trace():
    prob = model_problem()
    ua = tent_on(prob.mesh).nodal_values
    ub = 2.0 * ua
    ub[0] = 1e-3
    with pytest.raises(DomainError):
        _segment_max(prob, ua, ub)


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


def test_degenerate_coefficient_is_raised():
    # the antisymmetric seed's ray peaks where K changes sign: the solver
    # must surface that rather than continue
    prob = model_problem()
    phi2 = laplace_eigenbasis(prob.mesh, 2)[1]
    e = _scale_until_negative(
        prob, phi2.nodal_values / sobolev_norm(phi2, prob.p)
    )
    with pytest.raises(DegenerateCoefficient):
        mountain_pass_solve(prob, e, n_path=31, tol=1e-6)


def test_above_ceiling_level_flagged():
    # strongly negative lambda lifts the pass level past a^2/(2b) while the
    # nonlocal coefficient stays positive
    prob = model_problem(b=1.0, lam=-16.0, kind="scaled_power", coefficient=200.0)
    geo = verify_mountain_geometry(prob, [0.003, 0.01, 0.03, 0.1, 0.3, 1.0], 20, seed=0)
    rep = mountain_pass_solve(prob, geo.negative_point, n_path=31, tol=1e-6)
    assert rep.energy > prob.ps_ceiling
    assert not rep.below_ps_ceiling
    assert rep.nonlocal_coefficient > 0.0
    assert ps_threshold_check(rep, prob) == rep.below_ps_ceiling


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


def test_ps_threshold_strictness(model_solution):
    prob, _, rep = model_solution

    def with_energy(c):
        return SolveReport(
            solution=rep.solution, energy=c, residual_norm=0.0,
            nonlocal_coefficient=1.0, below_ps_ceiling=c < prob.ps_ceiling,
            iterations=0, path_energies=[c], iteration_trace=[],
        )

    assert ps_threshold_check(with_energy(4.9), prob)
    assert not ps_threshold_check(with_energy(5.1), prob)
    assert not ps_threshold_check(with_energy(5.0), prob)  # strict inequality


# -- multiplicity --------------------------------------------------------------

def test_multiplicity_no_starts():
    prob = model_problem()
    assert multiplicity_search(prob, n_starts=0) == []


def test_multiplicity_requires_a_geq_b():
    prob = model_problem(a=1.0, b=1.5, lam=0.0)
    with pytest.raises(DomainError):
        multiplicity_search(prob, n_starts=2)


def test_multiplicity_dedups_sign_orbit():
    prob = model_problem()
    reports = multiplicity_search(prob, n_starts=2, k_max=1, seed=0)
    assert len(reports) == 1
    assert reports[0].residual_norm <= 1e-6


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
