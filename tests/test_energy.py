import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import quad

from pxkirchhoff import (
    DomainError,
    GridFunction,
    KirchhoffProblem,
    NonlinearitySpec,
    ShapeError,
    ar_condition_check,
    build_exponent_field,
    build_interval_mesh,
    build_rect_mesh,
    constant_exponent,
    energy_J,
    gradient_J,
    hessian_J,
    kirchhoff_A,
    nonlinearity_eval,
)
from pxkirchhoff.energy import (
    _derivative_terms_of_elements,
    _line_energy,
    _magnitude,
    _point,
    _rayleigh_line,
    _rayleigh_ratio,
    _stiffness_norm,
)
from oracles import central_difference, hessian_by_operators


def tent_problem(n=100, a=1.0, b=0.1, lam=0.0, q_const=4.5, kind="pure_power",
                 theta=3.2):
    mesh = build_interval_mesh(n, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(q_const, mesh)
    spec = NonlinearitySpec(kind, q, theta=theta)
    prob = KirchhoffProblem(a, b, lam, p, spec, mesh)
    x = mesh.vertices[:, 0]
    tent = GridFunction(mesh, 2.0 * np.minimum(x, 1.0 - x))
    return prob, tent


def test_nonlinearity_eval_pure_power():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0)
    assert nonlinearity_eval(spec, 0, 2.0) == pytest.approx((8.0, 4.0))
    assert nonlinearity_eval(spec, 1, 0.0) == (0.0, 0.0)
    assert nonlinearity_eval(spec, 2, -2.0) == pytest.approx((-8.0, 4.0))


def test_nonlinearity_eval_scaled_and_zero():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    q = constant_exponent(4.0, mesh)
    scaled = NonlinearitySpec("scaled_power", q, coefficient=2.0, theta=3.0)
    assert nonlinearity_eval(scaled, 0, 2.0) == pytest.approx((16.0, 8.0))
    zero = NonlinearitySpec("zero", q)
    assert nonlinearity_eval(zero, 0, 5.0) == (0.0, 0.0)


def test_nonlinearity_eval_rejects_elements_outside_the_mesh():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0)
    for element in (-1, 4):
        with pytest.raises(ShapeError):
            nonlinearity_eval(spec, element, 2.0)
    assert nonlinearity_eval(spec, 3, 2.0) == pytest.approx((8.0, 4.0))


def test_spec_validation():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    q = constant_exponent(4.0, mesh)
    with pytest.raises(DomainError):
        NonlinearitySpec("cubic", q)
    with pytest.raises(DomainError):
        NonlinearitySpec("scaled_power", q, coefficient=0.0)
    with pytest.raises(DomainError):
        NonlinearitySpec("pure_power", q, s_A=-1.0)


def test_problem_validation():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(4.5, mesh)
    with pytest.raises(DomainError):
        KirchhoffProblem(0.0, 0.1, 0.0, p, NonlinearitySpec("zero", q), mesh)
    bad_theta = KirchhoffProblem(
        1.0, 0.1, 0.0, p, NonlinearitySpec("pure_power", q, theta=4.6), mesh
    )
    with pytest.raises(DomainError):  # theta above q- is caught at the solve gate
        bad_theta.require_valid_chain()
    prob = KirchhoffProblem(
        1.0, 0.1, 0.0, p, NonlinearitySpec("pure_power", q), mesh
    )
    prob.require_valid_chain()
    assert prob.g.theta is not None and 2.0 < prob.g.theta <= 4.0
    assert prob.ps_ceiling == pytest.approx(5.0)


def test_problems_sharing_a_spec_get_their_own_default_theta():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.5, mesh))
    first = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    p_var = build_exponent_field(1.6 + 0.2 * mesh.element_centroids[:, 0], mesh)
    second = KirchhoffProblem(1.0, 0.1, 0.0, p_var, spec, mesh)
    first.require_valid_chain()
    second.require_valid_chain()
    assert spec.theta is None
    assert first.g.theta == pytest.approx(4.0 - 1e-6, abs=1e-12)
    lo, hi = second.validate().theta_interval
    assert lo < second.g.theta < hi


def test_kirchhoff_A_values():
    prob, tent = tent_problem()
    mesh = prob.mesh
    assert kirchhoff_A(GridFunction(mesh, np.zeros(101)), prob.p) == 0.0
    assert kirchhoff_A(tent, prob.p) == pytest.approx(2.0, rel=1e-12)

    mesh200 = build_interval_mesh(200, 0.0, 1.0)
    x = mesh200.vertices[:, 0]
    parab = GridFunction(mesh200, x * (1.0 - x))
    # closed form: integral of (1/2)(1-2x)^2 = 1/6
    assert kirchhoff_A(parab, constant_exponent(2.0, mesh200)) == pytest.approx(
        1.0 / 6.0, abs=1e-3
    )


def test_energy_values():
    prob, tent = tent_problem(kind="zero")
    assert energy_J(GridFunction(prob.mesh, np.zeros(101)), prob) == 0.0
    assert energy_J(tent, prob) == pytest.approx(1.8, rel=1e-12)

    # with the quartic power: J = 1.8 - (1/4) * integral of tent^4 = 1.75
    prob4, tent4 = tent_problem(n=200, q_const=4.0, theta=3.0)
    assert energy_J(tent4, prob4) == pytest.approx(1.75, abs=1e-2)


def test_gradient_zero_at_origin():
    prob, _ = tent_problem()
    zero = GridFunction(prob.mesh, np.zeros(101))
    assert np.all(gradient_J(zero, prob).nodal_values == 0.0)


def test_gradient_odd_symmetry():
    prob, _ = tent_problem(lam=0.7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = GridFunction(prob.mesh, rng.standard_normal(101))
        plus = gradient_J(u, prob).nodal_values
        minus = gradient_J(GridFunction(prob.mesh, -u.nodal_values), prob).nodal_values
        assert np.array_equal(minus, -plus)


def test_energy_even():
    prob, _ = tent_problem(lam=-0.4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = GridFunction(prob.mesh, rng.standard_normal(101))
        assert energy_J(u, prob) == energy_J(GridFunction(prob.mesh, -u.nodal_values), prob)


@pytest.mark.parametrize("dim", [1, 2])
def test_line_restriction_matches_energy(dim):
    if dim == 1:
        mesh = build_interval_mesh(50, 0.0, 1.0)
        p = build_exponent_field(2.0 + 0.5 * mesh.element_centroids[:, 0], mesh)
    else:
        mesh = build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0)))
        p = constant_exponent(2.5, mesh)
    q = constant_exponent(4.5, mesh)
    spec = NonlinearitySpec("scaled_power", q, coefficient=1.5, theta=3.2)
    prob = KirchhoffProblem(1.0, 0.1, 0.7, p, spec, mesh)
    rng = np.random.default_rng(dim)
    ua, ub = (GridFunction(mesh, 0.3 * rng.standard_normal(mesh.n_vertices))
              .nodal_values for _ in range(2))
    J = _line_energy(prob, ua, ub - ua)
    for t in (0.0, 0.37, 1.0):
        direct = energy_J(GridFunction(mesh, ua + t * (ub - ua)), prob)
        assert J(t)[0] == pytest.approx(direct, rel=1e-13)
        fd = central_difference(lambda s: J(s)[0], t, 1.0)
        assert J(t)[1] == pytest.approx(fd, rel=1e-7)
    # a stack of t gives the same pairs as one t at a time
    ts = np.array([0.0, 0.37, 1.0])
    for stacked, single in zip(np.array(J(ts)).T, ts):
        assert stacked == pytest.approx(J(single), rel=1e-13)


def test_line_restriction_rejects_nonzero_trace():
    prob, tent = tent_problem()
    bad = tent.nodal_values.copy()
    bad[-1] = 0.5
    with pytest.raises(DomainError):
        _line_energy(prob, tent.nodal_values, bad - tent.nodal_values)
    with pytest.raises(DomainError):
        _line_energy(prob, bad, tent.nodal_values)


def _rayleigh_case(dim):
    """(mesh, variable p, u, d): a positive zero-trace u and a random
    zero-trace direction d."""
    rng = np.random.default_rng(7 + dim)
    if dim == 1:
        mesh = build_interval_mesh(60, 0.0, 1.0)
        p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    else:
        mesh = build_rect_mesh(9, 7, ((0.0, 0.0), (1.0, 1.5)))
        p = build_exponent_field(2.0 + 0.2 * mesh.element_centroids[:, 0], mesh)
    u = GridFunction(mesh, 0.2 + rng.random(mesh.n_vertices)).nodal_values
    d = GridFunction(mesh, rng.standard_normal(mesh.n_vertices)).nodal_values
    return mesh, p, u, d


def test_magnitude_is_the_row_norm():
    rng = np.random.default_rng(4)
    for n, dim in ((400, 1), (4608, 2)):
        g = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-6, 7, (n, 1))
        np.testing.assert_array_max_ulp(_magnitude(g), np.linalg.norm(g, axis=1), maxulp=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_rayleigh_line_matches_the_ratio_on_nodes(dim):
    mesh, p, u, d = _rayleigh_case(dim)
    ratio, data = _rayleigh_line(mesh, p, _point(mesh, u), d)
    for t in (0.0, 1e-3, 0.5, 1.0):
        assert ratio(t) == pytest.approx(_rayleigh_ratio(mesh, p, u + t * d), rel=1e-13)
        gmag, uct = data(t)
        ref_at = _point(mesh, u + t * d)
        ref, ref_uc = ref_at.gmag, ref_at.uc
        assert np.max(np.abs(gmag - ref)) <= 1e-13 * np.max(ref)
        assert np.max(np.abs(uct - ref_uc)) <= 1e-14 * np.max(np.abs(ref_uc))


@pytest.mark.parametrize("dim", [1, 2])
def test_stiffness_norm_of_element_data_matches_the_matrix(dim):
    mesh, _, u, d = _rayleigh_case(dim)
    for v in (u, d, u - 0.3 * d):
        h = _stiffness_norm(mesh, _point(mesh, v).gmag)
        assert h == pytest.approx(np.sqrt(v @ mesh.stiffness @ v), rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_matches_finite_differences(dim):
    if dim == 1:
        mesh = build_interval_mesh(60, 0.0, 1.0)
        p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    else:
        mesh = build_rect_mesh(6, 6, ((0.0, 0.0), (1.0, 1.0)))
        p = constant_exponent(2.0, mesh)
    q = constant_exponent(5.2, mesh)
    prob = KirchhoffProblem(
        1.0, 0.1, 0.8, p, NonlinearitySpec("pure_power", q, theta=2.2), mesh
    )
    rng = np.random.default_rng(dim)
    for _ in range(5):
        u_nodal = rng.standard_normal(mesh.n_vertices)
        v_nodal = rng.standard_normal(mesh.n_vertices)
        v_nodal[mesh.boundary_mask] = 0.0
        u = GridFunction(mesh, u_nodal)

        def J(nodal):
            return energy_J(GridFunction(mesh, nodal), prob)

        fd = central_difference(J, u.nodal_values, v_nodal)
        exact = float(np.dot(gradient_J(u, prob).nodal_values, v_nodal))
        assert fd == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("kind", ["pure_power", "scaled_power", "zero"])
def test_gradient_equals_reference_assembly_bitwise(kind):
    # reference: the same two adjoint products with g = |s|^{q-2} s written
    # out here, masked where s = 0
    mesh = build_interval_mesh(40, 0.0, 1.0)
    p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    q = build_exponent_field(6.0 + mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec(kind, q, coefficient=2.5, theta=3.0)
    prob = KirchhoffProblem(1.0, 0.01, 0.4, p, spec, mesh)
    # a smooth bump of height 3 and a steep q, so that the flux term does not
    # swamp the last bits of g
    x = mesh.vertices[:, 0]
    nodal = 3.0 * np.sin(np.pi * x)
    nodal[mesh.boundary_mask] = 0.0
    nodal[10:13] = 0.0  # zero centroid values and gradients on two elements
    at = _point(mesh, nodal)
    A, flux, s_pow = _derivative_terms_of_elements(mesh, p, at)
    mag = np.abs(at.uc)
    g = np.where(mag > 0.0, mag ** (q.values - 2.0) * at.uc, 0.0)
    g = {"pure_power": g, "scaled_power": 2.5 * g, "zero": 0.0 * g}[kind]
    lumped = (prob.lam * s_pow + g) * mesh.element_measures
    ref = (prob.a - prob.b * A) * (mesh.gradient_adjoint @ flux) \
        - mesh.centroid_adjoint @ lumped
    ref[mesh.boundary_mask] = 0.0
    assert np.array_equal(gradient_J(GridFunction(mesh, nodal), prob).nodal_values, ref)


def test_gradient_assembly_deterministic():
    prob, _ = tent_problem(lam=0.3)
    rng = np.random.default_rng(21)
    u = GridFunction(prob.mesh, rng.standard_normal(101))
    first = gradient_J(u, prob).nodal_values
    second = gradient_J(GridFunction(prob.mesh, u.nodal_values), prob).nodal_values
    assert np.array_equal(first, second)


def test_quadratic_part_ceiling():
    prob, _ = tent_problem()
    rng = np.random.default_rng(10)
    ceiling = prob.ps_ceiling
    for scale in (0.1, 1.0, 5.0, 40.0):
        u = GridFunction(prob.mesh, scale * rng.standard_normal(101))
        A = kirchhoff_A(u, prob.p)
        assert prob.a * A - 0.5 * prob.b * A * A <= ceiling + 1e-12


def test_energy_sign_structure_without_nonlinearity():
    prob, _ = tent_problem(lam=-1.0, kind="zero")
    rng = np.random.default_rng(11)
    for _ in range(20):
        u_nodal = rng.standard_normal(101)
        u = GridFunction(prob.mesh, u_nodal)
        A = kirchhoff_A(u, prob.p)
        if A > 2.0 * prob.a / prob.b:
            u = GridFunction(prob.mesh, u_nodal * 0.1)
            A = kirchhoff_A(u, prob.p)
        if A <= 2.0 * prob.a / prob.b:
            assert energy_J(u, prob) >= -1e-14


def test_primitive_consistency():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    q = build_exponent_field(4.2 + 0.7 * mesh.element_centroids[:, 0], mesh)
    spec = NonlinearitySpec("scaled_power", q, coefficient=1.7, theta=4.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        e = int(rng.integers(0, 20))
        s = rng.uniform(-3.0, 3.0)
        if abs(s) < 0.1:
            continue
        integral = quad(lambda t: nonlinearity_eval(spec, e, t)[0], 0.0, s)[0]
        _, G = nonlinearity_eval(spec, e, s)
        assert integral == pytest.approx(G, rel=1e-6)


def test_ar_condition_pure_power():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    q4 = constant_exponent(4.0, mesh)

    rep = ar_condition_check(NonlinearitySpec("pure_power", q4, theta=3.0), [2.0])
    assert rep.ok
    # boundary equality theta = q- is admissible
    rep_eq = ar_condition_check(NonlinearitySpec("pure_power", q4, theta=4.0), [2.0])
    assert rep_eq.ok
    rep_bad = ar_condition_check(NonlinearitySpec("pure_power", q4, theta=4.5), [2.0])
    assert not rep_bad.ok
    assert any("theta*G > s*g" in v for v in rep_bad.violations)


def test_ar_condition_zero_kind_fails():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    spec = NonlinearitySpec("zero", constant_exponent(4.0, mesh), theta=3.0)
    rep = ar_condition_check(spec, [1.5, 2.0])
    assert not rep.ok


def test_ar_condition_grid_precondition():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0, s_A=1.0)
    with pytest.raises(DomainError):
        ar_condition_check(spec, [0.5, 2.0])


def test_ar_growth_floor():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    q = build_exponent_field(np.linspace(4.1, 5.0, 10), mesh)
    spec = NonlinearitySpec("pure_power", q, theta=3.5, s_A=1.0)
    rep = ar_condition_check(spec, [1.0, 1.7, 2.9, 5.0, -2.2])
    assert rep.ok
    assert rep.c1 == pytest.approx(1.0 / 5.0)  # min over elements of 1/q at s_A = 1


# -- Hessian -------------------------------------------------------------------

def _hessian_case(case):
    if case == "2d":
        mesh = build_rect_mesh(5, 6, ((0.0, 0.0), (1.0, 1.5)))
        p = build_exponent_field(2.2 + 0.3 * mesh.element_centroids[:, 0], mesh)
    else:
        mesh = build_interval_mesh(40, 0.0, 1.0)
        p = build_exponent_field(2.0 + 0.5 * mesh.element_centroids[:, 0], mesh)
    q = constant_exponent(5.0, mesh)
    kind, coefficient, lam = "pure_power", 1.0, 0.0
    if case == "lambda":
        lam = 3.0
    if case == "scaled_power":
        kind, coefficient = "scaled_power", 2.5
    spec = NonlinearitySpec(kind, q, coefficient=coefficient)
    return KirchhoffProblem(1.0, 0.3, lam, p, spec, mesh)


HESSIAN_CASES = ["1d_variable_p", "2d", "lambda", "scaled_power"]


@pytest.mark.parametrize("case", HESSIAN_CASES)
def test_hessian_vector_products_match_finite_differences(case):
    prob = _hessian_case(case)
    mesh = prob.mesh
    rng = np.random.default_rng(11)
    u = GridFunction(mesh, 0.3 + rng.random(mesh.n_vertices))
    S, dA = hessian_J(u, prob)
    assert (S != S.T).nnz == 0  # bitwise symmetric
    idx = mesh.interior
    for _ in range(3):
        v = GridFunction(mesh, rng.standard_normal(mesh.n_vertices)).nodal_values
        Hv = S @ v[idx] - prob.b * dA * (dA @ v[idx])
        fd = central_difference(
            lambda x: gradient_J(GridFunction(mesh, x), prob).nodal_values,
            u.nodal_values, v,
        )
        assert np.max(np.abs(Hv - fd[idx])) <= 1e-6 * np.max(np.abs(fd[idx]))


@pytest.mark.parametrize("case", HESSIAN_CASES)
def test_hessian_matches_the_operator_assembly(case):
    prob = _hessian_case(case)
    rng = np.random.default_rng(7)
    u = GridFunction(prob.mesh, 0.3 + rng.random(prob.mesh.n_vertices))
    S, dA = hessian_J(u, prob)
    S_ref, dA_ref = hessian_by_operators(u, prob)
    assert isinstance(S, scipy.sparse.csc_matrix) and S.has_sorted_indices
    assert abs(S - S_ref).max() <= 1e-14 * abs(S_ref).max()
    assert np.max(np.abs(dA - dA_ref)) <= 1e-14 * np.max(np.abs(dA_ref))


def test_hessian_rank_one_factor_is_the_derivative_of_A():
    for case in HESSIAN_CASES:
        prob = _hessian_case(case)
        rng = np.random.default_rng(3)
        u = GridFunction(prob.mesh, 0.3 + rng.random(prob.mesh.n_vertices))
        _, dA = hessian_J(u, prob)
        _, flux, _ = _derivative_terms_of_elements(
            prob.mesh, prob.p, _point(prob.mesh, u.nodal_values))
        assert np.array_equal(dA, (prob.mesh.gradient_adjoint @ flux)[prob.mesh.interior])


def test_hessian_skips_elements_without_an_interior_vertex():
    # the criss-cross rectangle has two triangles, at opposite corners, whose
    # vertices all lie on the boundary: a zero-trace u has no gradient there,
    # which must not count as the singularity of an exponent below 2
    mesh = build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0)))
    live = mesh.interior_pattern.live
    assert np.flatnonzero(~live).tolist() == [62, 1985]
    assert np.array_equal(live, ~mesh.boundary_mask[mesh.elements].all(axis=1))
    q = constant_exponent(4.5, mesh)
    for lam in (0.0, 2.0):
        prob = KirchhoffProblem(1.0, 0.1, lam, constant_exponent(1.6, mesh),
                                NonlinearitySpec("pure_power", q, theta=2.5), mesh)
        u = GridFunction(mesh, 0.1 + np.random.default_rng(0).random(mesh.n_vertices))
        grads = (mesh.gradient_map @ u.nodal_values).reshape(-1, 2)
        assert np.all(grads[~live] == 0.0)
        S, dA = hessian_J(u, prob)
        S_ref, dA_ref = hessian_by_operators(u, prob)
        assert (S != S.T).nnz == 0
        assert abs(S - S_ref).max() <= 1e-14 * abs(S_ref).max()
        assert np.max(np.abs(dA - dA_ref)) <= 1e-14 * np.max(np.abs(dA_ref))


def test_hessian_p_below_two_at_a_vanishing_gradient_raises():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    p = constant_exponent(1.8, mesh)
    spec = NonlinearitySpec("pure_power", constant_exponent(4.0, mesh), theta=3.0)
    x = mesh.vertices[:, 0]
    flat = GridFunction(mesh, np.minimum(np.minimum(x, 1.0 - x), 0.3))  # flat middle
    prob = KirchhoffProblem(1.0, 0.1, 0.0, p, spec, mesh)
    with pytest.raises(DomainError, match="vanishing element gradient"):
        hessian_J(flat, prob)
    # with lambda != 0, a vanishing centroid value is the same singularity
    mesh9 = build_interval_mesh(9, 0.0, 1.0)
    lam_prob = KirchhoffProblem(
        1.0, 0.1, 1.0, constant_exponent(1.8, mesh9),
        NonlinearitySpec("pure_power", constant_exponent(4.0, mesh9), theta=3.0), mesh9,
    )
    odd = GridFunction(mesh9, 0.1 * np.array([0, 1, 2, 3, 4, -4, -3, -2, -1, 0]))
    assert (mesh9.centroid_map @ odd.nodal_values)[4] == 0.0  # the middle element
    with pytest.raises(DomainError, match="vanishing centroid value"):
        hessian_J(odd, lam_prob)
    # at p = 2 the weight |grad u|^0 is 1, so a flat element is harmless
    prob2 = KirchhoffProblem(1.0, 0.1, 0.0, constant_exponent(2.0, mesh), spec, mesh)
    S, dA = hessian_J(flat, prob2)
    assert np.all(np.isfinite(S.data)) and np.all(np.isfinite(dA))
