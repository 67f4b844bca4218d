"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (run with -s to see them);
a failed assertion keeps the line unprinted.
"""

import time

import numpy as np
import pytest

from pxkirchhoff import (
    GeometryNotFound,
    GridFunction,
    KirchhoffProblem,
    NonlinearitySpec,
    build_exponent_field,
    build_interval_mesh,
    build_rect_mesh,
    centroid_values,
    constant_exponent,
    energy_J,
    gradient_J,
    holder_pairing,
    luxemburg_norm,
    modular,
    mountain_pass_solve,
    multiplicity_search,
    rayleigh_quotient_min,
    sobolev_norm,
    verify_mountain_geometry,
)
from oracles import (
    central_difference,
    deflated_roots_1d,
    fd_ground_eigenvalue,
    make_residual_1d,
    newton_1d,
)

RHO_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]


def model_problem(n=100):
    mesh = build_interval_mesh(n, 0.0, 1.0)
    p = constant_exponent(2.0, mesh)
    q = constant_exponent(4.5, mesh)
    spec = NonlinearitySpec("pure_power", q, theta=3.2)
    return KirchhoffProblem(1.0, 0.1, 0.0, p, spec, mesh)


@pytest.fixture(scope="module")
def meshes():
    return build_interval_mesh(100, 0.0, 1.0), build_rect_mesh(8, 8, ((0.0, 0.0), (1.0, 1.0)))


@pytest.fixture(scope="module")
def model_run():
    prob = model_problem()
    geo = verify_mountain_geometry(prob, RHO_GRID, 20, seed=0)
    report = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
    return prob, geo, report


@pytest.fixture(scope="module")
def multiplicity_run():
    # coarse desk mesh: the orbit family of the a - b*A(u) form accumulates
    # at the compactness ceiling, and the coarse-mesh search reaches four
    # orbits, the highest with K(u) about 5e-4
    prob = model_problem(n=12)
    reports = multiplicity_search(prob, n_starts=8, k_max=4, seed=0, tol=1e-6)
    return prob, reports


def test_acceptance_1_luxemburg_unit_ball(meshes):
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for mesh in meshes:
        for _ in range(100):
            p = build_exponent_field(1.5 + 2.5 * rng.random(mesh.n_elements), mesh)
            gf = GridFunction(
                mesh, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh.n_vertices)
            )
            u = centroid_values(gf)
            nrm = luxemburg_norm(u, p, mesh)
            worst = max(worst, abs(modular(u / nrm, p, mesh) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 Luxemburg unit-ball (worst {worst:.2e}, {elapsed:.2f}s): PASS")


def test_acceptance_2_constant_exponent_closed_form(meshes):
    rng = np.random.default_rng(200)
    for mesh in meshes:
        for _ in range(50):
            p_const = rng.uniform(1.5, 4.0)
            p = constant_exponent(p_const, mesh)
            gf = GridFunction(
                mesh, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh.n_vertices)
            )
            u = centroid_values(gf)
            closed = modular(u, p, mesh) ** (1.0 / p_const)
            assert luxemburg_norm(u, p, mesh) == pytest.approx(closed, rel=1e-10)
    print("\nACCEPTANCE 2 constant-exponent closed form (rel 1e-10): PASS")


def test_acceptance_3_norm_modular_relations_and_holder(meshes):
    from pxkirchhoff import check_modular_norm_relations

    rng = np.random.default_rng(300)
    line, square = meshes
    violations = 0
    for i in range(500):
        mesh = line if i % 2 == 0 else square
        p = build_exponent_field(1.5 + 2.5 * rng.random(mesh.n_elements), mesh)
        u = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh.n_elements)
        report = check_modular_norm_relations(u, p, mesh)
        violations += len(report.violations)
        # independent recomputation of the modular backing the report
        q_direct = float(
            np.dot(np.abs(u) ** p.values, mesh.element_measures)
        )
        assert report.modular == pytest.approx(q_direct, rel=1e-12)
    assert violations == 0

    for i in range(100):
        mesh = line if i % 2 == 0 else square
        p = build_exponent_field(1.5 + 2.5 * rng.random(mesh.n_elements), mesh)
        u = 5.0 * rng.standard_normal(mesh.n_elements)
        v = 5.0 * rng.standard_normal(mesh.n_elements)
        pairing, bound = holder_pairing(u, v, p, mesh)
        assert abs(pairing) <= bound * (1.0 + 1e-12)
    print("\nACCEPTANCE 3 power inequalities (0 violations in 500) and Holder bound (100 pairs): PASS")


def test_acceptance_4_gradient_fidelity(meshes):
    start = time.perf_counter()
    line, square = meshes
    cases = []
    for mesh in (line, square):
        x = mesh.element_centroids[:, 0]
        for p in (constant_exponent(2.0, mesh), build_exponent_field(2.0 + x, mesh)):
            for lam in (0.0, 0.8, -1.3):
                q = constant_exponent(5.2, mesh)
                spec = NonlinearitySpec("pure_power", q, theta=2.2)
                cases.append(KirchhoffProblem(1.0, 0.1, lam, p, spec, mesh))

    rng = np.random.default_rng(400)
    worst = 0.0
    checked = 0
    while checked < 50:
        prob = cases[checked % len(cases)]
        mesh = prob.mesh
        u = GridFunction(mesh, rng.standard_normal(mesh.n_vertices))
        v = rng.standard_normal(mesh.n_vertices)
        v[mesh.boundary_mask] = 0.0

        def J(nodal):
            return energy_J(GridFunction(mesh, nodal), prob)

        fd = central_difference(J, u.nodal_values, v, h=1e-5)
        exact = float(np.dot(gradient_J(u, prob).nodal_values, v))
        rel = abs(fd - exact) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 gradient fidelity (50 pairs, worst rel {worst:.2e}, {elapsed:.2f}s): PASS")


def test_acceptance_5_rayleigh_oracle():
    lam1 = rayleigh_quotient_min(
        constant_exponent(2.0, build_interval_mesh(200, 0.0, 1.0)),
        build_interval_mesh(200, 0.0, 1.0), seed=0,
    ).value
    oracle1 = fd_ground_eigenvalue(200, 1.0)
    assert oracle1 == pytest.approx(np.pi**2, rel=1e-3)
    assert lam1 == pytest.approx(np.pi**2, rel=0.01)

    mesh2 = build_interval_mesh(200, 0.0, 2.0)
    lam2 = rayleigh_quotient_min(constant_exponent(2.0, mesh2), mesh2, seed=0).value
    oracle2 = fd_ground_eigenvalue(200, 2.0)
    assert oracle2 == pytest.approx(np.pi**2 / 4.0, rel=1e-3)
    assert lam2 == pytest.approx(np.pi**2 / 4.0, rel=0.01)
    print(f"\nACCEPTANCE 5 Rayleigh oracle (pi^2: {lam1:.4f}, pi^2/4: {lam2:.4f}): PASS")


def test_acceptance_6_model_mountain_pass(model_run):
    start = time.perf_counter()
    prob, _, report = model_run
    assert report.residual_norm <= 1e-6
    assert 0.0 < report.energy < 5.0
    assert report.nonlocal_coefficient > 0.0
    assert report.below_ps_ceiling

    fn = make_residual_1d(prob)
    starts = []
    x = prob.mesh.vertices[:, 0]
    for t in (3.0, 4.0, 5.0):
        starts.append((t * np.sin(np.pi * x))[1:-1])
    roots = deflated_roots_1d(fn, starts, tol=1e-11)
    assert roots, "oracle enumeration found no roots"
    interior = report.solution.nodal_values[1:-1]
    sup = min(
        min(np.max(np.abs(interior - r)), np.max(np.abs(interior + r)))
        for r in roots
    )
    elapsed = time.perf_counter() - start
    assert sup <= 1e-4
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 model solve (c={report.energy:.6f}, res={report.residual_norm:.2e}, "
        f"K={report.nonlocal_coefficient:.4f}, oracle sup {sup:.2e}, {elapsed:.1f}s): PASS"
    )


def test_acceptance_7_quadratic_ceiling_along_trajectories(model_run, multiplicity_run):
    prob, _, report = model_run
    mprob, mreports = multiplicity_run
    checked = 0
    for pb, reps in ((prob, [report]), (mprob, list(mreports))):
        ceiling = pb.ps_ceiling
        for rep in reps:
            for _, _, _, A, _ in rep.iteration_trace:
                assert pb.a * A - 0.5 * pb.b * A * A <= ceiling + 1e-12
                checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE 7 quadratic-part ceiling ({checked} iterates): PASS")


def test_acceptance_8_symmetry_and_multiplicity(model_run, multiplicity_run):
    start = time.perf_counter()
    prob, geo, report = model_run
    minus = mountain_pass_solve(
        prob, GridFunction(prob.mesh, -geo.negative_point.nodal_values),
        tol=1e-6,
    )
    assert abs(minus.energy - report.energy) <= 1e-8

    mprob, reports = multiplicity_run
    assert len(reports) >= 2
    energies = [r.energy for r in reports]
    assert all(b - a > 1e-6 for a, b in zip(energies, energies[1:]))

    # cross-validate every orbit with the independent Newton oracle
    fn = make_residual_1d(mprob)
    polished = []
    for rep in reports:
        interior = rep.solution.nodal_values[1:-1]
        root, ok = newton_1d(fn, interior.copy(), tol=1e-12)
        assert ok
        assert np.max(np.abs(root - interior)) <= 1e-4
        polished.append(root)
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            dist = min(
                np.max(np.abs(polished[i] - polished[j])),
                np.max(np.abs(polished[i] + polished[j])),
            )
            assert dist > 1e-3

    # the deflated enumeration reaches the same orbits from its own starts
    x = mprob.mesh.vertices[:, 0]
    starts = []
    for t in (2.0, 4.0, 6.0):
        starts.append((t * np.sin(np.pi * x))[1:-1])
        starts.append((t * np.sin(2.0 * np.pi * x))[1:-1])
        starts.append((t * np.sin(3.0 * np.pi * x))[1:-1])
        starts.append((t * np.sin(4.0 * np.pi * x))[1:-1])
    oracle_roots = deflated_roots_1d(fn, starts, tol=1e-11)
    for root in polished:
        assert any(
            min(np.max(np.abs(root - r)), np.max(np.abs(root + r))) <= 1e-6
            for r in oracle_roots
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 8 symmetry/multiplicity ({len(reports)} orbits, "
        f"energies {', '.join(f'{e:.5f}' for e in energies)}, {elapsed:.1f}s): PASS"
    )


def test_acceptance_9_geometry_verification(model_run):
    prob, geo, _ = model_run
    assert geo.rho > 0.0
    assert geo.alpha > 0.0
    assert geo.negative_energy < 0.0
    assert sobolev_norm(geo.negative_point, prob.p) > geo.rho

    lam_hat = rayleigh_quotient_min(prob.p, prob.mesh, seed=0).value
    mesh = prob.mesh
    raised = KirchhoffProblem(
        prob.a, prob.b, 1.05 * prob.a * lam_hat, prob.p,
        NonlinearitySpec("pure_power", constant_exponent(4.5, mesh), theta=3.2),
        mesh,
    )
    with pytest.raises(GeometryNotFound):
        verify_mountain_geometry(raised, RHO_GRID, 20, seed=0)
    print(
        f"\nACCEPTANCE 9 geometry (rho={geo.rho:g}, alpha={geo.alpha:.4f}, "
        f"lambda flip at {1.05 * lam_hat:.3f}): PASS"
    )
