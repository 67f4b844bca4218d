import dataclasses

import numpy as np
import pytest

from pxkirchhoff import (
    DomainError,
    GridFunction,
    MaxIterations,
    build_exponent_field,
    build_interval_mesh,
    build_rect_mesh,
    centroid_values,
    check_modular_norm_relations,
    constant_exponent,
    holder_pairing,
    luxemburg_norm,
    modular,
    sobolev_norm,
)
from pxkirchhoff import modular_spaces
from oracles import luxemburg_bisection, luxemburg_constant_u_affine_p


@pytest.fixture
def line():
    return build_interval_mesh(100, 0.0, 1.0)


def random_exponents(mesh, rng, lo=1.5, hi=4.0):
    return build_exponent_field(lo + (hi - lo) * rng.random(mesh.n_elements), mesh)


def tent_on(mesh):
    x = mesh.vertices[:, 0]
    return GridFunction(mesh, 2.0 * np.minimum(x, 1.0 - x))


def test_modular_values(line):
    p2 = constant_exponent(2.0, line)
    assert modular(np.full(100, 2.0), p2, line) == pytest.approx(4.0, rel=1e-14)
    rng = np.random.default_rng(0)
    assert modular(np.ones(100), random_exponents(line, rng), line) == pytest.approx(
        1.0, rel=1e-14
    )
    assert modular(np.zeros(100), p2, line) == 0.0


def test_luxemburg_basic(line):
    p2 = constant_exponent(2.0, line)
    assert luxemburg_norm(np.zeros(100), p2, line) == 0.0
    assert luxemburg_norm(np.full(100, 2.0), p2, line) == pytest.approx(2.0, rel=1e-10)


def test_luxemburg_unit_function_affine_p(line):
    # the modular of u = 1 on a unit-measure domain is exactly 1 for any p
    p = build_exponent_field(2.0 + line.element_centroids[:, 0], line)
    assert luxemburg_norm(np.ones(100), p, line) == pytest.approx(1.0, rel=1e-10)
    # and u = 2 with p = 2 + x roots at exactly mu = 2 for the same reason
    assert luxemburg_norm(np.full(100, 2.0), p, line) == pytest.approx(2.0, rel=1e-10)


def test_luxemburg_variable_p_against_scalar_rootfind():
    # frozen from the closed-form oracle: root mu of
    # integral over (0, 0.7) of (3/mu)^(2+x) dx = 1
    mesh = build_interval_mesh(4000, 0.0, 0.7)
    p = build_exponent_field(2.0 + mesh.element_centroids[:, 0], mesh)
    oracle = luxemburg_constant_u_affine_p(3.0, 2.0, 1.0, 0.7)
    assert oracle == pytest.approx(2.5780551803138074, rel=1e-10)
    value = luxemburg_norm(np.full(4000, 3.0), p, mesh)
    assert value == pytest.approx(oracle, rel=1e-6)


def _random_norm_case(rng, meshes):
    """Samples and a variable exponent on one of ``meshes``: p- in
    (1.05, 4), a spread of up to 4, magnitudes from 1e-8 to 1e8, and every
    third case mostly zero."""
    mesh = meshes[rng.integers(len(meshes))]
    n = mesh.n_elements
    p = build_exponent_field(
        rng.uniform(1.05, 4.0) + rng.uniform(0.0, 4.0) * rng.random(n), mesh)
    u = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
    if rng.random() < 1.0 / 3.0:
        u[rng.random(n) < 0.9] = 0.0
        u[rng.integers(n)] = 10.0 ** rng.uniform(-8.0, 8.0)
    return u, p, mesh


def test_luxemburg_newton_matches_bisection_oracle(monkeypatch):
    # at most 6 Newton steps per norm; a slower root finder raises
    monkeypatch.setattr(modular_spaces, "_NEWTON_CAP", 6)
    meshes = [build_interval_mesh(2, 0.0, 1.0), build_interval_mesh(7, 0.0, 0.3),
              build_interval_mesh(400, 0.0, 5.0),
              build_rect_mesh(6, 4, ((0.0, 0.0), (2.0, 1.0)))]
    rng = np.random.default_rng(2001)
    for _ in range(600):
        u, p, mesh = _random_norm_case(rng, meshes)
        oracle = luxemburg_bisection(u, p.values, mesh.element_measures, rel_tol=1e-15)
        assert luxemburg_norm(u, p, mesh) == pytest.approx(oracle, rel=1e-12)


def test_luxemburg_constant_p_closed_form():
    mesh = build_rect_mesh(5, 3, ((0.0, 0.0), (1.5, 1.0)))
    rng = np.random.default_rng(2002)
    for _ in range(200):
        pc = rng.uniform(1.05, 8.0)
        u = rng.standard_normal(mesh.n_elements) * 10.0 ** rng.uniform(-8.0, 8.0)
        closed = np.dot(np.abs(u) ** pc, mesh.element_measures) ** (1.0 / pc)
        value = luxemburg_norm(u, constant_exponent(pc, mesh), mesh)
        assert value == pytest.approx(closed, rel=1e-14)


def test_luxemburg_newton_cap_raises(line, monkeypatch):
    monkeypatch.setattr(modular_spaces, "_NEWTON_CAP", 1)
    p = build_exponent_field(1.5 + 3.0 * line.element_centroids[:, 0], line)
    u = np.linspace(0.01, 3.0, 100)
    with pytest.raises(MaxIterations, match="Luxemburg norm"):
        luxemburg_norm(u, p, line)


def test_holder_equality_case(line):
    p2 = constant_exponent(2.0, line)
    pairing, bound = holder_pairing(np.ones(100), np.ones(100), p2, line)
    assert pairing == pytest.approx(1.0, rel=1e-12)
    assert bound == pytest.approx(1.0, rel=1e-9)

    pairing, bound = holder_pairing(np.zeros(100), np.ones(100), p2, line)
    assert pairing == 0.0 and bound == 0.0


@pytest.mark.parametrize(
    "mesh",
    [build_interval_mesh(60, 0.0, 1.0), build_rect_mesh(6, 6, ((0.0, 0.0), (1.0, 1.0)))],
)
def test_holder_bound_random(mesh):
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = random_exponents(mesh, rng)
        u = 3.0 * rng.standard_normal(mesh.n_elements)
        v = 3.0 * rng.standard_normal(mesh.n_elements)
        pairing, bound = holder_pairing(u, v, p, mesh)
        assert abs(pairing) <= bound * (1.0 + 1e-12)


def test_sobolev_norm_tent(line):
    tent = tent_on(line)
    assert sobolev_norm(tent, constant_exponent(2.0, line)) == pytest.approx(2.0, rel=1e-10)
    assert sobolev_norm(tent, constant_exponent(3.0, line)) == pytest.approx(2.0, rel=1e-10)
    zero = GridFunction(line, np.zeros(101))
    assert sobolev_norm(zero, constant_exponent(2.0, line)) == 0.0


def test_sobolev_rejects_nonzero_trace(line):
    # a grid function cannot acquire a nonzero trace after construction:
    # its values are read-only and the instance is frozen
    u = tent_on(line)
    with pytest.raises(ValueError):
        u.nodal_values[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.nodal_values = np.full(101, 0.5)
    assert u.nodal_values[0] == 0.0
    assert sobolev_norm(u, constant_exponent(2.0, line)) == pytest.approx(2.0, rel=1e-10)


def test_relations_equality_cases(line):
    p2 = constant_exponent(2.0, line)
    rep = check_modular_norm_relations(np.full(100, 2.0), p2, line)
    assert rep.ok and rep.norm == pytest.approx(2.0, rel=1e-10)
    assert rep.modular == pytest.approx(4.0, rel=1e-12)

    rep1 = check_modular_norm_relations(np.ones(100), p2, line)
    assert rep1.ok
    assert rep1.norm == pytest.approx(1.0, abs=1e-9)
    assert rep1.modular == pytest.approx(1.0, abs=1e-12)


def test_unit_ball_property(line):
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = random_exponents(line, rng)
        u = 5.0 * rng.standard_normal(100)
        nrm = luxemburg_norm(u, p, line)
        assert abs(modular(u / nrm, p, line) - 1.0) <= 1e-8


def test_absolute_homogeneity(line):
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = random_exponents(line, rng)
        u = rng.standard_normal(100)
        c = rng.uniform(-10.0, 10.0)
        if abs(c) < 1e-3:
            continue
        assert luxemburg_norm(c * u, p, line) == pytest.approx(
            abs(c) * luxemburg_norm(u, p, line), rel=1e-10
        )


def test_triangle_inequality(line):
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_exponents(line, rng)
        u = rng.standard_normal(100)
        v = rng.standard_normal(100)
        lhs = luxemburg_norm(u + v, p, line)
        rhs = luxemburg_norm(u, p, line) + luxemburg_norm(v, p, line)
        assert lhs <= rhs + 1e-10


def test_vanishing_sequence_monotone(line):
    rng = np.random.default_rng(4)
    p = random_exponents(line, rng)
    u = 1.0 + rng.random(100)
    norms = [luxemburg_norm(u / n, p, line) for n in range(1, 21)]
    mods = [modular(u / n, p, line) for n in range(1, 21)]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(a > b for a, b in zip(mods, mods[1:]))
    assert norms[-1] < 0.1 * norms[0]
    assert mods[-1] < 1e-2 * mods[0]


def test_modular_zero_iff_zero(line):
    rng = np.random.default_rng(5)
    p = random_exponents(line, rng)
    u = np.zeros(100)
    assert modular(u, p, line) == 0.0
    u[57] = 1e-6
    assert modular(u, p, line) > 0.0


def test_poincare_ratio_stable(line):
    p = constant_exponent(2.0, line)

    def max_ratio(seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            u = GridFunction(line, rng.standard_normal(101))
            s = sobolev_norm(u, p)
            worst = max(worst, luxemburg_norm(centroid_values(u), p, line) / s)
        return worst

    r1, r2 = max_ratio(10), max_ratio(11)
    assert np.isfinite(r1) and np.isfinite(r2)
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def test_embedding_ratio_bounded(line):
    # empirical probe of the L^{q(x)} embedding on a fixed mesh
    rng = np.random.default_rng(12)
    p = constant_exponent(2.0, line)
    q = build_exponent_field(4.2 + 0.6 * rng.random(100), line)
    ratios = []
    for _ in range(100):
        u = GridFunction(line, rng.standard_normal(101))
        ratios.append(
            luxemburg_norm(centroid_values(u), q, line) / sobolev_norm(u, p)
        )
    assert max(ratios) < 10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(line, bad):
    p = constant_exponent(2.0, line)
    samples = np.ones(100)
    samples[17] = bad
    with pytest.raises(DomainError, match="finite"):
        modular(samples, p, line)
    with pytest.raises(DomainError, match="finite"):
        luxemburg_norm(samples, p, line)
    with pytest.raises(DomainError, match="finite"):
        holder_pairing(np.ones(100), samples, p, line)


def test_modular_overflow_rejected(line):
    # every sample is finite, but |u|^2 = 1e400 is not; the norm itself is
    p = constant_exponent(2.0, line)
    samples = np.full(100, 1e200)
    with pytest.raises(DomainError, match="overflow"):
        modular(samples, p, line)
    assert luxemburg_norm(samples, p, line) == pytest.approx(1e200, rel=1e-9)
