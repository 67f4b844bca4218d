import numpy as np
import pytest

from pxkirchhoff import (
    DomainError,
    ShapeError,
    build_exponent_field,
    build_interval_mesh,
    constant_exponent,
    critical_exponent,
    default_theta,
    validate_problem_exponents,
)


@pytest.fixture
def mesh10():
    return build_interval_mesh(10, 0.0, 1.0)


def test_constant_field(mesh10):
    f = build_exponent_field(np.full(10, 2.0), mesh10)
    assert f.lo == f.hi == 2.0


def test_min_max_cached():
    mesh = build_interval_mesh(3, 0.0, 1.0)
    f = build_exponent_field([2.0, 2.5, 3.0], mesh)
    assert f.lo == 2.0 and f.hi == 3.0


def test_exponent_must_exceed_one(mesh10):
    samples = np.full(10, 2.0)
    samples[3] = 0.9
    with pytest.raises(DomainError):
        build_exponent_field(samples, mesh10)
    with pytest.raises(DomainError):
        build_exponent_field(np.full(10, 1.0), mesh10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exponent_must_be_finite(mesh10, bad):
    with pytest.raises(DomainError, match="finite"):
        build_exponent_field(np.full(10, bad), mesh10)
    samples = np.full(10, 2.0)
    samples[4] = bad
    with pytest.raises(DomainError, match="finite"):
        build_exponent_field(samples, mesh10)


def test_length_mismatch(mesh10):
    with pytest.raises(ShapeError):
        build_exponent_field(np.full(7, 2.0), mesh10)


def test_critical_exponent_values(mesh10):
    assert np.allclose(critical_exponent(constant_exponent(2.0, mesh10), 3).values, 6.0)
    assert np.allclose(critical_exponent(constant_exponent(1.5, mesh10), 3).values, 3.0)
    with pytest.raises(DomainError):
        critical_exponent(constant_exponent(3.0, mesh10), 3)
    for dim in (0, -1):  # blamed on the dimension, not on the exponent
        with pytest.raises(DomainError, match=f"dimension must be at least 1, got {dim}"):
            critical_exponent(constant_exponent(2.0, mesh10), dim)


def test_critical_exponent_monotone(mesh10):
    rng = np.random.default_rng(3)
    samples = 1.5 + rng.random(10)
    base = critical_exponent(build_exponent_field(samples, mesh10), 4)
    for j in range(10):
        bumped = samples.copy()
        bumped[j] += 0.2
        star = critical_exponent(build_exponent_field(bumped, mesh10), 4)
        assert star.values[j] > base.values[j]
        mask = np.arange(10) != j
        assert np.allclose(star.values[mask], base.values[mask])


def test_chain_example_passes():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    p = build_exponent_field(np.linspace(2.0, 2.5, 20), mesh)
    q = build_exponent_field(np.linspace(4.6, 5.0, 20), mesh)
    report = validate_problem_exponents(p, q, 3)
    assert report.chain_ok
    assert report.failures == []
    assert report.theta_interval == pytest.approx((2.5, 3.2))


def test_chain_strict_inequality_fails(mesh10):
    report = validate_problem_exponents(
        constant_exponent(2.0, mesh10), constant_exponent(4.0, mesh10)
    )
    assert "2p- < q-" in report.failures
    assert not report.chain_ok


def test_boundary_p_equals_dimension_raises():
    mesh = build_interval_mesh(20, 0.0, 1.0)
    p = build_exponent_field(np.linspace(2.0, 3.0, 20), mesh)
    q = constant_exponent(7.0, mesh)
    with pytest.raises(DomainError):
        validate_problem_exponents(p, q, 3)
    # without an ambient dimension the empty theta interval is still flagged
    report = validate_problem_exponents(p, q)
    assert "theta interval empty" in report.failures
    assert report.theta_interval is None
    assert report.chain_ok  # 3 < 4 and 4 < 7 both hold


def test_theta_interval_iff_condition():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        samples = 1.2 + 2.0 * rng.random(10)
        p = build_exponent_field(samples, mesh)
        report = validate_problem_exponents(p, constant_exponent(9.9, mesh))
        assert (report.theta_interval is not None) == (p.hi**2 < 2.0 * p.lo**2)


def test_chain_ok_rescan():
    mesh = build_interval_mesh(30, 0.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(30):
        p_samples = 1.8 + 0.3 * rng.random(30)
        q_samples = 4.2 + 0.5 * rng.random(30)
        p = build_exponent_field(p_samples, mesh)
        q = build_exponent_field(q_samples, mesh)
        report = validate_problem_exponents(p, q, 30)
        if report.chain_ok:
            assert p.hi < 2.0 * p.lo < q.lo
            p_star = 30.0 * p_samples / (30.0 - p_samples)
            assert np.max(q_samples / p_star) < 1.0


def test_default_theta_admissible(mesh10):
    p = build_exponent_field(1.9 + 0.2 * np.random.default_rng(0).random(10), mesh10)
    q = constant_exponent(4.5, mesh10)
    theta = default_theta(p, q)
    assert p.hi < theta < 2.0 * p.lo**2 / p.hi
    assert theta <= q.lo
