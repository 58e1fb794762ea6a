import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risbeam as rb
from risbeam.arrays import gains_along, sample_gains


def test_axis_vector_single_element():
    assert np.array_equal(rb.directivity_axis(1, 1.234), np.array([1.0 + 0j]))


def test_axis_vector_zero_phase():
    assert np.allclose(rb.directivity_axis(4, 0.0), np.ones(4), atol=0)


def test_axis_vector_quarter_turn():
    v = rb.directivity_axis(3, math.pi / 2)
    assert np.allclose(v, [1.0, 1j, -1.0], atol=1e-15)


def test_directivity_single_element():
    geom = rb.ArrayGeometry(1, 1)
    assert np.array_equal(rb.directivity(geom, rb.PsiPoint(0.3, -0.7)),
                          np.array([1.0 + 0j]))


def test_directivity_broadside_all_ones():
    geom = rb.ArrayGeometry(3, 5)
    assert np.allclose(rb.directivity(geom, rb.PsiPoint(0.0, 0.0)),
                       np.ones(15), atol=0)


def test_directivity_kronecker_expansion():
    geom = rb.ArrayGeometry(2, 2)
    v = rb.directivity(geom, rb.PsiPoint(math.pi, math.pi / 2))
    assert np.allclose(v, [1.0, 1j, -1.0, -1j], atol=1e-15)


def test_directivity_matches_direction_cosine_form():
    geom = rb.ArrayGeometry(5, 7, d_x_over_lambda=0.4, d_z_over_lambda=0.6)
    rng = np.random.default_rng(5)
    for _ in range(50):
        angle = rb.SolidAngle(rng.uniform(-math.pi / 2, math.pi / 2),
                              rng.uniform(-math.pi, math.pi))
        via_psi = rb.directivity(geom, rb.to_psi(angle, geom))
        direct = rb.solid_angle_directivity(geom, angle)
        assert np.max(np.abs(via_psi - direct)) < 1e-10


def test_unit_magnitude_entries():
    geom = rb.ArrayGeometry(6, 6)
    v = rb.directivity(geom, rb.PsiPoint(1.1, -2.3))
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_steering_gain_equals_element_count():
    geom = rb.ArrayGeometry(4, 4)
    point = rb.PsiPoint(0.8, -0.2)
    c = rb.Beamformer.steering(geom, point)
    assert rb.gain(c, point) == pytest.approx(16.0, rel=1e-12)


def test_single_element_feed_is_flat():
    e0 = np.zeros(12, dtype=complex)
    e0[0] = 1.0
    c = rb.Beamformer(e0, 3, 4)
    for point in (rb.PsiPoint(0, 0), rb.PsiPoint(1.0, -2.0), rb.PsiPoint(3.1, 3.1)):
        assert rb.gain(c, point) == pytest.approx(1.0, rel=1e-12)


def test_gain_null_of_broadside_two_by_two():
    geom = rb.ArrayGeometry(2, 2)
    c = rb.Beamformer.steering(geom, rb.PsiPoint(0.0, 0.0))
    assert rb.gain(c, rb.PsiPoint(math.pi, math.pi)) == pytest.approx(0.0, abs=1e-12)


def test_beamformer_requires_unit_norm():
    with pytest.raises(ValueError):
        rb.Beamformer(np.ones(4, dtype=complex), 2, 2)
    with pytest.raises(ValueError):
        rb.Beamformer.normalized(np.zeros(4), 2, 2)


def test_pattern_corner_samples():
    geom = rb.ArrayGeometry(2, 3)
    c = rb.Beamformer.steering(geom, rb.PsiPoint(0.4, 0.9))
    pat = rb.sample_pattern(c, 2)
    for i, xi in enumerate((-math.pi, math.pi)):
        for j, zeta in enumerate((-math.pi, math.pi)):
            assert pat.gains[i, j] == pytest.approx(
                rb.gain(c, rb.PsiPoint(xi, zeta)), rel=1e-12)


def test_pattern_of_single_element_feed_is_one():
    e0 = np.zeros(9, dtype=complex)
    e0[0] = 1.0
    pat = rb.sample_pattern(rb.Beamformer(e0, 3, 3), 16)
    assert np.allclose(pat.gains, 1.0, atol=1e-12)


def test_pattern_peak_at_steer_point():
    geom = rb.ArrayGeometry(8, 8)
    target = rb.PsiPoint(0.8143, -1.3125)
    c = rb.Beamformer.steering(geom, target)
    pat = rb.sample_pattern(c, 512)
    i, j = np.unravel_index(np.argmax(pat.gains), pat.gains.shape)
    step = 2 * math.pi / 511
    assert abs(pat.xi_samples[i] - target.xi) <= step
    assert abs(pat.zeta_samples[j] - target.zeta) <= step
    assert pat.gains[i, j] <= 64.0 + 1e-9


def test_gain_integral_flat_feed_exact_even_coarse():
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    val = rb.gain_integral(rb.Beamformer(e0, 4, 4), quadrature_resolution=8)
    assert val == pytest.approx((2 * math.pi) ** 2, rel=1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 12), st.data())
def test_equal_weight_quadrature_is_parseval_for_any_weights(m_v, m_h, extra, data):
    # gain_integral's quadrature, without its unit-norm beamformer: equal
    # weights on n >= max(m_v, m_h) samples per axis integrate the gain of any
    # weight grid exactly, to (2*pi)^2 ||c||^2.
    parts = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * m_v * m_h,
                               max_size=2 * m_v * m_h))
    weights = (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(m_v, m_h)
    n = max(m_v, m_h) + extra
    samples = -math.pi + 2 * math.pi * np.arange(n) / n
    integral = sample_gains(weights, samples, samples).mean() * (2 * math.pi) ** 2
    assert integral == pytest.approx((2 * math.pi) ** 2 * np.sum(np.abs(weights) ** 2),
                                     rel=1e-9, abs=1e-12)


def test_gain_integral_random_feeds():
    rng = np.random.default_rng(9)
    for _ in range(5):
        c = rb.Beamformer.normalized(
            rng.standard_normal(64) + 1j * rng.standard_normal(64), 8, 8)
        val = rb.gain_integral(c, quadrature_resolution=512)
        assert val == pytest.approx((2 * math.pi) ** 2, rel=0.01)


def test_steering_reciprocity():
    geom = rb.ArrayGeometry(5, 4)
    rng = np.random.default_rng(21)
    for _ in range(20):
        p0 = rb.PsiPoint(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        p1 = rb.PsiPoint(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        g01 = rb.gain(rb.Beamformer.steering(geom, p0), p1)
        g10 = rb.gain(rb.Beamformer.steering(geom, p1), p0)
        assert g01 == pytest.approx(g10, rel=1e-10, abs=1e-12)


def test_separable_gain_factors():
    geom = rb.ArrayGeometry(4, 6)
    steer = rb.PsiPoint(0.3, -0.8)
    c = rb.Beamformer.steering(geom, steer)

    def dirichlet_sq(count, delta):
        acc = np.sum(np.exp(1j * delta * np.arange(count)))
        return abs(acc) ** 2

    rng = np.random.default_rng(2)
    for _ in range(30):
        point = rb.PsiPoint(rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi, math.pi))
        expected = dirichlet_sq(4, steer.xi - point.xi) * \
            dirichlet_sq(6, steer.zeta - point.zeta) / geom.m
        assert rb.gain(c, point) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_gain_bounded_by_element_count():
    rng = np.random.default_rng(8)
    geom = rb.ArrayGeometry(6, 7)
    for _ in range(10):
        c = rb.Beamformer.normalized(
            rng.standard_normal(42) + 1j * rng.standard_normal(42), 6, 7)
        for _ in range(20):
            point = rb.PsiPoint(rng.uniform(-math.pi, math.pi),
                                rng.uniform(-math.pi, math.pi))
            assert rb.gain(c, point) <= 42.0 + 1e-9


def test_gain_periodicity():
    geom = rb.ArrayGeometry(3, 3)
    rng = np.random.default_rng(13)
    c = rb.Beamformer.normalized(
        rng.standard_normal(9) + 1j * rng.standard_normal(9), 3, 3)
    for _ in range(20):
        point = rb.PsiPoint(rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi, math.pi))
        shifted = rb.PsiPoint(point.xi + 2 * math.pi, point.zeta - 2 * math.pi)
        assert rb.gain(c, point) == pytest.approx(rb.gain(c, shifted), rel=1e-10,
                                                  abs=1e-12)


def _direct_gain(weights, xi, zeta):
    """|d(xi, zeta)^H w|^2 summed element by element."""
    m_v, m_h = weights.shape
    field = sum(weights[i, k] * cmath.exp(-1j * (i * xi + k * zeta))
                for i in range(m_v) for k in range(m_h))
    return abs(field) ** 2


@settings(max_examples=60, deadline=None)
@given(m_v=st.integers(1, 12), m_h=st.integers(1, 12), n_xi=st.integers(1, 6),
       n_zeta=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_product_grid_and_curve_match_direct_sum(m_v, m_h, n_xi, n_zeta, seed):
    """sample_gains on a product grid, gains_along on its diagonal curve, and
    the element-by-element sum agree for any complex weights."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(m_v, m_h)) + 1j * rng.normal(size=(m_v, m_h))
    xi = rng.uniform(-2 * math.pi, 2 * math.pi, n_xi)
    zeta = rng.uniform(-2 * math.pi, 2 * math.pi, n_zeta)
    tol = 1e-12 * np.abs(weights).sum() ** 2
    want = np.array([[_direct_gain(weights, x, z) for z in zeta] for x in xi])
    grid = sample_gains(weights, xi, zeta)
    assert grid.shape == (n_xi, n_zeta)
    assert np.abs(grid - want).max() <= tol
    k = min(n_xi, n_zeta)
    curve = gains_along(weights, xi[:k], zeta[:k])
    assert curve.shape == (k,)
    assert np.abs(curve - np.diag(grid)).max() <= tol
    assert np.abs(curve - np.diag(want)).max() <= tol
