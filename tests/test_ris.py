import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risbeam as rb
from risbeam.geometry import CoverSet

BROADSIDE = rb.SolidAngle(0.0, 0.0)


def random_beamformer(rng, m_v, m_h):
    size = m_v * m_h
    return rb.Beamformer.normalized(
        rng.standard_normal(size) + 1j * rng.standard_normal(size), m_v, m_h)


def random_angle(rng):
    return rb.SolidAngle(rng.uniform(-math.pi / 2, math.pi / 2),
                         rng.uniform(-math.pi, math.pi))


def test_uniform_feed_broadside_gives_unit_amplitudes():
    geom = rb.ArrayGeometry(4, 4)
    c = rb.Beamformer(np.ones(16, dtype=complex) / 4.0, 4, 4)
    config = rb.ris_from_beamformer(c, BROADSIDE, geom)
    assert np.allclose(config.betas, 1.0, atol=1e-12)
    assert np.allclose(config.thetas, 0.0, atol=1e-12)


def test_strongest_element_always_reflects_fully():
    rng = np.random.default_rng(17)
    geom = rb.ArrayGeometry(5, 3)
    for _ in range(20):
        config = rb.ris_from_beamformer(random_beamformer(rng, 5, 3),
                                        random_angle(rng), geom)
        assert config.betas.max() == pytest.approx(1.0, abs=1e-12)
        assert config.betas.min() >= 0.0


def test_reflection_matches_feed_gain():
    rng = np.random.default_rng(31)
    geom = rb.ArrayGeometry(6, 5)
    for _ in range(100):
        c = random_beamformer(rng, 6, 5)
        omega_1, omega_2 = random_angle(rng), random_angle(rng)
        config = rb.ris_from_beamformer(c, omega_1, geom)
        gamma = rb.effective_gain(config, omega_2)
        scale = 1.0 / np.max(np.abs(c.entries))
        expected = scale ** 2 * rb.gain(c, rb.to_psi(omega_2, geom))
        assert abs(gamma) ** 2 == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(m_v=st.integers(1, 12), m_h=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_reflection_coefficient_matches_direct_sum(m_v, m_h, seed):
    """At any incidence omega_1, not only the designed one, the reflection is
    sum beta * e^{j theta} * e^{j m.(psi_1 - psi_2)}; at the designed
    incidence it is the feed's own field d(psi_2)^H c / max|c|, phase included."""
    rng = np.random.default_rng(seed)
    geom = rb.ArrayGeometry(m_v, m_h)
    c = random_beamformer(rng, m_v, m_h)
    config = rb.ris_from_beamformer(c, random_angle(rng), geom)
    omega_1, omega_2 = random_angle(rng), random_angle(rng)
    psi_1, psi_2 = rb.to_psi(omega_1, geom), rb.to_psi(omega_2, geom)
    cells = [(i, k) for i in range(m_v) for k in range(m_h)]
    want = sum(config.betas[i, k] * cmath.exp(1j * config.thetas[i, k])
               * cmath.exp(1j * (i * (psi_1.xi - psi_2.xi) + k * (psi_1.zeta - psi_2.zeta)))
               for i, k in cells)
    got = rb.ris.reflection_coefficient(config, omega_1, omega_2)
    assert abs(got - want) <= 1e-12 * geom.m
    feed = c.as_grid() / np.max(np.abs(c.entries))
    want = sum(feed[i, k] * cmath.exp(-1j * (i * psi_2.xi + k * psi_2.zeta))
               for i, k in cells)
    assert abs(rb.effective_gain(config, omega_2) - want) <= 1e-12 * geom.m


def test_incident_angle_changes_phases_only():
    rng = np.random.default_rng(37)
    geom = rb.ArrayGeometry(4, 6)
    c = random_beamformer(rng, 4, 6)
    targets = [random_angle(rng) for _ in range(25)]
    surfaces = [rb.ris_from_beamformer(c, random_angle(rng), geom)
                for _ in range(3)]
    reference = [abs(rb.effective_gain(surfaces[0], t)) ** 2 for t in targets]
    for config in surfaces[1:]:
        for t, ref in zip(targets, reference):
            assert abs(rb.effective_gain(config, t)) ** 2 == \
                pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_unit_modulus_projection_identity_for_steering():
    geom = rb.ArrayGeometry(4, 4)
    c = rb.Beamformer.steering(geom, rb.PsiPoint(0.8, -0.4))
    config = rb.ris_from_beamformer(c, BROADSIDE, geom)
    projected = rb.unit_modulus_project(config)
    assert np.allclose(projected.betas, config.betas, atol=1e-12)
    assert np.array_equal(projected.thetas, config.thetas)


def test_unit_modulus_projection_keeps_phases():
    rng = np.random.default_rng(41)
    geom = rb.ArrayGeometry(5, 5)
    config = rb.ris_from_beamformer(random_beamformer(rng, 5, 5), BROADSIDE, geom)
    projected = rb.unit_modulus_project(config)
    assert np.all(projected.betas == 1.0)
    assert np.array_equal(projected.thetas, config.thetas)


def test_unit_modulus_fallback_contract():
    geom = rb.ArrayGeometry(12, 16)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    grid = rb.make_grid(8, 8, xi_b, zeta_b)
    cells = frozenset({(2, 3), (2, 4), (6, 6)})
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    design = rb.design_closed_form(cover, grid, geom, rb.centered_eta(grid, geom))
    config = rb.ris_from_beamformer(design.beamformer, rb.SolidAngle(0.2, -0.4),
                                    geom)
    betas, thetas = config.betas.copy(), config.thetas.copy()
    first = rb.unit_modulus_fallback(config, cover, grid)
    second = rb.unit_modulus_fallback(config, cover, grid)
    assert np.all(first.betas == 1.0)
    assert (first.incident, first.geom) == (config.incident, config.geom)
    assert np.array_equal(config.betas, betas)
    assert np.array_equal(config.thetas, thetas)
    assert first.thetas.tobytes() == second.thetas.tobytes()
    projected = rb.unit_modulus_project(config)
    assert np.array_equal(projected.thetas, thetas)
    assert not np.allclose(first.thetas, projected.thetas)


def test_single_element_surface_reflects_everything():
    geom = rb.ArrayGeometry(1, 1)
    config = rb.RisConfig(betas=np.ones((1, 1)), thetas=np.zeros((1, 1)),
                          incident=BROADSIDE, geom=geom)
    rng = np.random.default_rng(43)
    for _ in range(10):
        assert rb.effective_gain(config, random_angle(rng)) == \
            pytest.approx(1.0, abs=1e-12)


def test_steering_feed_reaches_full_aperture_gain():
    geom = rb.ArrayGeometry(4, 4)
    target = rb.SolidAngle(0.3, -0.6)
    c = rb.Beamformer.steering(geom, rb.to_psi(target, geom))
    config = rb.ris_from_beamformer(c, random_angle(np.random.default_rng(1)), geom)
    scale = 1.0 / np.max(np.abs(c.entries))  # sqrt(M) for a steering feed
    gamma = rb.effective_gain(config, target)
    assert abs(gamma) ** 2 == pytest.approx(scale ** 2 * geom.m, rel=1e-10)
    assert abs(gamma) ** 2 == pytest.approx(geom.m ** 2, rel=1e-10)


def test_cascade_scalar_case():
    geom = rb.ArrayGeometry(3, 3)
    rng = np.random.default_rng(47)
    c = random_beamformer(rng, 3, 3)
    scene = rb.LinkScene(omega_t=random_angle(rng), omega_1=random_angle(rng),
                         omega_2=random_angle(rng), omega_r=random_angle(rng))
    config = rb.ris_from_beamformer(c, scene.omega_1, geom)
    h = rb.cascaded_channel(scene, config)
    assert h.shape == (1, 1)
    gamma = rb.ris.reflection_coefficient(config, scene.omega_1, scene.omega_2)
    assert h[0, 0] == pytest.approx(gamma, rel=1e-12)


def test_cascade_is_rank_one():
    geom = rb.ArrayGeometry(4, 4)
    rng = np.random.default_rng(53)
    for _ in range(10):
        scene = rb.LinkScene(omega_t=random_angle(rng), omega_1=random_angle(rng),
                             omega_2=random_angle(rng), omega_r=random_angle(rng),
                             rho_t=rng.standard_normal() + 1j * rng.standard_normal(),
                             rho_r=rng.standard_normal() + 1j * rng.standard_normal(),
                             m_t=5, m_r=3)
        config = rb.ris_from_beamformer(random_beamformer(rng, 4, 4),
                                        scene.omega_1, geom)
        h = rb.cascaded_channel(scene, config)
        singular = np.linalg.svd(h, compute_uv=False)
        assert singular[1] <= 1e-10 * singular[0]


def test_cascade_frobenius_norm():
    geom = rb.ArrayGeometry(4, 4)
    rng = np.random.default_rng(59)
    scene = rb.LinkScene(omega_t=random_angle(rng), omega_1=random_angle(rng),
                         omega_2=random_angle(rng), omega_r=random_angle(rng),
                         rho_t=1.5, rho_r=-0.25j, m_t=6, m_r=2)
    config = rb.ris_from_beamformer(random_beamformer(rng, 4, 4),
                                    scene.omega_1, geom)
    h = rb.cascaded_channel(scene, config)
    gamma = rb.ris.reflection_coefficient(config, scene.omega_1, scene.omega_2)
    expected = abs(1.5 * (-0.25j) * gamma) * math.sqrt(6 * 2)
    assert np.linalg.norm(h) == pytest.approx(expected, rel=1e-12)


def make_unit_link(rng):
    geom = rb.ArrayGeometry(2, 2)
    scene = rb.LinkScene(omega_t=BROADSIDE, omega_1=BROADSIDE,
                         omega_2=BROADSIDE, omega_r=BROADSIDE, m_t=4, m_r=1)
    c = rb.Beamformer(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
    return scene, rb.ris_from_beamformer(c, scene.omega_1, geom)


def test_snr_zero_db_reference():
    scene, config = make_unit_link(np.random.default_rng(0))
    h = rb.cascaded_channel(scene, config)
    fro2 = np.sum(np.abs(h) ** 2)
    snr = rb.received_snr(scene, config, tx_power=1.0, noise_var=fro2 / scene.m_t)
    assert snr == pytest.approx(0.0, abs=1e-9)


def test_snr_power_scaling():
    scene, config = make_unit_link(np.random.default_rng(0))
    base = rb.received_snr(scene, config, tx_power=1.0, noise_var=1e-6)
    assert rb.received_snr(scene, config, 2.0, 1e-6) - base == \
        pytest.approx(10 * math.log10(2), abs=1e-12)


def test_snr_path_gain_scaling():
    rng = np.random.default_rng(61)
    geom = rb.ArrayGeometry(3, 3)
    scene = rb.LinkScene(omega_t=random_angle(rng), omega_1=random_angle(rng),
                         omega_2=random_angle(rng), omega_r=random_angle(rng),
                         rho_r=1.0, m_t=2, m_r=2)
    config = rb.ris_from_beamformer(random_beamformer(rng, 3, 3),
                                    scene.omega_1, geom)
    louder = rb.LinkScene(omega_t=scene.omega_t, omega_1=scene.omega_1,
                          omega_2=scene.omega_2, omega_r=scene.omega_r,
                          rho_r=10.0, m_t=2, m_r=2)
    delta = rb.received_snr(louder, config, 1.0, 1e-6) - \
        rb.received_snr(scene, config, 1.0, 1e-6)
    assert delta == pytest.approx(20.0, abs=1e-9)


def test_snr_rejects_non_positive_power():
    scene, config = make_unit_link(np.random.default_rng(0))
    with pytest.raises(ValueError):
        rb.received_snr(scene, config, 0.0, 1.0)
    with pytest.raises(ValueError):
        rb.received_snr(scene, config, 1.0, -2.0)


def test_config_validation():
    geom = rb.ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        rb.RisConfig(betas=np.full((2, 2), 1.5), thetas=np.zeros((2, 2)),
                     incident=BROADSIDE, geom=geom)
    with pytest.raises(ValueError):
        rb.RisConfig(betas=np.ones((3, 2)), thetas=np.zeros((3, 2)),
                     incident=BROADSIDE, geom=geom)
    with pytest.raises(ValueError):
        rb.LinkScene(omega_t=BROADSIDE, omega_1=BROADSIDE, omega_2=BROADSIDE,
                     omega_r=BROADSIDE, m_t=0)


def test_geometry_mismatch_rejected():
    c = rb.Beamformer(np.ones(4, dtype=complex) / 2.0, 2, 2)
    with pytest.raises(ValueError):
        rb.ris_from_beamformer(c, BROADSIDE, rb.ArrayGeometry(4, 4))
