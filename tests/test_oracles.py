"""Cross-checks of the synthesis paths against independent reconstructions."""

import math

import numpy as np
import pytest

import risbeam as rb
from risbeam.design import approx_ls_scale, closed_form_vector
from risbeam.geometry import CoverSet
from risbeam.svgplot import GENERATOR_COMMENT, heatmap_svg

TWO_PI = 2 * math.pi


def cover_of(*cells):
    fs = frozenset(cells)
    return CoverSet(indices=fs, per_lobe=(fs,))


def test_closed_form_entry_matches_dense_quadrature():
    """Each entry is a per-cell phase times two 1D oscillatory integrals.

    Reconstructs entries by trapezoidal quadrature of exp(j*x*u) over the
    unit interval instead of the sinc expression, pinning the phase and
    sinc conventions.
    """
    geom = rb.ArrayGeometry(5, 4)
    grid = rb.make_grid(6, 6, 1.9, 2.6)
    cover = cover_of((2, 3), (5, 6))
    params = rb.EqualGainParams(eta_v=-1.3, eta_h=0.7)
    vec = closed_form_vector(cover, grid, geom, params)

    u = np.linspace(0.0, 1.0, 20_001)
    for m_v in range(geom.m_v):
        for m_h in range(geom.m_h):
            expected = 0.0 + 0.0j
            for p, q in cover.sorted():
                x_v = grid.delta_v * m_v + params.eta_v
                x_h = grid.delta_h * m_h + params.eta_h
                int_v = np.trapezoid(np.exp(1j * x_v * u), u)
                int_h = np.trapezoid(np.exp(1j * x_h * u), u)
                phase = np.exp(1j * (m_v * grid.xi_edge(p - 1)
                                     + m_h * grid.zeta_edge(q - 1)))
                expected += (TWO_PI / grid.q) * phase * int_v * int_h
            assert vec[m_v * geom.m_h + m_h] == pytest.approx(expected, abs=1e-8)


def test_finite_l_matches_weighted_steering_sum():
    """The approximate path is sigma times the equal-gain-weighted sum of
    sampled steering vectors; rebuild it from the public pieces."""
    geom = rb.ArrayGeometry(4, 5)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    grid = rb.make_grid(4, 4, xi_b, zeta_b)
    cover = cover_of((1, 2), (3, 4), (4, 1))
    params = rb.EqualGainParams(eta_v=0.9, eta_h=-2.1)
    l_v, l_h = 3, 2

    # The unit-modulus ramp exp(j*eta*l/L) per axis, row-major over (l_v', l_h').
    g = np.kron(np.exp(1j * params.eta_v * np.arange(l_v) / l_v),
                np.exp(1j * params.eta_h * np.arange(l_h) / l_h))
    sigma = approx_ls_scale(l_v * l_h, grid.q, grid.delta_v, grid.delta_h,
                            cover.size)
    expected = np.zeros(geom.m, dtype=complex)
    for p, q in cover.sorted():
        for i_v in range(l_v):
            for i_h in range(l_h):
                point = rb.PsiPoint(
                    grid.xi_edge(p - 1) + (i_v + 1) * grid.delta_v / l_v,
                    grid.zeta_edge(q - 1) + (i_h + 1) * grid.delta_h / l_h)
                expected += sigma * g[i_v * l_h + i_h] * rb.directivity(geom, point)
    expected /= np.linalg.norm(expected)

    result = rb.design_finite_l(cover, grid, geom, params, l_v=l_v, l_h=l_h)
    inner = np.vdot(expected, result.beamformer.entries)
    assert abs(inner) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(result.beamformer.entries * np.conj(inner) / abs(inner)
                         - expected)) < 1e-12


def test_effective_weights_proportional_to_feed():
    rng = np.random.default_rng(71)
    geom = rb.ArrayGeometry(4, 6)
    c = rb.Beamformer.normalized(
        rng.standard_normal(24) + 1j * rng.standard_normal(24), 4, 6)
    incident = rb.SolidAngle(0.4, -1.1)
    config = rb.ris_from_beamformer(c, incident, geom)
    weights = rb.effective_weight_vector(config)
    scale = 1.0 / np.max(np.abs(c.entries))
    assert np.max(np.abs(weights - scale * c.entries)) < 1e-12


def test_heatmap_svg_structure():
    gains_db = np.tile(np.linspace(-30.0, 0.0, 24), (16, 1))
    svg = heatmap_svg(gains_db, np.linspace(-1, 1, 16), np.linspace(-2, 2, 24),
                      title="structure probe")
    assert svg.startswith("<?xml")
    assert GENERATOR_COMMENT in svg
    assert svg.count("<rect") == 16 * 24 + 64 + 3  # cells, colorbar, frames
    assert "zeta [rad]" in svg and "xi [rad]" in svg
    assert "structure probe" in svg
    assert svg == heatmap_svg(gains_db, np.linspace(-1, 1, 16),
                              np.linspace(-2, 2, 24), title="structure probe")


def test_heatmap_svg_downsamples_large_grids():
    gains_db = np.zeros((600, 600))
    svg = heatmap_svg(gains_db, np.linspace(-3, 3, 600), np.linspace(-3, 3, 600))
    assert svg.count("<rect") <= 300 * 300 + 64 + 3
