import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risbeam as rb
from risbeam.design import (REFINE_GUARD, REFINE_OVERSAMPLE, _axis_normal_matrix,
                            _axis_sample_points, approx_ls_scale, closed_form_vector,
                            cover_sum, fft_cover_masks)
from risbeam.geometry import CoverSet, EmptyCoverError, cover_mask
from risbeam.scenario import load_scenario

TWO_PI = 2 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_cell_cover(p, q):
    cells = frozenset({(p, q)})
    return CoverSet(indices=cells, per_lobe=(cells,))


@pytest.fixture(scope="module")
def small_grid():
    geom = rb.ArrayGeometry(8, 8)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    return geom, rb.make_grid(8, 8, xi_b, zeta_b)


def test_ideal_level_full_coverage():
    grid = rb.make_grid(4, 4, 1.5, 2.5)
    cells = frozenset((p, q) for p in range(1, 5) for q in range(1, 5))
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    ideal = rb.ideal_gain_level(cover, grid)
    assert ideal.level_t == pytest.approx(TWO_PI ** 2 / (3.0 * 5.0), rel=1e-12)


def test_ideal_level_ref_grid_eight_cells(ref_grid):
    cells = frozenset((1, q) for q in range(1, 9))
    ideal = rb.ideal_gain_level(CoverSet(indices=cells, per_lobe=(cells,)),
                                ref_grid)
    # (2*pi)^2 / (8 * pi*sqrt(2)/16 * pi/8) = 32*sqrt(2)
    assert ideal.level_t == pytest.approx(32 * math.sqrt(2), rel=1e-10)
    assert ideal.level_db == pytest.approx(16.56, abs=0.01)


def test_ideal_level_single_cell(ref_grid):
    ideal = rb.ideal_gain_level(single_cell_cover(3, 3), ref_grid)
    assert ideal.level_t == pytest.approx(256 * math.sqrt(2), rel=1e-10)
    assert ideal.level_t * 1 * ref_grid.delta_v * ref_grid.delta_h == \
        pytest.approx(TWO_PI ** 2, rel=1e-10)


def test_scale_formula():
    sigma = approx_ls_scale(4, 4, math.pi / 2, math.pi / 2, 1)
    assert sigma == pytest.approx(0.25, rel=1e-12)


def test_closed_form_first_entry_single_cell(small_grid):
    geom, grid = small_grid
    vec = closed_form_vector(single_cell_cover(4, 6), grid, geom,
                             rb.EqualGainParams())
    assert vec[0] == pytest.approx(TWO_PI / grid.q, rel=1e-12)
    assert vec[0].imag == pytest.approx(0.0, abs=1e-15)


def test_single_element_design_is_flat():
    geom = rb.ArrayGeometry(1, 1)
    grid = rb.make_grid(4, 4, math.pi, math.pi)
    result = rb.design_closed_form(single_cell_cover(2, 3), grid, geom)
    assert np.allclose(result.beamformer.entries, [1.0], atol=1e-12)
    assert rb.gain(result.beamformer, rb.PsiPoint(0.5, -2.0)) == \
        pytest.approx(1.0, rel=1e-12)


def test_single_cell_design_concentrates(small_grid):
    """Measured quality envelope of the 8x8 single-subregion design.

    The in-cell mean cannot reach within 1.5 dB of the ideal level here:
    with this grid the level t = 90.5 exceeds the array's maximum gain
    M = 64, so the verified envelope is wider.  The in/out contrast and
    the agreement with the finite-sampling path are asserted as measured.
    """
    geom, grid = small_grid
    cover = single_cell_cover(5, 5)
    result = rb.design_closed_form(cover, grid, geom)
    t = result.ideal.level_t
    pat = rb.sample_pattern(result.beamformer, 512)
    cell = grid.cell(5, 5)
    in_xi = (pat.xi_samples >= cell.xi_min) & (pat.xi_samples < cell.xi_max)
    in_ze = (pat.zeta_samples >= cell.zeta_min) & (pat.zeta_samples < cell.zeta_max)
    mask = np.outer(in_xi, in_ze)
    mean_in = pat.gains[mask].mean()
    mean_out = pat.gains[~mask].mean()
    assert mean_in <= t
    assert 10 * math.log10(mean_in / t) > -4.5
    assert 10 * math.log10(mean_in / mean_out) >= 10.0

    finite = rb.design_finite_l(cover, grid, geom, l_v=64, l_h=64)
    cosine = abs(np.vdot(result.beamformer.entries, finite.beamformer.entries))
    assert cosine >= 0.99


def test_finite_l_single_sample_is_steering_vector(small_grid):
    geom, grid = small_grid
    result = rb.design_finite_l(single_cell_cover(3, 2), grid, geom, l_v=1, l_h=1)
    # One sample per axis sits at the cell's upper corner.
    sample = rb.PsiPoint(grid.xi_edge(3), grid.zeta_edge(2))
    steer = rb.Beamformer.steering(geom, sample).entries
    inner = np.vdot(steer, result.beamformer.entries)
    assert abs(inner) == pytest.approx(1.0, abs=1e-12)
    assert rb.gain(result.beamformer, sample) == pytest.approx(geom.m, rel=1e-10)


def test_finite_l_converges_to_closed_form(small_grid):
    geom, grid = small_grid
    cover = single_cell_cover(5, 5)
    closed = rb.design_closed_form(cover, grid, geom)
    sims = []
    for rate in (8, 32, 128):
        finite = rb.design_finite_l(cover, grid, geom, l_v=rate, l_h=rate)
        sims.append(abs(np.vdot(closed.beamformer.entries,
                                finite.beamformer.entries)))
    assert sims == sorted(sims)
    assert sims[-1] >= 0.999


def test_limit_consistency_relative_error():
    for m in (8, 16):
        geom = rb.ArrayGeometry(m, m)
        xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
        grid = rb.make_grid(8, 8, xi_b, zeta_b)
        cover = single_cell_cover(4, 6)
        c_inf = rb.design_closed_form(cover, grid, geom).beamformer.entries
        c_fin = rb.design_finite_l(cover, grid, geom, l_v=128, l_h=128)
        vec = c_fin.beamformer.entries
        phase = np.vdot(vec, c_inf)
        vec = vec * phase / abs(phase)
        assert np.linalg.norm(c_inf - vec) <= 0.01


def test_designs_are_unit_norm_with_unit_energy(small_grid, dual_beam_cover,
                                                ref_grid, ref_geom):
    geom, grid = small_grid
    for result in (
        rb.design_closed_form(single_cell_cover(2, 7), grid, geom),
        rb.design_finite_l(single_cell_cover(2, 7), grid, geom, l_v=8, l_h=8),
        rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom),
    ):
        assert np.linalg.norm(result.beamformer.entries) == pytest.approx(1.0,
                                                                          abs=1e-12)
        assert rb.gain_integral(result.beamformer, 256) == \
            pytest.approx(TWO_PI ** 2, rel=0.01)


def test_ideal_accounting(dual_beam_cover, ref_grid):
    ideal = rb.ideal_gain_level(dual_beam_cover, ref_grid)
    total = ideal.level_t * dual_beam_cover.size * ref_grid.delta_v * \
        ref_grid.delta_h
    assert total == pytest.approx(TWO_PI ** 2, rel=1e-12)


def test_mirror_cover_reflects_pattern(small_grid):
    geom, grid = small_grid
    c_orig = rb.design_closed_form(single_cell_cover(2, 3), grid, geom).beamformer
    c_mirr = rb.design_closed_form(single_cell_cover(grid.q_v + 1 - 2, 3), grid,
                                   geom).beamformer
    rng = np.random.default_rng(4)
    for _ in range(50):
        xi = rng.uniform(-math.pi, math.pi)
        zeta = rng.uniform(-math.pi, math.pi)
        g_m = rb.gain(c_mirr, rb.PsiPoint(xi, zeta))
        g_o = rb.gain(c_orig, rb.PsiPoint(-xi, zeta))
        assert g_m == pytest.approx(g_o, rel=1e-10, abs=1e-12)


def test_conjugate_feed_point_mirrors_pattern(dual_beam_cover, ref_grid,
                                              ref_geom):
    c = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom).beamformer
    conj = rb.Beamformer(np.conj(c.entries), c.m_v, c.m_h)
    rng = np.random.default_rng(6)
    for _ in range(30):
        xi = rng.uniform(-math.pi, math.pi)
        zeta = rng.uniform(-math.pi, math.pi)
        assert rb.gain(conj, rb.PsiPoint(xi, zeta)) == pytest.approx(
            rb.gain(c, rb.PsiPoint(-xi, -zeta)), rel=1e-10, abs=1e-12)


def test_select_eta_single_candidate_is_zero(small_grid):
    geom, grid = small_grid
    params = rb.select_eta(single_cell_cover(4, 4), grid, geom, search_resolution=1)
    assert params == rb.EqualGainParams(0.0, 0.0)


def test_select_eta_never_worse_than_zero(small_grid):
    geom, grid = small_grid
    cover = single_cell_cover(4, 4)
    chosen = rb.select_eta(cover, grid, geom, search_resolution=3)
    obj_sel = rb.eta_objective(cover, grid, geom, chosen)
    obj_zero = rb.eta_objective(cover, grid, geom, rb.EqualGainParams())
    assert obj_sel <= obj_zero + 1e-12


def test_select_eta_dual_beam_not_worse(dual_beam_cover, ref_grid, ref_geom):
    chosen = rb.select_eta(dual_beam_cover, ref_grid, ref_geom,
                           search_resolution=3)
    obj_sel = rb.eta_objective(dual_beam_cover, ref_grid, ref_geom, chosen)
    obj_zero = rb.eta_objective(dual_beam_cover, ref_grid, ref_geom,
                                rb.EqualGainParams())
    assert obj_sel <= obj_zero + 1e-12


def _per_candidate_search(cover, grid, geom, search_resolution):
    """Reference eta search: a normalized closed form and a 256^2 report per
    candidate, in row-major order, replacing the best only on a strict
    improvement.  Returns the choice and every candidate's objective."""
    if search_resolution == 1:
        cand_v = cand_h = [0.0]
    else:
        cand_v = np.linspace(-grid.delta_v, grid.delta_v, search_resolution)
        cand_h = np.linspace(-grid.delta_h, grid.delta_h, search_resolution)
    best, best_obj, objectives = None, math.inf, {}
    for ev in cand_v:
        for eh in cand_h:
            params = rb.EqualGainParams(eta_v=float(ev), eta_h=float(eh))
            result = rb.design_closed_form(cover, grid, geom, params)
            rep = rb.report(result.beamformer, cover, grid, resolution=256)
            obj = objectives[params] = rep.ripple_db + 10.0 * rep.leakage_fraction
            if obj < best_obj:
                best, best_obj = params, obj
    return best, objectives


def _assert_search_matches_reference(cover, grid, geom, search_resolution):
    best, objectives = _per_candidate_search(cover, grid, geom, search_resolution)
    assert rb.select_eta(cover, grid, geom, search_resolution) == best
    for params, obj in objectives.items():
        assert rb.eta_objective(cover, grid, geom, params) == pytest.approx(
            obj, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("search_resolution", [1, 3, 5])
@pytest.mark.parametrize("name", ["paper_dual_beam", "single_subregion",
                                  "unit_modulus_dual_beam"])
def test_select_eta_matches_per_candidate_search_on_shipped_configs(
        name, search_resolution):
    scenario = load_scenario(CONFIGS / f"{name}.json")
    cover = rb.cover_set(scenario.spec, scenario.grid, scenario.geom)
    _assert_search_matches_reference(cover, scenario.grid, scenario.geom,
                                     search_resolution)


def test_select_eta_takes_first_minimum_in_row_major_order(small_grid, monkeypatch):
    geom, grid = small_grid
    scores = np.full((3, 3), 2.0)
    scores[1, 2] = scores[2, 0] = 1.0
    monkeypatch.setattr(rb.design, "_eta_scores", lambda *args: scores)
    assert rb.select_eta(single_cell_cover(4, 4), grid, geom, 3) == \
        rb.EqualGainParams(eta_v=0.0, eta_h=grid.delta_h)


# The select_eta slots of the design-sweep benchmark (bench/workloads.py):
# aperture and grid per axis, lobe count and width.  Each lobe sits near the
# centre of its own quadrant of the coverage range, jittered by 0.08 rad.
SWEEP_SEARCH_SLOTS = [
    pytest.param(m, q, count, width, id=f"{m}x{m}-q{q}")
    for m, q, count, width in ((32, 16, 3, math.pi / 8), (32, 64, 4, math.pi / 32),
                               (64, 16, 3, math.pi / 16), (64, 64, 4, 3 * math.pi / 32))]
SWEEP_CENTRES = ((-0.35, -0.55), (-0.35, 0.55), (0.35, -0.55), (0.35, 0.55))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m, q, count, width", SWEEP_SEARCH_SLOTS)
def test_select_eta_matches_per_candidate_search_on_sweep_slots(m, q, count, width,
                                                                seed):
    rng = np.random.default_rng(seed)
    geom = rb.ArrayGeometry(m, m)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    grid = rb.make_grid(q, q, xi_b, zeta_b)
    lobes = tuple(rb.Lobe.around(SWEEP_CENTRES[i][0] + rng.uniform(-0.08, 0.08),
                                 SWEEP_CENTRES[i][1] + rng.uniform(-0.08, 0.08), width)
                  for i in rng.permutation(len(SWEEP_CENTRES))[:count])
    cover = rb.cover_set(rb.MultiBeamSpec(lobes), grid, geom)
    _assert_search_matches_reference(cover, grid, geom, 5)


def test_dd_h_deviation_full_period_axes_exact():
    geom = rb.ArrayGeometry(6, 6)
    grid = rb.make_grid(4, 4, math.pi, math.pi)
    assert rb.dd_h_deviation(grid, geom, 4, 4) < 1e-12


def test_dd_h_deviation_scalar_vertical_factor(ref_grid):
    geom = rb.ArrayGeometry(1, 4)
    # Horizontal axis spans the full period, vertical factor is scalar.
    assert rb.dd_h_deviation(ref_grid, geom, 4, 4) < 1e-12


def test_dd_h_deviation_partial_period_positive(ref_grid):
    geom = rb.ArrayGeometry(8, 8)
    assert rb.dd_h_deviation(ref_grid, geom, 8, 8) > 0.01


def _kron_dd_h_deviation(grid, geom, l_v, l_h):
    """The deviation from the full M x M matrix G_v (x) G_h - L*Q*I."""
    axis_v, axis_h = grid.axes
    g_v = _axis_normal_matrix(_axis_sample_points(axis_v, l_v), geom.m_v)
    g_h = _axis_normal_matrix(_axis_sample_points(axis_h, l_h), geom.m_h)
    lq = l_v * l_h * grid.q
    full = np.kron(g_v, g_h) - lq * np.eye(geom.m)
    return float(np.linalg.norm(full) / (lq * math.sqrt(geom.m)))


@pytest.mark.parametrize("m_v, m_h, q_v, q_h, l_v, l_h", [
    (8, 8, 16, 16, 4, 4),
    (6, 10, 5, 7, 3, 2),
    (1, 4, 4, 6, 2, 5),
])
def test_dd_h_deviation_matches_kronecker_form(m_v, m_h, q_v, q_h, l_v, l_h):
    geom = rb.ArrayGeometry(m_v, m_h)
    # Both axes short of a full period, so every deviation is well above 0.
    grid = rb.make_grid(q_v, q_h, 1.3, 2.1)
    got = rb.dd_h_deviation(grid, geom, l_v, l_h)
    want = _kron_dd_h_deviation(grid, geom, l_v, l_h)
    assert want > 0.01
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_dd_h_deviation_large_aperture_stays_small():
    # The Kronecker form would hold a 16384^2 complex matrix, about 4.3 GB.
    geom = rb.ArrayGeometry(128, 128)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    grid = rb.make_grid(16, 16, xi_b, zeta_b)
    tracemalloc.start()
    try:
        deviation = rb.dd_h_deviation(grid, geom, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < deviation < math.inf
    assert peak < 16 * 2 ** 20


def test_exact_ls_reduces_residual(small_grid):
    geom, grid = small_grid
    cells = frozenset({(2, 3), (5, 6), (7, 2)})
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    approx = rb.design_finite_l(cover, grid, geom, l_v=16, l_h=16, exact_ls=False)
    exact = rb.design_finite_l(cover, grid, geom, l_v=16, l_h=16, exact_ls=True)
    assert exact.method.residual <= approx.method.residual
    assert exact.method.exact_ls and not approx.method.exact_ls
    # Partial-period vertical axis triggers the near-singularity warning.
    assert exact.method.rank_deficient


def test_empty_cover_is_an_error(small_grid):
    geom, grid = small_grid
    empty = CoverSet(indices=frozenset(), per_lobe=())
    with pytest.raises(EmptyCoverError):
        rb.ideal_gain_level(empty, grid)
    with pytest.raises(EmptyCoverError):
        rb.design_closed_form(empty, grid, geom)
    with pytest.raises(EmptyCoverError):
        rb.design_finite_l(empty, grid, geom)


def test_centered_eta_snaps_to_full_turn(ref_grid, ref_geom):
    params = rb.centered_eta(ref_grid, ref_geom)
    assert params.eta_v == pytest.approx(-TWO_PI, abs=1e-6)
    assert params.eta_h == pytest.approx(-TWO_PI, abs=1e-6)
    assert -TWO_PI < params.eta_v < TWO_PI


def test_centered_eta_plain_for_small_apertures():
    geom = rb.ArrayGeometry(4, 4)
    grid = rb.make_grid(8, 8, math.pi / 2, math.pi / 2)
    params = rb.centered_eta(grid, geom)
    assert params.eta_v == pytest.approx(-grid.delta_v * 1.5, rel=1e-12)
    assert params.eta_h == pytest.approx(-grid.delta_h * 1.5, rel=1e-12)


def test_centered_eta_halves_leakage(dual_beam_cover, ref_grid, ref_geom):
    flat = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    ramped = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom,
                                   rb.centered_eta(ref_grid, ref_geom))
    leak_flat = rb.report(flat.beamformer, dual_beam_cover, ref_grid,
                          resolution=256).leakage_fraction
    leak_ramp = rb.report(ramped.beamformer, dual_beam_cover, ref_grid,
                          resolution=256).leakage_fraction
    assert leak_ramp < leak_flat / 2


def test_refined_design_unit_norm_and_parseval_non_square():
    geom = rb.ArrayGeometry(8, 12)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
    grid = rb.make_grid(8, 8, xi_b, zeta_b)
    cells = frozenset({(2, 3), (2, 4), (6, 6)})
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    result = rb.design_refined(cover, grid, geom, rb.centered_eta(grid, geom))
    assert result.method.name == "refined"
    assert result.ideal == rb.ideal_gain_level(cover, grid)
    assert np.linalg.norm(result.beamformer.entries) == pytest.approx(1.0, abs=1e-12)
    assert rb.gain_integral(result.beamformer, 256) == \
        pytest.approx(TWO_PI ** 2, rel=1e-9)


def test_fft_cover_masks_follow_subregions_with_periodic_guard():
    # The guard of the last zeta column crosses pi and wraps to -pi.
    geom = rb.ArrayGeometry(6, 10)
    xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, 1.3)
    grid = rb.make_grid(5, 7, xi_b, zeta_b)
    cells = frozenset({(1, 7), (3, 2), (3, 3)})
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    in_cover, support = fft_cover_masks(cover, grid, geom.m_v, geom.m_h)
    assert in_cover.shape == (REFINE_OVERSAMPLE * 6, REFINE_OVERSAMPLE * 10)

    def axis(n, lo, hi, guard):
        """Half-open membership and periodic distance in guard units."""
        x = TWO_PI * np.arange(n) / n
        x = np.where(x >= math.pi, x - TWO_PI, x)
        inside = (x >= lo) & (x < hi)
        gap = np.minimum(np.mod(lo - x, TWO_PI), np.mod(x - hi, TWO_PI))
        return inside, np.where(inside, 0.0, gap / guard)

    expected = np.zeros(in_cover.shape, dtype=bool)
    reach = np.full(in_cover.shape, np.inf)
    for p, q in cells:
        cell = grid.cell(p, q)
        in_v, gap_v = axis(in_cover.shape[0], cell.xi_min, cell.xi_max,
                           REFINE_GUARD * TWO_PI / geom.m_v)
        in_h, gap_h = axis(in_cover.shape[1], cell.zeta_min, cell.zeta_max,
                           REFINE_GUARD * TWO_PI / geom.m_h)
        expected |= np.outer(in_v, in_h)
        reach = np.minimum(reach, np.maximum.outer(gap_v, gap_h))
    assert np.array_equal(in_cover, expected)
    assert np.all(support[reach < 1.0 - 1e-9])
    assert not np.any(support[reach > 1.0 + 1e-9])
    assert support[:, in_cover.shape[1] // 2].any()


def _per_cell_sum(cover, grid, a_v, a_h):
    """Reference: one outer product per covered cell, added in sorted order."""
    acc = np.zeros((a_v.size, a_h.size), dtype=complex)
    for p, q in cover.sorted():
        v = np.exp(1j * np.arange(a_v.size) * grid.xi_edge(p - 1)) * a_v
        h = np.exp(1j * np.arange(a_h.size) * grid.zeta_edge(q - 1)) * a_h
        acc += np.outer(v, h)
    return acc


@st.composite
def cover_cases(draw):
    """Aperture, grid, a nonempty cover of it, and a seed for the axis vectors."""
    q_v, q_h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = draw(st.frozensets(st.tuples(st.integers(1, q_v), st.integers(1, q_h)),
                               min_size=1))
    return (draw(st.integers(1, 24)), draw(st.integers(1, 24)), q_v, q_h, cells,
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=80, deadline=None)
@given(case=cover_cases(), xi_bound=st.floats(0.1, math.pi),
       zeta_bound=st.floats(0.1, math.pi))
# Single cell, full cover and scattered cells, on non-square apertures and grids.
@example(case=(5, 9, 3, 7, frozenset({(2, 4)}), 1), xi_bound=1.1, zeta_bound=math.pi)
@example(case=(12, 7, 4, 6, frozenset(itertools.product(range(1, 5), range(1, 7))), 2),
         xi_bound=math.pi / 2, zeta_bound=2.3)
@example(case=(16, 11, 8, 5, frozenset({(1, 1), (1, 5), (4, 2), (8, 5), (7, 3)}), 3),
         xi_bound=2.2, zeta_bound=0.7)
def test_cover_sum_matches_per_cell_loop(case, xi_bound, zeta_bound):
    m_v, m_h, q_v, q_h, cells, seed = case
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    grid = rb.make_grid(q_v, q_h, xi_bound, zeta_bound)
    rng = np.random.default_rng(seed)
    a_v = rng.normal(size=m_v) + 1j * rng.normal(size=m_v)
    a_h = rng.normal(size=m_h) + 1j * rng.normal(size=m_h)
    want = _per_cell_sum(cover, grid, a_v, a_h)
    got = cover_sum(cover, grid, a_v, a_h)
    assert got.shape == (m_v, m_h)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    mask = cover_mask(cover, grid)
    assert mask.shape == (q_v, q_h) and mask.sum() == cover.size
    assert all(mask[p - 1, q - 1] == 1.0 for p, q in cells)


def test_cover_mask_rejects_empty_cover(small_grid):
    _, grid = small_grid
    with pytest.raises(EmptyCoverError):
        cover_mask(CoverSet(indices=frozenset(), per_lobe=()), grid)
