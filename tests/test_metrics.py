import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import risbeam as rb
from risbeam.geometry import CoverSet
from risbeam.metrics import to_db

TWO_PI = 2 * math.pi


def flat_beamformer(m_v, m_h):
    e0 = np.zeros(m_v * m_h, dtype=complex)
    e0[0] = 1.0
    return rb.Beamformer(e0, m_v, m_h)


def single_cell_cover(p, q):
    cells = frozenset({(p, q)})
    return CoverSet(indices=cells, per_lobe=(cells,))


def exact_cell_integral(weights, rect):
    """Oracle: closed-form integral of |d^H w|^2 over a rectangle.

    Expands the gain into its 2D Fourier series (the autocorrelation of
    the weight grid) and integrates each exponential analytically.
    """
    m_v, m_h = weights.shape

    def axis_integral(k, lo, hi):
        if k == 0:
            return hi - lo
        return (np.exp(-1j * k * hi) - np.exp(-1j * k * lo)) / (-1j * k)

    total = 0.0 + 0.0j
    for kv in range(-(m_v - 1), m_v):
        a = weights[kv:, :] if kv >= 0 else weights[:m_v + kv, :]
        b = weights[:m_v - kv, :] if kv >= 0 else weights[-kv:, :]
        for kh in range(-(m_h - 1), m_h):
            a2 = a[:, kh:] if kh >= 0 else a[:, :m_h + kh]
            b2 = b[:, :m_h - kh] if kh >= 0 else b[:, -kh:]
            corr = np.sum(a2 * np.conj(b2))
            total += corr * axis_integral(kv, rect.xi_min, rect.xi_max) * \
                axis_integral(kh, rect.zeta_min, rect.zeta_max)
    return total.real


def test_flat_pattern_leakage_is_area_complement(ref_grid):
    cover_cells = frozenset({(3, 4), (3, 5), (9, 9)})
    cover = CoverSet(indices=cover_cells, per_lobe=(cover_cells,))
    rep = rb.report(flat_beamformer(4, 4), cover, ref_grid, resolution=512)
    area = 3 * ref_grid.delta_v * ref_grid.delta_h
    assert rep.leakage_fraction == pytest.approx(1 - area / TWO_PI ** 2, abs=2e-3)
    assert rep.mean_in_db == pytest.approx(0.0, abs=1e-9)
    assert rep.ripple_db == pytest.approx(0.0, abs=1e-9)


def test_report_statistics_ordering(dual_beam_cover, ref_grid, ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom,
                                   rb.centered_eta(ref_grid, ref_geom))
    rep = rb.report(result.beamformer, dual_beam_cover, ref_grid, resolution=256)
    assert rep.min_in_db <= rep.median_in_db <= rep.max_in_db
    assert rep.ripple_db >= 0
    assert 0.0 <= rep.leakage_fraction <= 1.0
    assert rep.ideal_level_db == pytest.approx(10 * math.log10(
        TWO_PI ** 2 / (dual_beam_cover.size * ref_grid.delta_v
                       * ref_grid.delta_h)), abs=1e-12)


def test_leakage_against_exact_integral_oracle(dual_beam_cover, ref_grid,
                                               ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom,
                                   rb.centered_eta(ref_grid, ref_geom))
    weights = result.beamformer.as_grid()
    in_power = sum(exact_cell_integral(weights, ref_grid.cell(p, q))
                   for p, q in dual_beam_cover.sorted())
    exact_leak = 1.0 - in_power / TWO_PI ** 2
    rep = rb.report(result.beamformer, dual_beam_cover, ref_grid, resolution=512)
    assert rep.leakage_fraction == pytest.approx(exact_leak, abs=0.01)


def test_leakage_plus_in_cover_is_one(dual_beam_cover, ref_grid, ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    pat = rb.sample_pattern(result.beamformer, 256)
    rep = rb.report_from_pattern(pat, dual_beam_cover, ref_grid)
    from risbeam.metrics import _cover_masks
    in_mask, _ = _cover_masks(pat.xi_samples, pat.zeta_samples, dual_beam_cover,
                               ref_grid, 0.1)
    in_fraction = pat.gains[in_mask].sum() / pat.gains.sum()
    assert rep.leakage_fraction + in_fraction == pytest.approx(1.0, abs=1e-6)


def test_report_invariant_under_global_phase(dual_beam_cover, ref_grid,
                                             ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    rotated = rb.Beamformer(result.beamformer.entries * np.exp(1j * 1.1),
                            ref_geom.m_v, ref_geom.m_h)
    rep_a = rb.report(result.beamformer, dual_beam_cover, ref_grid, resolution=128)
    rep_b = rb.report(rotated, dual_beam_cover, ref_grid, resolution=128)
    assert rep_a.mean_in_db == pytest.approx(rep_b.mean_in_db, abs=1e-9)
    assert rep_a.leakage_fraction == pytest.approx(rep_b.leakage_fraction, abs=1e-12)


def test_report_accepts_surface_config(dual_beam_cover, ref_grid, ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom,
                                   rb.centered_eta(ref_grid, ref_geom))
    config = rb.ris_from_beamformer(result.beamformer, rb.SolidAngle(0, 0),
                                    ref_geom)
    rep_feed = rb.report(result.beamformer, dual_beam_cover, ref_grid,
                         resolution=128)
    rep_conf = rb.report(config, dual_beam_cover, ref_grid, resolution=128)
    assert rep_conf.mean_in_db == pytest.approx(rep_feed.mean_in_db, abs=1e-9)


def test_cut_flat_pattern_has_no_widths(ref_grid):
    geom = rb.ArrayGeometry(2, 2)
    profile = rb.cut(flat_beamformer(2, 2), ref_grid, geom, "fixed_phi", 0.0,
                     resolution=256)
    assert all(len(w) == 0 for w in profile.widths.values())
    assert np.all(np.diff(profile.angles) > 0)


def test_cut_width_matches_dirichlet_oracle(ref_grid):
    """Steered beam width against a brute-force scan of the array factor."""
    geom = rb.ArrayGeometry(16, 16)
    c = rb.Beamformer.steering(geom, rb.PsiPoint(0.0, 0.0))

    theta_dense = np.linspace(-math.pi / 2, math.pi / 2, 400_001)
    zeta = math.pi * np.sin(theta_dense)
    acc = np.abs(np.exp(-1j * np.outer(zeta, np.arange(16))).sum(axis=1)) ** 2 / 16
    half = acc >= acc.max() / 10 ** 0.3
    lo = theta_dense[half.argmax()]
    hi = theta_dense[len(half) - 1 - half[::-1].argmax()]
    expected = hi - lo

    profile = rb.cut(c, ref_grid, geom, "fixed_phi", 0.0, resolution=4096)
    assert len(profile.widths[3.0]) == 1
    assert profile.widths[3.0][0] == pytest.approx(expected, rel=5e-3)


def test_reference_cuts_intersect_one_lobe_each(dual_beam_cover, ref_grid,
                                            ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom,
                                   rb.centered_eta(ref_grid, ref_geom))
    for axis, value in (("fixed_phi", -8 * math.pi / 32),
                        ("fixed_phi", 7 * math.pi / 32)):
        profile = rb.cut(result.beamformer, ref_grid, ref_geom, axis, value,
                         resolution=2048)
        assert len(profile.widths[3.0]) == 1


def test_cut_rejects_out_of_range_fixed_value(ref_grid, ref_geom):
    with pytest.raises(ValueError):
        rb.cut(flat_beamformer(2, 2), ref_grid, ref_geom, "fixed_phi", 1.2)
    with pytest.raises(ValueError):
        rb.cut(flat_beamformer(2, 2), ref_grid, ref_geom, "sideways", 0.0)


def test_cut_widths_shrink_with_aperture(ref_grid):
    widths = []
    for m in (8, 16, 32):
        geom = rb.ArrayGeometry(m, m)
        cover = single_cell_cover(8, 8)
        result = rb.design_closed_form(cover, ref_grid, geom,
                                       rb.centered_eta(ref_grid, geom))
        cell = ref_grid.cell(8, 8)
        theta_mid = rb.from_psi(rb.PsiPoint(
            (cell.xi_min + cell.xi_max) / 2,
            (cell.zeta_min + cell.zeta_max) / 2), geom)
        profile = rb.cut(result.beamformer, ref_grid, geom, "fixed_theta",
                         theta_mid.theta, resolution=2048)
        assert profile.widths[3.0], f"no crossing at aperture {m}"
        widths.append(profile.widths[3.0][0])
    assert widths[0] > widths[1] > widths[2]


def test_compare_identical_reports_is_zero(dual_beam_cover, ref_grid,
                                           ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    rep = rb.report(result.beamformer, dual_beam_cover, ref_grid, resolution=128)
    assert rb.compare(rep, rep) == 0.0


def test_compare_half_power_is_three_db(dual_beam_cover, ref_grid, ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    rep = rb.report(result.beamformer, dual_beam_cover, ref_grid, resolution=128)
    halved = replace(rep, mean_in_db=rep.mean_in_db - 10 * math.log10(2))
    assert rb.compare(rep, halved) == pytest.approx(3.0103, abs=1e-4)


def test_compare_rejects_cover_mismatch(ref_grid, ref_geom):
    rep_a = rb.report(flat_beamformer(2, 2), single_cell_cover(1, 1), ref_grid,
                      resolution=64)
    rep_b = rb.report(flat_beamformer(2, 2), single_cell_cover(2, 2), ref_grid,
                      resolution=64)
    with pytest.raises(ValueError):
        rb.compare(rep_a, rep_b)


def test_bounding_rectangle_cover(dual_beam_cover, ref_grid):
    bounding = rb.bounding_rectangle_cover(dual_beam_cover, ref_grid)
    assert bounding.size == 16 * 6
    assert dual_beam_cover.indices <= bounding.indices
    ps = [p for p, _ in bounding.indices]
    qs = [q for _, q in bounding.indices]
    assert (min(ps), max(ps)) == (1, 16)
    assert (min(qs), max(qs)) == (5, 10)


def test_connected_components_synthetic():
    gains = np.zeros((10, 10))
    gains[1:3, 1:3] = 5.0
    gains[6:9, 6:9] = 7.0
    gains[5, 5] = 0.5
    pat = rb.PatternGrid(xi_samples=np.arange(10.0), zeta_samples=np.arange(10.0),
                         gains=gains)
    assert rb.connected_components_above(pat, 1.0) == 2
    assert rb.connected_components_above(pat, 0.1) == 3
    assert rb.connected_components_above(pat, 10.0) == 0


def _bfs_components(mask):
    """Reference: breadth-first 4-connected labelling, one sample at a time."""
    visited = np.zeros_like(mask)
    count = 0
    rows, cols = mask.shape
    for r0, c0 in zip(*np.nonzero(mask)):
        if visited[r0, c0]:
            continue
        count += 1
        queue = deque([(int(r0), int(c0))])
        visited[r0, c0] = True
        while queue:
            r, c = queue.popleft()
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc] \
                        and not visited[rr, cc]:
                    visited[rr, cc] = True
                    queue.append((rr, cc))
    return count


def _components(mask):
    mask = np.asarray(mask, dtype=bool)
    pat = rb.PatternGrid(xi_samples=np.arange(mask.shape[0], dtype=float),
                         zeta_samples=np.arange(mask.shape[1], dtype=float),
                         gains=mask.astype(float))
    return rb.connected_components_above(pat, 0.5)


def _serpentine(rows, cols):
    """Horizontal bars joined at alternating ends: one long winding component."""
    mask = np.zeros((rows, cols), dtype=bool)
    mask[::2] = True
    for r in range(1, rows, 2):
        mask[r, -1 if r % 4 == 1 else 0] = True
    return mask


def _nested_u(size):
    """U shapes inside one another, each open at the top: one component per U."""
    mask = np.zeros((size, size), dtype=bool)
    for k in range(0, size // 2, 2):
        mask[k:size - k, k] = mask[k:size - k, size - 1 - k] = True
        mask[size - 1 - k, k:size - k] = True
    return mask


@pytest.mark.parametrize("mask, count", [
    pytest.param(np.zeros((7, 9), dtype=bool), 0, id="empty"),
    pytest.param(np.ones((7, 9), dtype=bool), 1, id="full"),
    pytest.param(np.array([[1, 0, 1, 1, 0, 1]], dtype=bool), 3, id="one-row"),
    pytest.param(np.array([[1], [1], [0], [1]], dtype=bool), 2, id="one-column"),
    pytest.param(np.indices((8, 8)).sum(axis=0) % 2 == 0, 32, id="checkerboard"),
    pytest.param(_serpentine(21, 11), 1, id="serpentine"),
    pytest.param(np.rot90(_serpentine(21, 11)), 1, id="serpentine-rotated"),
    pytest.param(_nested_u(16), 4, id="nested-u"),
    pytest.param(np.flipud(_nested_u(16)), 4, id="nested-u-flipped"),
])
def test_connected_components_named_shapes(mask, count):
    # Checkerboard squares touch only at corners, which 4-connectivity keeps
    # apart.  In the rotated serpentine and the upright U shapes, runs whose
    # labels differ are joined only in a second round of hooking.
    assert _components(mask) == count == _bfs_components(mask)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95))
def test_connected_components_equal_breadth_first_search(rows, cols, seed, density):
    mask = np.random.default_rng(seed).random((rows, cols)) < density
    assert _components(mask) == _bfs_components(mask)


def test_to_db_floor():
    assert to_db(0.0) == -120.0
    assert to_db(1.0) == 0.0


def test_report_round_trips_through_db(dual_beam_cover, ref_grid, ref_geom):
    result = rb.design_closed_form(dual_beam_cover, ref_grid, ref_geom)
    pat = rb.sample_pattern(result.beamformer, 128)
    db = np.vectorize(to_db)(pat.gains)
    back = rb.PatternGrid(xi_samples=pat.xi_samples, zeta_samples=pat.zeta_samples,
                          gains=10.0 ** (db / 10.0))
    rep_a = rb.report_from_pattern(pat, dual_beam_cover, ref_grid)
    rep_b = rb.report_from_pattern(back, dual_beam_cover, ref_grid)
    assert rep_a.mean_in_db == pytest.approx(rep_b.mean_in_db, abs=1e-9)
    assert rep_a.leakage_fraction == pytest.approx(rep_b.leakage_fraction, abs=1e-9)
    assert rep_a.ripple_db == pytest.approx(rep_b.ripple_db, abs=1e-9)


def _per_cell_cover_masks(grid_pattern, cover, grid, interior_shrink):
    """Reference: the per-cell half-open membership loop, one cell at a time."""
    xi, zeta = grid_pattern.xi_samples, grid_pattern.zeta_samples

    def inside(samples, lo, hi):
        return (samples >= lo) & (samples < hi)

    in_mask = np.zeros((xi.size, zeta.size), dtype=bool)
    interior = np.zeros_like(in_mask)
    for p, q in cover.sorted():
        cell = grid.cell(p, q)
        in_mask |= np.outer(inside(xi, cell.xi_min, cell.xi_max),
                            inside(zeta, cell.zeta_min, cell.zeta_max))
        dx = interior_shrink * (cell.xi_max - cell.xi_min)
        dz = interior_shrink * (cell.zeta_max - cell.zeta_min)
        interior |= np.outer(inside(xi, cell.xi_min + dx, cell.xi_max - dx),
                             inside(zeta, cell.zeta_min + dz, cell.zeta_max - dz))
    return in_mask, interior


@pytest.mark.parametrize("interior_shrink", [0.0, 0.125, 0.25, 0.375])
def test_cover_masks_match_per_cell_loop_on_edges(interior_shrink):
    from risbeam.metrics import _cover_masks
    # Cells pi/4 wide on pi/64 (xi) and pi/32 (zeta) sample spacings: every
    # cell edge and every shrunk edge falls on a sample up to rounding, and
    # the zeta cover ends at +pi, the last sample, which no half-open cell
    # contains.
    grid = rb.make_grid(6, 8, 3 * math.pi / 4, math.pi)
    xi = np.linspace(-math.pi, math.pi, 129)
    zeta = np.linspace(-math.pi, math.pi, 65)
    pat = rb.PatternGrid(xi_samples=xi, zeta_samples=zeta,
                         gains=np.ones((xi.size, zeta.size)))
    cells = frozenset({(1, 1), (1, 8), (3, 4), (3, 5), (4, 4), (6, 8), (6, 1)})
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    got = _cover_masks(xi, zeta, cover, grid, interior_shrink)
    want = _per_cell_cover_masks(pat, cover, grid, interior_shrink)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[0].any() and not got[0][:, -1].any()

    def on_samples(points, samples):
        return sum(np.isclose(samples, x, rtol=0.0, atol=1e-12).any() for x in points)

    assert on_samples([grid.zeta_edge(q) + interior_shrink * grid.delta_h
                       for q in range(8)], zeta) == 8
    assert on_samples([grid.xi_edge(p) - interior_shrink * grid.delta_v
                       for p in range(1, 7)], xi) == 6


def test_empty_interior_scores_every_cover_sample():
    # 255 sample steps span the period, so cells one step wide whose edges
    # sit on the samples put every in-cover sample on an edge, inside the
    # shrink margins: the interior holds none, and both the report and the
    # eta objective fall back to all in-cover samples.
    from risbeam.design import ETA_RESOLUTION
    from risbeam.metrics import INTERIOR_SHRINK, _cover_masks
    bound = 7.5 * TWO_PI / (ETA_RESOLUTION - 1)
    grid = rb.make_grid(15, 15, bound, bound)
    cells = frozenset((p, q) for p in range(6, 10) for q in range(5, 9))
    cover = CoverSet(indices=cells, per_lobe=(cells,))
    geom = rb.ArrayGeometry(8, 8)
    params = rb.EqualGainParams()
    pat = rb.sample_pattern(rb.design_closed_form(cover, grid, geom, params).beamformer,
                            ETA_RESOLUTION)
    in_mask, interior = _cover_masks(pat.xi_samples, pat.zeta_samples, cover, grid,
                                     INTERIOR_SHRINK)
    assert in_mask.sum() >= 4 and not interior.any()
    rep = rb.report_from_pattern(pat, cover, grid)
    assert rep.ripple_db == rep.max_in_db - rep.min_in_db > 0.0
    assert rb.eta_objective(cover, grid, geom, params) == pytest.approx(
        rep.ripple_db + 10.0 * rep.leakage_fraction, rel=0.0, abs=1e-9)
