import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risbeam as rb
from risbeam.geometry import (CoverSet, EmptyCoverError, GridRangeError, Lobe,
                              OutOfImageError, PsiRect, lobe_psi_rects)

HALF_WAVE = rb.ArrayGeometry(4, 4)


def test_to_psi_broadside_is_origin():
    p = rb.to_psi(rb.SolidAngle(0.0, 0.0), HALF_WAVE)
    assert p.xi == 0.0 and p.zeta == 0.0


def test_to_psi_quarter_pi_elevation():
    p = rb.to_psi(rb.SolidAngle(math.pi / 4, 0.0), HALF_WAVE)
    assert p.xi == pytest.approx(math.pi * math.sqrt(2) / 2, abs=1e-12)
    assert p.zeta == 0.0


def test_to_psi_endfire_azimuth():
    p = rb.to_psi(rb.SolidAngle(0.0, math.pi / 2), HALF_WAVE)
    assert p.xi == 0.0
    assert p.zeta == pytest.approx(math.pi, abs=1e-12)


def test_from_psi_fixed_point():
    a = rb.from_psi(rb.PsiPoint(0.0, 0.0), HALF_WAVE)
    assert a.phi == 0.0 and a.theta == 0.0


def test_from_psi_inverts_analytically():
    a = rb.from_psi(rb.PsiPoint(math.pi * math.sqrt(2) / 2, 0.0), HALF_WAVE)
    assert a.phi == pytest.approx(math.pi / 4, abs=1e-12)
    assert a.theta == 0.0


def test_from_psi_rejects_points_without_preimage():
    with pytest.raises(OutOfImageError):
        rb.from_psi(rb.PsiPoint(0.0, 2 * math.pi * 1.5), HALF_WAVE)


def test_from_psi_grazing_elevation():
    angle = rb.from_psi(rb.PsiPoint(math.pi, 0.0), HALF_WAVE)
    assert angle.phi == pytest.approx(math.pi / 2, abs=1e-12)
    assert angle.theta == 0.0
    with pytest.raises(OutOfImageError):
        rb.from_psi(rb.PsiPoint(math.pi, 0.5), HALF_WAVE)


def test_round_trip_over_coverage_range():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        angle = rb.SolidAngle(rng.uniform(-math.pi / 4, math.pi / 4),
                              rng.uniform(-math.pi / 2, math.pi / 2))
        back = rb.from_psi(rb.to_psi(angle, HALF_WAVE), HALF_WAVE)
        assert back.phi == pytest.approx(angle.phi, abs=1e-12)
        assert back.theta == pytest.approx(angle.theta, abs=1e-12)


# Inside |phi|, |theta| <= pi/2 - 1e-3; the round trip is ill-conditioned
# toward grazing, so the tolerance follows the chain of asin inversions.
VISIBLE = math.pi / 2 - 1e-3
EPS = np.finfo(float).eps


@given(phi=st.floats(-VISIBLE, VISIBLE), theta=st.floats(-VISIBLE, VISIBLE),
       d_x=st.floats(0.1, 2.0), d_z=st.floats(0.1, 2.0))
def test_from_psi_inverts_to_psi_in_visible_region(phi, theta, d_x, d_z):
    """A relative rounding e in sin(phi) moves asin's phi by about e/cos(phi).
    cos of that phi then errs relatively by e/cos(phi)^2, which divides zeta
    and so moves theta by about e/(cos(phi)^2 cos(theta)).  The bounds are
    4 eps times those factors: at the corner (pi/2 - 1e-3)^2 that is 8.9e-13
    for phi and 8.9e-7 for theta, whose worst error there is 1.6e-7."""
    geom = rb.ArrayGeometry(2, 2, d_x, d_z)
    back = rb.from_psi(rb.to_psi(rb.SolidAngle(phi, theta), geom), geom)
    cos_phi, cos_theta = math.cos(phi), math.cos(theta)
    assert abs(back.phi - phi) <= 4 * EPS / cos_phi
    assert abs(back.theta - theta) <= 4 * EPS / (cos_phi ** 2 * cos_theta)


def test_make_grid_reference_cell_sizes():
    grid = rb.make_grid(16, 16, math.pi * math.sqrt(2) / 2, math.pi)
    assert grid.delta_v == pytest.approx(math.pi * math.sqrt(2) / 16, abs=1e-12)
    assert grid.delta_h == pytest.approx(math.pi / 8, abs=1e-12)
    assert grid.xi_edge(0) == -grid.xi_bound
    assert grid.xi_edge(16) == pytest.approx(grid.xi_bound, abs=1e-12)
    assert grid.delta_v * grid.q_v == pytest.approx(2 * grid.xi_bound, abs=1e-12)


def test_make_grid_single_cell_is_whole_rectangle():
    grid = rb.make_grid(1, 1, math.pi, math.pi)
    cell = grid.cell(1, 1)
    assert cell == grid.rect()


def test_subregion_of_lower_corner():
    grid = rb.make_grid(16, 16, math.pi * math.sqrt(2) / 2, math.pi)
    assert rb.subregion_of(rb.PsiPoint(-grid.xi_bound, -grid.zeta_bound), grid) == (1, 1)


def test_subregion_of_just_past_midpoint():
    grid = rb.make_grid(16, 16, math.pi * math.sqrt(2) / 2, math.pi)
    assert rb.subregion_of(rb.PsiPoint(1e-9, 1e-9), grid) == (9, 9)


def test_subregion_of_upper_edge_is_out_of_range():
    grid = rb.make_grid(16, 16, math.pi * math.sqrt(2) / 2, math.pi)
    with pytest.raises(GridRangeError):
        rb.subregion_of(rb.PsiPoint(grid.xi_bound, 0.0), grid)


def test_tiling_every_point_in_exactly_one_cell():
    grid = rb.make_grid(7, 9, 1.3, 2.1)
    rng = np.random.default_rng(3)
    xi = rng.uniform(-grid.xi_bound, grid.xi_bound, 100_000)
    zeta = rng.uniform(-grid.zeta_bound, grid.zeta_bound, 100_000)
    for x, z in zip(xi[:300], zeta[:300]):
        p, q = rb.subregion_of(rb.PsiPoint(x, z), grid)
        cell = grid.cell(p, q)
        assert cell.xi_min <= x < cell.xi_max
        assert cell.zeta_min <= z < cell.zeta_max
    # Vectorized containment count over the full sample set.
    p_idx = np.floor((xi + grid.xi_bound) / grid.delta_v).astype(int)
    q_idx = np.floor((zeta + grid.zeta_bound) / grid.delta_h).astype(int)
    assert np.all((p_idx >= 0) & (p_idx < grid.q_v))
    assert np.all((q_idx >= 0) & (q_idx < grid.q_h))


def test_cover_set_exact_single_cell():
    grid = rb.make_grid(8, 8, math.pi, math.pi)
    lobe = Lobe.from_psi_rect(grid.cell(3, 5))
    cover = rb.cover_set(rb.MultiBeamSpec((lobe,)), grid, HALF_WAVE)
    assert cover.indices == frozenset({(3, 5)})
    assert cover.size == 1


def test_cover_set_two_adjacent_cells():
    grid = rb.make_grid(8, 8, math.pi, math.pi)
    a = grid.cell(4, 4)
    lobe = Lobe.from_psi_rect(PsiRect(a.xi_min + 0.01, a.xi_max - 0.01,
                                      a.zeta_min + 0.1, a.zeta_max + 0.1))
    cover = rb.cover_set(rb.MultiBeamSpec((lobe,)), grid, HALF_WAVE)
    assert cover.indices == frozenset({(4, 4), (4, 5)})


def brute_force_cover(spec, grid, geom):
    """Independent oracle: test every subregion for positive-area overlap."""
    bounds = grid.rect()
    cells = set()
    for lobe in spec.lobes:
        for rect in lobe_psi_rects(lobe, geom):
            clipped = rect.clip(bounds)
            if clipped is None:
                continue
            for p in range(1, grid.q_v + 1):
                for q in range(1, grid.q_h + 1):
                    cell = grid.cell(p, q)
                    w = min(clipped.xi_max, cell.xi_max) - max(clipped.xi_min, cell.xi_min)
                    h = min(clipped.zeta_max, cell.zeta_max) - max(clipped.zeta_min, cell.zeta_min)
                    if w > 0 and h > 0:
                        cells.add((p, q))
    return cells


def _ulps_from(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def near_edge_requests(draw):
    """A grid and 1-3 transform-domain lobes whose every edge lies within 4
    ulps of a cell edge (or of a point one cell beyond the grid)."""
    grid = rb.make_grid(draw(st.integers(1, 40)), draw(st.integers(1, 40)),
                        draw(st.floats(0.1, math.pi)), draw(st.floats(0.1, math.pi)))

    def extent(edge, count):
        return sorted(_ulps_from(edge(draw(st.integers(-1, count + 1))),
                                 draw(st.integers(-4, 4))) for _ in range(2))

    lobes = []
    for _ in range(draw(st.integers(1, 3))):
        xi = extent(grid.xi_edge, grid.q_v)
        zeta = extent(grid.zeta_edge, grid.q_h)
        lobes.append(Lobe.from_psi_rect(PsiRect(*xi, *zeta)))
    return grid, rb.MultiBeamSpec(tuple(lobes))


@settings(max_examples=400)
@given(near_edge_requests())
def test_cover_set_equals_brute_force_near_cell_edges(case):
    """Lobe edges a few ulps from a cell edge: the cover holds exactly the
    cells each lobe overlaps with positive area, by the oracle's own sums."""
    grid, spec = case
    want = [frozenset(brute_force_cover(rb.MultiBeamSpec((lobe,)), grid, HALF_WAVE))
            for lobe in spec.lobes]
    if not all(want):
        with pytest.raises(EmptyCoverError):
            rb.cover_set(spec, grid, HALF_WAVE)
        return
    cover = rb.cover_set(spec, grid, HALF_WAVE)
    assert cover.per_lobe == tuple(want)
    assert cover.indices == frozenset().union(*want)


def test_dual_beam_cover_matches_brute_force(dual_beam_spec, ref_grid, ref_geom):
    cover = rb.cover_set(dual_beam_spec, ref_grid, ref_geom)
    assert cover.indices == frozenset(brute_force_cover(dual_beam_spec, ref_grid,
                                                        ref_geom))
    # Both transformed lobes are inside the covered union.
    for lobe, cells in zip(dual_beam_spec.lobes, cover.per_lobe):
        rect = lobe_psi_rects(lobe, ref_geom)[0].clip(ref_grid.rect())
        rng = np.random.default_rng(11)
        xs = rng.uniform(rect.xi_min, rect.xi_max, 2000)
        zs = rng.uniform(rect.zeta_min, rect.zeta_max, 2000)
        for x, z in zip(xs, zs):
            x = min(x, ref_grid.xi_bound - 1e-12)
            z = min(z, ref_grid.zeta_bound - 1e-12)
            assert rb.subregion_of(rb.PsiPoint(x, z), ref_grid) in cover.indices


def test_cover_minimality(dual_beam_spec, ref_grid, ref_geom):
    """Dropping any cell leaves part of some lobe uncovered."""
    cover = rb.cover_set(dual_beam_spec, ref_grid, ref_geom)
    rects = [lobe_psi_rects(lobe, ref_geom)[0].clip(ref_grid.rect())
             for lobe in dual_beam_spec.lobes]
    for victim in cover.indices:
        cell = ref_grid.cell(*victim)
        exposed = False
        for rect in rects:
            overlap = rect.clip(cell)
            if overlap is not None:
                exposed = True
        assert exposed, f"cell {victim} overlaps no lobe"


def test_cover_refinement_tightens(ref_geom):
    lobe = Lobe.around(-0.31, 0.52, 0.21, 0.17)
    spec = rb.MultiBeamSpec((lobe,))
    rect = lobe_psi_rects(lobe, ref_geom)[0]
    area_prev = math.inf
    for q in (4, 8, 16, 32):
        grid = rb.make_grid(q, q, math.pi * math.sqrt(2) / 2, math.pi)
        cover = rb.cover_set(spec, grid, ref_geom)
        slack = cover.size * grid.delta_v * grid.delta_h - rect.area
        assert slack >= -1e-12
        assert slack <= area_prev + 1e-12
        area_prev = slack


def test_cover_error_for_lobe_outside_range(ref_geom, ref_grid):
    lobe = Lobe.from_psi_rect(PsiRect(2.5, 3.0, 0.0, 0.5))  # beyond xi_bound
    with pytest.raises(EmptyCoverError, match="lobe 0"):
        rb.cover_set(rb.MultiBeamSpec((lobe,)), ref_grid, ref_geom)


def test_edge_lobe_is_clipped_to_coverage(dual_beam_spec, ref_grid,
                                                ref_geom):
    # The first lobe's center sits on the elevation bound, so part of its
    # transformed image lies outside the grid; the cover keeps the inside part.
    cover = rb.cover_set(dual_beam_spec, ref_grid, ref_geom)
    assert cover.per_lobe[0] == frozenset({(1, 5), (1, 6), (1, 7)})
    assert cover.per_lobe[1] == frozenset({(15, 9), (15, 10), (16, 9), (16, 10)})
    assert cover.size == 7


def test_solid_angle_validation():
    with pytest.raises(ValueError):
        rb.SolidAngle(2.0, 0.0)
    with pytest.raises(ValueError):
        rb.ArrayGeometry(0, 4)
    with pytest.raises(ValueError):
        PsiRect(1.0, 0.0, 0.0, 1.0)


def test_cover_set_requires_lobes():
    with pytest.raises(ValueError):
        rb.MultiBeamSpec(())
    with pytest.raises(ValueError):
        Lobe(())
