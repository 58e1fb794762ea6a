"""Byte identity of the CLI's row-at-a-time writers against per-value loops.

The references below are the scalar writers the vectorised ones replaced:
one colour, one ``<rect>`` and one ``format(x, ".17g")`` per Python call.
The rewritten writers must reproduce them byte for byte, rounding and
formatting edge cases included.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from risbeam import cli, metrics
from risbeam.arrays import PatternGrid
from risbeam.cli import pattern_csv_text, read_pattern_csv
from risbeam.scenario import load_scenario
from risbeam.svgplot import _VIRIDIS, GENERATOR_COMMENT, heatmap_svg


def _ref_color(frac):
    frac = min(1.0, max(0.0, frac))
    pos = frac * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    w = pos - i
    rgb = [round((1 - w) * a + w * b) for a, b in zip(_VIRIDIS[i], _VIRIDIS[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _ref_ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _ref_heatmap_svg(gains_db, xi_samples, zeta_samples, title="", vmin=None,
                     vmax=None, max_cells=256):
    stride_r = max(1, -(-gains_db.shape[0] // max_cells))
    stride_c = max(1, -(-gains_db.shape[1] // max_cells))
    g = gains_db[::stride_r, ::stride_c]
    xi = xi_samples[::stride_r]
    zeta = zeta_samples[::stride_c]
    if vmax is None:
        vmax = float(np.ceil(g.max()))
    if vmin is None:
        vmin = vmax - 40.0
    span = vmax - vmin or 1.0
    plot_w, plot_h = 560.0, 560.0
    ml, mt, mr, mb = 70.0, 40.0, 110.0, 55.0
    width = ml + plot_w + mr
    height = mt + plot_h + mb
    cw = plot_w / g.shape[1]
    ch = plot_h / g.shape[0]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        GENERATOR_COMMENT,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{ml + plot_w / 2:.1f}" y="24" font-family="sans-serif" '
                   f'font-size="15" text-anchor="middle">{title}</text>')
    for r in range(g.shape[0]):
        y = mt + plot_h - (r + 1) * ch
        for c in range(g.shape[1]):
            color = _ref_color((g[r, c] - vmin) / span)
            out.append(f'<rect x="{ml + c * cw:.2f}" y="{y:.2f}" '
                       f'width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}" '
                       f'fill="{color}"/>')
    out.append(f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{plot_w:.1f}" '
               f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>')
    for z in _ref_ticks(float(zeta[0]), float(zeta[-1])):
        x = ml + (z - zeta[0]) / (zeta[-1] - zeta[0] or 1.0) * plot_w
        out.append(f'<line x1="{x:.1f}" y1="{mt + plot_h:.1f}" x2="{x:.1f}" '
                   f'y2="{mt + plot_h + 5:.1f}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + plot_h + 20:.1f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'text-anchor="middle">{z:.2f}</text>')
    for v in _ref_ticks(float(xi[0]), float(xi[-1])):
        y = mt + plot_h - (v - xi[0]) / (xi[-1] - xi[0] or 1.0) * plot_h
        out.append(f'<line x1="{ml - 5:.1f}" y1="{y:.1f}" x2="{ml:.1f}" '
                   f'y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 9:.1f}" y="{y + 4:.1f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{v:.2f}</text>')
    out.append(f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12:.1f}" '
               f'font-family="sans-serif" font-size="13" '
               f'text-anchor="middle">zeta [rad]</text>')
    out.append(f'<text x="16" y="{mt + plot_h / 2:.1f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 16 {mt + plot_h / 2:.1f})">xi [rad]</text>')
    bar_x = ml + plot_w + 30.0
    bar_w = 18.0
    steps = 64
    for i in range(steps):
        frac = (i + 0.5) / steps
        y = mt + plot_h * (1.0 - (i + 1.0) / steps)
        out.append(f'<rect x="{bar_x:.1f}" y="{y:.2f}" width="{bar_w:.1f}" '
                   f'height="{plot_h / steps + 0.05:.2f}" fill="{_ref_color(frac)}"/>')
    out.append(f'<rect x="{bar_x:.1f}" y="{mt:.1f}" width="{bar_w:.1f}" '
               f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>')
    for v in _ref_ticks(vmin, vmax):
        y = mt + plot_h * (1.0 - (v - vmin) / span)
        out.append(f'<text x="{bar_x + bar_w + 6:.1f}" y="{y + 4:.1f}" '
                   f'font-family="sans-serif" font-size="11">{v:.1f}</text>')
    out.append(f'<text x="{bar_x + bar_w / 2:.1f}" y="{mt - 8:.1f}" '
               f'font-family="sans-serif" font-size="12" text-anchor="middle">dB</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _ref_fmt(x):
    return format(float(x), ".17g")


def _ref_pattern_csv_text(grid_pattern):
    header = "xi_zeta," + ",".join(_ref_fmt(z) for z in grid_pattern.zeta_samples)
    lines = [header]
    for i, xi in enumerate(grid_pattern.xi_samples):
        row_db = (metrics.to_db(g) for g in grid_pattern.gains[i])
        lines.append(_ref_fmt(xi) + "," + ",".join(_ref_fmt(v) for v in row_db))
    return "\n".join(lines) + "\n"


def _edge_case_grid():
    """37x53 dB values whose colours sit on anchors, half-steps and both clamps.

    With the default range (vmax = ceil(max) = 10, vmin = -30, span 40),
    -30 + 2k lands on anchor fraction k/20 and -30 + j/32 on fraction
    j/1280, which walks every colour step including the exact halves
    that round to even.
    """
    vmin = -30.0
    anchors = vmin + 2.0 * np.arange(21)
    steps = vmin + np.arange(-40, 1281) / 32.0
    clamps = np.array([-1e300, -200.0, vmin - 1e-9, vmin, -0.0, 0.0, 10.0 - 1e-12])
    filler = np.random.default_rng(5).uniform(vmin - 5.0, 10.0,
                                              37 * 53 - 21 - steps.size - clamps.size)
    return np.concatenate([anchors, steps, clamps, filler]).reshape(37, 53)


def test_heatmap_matches_scalar_reference_on_colour_edge_cases():
    gains_db = _edge_case_grid()
    xi, zeta = np.linspace(-1.2, 1.3, 37), np.linspace(-2.9, 3.1, 53)
    svg = heatmap_svg(gains_db, xi, zeta)
    assert svg == _ref_heatmap_svg(gains_db, xi, zeta)
    # Every one of the 21 anchors and the clamped ends appear.
    for rgb in _VIRIDIS:
        assert 'fill="#{:02x}{:02x}{:02x}"'.format(*rgb) in svg


def test_heatmap_matches_scalar_reference_with_explicit_range_and_title():
    # span 20 puts half the grid above vmax; NaN reads as the bottom colour.
    gains_db = _edge_case_grid()
    gains_db[3, 4] = math.nan
    gains_db[5, 6] = math.inf
    xi, zeta = np.linspace(-1.0, 1.0, 37), np.linspace(-2.0, 2.0, 53)
    kwargs = dict(title="edge cases", vmin=-20.0, vmax=0.0)
    assert heatmap_svg(gains_db, xi, zeta, **kwargs) \
        == _ref_heatmap_svg(gains_db, xi, zeta, **kwargs)


def test_heatmap_matches_scalar_reference_on_strided_grid():
    gains_db = np.random.default_rng(6).uniform(-60.0, 3.0, (600, 600))
    axis = np.linspace(-3.0, 3.0, 600)
    svg = heatmap_svg(gains_db, axis, axis, title="strided")
    assert svg == _ref_heatmap_svg(gains_db, axis, axis, title="strided")
    assert svg.count("<rect") == 200 * 200 + 64 + 3


@st.composite
def heatmap_grids(draw):
    """Up to 40x40 dB values: half on the colour steps of a 40 dB range
    (-30 + j/32, see _edge_case_grid), half anywhere in and around it,
    plus a few NaN and +-inf.  A seeded generator fills the grid, since
    drawing each value through hypothesis is slow at this size."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    on_steps = -30.0 + rng.integers(-80, 1400, shape) / 32.0
    gains_db = np.where(rng.random(shape) < 0.5, on_steps,
                        rng.uniform(-80.0, 30.0, shape))
    for value in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                               max_size=3)):
        gains_db[rng.integers(shape[0]), rng.integers(shape[1])] = value
    return gains_db


@st.composite
def heatmap_ranges(draw):
    """Default, explicit and degenerate (vmin == vmax) colour ranges."""
    kind = draw(st.sampled_from(["default", "vmax", "explicit", "equal"]))
    vmax = None if kind == "default" else draw(st.floats(-60.0, 20.0))
    if kind == "explicit":
        return {"vmin": vmax - draw(st.floats(0.5, 80.0)), "vmax": vmax}
    if kind == "equal":
        return {"vmin": vmax, "vmax": vmax}
    return {"vmax": vmax}


@given(gains_db=heatmap_grids(), limits=heatmap_ranges(),
       title=st.sampled_from(["", "random"]))
def test_heatmap_matches_scalar_reference_on_random_grids(gains_db, limits, title):
    xi = np.linspace(-1.0, 1.0, gains_db.shape[0])
    zeta = np.linspace(-2.0, 2.0, gains_db.shape[1])
    with np.errstate(invalid="ignore"):  # +inf in a default range: inf - inf
        assert heatmap_svg(gains_db, xi, zeta, title=title, **limits) \
            == _ref_heatmap_svg(gains_db, xi, zeta, title=title, **limits)


def test_pattern_csv_matches_scalar_reference_and_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    gains = 10.0 ** rng.uniform(-8.0, 2.0, (9, 14))
    # Zero and anything below the -120 dB floor print as the floor.
    gains[0, :4] = [0.0, 1e-13, 1e-300, 1e3]
    gains[4, 7] = 10.0 ** (metrics.DB_FLOOR / 10.0)
    pattern = PatternGrid(xi_samples=np.linspace(-1.1, 1.1, 9),
                          zeta_samples=np.linspace(-math.pi, math.pi, 14),
                          gains=gains)
    text = pattern_csv_text(pattern)
    assert text == _ref_pattern_csv_text(pattern)
    assert text.splitlines()[1].split(",")[1:5] == ["-120", "-120", "-120", "30"]

    path = tmp_path / "pattern.csv"
    path.write_text(text, encoding="utf-8")
    back = read_pattern_csv(path)
    assert np.array_equal(back.xi_samples, pattern.xi_samples)
    assert np.array_equal(back.zeta_samples, pattern.zeta_samples)
    floored = np.maximum(gains, 10.0 ** (metrics.DB_FLOOR / 10.0))
    assert np.allclose(back.gains, floored, rtol=1e-12, atol=0.0)


@st.composite
def pattern_grids(draw, specials=False):
    """Random grid sizes and axes; gains log-uniform from 1e-300 to 1e6 plus
    one exact zero, so every grid holds a value below the -120 dB floor.
    With ``specials``, some gains are also NaN, +inf or exactly the floor."""
    n_xi, n_zeta = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    xi = np.array(draw(st.lists(finite, min_size=n_xi, max_size=n_xi)))
    zeta = np.array(draw(st.lists(finite, min_size=n_zeta, max_size=n_zeta)))
    exponents = draw(st.lists(st.floats(-300.0, 6.0), min_size=n_xi * n_zeta,
                              max_size=n_xi * n_zeta))
    gains = 10.0 ** np.array(exponents).reshape(n_xi, n_zeta)
    gains[draw(st.integers(0, n_xi - 1)), draw(st.integers(0, n_zeta - 1))] = 0.0
    if specials:
        for value in draw(st.lists(st.sampled_from(
                [math.nan, math.inf, 10.0 ** (metrics.DB_FLOOR / 10.0)]), max_size=4)):
            gains[draw(st.integers(0, n_xi - 1)),
                  draw(st.integers(0, n_zeta - 1))] = value
    return PatternGrid(xi_samples=xi, zeta_samples=zeta, gains=gains)


@given(pattern=pattern_grids(specials=True))
def test_pattern_csv_matches_scalar_reference_on_random_grids(pattern):
    """Byte for byte, so a last-bit change in any dB value fails (the
    round trip below only holds to a relative 1e-12)."""
    assert pattern_csv_text(pattern) == _ref_pattern_csv_text(pattern)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pattern=pattern_grids())
def test_pattern_csv_round_trips_on_random_grids(tmp_path, pattern):
    """Axes come back bit for bit; gains come back floored at -120 dB, to
    the ulps that log10, %.17g and 10**(dB/10) each cost."""
    path = tmp_path / "pattern.csv"
    path.write_text(pattern_csv_text(pattern), encoding="utf-8")
    back = read_pattern_csv(path)
    assert np.array_equal(back.xi_samples, pattern.xi_samples)
    assert np.array_equal(back.zeta_samples, pattern.zeta_samples)
    floored = np.maximum(pattern.gains, 10.0 ** (metrics.DB_FLOOR / 10.0))
    assert np.allclose(back.gains, floored, rtol=1e-12, atol=0.0)


def _ref_coefficient_lines(surface):
    lines = ["m_v,m_h,beta,theta_radians"]
    for m_v in range(surface.geom.m_v):
        for m_h in range(surface.geom.m_h):
            lines.append(f"{m_v},{m_h},{_ref_fmt(surface.betas[m_v, m_h])},"
                         f"{_ref_fmt(surface.thetas[m_v, m_h])}")
    return lines


@pytest.mark.parametrize("m_v,m_h", [(8, 12), (1, 5), (5, 1)])
def test_coefficient_table_matches_scalar_reference_on_non_square_apertures(
        tmp_path, m_v, m_h):
    """Rows and columns of unequal length, so swapping m_v and m_h anywhere
    in the table's layout changes its bytes."""
    config = tmp_path / "aperture.json"
    config.write_text(json.dumps({
        "array": {"m_v": m_v, "m_h": m_h},
        "grid": {"q_v": 4, "q_h": 4},
        "lobes": [{"phi": "1/16 pi", "theta": "3/16 pi", "width": "pi/4"}],
        "incident": {"phi": "-1/16 pi", "theta": "1/8 pi"},
    }), encoding="utf-8")
    assert cli.main(["design", "--config", str(config), "--out", str(tmp_path)]) == 0
    _, surface, _ = cli._run_design(load_scenario(str(config)))
    lines = _ref_coefficient_lines(surface)
    assert len(lines) == 1 + m_v * m_h
    # Every element has its own (beta, theta), so a misplaced value shows.
    assert len({line.split(",", 2)[2] for line in lines[1:]}) == m_v * m_h
    assert (tmp_path / "ris_coefficients.csv").read_text(encoding="utf-8") \
        == "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["design", "cuts"])
def test_design_and_cut_tables_match_scalar_reference(command, tmp_path):
    config = str(Path(__file__).resolve().parent.parent
                 / "configs" / "paper_dual_beam.json")
    assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 0
    scenario = load_scenario(config)
    result, surface, _ = cli._run_design(scenario)
    if command == "design":
        expected = {"ris_coefficients.csv": _ref_coefficient_lines(surface)}
    else:
        expected = {}
        for i, spec in enumerate(scenario.output.cuts):
            profile = metrics.cut(result.beamformer, scenario.grid, scenario.geom,
                                  spec["axis"], spec["value"], resolution=1024)
            expected[f"cut_{i:02d}_{spec['axis']}.csv"] = ["angle_radians,gain_db"] + [
                f"{_ref_fmt(a)},{_ref_fmt(g)}"
                for a, g in zip(profile.angles, profile.gains_db)]
    assert expected
    for name, lines in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == "\n".join(lines) + "\n"
