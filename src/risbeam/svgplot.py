"""Static SVG heatmaps, emitted directly with no plotting dependency.

One rect per sample cell (grids above 256 per axis are strided down),
a perceptually ordered colormap, radian axis labels, and a dB colorbar.
Output is byte-deterministic for identical inputs apart from the fixed
generator comment.
"""

from __future__ import annotations


import numpy as np

GENERATOR_COMMENT = "<!-- risbeam heatmap generator v1 -->"

# Anchor points of the viridis colormap, evenly spaced in [0, 1].
_VIRIDIS = [
    (68, 1, 84), (71, 19, 101), (72, 36, 117), (70, 52, 128),
    (65, 68, 135), (59, 82, 139), (53, 95, 141), (47, 108, 142),
    (42, 120, 142), (37, 132, 142), (33, 145, 140), (30, 156, 137),
    (34, 168, 132), (47, 180, 124), (68, 191, 112), (94, 201, 98),
    (122, 209, 81), (155, 217, 60), (189, 223, 38), (223, 227, 24),
    (253, 231, 37),
]


_ANCHORS = np.array(_VIRIDIS, dtype=float)
_PACK = np.array([1 << 16, 1 << 8, 1])


def _rgb(frac: np.ndarray) -> np.ndarray:
    """Colours 0xRRGGBB of an array of fractions, clamped to [0, 1] (NaN reads as 0).

    The arithmetic is the scalar interpolation's, element by element, and
    np.rint rounds half to even like Python's round, so each colour is
    the one a per-value loop would give.
    """
    frac = np.fmin(1.0, np.fmax(0.0, frac))
    pos = frac * (len(_VIRIDIS) - 1)
    i = np.minimum(pos.astype(np.intp), len(_VIRIDIS) - 2)
    w = (pos - i)[..., None]
    rgb = np.rint((1 - w) * _ANCHORS[i] + w * _ANCHORS[i + 1]).astype(np.intp)
    return rgb @ _PACK


class _HexColours(dict):
    """"#rrggbb" of each 0xRRGGBB looked up, each string built on first use."""

    def __missing__(self, rgb: int) -> str:
        self[rgb] = name = "#%06x" % rgb
        return name


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def heatmap_svg(gains_db: np.ndarray, xi_samples: np.ndarray,
                zeta_samples: np.ndarray, title: str = "",
                vmin: float | None = None, vmax: float | None = None,
                max_cells: int = 256) -> str:
    """Render a dB gain surface (rows = xi, columns = zeta) as an SVG string."""
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

    # Sample cells; row 0 (smallest xi) is drawn at the bottom.  The text
    # around each cell's y and fill is fixed per call, so a row is one join
    # of those pieces with its y and fills slotted in.  Colours are computed
    # a row at a time, so no whole-grid array is held.
    n = g.shape[1]
    size = f'width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}"'
    cells = [None] * (4 * n + 1)
    cells[0::2] = "\n".join(f'<rect x="{ml + c * cw:.2f}" y="%s" {size} fill="%s"/>'
                            for c in range(n)).split("%s")
    hexes = _HexColours()
    for r in range(g.shape[0]):
        cells[1::4] = [f"{mt + plot_h - (r + 1) * ch:.2f}"] * n
        cells[3::4] = map(hexes.__getitem__, _rgb((g[r] - vmin) / span).tolist())
        out.append("".join(cells))

    out.append(f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{plot_w:.1f}" '
               f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>')

    for z in _ticks(float(zeta[0]), float(zeta[-1])):
        x = ml + (z - zeta[0]) / (zeta[-1] - zeta[0] or 1.0) * plot_w
        out.append(f'<line x1="{x:.1f}" y1="{mt + plot_h:.1f}" x2="{x:.1f}" '
                   f'y2="{mt + plot_h + 5:.1f}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + plot_h + 20:.1f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'text-anchor="middle">{z:.2f}</text>')
    for v in _ticks(float(xi[0]), float(xi[-1])):
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

    # Colorbar.
    bar_x = ml + plot_w + 30.0
    bar_w = 18.0
    steps = 64
    bar_colors = list(map(hexes.__getitem__,
                          _rgb((np.arange(steps) + 0.5) / steps).tolist()))
    for i in range(steps):
        y = mt + plot_h * (1.0 - (i + 1.0) / steps)
        out.append(f'<rect x="{bar_x:.1f}" y="{y:.2f}" width="{bar_w:.1f}" '
                   f'height="{plot_h / steps + 0.05:.2f}" fill="{bar_colors[i]}"/>')
    out.append(f'<rect x="{bar_x:.1f}" y="{mt:.1f}" width="{bar_w:.1f}" '
               f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>')
    for v in _ticks(vmin, vmax):
        y = mt + plot_h * (1.0 - (v - vmin) / span)
        out.append(f'<text x="{bar_x + bar_w + 6:.1f}" y="{y + 4:.1f}" '
                   f'font-family="sans-serif" font-size="11">{v:.1f}</text>')
    out.append(f'<text x="{bar_x + bar_w / 2:.1f}" y="{mt - 8:.1f}" '
               f'font-family="sans-serif" font-size="12" text-anchor="middle">dB</text>')
    # An empty last line ends the text in a newline without copying it again.
    out += ['</svg>', '']
    return "\n".join(out)
