"""Quantitative gain-pattern analysis: coverage statistics, cuts, comparisons.

Reports are computed from a uniformly sampled gain surface over the full
(xi, zeta) period, so re-analyzing a pattern written to disk reproduces
them.  Pattern sources can be a unit-norm beamformer, a raw complex
weight grid, or a reflecting-surface config (whose effective weights are
normalized first, making levels comparable to the ideal target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import Beamformer, PatternGrid, gains_along, sample_gains
from .geometry import (ArrayGeometry, CoverSet, EmptyCoverError, GridAxis, PsiGrid,
                       cover_mask, ideal_gain_level)
from . import ris

DB_FLOOR = -120.0
_FLOOR_LIN = 10.0 ** (DB_FLOOR / 10.0)
# Ripple is measured on every covered subregion shrunk by this fraction of
# its width per axis on each side, which leaves out the edge roll-off.
INTERIOR_SHRINK = 0.1
# Cut widths are measured this many dB below each crossing's peak.
CUT_LEVELS = (3.0, 10.0)


def to_db(value: float) -> float:
    """Linear power to dB with a -120 dB floor for vanishing gain."""
    return 10.0 * math.log10(max(value, _FLOOR_LIN))


def _weights_grid(source) -> np.ndarray:
    if isinstance(source, Beamformer):
        return source.as_grid()
    if isinstance(source, ris.RisConfig):
        w = ris.effective_weight_vector(source)
        return (w / np.linalg.norm(w)).reshape(source.geom.m_v, source.geom.m_h)
    arr = np.asarray(source, dtype=complex)
    if arr.ndim != 2:
        raise TypeError("pattern source must be a Beamformer, RisConfig, or "
                        "2D weight array")
    return arr


@dataclass(frozen=True)
class PatternReport:
    """dB statistics of a pattern over a cover region.

    mean_in_db is 10*log10 of the average linear gain (a power mean), so
    it tracks the in-cover energy; min/median/max commute with the dB map.
    """

    mean_in_db: float
    median_in_db: float
    min_in_db: float
    max_in_db: float
    ripple_db: float
    leakage_fraction: float
    ideal_level_db: float
    cover: CoverSet


@dataclass(frozen=True)
class CutProfile:
    """1D pattern cross-section with measured per-lobe widths."""

    axis: str
    fixed_value: float
    angles: np.ndarray
    gains_db: np.ndarray
    widths: dict


def _axis_membership(samples: np.ndarray, axis: GridAxis, shrink: float) -> np.ndarray:
    """(samples, count) 0/1 matrix: sample k lies in half-open cell i shrunk by
    ``shrink`` of its width on each side.  Unlike the FFT grid of the
    refinement, the sampled period is not wrapped: +pi lies beyond every cell.
    """
    edges = axis.edges
    lo, hi = edges[:-1], edges[1:]
    margin = shrink * (hi - lo)
    inside = (samples[:, None] >= lo + margin) & (samples[:, None] < hi - margin)
    return inside.astype(float)


def _cover_masks(xi_samples: np.ndarray, zeta_samples: np.ndarray, cover: CoverSet,
                 grid: PsiGrid, interior_shrink: float):
    """Samples inside the cover, and inside its subregions shrunk per axis
    by ``interior_shrink`` of their width on each side."""
    mask = cover_mask(cover, grid)

    def masks(shrink):
        in_v, in_h = (_axis_membership(samples, axis, shrink)
                      for samples, axis in zip((xi_samples, zeta_samples), grid.axes))
        return (in_v @ mask @ in_h.T) > 0.0

    in_mask = masks(0.0)
    if not in_mask.any():
        raise ValueError("sampling too coarse: no samples fall inside the cover")
    return in_mask, masks(interior_shrink)


def ripple_leakage(gains: np.ndarray, in_mask: np.ndarray, interior: np.ndarray,
                   scale: float = 1.0) -> tuple:
    """Ripple in dB over the interior, or over the cover when the interior holds no
    sample, of the gains times ``scale``; and the sampled power's share outside."""
    core = gains[interior] if interior.any() else gains[in_mask]
    total = float(gains.sum())
    leakage = 1.0 - float(gains[in_mask].sum()) / total if total > 0 else 1.0
    return (to_db(float(core.max()) * scale) - to_db(float(core.min()) * scale),
            leakage)


def report_from_pattern(grid_pattern: PatternGrid, cover: CoverSet,
                        grid: PsiGrid) -> PatternReport:
    """Coverage statistics of an already-sampled pattern.

    Leakage is the fraction of the sampled power falling outside the
    cover's subregions; ripple is measured only on subregions shrunk by
    INTERIOR_SHRINK per axis on each side, excluding edge roll-off.
    """
    if cover.size == 0:
        raise EmptyCoverError("cover set is empty")
    in_mask, interior = _cover_masks(grid_pattern.xi_samples, grid_pattern.zeta_samples,
                                     cover, grid, INTERIOR_SHRINK)
    in_gain = grid_pattern.gains[in_mask]
    ripple, leakage = ripple_leakage(grid_pattern.gains, in_mask, interior)
    return PatternReport(
        mean_in_db=to_db(float(in_gain.mean())),
        median_in_db=to_db(float(np.median(in_gain))),
        min_in_db=to_db(float(in_gain.min())),
        max_in_db=to_db(float(in_gain.max())),
        ripple_db=ripple,
        leakage_fraction=leakage,
        ideal_level_db=ideal_gain_level(cover, grid).level_db,
        cover=cover)


def report(source, cover: CoverSet, grid: PsiGrid,
           resolution: int = 512) -> PatternReport:
    """Sample the source's gain over the full period and analyze the cover."""
    if resolution < 32:
        raise ValueError("resolution must be >= 32")
    return report_from_pattern(sample_pattern(source, resolution), cover, grid)


def sample_pattern(source, resolution: int,
                   resolution_h: int | None = None) -> PatternGrid:
    """Inclusive uniform sampling of the source's gain over the full period.

    The one pattern sampler: ``resolution`` points per axis on
    [-pi, pi] (``resolution_h`` along zeta when given), endpoints included.
    """
    xi = np.linspace(-math.pi, math.pi, resolution)
    zeta = np.linspace(-math.pi, math.pi, resolution_h or resolution)
    return PatternGrid(xi_samples=xi, zeta_samples=zeta,
                       gains=sample_gains(_weights_grid(source), xi, zeta))


def _crossing(angles, gains_db, i_from, i_to, level_db):
    """Linear interpolation of the angle where the profile falls to level_db."""
    g0, g1 = gains_db[i_from], gains_db[i_to]
    if g0 == g1:
        return angles[i_to]
    frac = (g0 - level_db) / (g0 - g1)
    return angles[i_from] + frac * (angles[i_to] - angles[i_from])


def _lobe_widths(angles, gains_db, peak_idx, level_db):
    n = gains_db.size
    target = gains_db[peak_idx] - level_db
    right = None
    for i in range(peak_idx + 1, n):
        if gains_db[i] < target:
            right = _crossing(angles, gains_db, i - 1, i, target)
            break
    left = None
    for i in range(peak_idx - 1, -1, -1):
        if gains_db[i] < target:
            left = _crossing(angles, gains_db, i + 1, i, target)
            break
    if left is None or right is None:
        return None
    return right - left


def cut(source, grid: PsiGrid, geom: ArrayGeometry, axis: str, fixed_value: float,
        resolution: int = 512) -> CutProfile:
    """1D cross-section at fixed elevation (``fixed_phi``) or azimuth (``fixed_theta``).

    The swept angle runs over the whole visible half-space; lobe
    crossings are the contiguous runs within 3 dB of the cut maximum, and
    each crossing's width at ``peak - level`` for every CUT_LEVELS level is
    measured outward from its peak with linear interpolation.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    if axis not in ("fixed_phi", "fixed_theta"):
        raise ValueError(f"unknown cut axis {axis!r}")
    weights = _weights_grid(source)
    kappa_z = 2.0 * math.pi * geom.d_z_over_lambda
    kappa_x = 2.0 * math.pi * geom.d_x_over_lambda
    phi_bound = math.asin(min(1.0, grid.xi_bound / kappa_z))
    theta_bound = math.asin(min(1.0, grid.zeta_bound / kappa_x))
    # Skirts of lobes sitting at the coverage edge must stay measurable,
    # so the sweep is not limited to the coverage interval.
    angles = np.linspace(-math.pi / 2, math.pi / 2, resolution)
    if axis == "fixed_phi":
        if not -phi_bound <= fixed_value <= phi_bound:
            raise ValueError(f"fixed elevation {fixed_value:.6g} outside coverage")
        xi = np.full(resolution, kappa_z * math.sin(fixed_value))
        zeta = kappa_x * np.sin(angles) * math.cos(fixed_value)
    else:
        if not -theta_bound <= fixed_value <= theta_bound:
            raise ValueError(f"fixed azimuth {fixed_value:.6g} outside coverage")
        xi = kappa_z * np.sin(angles)
        zeta = kappa_x * math.sin(fixed_value) * np.cos(angles)
    gains_db = 10.0 * np.log10(np.maximum(gains_along(weights, xi, zeta),
                                          _FLOOR_LIN))

    widths = {level: [] for level in CUT_LEVELS}
    run_floor = gains_db.max() - 3.0
    above = gains_db >= run_floor
    if not above.all():
        edges = np.flatnonzero(np.diff(above.astype(int)))
        starts = [0] if above[0] else []
        starts += [int(e) + 1 for e in edges if above[e + 1]]
        ends = [int(e) for e in edges if above[e]]
        if above[-1]:
            ends.append(above.size - 1)
        for start, end in zip(starts, ends):
            peak_idx = start + int(np.argmax(gains_db[start:end + 1]))
            for level in CUT_LEVELS:
                w = _lobe_widths(angles, gains_db, peak_idx, level)
                if w is not None:
                    widths[level].append(w)
    return CutProfile(axis=axis, fixed_value=fixed_value, angles=angles,
                      gains_db=gains_db,
                      widths={k: tuple(v) for k, v in widths.items()})


def compare(report_a: PatternReport, report_b: PatternReport) -> float:
    """Mean-gain advantage of a over b in dB; both must cover the same region."""
    if report_a.cover.indices != report_b.cover.indices:
        raise ValueError("reports cover different regions")
    return report_a.mean_in_db - report_b.mean_in_db


def bounding_rectangle_cover(cover: CoverSet, grid: PsiGrid) -> CoverSet:
    """Smallest full rectangle of subregions containing ``cover``.

    This is the single-lobe baseline region: one axis-aligned block able
    to cover everything the multi-lobe cover does.
    """
    ps = [p for p, _ in cover.indices]
    qs = [q for _, q in cover.indices]
    cells = frozenset((p, q)
                      for p in range(min(ps), max(ps) + 1)
                      for q in range(min(qs), max(qs) + 1))
    return CoverSet(indices=cells, per_lobe=(cells,))


def _run_starts(mask: np.ndarray) -> np.ndarray:
    """Flat indices of the first sample of every horizontal run of a 2D bool mask."""
    first = mask.copy()
    first[:, 1:] &= ~mask[:, :-1]
    return np.flatnonzero(first)


def connected_components_above(grid_pattern: PatternGrid,
                               threshold_linear: float) -> int:
    """4-connected component count of the super-threshold sample set.

    The nodes are the horizontal runs of the mask.  Two runs in adjacent
    rows touch where mask[:-1] & mask[1:] holds; each run of that overlap
    is one edge, looked up by its first column.  Components are counted
    by min-label hooking and pointer jumping, after Shiloach & Vishkin
    (J. Algorithms 3, 1982).
    """
    mask = grid_pattern.gains > threshold_linear
    starts = _run_starts(mask)
    touch = _run_starts(mask[:-1] & mask[1:])
    upper = np.searchsorted(starts, touch, side="right") - 1
    lower = np.searchsorted(starts, touch + mask.shape[1], side="right") - 1
    label = np.arange(starts.size)
    while True:
        # Labels point to smaller labels only, so hooking makes no cycle.
        hooked = label.copy()
        np.minimum.at(hooked, label[upper], label[lower])
        np.minimum.at(hooked, label[lower], label[upper])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return int(np.count_nonzero(label == np.arange(label.size)))
        label = hooked
