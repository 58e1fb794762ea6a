"""Solid-angle geometry for a planar reflecting array.

Directions are (elevation, azimuth) pairs for an array lying in the x-z
plane.  Beam synthesis happens in a transformed (xi, zeta) coordinate pair
in which the array response is shift-structured, so this module provides
the coordinate change, the rectangular coverage region, its uniform
partition into subregions, and the computation of the minimal set of
subregions covering a requested multi-lobe beam.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class OutOfImageError(ValueError):
    """A (xi, zeta) point has no real (phi, theta) preimage."""


class GridRangeError(ValueError):
    """A point lies outside the grid's coverage rectangle."""


class EmptyCoverError(ValueError):
    """A lobe has no positive-area intersection with the coverage rectangle."""


@dataclass(frozen=True)
class SolidAngle:
    """Direction as elevation ``phi`` and azimuth ``theta``, in radians."""

    phi: float
    theta: float

    def __post_init__(self):
        if not -math.pi / 2 - 1e-12 <= self.phi <= math.pi / 2 + 1e-12:
            raise ValueError(f"elevation {self.phi} outside [-pi/2, pi/2]")
        if not -math.pi - 1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"azimuth {self.theta} outside [-pi, pi]")


@dataclass(frozen=True)
class PsiPoint:
    """Transform-domain image of a direction: ``xi`` vertical, ``zeta`` horizontal."""

    xi: float
    zeta: float


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar array layout: element counts and spacing-to-wavelength ratios."""

    m_v: int
    m_h: int
    d_x_over_lambda: float = 0.5
    d_z_over_lambda: float = 0.5

    def __post_init__(self):
        if self.m_v < 1 or self.m_h < 1:
            raise ValueError("element counts must be >= 1")
        if self.d_x_over_lambda <= 0 or self.d_z_over_lambda <= 0:
            raise ValueError("spacing ratios must be > 0")

    @property
    def m(self) -> int:
        return self.m_v * self.m_h


@dataclass(frozen=True)
class PsiRect:
    """Axis-aligned rectangle in (xi, zeta) coordinates."""

    xi_min: float
    xi_max: float
    zeta_min: float
    zeta_max: float

    def __post_init__(self):
        if self.xi_min > self.xi_max or self.zeta_min > self.zeta_max:
            raise ValueError("rectangle bounds out of order")

    @property
    def area(self) -> float:
        return (self.xi_max - self.xi_min) * (self.zeta_max - self.zeta_min)

    def clip(self, other: "PsiRect") -> "PsiRect | None":
        """Intersection with ``other``, or None when it has no positive area."""
        xi_lo = max(self.xi_min, other.xi_min)
        xi_hi = min(self.xi_max, other.xi_max)
        z_lo = max(self.zeta_min, other.zeta_min)
        z_hi = min(self.zeta_max, other.zeta_max)
        if xi_hi - xi_lo <= 0.0 or z_hi - z_lo <= 0.0:
            return None
        return PsiRect(xi_lo, xi_hi, z_lo, z_hi)


@dataclass(frozen=True)
class AngularRect:
    """Axis-aligned rectangle in (phi, theta) coordinates."""

    phi_min: float
    phi_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        if self.phi_min > self.phi_max or self.theta_min > self.theta_max:
            raise ValueError("rectangle bounds out of order")

    @classmethod
    def from_center(cls, phi: float, theta: float, width_phi: float,
                    width_theta: float) -> "AngularRect":
        return cls(phi - width_phi / 2, phi + width_phi / 2,
                   theta - width_theta / 2, theta + width_theta / 2)


@dataclass(frozen=True)
class Lobe:
    """One compound beam: a finite union of axis-aligned rectangles.

    Rectangles may be given in angular (phi, theta) coordinates or directly
    in (xi, zeta); angular ones are mapped through the coordinate change at
    cover time.
    """

    rects: tuple

    def __post_init__(self):
        if not self.rects:
            raise ValueError("lobe needs at least one rectangle")
        for r in self.rects:
            if not isinstance(r, (AngularRect, PsiRect)):
                raise TypeError(f"unsupported lobe rectangle {type(r)!r}")

    @classmethod
    def around(cls, phi: float, theta: float, width: float,
               width_theta: float | None = None) -> "Lobe":
        """Single angular rectangle centered at (phi, theta)."""
        w_t = width if width_theta is None else width_theta
        return cls((AngularRect.from_center(phi, theta, width, w_t),))

    @classmethod
    def from_psi_rect(cls, rect: PsiRect) -> "Lobe":
        return cls((rect,))


@dataclass(frozen=True)
class MultiBeamSpec:
    """Requested reflected beam: one or more disjoint lobes."""

    lobes: tuple

    def __post_init__(self):
        if not self.lobes:
            raise ValueError("need at least one lobe")


@dataclass(frozen=True)
class GridAxis:
    """One axis of a PsiGrid: ``count`` cells of width ``delta`` over [-bound, bound)."""

    bound: float
    delta: float
    count: int

    def edge(self, i):
        """Edge i, a scalar or an index array; 1-based cell i is [edge(i-1), edge(i))."""
        return -self.bound + i * self.delta

    @property
    def edges(self) -> np.ndarray:
        return self.edge(np.arange(self.count + 1))


@dataclass(frozen=True)
class PsiGrid:
    """Uniform partition of the coverage rectangle into q_v x q_h subregions.

    Subregion (p, q), 1-based, is the half-open cell
    [xi_edge(p-1), xi_edge(p)) x [zeta_edge(q-1), zeta_edge(q)).
    """

    xi_bound: float
    zeta_bound: float
    q_v: int
    q_h: int
    delta_v: float = field(init=False)
    delta_h: float = field(init=False)

    def __post_init__(self):
        if self.q_v < 1 or self.q_h < 1:
            raise ValueError("division counts must be >= 1")
        if self.xi_bound <= 0 or self.zeta_bound <= 0:
            raise ValueError("bounds must be > 0")
        object.__setattr__(self, "delta_v", 2.0 * self.xi_bound / self.q_v)
        object.__setattr__(self, "delta_h", 2.0 * self.zeta_bound / self.q_h)

    @property
    def q(self) -> int:
        return self.q_v * self.q_h

    @property
    def axes(self) -> tuple:
        """The (xi, zeta) axes: rows p and columns q of the subregions."""
        return (GridAxis(self.xi_bound, self.delta_v, self.q_v),
                GridAxis(self.zeta_bound, self.delta_h, self.q_h))

    def xi_edge(self, p: int) -> float:
        return self.axes[0].edge(p)

    def zeta_edge(self, q: int) -> float:
        return self.axes[1].edge(q)

    def cell(self, p: int, q: int) -> PsiRect:
        """Closed bounding rectangle of subregion (p, q)."""
        if not (1 <= p <= self.q_v and 1 <= q <= self.q_h):
            raise GridRangeError(f"no subregion ({p}, {q}) in a "
                                 f"{self.q_v}x{self.q_h} grid")
        return PsiRect(self.xi_edge(p - 1), self.xi_edge(p),
                       self.zeta_edge(q - 1), self.zeta_edge(q))

    def rect(self) -> PsiRect:
        return PsiRect(-self.xi_bound, self.xi_bound,
                       -self.zeta_bound, self.zeta_bound)


@dataclass(frozen=True)
class CoverSet:
    """Subregion index pairs covering a multi-beam, plus the per-lobe breakdown."""

    indices: frozenset
    per_lobe: tuple

    @property
    def size(self) -> int:
        return len(self.indices)

    def sorted(self) -> list:
        return sorted(self.indices)


@dataclass(frozen=True)
class IdealGain:
    """Flat target level t spread over the covered subregions."""

    level_t: float
    cover: CoverSet
    grid: PsiGrid

    @property
    def level_db(self) -> float:
        return 10.0 * math.log10(self.level_t)


def ideal_gain_level(cover: CoverSet, grid: PsiGrid) -> IdealGain:
    """Target level t = (2*pi)^2 / (|A| * delta_v * delta_h).

    Spreading t over the cover area accounts for exactly the full-period
    gain integral of a unit-norm beamformer.
    """
    if cover.size == 0:
        raise EmptyCoverError("cover set is empty")
    t = TWO_PI ** 2 / (cover.size * grid.delta_v * grid.delta_h)
    return IdealGain(level_t=t, cover=cover, grid=grid)


def cover_mask(cover: CoverSet, grid: PsiGrid) -> np.ndarray:
    """Q_v x Q_h 0/1 matrix with a 1 at (p-1, q-1) for each covered subregion (p, q)."""
    if cover.size == 0:
        raise EmptyCoverError("cover set is empty")
    mask = np.zeros((grid.q_v, grid.q_h))
    cells = np.array(list(cover.indices)) - 1
    mask[cells[:, 0], cells[:, 1]] = 1.0
    return mask


def to_psi(angle: SolidAngle, geom: ArrayGeometry) -> PsiPoint:
    """Map a direction to its (xi, zeta) transform-domain image."""
    xi = TWO_PI * geom.d_z_over_lambda * math.sin(angle.phi)
    zeta = TWO_PI * geom.d_x_over_lambda * math.sin(angle.theta) * math.cos(angle.phi)
    return PsiPoint(xi, zeta)


def from_psi(point: PsiPoint, geom: ArrayGeometry) -> SolidAngle:
    """Invert :func:`to_psi` on the principal branch (|phi|, |theta| <= pi/2).

    Raises OutOfImageError when no real direction maps to the point.
    """
    kappa_z = TWO_PI * geom.d_z_over_lambda
    kappa_x = TWO_PI * geom.d_x_over_lambda
    s_phi = point.xi / kappa_z
    if abs(s_phi) > 1.0 + 1e-12:
        raise OutOfImageError(f"|xi|={abs(point.xi):.6g} exceeds {kappa_z:.6g}")
    phi = math.asin(min(1.0, max(-1.0, s_phi)))
    cos_phi = math.cos(phi)
    if cos_phi < 1e-15:
        if abs(point.zeta) > 1e-12:
            raise OutOfImageError("zeta must vanish at grazing elevation")
        return SolidAngle(phi, 0.0)
    s_theta = point.zeta / (kappa_x * cos_phi)
    if abs(s_theta) > 1.0 + 1e-12:
        raise OutOfImageError(
            f"|zeta|={abs(point.zeta):.6g} exceeds {kappa_x * cos_phi:.6g} "
            f"at elevation {phi:.6g}")
    theta = math.asin(min(1.0, max(-1.0, s_theta)))
    return SolidAngle(phi, theta)


def psi_bounds(geom: ArrayGeometry, phi_bound: float,
               theta_bound: float) -> tuple:
    """Half-widths of the coverage rectangle image for angular bounds.

    The zeta extreme is attained at zero elevation, so the horizontal
    half-width carries no cos(phi) factor.
    """
    xi_b = TWO_PI * geom.d_z_over_lambda * math.sin(phi_bound)
    zeta_b = TWO_PI * geom.d_x_over_lambda * math.sin(theta_bound)
    return xi_b, zeta_b


def make_grid(q_v: int, q_h: int, xi_bound: float, zeta_bound: float) -> PsiGrid:
    """Partition [-xi_bound, xi_bound) x [-zeta_bound, zeta_bound) uniformly."""
    return PsiGrid(xi_bound=xi_bound, zeta_bound=zeta_bound, q_v=q_v, q_h=q_h)


def subregion_of(point: PsiPoint, grid: PsiGrid) -> tuple:
    """1-based (p, q) of the unique half-open subregion containing the point."""
    if not (-grid.xi_bound <= point.xi < grid.xi_bound):
        raise GridRangeError(f"xi={point.xi:.6g} outside "
                             f"[{-grid.xi_bound:.6g}, {grid.xi_bound:.6g})")
    if not (-grid.zeta_bound <= point.zeta < grid.zeta_bound):
        raise GridRangeError(f"zeta={point.zeta:.6g} outside "
                             f"[{-grid.zeta_bound:.6g}, {grid.zeta_bound:.6g})")
    p = int(math.floor((point.xi + grid.xi_bound) / grid.delta_v)) + 1
    q = int(math.floor((point.zeta + grid.zeta_bound) / grid.delta_h)) + 1
    # Guard against edge rounding at the last cell boundary.
    p = min(p, grid.q_v)
    q = min(q, grid.q_h)
    return p, q


def lobe_psi_rects(lobe: Lobe, geom: ArrayGeometry) -> list:
    """Transform-domain rectangles of a lobe.

    Angular rectangles are replaced by the axis-aligned bounding box of
    their transformed corner points: xi depends on phi alone and zeta is
    monotone in theta at fixed phi, so corners bound the true image.
    """
    out = []
    for r in lobe.rects:
        if isinstance(r, PsiRect):
            out.append(r)
            continue
        corners = [
            to_psi(SolidAngle(r.phi_min, r.theta_min), geom),
            to_psi(SolidAngle(r.phi_min, r.theta_max), geom),
            to_psi(SolidAngle(r.phi_max, r.theta_min), geom),
            to_psi(SolidAngle(r.phi_max, r.theta_max), geom),
        ]
        xs = [c.xi for c in corners]
        zs = [c.zeta for c in corners]
        out.append(PsiRect(min(xs), max(xs), min(zs), max(zs)))
    return out


def _axis_hits(lo: float, hi: float, axis: GridAxis) -> list:
    """1-based cells i of one axis whose extent [edge(i-1), edge(i)] overlaps
    [lo, hi] with positive length: min(hi, edge(i)) - max(lo, edge(i-1)) > 0."""
    edges = axis.edges
    overlap = np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1])
    return (np.flatnonzero(overlap > 0.0) + 1).tolist()


def cover_set(spec: MultiBeamSpec, grid: PsiGrid, geom: ArrayGeometry) -> CoverSet:
    """Minimal subregion cover of every lobe of ``spec``.

    Lobe rectangles are clipped to the coverage rectangle first; a lobe
    left with zero area raises EmptyCoverError.
    """
    bounds = grid.rect()
    per_lobe = []
    for i, lobe in enumerate(spec.lobes):
        cells = set()
        clipped_any = False
        for rect in lobe_psi_rects(lobe, geom):
            clipped = rect.clip(bounds)
            if clipped is None:
                continue
            clipped_any = True
            # A cell meets the rectangle with positive area exactly when its
            # row and its column each overlap it with positive length.
            axis_v, axis_h = grid.axes
            rows = _axis_hits(clipped.xi_min, clipped.xi_max, axis_v)
            cols = _axis_hits(clipped.zeta_min, clipped.zeta_max, axis_h)
            cells.update(itertools.product(rows, cols))
        if not clipped_any or not cells:
            raise EmptyCoverError(
                f"lobe {i} has no positive-area overlap with the coverage "
                f"rectangle")
        per_lobe.append(frozenset(cells))
    indices = frozenset().union(*per_lobe)
    return CoverSet(indices=indices, per_lobe=tuple(per_lobe))
