"""Steering vectors, beamforming gain, and pattern sampling for planar arrays.

Element (m_v, m_h) of an M_v x M_h array responds to a plane wave from
transform-domain direction (xi, zeta) with phase exp(j*(m_v*xi + m_h*zeta)).
Vectors are flattened row-major: flat index m_v * M_h + m_h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, PsiPoint, SolidAngle

TWO_PI = 2.0 * math.pi


def steering(count: int, coords) -> np.ndarray:
    """(count, n) axis responses exp(j*m*coords[k]), m = 0..count-1: every array
    response is built from these columns (negate ``coords`` to conjugate).  A
    transposed view, since exp runs faster along m than across coords."""
    return np.exp(1j * np.outer(coords, np.arange(count))).T


def directivity_axis(count: int, coord: float) -> np.ndarray:
    """Per-axis steering vector [1, e^{j*coord}, ..., e^{j*(count-1)*coord}]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return steering(count, [coord])[:, 0]


def directivity(geom: ArrayGeometry, point: PsiPoint) -> np.ndarray:
    """Full steering vector, the Kronecker product of the two axis vectors."""
    return np.kron(directivity_axis(geom.m_v, point.xi),
                   directivity_axis(geom.m_h, point.zeta))


def solid_angle_directivity(geom: ArrayGeometry, angle: SolidAngle) -> np.ndarray:
    """Steering vector straight from the direction cosines.

    Element (m_v, m_h) sits at (m_h*d_x, 0, m_v*d_z) in an x-z plane; the
    unit propagation vector for elevation phi / azimuth theta is
    (cos(phi)sin(theta), cos(phi)cos(theta), sin(phi)).  Must agree with
    directivity() evaluated at the (xi, zeta) image of the angle.
    """
    ux = math.cos(angle.phi) * math.sin(angle.theta)
    uz = math.sin(angle.phi)
    phase_v = TWO_PI * geom.d_z_over_lambda * uz * np.arange(geom.m_v)
    phase_h = TWO_PI * geom.d_x_over_lambda * ux * np.arange(geom.m_h)
    return np.kron(np.exp(1j * phase_v), np.exp(1j * phase_h))


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm complex feed vector for an M_v x M_h array."""

    entries: np.ndarray
    m_v: int
    m_h: int

    def __post_init__(self):
        if self.entries.shape != (self.m_v * self.m_h,):
            raise ValueError("entry count must equal m_v * m_h")
        nrm = np.linalg.norm(self.entries)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"beamformer norm {nrm} is not 1")

    @classmethod
    def normalized(cls, entries: np.ndarray, m_v: int, m_h: int) -> "Beamformer":
        vec = np.asarray(entries, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(entries=vec / nrm, m_v=m_v, m_h=m_h)

    @classmethod
    def steering(cls, geom: ArrayGeometry, point: PsiPoint) -> "Beamformer":
        return cls(entries=directivity(geom, point) / math.sqrt(geom.m),
                   m_v=geom.m_v, m_h=geom.m_h)

    def as_grid(self) -> np.ndarray:
        """Entries reshaped to (m_v, m_h)."""
        return self.entries.reshape(self.m_v, self.m_h)


@dataclass(frozen=True)
class PatternGrid:
    """Sampled linear-gain surface over a (xi, zeta) rectangle."""

    xi_samples: np.ndarray
    zeta_samples: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        if self.gains.shape != (self.xi_samples.size, self.zeta_samples.size):
            raise ValueError("gain array shape must match sample axes")


def sample_gains(weights_grid: np.ndarray, xi_samples: np.ndarray,
                 zeta_samples: np.ndarray) -> np.ndarray:
    """|d(xi, zeta)^H w|^2 on the sample product grid, vectorized.

    ``weights_grid`` is any complex (m_v, m_h) array; rows of the result
    follow xi_samples, columns zeta_samples.
    """
    m_v, m_h = weights_grid.shape
    field = steering(m_v, -xi_samples).T @ weights_grid @ steering(m_h, -zeta_samples)
    return np.abs(field) ** 2


def gains_along(weights_grid: np.ndarray, xi: np.ndarray,
                zeta: np.ndarray) -> np.ndarray:
    """Gain along a parametric (xi(s), zeta(s)) curve rather than a product grid."""
    m_v, m_h = weights_grid.shape
    field = ((steering(m_v, -xi).T @ weights_grid) * steering(m_h, -zeta).T).sum(axis=1)
    return np.abs(field) ** 2


def gain(c: Beamformer, point: PsiPoint) -> float:
    """Beamforming gain |d(point)^H c|^2; real, in [0, M]."""
    return float(sample_gains(c.as_grid(), np.array([point.xi]),
                              np.array([point.zeta]))[0, 0])


def gain_integral(c: Beamformer, quadrature_resolution: int = 512) -> float:
    """Trapezoidal approximation of the gain integral over one full period.

    The integrand is 2*pi-periodic in both coordinates, so the trapezoidal
    rule on [-pi, pi) collapses to equal weights; the analytic value is
    (2*pi)^2 for any unit-norm beamformer.
    """
    n = quadrature_resolution
    samples = -math.pi + TWO_PI * np.arange(n) / n
    g = sample_gains(c.as_grid(), samples, samples)
    return float(g.mean() * TWO_PI ** 2)
