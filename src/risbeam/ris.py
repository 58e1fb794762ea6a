"""Mapping beamformers onto passive reflecting-element coefficients.

A surface excited from incident direction omega_1 reproduces the gain
pattern of a feed vector c when each element's reflection coefficient is
the product of the feed entry and the conjugate incident phase.  Element
amplitudes are rescaled by the infinity norm so the strongest element
reflects fully; the passive constraint keeps every amplitude in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import Beamformer, directivity, directivity_axis
from .geometry import ArrayGeometry, SolidAngle, to_psi

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RisConfig:
    """Per-element reflection amplitudes and phases for one incident direction."""

    betas: np.ndarray
    thetas: np.ndarray
    incident: SolidAngle
    geom: ArrayGeometry

    def __post_init__(self):
        shape = (self.geom.m_v, self.geom.m_h)
        if self.betas.shape != shape or self.thetas.shape != shape:
            raise ValueError(f"coefficient arrays must have shape {shape}")
        if np.any(self.betas < -1e-12) or np.any(self.betas > 1.0 + 1e-12):
            raise ValueError("element amplitudes must lie in [0, 1]")


@dataclass(frozen=True)
class LinkScene:
    """Line-of-sight transmitter -> surface -> receiver geometry."""

    omega_t: SolidAngle
    omega_1: SolidAngle
    omega_2: SolidAngle
    omega_r: SolidAngle
    rho_t: complex = 1.0
    rho_r: complex = 1.0
    m_t: int = 1
    m_r: int = 1

    def __post_init__(self):
        if self.m_t < 1 or self.m_r < 1:
            raise ValueError("antenna counts must be >= 1")


def incident_wave(omega_1: SolidAngle, geom: ArrayGeometry) -> np.ndarray:
    """Incident wave exp(j*(m_v*xi_1 + m_h*zeta_1)) at each element, (m_v, m_h)."""
    psi1 = to_psi(omega_1, geom)
    return np.exp(1j * np.add.outer(psi1.xi * np.arange(geom.m_v),
                                    psi1.zeta * np.arange(geom.m_h)))


def ris_from_beamformer(c: Beamformer, omega_1: SolidAngle,
                        geom: ArrayGeometry) -> RisConfig:
    """Element coefficients realizing the gain pattern of ``c``.

    The amplitudes are divided by the largest feed magnitude, so
    max beta == 1 and the reflected power is maximal for the pattern shape.
    """
    if c.m_v != geom.m_v or c.m_h != geom.m_h:
        raise ValueError("beamformer and geometry sizes differ")
    peak = np.max(np.abs(c.entries))
    if peak == 0.0:
        raise ValueError("zero beamformer")
    scaled = c.as_grid() / peak
    coeff = scaled * incident_wave(omega_1, geom).conj()
    return RisConfig(betas=np.abs(coeff),
                     thetas=np.mod(np.angle(coeff), TWO_PI),
                     incident=omega_1, geom=geom)


def unit_modulus_project(config: RisConfig) -> RisConfig:
    """Drop amplitude control: every element reflects fully, phases kept."""
    return replace(config, betas=np.ones_like(config.betas))


def element_coefficients(config: RisConfig) -> np.ndarray:
    """Complex reflection coefficients beta * e^{j*theta}, shape (m_v, m_h)."""
    return config.betas * np.exp(1j * config.thetas)


def effective_weight_vector(config: RisConfig) -> np.ndarray:
    """Flat weight vector whose array response the reflection realizes.

    Entry (m_v, m_h) is the element coefficient times the incident wave,
    so the reflected amplitude toward psi_2 is d(psi_2)^H of this vector.
    """
    return (element_coefficients(config)
            * incident_wave(config.incident, config.geom)).ravel()


def reflection_coefficient(config: RisConfig, omega_1: SolidAngle,
                           omega_2: SolidAngle) -> complex:
    """Scalar cascade contribution a^H(omega_2) diag(coeffs) a(omega_1)."""
    geom = config.geom
    weights = element_coefficients(config) * incident_wave(omega_1, geom)
    return complex(np.vdot(directivity(geom, to_psi(omega_2, geom)), weights))


def effective_gain(config: RisConfig, omega_2: SolidAngle) -> complex:
    """Complex reflected amplitude toward omega_2 for the stored incident angle."""
    return reflection_coefficient(config, config.incident, omega_2)


def cascaded_channel(scene: LinkScene, config: RisConfig) -> np.ndarray:
    """End-to-end channel matrix (m_r x m_t) through the reflecting surface.

    Rank one by construction: the scalar reflection coefficient times the
    outer product of receive and transmit steering vectors and the two
    path gains.  The surface coefficients are applied at the scene's
    incident/departure angles, which need not match the angle the config
    was designed for.
    """
    gamma = reflection_coefficient(config, scene.omega_1, scene.omega_2)
    # Transmit/receive arrays are modeled as horizontal uniform lines at the
    # same spacing convention as the surface.
    a_r = directivity_axis(scene.m_r, to_psi(scene.omega_r, config.geom).zeta)
    a_t = directivity_axis(scene.m_t, to_psi(scene.omega_t, config.geom).zeta)
    return scene.rho_r * scene.rho_t * gamma * np.outer(a_r, np.conj(a_t))


def received_snr(scene: LinkScene, config: RisConfig, tx_power: float,
                 noise_var: float) -> float:
    """Link SNR in dB for isotropic transmission of total power ``tx_power``."""
    if tx_power <= 0 or noise_var <= 0:
        raise ValueError("powers must be > 0")
    h = cascaded_channel(scene, config)
    fro2 = float(np.sum(np.abs(h) ** 2))
    return 10.0 * math.log10(tx_power * fro2 / (scene.m_t * noise_var))
