"""Least-squares synthesis of multi-lobe beamformers.

The target is a flat gain plateau of level t over the covered subregions
and zero elsewhere.  Factoring the plateau through equal-gain vectors
turns the fit into a linear least-squares problem in the feed vector;
its L -> infinity limit has a closed form built from per-axis sinc
factors, and any finite sampling rate L_v x L_h per subregion gives
either the scalar-inverse approximation of the normal equations or the
exact pseudo-inverse solution.  Where a subregion spans only a beamwidth
or two, the closed form keeps its roll-off inside the cover; the refined
design removes it by alternating projections on an FFT grid of the full
period.

All synthesis paths return a unit-norm beamformer; absolute scale is
irrelevant to the gain shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import Beamformer, steering
from .geometry import (ArrayGeometry, CoverSet, EmptyCoverError, GridAxis, IdealGain,
                       PsiGrid, cover_mask, ideal_gain_level)
from . import metrics, ris

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EqualGainParams:
    """Phase-ramp parameters of the equal-gain factor, one pair for all subregions."""

    eta_v: float = 0.0
    eta_h: float = 0.0

    def __post_init__(self):
        for v in (self.eta_v, self.eta_h):
            if not math.isfinite(v) or not -TWO_PI < v < TWO_PI:
                raise ValueError(f"eta {v} outside (-2*pi, 2*pi)")


@dataclass(frozen=True)
class MethodInfo:
    name: str
    l_v: int | None = None
    l_h: int | None = None
    exact_ls: bool | None = None
    residual: float | None = None
    rank_deficient: bool = False


@dataclass(frozen=True)
class DesignResult:
    beamformer: Beamformer
    cover: CoverSet
    grid: PsiGrid
    ideal: IdealGain
    params: EqualGainParams
    method: MethodInfo


def approx_ls_scale(l_total: int, q_total: int, delta_v: float, delta_h: float,
                    cover_size: int) -> float:
    """Scalar replacing the normal-matrix inverse in the approximate solve."""
    return TWO_PI / (l_total * q_total *
                     math.sqrt(delta_v * delta_h * cover_size))


def cover_sum(cover: CoverSet, grid: PsiGrid, a_v: np.ndarray,
              a_h: np.ndarray) -> np.ndarray:
    """Sum over covered subregions of per-cell outer products, as one matrix product.

    Cell (p, q) contributes the outer product of
    a_v[m_v] * exp(j*m_v*xi_edge(p-1)) and a_h[m_h] * exp(j*m_h*zeta_edge(q-1)).
    With E_a[m, p] = exp(j*m*edge_a(p-1)) the sum is
    (diag(a_v) E_v) . Mask . (diag(a_h) E_h)^T, shape (len(a_v), len(a_h)).
    """
    e_v, e_h = (a[:, None] * steering(a.size, axis.edges[:-1])
                for a, axis in zip((a_v, a_h), grid.axes))
    return e_v @ cover_mask(cover, grid) @ e_h.T


def _sinc_factor(delta: float, count: int, eta: float) -> np.ndarray:
    """Closed-form axis factor exp(j*x/2)*sinc(x/(2*pi)), x = delta*m + eta."""
    x = delta * np.arange(count) + eta
    return np.exp(1j * x / 2.0) * np.sinc(x / TWO_PI)


def closed_form_vector(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
                       params: EqualGainParams) -> np.ndarray:
    """Unnormalized closed-form beamformer entries (the L -> infinity limit).

    Entry (m_v, m_h) sums, over covered subregions, the lower-corner phase
    exp(j*(m_v*xi_edge + m_h*zeta_edge)) times per-axis factors
    exp(j*x_a/2)*sinc(x_a/(2*pi)) with x_a = delta_a*m_a + eta_a, scaled
    by 2*pi/Q.  sinc is the normalized one, sin(pi*u)/(pi*u).
    """
    return (TWO_PI / grid.q) * cover_sum(
        cover, grid, _sinc_factor(grid.delta_v, geom.m_v, params.eta_v),
        _sinc_factor(grid.delta_h, geom.m_h, params.eta_h)).ravel()


def design_closed_form(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
                       params: EqualGainParams = EqualGainParams()) -> DesignResult:
    """Closed-form multi-lobe design, normalized to a unit-norm beamformer."""
    vec = closed_form_vector(cover, grid, geom, params)
    return DesignResult(
        beamformer=Beamformer.normalized(vec, geom.m_v, geom.m_h),
        cover=cover, grid=grid, ideal=ideal_gain_level(cover, grid),
        params=params, method=MethodInfo(name="closed_form"))


# Alternating-projection refinement in the style of Gerchberg & Saxton
# (Optik 35, 1972) and Fienup (Appl. Opt. 21(15), 1982).  The constants
# hold for every scenario.  A wider guard lowers interior ripple and
# raises leakage; a wider band does the reverse.
REFINE_OVERSAMPLE = 8      # FFT samples per array beamwidth 2*pi/M, per axis
REFINE_GUARD = 0.5         # guard band around the cover, in beamwidths
REFINE_BAND_DB = 2.0       # peak-to-peak gain band the field step allows
REFINE_ITERATIONS = 400


def _axis_cell_masks(n: int, axis: GridAxis, margin: float) -> np.ndarray:
    """(n, count) mask: FFT sample k of the period lies in cell i widened by margin.

    Sample k sits at 2*pi*k/n, so membership is tested modulo 2*pi; cells
    are half-open like the subregions of metrics.report.
    """
    x = TWO_PI * np.arange(n) / n
    lo = axis.edges[:-1] - margin
    return np.mod(x[:, None] - lo[None, :], TWO_PI) < axis.delta + 2.0 * margin


def fft_cover_masks(cover: CoverSet, grid: PsiGrid, m_v: int, m_h: int):
    """Cover and guarded-support masks on the oversampled FFT grid of the full period.

    The grid has REFINE_OVERSAMPLE * (m_v, m_h) samples in np.fft order.
    The support is the cover widened by REFINE_GUARD beamwidths on each
    axis; both masks are the cover-mask matrix product E_v . Mask . E_h^T.
    """
    mask = cover_mask(cover, grid)
    axis_v, axis_h = grid.axes

    def masks(margin_v, margin_h):
        e_v = _axis_cell_masks(REFINE_OVERSAMPLE * m_v, axis_v, margin_v)
        e_h = _axis_cell_masks(REFINE_OVERSAMPLE * m_h, axis_h, margin_h)
        return (e_v @ mask @ e_h.T) > 0.0

    return (masks(0.0, 0.0),
            masks(REFINE_GUARD * TWO_PI / m_v, REFINE_GUARD * TWO_PI / m_h))


def refine_pattern(weights: np.ndarray, target: np.ndarray, pinned: np.ndarray,
                   support: np.ndarray, unit_modulus: bool = False) -> np.ndarray:
    """Alternate between an aperture and its pattern on an FFT grid of the period.

    ``weights`` is the (m_v, m_h) start; ``target``, ``pinned`` and
    ``support`` share the FFT grid's shape.  Field step: the pattern's
    magnitude on the pinned samples is clipped into a REFINE_BAND_DB band
    around ``target`` scaled to the same power there, every sample outside
    the support is zeroed, and the rest stay free.  Aperture step: the
    inverse transform truncated to the aperture, which is the nearest
    aperture-limited pattern, then with ``unit_modulus`` reduced to its
    phases.  Runs REFINE_ITERATIONS rounds; returns the (m_v, m_h)
    weights, unnormalized.
    """
    m_v, m_h = weights.shape
    half_band = 10.0 ** (REFINE_BAND_DB / 40.0)
    goal = target[pinned]
    goal_power = float(np.sum(goal ** 2))
    w = weights
    for _ in range(REFINE_ITERATIONS):
        field = np.fft.fft2(w, s=support.shape)
        mag = np.abs(field[pinned])
        ref = goal * math.sqrt(float(np.sum(mag ** 2)) / goal_power)
        field[pinned] *= (np.clip(mag, ref / half_band, ref * half_band)
                          / np.maximum(mag, np.finfo(float).tiny))
        field[~support] = 0.0
        w = np.fft.ifft2(field)[:m_v, :m_h]
        if unit_modulus:
            w = np.exp(1j * np.angle(w))
    return w


def design_refined(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
                   params: EqualGainParams = EqualGainParams()) -> DesignResult:
    """Closed-form design refined toward a flat plateau with sharp edges.

    Starting from the closed form, refine_pattern pulls the in-cover gain
    into a REFINE_BAND_DB band around its own mean power and removes all
    radiation beyond REFINE_GUARD beamwidths of the cover, leaving the
    guard band free for the roll-off.  This trades the truncated series'
    in-cover roll-off, which the closed form keeps when a subregion spans
    only one or two beamwidths, for a little more leakage.
    """
    start = closed_form_vector(cover, grid, geom, params)
    in_cover, support = fft_cover_masks(cover, grid, geom.m_v, geom.m_h)
    vec = refine_pattern(start.reshape(geom.m_v, geom.m_h),
                         np.ones(in_cover.shape), in_cover, support)
    return DesignResult(
        beamformer=Beamformer.normalized(vec, geom.m_v, geom.m_h),
        cover=cover, grid=grid, ideal=ideal_gain_level(cover, grid),
        params=params, method=MethodInfo(name="refined"))


def unit_modulus_fallback(config: ris.RisConfig, cover: CoverSet,
                          grid: PsiGrid) -> ris.RisConfig:
    """Phase-only coefficients whose pattern tracks the amplitude-controlled one.

    Keeping the phases of ``config`` (ris.unit_modulus_project) breaks a
    multi-lobe plateau into fragments.  This starts there and runs
    refine_pattern with a unit-modulus aperture step: the pattern is
    pulled toward the magnitude of ``config``'s own pattern over the
    cover and its guard band, and zeroed beyond.  Every amplitude is
    exactly 1; ``config`` is not modified.
    """
    wave = ris.incident_wave(config.incident, config.geom)
    _, support = fft_cover_masks(cover, grid, *wave.shape)
    target = np.abs(np.fft.fft2(ris.element_coefficients(config) * wave, s=support.shape))
    start = ris.element_coefficients(ris.unit_modulus_project(config)) * wave
    weights = refine_pattern(start, target, support, support, unit_modulus=True)
    coeff = weights * wave.conj()
    return replace(config, betas=np.ones_like(config.betas),
                   thetas=np.mod(np.angle(coeff), TWO_PI))


def _axis_sample_points(axis: GridAxis, l_count: int) -> np.ndarray:
    """All per-axis sample coordinates, cells concatenated in order."""
    offsets = axis.delta * np.arange(1, l_count + 1) / l_count
    return (axis.edges[:-1, None] + offsets[None, :]).ravel()


def _axis_normal_matrix(samples: np.ndarray, m_count: int) -> np.ndarray:
    d = steering(m_count, samples)
    return d @ d.conj().T


def _normal_matrices(grid: PsiGrid, geom: ArrayGeometry, l_v: int, l_h: int):
    """Per-axis factors G_v, G_h of the normal matrix D D^H = G_v (x) G_h."""
    axis_v, axis_h = grid.axes
    return (_axis_normal_matrix(_axis_sample_points(axis_v, l_v), geom.m_v),
            _axis_normal_matrix(_axis_sample_points(axis_h, l_h), geom.m_h))


EIG_CUTOFF = 0.1


def _truncated_inverse(mat: np.ndarray):
    """Eigenvalue-truncated inverse of a Hermitian PSD matrix.

    Returns the inverse restricted to eigendirections above EIG_CUTOFF
    times the largest eigenvalue, plus a flag telling whether anything
    was discarded.
    """
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > EIG_CUTOFF * vals[-1]
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    return (vecs * inv_vals) @ vecs.conj().T, bool(np.any(~keep))


def design_finite_l(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
                    params: EqualGainParams = EqualGainParams(),
                    l_v: int = 16, l_h: int = 16,
                    exact_ls: bool = False) -> DesignResult:
    """Finite-sampling least-squares design at L_v x L_h samples per subregion.

    With ``exact_ls`` off, the normal matrix is replaced by the scalar
    delta_v*delta_h*L*Q (exact only when the sampled axis spans a full
    2*pi period), giving c = sigma * sum of sampled steering vectors
    weighted by the equal-gain entries.  With ``exact_ls`` on, the normal
    equations are solved by pseudo-inverse, which absorbs the off-diagonal
    mass that the scalar approximation ignores.

    The fit residual of the raw (pre-normalization) solution is recorded
    in the method metadata; near-singular normal equations set the
    rank_deficient flag.
    """
    if cover.size == 0:
        raise EmptyCoverError("cover set is empty")
    if l_v < 1 or l_h < 1:
        raise ValueError("sample counts must be >= 1")
    l_total = l_v * l_h
    area = grid.delta_v * grid.delta_h

    def summed_samples(m_count, delta, l_count, eta):
        # sum over l = 1..L of g[l-1] * exp(j*m*l*delta/L): the in-cell part
        # of the sampled steering vectors, shared by every cell; cover_sum
        # adds each cell's lower-corner phase.  Row-major, since BLAS's order
        # of summation, and so the last bits of the design, follows the layout.
        offsets = delta * np.arange(1, l_count + 1) / l_count
        g = np.exp(1j * eta * np.arange(l_count) / l_count)
        return np.ascontiguousarray(steering(m_count, offsets)) @ g

    cells_sum = cover_sum(cover, grid,
                          summed_samples(geom.m_v, grid.delta_v, l_v, params.eta_v),
                          summed_samples(geom.m_h, grid.delta_h, l_h, params.eta_h))

    # rhs = D @ b with b the stacked equal-gain targets, 2*pi/sqrt(|A|) per cell.
    rhs = cells_sum * (math.sqrt(area) * TWO_PI / math.sqrt(cover.size))
    g_v_mat, g_h_mat = _normal_matrices(grid, geom, l_v, l_h)

    rank_deficient = False
    if exact_ls:
        # The normal matrix factors as area * kron(Gv, Gh), so its
        # pseudo-inverse is the Kronecker product of the per-axis ones.
        # Axes sampled over a partial period are prolate-like with an
        # eigenvalue plunge toward zero; those directions buy vanishing
        # residual for an exploding feed norm and are truncated per axis.
        inv_v, def_v = _truncated_inverse(g_v_mat)
        inv_h, def_h = _truncated_inverse(g_h_mat)
        rank_deficient = def_v or def_h
        raw = inv_v @ rhs @ inv_h.T / area
    else:
        sigma = approx_ls_scale(l_total, grid.q, grid.delta_v, grid.delta_h,
                                cover.size)
        raw = sigma * cells_sum

    residual = ls_residual(raw, rhs, g_v_mat, g_h_mat, area, l_total, cover.size)
    return DesignResult(
        beamformer=Beamformer.normalized(raw, geom.m_v, geom.m_h),
        cover=cover, grid=grid, ideal=ideal_gain_level(cover, grid),
        params=params,
        method=MethodInfo(name="finite_l", l_v=l_v, l_h=l_h, exact_ls=exact_ls,
                          residual=residual, rank_deficient=rank_deficient))


def ls_residual(raw: np.ndarray, rhs: np.ndarray, g_v_mat: np.ndarray,
                g_h_mat: np.ndarray, area: float, l_total: int,
                cover_size: int) -> float:
    """||b - D^H c||^2 without materializing the sample-domain vectors.

    Expands to ||b||^2 - 2 Re((D b)^H c) + c^H (D D^H) c, with c = raw and
    D b = rhs as (m_v, m_h) grids, ||b||^2 = (2*pi)^2 * L and D D^H per axis.
    """
    quad = area * np.vdot(raw, g_v_mat @ raw @ g_h_mat.T)
    val = TWO_PI ** 2 * l_total - 2.0 * np.real(np.vdot(rhs, raw)) + np.real(quad)
    return float(max(val, 0.0))


def dd_h_deviation(grid: PsiGrid, geom: ArrayGeometry, l_v: int, l_h: int) -> float:
    """Relative Frobenius distance of D D^H from its claimed scalar form.

    Zero exactly when every sampled axis spans a full 2*pi period (the
    per-axis sample phases are then roots of unity and cross terms cancel);
    positive otherwise, quantifying the error the approximate solve makes.

    D D^H = G_v (x) G_h, so with c_a = L_a*Q_a and E_a = G_a - c_a*I the
    deviation is E_v (x) G_h + c_v*I (x) E_h.  Every diagonal entry of G_a
    is a sum of c_a unit magnitudes, so tr E_a = 0 and the two terms are
    orthogonal: the squared norm is ||E_v||^2 ||G_h||^2 + c_v^2 M_v ||E_h||^2,
    from per-axis matrices alone, never the M x M Kronecker product.  Both
    terms are small when the deviation is; expanding through ||G_v||^2 ||G_h||^2
    and tr G_v tr G_h instead subtracts terms of order c^2 M and loses the
    exact zero to cancellation.
    """
    g_v, g_h = _normal_matrices(grid, geom, l_v, l_h)
    c_v, c_h = l_v * grid.q_v, l_h * grid.q_h
    norm_e_v = np.linalg.norm(g_v - c_v * np.eye(geom.m_v))
    norm_e_h = np.linalg.norm(g_h - c_h * np.eye(geom.m_h))
    deviation = math.hypot(norm_e_v * np.linalg.norm(g_h),
                           c_v * math.sqrt(geom.m_v) * norm_e_h)
    return float(deviation / (c_v * c_h * math.sqrt(geom.m)))


# Samples per axis of the full period on which a candidate ramp is scored.
ETA_RESOLUTION = 256


def _eta_scores(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry, etas_v,
                etas_h) -> np.ndarray:
    """Interior ripple plus 10x leakage of the closed form for every ramp pair.

    Each score is metrics.ripple_leakage of the normalized closed form
    sampled at ETA_RESOLUTION per axis, as in metrics.report.  That field
    is P_v . Mask . P_h^T with P_a(eta) = S_a^T diag(f_a(eta)) E_a, S_a the
    sample steering and f_a the sinc factors of closed_form_vector, so each
    axis factor is built once per eta and each pair costs one product
    through Mask.  Scaling by the closed form's own norm makes the dB floor
    apply as it does to the normalized pattern.  Returns
    (len(etas_v), len(etas_h)).
    """
    samples = np.linspace(-math.pi, math.pi, ETA_RESOLUTION)
    in_mask, interior = metrics._cover_masks(samples, samples, cover, grid,
                                             metrics.INTERIOR_SHRINK)
    mask = cover_mask(cover, grid)

    def axis_factors(m_count, axis, etas):
        cells = steering(m_count, axis.edges[:-1])
        sampled = steering(m_count, -samples).T
        return [sampled @ (_sinc_factor(axis.delta, m_count, eta)[:, None] * cells)
                for eta in etas]

    axis_v, axis_h = grid.axes
    p_v = [p @ mask for p in axis_factors(geom.m_v, axis_v, etas_v)]
    p_h = axis_factors(geom.m_h, axis_h, etas_h)
    scores = np.empty((len(etas_v), len(etas_h)))
    for i, eta_v in enumerate(etas_v):
        for j, eta_h in enumerate(etas_h):
            vec = closed_form_vector(cover, grid, geom, EqualGainParams(eta_v, eta_h))
            scale = (TWO_PI / grid.q) ** 2 / np.vdot(vec, vec).real
            field = p_v[i] @ p_h[j].T
            ripple, leakage = metrics.ripple_leakage(
                field.real ** 2 + field.imag ** 2, in_mask, interior, scale)
            scores[i, j] = ripple + 10.0 * leakage
    return scores


def eta_objective(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
                  params: EqualGainParams) -> float:
    """Scalar quality of a candidate phase ramp: interior ripple plus 10x leakage."""
    return float(_eta_scores(cover, grid, geom, [params.eta_v], [params.eta_h])[0, 0])


def centered_eta(grid: PsiGrid, geom: ArrayGeometry) -> EqualGainParams:
    """Phase ramp that moves the per-element taper onto the aperture.

    The element weight magnitude follows |sinc((delta_a*m_a + eta_a)/(2*pi))|,
    peaked at m_a = -eta_a/delta_a.  A one-sided array (indices 0..M_a-1)
    with a zero ramp therefore tapers hardest exactly where the target's
    spectral content sits, at the edge of the representable band, and
    roughly half the radiated power escapes the cover.  A ramp of
    -delta_a*(M_a - 1)/2 would center the peak on the aperture, but any
    ramp that is not a whole number of turns leaves phase seams between
    adjacent subregion targets, which dent the plateau at every interior
    cell boundary.  When a full turn is within reach of the centering
    value this returns one full turn (kept just inside the admissible
    open interval (-2*pi, 2*pi)): seam-free and still well inside the
    representable band.  Otherwise it returns the plain centering ramp.
    """
    def per_axis(delta: float, count: int) -> float:
        raw = -delta * (count - 1) / 2.0
        if round(-raw / TWO_PI) >= 1:
            return -(TWO_PI - 1e-9)
        return raw

    return EqualGainParams(eta_v=per_axis(grid.delta_v, geom.m_v),
                           eta_h=per_axis(grid.delta_h, geom.m_h))


def select_eta(cover: CoverSet, grid: PsiGrid, geom: ArrayGeometry,
               search_resolution: int = 5) -> EqualGainParams:
    """Grid-search the phase-ramp pair over [-delta_v, delta_v] x [-delta_h, delta_h].

    Ties break toward the smallest eta_v, then the smallest eta_h; a
    resolution of 1 evaluates only the range center (0, 0).
    """
    if search_resolution < 1:
        raise ValueError("search_resolution must be >= 1")
    if search_resolution == 1:
        cand_v = [0.0]
        cand_h = [0.0]
    else:
        cand_v = np.linspace(-grid.delta_v, grid.delta_v, search_resolution)
        cand_h = np.linspace(-grid.delta_h, grid.delta_h, search_resolution)
    scores = _eta_scores(cover, grid, geom, cand_v, cand_h)
    # argmin takes the first minimum in row-major order: smallest eta_v, then eta_h.
    i, j = np.unravel_index(np.argmin(scores), scores.shape)
    return EqualGainParams(eta_v=float(cand_v[i]), eta_h=float(cand_h[j]))
