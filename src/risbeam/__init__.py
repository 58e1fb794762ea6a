"""Multi-lobe reflection beam synthesis for planar reflecting surfaces."""

from .geometry import (
    AngularRect,
    ArrayGeometry,
    CoverSet,
    EmptyCoverError,
    GridRangeError,
    IdealGain,
    Lobe,
    MultiBeamSpec,
    OutOfImageError,
    PsiGrid,
    PsiPoint,
    PsiRect,
    SolidAngle,
    cover_set,
    from_psi,
    ideal_gain_level,
    make_grid,
    psi_bounds,
    subregion_of,
    to_psi,
)
from .arrays import (
    Beamformer,
    PatternGrid,
    directivity,
    directivity_axis,
    gain,
    gain_integral,
    solid_angle_directivity,
)
from .design import (
    DesignResult,
    EqualGainParams,
    MethodInfo,
    centered_eta,
    closed_form_vector,
    dd_h_deviation,
    design_closed_form,
    design_finite_l,
    design_refined,
    eta_objective,
    select_eta,
    unit_modulus_fallback,
)
from .ris import (
    LinkScene,
    RisConfig,
    cascaded_channel,
    effective_gain,
    effective_weight_vector,
    received_snr,
    ris_from_beamformer,
    unit_modulus_project,
)
from .metrics import (
    CutProfile,
    PatternReport,
    bounding_rectangle_cover,
    compare,
    connected_components_above,
    cut,
    report,
    report_from_pattern,
    sample_pattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
