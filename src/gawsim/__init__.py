"""Giant atoms coupled to a mirror-terminated 1D waveguide.

A small numpy library (plus a CLI) for the dissipative dynamics of
multi-point "giant" atoms in front of a mirror: master-equation
coefficients, an independent input-output network cross-derivation,
Lindblad and single-excitation time evolution, two-qubit concurrence, and
the search for decoherence-free interaction points.
"""

__version__ = "0.1.0"

from .analytic import ConcurrenceTerms, closed_form_concurrence_braided, concurrence_terms
from .coefficients import (
    MasterEqCoefficients,
    canonical_coefficients,
    general_coefficients,
)
from .dfi import DfiReport, check_dfi, scan_dfi
from .dynamics import (
    AmplitudeState,
    TrajectoryRecord,
    amplitude_trajectory,
    concurrence_from_amplitudes,
    evolve_amplitudes,
    evolve_lindblad,
    evolve_lindblad_many,
    wootters_concurrence,
)
from .errors import LayoutError, NumericalFailure
from .model import (
    CanonicalConfig,
    Configuration,
    ConnectionPoint,
    GiantAtomSpec,
    WaveguideLayout,
    build_canonical,
    build_custom,
    layout_from_json,
    layout_to_json,
)
from .slh import SLHTriplet, build_network, extract_coefficients

__all__ = [
    "AmplitudeState",
    "CanonicalConfig",
    "ConcurrenceTerms",
    "Configuration",
    "ConnectionPoint",
    "DfiReport",
    "GiantAtomSpec",
    "LayoutError",
    "MasterEqCoefficients",
    "NumericalFailure",
    "SLHTriplet",
    "TrajectoryRecord",
    "WaveguideLayout",
    "amplitude_trajectory",
    "build_canonical",
    "build_custom",
    "build_network",
    "canonical_coefficients",
    "check_dfi",
    "closed_form_concurrence_braided",
    "concurrence_from_amplitudes",
    "concurrence_terms",
    "evolve_amplitudes",
    "evolve_lindblad",
    "evolve_lindblad_many",
    "extract_coefficients",
    "general_coefficients",
    "layout_from_json",
    "layout_to_json",
    "scan_dfi",
    "wootters_concurrence",
]
