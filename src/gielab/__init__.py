"""Gaussian intrinsic entanglement and Gaussian Renyi-2 entanglement of
two-mode Gaussian states: closed forms, purifications, Gaussian-measurement
conditioning and deterministic min-max verification."""

from .config import GridConfig
from .errors import (
    DomainNotCoveredError,
    GielabError,
    InvalidDimensionError,
    InvalidFamilyParamsError,
    InvalidInputError,
    InvalidMeasurementError,
    InvalidThreeModeError,
    NumericalDegeneracyError,
    UnphysicalStateError,
    WrongFamilyError,
)
from .gie import (
    GieResult,
    gie_closed_form,
    gie_numeric,
    k_h,
    k_h_determinant,
    minimize_kh,
    sym_glems_candidates,
    verified_domain,
)
from .information import f_decomposed, f_xx, gcmi_condition_g, gcmi_numeric, mutual_information_f
from .measurement import (
    FiniteMeasurement,
    GaussianMeasurement,
    HomodyneMeasurement,
    condition_on_e,
    general_single_mode,
    heterodyne,
    homodyne,
)
from .purification import Purification, purify, purify_asym_glems
from .renyi2 import (
    ThreeModePureParams,
    conjecture_gap,
    gr2_of_family,
    gr2_symmetric,
    gr2_two_mode_reduction,
)
from .states import StateFamily, StdForm, classify, is_separable, make_family, std_form_cm
from .symplectic import (
    CovMat,
    WilliamsonDecomposition,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)

__version__ = "0.1.0"
