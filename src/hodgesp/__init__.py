"""Signal processing on simplicial and cell complexes via Hodge theory.

Build complexes from vertices, edges, triangles, and polygon cells; take
incidence matrices, Hodge Laplacians, and the Dirac operator; decompose
signals into gradient, curl, and harmonic parts; filter, sample, and
reconstruct them; model their time evolution; and infer which triangles a
set of observed flows wants filled.
"""

from .complexes import (
    Cochain,
    ComplexSignal,
    DiracOperator,
    SimplicialComplex,
    TopologyError,
    betti,
    build_complex,
    curl,
    dirac,
    dirac_shift,
    divergence,
    hodge_laplacian,
    incidence,
)
from .dictionaries import (
    HodgeDictionary,
    SlepianSet,
    build_dictionary,
    slepians,
    sparse_code,
)
from .filters import (
    ConvergenceWarning,
    HarmonicTerm,
    HodgeFilterSpec,
    apply_filter,
    dirac_filter,
    filterbank_edge,
    frequency_response,
    lambda_max,
    regularized_reconstruct,
)
from .inference import (
    DegenerateScoresWarning,
    infer_triangles,
    project_out_gradient,
    residual_energy,
    triangle_candidates,
)
from .sampling import (
    RankDeficientWarning,
    Recoverability,
    is_perfectly_recoverable,
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
)
from .spectral import (
    DiracBasis,
    FrequencyEntry,
    HodgeBasis,
    HodgeComponents,
    TftCoefficients,
    dirac_basis,
    dirac_itft,
    dirac_tft,
    frequency_table,
    hodge_basis,
    hodge_decompose,
    itft,
    tft,
)
from .timeseries import (
    IllConditionedWarning,
    LmsState,
    SCVarLag,
    SCVarModel,
    lms_build_regressor,
    lms_init,
    lms_step,
    scvar_fit,
    scvar_predict,
    scvar_simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Cochain", "ComplexSignal", "DiracOperator", "SimplicialComplex",
    "TopologyError", "betti", "build_complex", "curl", "dirac",
    "dirac_shift", "divergence", "hodge_laplacian", "incidence",
    "HodgeDictionary", "SlepianSet", "build_dictionary", "slepians",
    "sparse_code",
    "ConvergenceWarning", "HarmonicTerm", "HodgeFilterSpec", "apply_filter",
    "dirac_filter", "filterbank_edge", "frequency_response", "lambda_max",
    "regularized_reconstruct",
    "DegenerateScoresWarning", "infer_triangles", "project_out_gradient",
    "residual_energy", "triangle_candidates",
    "RankDeficientWarning", "Recoverability", "is_perfectly_recoverable",
    "parse_frequency_selector", "reconstruct_bandlimited", "select_samples",
    "DiracBasis", "FrequencyEntry", "HodgeBasis", "HodgeComponents",
    "TftCoefficients", "dirac_basis", "dirac_itft", "dirac_tft",
    "frequency_table", "hodge_basis", "hodge_decompose", "itft", "tft",
    "IllConditionedWarning", "LmsState", "SCVarLag", "SCVarModel",
    "lms_build_regressor", "lms_init", "lms_step", "scvar_fit",
    "scvar_predict", "scvar_simulate",
]
