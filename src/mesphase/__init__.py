"""mesphase: exact state algebra for pairs of d-level systems, d an odd prime.

Builds and verifies maximally entangled bases, the d+1 mutually unbiased
bases, center-of-mass/relative coordinate factorizations, and the phase-space
line states whose sums of entangled lattice points collapse to single-particle
product states.
"""

__version__ = "0.1.0"

from .collective import (
    CollectiveIndex,
    CollectiveOps,
    HopResult,
    PhasePoint,
    collective_ops,
    collective_permutation,
    collective_to_particle,
    format_word,
    hop,
    hop_dense,
    hop_trajectory,
    local_action,
    parse_word,
    particle_to_collective,
    point_state_minus,
    point_state_plus,
    word_matrix,
)
from .errors import (
    DimMismatch,
    FactorizationFailed,
    InvalidDimension,
    InvalidLabel,
    InvalidTolerance,
    MesphaseError,
    NotBijective,
    NotOrthonormal,
    WordParseError,
)
from .lines import (
    Line,
    LineFactorReport,
    LineState,
    all_lines,
    line_factor_table,
    line_points,
    line_state,
    mub_from_lines,
    schmidt_inversion_check,
)
from .mes import (
    MesBasisElement,
    RelabelingMap,
    build_relabeling,
    diagonalizer_for,
    mes_basis,
    mes_state,
    universal_state,
)
from .schwinger import (
    CB,
    BasisLabel,
    MubState,
    clock_z,
    mub_eigen_check,
    mub_eigen_residual,
    mub_family,
    mub_state,
    shift_x,
)
from .states import (
    DEFAULT_TOL,
    DensityOp,
    Ket,
    SchmidtDecomposition,
    UnitaryOp,
    equal_up_to_global_phase,
    is_mes,
    partial_trace,
    phase_canonical,
    schmidt_decompose,
    tensor,
)
from .verify import VerificationReport, run_suites

__all__ = [
    "__version__",
    # errors
    "MesphaseError",
    "DimMismatch",
    "NotOrthonormal",
    "NotBijective",
    "WordParseError",
    "FactorizationFailed",
    "InvalidDimension",
    "InvalidLabel",
    "InvalidTolerance",
    # states
    "DEFAULT_TOL",
    "Ket",
    "DensityOp",
    "UnitaryOp",
    "SchmidtDecomposition",
    "tensor",
    "partial_trace",
    "schmidt_decompose",
    "is_mes",
    "equal_up_to_global_phase",
    "phase_canonical",
    # clock/shift bases
    "BasisLabel",
    "CB",
    "MubState",
    "clock_z",
    "shift_x",
    "mub_state",
    "mub_family",
    "mub_eigen_residual",
    "mub_eigen_check",
    # entangled bases
    "MesBasisElement",
    "RelabelingMap",
    "mes_state",
    "mes_basis",
    "universal_state",
    "build_relabeling",
    "diagonalizer_for",
    # collective coordinates
    "PhasePoint",
    "CollectiveIndex",
    "CollectiveOps",
    "HopResult",
    "particle_to_collective",
    "collective_to_particle",
    "collective_permutation",
    "collective_ops",
    "point_state_plus",
    "point_state_minus",
    "parse_word",
    "format_word",
    "word_matrix",
    "local_action",
    "hop",
    "hop_dense",
    "hop_trajectory",
    # lines
    "Line",
    "LineState",
    "LineFactorReport",
    "all_lines",
    "line_points",
    "line_state",
    "schmidt_inversion_check",
    "mub_from_lines",
    "line_factor_table",
    # verification
    "VerificationReport",
    "run_suites",
]
