"""Rabinowitz Floer homology of split quadratic Hamiltonians on R^(2n).

The pipeline: validate the defining data (positive definite elliptic
factor, hyperbolic factor), classify quadratic forms into block normal
forms, enumerate closed-orbit families by resonance, grade them with
Conley-Zehnder and signature indices, and assemble the graded homology
through two long exact sequences.
"""

from .czindex import (
    HalfInt,
    crossing_times,
    cz_index_data,
    cz_index_path,
)
from .errors import (
    CensusOverflow,
    ClusterAmbiguous,
    CrossingDegenerate,
    DegenerateInput,
    DegenerateRestriction,
    GammaUndetermined,
    IncompatibleEigenvalue,
    Inconsistent,
    InputError,
    InternalError,
    NonIntegerResult,
    NumericalError,
    ResonanceMismatch,
    RfhquadError,
    SignatureMismatch,
    Underdetermined,
)
from .hormander import (
    HormanderBlock,
    NormalForm,
    block_signatures,
    build_block,
    classify,
    normal_form,
)
from .oracles import OracleCz, oracle_cz
from .orbits import (
    ActionWindow,
    Generator,
    OrbitFamily,
    census,
    generator_census,
)
from .rfh import (
    ExactSequenceProblem,
    GradedZ2Space,
    RfhReport,
    SolvedSequence,
    alternating_sum,
    exact1_problem,
    exact2_problem,
    rfh_geq0,
    rfh_pm_compact,
    rfh_report,
    singular_homology,
    solve_exact_sequence,
)
from .symlin import (
    DEFAULT_TOL,
    ExpEvaluator,
    Spectrum,
    SpectrumItem,
    Tolerances,
    inertia,
    kernel_dim,
    signature,
    spectrum_with_jordan,
    standard_J,
    sym_matrix,
    symplectic_direct_sum,
)
from .tentacular import (
    BlockCheck,
    QuadraticHamiltonian,
    TentacularVerdict,
    ValidationReport,
    tentacular_check,
    validate,
)

__version__ = "0.1.0"
