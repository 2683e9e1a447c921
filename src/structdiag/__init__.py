"""structdiag: structured matrices in indefinite inner product spaces.

Classification against the symplectic and perplectic forms, automorphic
(and unitary-automorphic) diagonalization, Lagrangian completion, the
additive decomposition A = N +/- N*, and structured matrix functions.
"""

from .core import (
    DEFAULT_TOL,
    TolerancePolicy,
    herm_transpose,
    orthonormalize_columns,
    rel_residual,
    solve_linear,
)
from .decompose import (
    AdditiveDecomposition,
    DecompositionResiduals,
    Sign,
    VerificationReport,
    decompose_additive,
    reconstruct_from_normal_factor,
    structured_exp,
    structured_root,
    verify_decomposition,
)
from .diagonalize import (
    AxisClass,
    DiagonalizabilityReport,
    EigenvalueBalance,
    StructuredDiagonalization,
    Variant,
    assemble_core_diagonal,
    complete_to_lagrangian,
    diagonalizability_report,
    structured_diagonalize,
    unitary_refine,
)
from .errors import (
    DimensionMismatch,
    FrameTooLarge,
    InertiaMismatch,
    InvalidSize,
    NoConvergence,
    NotAnnihilating,
    NotDiagonalizable,
    NotLagrangianFrame,
    NotNeutral,
    NotNeutralRange,
    NotNormal,
    NotStructured,
    NotStructuredDiagonalizable,
    NumericalBreakdown,
    ParseError,
    RankDeficient,
    SingularInput,
    SingularMatrix,
    SpectrumNotConjugateSymmetric,
    StructDiagError,
)
from .forms import (
    FormKind,
    FormTag,
    Inertia,
    InnerProduct,
    adjoint,
    congruence_to,
    euclidean_form,
    gram,
    inertia,
    perplectic_form,
    symplectic_form,
    sylvester_canonical,
)
from .generators import (
    STRUCTURE_KINDS,
    PlantedInstance,
    PortableRng,
    counterexample_unbalanced,
    form_for_kind,
    random_automorphism,
    random_lagrangian_frame,
    random_structured,
    random_structured_diagonalizable,
    variant_for_kind,
)
from .mmio import read_matrix, write_matrix
from .spectral import (
    ConjugatePairing,
    EigenDecomposition,
    EigenGroups,
    eigen,
    group_eigenvalues,
    is_diagonalizable,
    pair_conjugates,
)
from .structure import (
    Check,
    StructureReport,
    build_unitary_automorphism,
    classify,
)

__version__ = "0.1.0"
