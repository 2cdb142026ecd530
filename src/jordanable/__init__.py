"""Exact Jordan canonical forms, operator equations and almost Abelian
Lie algebra structure data over the rationals."""

from .errors import (
    ConventionError,
    DomainError,
    HeisenbergDeferred,
    OracleCapExceeded,
    UnfactoredRemainder,
    VerificationFailed,
    ZeroMultiplicityFunction,
)
from .field import (
    Matrix,
    Polynomial,
    invert,
    matrix_rank,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    row_reduce,
    solve_linear,
)
from .spectrum import (
    Certification,
    Convention,
    EPS0,
    EPS1,
    IrreduciblePoly,
    companion,
    factor_with_hints,
    minimal_polynomial,
    parse_poly,
    rational_roots,
    star_poly,
)
from .multiplicity import (
    DilationGroup,
    MultiplicityFunction,
    aleph,
    dilation_symmetries,
    projectively_equal,
    star_aleph,
)
from .jordan import (
    BlockIndex,
    InvariantSubspaceSpec,
    JordanForm,
    canonical_form,
    check_invariant_and_restrict,
    invariant_subspace_from,
    jordan_block,
    multiplicity_of,
    nilpotent_shift,
    similarity_transform,
)
from .equations import (
    SolutionSpace,
    jordan_intertwiners,
    nilpotent_intertwiners,
    p_matrix,
    solve_inhom_comm,
    solve_lambda_comm,
    solve_transpose_pair,
    u_matrix,
    v_matrix,
    w_matrix,
)
from .liealg import (
    AlmostAbelianAlgebra,
    AutomorphismSpace,
    CasimirElement,
    automorphism_space,
    bracket,
    casimir_basis,
    centre,
    check_ideal,
    check_subalgebra,
    classify_iso,
    compose_decomposable,
    decompose,
    derivation_space,
    is_automorphism,
    is_derivation,
    is_nilpotent,
    lower_central_series,
)
from .oracle import EquationSpec, Profile, brute_solve, random_instance

__version__ = "0.1.0"
