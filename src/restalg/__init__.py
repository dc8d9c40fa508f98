"""Finite inverse semigroups, their restricted convolution algebras,
regular representations, and C*-norm checks."""

from .algebra import (
    AlgebraElement,
    conv,
    dot,
    dot_direct,
    extend_from_base,
    max_abs_diff,
    order_dot_scan,
    restrict_to_base,
)
from .corpus import default_corpus
from .cstar import (
    NormReport,
    full_cstar_norm,
    minimized_quotient_norm,
    norm_report,
    quotient_cstar_norm,
    quotient_match_report,
    reduced_cstar_norm,
    unrestricted_reduced_norm,
)
from .errors import (
    BaseMismatch,
    InvalidGroupTable,
    NotAssociative,
    NotInverse,
    ParseError,
    RestalgError,
    SizeLimit,
    StarMismatch,
    VerificationFailure,
)
from .families import (
    adjoin_identity,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_semilattice,
    gen_symmetric_inverse_monoid,
)
from .linalg import column_rank, op_norm, svd_op_norm
from .reps import (
    Representation,
    compression_deviation,
    extend_with_zero,
    left_regular,
    lift,
    lift_rank,
    representation_report,
    restricted_left_regular,
    restricted_right_regular,
    trace_form_rank,
)
from .restricted import RestrictedSemigroup, build_restricted_semigroup
from .semigroups import MAX_ORDER, FiniteInvSemigroup, build_from_table
from .verify import Tolerances, run_suite, run_suites

__version__ = "0.1.0"
