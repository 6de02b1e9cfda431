"""Rank invariants and multivariate sensitivity searches for subshifts over Z."""

from .words import CenteredWord, scale_of_difference, shift_window
from .verdicts import Verdict, VerdictStatus
from .substitution import (
    LanguageTable,
    SeedPair,
    Substitution,
    SubstitutionSystem,
    aperiodicity_check,
    expand,
    height,
    language,
    seed_pairs,
)
from .odometer import (
    FiberCensus,
    OdometerResidue,
    column_number,
    fiber_census,
    proximal_pair,
)
from .oracles import (
    SearchBudget,
    SensitivityReport,
    block_m_sensitivity_test,
    cover_m_equicontinuity_test,
    m_equicontinuity_point_test,
    m_sensitivity_test,
)
from .ranks import (
    Estimate,
    EstimateKind,
    MultivariateProfile,
    RankReport,
    check_extension_inequality,
    coincidence_rank,
    equicontinuous_rank_report,
    maximal_rank,
    minimal_rank,
    predict_profile,
    rank_report,
    sliding_block_factor,
)
from .toeplitz import ToeplitzSkeleton, ToeplitzSystem, doubling_skeleton, rank_family_skeleton
from .verify import VerifyReport, verify_system

__version__ = "0.1.0"
