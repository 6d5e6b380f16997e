"""Dependence measures of finite sigma-field pairs.

Exact computation of the four classical measures of dependence (psi,
lambda, tau, and maximal correlation) on joint probability-mass matrices,
independent-join constructions, automated checkers for the inequalities
and equalities relating the measures, explicit extremal-family
constructions, and stochastic sharpness search.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    DependenceError,
    IndexOutOfRange,
    InvariantViolation,
    NegativeEntry,
    NonRectangular,
    NotNormalized,
    OutOfRange,
    PreconditionFailed,
    ShapeError,
    SizeOverflow,
    StateSpaceTooLarge,
    TooFewSamples,
    TooLargeForExact,
    ZeroTotal,
    ZeroVariance,
)
from .joint_pmf import (
    EventPair,
    JointPMF,
    Marginals,
    event_prob,
    from_matrix,
    kron,
    kron_all,
    load_json,
    marginals,
    merge_cols,
    merge_rows,
    permute,
    random_joint,
    save_json,
)
from .measures import (
    DependenceReport,
    EventMeasure,
    RhoResult,
    RhoSpectral,
    event_covariance,
    event_measure,
    event_statistic,
    exact_event_values,
    full_report,
    rho,
    score_correlation,
)
from .theorem_suite import (
    CheckResult,
    FuzzReport,
    check_chain,
    check_cousin,
    check_cousin_multi,
    check_csaki_fischer,
    check_peyre_bound,
    check_two_atom_bound,
    fuzz,
    tau_log_bound,
    tau_sqrt_log_bound,
)
from .constructions import (
    CltEstimate,
    Lemma7Profile,
    ScoredBase,
    WitnessHit,
    clt_limit_corr,
    embellish,
    lemma7_profile,
    make_scored_base,
    orthant_prob,
    scored_base_from_jsonable,
    theorem6_corr,
    theorem6_witness_search,
    yy_pair,
)
from .sharpness_search import (
    SearchConfig,
    SearchResult,
    search_max_rho,
    search_tensor_gap,
    tensor_gap_lower_bound,
)

# every public name but the ``from __future__`` feature object
__all__ = [name for name in dir() if not name.startswith("_") and name != "annotations"]
