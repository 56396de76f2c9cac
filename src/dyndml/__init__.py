"""Dynamic treatment effects by automated debiasing.

Nested regressions fitted backward, recursive Riesz representers fitted
forward by direct loss minimization, the multiply robust orthogonal moment,
and cross-fitted inference, all verifiable against exact enumeration
oracles on discrete processes.
"""

from .core import (
    ConstantFn,
    Contrast,
    DynamicPolicy,
    EvalTerm,
    FixedSequence,
    LinearFn,
    NuisanceSet,
    PanelDataset,
    PlanError,
    PolynomialFeatures,
    PositivityError,
    Prefix,
    RandomFourierFeatures,
    SolverError,
    TabularFeatures,
    Trajectory,
    TreatmentPlan,
    ValidationError,
    evaluate_moment,
    grid_policy,
    moment_batch,
    read_panel_csv,
    tabular_fn,
    write_panel_csv,
)
from .inference import (
    EstimateReport,
    FoldPlan,
    MCResult,
    RateTable,
    dml_estimate,
    make_folds,
    mc_experiment,
    normal_quantile,
    rate_diagnostics,
)
from .moment import (
    CombinedFn,
    MomentValue,
    Perturbation,
    mixed_bias,
    moment_scores,
    orthogonal_moment,
    orthogonality_slope,
    perturbation_bias,
)
from .nuisance import (
    FitConfig,
    fit_clever_covariate,
    fit_nested_regressions,
    fit_recursive_riesz,
    riesz_loss,
)
from .oracle import (
    DiscreteDGP,
    dgp_ref_1,
    dgp_ref_2,
    mix_seed,
    oracle_nested_regressions,
    oracle_nuisances,
    oracle_riesz,
    oracle_theta,
    oracle_theta_potential,
    population_l2,
    population_moment,
    population_riesz_loss,
    random_dgp,
    riesz_step,
    simulate,
)
from .surrogate import (
    SurrogateNuisances,
    SurrogatePair,
    read_surrogate_csvs,
    surrogate_estimate,
    surrogate_fit,
    surrogate_scores,
    write_surrogate_csvs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
