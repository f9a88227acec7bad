"""Online fair allocation via paced first-price auctions.

The package simulates the pacing dynamics over item streams drawn from
i.i.d., corrupted, Markov, and periodic arrival models, solves the
box-constrained Eisenberg-Gale dual for hindsight and reference
benchmarks, and measures regret, envy, and convergence of utilities and
expenditures across repeated sample paths.
"""

__version__ = "0.1.0"

from .market import (
    ItemSequence,
    MarketInstance,
    ReferenceDistribution,
    market_from_dict,
    market_to_dict,
    normalize_valuations,
    proportional_share_utilities,
    sequence_from_dict,
    sequence_to_dict,
)
from .inputs import (
    CorruptionSchedule,
    InputModel,
    NonstationarityReport,
    average_marginal,
    corrupted_model,
    iid_model,
    markov_model,
    model_from_dict,
    model_to_dict,
    nonstationarity_report,
    periodic_model,
    random_iid_model,
    random_markov_model,
    random_periodic_model,
    reference_distribution,
    sample_sequence,
    stationary_distribution,
    tv_distance,
)
from .dual_averaging import (
    DaState,
    LogBarrierRegularizer,
    RegretBoundResult,
    composite_argmin,
    da_step,
    initial_state,
    iterate_da,
    regret_bound_check,
)
from .pace import (
    PaceTrace,
    equivalence_with_da,
    pacing_box,
    regret_diagnostic,
    run_pace,
    run_pace_paths,
)
from .eg import (
    DualProblem,
    DualSolution,
    dual_objective,
    equilibrium_utilities,
    hindsight_solution,
    market_problem,
    solve_dual,
)
from .metrics import (
    MetricSeries,
    SquaredErrors,
    build_metric_series,
    envy,
    mean_square_errors,
    recording_grid,
    regret,
    relative_error_max,
)
from .harness import (
    AggregateReport,
    ExperimentConfig,
    config_from_dict,
    generate_market,
    load_config,
    run_experiment,
    summarize,
)
from .prng import derive_path_seed, make_generator
from . import errors
