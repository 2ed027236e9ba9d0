"""Adaptive distributed transmit beamforming with one-bit feedback.

A simulator and library built around a generic local random search: a
slow-fading channel model with the received-signal-magnitude objective, the
one-bit keep/discard search engine, reproducible experiment runners, and
brute-force verification oracles. The ``distbeam`` CLI is the user surface.
"""

from .channel import (
    TWO_PI,
    ChannelRealization,
    PowerConfig,
    as_generator,
    canonical_phases,
    epsilon_region_contains,
    generate_channel,
    magnitude,
    magnitude_batch,
    measure_magnitude,
    optimal_magnitude,
)
from .cli import emit_reproduction_bundle, parse_and_dispatch
from .experiments import (
    ConvergenceTimePoint,
    ConvergenceTimeResult,
    ExperimentConfig,
    HittingTimePoint,
    HittingTimeResult,
    avg_convergence_csv,
    dump_config,
    hitting_time_csv,
    linear_fit,
    load_config,
    parse_angle,
    parse_config_text,
    run_avg_convergence_sweep,
    run_hitting_time_sweep,
    run_sample_paths,
    sample_paths_csv,
    shared_channel_seed_sequence,
    trial_seed_sequence,
)
from .oracle import (
    GridSpec,
    ImprovementEstimate,
    IncrementReport,
    LocalMaxReport,
    ShiftInvarianceReport,
    estimate_improvement_probability,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)
from .search import (
    DecisionMapViolation,
    FeedbackBit,
    PerturbationSpec,
    SearchState,
    StopRule,
    Trajectory,
    init_state,
    one_bit_step,
    plug_decision_map,
    run_trajectory,
    sample_perturbation,
)

__version__ = "0.1.0"
