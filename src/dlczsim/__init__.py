"""Cavity-enhanced DLCZ entanglement source: models, simulation, repeater rates."""

from .model import (
    CANONICAL_SETTINGS,
    CoincidenceCounts,
    DecayModel,
    DetectionChain,
    Estimate,
    JointProbabilities,
    MeasurementSettings,
    ReadoutLaw,
    RetrievalEstimates,
    SourceParams,
    TSIRELSON_BOUND,
    bell_parameter,
    coincidence_probabilities,
    correlation_E,
    escape_efficiency,
    estimate_intrinsic_retrieval,
    expected_bell,
    expected_correlation,
    fidelity_from_bell,
    readout_law,
    retrieval_efficiency,
    total_detection_efficiency,
    visibility,
)
from .montecarlo import (
    BootstrapErrors,
    SeedSpec,
    SequenceConfig,
    TrialRunResult,
    bell_sweep,
    bootstrap_errors,
    retrieval_sweep,
    run_trials,
)
from .repeater import (
    RateCurve,
    RepeaterParams,
    calibration_report,
    crossing_distance,
    elementary_probability,
    repeater_rate,
    swap_chain,
    sweep_distance,
)
from .calibration import (
    BellFit,
    DataPoint,
    DecayFit,
    default_decay_model,
    default_source_params,
    fit_bell_model,
    fit_decay,
)
from .errors import (
    FitConvergenceError,
    InsufficientStatisticsError,
    NotBracketedError,
)

__version__ = "0.1.0"
