"""Finite-dimensional simulator for detection-conditioned quantum measurements.

The library models generalized observables: a standard quantum observable
extended by a no-registration outcome reported when the measured object
escapes detection. From there it builds outcome probabilities (overall,
conditional and detection), effect operators forming state-indexed POV
measures, the generalized post-measurement state update, measurement-operator
families with their nonselective mixtures, an object-apparatus coupling model
whose partial trace reproduces that mixture, and a deterministic Monte Carlo
sampling engine with a scenario-file CLI.
"""

from .apparatus import (
    ApparatusModel,
    CompoundState,
    compound_density,
    couple_and_evolve,
    reduced_object_state,
)
from .errors import (
    DimensionMismatchError,
    EsrError,
    EventContainsNoRegistrationError,
    NotHermitianError,
    NotNormalizedError,
    NotSquareError,
    ProbabilityRangeError,
    ScenarioParseError,
    ScenarioValidationError,
    ZeroProbabilityBranchError,
)
from .linalg import hermitian_eigendecompose
from .measurement import (
    MeasurementOperatorFamily,
    MeasurementOutcomeRecord,
    complement_event,
    fix_phase,
    measurement_operators,
    nonselective_state,
    outcome_probability,
    post_measurement_density,
    post_measurement_state_no,
    post_measurement_state_yes,
    state_after_outcome,
)
from .model import (
    ConstantDetection,
    DensityOperator,
    DetectionModel,
    Effect,
    ExpectationDetection,
    GeneralizedObservable,
    PovAxiomReport,
    PureState,
    QuantumObservable,
    as_event,
    conditional_probability,
    default_no_registration_outcome,
    detection_probability,
    effect,
    overall_probability,
    overall_probability_density,
    pv_projector,
    split_event,
    to_density,
    verify_pov_axioms,
)
from .sampling import (
    RngSpec,
    RunReport,
    born_probabilities,
    run_experiment,
    sample_measurement,
    sample_sequence,
)
from .scenario import (
    BuiltScenario,
    Scenario,
    build_scenario,
    load_scenario,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    # apparatus
    "ApparatusModel", "CompoundState", "compound_density", "couple_and_evolve",
    "reduced_object_state",
    # errors
    "DimensionMismatchError", "EsrError", "EventContainsNoRegistrationError",
    "NotHermitianError", "NotNormalizedError", "NotSquareError",
    "ProbabilityRangeError", "ScenarioParseError", "ScenarioValidationError",
    "ZeroProbabilityBranchError",
    # linalg
    "hermitian_eigendecompose",
    # measurement
    "MeasurementOperatorFamily", "MeasurementOutcomeRecord", "complement_event",
    "fix_phase", "measurement_operators", "nonselective_state", "outcome_probability",
    "post_measurement_density", "post_measurement_state_no",
    "post_measurement_state_yes", "state_after_outcome",
    # model
    "ConstantDetection", "DensityOperator", "DetectionModel", "Effect",
    "ExpectationDetection", "GeneralizedObservable", "PovAxiomReport",
    "PureState", "QuantumObservable", "as_event",
    "conditional_probability", "default_no_registration_outcome",
    "detection_probability", "effect", "overall_probability",
    "overall_probability_density", "pv_projector", "split_event", "to_density",
    "verify_pov_axioms",
    # sampling
    "RngSpec", "RunReport", "born_probabilities", "run_experiment",
    "sample_measurement", "sample_sequence",
    # scenario
    "BuiltScenario", "Scenario", "build_scenario", "load_scenario", "parse_scenario",
    "scenario_digest", "serialize_scenario",
]
