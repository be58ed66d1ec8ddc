"""Energy-efficient wireless transmission control.

Joint power management, rate, and reliability control over a fading
channel with a finite packet buffer: exact solvers for the known-statistics
case and online learners (with and without structural acceleration) for the
unknown case, under an average-backlog constraint priced by an adaptive
multiplier.
"""

from .config import ExperimentConfig, reduced_profile, table_profile
from .env import Environment, RngStreams, SlotOutcome
from .errors import (
    ConfigError,
    ConvergenceError,
    FeasibilityError,
    InitializationError,
    TableFormatError,
)
from .harness import (
    MetricsAccumulator,
    MetricsRecord,
    RunResult,
    emit_metrics_csv,
    load_tables,
    run_experiment,
    serialize_tables,
    solve_tables,
)
from .learners import LearningSchedule, MultiplierState, PdsLearner, QLearner
from .model import Action, JointModel, State
from .pds import (
    FactoredDynamics,
    init_pds_values,
    pds_value_iteration,
    policy_from_pds,
)
from .planner import value_iteration
from .power import PmAction, PowerProfile, PowerState
from .queueing import ArrivalDistribution, QueueConfig, overflow_penalty

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ArrivalDistribution",
    "ConfigError",
    "ConvergenceError",
    "Environment",
    "ExperimentConfig",
    "FactoredDynamics",
    "FeasibilityError",
    "InitializationError",
    "JointModel",
    "LearningSchedule",
    "MetricsAccumulator",
    "MetricsRecord",
    "MultiplierState",
    "PdsLearner",
    "PmAction",
    "PowerProfile",
    "PowerState",
    "QLearner",
    "QueueConfig",
    "RngStreams",
    "RunResult",
    "SlotOutcome",
    "State",
    "TableFormatError",
    "emit_metrics_csv",
    "init_pds_values",
    "load_tables",
    "overflow_penalty",
    "pds_value_iteration",
    "policy_from_pds",
    "reduced_profile",
    "run_experiment",
    "serialize_tables",
    "solve_tables",
    "table_profile",
    "value_iteration",
    "__version__",
]
