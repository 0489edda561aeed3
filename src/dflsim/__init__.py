"""Deterministic decentralized-federated-learning simulator.

Objective-oriented reweighting aggregation plus robust baseline aggregators,
Byzantine attacks, heterogeneous partitioners and fairness/robustness
metrics.

The package root holds the run API: parse or load a config, run it, or drive
one seed's network round by round. Every other name is imported from its own
module (dflsim.reweight, dflsim.baselines, dflsim.topology, ...).
"""

from .analysis import summarize
from .config import ConfigError, RunConfig, load_config, parse_config
from .sim import (
    NetworkState,
    RunSummary,
    SimulationError,
    build_network,
    evaluate_network,
    run_experiment,
    run_round,
)

__version__ = "0.1.0"
