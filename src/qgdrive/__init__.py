"""Quantum and classical game policies for two-vehicle merging conflicts.

A 2-qubit state-vector engine and 2x2 game solvers feed a kinematic
simulator of two conflict scenarios (highway merging, roundabout entry);
a seeded Monte Carlo harness compares the resulting decision policies
against IDM/MOBIL baselines on collision rate, success rate and mean
headway.
"""

from .classical_game import (
    DegenerateGameError,
    MixedStrategy,
    NoInteriorEquilibriumError,
    OutcomeDistribution,
    TwoPlayerGame,
    builtin_game,
    cg_epd_distribution,
    cg_ms_distribution,
    expected_payoff,
    load_game,
    merging_game,
    mixed_strategy,
    pure_nash_equilibria,
    roundabout_game,
)
from .experiments import (
    MetricsSummary,
    MonteCarloConfig,
    PolicySpec,
    episode_rng,
    load_experiment_config,
    run_comparison,
    run_monte_carlo,
    wilson_halfwidth,
)
from .quantum_game import (
    QuantumGameConfig,
    QuantumGate,
    StrategyU,
    basis_state,
    entangler,
    equal_superposition,
    final_state,
    outcome_probabilities,
    play,
    preset,
    strategy_unitary,
    sweep_g4,
    sweep_u1,
)
from .scenario_sim import (
    EpisodeResult,
    ScenarioConfig,
    VehicleState,
    builtin_scenario,
    merging_scenario,
    roundabout_scenario,
    run_episode,
    sample_initial,
)

__version__ = "0.1.0"
