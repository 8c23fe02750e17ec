"""Quantum and classical game policies for two-vehicle merging conflicts.

A 2-qubit state-vector engine and 2x2 game solvers feed a kinematic
simulator of two conflict scenarios (highway merging, roundabout entry);
a seeded Monte Carlo harness compares the resulting decision policies
against IDM/MOBIL baselines on collision rate, success rate and mean
headway.

The top level exports the names the README's Library example imports;
every other name is imported from its own module.
"""

from .classical_game import builtin_game, expected_payoff, mixed_strategy, pure_nash_equilibria
from .experiments import MonteCarloConfig, run_comparison
from .quantum_game import QuantumGate, play, preset
from .scenario_sim import builtin_scenario

__version__ = "0.1.0"
