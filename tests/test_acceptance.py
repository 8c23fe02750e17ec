"""Acceptance gate: one test per shipping criterion, tolerances inline.

Each test prints as a single pass/fail line under `pytest -v`. Criterion 8
is parametrized over its two entanglement angles; the gamma = pi/2 case
states an identity that the model does not actually satisfy from the s10
start (the X and Y gate rows differ there; test_quantum_game.py freezes
the true rows), so that case fails and is left failing deliberately.
"""

import math
import time

import numpy as np
import pytest

from qgdrive import cli
from qgdrive import classical_game as cg
from qgdrive import experiments as ex
from qgdrive import quantum_game as qg
from qgdrive.scenario_sim import builtin_scenario

from oracles import is_unitary, kron2 as _kron2, mv as _mv, random_state as _random_state

MASTER_SEED = 7


def test_criterion_01_operator_algebra():
    start = time.perf_counter()
    for gamma in np.linspace(0.0, qg.GAMMA_MAX, 101):
        j = qg.entangler(gamma)
        assert is_unitary(j, tol=1e-12)
        prod = j.conj().T @ j
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-12
    for theta in np.linspace(0.0, qg.THETA_MAX, 101):
        for phi in np.linspace(0.0, qg.PHI_MAX, 101):
            u = qg.strategy_unitary(theta, phi)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
    assert np.array_equal(qg.entangler(0.0), np.eye(4))
    assert time.perf_counter() - start < 1.0


def test_criterion_02_final_state_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    game = cg.merging_game()
    for i in range(1000):
        psi0 = _random_state(rng)
        gamma = rng.uniform(0.0, qg.GAMMA_MAX)
        if i % 2 == 0:
            sa = qg.StrategyU(rng.uniform(0, qg.THETA_MAX), rng.uniform(0, qg.PHI_MAX))
            sb = qg.StrategyU(rng.uniform(0, qg.THETA_MAX), rng.uniform(0, qg.PHI_MAX))
        else:
            sa = qg.GATE_ORDER[rng.integers(5)]
            sb = qg.GATE_ORDER[rng.integers(5)]
        psi = qg.final_state(qg.QuantumGameConfig(psi0, gamma, sa, sb))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_03_classical_limit_against_product_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    game = cg.merging_game()
    eye2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    for _ in range(100):
        psi0 = _random_state(rng)
        cfg = qg.QuantumGameConfig(psi0, 0.0, qg.StrategyU(0.0), qg.StrategyU(0.0))
        psi = qg.final_state(cfg)
        oracle = np.array(_mv(_kron2(eye2, eye2), list(psi0)))
        assert np.max(np.abs(psi - oracle)) <= 1e-12
        dist = qg.outcome_probabilities(psi)
        want = np.abs(psi0) ** 2
        assert max(abs(a - b) for a, b in zip(dist.as_tuple(), want)) <= 1e-12


def test_criterion_04_gate_game_optimal_point():
    game = cg.merging_game()
    dist = qg.play(qg.QuantumGameConfig(
        qg.basis_state("s10"), math.pi / 2,
        qg.QuantumGate.IDENTITY, qg.QuantumGate.PAULI_Z,
    ))
    assert abs(dist.p01 - 1.0) <= 1e-9
    assert cg.expected_payoff(dist, game, "a") == 10.0


def test_criterion_05_sweep_extrema_and_argmax_distribution():
    game = cg.merging_game()
    result = qg.sweep_u1(game, mode="theta_b_zero", gamma_points=101, theta_points=101)
    assert result.argmax.gamma == 0.0
    assert abs(result.argmax.theta_a - math.pi / 2) <= 1e-9
    assert abs(result.argmin.gamma - math.pi / 2) <= 1e-9
    assert result.argmin.theta_a == 0.0
    got = (result.argmax.p00, result.argmax.p01, result.argmax.p10, result.argmax.p11)
    assert max(abs(a - b) for a, b in zip(got, (0.5, 0.5, 0.0, 0.0))) <= 1e-9
    assert abs(result.argmax.eu_a - 5.0) <= 1e-9


def test_criterion_06_mixed_strategy_values():
    ms = cg.mixed_strategy(cg.merging_game())
    assert abs(ms.p - 9.0 / 13.0) <= 1e-12
    assert abs(ms.q - 9.0 / 13.0) <= 1e-12
    ms = cg.mixed_strategy(cg.roundabout_game())
    assert abs(ms.p - 0.6) <= 1e-12
    assert abs(ms.q - 0.6) <= 1e-12


def test_criterion_07_pure_equilibrium_sets():
    for game in (cg.merging_game(), cg.roundabout_game()):
        assert cg.pure_nash_equilibria(game) == ((0, 1), (1, 0))


@pytest.mark.parametrize("gamma", [0.0, math.pi / 2], ids=["gamma_0", "gamma_pi_2"])
def test_criterion_08_gate_table_x_y_row_identity(gamma):
    # fails at gamma = pi/2: from e_s10 the X row is (5.5, 10, 4, 1, 0)
    # and the Y row (2, 4, 10, 0, 1); the identity only holds without
    # entanglement or from the equal superposition
    table = qg.sweep_g4(cg.merging_game(), gamma=gamma)
    diff = max(abs(a - b) for a, b in zip(table.row_a("X"), table.row_a("Y")))
    assert diff <= 1e-12


def test_criterion_09_monte_carlo_collision_windows():
    start = time.perf_counter()
    config = ex.MonteCarloConfig(
        scenario=builtin_scenario("merging"),
        game=cg.builtin_game("merging"),
        episodes=10000,
        master_seed=MASTER_SEED,
    )
    summaries = ex.run_comparison(["cg-epd", "cg-ms", "qg-u1-1"], config)
    by_method = {s.method: s for s in summaries}
    assert 0.22 <= by_method["CG_EPD"].cr <= 0.28
    assert 0.45 <= by_method["CG_MS"].cr <= 0.51
    assert 0.47 <= by_method["QG_U1_1"].cr <= 0.53
    assert time.perf_counter() - start < 60.0


def test_criterion_10_gate_game_policy_properties():
    game = cg.builtin_game("merging")
    scenario = builtin_scenario("merging")
    n = 10000

    spec_z = ex.PolicySpec("QG_G4", "Z")
    dist_z = ex.policy_distributions(spec_z, game)
    in_set = 0
    for i in range(n):
        rng = ex.episode_rng(MASTER_SEED, i)
        rng.random(4)  # initial-state draws precede the decision draws
        u_ev, u_iv = float(rng.random()), float(rng.random())
        start, _ = ex.episode_decision(spec_z, scenario, dist_z, rng, None, None, u_ev, u_iv)
        if start in ((0, 1), (1, 0)):
            in_set += 1
    assert in_set / n == 1.0

    config = ex.MonteCarloConfig(
        scenario=scenario, game=game, episodes=n, master_seed=MASTER_SEED
    )
    assert ex.run_comparison([spec_z], config)[0].cr == 0.0

    spec_u = ex.PolicySpec("QG_G4", "uniform")
    rows = ex.policy_distributions(spec_u, game)
    s00 = 0
    for i in range(n):
        rng = ex.episode_rng(MASTER_SEED, i)
        rng.random(4)
        u_ev, u_iv = float(rng.random()), float(rng.random())
        start, _ = ex.episode_decision(spec_u, scenario, rows, rng, None, None, u_ev, u_iv)
        if start == (0, 0):
            s00 += 1
    assert abs(s00 / n - 0.20) <= 0.02


def test_criterion_11_reruns_are_byte_identical(tmp_path, capsys):
    sim_a, sim_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    for path in (sim_a, sim_b):
        code = cli.main([
            "simulate", "--scenario", "roundabout", "--policies",
            "cg-epd,qg-u1-1,idm", "--episodes", "300", "--seed", "21",
            "--out", str(path),
        ])
        assert code == 0
    assert sim_a.read_bytes() == sim_b.read_bytes()

    sw_a, sw_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    for path in (sw_a, sw_b):
        code = cli.main([
            "sweep", "--model", "qg-u1", "--mode", "equal_thetas",
            "--gamma-points", "21", "--theta-points", "21", "--out", str(path),
        ])
        assert code == 0
    assert sw_a.read_bytes() == sw_b.read_bytes()
