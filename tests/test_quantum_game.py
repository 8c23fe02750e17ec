import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgdrive import clinalg, quantum_game as qg
from qgdrive.classical_game import expected_payoff, merging_game

from oracles import is_unitary

# ---------------------------------------------------------------------------
# Loop-based oracle: plain-Python products, no shared code with the engine.

_X2 = ((0.0, 1.0), (1.0, 0.0))


def _kron2(a, b):
    out = [[0j] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    out[2 * i + k][2 * j + m] = a[i][j] * b[k][m]
    return out


def _mm(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)
    ]


def _mv(a, v):
    return [sum(a[i][k] * v[k] for k in range(4)) for i in range(4)]


def _dag(a):
    return [[a[j][i].conjugate() for j in range(4)] for i in range(4)]


def _oracle_entangler(gamma):
    # Taylor series of exp(-i*gamma/2 * X(x)X); fast convergence on [0, pi/2]
    k = _kron2(_X2, _X2)
    acc = [[1.0 + 0j if i == j else 0j for j in range(4)] for i in range(4)]
    term = acc
    z = -0.5j * gamma
    for n in range(1, 30):
        term = _mm(term, k)
        term = [[term[i][j] * z / n for j in range(4)] for i in range(4)]
        acc = [[acc[i][j] + term[i][j] for j in range(4)] for i in range(4)]
    return acc


def _oracle_u(theta, phi):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    return ((e * c, s), (-s, e.conjugate() * c))


def _oracle_final(psi0, gamma, ua, ub):
    j = _oracle_entangler(gamma)
    step = _mv(j, list(psi0))
    step = _mv(_kron2(ua, ub), step)
    return np.array(_mv(_dag(j), step))


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------


class TestGates:
    def test_letters_round_trip(self):
        for g in qg.GATE_ORDER:
            assert qg.as_gate(g.value) is g
            assert qg.as_gate(g.value.lower()) is g

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            qg.as_gate("Q")

    def test_all_gate_matrices_unitary(self):
        for g in qg.GATE_ORDER:
            m = qg.gate_matrix(g)
            assert is_unitary(clinalg.kron(m, np.eye(2)))

    def test_pauli_relations(self):
        x, y, z = (qg.gate_matrix(c) for c in "XYZ")
        assert np.allclose(x @ y, 1j * z, atol=1e-15)
        assert np.allclose(x @ x, np.eye(2), atol=1e-15)


class TestStates:
    def test_equal_superposition_amplitudes(self):
        v = qg.equal_superposition()
        assert np.allclose(v, 0.5)

    def test_basis_state_one_hot(self):
        for i in range(4):
            v = qg.basis_state(i)
            assert v[i] == 1.0
            assert np.count_nonzero(v) == 1

    def test_basis_state_range(self):
        with pytest.raises(ValueError):
            qg.basis_state(4)
        with pytest.raises(ValueError):
            qg.basis_state(-1)

    def test_basis_labels_map_to_indices(self):
        for i, label in enumerate(qg.BASIS_LABELS):
            assert qg.basis_state(label)[i] == 1.0

    def test_parse_named_and_raw(self):
        assert np.array_equal(qg.parse_initial_state("s10"), qg.basis_state(2))
        v = qg.parse_initial_state([1, 1, 1, 1])
        assert np.allclose(v, 0.5)

    def test_product_state_ordering(self):
        # A's qubit selects the high bit of the joint index
        qa = np.array([0.0, 1.0])
        qb = np.array([1.0, 0.0])
        assert np.array_equal(clinalg.kron(qa, qb), qg.basis_state("s10"))


class TestEntangler:
    def test_zero_angle_is_exact_identity(self):
        assert np.array_equal(qg.entangler(0.0), np.eye(4))

    def test_closed_form_matches_series_oracle(self):
        for gamma in np.linspace(0.0, qg.GAMMA_MAX, 7):
            want = np.array(_oracle_entangler(gamma))
            assert np.max(np.abs(qg.entangler(gamma) - want)) < 1e-12

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            qg.entangler(-0.1)
        with pytest.raises(ValueError):
            qg.entangler(qg.GAMMA_MAX + 0.1)

    @given(st.floats(min_value=0.0, max_value=qg.GAMMA_MAX, allow_nan=False))
    def test_unitary_over_range(self, gamma):
        assert is_unitary(qg.entangler(gamma))


class TestStrategyU:
    def test_matrix_matches_oracle(self):
        for theta, phi in ((0.0, 0.0), (1.0, 0.5), (qg.THETA_MAX, qg.PHI_MAX)):
            want = np.array(_oracle_u(theta, phi))
            got = qg.strategy_unitary(theta, phi)
            assert np.max(np.abs(got - want)) < 1e-15

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            qg.StrategyU(-0.01)
        with pytest.raises(ValueError):
            qg.StrategyU(qg.THETA_MAX + 0.01)

    def test_phi_range_enforced(self):
        with pytest.raises(ValueError):
            qg.StrategyU(1.0, qg.PHI_MAX + 0.01)

    @given(
        st.floats(min_value=0.0, max_value=qg.THETA_MAX, allow_nan=False),
        st.floats(min_value=0.0, max_value=qg.PHI_MAX, allow_nan=False),
    )
    def test_unitary_over_range(self, theta, phi):
        assert is_unitary(
            clinalg.kron(qg.strategy_unitary(theta, phi), np.eye(2))
        )


class TestFinalState:
    def test_mixed_strategy_kinds_rejected(self):
        with pytest.raises(ValueError):
            qg.QuantumGameConfig(
                merging_game(),
                qg.equal_superposition(),
                0.5,
                qg.StrategyU(1.0),
                qg.QuantumGate.PAULI_X,
            )

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ValueError):
            qg.QuantumGameConfig(
                merging_game(),
                np.array([1.0, 1.0, 0.0, 0.0]),
                0.5,
                qg.StrategyU(1.0),
                qg.StrategyU(0.5),
            )

    def test_matches_loop_oracle_u1(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            psi0 = random_state(rng)
            gamma = rng.uniform(0.0, qg.GAMMA_MAX)
            ta, pa = rng.uniform(0, qg.THETA_MAX), rng.uniform(0, qg.PHI_MAX)
            tb, pb = rng.uniform(0, qg.THETA_MAX), rng.uniform(0, qg.PHI_MAX)
            cfg = qg.QuantumGameConfig(
                merging_game(), psi0, gamma, qg.StrategyU(ta, pa), qg.StrategyU(tb, pb)
            )
            want = _oracle_final(psi0, gamma, _oracle_u(ta, pa), _oracle_u(tb, pb))
            assert np.max(np.abs(qg.final_state(cfg) - want)) < 1e-12

    def test_matches_loop_oracle_gates(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            psi0 = random_state(rng)
            gamma = rng.uniform(0.0, qg.GAMMA_MAX)
            ga, gb = rng.choice(5, size=2)
            ga, gb = qg.GATE_ORDER[ga], qg.GATE_ORDER[gb]
            cfg = qg.QuantumGameConfig(merging_game(), psi0, gamma, ga, gb)
            ua = tuple(tuple(row) for row in qg.gate_matrix(ga))
            ub = tuple(tuple(row) for row in qg.gate_matrix(gb))
            want = _oracle_final(psi0, gamma, ua, ub)
            assert np.max(np.abs(qg.final_state(cfg) - want)) < 1e-12

    def test_outcome_probabilities_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qg.outcome_probabilities(np.array([1.0, 1.0, 0.0, 0.0]))

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=qg.GAMMA_MAX, allow_nan=False),
        st.floats(min_value=0.0, max_value=qg.THETA_MAX, allow_nan=False),
        st.floats(min_value=0.0, max_value=qg.THETA_MAX, allow_nan=False),
    )
    def test_distribution_sums_to_one(self, gamma, ta, tb):
        dist = qg.play(
            merging_game(), qg.equal_superposition(), gamma,
            qg.StrategyU(ta), qg.StrategyU(tb),
        )
        assert abs(sum(dist.as_tuple()) - 1.0) < 1e-9


# Fixed points of the maximally entangled gate game from the s10 start.
# B's gate maps the state to a single outcome (H to an even split).
_GATE_DISTS = {
    "I": (0.0, 0.0, 1.0, 0.0),
    "X": (0.0, 0.0, 0.0, 1.0),
    "Y": (1.0, 0.0, 0.0, 0.0),
    "Z": (0.0, 1.0, 0.0, 0.0),
    "H": (0.0, 0.5, 0.0, 0.5),
}


class TestGateGame:
    @pytest.mark.parametrize("letter", sorted(_GATE_DISTS))
    def test_single_gate_outcomes(self, letter):
        p = qg.preset("qg-g4")
        dist = qg.play(merging_game(), p.initial, p.gamma, p.strategy_a, qg.as_gate(letter))
        want = _GATE_DISTS[letter]
        assert max(abs(a - b) for a, b in zip(dist.as_tuple(), want)) < 1e-9

    def test_uniform_gate_collision_mass(self):
        # averaging the five rows puts exactly 1/5 on s00
        p = qg.preset("qg-g4")
        mass = sum(
            qg.play(merging_game(), p.initial, p.gamma, p.strategy_a, g).p00
            for g in qg.GATE_ORDER
        ) / 5.0
        assert abs(mass - 0.2) < 1e-12


_TABLE_EU_A = {
    # rows over B in (H, X, Y, Z, I); merging payoffs, gamma = pi/2, from s10
    "H": (3.75, 5.0, 2.5, 2.5, 5.0),
    "X": (5.5, 10.0, 4.0, 1.0, 0.0),
    "Y": (2.0, 4.0, 10.0, 0.0, 1.0),
    "Z": (2.0, 0.0, 1.0, 4.0, 10.0),
    "I": (5.5, 1.0, 0.0, 10.0, 4.0),
}


class TestGateTable:
    def test_full_table_regression(self):
        table = qg.sweep_g4(merging_game())
        for letter, want in _TABLE_EU_A.items():
            got = table.row_a(letter)
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9, letter

    @pytest.mark.parametrize(
        "gamma", [0.0, 0.7, qg.GAMMA_MAX], ids=["gamma_0", "gamma_0_7", "gamma_pi_2"]
    )
    def test_gate_table_matches_single_point_solver(self, gamma):
        game = merging_game()
        psi0 = qg.parse_initial_state([1, 2j, 0.5, -1])
        table = qg.sweep_g4(game, initial=psi0, gamma=gamma)
        for i, ga in enumerate(qg.GATE_ORDER):
            for k, gb in enumerate(qg.GATE_ORDER):
                dist = qg.play(game, psi0, gamma, ga, gb)
                assert table.eu_a[i][k] == expected_payoff(dist, game, "a"), (ga, gb)
                assert table.eu_b[i][k] == expected_payoff(dist, game, "b"), (ga, gb)

    def test_x_y_rows_identical_without_entanglement(self):
        table = qg.sweep_g4(merging_game(), gamma=0.0)
        assert max(
            abs(a - b) for a, b in zip(table.row_a("X"), table.row_a("Y"))
        ) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, qg.GAMMA_MAX])
    def test_x_y_rows_identical_from_equal_superposition(self, gamma):
        table = qg.sweep_g4(merging_game(), initial=qg.equal_superposition(), gamma=gamma)
        assert max(
            abs(a - b) for a, b in zip(table.row_a("X"), table.row_a("Y"))
        ) < 1e-12


class TestPresets:
    def test_u1_1_distribution(self):
        p = qg.preset("QG_U1_1")
        dist = qg.play(merging_game(), p.initial, p.gamma, p.strategy_a, p.strategy_b)
        want = (0.5, 0.5, 0.0, 0.0)
        assert max(abs(a - b) for a, b in zip(dist.as_tuple(), want)) < 1e-9
        assert abs(expected_payoff(dist, merging_game(), "a") - 5.0) < 1e-9

    def test_u1_2_distribution(self):
        p = qg.preset("qg-u1-2")
        dist = qg.play(merging_game(), p.initial, p.gamma, p.strategy_a, p.strategy_b)
        assert max(abs(x - 0.25) for x in dist.as_tuple()) < 1e-9

    def test_g4_leaves_b_open(self):
        p = qg.preset("qg_g4")
        assert p.strategy_b is None
        assert p.strategy_a is qg.QuantumGate.IDENTITY
        assert np.array_equal(p.initial, qg.basis_state("s10"))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            qg.preset("qg-u2")


class TestSweep:
    def test_theta_b_zero_closed_form(self):
        # E[u_A] = 3.75 + 1.25 sin(theta) cos(gamma) on the equal-superposition
        # start with theta_b = 0 and merging payoffs
        result = qg.sweep_u1(merging_game(), gamma_points=9, theta_points=9)
        for row in result.rows:
            want = 3.75 + 1.25 * math.sin(row.theta_a) * math.cos(row.gamma)
            assert abs(row.eu_a - want) < 1e-9

    def test_rows_match_single_point_solver(self):
        # every row, both modes, bit for bit, from a start with no symmetry
        game = merging_game()
        psi0 = qg.parse_initial_state([1, 2j, 0.5, -1])
        for mode in qg.SWEEP_MODES:
            result = qg.sweep_u1(game, mode=mode, initial=psi0, gamma_points=5, theta_points=5)
            for row in result.rows:
                dist = qg.play(
                    game, psi0, row.gamma, qg.StrategyU(row.theta_a), qg.StrategyU(row.theta_b),
                )
                assert (row.p00, row.p01, row.p10, row.p11) == dist.as_tuple(), (mode, row)
                assert row.eu_a == expected_payoff(dist, game, "a"), (mode, row)
                assert row.eu_b == expected_payoff(dist, game, "b"), (mode, row)

    def test_extrema_on_coarse_grid(self):
        result = qg.sweep_u1(merging_game(), gamma_points=11, theta_points=11)
        assert result.argmax.gamma == 0.0
        assert abs(result.argmax.theta_a - math.pi / 2) < 1e-9
        assert abs(result.argmin.gamma - qg.GAMMA_MAX) < 1e-9
        assert result.argmin.theta_a == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            qg.sweep_u1(merging_game(), mode="thetas_equal")

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            qg.sweep_u1(merging_game(), gamma_points=1)


class TestCsv:
    def test_sweep_csv_round_trip(self, tmp_path):
        result = qg.sweep_u1(merging_game(), gamma_points=3, theta_points=3)
        path = tmp_path / "sweep.csv"
        qg.write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,theta_a,theta_b,p00,p01,p10,p11,eu_a,eu_b"
        assert len(lines) == 1 + 9
        first = [float(x) for x in lines[1].split(",")]
        row = result.rows[0]
        assert first == [
            row.gamma, row.theta_a, row.theta_b,
            row.p00, row.p01, row.p10, row.p11, row.eu_a, row.eu_b,
        ]

    def test_gate_table_csv_shape(self, tmp_path):
        table = qg.sweep_g4(merging_game())
        path = tmp_path / "table.csv"
        qg.write_gate_table_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,gate_a,gate_b,eu_a,eu_b"
        assert len(lines) == 1 + 25
        letters = [ln.split(",")[1] for ln in lines[1:6]]
        assert letters == ["H", "H", "H", "H", "H"]
