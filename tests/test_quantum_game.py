import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qgdrive import clinalg, quantum_game as qg
from qgdrive.classical_game import (
    TwoPlayerGame, builtin_game, cg_epd_distribution, expected_payoff, merging_game,
    pure_nash_equilibria,
)

from oracles import csv_bytes, is_unitary, kron2, mv, random_state

# ---------------------------------------------------------------------------
# Loop-based oracle: plain-Python products, no shared code with the engine.

_X2 = ((0.0, 1.0), (1.0, 0.0))


def _mm(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)
    ]


def _dag(a):
    return [[a[j][i].conjugate() for j in range(4)] for i in range(4)]


def _oracle_entangler(gamma):
    # Taylor series of exp(-i*gamma/2 * X(x)X); fast convergence on [0, pi/2]
    k = kron2(_X2, _X2)
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
    step = mv(j, list(psi0))
    step = mv(kron2(ua, ub), step)
    return np.array(mv(_dag(j), step))


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

    def test_raw_amplitudes_normalize(self):
        v = qg.state_vector([1, 1, 1, 1], normalize=True)
        assert np.allclose(v, 0.5)

    def test_product_state_ordering(self):
        # A's qubit selects the high bit of the joint index
        qa = np.array([0.0, 1.0])
        qb = np.array([1.0, 0.0])
        assert np.array_equal(np.kron(qa, qb), qg.basis_state("s10"))


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
                qg.equal_superposition(),
                0.5,
                qg.StrategyU(1.0),
                qg.QuantumGate.PAULI_X,
            )

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ValueError):
            qg.QuantumGameConfig(
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
                psi0, gamma, qg.StrategyU(ta, pa), qg.StrategyU(tb, pb)
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
            cfg = qg.QuantumGameConfig(psi0, gamma, ga, gb)
            ua = tuple(tuple(row) for row in qg.gate_matrix(ga))
            ub = tuple(tuple(row) for row in qg.gate_matrix(gb))
            want = _oracle_final(psi0, gamma, ua, ub)
            assert np.max(np.abs(qg.final_state(cfg) - want)) < 1e-12

    def test_outcome_probabilities_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qg.outcome_probabilities(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 2, 4)])
    def test_outcome_probabilities_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="4 amplitudes"):
            qg.outcome_probabilities(np.full(shape, 0.5))

    def test_stacked_measurement_matches_each_state(self):
        psi0 = qg.state_vector([1, 2j, 0.5, -1], normalize=True)
        moves = [(qg.gate_matrix(ga), qg.gate_matrix(gb))
                 for ga in qg.GATE_ORDER for gb in qg.GATE_ORDER]
        states = qg.final_states(psi0, 0.7, moves)
        assert states.shape == (25, 4)
        stacked = qg.outcome_probabilities(states)
        for k, psi in enumerate(states):
            one = qg.outcome_probabilities(psi)
            assert all(isinstance(p, float) for p in one.as_tuple())
            assert tuple(c[k] for c in stacked.as_tuple()) == one.as_tuple()

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=qg.GAMMA_MAX, allow_nan=False),
        st.floats(min_value=0.0, max_value=qg.THETA_MAX, allow_nan=False),
        st.floats(min_value=0.0, max_value=qg.THETA_MAX, allow_nan=False),
    )
    def test_distribution_sums_to_one(self, gamma, ta, tb):
        dist = qg.play(qg.QuantumGameConfig(
            qg.equal_superposition(), gamma, qg.StrategyU(ta), qg.StrategyU(tb),
        ))
        assert abs(sum(dist.as_tuple()) - 1.0) < 1e-9

    # from s00 at (theta_A, theta_B) = (0, pi) the final state is
    # -cos(gamma)|01> - i sin(gamma)|10>: a gamma-weighted mixture of the two
    # pure equilibria that never contests
    @given(st.floats(min_value=0.0, max_value=qg.GAMMA_MAX, allow_nan=False))
    def test_s00_at_0_pi_is_a_correlation_device(self, gamma):
        law = qg.play(qg.QuantumGameConfig(
            qg.basis_state("s00"), gamma, qg.StrategyU(0.0), qg.StrategyU(math.pi),
        )).as_tuple()
        want = (0.0, math.cos(gamma) ** 2, math.sin(gamma) ** 2, 0.0)
        assert all(abs(a - b) <= 1e-15 for a, b in zip(law, want))


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
        dist = qg.play(qg.preset("qg-g4", letter))
        want = _GATE_DISTS[letter]
        assert max(abs(a - b) for a, b in zip(dist.as_tuple(), want)) < 1e-9

    def test_uniform_gate_collision_mass(self):
        # averaging the five rows puts exactly 1/5 on s00
        mass = sum(qg.play(qg.preset("qg-g4", g)).p00 for g in qg.GATE_ORDER) / 5.0
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
        psi0 = qg.state_vector([1, 2j, 0.5, -1], normalize=True)
        table = qg.sweep_g4(game, initial=psi0, gamma=gamma)
        for eu in (table.eu_a, table.eu_b):
            assert eu.shape == (5, 5) and eu.dtype == np.float64
        for i, ga in enumerate(qg.GATE_ORDER):
            for k, gb in enumerate(qg.GATE_ORDER):
                dist = qg.play(qg.QuantumGameConfig(psi0, gamma, ga, gb))
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
        dist = qg.play(qg.preset("QG_U1_1"))
        want = (0.5, 0.5, 0.0, 0.0)
        assert max(abs(a - b) for a, b in zip(dist.as_tuple(), want)) < 1e-9
        assert abs(expected_payoff(dist, merging_game(), "a") - 5.0) < 1e-9

    def test_u1_2_distribution(self):
        dist = qg.play(qg.preset("qg-u1-2"))
        assert max(abs(x - 0.25) for x in dist.as_tuple()) < 1e-9

    def test_g4_plays_the_given_gate_for_b(self):
        p = qg.preset("qg_g4", "z")
        assert p.strategy_a is qg.QuantumGate.IDENTITY
        assert p.strategy_b is qg.QuantumGate.PAULI_Z
        assert p.gamma == qg.GAMMA_MAX
        assert np.array_equal(p.initial, qg.basis_state("s10"))

    def test_g4_needs_gate_b(self):
        with pytest.raises(ValueError, match="QG_G4 needs gate_b"):
            qg.preset("qg_g4")

    @pytest.mark.parametrize("name", ["QG_U1_1", "qg-u1-2"])
    def test_u1_rejects_gate_b(self, name):
        with pytest.raises(ValueError, match="takes no gate_b"):
            qg.preset(name, qg.QuantumGate.PAULI_Z)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'qg-u2'"):
            qg.preset("qg-u2")

    # every law simulate plays is the product of two independent classical
    # mixed strategies: a correlated preset would show here
    @pytest.mark.parametrize("name,gate", [
        ("QG_U1_1", None), ("QG_U1_2", None), *(("QG_G4", g.value) for g in qg.GATE_ORDER),
    ], ids=["QG_U1_1", "QG_U1_2", *(f"QG_G4-{g.value}" for g in qg.GATE_ORDER)])
    def test_preset_law_is_a_product_law(self, name, gate):
        p00, p01, p10, p11 = qg.play(qg.preset(name, gate)).as_tuple()
        assert abs(p00 * p11 - p01 * p10) <= 1e-30

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_g4_z_law_is_the_pure_equilibrium_s01(self, kind):
        assert (0, 1) in pure_nash_equilibria(builtin_game(kind))
        law = qg.play(qg.preset("QG_G4", "Z")).as_tuple()
        assert all(abs(a - b) <= 1e-30 for a, b in zip(law, (0.0, 1.0, 0.0, 0.0)))

    def test_u1_2_law_is_cg_epd(self):
        law = qg.play(qg.preset("QG_U1_2")).as_tuple()
        assert all(abs(a - b) <= 1e-30 for a, b in zip(law, cg_epd_distribution().as_tuple()))


def sweep_rows(result):
    """A sweep's columns read back as one SweepRow per grid point."""
    return [qg.SweepRow(*values) for values in zip(*(c.tolist() for c in result.columns))]


class TestSweep:
    def test_theta_b_zero_closed_form(self):
        # E[u_A] = 3.75 + 1.25 sin(theta) cos(gamma) on the equal-superposition
        # start with theta_b = 0 and merging payoffs
        result = qg.sweep_u1(merging_game(), gamma_points=9, theta_points=9)
        for row in sweep_rows(result):
            want = 3.75 + 1.25 * math.sin(row.theta_a) * math.cos(row.gamma)
            assert abs(row.eu_a - want) < 1e-9

    def test_rows_match_single_point_solver(self):
        # every row, both modes, bit for bit, from a start with no symmetry
        game = merging_game()
        psi0 = qg.state_vector([1, 2j, 0.5, -1], normalize=True)
        for mode in qg.SWEEP_MODES:
            result = qg.sweep_u1(game, mode=mode, initial=psi0, gamma_points=5, theta_points=5)
            for row in sweep_rows(result):
                dist = qg.play(qg.QuantumGameConfig(
                    psi0, row.gamma, qg.StrategyU(row.theta_a), qg.StrategyU(row.theta_b),
                ))
                assert (row.p00, row.p01, row.p10, row.p11) == dist.as_tuple(), (mode, row)
                assert row.eu_a == expected_payoff(dist, game, "a"), (mode, row)
                assert row.eu_b == expected_payoff(dist, game, "b"), (mode, row)

    def test_extrema_on_coarse_grid(self):
        result = qg.sweep_u1(merging_game(), gamma_points=11, theta_points=11)
        assert result.argmax.gamma == 0.0
        assert abs(result.argmax.theta_a - math.pi / 2) < 1e-9
        assert abs(result.argmin.gamma - qg.GAMMA_MAX) < 1e-9
        assert result.argmin.theta_a == 0.0

    @pytest.mark.parametrize("mode", qg.SWEEP_MODES)
    def test_flat_payoffs_resolve_to_the_corners(self, mode):
        # every grid point ties: the argmax is the first row, the argmin the
        # first row of the largest gamma
        flat = TwoPlayerGame("flat", ("a0", "a1"), ("b0", "b1"),
                             ((2.0, 2.0), (2.0, 2.0)), ((3.0, 3.0), (3.0, 3.0)))
        result = qg.sweep_u1(flat, mode=mode, gamma_points=7, theta_points=5)
        assert (result.argmax.gamma, result.argmax.theta_a) == (0.0, 0.0)
        assert (result.argmin.gamma, result.argmin.theta_a) == (qg.GAMMA_MAX, 0.0)
        assert all(isinstance(v, float) for v in astuple(result.argmin))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            qg.sweep_u1(merging_game(), mode="thetas_equal")

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            qg.sweep_u1(merging_game(), gamma_points=1)

    @pytest.mark.parametrize("name,value", [
        ("gamma_points", 2.5), ("gamma_points", 3.0), ("theta_points", True), ("theta_points", "3"),
    ])
    def test_grid_sizes_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 2"):
            qg.sweep_u1(merging_game(), **{name: value})


# cells that a float-keyed cache would merge (0.0, -0.0) or miss (nan), next
# to subnormals and the largest exponents
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-300, 1.7976931348623157e308,
                     -1e300, math.inf, math.nan]),
)


class TestCsv:
    def test_sweep_csv_round_trip(self, tmp_path):
        result = qg.sweep_u1(merging_game(), gamma_points=3, theta_points=3)
        path = tmp_path / "sweep.csv"
        qg.write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,theta_a,theta_b,p00,p01,p10,p11,eu_a,eu_b"
        assert len(lines) == 1 + 9
        first = [float(x) for x in lines[1].split(",")]
        row = sweep_rows(result)[0]
        assert first == [
            row.gamma, row.theta_a, row.theta_b,
            row.p00, row.p01, row.p10, row.p11, row.eu_a, row.eu_b,
        ]

    @settings(max_examples=200)
    @given(pools=st.lists(st.lists(_CELLS, min_size=1, max_size=5), min_size=9, max_size=9),
           shared=st.booleans(), picks=st.lists(st.integers(0, 4), max_size=30))
    @example(pools=[[0.0, -0.0, math.nan]] * 9, shared=True, picks=[0, 1, 2, 2, 1, 0, 4])
    @example(pools=[[0.0, -0.0, math.nan]] * 9, shared=True, picks=[])
    @example(pools=[[1.5]] * 9, shared=False, picks=[])
    def test_sweep_csv_spells_every_cell_as_str(self, pools, shared, picks, tmp_path_factory):
        # few distinct values per column, so every spelling is reused; with
        # shared, all nine columns draw from the first pool
        columns = tuple(np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
                        for pool in ([pools[0]] * 9 if shared else pools))
        row = qg.SweepRow(*[0.0] * 9)
        header = [f.name for f in fields(qg.SweepRow)]
        path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
        qg.write_sweep_csv(qg.SweepResult("equal_thetas", columns, row, row), path)
        assert path.read_bytes() == csv_bytes(header, zip(*(c.tolist() for c in columns)))

    def test_sweep_csv_writes_both_zeros(self, tmp_path):
        signed = np.array([0.0, -0.0, -0.0, 0.0])
        row = qg.SweepRow(*[0.0] * 9)
        result = qg.SweepResult("equal_thetas", (signed,) + (np.full(4, 1.5),) * 8, row, row)
        qg.write_sweep_csv(result, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [ln.split(",", 1)[0] for ln in lines[1:]] == ["0.0", "-0.0", "-0.0", "0.0"]

    # unchecked, an int64 column would be spelled 0,1,2 beside 1.5
    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_sweep_csv_rejects_non_float64_columns(self, dtype, tmp_path):
        row = qg.SweepRow(*[0.0] * 9)
        columns = (np.full(3, 1.5),) * 4 + (np.arange(3, dtype=dtype),) + (np.full(3, 1.5),) * 4
        result = qg.SweepResult("equal_thetas", columns, row, row)
        with pytest.raises(ValueError, match="'p01' must be float64"):
            qg.write_sweep_csv(result, tmp_path / "sweep.csv")
        assert not (tmp_path / "sweep.csv").exists()

    def test_gate_table_csv_shape(self, tmp_path):
        table = qg.sweep_g4(merging_game())
        path = tmp_path / "table.csv"
        qg.write_gate_table_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,gate_a,gate_b,eu_a,eu_b"
        assert len(lines) == 1 + 25
        letters = [ln.split(",")[1] for ln in lines[1:6]]
        assert letters == ["H", "H", "H", "H", "H"]
