"""Two-qubit strategy games over 2x2 payoff tables.

The protocol: both players' qubits start in a joint state psi_0, an
entangling operator J correlates them, each player applies a local unitary
(either a continuous U(theta, phi) or one of five fixed gates), J^dagger
disentangles, and measurement probabilities over (s00, s01, s10, s11) weight
the classical payoff table.

    psi_f = J^dagger (U_A kron U_B) J psi_0

J = exp(-i gamma/2 sigma_x kron sigma_x) is built in closed form: cos(gamma/2)
on the diagonal and -i sin(gamma/2) on the anti-diagonal. gamma in [0, pi/2]
interpolates from uncorrelated (gamma=0, J=I) to maximally entangled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from . import clinalg
from .classical_game import (
    OutcomeDistribution,
    TwoPlayerGame,
    _require_int,
    expected_payoff,
    write_csv,
)

GAMMA_MAX = math.pi / 2
THETA_MAX = math.pi
PHI_MAX = math.pi / 2

BASIS_LABELS = ("s00", "s01", "s10", "s11")

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class QuantumGate(enum.Enum):
    """Five-gate strategy set, declared in gate-table order (GATE_ORDER).
    Values are the wire-format single letters."""

    HADAMARD = "H"
    PAULI_X = "X"
    PAULI_Y = "Y"
    PAULI_Z = "Z"
    IDENTITY = "I"


_GATE_MATRICES = {
    gate: np.array(rows, dtype=np.complex128) for gate, rows in (
        (QuantumGate.HADAMARD, ((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2))),
        (QuantumGate.PAULI_X, ((0, 1), (1, 0))),
        (QuantumGate.PAULI_Y, ((0, -1j), (1j, 0))),
        (QuantumGate.PAULI_Z, ((1, 0), (0, -1))),
        (QuantumGate.IDENTITY, ((1, 0), (0, 1))),
    )
}

# Row/column order for the 5x5 gate table and its CSV form: H, X, Y, Z, I.
GATE_ORDER = tuple(QuantumGate)


def as_gate(gate: "QuantumGate | str") -> QuantumGate:
    if isinstance(gate, QuantumGate):
        return gate
    try:
        return QuantumGate(str(gate).upper())
    except ValueError:
        raise ValueError(
            f"unknown gate {gate!r}; expected one of "
            f"{', '.join(g.value for g in GATE_ORDER)}"
        )


def gate_matrix(gate: "QuantumGate | str") -> np.ndarray:
    return _GATE_MATRICES[as_gate(gate)].copy()


def basis_state(label: "str | int") -> np.ndarray:
    """Joint basis state by index 0..3 or label s00..s11."""
    index = label
    if isinstance(label, str) and label.lower() in BASIS_LABELS:
        index = BASIS_LABELS.index(label.lower())
    if index not in range(4):
        raise ValueError(f"unknown basis state {label!r}; expected 0..3 or one of {BASIS_LABELS}")
    v = np.zeros(4, dtype=np.complex128)
    v[index] = 1.0
    return v


def equal_superposition() -> np.ndarray:
    """All four amplitudes 1/2, real positive."""
    return np.full(4, 0.5, dtype=np.complex128)


def state_norm(amplitudes) -> tuple[np.float64, float]:
    """(norm, scale): np.linalg.norm of the amplitudes times scale, inf only
    for a non-finite amplitude. scale is 1.0 unless a nonzero vector's norm
    is below 2**-511, where its sum of squares is subnormal or zero and has
    lost digits, or a finite vector's sum of squares overflows; then it is
    2**600 or 2**-600, an exact power of two that brings the squares into
    the normal range, so the vector's norm is norm / scale."""
    v = np.asarray(amplitudes, dtype=np.complex128)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    scale = (2.0**600 if n < 2.0**-511 and v.any()
             else 2.0**-600 if n == np.inf and np.isfinite(v).all() else 1.0)
    return (n, 1.0) if scale == 1.0 else (np.linalg.norm(v * scale), scale)


def state_vector(amplitudes, normalize: bool = False) -> np.ndarray:
    """Validate (or normalize) a length-4 amplitude vector.

    The amplitudes must be finite. With normalize=False the norm must
    already be 1 within 1e-9; with normalize=True any nonzero vector is
    rescaled to unit norm, first by state_norm's scale.
    """
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.shape != (4,):
        raise ValueError(f"state vector must have 4 amplitudes, got shape {v.shape}")
    n, scale = state_norm(v)
    if not np.isfinite(n):
        raise ValueError(f"state vector amplitudes and norm must be finite, got norm {float(n)}")
    if normalize:
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return v / n if scale == 1.0 else v * scale / n
    with np.errstate(over="ignore"):
        n = n / scale       # inf once a finite vector's norm overflows
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"state vector norm {n!r} deviates from 1 by more than 1e-9")
    return v


def _check_angle(name: str, value, top: float, top_text: str) -> float:
    """value as a float; it must lie in [0, top] within 1e-12, and NaN does not."""
    if not 0.0 <= value <= top + 1e-12:
        raise ValueError(f"{name} must lie in [0, {top_text}], got {value!r}")
    return float(value)


def entangler(gamma: float) -> np.ndarray:
    """J in closed form; no matrix exponential is evaluated."""
    g = _check_angle("gamma", gamma, GAMMA_MAX, "pi/2")
    c = math.cos(g / 2.0)
    s = math.sin(g / 2.0)
    return np.array((
        (c, 0, 0, -1j * s),
        (0, c, -1j * s, 0),
        (0, -1j * s, c, 0),
        (-1j * s, 0, 0, c),
    ), dtype=np.complex128)


@dataclass(frozen=True)
class StrategyU:
    """Continuous strategy U(theta, phi); the one-parameter variant is phi=0."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _check_angle("theta", self.theta, THETA_MAX, "pi")
        _check_angle("phi", self.phi, PHI_MAX, "pi/2")


def strategy_unitary(theta: float, phi: float = 0.0) -> np.ndarray:
    """U(theta, phi) = [[e^{i phi} cos(t/2), sin(t/2)],
    [-sin(t/2), e^{-i phi} cos(t/2)]]."""
    s = StrategyU(float(theta), float(phi))
    c, sn = math.cos(s.theta / 2.0), math.sin(s.theta / 2.0)
    ph = complex(math.cos(s.phi), math.sin(s.phi))
    return np.array(((ph * c, sn), (-sn, ph.conjugate() * c)), dtype=np.complex128)


def _strategy_matrix(strategy) -> np.ndarray:
    if isinstance(strategy, StrategyU):
        return strategy_unitary(strategy.theta, strategy.phi)
    return gate_matrix(strategy)


@dataclass(frozen=True, eq=False)
class QuantumGameConfig:
    """One circuit: initial state, gamma, and both players' strategies (both
    continuous, or both gates). The payoff table is not part of it: it only
    weights the measured outcomes afterwards."""

    initial: np.ndarray
    gamma: float
    strategy_a: "StrategyU | QuantumGate"
    strategy_b: "StrategyU | QuantumGate"

    def __post_init__(self):
        object.__setattr__(self, "initial", state_vector(self.initial))
        _check_angle("gamma", self.gamma, GAMMA_MAX, "pi/2")
        a_cont = isinstance(self.strategy_a, StrategyU)
        b_cont = isinstance(self.strategy_b, StrategyU)
        if a_cont != b_cont:
            raise ValueError(
                "strategy_a and strategy_b must be of the same kind "
                "(both continuous or both gates)"
            )


def final_states(psi0: np.ndarray, gamma: float, moves) -> np.ndarray:
    """psi_f = J^dagger (U_A kron U_B) J psi_0 for each (U_A, U_B) in moves, as
    one (k, 4) array from one broadcast matmul. Keep the association
    J^dagger (M (J psi_0)): reordering the products moves the last bits."""
    j = entangler(gamma)
    ks = np.array([clinalg.kron(ua, ub) for ua, ub in moves])
    return (j.conj().T @ (ks @ (j @ psi0))[..., None])[..., 0]


def final_state(config: QuantumGameConfig) -> np.ndarray:
    """psi_f for one configuration."""
    move = (_strategy_matrix(config.strategy_a), _strategy_matrix(config.strategy_b))
    return final_states(config.initial, config.gamma, [move])[0]


def outcome_probabilities(psi: np.ndarray) -> OutcomeDistribution:
    """|amp|^2 over (s00, s01, s10, s11) of one state (4,) as floats, or of a stack
    (k, 4) as 1-d arrays; an unnormalized state fails OutcomeDistribution's check."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[-1] != 4:
        raise ValueError(f"final states need 4 amplitudes each, got shape {v.shape}")
    p = np.abs(v) ** 2
    return OutcomeDistribution(*(p.tolist() if p.ndim == 1 else p.T))


def play(config: QuantumGameConfig) -> OutcomeDistribution:
    """Run the circuit and measure."""
    return outcome_probabilities(final_state(config))


# ---------------------------------------------------------------------------
# Presets


def preset(name: str, gate_b: "QuantumGate | str | None" = None) -> QuantumGameConfig:
    """QG_U1_1 (payoff-maximizing one-parameter point), QG_U1_2 (minimizing),
    or QG_G4 (gate game, A pinned to the identity, B playing gate_b).
    QG_G4 needs gate_b; the QG_U1 presets fix both strategies and take none."""
    key = name.strip().lower().replace("-", "_")
    if key not in ("qg_u1_1", "qg_u1_2", "qg_g4"):
        raise ValueError(f"unknown preset {name!r}; expected QG_U1_1, QG_U1_2 or QG_G4")
    if key == "qg_g4":
        if gate_b is None:
            raise ValueError("QG_G4 needs gate_b, B's gate (H, X, Y, Z or I)")
        return QuantumGameConfig(basis_state("s10"), GAMMA_MAX, QuantumGate.IDENTITY, as_gate(gate_b))
    if gate_b is not None:
        raise ValueError(f"{key.upper()} fixes both strategies; it takes no gate_b")
    if key == "qg_u1_1":
        return QuantumGameConfig(equal_superposition(), 0.0, StrategyU(math.pi / 2.0), StrategyU(0.0))
    return QuantumGameConfig(equal_superposition(), GAMMA_MAX, StrategyU(0.0), StrategyU(0.0))


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    theta_a: float
    theta_b: float
    p00: float
    p01: float
    p10: float
    p11: float
    eu_a: float
    eu_b: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The grid as one 1-d float64 array per SweepRow field, in field order,
    gamma-major."""

    mode: str
    columns: tuple[np.ndarray, ...]
    argmax: SweepRow
    argmin: SweepRow


SWEEP_MODES = ("equal_thetas", "theta_b_zero")


def sweep_u1(
    game: TwoPlayerGame,
    mode: str = "theta_b_zero",
    initial: "np.ndarray | None" = None,
    gamma_points: int = 101,
    theta_points: int = 101,
) -> SweepResult:
    """Grid sweep of the one-parameter model's expected payoff for A.

    mode 'equal_thetas' sets theta_B = theta_A; 'theta_b_zero' pins B to
    theta_B = 0. Rows run gamma-major then theta. The reported argmax breaks
    payoff ties (within 1e-9) toward the smallest (gamma, theta_a); the
    argmin breaks them toward the largest gamma, then the smallest theta_a,
    so the flat-payoff boundary resolves to the maximally entangled,
    unrotated corner.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    _require_int("gamma_points", gamma_points, 2)
    _require_int("theta_points", theta_points, 2)
    psi0 = equal_superposition() if initial is None else state_vector(initial)
    gammas = np.linspace(0.0, GAMMA_MAX, gamma_points)
    thetas = np.linspace(0.0, THETA_MAX, theta_points)
    thetas_b = thetas if mode == "equal_thetas" else np.zeros(theta_points)
    moves = [(strategy_unitary(ta), strategy_unitary(tb)) for ta, tb in zip(thetas, thetas_b)]
    dist = outcome_probabilities(np.concatenate([final_states(psi0, g, moves) for g in gammas]))
    eu_a = expected_payoff(dist, game, "a")
    columns = (np.repeat(gammas, theta_points), np.tile(thetas, gamma_points),
               np.tile(thetas_b, gamma_points), *dist.as_tuple(),
               eu_a, expected_payoff(dist, game, "b"))

    # rows are sorted by (gamma, theta_a): the argmax is the first tie, the
    # argmin the first tie of the last tied gamma
    max_ties = np.flatnonzero(eu_a >= eu_a.max() - 1e-9)
    min_ties = np.flatnonzero(eu_a <= eu_a.min() + 1e-9)
    last = min_ties[min_ties // theta_points == min_ties[-1] // theta_points]
    argmax, argmin = (SweepRow(*(c[i].item() for c in columns)) for i in (max_ties[0], last[0]))
    return SweepResult(mode, columns, argmax, argmin)


@dataclass(frozen=True, eq=False)
class GateTable:
    """5x5 float64 arrays of expected payoffs over the gate set, rows = A's
    gate, columns = B's gate, both in GATE_ORDER."""

    gamma: float
    eu_a: np.ndarray
    eu_b: np.ndarray

    def row_a(self, gate: "QuantumGate | str") -> tuple[float, ...]:
        return tuple(self.eu_a[GATE_ORDER.index(as_gate(gate))].tolist())


def sweep_g4(
    game: TwoPlayerGame,
    initial: "np.ndarray | None" = None,
    gamma: float = GAMMA_MAX,
) -> GateTable:
    """Evaluate every gate pair. Default initial state is e_s10: the gate
    analysis starts from the classical (A=NotMerge/Decelerate, B=first
    action) joint basis state rather than a superposition."""
    psi0 = basis_state("s10") if initial is None else state_vector(initial)
    moves = [(_GATE_MATRICES[ga], _GATE_MATRICES[gb]) for ga in GATE_ORDER for gb in GATE_ORDER]
    dist = outcome_probabilities(final_states(psi0, float(gamma), moves))
    eu_a, eu_b = (expected_payoff(dist, game, player).reshape(5, 5) for player in "ab")
    return GateTable(gamma=float(gamma), eu_a=eu_a, eu_b=eu_b)


# ---------------------------------------------------------------------------
# CSV export

def write_sweep_csv(result: SweepResult, path) -> None:
    """One line per grid point, one column per SweepRow field.

    A column that is not float64 raises ValueError naming it, before the
    file is opened: write_csv would spell its cells by their own str(), so
    an integer column would read 1 where every float column reads 1.0.
    """
    header = [f.name for f in fields(SweepRow)]
    for name, column in zip(header, result.columns):
        if column.dtype != np.float64:
            raise ValueError(f"sweep column {name!r} must be float64, got {column.dtype}")
    write_csv(path, header, result.columns)


def write_gate_table_csv(table: GateTable, path) -> None:
    """One line per (A gate, B gate) pair, both in GATE_ORDER."""
    letters = [g.value for g in GATE_ORDER]
    write_csv(path, ("gamma", "gate_a", "gate_b", "eu_a", "eu_b"), (
        np.full(25, table.gamma), np.repeat(letters, 5), letters * 5,
        table.eu_a.ravel(), table.eu_b.ravel()))
