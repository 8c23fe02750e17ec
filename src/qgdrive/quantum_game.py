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
from dataclasses import dataclass

import numpy as np

from . import clinalg
from .classical_game import (
    OutcomeDistribution,
    TwoPlayerGame,
    expected_payoff,
)

__all__ = [
    "GAMMA_MAX",
    "QuantumGate",
    "StrategyU",
    "QuantumGameConfig",
    "Preset",
    "SweepRow",
    "SweepResult",
    "GateTable",
    "qubit",
    "qubit_product",
    "basis_state",
    "equal_superposition",
    "parse_initial_state",
    "gate_matrix",
    "entangler",
    "entangler_dagger",
    "strategy_unitary",
    "final_state",
    "outcome_probabilities",
    "expected_payoff",
    "preset",
    "sweep_u1",
    "sweep_g4",
    "write_sweep_csv",
    "write_gate_table_csv",
]

GAMMA_MAX = math.pi / 2
THETA_MAX = math.pi
PHI_MAX = math.pi / 2

BASIS_LABELS = ("s00", "s01", "s10", "s11")

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class QuantumGate(enum.Enum):
    """Five-gate strategy set. Values are the wire-format single letters."""

    HADAMARD = "H"
    PAULI_X = "X"
    PAULI_Y = "Y"
    PAULI_Z = "Z"
    IDENTITY = "I"


_GATE_MATRICES = {
    QuantumGate.HADAMARD: clinalg.mat((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2)),
    QuantumGate.PAULI_X: clinalg.mat((0, 1), (1, 0)),
    QuantumGate.PAULI_Y: clinalg.mat((0, -1j), (1j, 0)),
    QuantumGate.PAULI_Z: clinalg.mat((1, 0), (0, -1)),
    QuantumGate.IDENTITY: clinalg.mat((1, 0), (0, 1)),
}

# Row/column order for the 5x5 gate table and its CSV form.
GATE_ORDER = (
    QuantumGate.HADAMARD,
    QuantumGate.PAULI_X,
    QuantumGate.PAULI_Y,
    QuantumGate.PAULI_Z,
    QuantumGate.IDENTITY,
)


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


def qubit(alpha: complex, beta: complex, tol: float = 1e-9) -> np.ndarray:
    """Single-qubit state (alpha, beta); must be normalized within tol."""
    v = np.array([alpha, beta], dtype=np.complex128)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"qubit norm {n!r} deviates from 1 by more than {tol}")
    return v


def qubit_product(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Joint product state with player A on the high bit."""
    return clinalg.kron(np.asarray(qa).reshape(2), np.asarray(qb).reshape(2))


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


def parse_initial_state(spec) -> np.ndarray:
    """Initial-state from 'equal', a basis label, or 4 complex amplitudes.

    Raw amplitude input (any nonzero norm) is normalized; named forms are
    exact. Used by the CLI and config loaders.
    """
    if isinstance(spec, str):
        if spec.lower() == "equal":
            return equal_superposition()
        return basis_state(spec)
    v = np.asarray(spec, dtype=np.complex128).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"initial state needs 4 amplitudes, got {v.shape[0]}")
    return clinalg.state_vector(v, normalize=True)


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not 0.0 <= g <= GAMMA_MAX + 1e-12:
        raise ValueError(f"gamma must lie in [0, pi/2], got {gamma!r}")
    return g


def entangler(gamma: float) -> np.ndarray:
    """J in closed form; no matrix exponential is evaluated."""
    g = _check_gamma(gamma)
    c = math.cos(g / 2.0)
    s = math.sin(g / 2.0)
    return clinalg.mat(
        (c, 0, 0, -1j * s),
        (0, c, -1j * s, 0),
        (0, -1j * s, c, 0),
        (-1j * s, 0, 0, c),
    )


def entangler_dagger(gamma: float) -> np.ndarray:
    """J^dagger (+i sin on the anti-diagonal)."""
    return entangler(gamma).conj().T


@dataclass(frozen=True)
class StrategyU:
    """Continuous strategy U(theta, phi); the one-parameter variant is phi=0."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= THETA_MAX + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi <= PHI_MAX + 1e-12:
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi!r}")


def strategy_unitary(theta: float, phi: float = 0.0) -> np.ndarray:
    """U(theta, phi) = [[e^{i phi} cos(t/2), sin(t/2)],
    [-sin(t/2), e^{-i phi} cos(t/2)]]."""
    s = StrategyU(float(theta), float(phi))
    c, sn = math.cos(s.theta / 2.0), math.sin(s.theta / 2.0)
    ph = complex(math.cos(s.phi), math.sin(s.phi))
    return clinalg.mat((ph * c, sn), (-sn, ph.conjugate() * c))


def _strategy_matrix(strategy) -> np.ndarray:
    if isinstance(strategy, StrategyU):
        return strategy_unitary(strategy.theta, strategy.phi)
    return gate_matrix(strategy)


@dataclass(frozen=True, eq=False)
class QuantumGameConfig:
    """One playable configuration: payoffs, initial state, gamma, and both
    players' strategies (both continuous, or both gates)."""

    game: TwoPlayerGame
    initial: np.ndarray
    gamma: float
    strategy_a: "StrategyU | QuantumGate"
    strategy_b: "StrategyU | QuantumGate"

    def __post_init__(self):
        object.__setattr__(self, "initial", clinalg.state_vector(self.initial))
        _check_gamma(self.gamma)
        a_cont = isinstance(self.strategy_a, StrategyU)
        b_cont = isinstance(self.strategy_b, StrategyU)
        if a_cont != b_cont:
            raise ValueError(
                "strategy_a and strategy_b must be of the same kind "
                "(both continuous or both gates)"
            )


def final_state(config: QuantumGameConfig) -> np.ndarray:
    """psi_f = J^dagger (U_A kron U_B) J psi_0."""
    j = entangler(config.gamma)
    jd = entangler_dagger(config.gamma)
    move = clinalg.kron(_strategy_matrix(config.strategy_a), _strategy_matrix(config.strategy_b))
    return clinalg.apply(jd, clinalg.apply(move, clinalg.apply(j, config.initial)))


def outcome_probabilities(psi: np.ndarray, tol: float = 1e-9) -> OutcomeDistribution:
    """Measurement distribution |amp|^2 over (s00, s01, s10, s11)."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"final state needs 4 amplitudes, got {v.shape[0]}")
    p = np.abs(v) ** 2
    if abs(float(p.sum()) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {p.sum()!r}; state is not normalized")
    return OutcomeDistribution(float(p[0]), float(p[1]), float(p[2]), float(p[3]))


def play(game: TwoPlayerGame, initial, gamma, strategy_a, strategy_b) -> OutcomeDistribution:
    """Convenience wrapper: build a config, run the circuit, measure."""
    cfg = QuantumGameConfig(
        game=game,
        initial=np.asarray(initial, dtype=np.complex128),
        gamma=gamma,
        strategy_a=strategy_a,
        strategy_b=strategy_b,
    )
    return outcome_probabilities(final_state(cfg))


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True, eq=False)
class Preset:
    """Named model configuration. strategy_b=None leaves B's move open
    (the caller must supply it)."""

    name: str
    gamma: float
    strategy_a: "StrategyU | QuantumGate"
    strategy_b: "StrategyU | QuantumGate | None"
    initial: np.ndarray


def preset(name: str) -> Preset:
    """QG_U1_1 (payoff-maximizing one-parameter point), QG_U1_2 (minimizing),
    or QG_G4 (gate game, A pinned to the identity, B open)."""
    key = name.strip().lower().replace("-", "_")
    if key == "qg_u1_1":
        return Preset("QG_U1_1", 0.0, StrategyU(math.pi / 2.0), StrategyU(0.0), equal_superposition())
    if key == "qg_u1_2":
        return Preset("QG_U1_2", GAMMA_MAX, StrategyU(0.0), StrategyU(0.0), equal_superposition())
    if key == "qg_g4":
        return Preset("QG_G4", GAMMA_MAX, QuantumGate.IDENTITY, None, basis_state("s10"))
    raise ValueError(f"unknown preset {name!r}; expected QG_U1_1, QG_U1_2 or QG_G4")


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


@dataclass(frozen=True)
class SweepResult:
    mode: str
    rows: tuple[SweepRow, ...]
    argmax: SweepRow
    argmin: SweepRow


SWEEP_MODES = ("equal_thetas", "theta_b_zero")


def sweep_u1(
    game: TwoPlayerGame,
    mode: str = "theta_b_zero",
    initial: "np.ndarray | None" = None,
    gamma_points: int = 101,
    theta_points: int = 101,
    tie_tol: float = 1e-9,
) -> SweepResult:
    """Grid sweep of the one-parameter model's expected payoff for A.

    mode 'equal_thetas' sets theta_B = theta_A; 'theta_b_zero' pins B to
    theta_B = 0. Rows run gamma-major then theta. The reported argmax breaks
    payoff ties (within tie_tol) toward the smallest (gamma, theta_a); the
    argmin breaks them toward the largest gamma, then the smallest theta_a,
    so the flat-payoff boundary resolves to the maximally entangled,
    unrotated corner.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    if gamma_points < 2 or theta_points < 2:
        raise ValueError("gamma_points and theta_points must be at least 2")
    psi0 = equal_superposition() if initial is None else clinalg.state_vector(initial)
    gammas = np.linspace(0.0, GAMMA_MAX, gamma_points)
    thetas = np.linspace(0.0, THETA_MAX, theta_points)

    rows = []
    for g in gammas:
        j = entangler(float(g))
        jd = entangler_dagger(float(g))
        pre = j @ psi0
        for t in thetas:
            ta = float(t)
            tb = ta if mode == "equal_thetas" else 0.0
            move = clinalg.kron(strategy_unitary(ta), strategy_unitary(tb))
            psi = jd @ (move @ pre)
            dist = outcome_probabilities(psi)
            rows.append(
                SweepRow(
                    gamma=float(g),
                    theta_a=ta,
                    theta_b=tb,
                    p00=dist.p00,
                    p01=dist.p01,
                    p10=dist.p10,
                    p11=dist.p11,
                    eu_a=expected_payoff(dist, game, "a"),
                    eu_b=expected_payoff(dist, game, "b"),
                )
            )

    vmax = max(r.eu_a for r in rows)
    vmin = min(r.eu_a for r in rows)
    max_ties = [r for r in rows if r.eu_a >= vmax - tie_tol]
    min_ties = [r for r in rows if r.eu_a <= vmin + tie_tol]
    argmax = min(max_ties, key=lambda r: (r.gamma, r.theta_a))
    argmin = min(min_ties, key=lambda r: (-r.gamma, r.theta_a))
    return SweepResult(mode=mode, rows=tuple(rows), argmax=argmax, argmin=argmin)


@dataclass(frozen=True)
class GateTable:
    """5x5 expected payoffs over the gate set, rows = A's gate, columns =
    B's gate, both in GATE_ORDER."""

    gamma: float
    eu_a: tuple[tuple[float, ...], ...]
    eu_b: tuple[tuple[float, ...], ...]

    def row_a(self, gate: "QuantumGate | str") -> tuple[float, ...]:
        return self.eu_a[GATE_ORDER.index(as_gate(gate))]


def sweep_g4(
    game: TwoPlayerGame,
    initial: "np.ndarray | None" = None,
    gamma: float = GAMMA_MAX,
) -> GateTable:
    """Evaluate every gate pair. Default initial state is e_s10: the gate
    analysis starts from the classical (A=NotMerge/Decelerate, B=first
    action) joint basis state rather than a superposition."""
    psi0 = basis_state("s10") if initial is None else clinalg.state_vector(initial)
    j = entangler(float(gamma))
    jd = entangler_dagger(float(gamma))
    pre = j @ psi0
    ea, eb = [], []
    for ga in GATE_ORDER:
        row_a, row_b = [], []
        for gb in GATE_ORDER:
            move = clinalg.kron(_GATE_MATRICES[ga], _GATE_MATRICES[gb])
            dist = outcome_probabilities(jd @ (move @ pre))
            row_a.append(expected_payoff(dist, game, "a"))
            row_b.append(expected_payoff(dist, game, "b"))
        ea.append(tuple(row_a))
        eb.append(tuple(row_b))
    return GateTable(gamma=float(gamma), eu_a=tuple(ea), eu_b=tuple(eb))


# ---------------------------------------------------------------------------
# CSV export

def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def write_sweep_csv(result: "SweepResult | tuple[SweepRow, ...]", path) -> None:
    rows = result.rows if isinstance(result, SweepResult) else tuple(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("gamma,theta_a,theta_b,p00,p01,p10,p11,eu_a,eu_b\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.gamma, r.theta_a, r.theta_b,
                        r.p00, r.p01, r.p10, r.p11,
                        r.eu_a, r.eu_b,
                    )
                )
                + "\n"
            )


def write_gate_table_csv(table: GateTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("gamma,gate_a,gate_b,eu_a,eu_b\n")
        for i, ga in enumerate(GATE_ORDER):
            for k, gb in enumerate(GATE_ORDER):
                fh.write(
                    f"{_fmt(table.gamma)},{ga.value},{gb.value},"
                    f"{_fmt(table.eu_a[i][k])},{_fmt(table.eu_b[i][k])}\n"
                )
