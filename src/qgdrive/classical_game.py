"""2x2 normal-form games and their classical solution concepts.

Players are A (ego vehicle, row player) and B (interacting vehicle, column
player). A joint outcome s_jk means A played action j and B played action k,
matching the amplitude ordering in clinalg. Payoff tables are row-major:
payoff_a[j][k] is A's utility at s_jk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DegenerateGameError(ValueError):
    """Mixed-strategy denominator is zero: player payoffs cannot support an
    interior indifference point."""


class NoInteriorEquilibriumError(ValueError):
    """Indifference probabilities fall outside [0, 1]; the game has no fully
    mixed equilibrium. Values are reported, never clamped."""

    def __init__(self, p: float, q: float):
        super().__init__(f"indifference probabilities outside [0, 1]: p={p}, q={q}")
        self.p = p
        self.q = q


@dataclass(frozen=True)
class TwoPlayerGame:
    name: str
    actions_a: tuple[str, str]
    actions_b: tuple[str, str]
    payoff_a: tuple[tuple[float, float], tuple[float, float]]
    payoff_b: tuple[tuple[float, float], tuple[float, float]]

    def u_a(self, j: int, k: int) -> float:
        return self.payoff_a[j][k]

    def u_b(self, j: int, k: int) -> float:
        return self.payoff_b[j][k]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the four joint outcomes (s00, s01, s10, s11)."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        tol = 1e-9
        for p in self.as_tuple():
            if not -tol <= p <= 1.0 + tol:
                raise ValueError(f"probability {p!r} outside [0, 1]")
        total = sum(self.as_tuple())
        if abs(total - 1.0) > tol:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)


@dataclass(frozen=True)
class MixedStrategy:
    """Interior equilibrium. p: probability that B plays action 0, which
    makes A indifferent; q: probability that A plays action 0, which makes
    B indifferent."""

    p: float
    q: float


def merging_game() -> TwoPlayerGame:
    """Highway on-ramp game. A: Merge / NotMerge; B: Accelerate / Decelerate."""
    return TwoPlayerGame(
        name="merging",
        actions_a=("Merge", "NotMerge"),
        actions_b=("Accelerate", "Decelerate"),
        payoff_a=((0.0, 10.0), (4.0, 1.0)),
        payoff_b=((0.0, 4.0), (10.0, 1.0)),
    )


def roundabout_game() -> TwoPlayerGame:
    """Roundabout entry game. A: Accelerate / Decelerate; B: Accelerate / Idle."""
    return TwoPlayerGame(
        name="roundabout",
        actions_a=("Accelerate", "Decelerate"),
        actions_b=("Accelerate", "Idle"),
        payoff_a=((0.0, 10.0), (4.0, 4.0)),
        payoff_b=((0.0, 4.0), (10.0, 4.0)),
    )


_BUILTIN = {"merging": merging_game, "roundabout": roundabout_game}


def builtin_game(name: str) -> TwoPlayerGame:
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ValueError(
            f"unknown built-in game {name!r}; expected one of {sorted(_BUILTIN)}"
        ) from None


def pure_nash_equilibria(game: TwoPlayerGame) -> tuple[tuple[int, int], ...]:
    """All pure equilibria under weak best-response inequalities, in s_jk order."""
    out = []
    for j in (0, 1):
        for k in (0, 1):
            a_ok = game.u_a(j, k) >= game.u_a(1 - j, k)
            b_ok = game.u_b(j, k) >= game.u_b(j, 1 - k)
            if a_ok and b_ok:
                out.append((j, k))
    return tuple(out)


def mixed_strategy(game: TwoPlayerGame) -> MixedStrategy:
    """Interior mixed equilibrium from the indifference conditions.

    p is derived from A's payoffs and is the weight B must put on action 0
    to make A indifferent; q, from B's payoffs, is A's weight on action 0
    that makes B indifferent. Raises DegenerateGameError on a zero
    denominator and NoInteriorEquilibriumError when either value leaves
    [0, 1].
    """
    ua, ub = game.payoff_a, game.payoff_b
    den_p = ua[0][0] - ua[0][1] - ua[1][0] + ua[1][1]
    den_q = ub[0][0] - ub[0][1] - ub[1][0] + ub[1][1]
    if den_p == 0.0 or den_q == 0.0:
        raise DegenerateGameError(
            f"degenerate payoff structure: denominators ({den_p}, {den_q})"
        )
    p = (ua[1][1] - ua[0][1]) / den_p
    q = (ub[1][1] - ub[1][0]) / den_q
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise NoInteriorEquilibriumError(p, q)
    return MixedStrategy(p=p, q=q)


def cg_epd_distribution() -> OutcomeDistribution:
    """Equal-probability baseline: every joint outcome with probability 1/4."""
    return OutcomeDistribution(0.25, 0.25, 0.25, 0.25)


def cg_ms_distribution(game: TwoPlayerGame) -> OutcomeDistribution:
    """Joint distribution of independent play of the mixed equilibrium.

    A plays action 0 with probability q, B with probability p (each player
    mixes with the probabilities that keep the opponent indifferent).
    """
    ms = mixed_strategy(game)
    p, q = ms.p, ms.q
    return OutcomeDistribution(q * p, q * (1.0 - p), (1.0 - q) * p, (1.0 - q) * (1.0 - p))


def expected_payoff(dist: OutcomeDistribution, game: TwoPlayerGame, player: str) -> float:
    """Probability-weighted utility for player 'a' or 'b' under dist."""
    (u00, u01), (u10, u11) = {"a": game.payoff_a, "b": game.payoff_b}[player]
    return dist.p00 * u00 + dist.p01 * u01 + dist.p10 * u10 + dist.p11 * u11


def read_key_values(path, required: dict, optional: dict) -> dict:
    """Parse a 'key = value' file ('#' starts a comment) into converted values.

    `required` and `optional` map each allowed key to a converter for its
    value. Errors are ValueErrors: a missing or unreadable file (a directory,
    no permission), or, naming path:line, a line without '=', a key outside
    both maps, a repeated key, or a value its converter rejects with
    ValueError.
    """
    fields = {**required, **optional}
    out = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file") from None
    except OSError as e:
        raise ValueError(f"{path}: cannot read: {e.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{where}: unknown key {key!r}; expected one of {sorted(fields)}")
            if key in out:
                raise ValueError(f"{where}: duplicate key {key!r}")
            try:
                out[key] = fields[key](value)
            except ValueError as e:
                raise ValueError(f"{where}: {key}: {e}") from None
    missing = [k for k in required if k not in out]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    return out


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of comma-separated cells.

    UTF-8 with LF line ends; each cell is written as its str(), which for a
    float is its shortest round-trip repr. Rows are written as they are
    drawn from `rows`, which may be any iterable.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _payoff_table(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ValueError(f"needs 4 reals, got {len(parts)}")
    v = [float(x) for x in parts]
    if not all(math.isfinite(x) for x in v):
        raise ValueError(f"payoffs must be finite, got {text!r}")
    return ((v[0], v[1]), (v[2], v[3]))


def _non_empty(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def load_game(path) -> TwoPlayerGame:
    """Parse a game file with read_key_values.

    Required keys: label_a0, label_a1, label_b0, label_b1, ua, ub. The ua/ub
    values are four finite reals, row-major (s00 s01 s10 s11), space or
    comma separated. An optional non-empty 'name' key labels the game.
    """
    fields = read_key_values(path, {
        "label_a0": str, "label_a1": str, "label_b0": str, "label_b1": str,
        "ua": _payoff_table, "ub": _payoff_table,
    }, {"name": _non_empty})
    return TwoPlayerGame(
        name=fields.get("name", "custom"),
        actions_a=(fields["label_a0"], fields["label_a1"]),
        actions_b=(fields["label_b0"], fields["label_b1"]),
        payoff_a=fields["ua"],
        payoff_b=fields["ub"],
    )
