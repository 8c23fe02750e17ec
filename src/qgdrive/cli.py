"""Command-line front end.

Four verbs: `equilibria` (classical solution of a 2x2 game), `solve` (one
model configuration to an outcome distribution), `sweep` (parameter grids
to CSV), `simulate` (seeded Monte Carlo comparison to a report file).

Exit codes: 0 success; 2 rejected input (an argparse usage error, or any
ValueError, which is how the library and CliError reject a flag, file or
value); 1 runtime failure (an OSError such as an unwritable output path,
or any other exception). `main` is the only place that maps errors to exit
codes. Long flags must be spelled in full. File outputs are byte-identical
across repeated runs with the same flags and seed. Angles accept radians
or pi-fraction literals ('pi/2', '3pi/4'); `--initial` accepts 'equal', a
basis label, or eight comma-separated re/im-interleaved amplitude
components, auto-normalized. The environment variable QGDRIVE_OUTPUT_DIR
overrides the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import astuple, replace

import numpy as np

from . import classical_game, experiments, quantum_game
from .classical_game import NoInteriorEquilibriumError

OUTPUT_DIR_ENV = "QGDRIVE_OUTPUT_DIR"


class CliError(ValueError):
    """Usage or config problem found by the CLI itself; exit code 2."""


# ---------------------------------------------------------------------------
# Flag parsing helpers

_PI_RE = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians, or a pi-fraction literal like 'pi', '-pi/2', '3pi/4'."""
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise CliError(f"angle {text!r} divides by zero")
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise CliError(
            f"cannot parse angle {text!r}; use radians or a pi-fraction like 'pi/2'"
        ) from None


def parse_initial_flag(text: str) -> np.ndarray:
    """'equal', a basis label, or 8 comma-separated re/im components."""
    s = text.strip()
    if "," not in s:
        return quantum_game.parse_initial_state(s)
    parts = s.split(",")
    if len(parts) != 8:
        raise CliError(
            f"raw initial state needs 8 components (re,im interleaved), got {len(parts)}"
        )
    try:
        comps = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"non-numeric component in initial state {text!r}") from None
    amps = [complex(comps[2 * i], comps[2 * i + 1]) for i in range(4)]
    if not any(amps):
        raise CliError("initial state must have nonzero norm")
    state = quantum_game.parse_initial_state(amps)
    n, scale = quantum_game.state_norm(amps)
    nrm = float(n) / scale  # the vector's norm; inf once its square overflows
    if abs(nrm - 1.0) > 1e-6:
        print(
            f"warning: initial state norm {nrm!r} deviates from 1; normalizing",
            file=sys.stderr,
        )
    return state


def resolve_game(args) -> classical_game.TwoPlayerGame:
    if getattr(args, "game_file", None):
        return classical_game.load_game(args.game_file)
    return classical_game.builtin_game(args.game)


def file_stem(game: classical_game.TwoPlayerGame) -> str:
    """Default output file stem: the game name's first word, '/' as '_'."""
    return game.name.split()[0].replace("/", "_")


def output_path(explicit: "str | None", default_name: str) -> str:
    """--out wins; otherwise default_name under QGDRIVE_OUTPUT_DIR or cwd."""
    if explicit:
        return explicit
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, default_name) if base else default_name


# ---------------------------------------------------------------------------
# equilibria

def cmd_equilibria(args) -> int:
    game = resolve_game(args)
    print(f"game: {game.name}")
    print(f"  A actions: 0={game.actions_a[0]}  1={game.actions_a[1]}")
    print(f"  B actions: 0={game.actions_b[0]}  1={game.actions_b[1]}")
    ne = classical_game.pure_nash_equilibria(game)
    if ne:
        cells = ", ".join(
            f"s{j}{k} ({game.actions_a[j]}/{game.actions_b[k]})" for j, k in ne
        )
        print(f"pure Nash equilibria: {cells}")
    else:
        print("pure Nash equilibria: none")
    try:
        ms = classical_game.mixed_strategy(game)
    except NoInteriorEquilibriumError as e:
        print(f"no interior mixed equilibrium: p = {e.p!r}, q = {e.q!r}")
    else:
        print(f"mixed strategy: p = {ms.p!r} (B plays {game.actions_b[0]}), "
              f"q = {ms.q!r} (A plays {game.actions_a[0]})")
    if set(ne) == {(0, 1), (1, 0)}:
        print("note: the two equilibria assign the roles oppositely; "
              "equilibrium selection alone cannot coordinate the players")
    return 0


# ---------------------------------------------------------------------------
# solve

def _solve_config(args) -> quantum_game.QuantumGameConfig:
    """The configuration the flags select: the model's preset (qg-u1 has
    none) with every given flag replacing its field."""
    model = args.model
    gate_flags = args.gate_a is not None or args.gate_b is not None
    angle_flags = any(
        v is not None for v in (args.theta_a, args.phi_a, args.theta_b, args.phi_b)
    )
    if model == "qg-g4":
        if angle_flags:
            raise CliError("theta/phi flags apply to the qg-u1 models only")
        if args.gate_b is None:
            raise CliError("qg-g4 needs --gate-b (H, X, Y, Z or I)")
    elif gate_flags:
        raise CliError("gate flags apply to the qg-g4 model only")
    if model == "qg-u1" and None in (args.gamma, args.theta_a, args.theta_b):
        raise CliError("qg-u1 needs --gamma, --theta-a and --theta-b")
    given = {}
    if args.gamma is not None:
        given["gamma"] = parse_angle(args.gamma)
    gate_b = None
    if model == "qg-g4":
        if args.gate_a:
            given["strategy_a"] = quantum_game.as_gate(args.gate_a)
        gate_b = quantum_game.as_gate(args.gate_b)
    else:
        for side, theta, phi in (("a", args.theta_a, args.phi_a), ("b", args.theta_b, args.phi_b)):
            if phi is not None and theta is None:
                raise CliError(f"--phi-{side} needs --theta-{side}")
            if theta is not None:
                given["strategy_" + side] = quantum_game.StrategyU(
                    parse_angle(theta), parse_angle(phi) if phi is not None else 0.0
                )
    if args.initial:
        given["initial"] = parse_initial_flag(args.initial)
    if model == "qg-u1":
        given.setdefault("initial", quantum_game.equal_superposition())
        return quantum_game.QuantumGameConfig(**given)
    return replace(quantum_game.preset(model, gate_b), **given)


def cmd_solve(args) -> int:
    game = resolve_game(args)
    config = _solve_config(args)
    dist = quantum_game.play(config)
    eu_a = classical_game.expected_payoff(dist, game, "a")
    eu_b = classical_game.expected_payoff(dist, game, "b")
    probs = dist.as_tuple()
    if args.format == "json":
        import json

        payload = {
            "game": game.name,
            "gamma": config.gamma,
            "distribution": dict(zip(quantum_game.BASIS_LABELS, probs)),
            "eu_a": eu_a,
            "eu_b": eu_b,
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("p00,p01,p10,p11,eu_a,eu_b")
        print(",".join(repr(float(x)) for x in (*probs, eu_a, eu_b)))
    else:
        print(f"game: {game.name}   gamma = {config.gamma!r}")
        for label, p in zip(quantum_game.BASIS_LABELS, probs):
            print(f"  P({label}) = {p!r}")
        print(f"E[u_A] = {eu_a!r}")
        print(f"E[u_B] = {eu_b!r}")
    return 0


# ---------------------------------------------------------------------------
# sweep

# qg-u1 grid flags; argparse leaves them None so that qg-g4 can reject them
# and sweep_u1 keeps its own defaults
_U1_GRID_FLAGS = ("mode", "gamma_points", "theta_points")


def cmd_sweep(args) -> int:
    grid = {name: getattr(args, name) for name in _U1_GRID_FLAGS
            if getattr(args, name) is not None}
    if args.model == "qg-u1" and args.gamma is not None:
        raise CliError("--gamma applies to the qg-g4 model only; qg-u1 sweeps gamma")
    if args.model == "qg-g4" and grid:
        given = ", ".join("--" + name.replace("_", "-") for name in grid)
        raise CliError(f"{given} apply to the qg-u1 model only")
    game = resolve_game(args)
    initial = parse_initial_flag(args.initial) if args.initial else None
    if args.model == "qg-u1":
        result = quantum_game.sweep_u1(game, initial=initial, **grid)
        path = output_path(args.out, f"sweep_u1_{file_stem(game)}_{result.mode}.csv")
        quantum_game.write_sweep_csv(result, path)
        print(f"wrote {path} ({len(result.columns[0])} rows)")
        mx, mn = result.argmax, result.argmin
        print(f"argmax E[u_A]: gamma = {mx.gamma!r}, theta_a = {mx.theta_a!r}, "
              f"theta_b = {mx.theta_b!r}, E = {mx.eu_a!r}")
        print(f"argmin E[u_A]: gamma = {mn.gamma!r}, theta_a = {mn.theta_a!r}, "
              f"theta_b = {mn.theta_b!r}, E = {mn.eu_a!r}")
        return 0
    gamma = parse_angle(args.gamma) if args.gamma is not None else quantum_game.GAMMA_MAX
    table = quantum_game.sweep_g4(game, initial=initial, gamma=gamma)
    path = output_path(args.out, f"gate_table_{file_stem(game)}.csv")
    quantum_game.write_gate_table_csv(table, path)
    print(f"wrote {path} (gamma = {table.gamma!r})")
    letters = [g.value for g in quantum_game.GATE_ORDER]
    print("E[u_A] by (A gate row, B gate column):")
    print("     " + "".join(f"{c:>11}" for c in letters))
    for letter, row in zip(letters, table.eu_a):
        print(f"  {letter}  " + "".join(f"{x:>11.4g}" for x in row))
    return 0


# ---------------------------------------------------------------------------
# simulate

# the flags an experiment file replaces; argparse leaves each None unless
# given, so that --config can reject it, the flag path can fill the episodes
# and seed defaults, and experiments.comparison keeps the gate's and replay's
_CONFIG_REPLACES = ("scenario", "policies", "episodes", "seed", "assumed_gate",
                    "decision_replay")


def _simulate_setup(args):
    if args.config:
        given = [name for name in _CONFIG_REPLACES if getattr(args, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise CliError(f"--config replaces {flags}; do not combine them")
        return experiments.load_experiment_config(args.config)
    if not args.scenario:
        raise CliError("--scenario is required (or use --config)")
    if not args.policies:
        raise CliError("--policies is required (or use --config)")
    return experiments.comparison(
        args.scenario, [name for name in args.policies.split(",") if name.strip()],
        10000 if args.episodes is None else args.episodes,
        0 if args.seed is None else args.seed,
        args.assumed_gate, args.decision_replay, "--assumed-gate")


def cmd_simulate(args) -> int:
    specs, config = _simulate_setup(args)
    summaries = experiments.run_comparison(specs, config)
    ext = "json" if args.format == "json" else "csv"
    path = output_path(args.out, f"report_{config.scenario.kind}.{ext}")
    experiments.emit_report(summaries, path, fmt=args.format)
    print(f"wrote {path}")
    header = experiments.REPORT_FIELDS
    # text columns fit the labels; the others fit their name, at least 9 wide
    widths = [{"scenario": 12, "method": 16}.get(h, max(len(h) + 1, 9)) for h in header]
    print("".join(f"{h:<{w}}" for h, w in zip(header, widths)))
    for s in summaries:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in astuple(s)]
        print("".join(f"{c:<{w}}" for c, w in zip(cells, widths)))
    print("mean_headway_m averages post-decision steps, collision step excluded")
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgdrive",
        allow_abbrev=False,
        description="Classical and quantum game solvers with a kinematic "
        "driving simulator for merging and roundabout-entry conflicts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, summary):
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def add_model_flag(p, choices):
        p.add_argument("--model", required=True, choices=choices,
                       type=lambda name: name.lower().replace("_", "-"))

    def add_game_flags(p):
        p.add_argument("--game", default="merging",
                       help="builtin game name: merging or roundabout")
        p.add_argument("--game-file", help="game definition file (overrides --game)")

    p_eq = add_verb("equilibria", "pure and mixed classical equilibria")
    add_game_flags(p_eq)
    p_eq.set_defaults(func=cmd_equilibria)

    p_solve = add_verb("solve", "outcome distribution of one configuration")
    add_game_flags(p_solve)
    add_model_flag(p_solve, ("qg-u1", "qg-u1-1", "qg-u1-2", "qg-g4"))
    p_solve.add_argument("--initial", help="equal, s00..s11, or 8 re/im components")
    p_solve.add_argument("--gamma", help="entanglement angle in [0, pi/2]")
    p_solve.add_argument("--theta-a", help="A rotation angle in [0, pi]")
    p_solve.add_argument("--phi-a", help="A phase angle in [0, pi/2]")
    p_solve.add_argument("--theta-b", help="B rotation angle in [0, pi]")
    p_solve.add_argument("--phi-b", help="B phase angle in [0, pi/2]")
    p_solve.add_argument("--gate-a", help="A gate for qg-g4 (default I)")
    p_solve.add_argument("--gate-b", help="B gate for qg-g4 (H, X, Y, Z or I)")
    p_solve.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = add_verb("sweep", "parameter grid to CSV")
    add_game_flags(p_sweep)
    add_model_flag(p_sweep, ("qg-u1", "qg-g4"))
    p_sweep.add_argument("--mode", choices=quantum_game.SWEEP_MODES,
                         help="qg-u1 grid variant (default theta_b_zero)")
    p_sweep.add_argument("--gamma-points", type=int, help="qg-u1 gamma grid size (default 101)")
    p_sweep.add_argument("--theta-points", type=int, help="qg-u1 theta grid size (default 101)")
    p_sweep.add_argument("--gamma", help="fixed entanglement angle for qg-g4")
    p_sweep.add_argument("--initial", help="equal, s00..s11, or 8 re/im components")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = add_verb("simulate", "seeded Monte Carlo policy comparison")
    p_sim.add_argument("--scenario", help="merging or roundabout")
    p_sim.add_argument("--policies",
                       help="comma-separated: " + ",".join(
                           name.lower().replace("_", "-") for name in experiments.POLICIES))
    p_sim.add_argument("--episodes", type=int, help="episodes per policy (default 10000)")
    p_sim.add_argument("--seed", type=int, help="master seed (default 0)")
    p_sim.add_argument("--assumed-gate",
                       help="QG-G4 opponent model: a gate letter or 'uniform' (default Z)")
    p_sim.add_argument("--decision-replay", action="store_true", default=None,
                       help="re-take every policy's decision at each step until its "
                       "maneuver is underway, instead of holding the episode-start one")
    p_sim.add_argument("--config", help="experiment config file (replaces the flags above)")
    p_sim.add_argument("--out", help="report path")
    p_sim.add_argument("--format", default="csv", choices=("csv", "json"))
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure, not a usage problem
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
