"""Command-line front end.

Four verbs: `equilibria` (classical solution of a 2x2 game), `solve` (one
model configuration to an outcome distribution), `sweep` (parameter grids
to CSV), `simulate` (seeded Monte Carlo comparison to a report file).

Exit codes: 0 success; 2 rejected input (an argparse usage error, a flag
the chosen --model or --config does not read or a missing one it needs,
each named, or any other ValueError, which is how the library and the CLI
reject a file or value); 1 runtime failure (an OSError such as an
unwritable output path, or any other exception). `main` alone maps errors
to exit codes. Long flags must be spelled in full. File outputs are
byte-identical across repeated runs with the same flags and seed. Angles
accept radians or pi-fraction literals ('pi/2', '3pi/4'); `--initial`
takes parse_initial_flag's grammar. A flag is given when it appears, so an
empty value is read and rejected like any other. The environment variable
QGDRIVE_OUTPUT_DIR overrides the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import replace

from . import classical_game, experiments, quantum_game
from .classical_game import DegenerateGameError, NoInteriorEquilibriumError

OUTPUT_DIR_ENV = "QGDRIVE_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Flag parsing helpers

def typed_flags(dests) -> str:
    """argparse dests as typed, listed: ['gamma', 'theta_a'] -> '--gamma and --theta-a'."""
    flags = ["--" + dest.replace("_", "-") for dest in dests]
    return " and ".join(filter(None, (", ".join(flags[:-1]), flags[-1])))


def reject_flags(args, dests, mode: str) -> None:
    """Reject, naming each, the given flags among dests: mode does not read
    them. Such flags default to None, so one given at its default is rejected
    too and the mode that reads it keeps its own default (sweep_u1's grid,
    simulate's episodes and seed, experiments.comparison's gate and replay)."""
    given = [dest for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError(f"{mode} does not read {typed_flags(given)}")


def require_flags(args, dests, mode: str) -> None:
    """Name every flag in dests when mode lacks one of them."""
    if any(getattr(args, dest) is None for dest in dests):
        raise ValueError(f"{mode} needs {typed_flags(dests)}")


_PI_RE = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians, or a pi-fraction literal like 'pi', '-pi/2', '3pi/4'; -0 reads as +0.0."""
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        return sign * num * math.pi / den + 0.0
    try:
        return float(text) + 0.0
    except ValueError:
        raise ValueError(
            f"cannot parse angle {text!r}; use radians or a pi-fraction like 'pi/2'"
        ) from None


def parse_initial_flag(text: str):
    """The state vector of 'equal', a basis label, or 8 comma-separated re/im
    components; the named forms are exact, the components are normalized."""
    s = text.strip()
    if "," not in s:
        if s.lower() == "equal":
            return quantum_game.equal_superposition()
        return quantum_game.basis_state(s)
    parts = s.split(",")
    if len(parts) != 8:
        raise ValueError(
            f"raw initial state needs 8 components (re,im interleaved), got {len(parts)}"
        )
    try:
        comps = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-numeric component in initial state {text!r}") from None
    amps = [complex(comps[2 * i], comps[2 * i + 1]) for i in range(4)]
    state = quantum_game.state_vector(amps, normalize=True)
    n, scale = quantum_game.state_norm(amps)
    nrm = float(n) / scale  # the vector's norm; inf once its square overflows
    if abs(nrm - 1.0) > 1e-6:
        print(
            f"warning: initial state norm {nrm!r} deviates from 1; normalizing",
            file=sys.stderr,
        )
    return state


def resolve_game(args) -> classical_game.TwoPlayerGame:
    if args.game_file is not None:
        return classical_game.load_game(args.game_file)
    return classical_game.builtin_game(args.game)


def file_stem(game: classical_game.TwoPlayerGame) -> str:
    """Default output file stem: the game name's first word, '/' as '_'."""
    return game.name.split()[0].replace("/", "_")


def output_path(explicit: "str | None", default_name: str) -> str:
    """--out wins; otherwise default_name under QGDRIVE_OUTPUT_DIR or cwd."""
    if explicit is not None:
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
    except DegenerateGameError as e:
        fractions = (("p", e.num_p, e.den_p), ("q", e.num_q, e.den_q))
        dominant = [n for n, num, den in fractions if den == 0.0 and num != 0.0]
        sets = [f"{n} in [0, 1]" if den == 0.0 else f"{n} = {num / den!r}"
                for n, num, den in fractions]
        if dominant:
            print(f"no interior mixed equilibrium: zero denominator for {' and '.join(dominant)}")
        elif all(den == 0.0 or 0.0 <= num / den <= 1.0 for _, num, den in fractions):
            print(f"mixed equilibria: every pair with {sets[0]} (B plays {game.actions_b[0]}) "
                  f"and {sets[1]} (A plays {game.actions_a[0]})")
        else:
            print(f"no interior mixed equilibrium: {sets[0]}, {sets[1]}")
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
    reject_flags(args, ("theta_a", "phi_a", "theta_b", "phi_b") if model == "qg-g4"
                 else ("gate_a", "gate_b"), model)
    needs = {"qg-g4": ("gate_b",), "qg-u1": ("gamma", "theta_a", "theta_b")}.get(model, ())
    require_flags(args, needs, model)
    given = {}
    if args.gamma is not None:
        given["gamma"] = parse_angle(args.gamma)
    if args.gate_a is not None:
        given["strategy_a"] = quantum_game.as_gate(args.gate_a)
    for side, theta, phi in (("a", args.theta_a, args.phi_a), ("b", args.theta_b, args.phi_b)):
        if phi is not None:
            require_flags(args, ("theta_" + side,), typed_flags(["phi_" + side]))
        if theta is not None:
            given["strategy_" + side] = quantum_game.StrategyU(
                parse_angle(theta), parse_angle(phi) if phi is not None else 0.0
            )
    if args.initial is not None:
        given["initial"] = parse_initial_flag(args.initial)
    if model == "qg-u1":
        given.setdefault("initial", quantum_game.equal_superposition())
        return quantum_game.QuantumGameConfig(**given)
    return replace(quantum_game.preset(model, args.gate_b), **given)


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

_U1_GRID_FLAGS = ("mode", "gamma_points", "theta_points")


def cmd_sweep(args) -> int:
    reject_flags(args, ("gamma",) if args.model == "qg-u1" else _U1_GRID_FLAGS, args.model)
    grid = {name: getattr(args, name) for name in _U1_GRID_FLAGS
            if getattr(args, name) is not None}
    game = resolve_game(args)
    initial = parse_initial_flag(args.initial) if args.initial is not None else None
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
    gamma = {} if args.gamma is None else {"gamma": parse_angle(args.gamma)}
    table = quantum_game.sweep_g4(game, initial=initial, **gamma)
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

_CONFIG_REPLACES = ("scenario", "policies", "episodes", "seed", "assumed_gate",
                    "decision_replay")


def _simulate_setup(args):
    if args.config is not None:
        reject_flags(args, _CONFIG_REPLACES, "--config")
        return experiments.load_experiment_config(args.config)
    require_flags(args, ("scenario", "policies"), "simulate without --config")
    return experiments.comparison(
        args.scenario, args.policies.split(","),
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
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in s]
        print("".join(f"{c:<{w}}" for c, w in zip(cells, widths)))
    print("mean_headway_m averages post-decision steps, collision step excluded")
    return 0


# ---------------------------------------------------------------------------
# Parser

_INITIAL_HELP = "equal, s00..s11, or 8 re/im components (--initial=-1,0,... if the first is < 0)"


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
    p_solve.add_argument("--initial", help=_INITIAL_HELP)
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
    p_sweep.add_argument("--initial", help=_INITIAL_HELP)
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
