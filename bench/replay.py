"""Decision-replay roundabout comparison, the program behind `mc-roundabout-replay`.

The `qgdrive` CLI cannot reach decision replay (a scenario flag with no CLI
switch), so this driver does what `qgdrive simulate` would: build the
comparison, run it, and write the JSON report with `emit_report`.

    PYTHONPATH=src python3 bench/replay.py --episodes 2000 --seed 7 --out report.json
"""

from __future__ import annotations

import argparse
import sys

from qgdrive import classical_game, experiments, scenario_sim

POLICIES = ("cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", "idm")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="replay", description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="master seed")
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)
    config = experiments.MonteCarloConfig(
        scenario=scenario_sim.builtin_scenario("roundabout", decision_replay=True),
        game=classical_game.builtin_game("roundabout"),
        episodes=args.episodes,
        master_seed=args.seed,
    )
    specs = [experiments.PolicySpec(name, assumed_gate="uniform") for name in POLICIES]
    summaries = experiments.run_comparison(specs, config)
    experiments.emit_report(summaries, args.out, fmt="json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
