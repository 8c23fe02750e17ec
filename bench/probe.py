"""Per-layer tracing for one workload run, from outside the package.

    PYTHONPATH=src python3 bench/probe.py STATS.json cli simulate --scenario merging ...
    PYTHONPATH=src python3 bench/probe.py STATS.json replay --episodes 500 --seed 7 --out r.json

Imports qgdrive, replaces the public functions listed in SPANS and COUNTERS
with wrappers that time and count calls, runs `qgdrive.cli.main` (or the
replay driver) on the remaining arguments, and writes the counts and times
to STATS.json. Nothing under src/ is edited: every module attribute that is
the original function object is swapped, so a call is seen wherever the
caller looks the name up (`experiments` imports `run_episode` by name,
`quantum_game` imports `expected_payoff` by name). A function that no
longer exists is skipped and reads as zero calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# Timed spans: (module, function). A span's self time is its total minus the
# time spent in timed spans nested directly inside it.
SPANS = (
    ("cli", "main"),
    ("experiments", "run_monte_carlo"),
    ("experiments", "episode_rng"),
    ("scenario_sim", "sample_initial"),
    ("scenario_sim", "run_episode"),
    ("experiments", "emit_report"),
    ("quantum_game", "sweep_u1"),
    ("quantum_game", "write_sweep_csv"),
)

# Counted, never timed: these run up to millions of times per workload.
COUNTERS = (
    ("scenario_sim", "idm_accel"),
    ("scenario_sim", "mobil_merge_decision"),
    ("scenario_sim", "idm_entry_decision"),
    ("quantum_game", "play"),
    ("quantum_game", "strategy_unitary"),
    ("quantum_game", "outcome_probabilities"),
    ("clinalg", "kron"),
    ("clinalg", "apply"),
    ("classical_game", "expected_payoff"),
)


class Probe:
    """Counts, times and run_episode bookkeeping for one traced process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.child_s: dict[str, float] = {}
        self.stack: list[float] = []  # child time accumulated per open span
        self.steps = 0
        self.shareable = 0            # run_episode calls without a decide callback
        self.keys: set = set()        # distinct (initial states, joint action) among them
        self.outcomes = {"collision": 0, "success": 0, "timeout": 0}
        self.bytes: dict[str, int] = {}

    def span(self, name, fn, after=None):
        calls, total, child, stack = self.calls, self.total_s, self.child_s, self.stack
        calls[name] = 0
        total[name] = child[name] = 0.0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child[name] += stack.pop()
                total[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def after_run_episode(self, args, kwargs, result):
        self.steps += result.steps_run
        self.outcomes[result.outcome] += 1
        if kwargs.get("decide", args[6] if len(args) > 6 else None) is None:
            config, ev0, iv0, ev_action, iv_action = args[:5]
            self.shareable += 1
            self.keys.add((id(config), ev0, iv0, ev_action, iv_action))

    def after_write(self, key):
        def record(args, kwargs, out):
            self.bytes[key] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
        return record

    def stats(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": {k: self.total_s[k] - self.child_s[k] for k in self.total_s},
            "steps": self.steps,
            "shareable": self.shareable,
            "distinct": len(self.keys),
            "outcomes": self.outcomes,
            "bytes": self.bytes,
        }


def install(probe: Probe, extra_modules=()) -> None:
    """Swap every reference to each traced function in qgdrive (and
    extra_modules) for its wrapper."""
    importlib.import_module("qgdrive.cli")
    modules = [m for n, m in list(sys.modules.items())
               if n == "qgdrive" or n.startswith("qgdrive.")]
    modules.extend(extra_modules)
    after = {
        "scenario_sim.run_episode": probe.after_run_episode,
        "experiments.emit_report": probe.after_write("experiments.report"),
        "quantum_game.write_sweep_csv": probe.after_write("quantum_game.sweep_csv"),
    }
    for timed, table in ((True, SPANS), (False, COUNTERS)):
        for mod_name, fn_name in table:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"qgdrive.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            wrapped = (probe.span(name, fn, after.get(name)) if timed
                       else probe.counter(name, fn))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)


def main(argv) -> int:
    stats_path, entry, rest = argv[0], argv[1], argv[2:]
    probe = Probe()
    if entry == "cli":
        install(probe)
        from qgdrive import cli
        code = cli.main(rest)
    elif entry == "replay":
        import replay
        install(probe, extra_modules=(replay,))
        code = replay.main(rest)
    else:
        raise SystemExit(f"unknown entry {entry!r}; expected 'cli' or 'replay'")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(probe.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
