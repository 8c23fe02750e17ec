"""qgdrive benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload mc-merging --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

Run from the repository root. The program is built from source: children
run with PYTHONPATH=src, one at a time, as a closed loop with one client
that waits for each run before starting the next. With --trace 0 it reports
the end-to-end metrics of untraced runs; with --trace 1 it alternates
traced runs (bench/probe.py) with untraced ones and reports the per-layer
metrics. Every output a run writes is checked (see bench/README.md); the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MERGING_POLICIES = "cg-epd,cg-ms,qg-u1-1,qg-u1-2,qg-g4,mobil"
REPLAY_METHODS = ["CG_EPD", "CG_MS", "QG_U1_1", "QG_U1_2", "QG_G4[uniform]", "IDM"]
MERGING_METHODS = ["CG_EPD", "CG_MS", "QG_U1_1", "QG_U1_2", "QG_G4[Z]", "MOBIL"]

# Episodes per policy (mc-*) or grid points per axis (sweep-u1); each makes
# one run take 1-2 s on a 2-core machine, so a 36 s benchmark run takes its
# medians over about 20 iterations.
SIZES = {"mc-merging": 1000, "mc-roundabout-replay": 500, "sweep-u1": 151}
WORKLOADS = tuple(SIZES)

# Geometry oracle: on the default merging geometry only the contested joint
# action s00 collides, so a game policy's collision rate estimates the p00
# of its outcome distribution (policy_distributions in experiments).
MERGING_P00 = {
    "CG_EPD": 0.25,
    "CG_MS": 81.0 / 169.0,
    "QG_U1_1": 0.5,
    "QG_U1_2": 0.25,
    "QG_G4[Z]": 0.0,
}
Z_MAX = 4.0

SWEEP_HEADER = "gamma,theta_a,theta_b,p00,p01,p10,p11,eu_a,eu_b"
TOL = 1e-9

# Timings in --trace 0 are scaled to a machine on which bench/calib.py takes
# REF_S seconds. Each iteration runs that fixed reference child next to the
# set-up call and the workload run, and wall_s (setup_s) is REF_S times the
# median over iterations of workload (set-up) time over reference time. On
# a shared host a process's speed drifts by 20-30% within minutes, and
# neighbouring runs drift together (correlation about 0.6), so the paired
# ratio stays steady where raw wall time does not. REF_S is the reference's
# median on the 2-core machine the benchmark was defined on (CPython 3.11.7,
# numpy 2.4.6). Raw medians are printed as raw.* lines.
REF_S = 0.27

MIN_RUNS = 3          # at least this many untraced workload runs per --trace 0 run
MIN_SETUP = 7         # at least this many set-up calls per --trace 0 run
MIN_TRACED = 2        # at least this many traced runs per --trace 1 run (determinism check)
CHILD_TIMEOUT_S = 120

CHILD_ENV_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# name -> unit
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario_sim.run_episode.s": "s",
    "scenario_sim.run_episode.calls": "count",
    "scenario_sim.steps": "count",
    "scenario_sim.run_episode.us_per_step": "us",
    "scenario_sim.run_episode.distinct_frac": "ratio",
    "scenario_sim.idm_accel.calls": "count",
    "scenario_sim.driver_decisions.calls": "count",
    "experiments.episode_rng.s": "s",
    "experiments.episode_rng.calls": "count",
    "scenario_sim.sample_initial.s": "s",
    "scenario_sim.sample_initial.calls": "count",
    "experiments.run_monte_carlo.self_s": "s",
    "experiments.outcomes.collision": "count",
    "experiments.outcomes.success": "count",
    "experiments.outcomes.timeout": "count",
    "experiments.emit_report.s": "s",
    "experiments.report.bytes": "bytes",
    "quantum_game.sweep_u1.s": "s",
    "quantum_game.strategy_unitary.calls": "count",
    "quantum_game.outcome_probabilities.calls": "count",
    "quantum_game.play.calls": "count",
    "clinalg.kron.calls": "count",
    "clinalg.apply.calls": "count",
    "classical_game.expected_payoff.calls": "count",
    "quantum_game.write_sweep_csv.s": "s",
    "quantum_game.sweep_csv.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Program:
    entry: str            # "cli" (python -m qgdrive.cli) or "replay" (bench/replay.py)
    args: tuple
    out: Path             # the file the run writes
    items: int            # policy-episodes or grid points


def program(workload: str, size: int, seed: int, out: Path) -> Program:
    """The program's inputs for one run; the seed is the master seed."""
    if workload == "mc-merging":
        args = ("simulate", "--scenario", "merging", "--policies", MERGING_POLICIES,
                "--episodes", str(size), "--seed", str(seed), "--format", "json",
                "--out", str(out))
        return Program("cli", args, out, 6 * size)
    if workload == "mc-roundabout-replay":
        args = ("--episodes", str(size), "--seed", str(seed), "--out", str(out))
        return Program("replay", args, out, len(REPLAY_METHODS) * size)
    if workload == "sweep-u1":
        args = ("sweep", "--model", "qg-u1", "--mode", "equal_thetas",
                "--gamma-points", str(size), "--theta-points", str(size), "--out", str(out))
        return Program("cli", args, out, size * size)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def command(prog: Program, stats: "Path | None" = None) -> list:
    if stats is not None:
        return [sys.executable, str(BENCH / "probe.py"), str(stats), prog.entry, *prog.args]
    if prog.entry == "cli":
        return [sys.executable, "-m", "qgdrive.cli", *prog.args]
    return [sys.executable, str(BENCH / "replay.py"), *prog.args]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(CHILD_ENV_CAPS)
    return env


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    code: "int | None"    # None: killed after CHILD_TIMEOUT_S
    stdout: str
    stderr: str


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(cmd: list, work: Path) -> Child:
    """Run one child to completion; peak RSS comes from its own wait4 rusage."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            code, rss = None, 0.0
        else:
            # tell Popen the child is reaped, so it does not wait for it again
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    return Child(wall, rss, code, out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


# ---------------------------------------------------------------------------
# Correctness checks. Each returns a list of problems; empty means correct.


def check_merging(report: list, episodes: int) -> list:
    problems = _check_rows(report, "merging", MERGING_METHODS, episodes)
    for row in report:
        p = MERGING_P00.get(row.get("method"))
        if p is None:
            continue
        se = math.sqrt(p * (1.0 - p) / episodes)
        if abs(row["cr"] - p) > Z_MAX * se:
            problems.append(f"{row['method']}: cr {row['cr']!r} is more than {Z_MAX} "
                            f"standard errors from p00 {p!r}")
    return problems


def check_replay(report: list, episodes: int) -> list:
    return _check_rows(report, "roundabout", REPLAY_METHODS, episodes)


def _check_rows(report: list, scenario: str, methods: list, episodes: int) -> list:
    problems = []
    got = [row.get("method") for row in report]
    if got != methods:
        return [f"methods {got} != {methods}"]
    for row in report:
        if row["scenario"] != scenario or row["episodes"] != episodes:
            problems.append(f"{row['method']}: scenario/episodes "
                            f"{row['scenario']!r}/{row['episodes']!r}")
        cr, sr = row["cr"], row["sr"]
        if not (0.0 <= cr and 0.0 <= sr and cr + sr <= 1.0 + TOL):
            problems.append(f"{row['method']}: cr {cr!r} + sr {sr!r} exceeds 1")
        for rate in (cr, sr):
            if abs(rate * episodes - round(rate * episodes)) > 1e-6:
                problems.append(f"{row['method']}: rate {rate!r} is not a count over {episodes}")
    return problems


def sweep_surface(points: int):
    """Closed form of the equal_thetas sweep on the merging game from the
    equal superposition: p01 = p10 = cos^2(t)/4, p00/p11 =
    (1 +/- 2 sin(t) cos(g) + sin^2(t))/4, so
    E[u_A] = 3.75 - 3.25 sin^2(t) - 0.5 sin(t) cos(g)."""
    import numpy as np

    gammas = np.linspace(0.0, math.pi / 2, points)
    thetas = np.linspace(0.0, math.pi, points)
    sin_t = np.sin(thetas)[None, :]
    eu = 3.75 - 3.25 * sin_t ** 2 - 0.5 * sin_t * np.cos(gammas)[:, None]
    return gammas, thetas, eu


def sweep_extrema(points: int) -> dict:
    """argmax/argmin under sweep_u1's tie rules, from the closed form."""
    import numpy as np

    gammas, thetas, eu = sweep_surface(points)
    hi = np.argwhere(eu >= eu.max() - TOL)[0]             # smallest gamma, then theta
    lo_all = np.argwhere(eu <= eu.min() + TOL)
    lo = min(lo_all, key=lambda ij: (-ij[0], ij[1]))       # largest gamma, smallest theta
    out = {}
    for name, (i, k) in (("argmax", hi), ("argmin", lo)):
        out[name] = (float(gammas[i]), float(thetas[k]), float(thetas[k]), float(eu[i, k]))
    return out


_EXTREMUM_RE = re.compile(
    r"^(argmax|argmin) E\[u_A\]: gamma = (\S+), theta_a = (\S+), theta_b = (\S+), E = (\S+)$",
    re.MULTILINE,
)


def check_sweep(csv_text: str, stdout: str, points: int) -> list:
    import numpy as np

    lines = csv_text.split("\n")
    if lines[0] != SWEEP_HEADER:
        return [f"sweep header {lines[0]!r}"]
    if lines[-1] != "" or len(lines) - 2 != points * points:
        return [f"sweep has {len(lines) - 2} rows, expected {points * points}"]
    rows = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if rows.shape != (points * points, 9):
        return [f"sweep rows have shape {rows.shape}"]
    mass = np.abs(rows[:, 3:7].sum(axis=1) - 1.0)
    if mass.max() > TOL:
        problems.append(f"{int((mass > TOL).sum())} rows whose p00..p11 do not sum to 1")
    gammas, thetas, eu = sweep_surface(points)
    if np.abs(rows[:, 7] - eu.reshape(-1)).max() > TOL:
        problems.append("eu_a departs from the closed-form surface")
    found = {m.group(1): tuple(float(x) for x in m.groups()[1:])
             for m in _EXTREMUM_RE.finditer(stdout)}
    for name, want in sweep_extrema(points).items():
        got = found.get(name)
        if got is None or max(abs(a - b) for a, b in zip(got, want)) > TOL:
            problems.append(f"{name} line {got} != closed form {want}")
    return problems


def check_output(workload: str, size: int, data: bytes, stdout: str) -> list:
    text = data.decode("utf-8")
    if workload == "sweep-u1":
        return check_sweep(text, stdout, size)
    report = json.loads(text)
    if workload == "mc-merging":
        return check_merging(report, size)
    return check_replay(report, size)


def check_setup(child: Child) -> list:
    if child.code != 0:
        return [f"set-up call exited {child.code}: {child.stderr.strip()[-300:]}"]
    if "pure Nash equilibria: s01 (" not in child.stdout or "s10 (" not in child.stdout:
        return [f"set-up call printed {child.stdout[:200]!r}"]
    return []


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Outcome:
    metrics: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)   # printed, not reported as metrics

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Checker:
    """Checks each run's output; every output must be byte-identical to the
    first run's, and is oracle-checked once per distinct content."""

    def __init__(self, workload: str, size: int):
        self.workload, self.size = workload, size
        self.reference = None
        self.verdicts: dict = {}

    def __call__(self, child: Child, prog: Program) -> list:
        if child.code != 0:
            return [f"exit code {child.code}: {child.stderr.strip()[-300:]}"]
        try:
            data = prog.out.read_bytes()
        except FileNotFoundError:
            return [f"{prog.out.name} was not written"]
        digest = hashlib.sha256(data + b"\0" + child.stdout.encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        problems = [] if digest == self.reference else [
            "output differs from the first run at the same seed"]
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = check_output(self.workload, self.size, data, child.stdout)
            except (ValueError, KeyError, TypeError) as e:
                self.verdicts[digest] = [f"unreadable output: {type(e).__name__}: {e}"]
        return problems + self.verdicts[digest]


def _record(outcome: Outcome, problems: list) -> None:
    outcome.attempted += 1
    if problems:
        outcome.failed += 1
        outcome.problems.extend(problems)


def measure_e2e(workload: str, seed: int, seconds: float, size: int, work: Path) -> Outcome:
    prog = program(workload, size, seed, work / "out.dat")
    check = Checker(workload, size)
    game = "roundabout" if workload == "mc-roundabout-replay" else "merging"
    setup_cmd = [sys.executable, "-m", "qgdrive.cli", "equilibria", "--game", game]
    outcome = Outcome({})
    walls, rss, setups, refs = [], [], [], []

    def setup_and_reference():
        child = spawn(setup_cmd, work)
        setups.append(child.wall_s)
        _record(outcome, check_setup(child))
        refs.append(reference(work))

    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
        setup_and_reference()
        prog.out.unlink(missing_ok=True)
        child = spawn(command(prog), work)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        _record(outcome, check(child, prog))
    while len(setups) < MIN_SETUP:
        setup_and_reference()
    wall = REF_S * statistics.median(w / r for w, r in zip(walls, refs))
    outcome.metrics = {
        "wall_s": wall,
        "items_per_s": prog.items / wall,
        "setup_s": REF_S * statistics.median(s / r for s, r in zip(setups, refs)),
        "peak_rss_mb": statistics.median(rss),
    }
    outcome.raw = {
        "raw.wall_s": statistics.median(walls),
        "raw.setup_s": statistics.median(setups),
        "raw.reference_s": statistics.median(refs),
    }
    return outcome


def reference(work: Path) -> float:
    """Wall time of one run of the fixed reference child."""
    child = spawn([sys.executable, str(BENCH / "calib.py")], work)
    if child.code != 0:
        raise RuntimeError(f"reference run failed: {child.stderr.strip()[-500:]}")
    return child.wall_s


COUNT_KEYS = ("calls", "steps", "shareable", "distinct", "outcomes", "bytes")


def counts_of(stats: dict) -> dict:
    """The part of a probe's stats that must repeat exactly at one seed."""
    return {k: stats[k] for k in COUNT_KEYS}


def layer_metrics(runs: list, traced_walls: list, plain_walls: list) -> dict:
    first = runs[0]
    calls = first["calls"]

    def med(fn):
        return statistics.median(fn(s) for s in runs)

    def total(name):
        return med(lambda s: s["total_s"].get(name, 0.0))

    def self_s(name):
        return med(lambda s: s["self_s"].get(name, 0.0))

    episodes = calls.get("scenario_sim.run_episode", 0)
    steps = first["steps"]
    unshared = episodes - first["shareable"] + first["distinct"]
    traced = statistics.median(traced_walls)
    return {
        "scenario_sim.run_episode.s": total("scenario_sim.run_episode"),
        "scenario_sim.run_episode.calls": episodes,
        "scenario_sim.steps": steps,
        "scenario_sim.run_episode.us_per_step": med(
            lambda s: 1e6 * s["total_s"]["scenario_sim.run_episode"] / s["steps"]
        ) if steps else 0.0,
        "scenario_sim.run_episode.distinct_frac": unshared / episodes if episodes else 0.0,
        "scenario_sim.idm_accel.calls": calls.get("scenario_sim.idm_accel", 0),
        "scenario_sim.driver_decisions.calls": (
            calls.get("scenario_sim.mobil_merge_decision", 0)
            + calls.get("scenario_sim.idm_entry_decision", 0)),
        "experiments.episode_rng.s": total("experiments.episode_rng"),
        "experiments.episode_rng.calls": calls.get("experiments.episode_rng", 0),
        "scenario_sim.sample_initial.s": total("scenario_sim.sample_initial"),
        "scenario_sim.sample_initial.calls": calls.get("scenario_sim.sample_initial", 0),
        "experiments.run_monte_carlo.self_s": self_s("experiments.run_monte_carlo"),
        "experiments.outcomes.collision": first["outcomes"]["collision"],
        "experiments.outcomes.success": first["outcomes"]["success"],
        "experiments.outcomes.timeout": first["outcomes"]["timeout"],
        "experiments.emit_report.s": total("experiments.emit_report"),
        "experiments.report.bytes": first["bytes"].get("experiments.report", 0),
        "quantum_game.sweep_u1.s": total("quantum_game.sweep_u1"),
        "quantum_game.strategy_unitary.calls": calls.get("quantum_game.strategy_unitary", 0),
        "quantum_game.outcome_probabilities.calls": calls.get(
            "quantum_game.outcome_probabilities", 0),
        "quantum_game.play.calls": calls.get("quantum_game.play", 0),
        "clinalg.kron.calls": calls.get("clinalg.kron", 0),
        "clinalg.apply.calls": calls.get("clinalg.apply", 0),
        "classical_game.expected_payoff.calls": calls.get("classical_game.expected_payoff", 0),
        "quantum_game.write_sweep_csv.s": total("quantum_game.write_sweep_csv"),
        "quantum_game.sweep_csv.bytes": first["bytes"].get("quantum_game.sweep_csv", 0),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": traced,
        "trace.overhead": statistics.median(t / p for t, p in zip(traced_walls, plain_walls)),
    }


def measure_layers(workload: str, seed: int, seconds: float, size: int, work: Path) -> Outcome:
    prog = program(workload, size, seed, work / "out.dat")
    check = Checker(workload, size)
    stats_path = work / "stats.json"
    outcome = Outcome({})
    runs, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()
    while (len(traced_walls) < MIN_TRACED or not plain_walls
           or time.perf_counter() - start < seconds):
        traced = len(traced_walls) <= len(plain_walls)
        prog.out.unlink(missing_ok=True)
        stats_path.unlink(missing_ok=True)
        child = spawn(command(prog, stats_path if traced else None), work)
        problems = check(child, prog)
        (traced_walls if traced else plain_walls).append(child.wall_s)
        if traced and not problems:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            if runs and counts_of(stats) != counts_of(runs[0]):
                problems.append("DETERMINISM CHECK FAILED: per-layer counts differ between "
                                f"traced runs at seed {seed}: {counts_of(runs[0])} != "
                                f"{counts_of(stats)}")
            else:
                runs.append(stats)
        _record(outcome, problems)
    outcome.metrics = layer_metrics(runs, traced_walls, plain_walls) if runs else {
        name: 0 for name in PER_LAYER}
    return outcome


# ---------------------------------------------------------------------------
# Provenance and output


def provenance(workload: str, seed: int, seconds: float, size: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "items_per_run": program(workload, size, seed, Path("-")).items,
        "reference_s": REF_S,
        "children": "one at a time, closed loop with one client",
        "child_env": CHILD_ENV_CAPS,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size: "int | None" = None) -> Outcome:
    """One benchmark run of one workload; raises RuntimeError if the program
    cannot be started at all."""
    size = SIZES[workload] if size is None else size
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm = spawn([sys.executable, "-m", "qgdrive.cli", "equilibria", "--game", "merging"],
                     work)
        if warm.code != 0:
            raise RuntimeError(f"qgdrive does not start: {warm.stderr.strip()[-500:]}")
        measure = measure_layers if trace else measure_e2e
        return measure(workload, seed, seconds, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{workload:<22} {name:<42} {value!r:>24} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default 0; both with --workload all)")
    args = parser.parse_args(argv)
    if not (SRC / "qgdrive" / "cli.py").is_file():
        print(f"error: no qgdrive sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        modes = (bool(args.trace),)
    else:
        modes = (False, True) if args.workload == "all" else (False,)
    results = {}
    attempted = failed = 0
    for workload in workloads:
        size = SIZES[workload]
        print("provenance", json.dumps(provenance(workload, args.seed, args.seconds, size)))
        for trace in modes:
            try:
                outcome = run_one(workload, args.seed, args.seconds, trace)
            except RuntimeError as e:
                print(f"error: {e}", file=sys.stderr)
                return 1
            units = PER_LAYER if trace else END_TO_END
            print_metrics(workload, outcome.metrics, units)
            print_metrics(workload, outcome.raw, {k: "s" for k in outcome.raw})
            print(f"{workload:<22} {'failed_frac':<42} "
                  f"{outcome.failed / outcome.attempted!r:>24} ratio")
            for problem in dict.fromkeys(outcome.problems):
                print(f"FAILED {workload}: {problem}", file=sys.stderr)
            attempted += outcome.attempted
            failed += outcome.failed
            results.setdefault(workload, {}).update(
                {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()})
    metrics = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
