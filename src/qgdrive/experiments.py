"""Seeded Monte Carlo comparison of decision policies on the two scenarios.

The seeded draw contract. Episode i draws from numpy's
default_rng(SeedSequence(master_seed, spawn_key=(i,))) alone, so any
episode is reproducible in isolation, and in this order:
- six random() doubles: the initial ev_s, ev_v, iv_s and iv_v, which
  sample_initial scales, then the EV and the IV decision uniform;
- a uniform QG_G4's opponent gate, integers(5);
- under decision replay, blocks of k = 2*(horizon - 1) uniforms, each one
  random(k) call, which equals k scalar draws bit for bit. A uniform QG_G4
  reads its own block, drawn right after its gate, and the other policies
  share the one after the six; so a gate that fixes its law skips its
  block without moving any other draw. Each replayed decision reads the
  block's next two uniforms (EV, IV) for a game policy, or the next one,
  the IV's, for IDM/MOBIL.
Without replay nothing is drawn after the gate. Every policy decides and
integrates from the episode's same initial states and decision uniforms
(common random numbers), so a policy's row does not depend on which other
policies run beside it, or in what order. qgdrive.streams derives these
draws, a chunk of episodes at a time.

run_comparison derives a chunk of _CHUNK episodes' draws in one
streams.episode_rng call and scales its initial states in one
sample_initial call, then runs the chunk, or under replay each of its row
batches (streams._ROWS episodes), in three passes:
(1) Decide each (episode, policy) once with episode_decision, and record
    each episode's distinct held joint actions. Under replay a game policy
    is held where its law is fixed (_fixed_law): QG_G4[Z], and a uniform
    QG_G4 whose gate is X, Y, Z or I. Every other game policy's replayed
    decisions read only its block, so _columns derives them in advance,
    one vectorized call per law and block. IDM and MOBIL read the state,
    so their replay runs here, in run_episode's scalar loop, and is tallied.
(2) Integrate the held joint actions, at most four per episode, and the
    replaying game policies' lanes in one scenario_sim.run_episodes call.
(3) Episode-major, read each result through run_episode's `shared` lookup,
    by joint action or by replay handle, and tally every (episode, policy).

Each policy is one row of POLICIES: the scenario it runs on and what
decides for it. Game-backed policies act by sampling their joint outcome
distribution: the EV action comes from the policy's EV marginal, the IV
action from the distribution conditioned on that EV action, each by
comparing a uniform with the distribution's fixed inverse-CDF thresholds
(computed once per distribution and run, and read by the start and every
replayed decision). Only CG-EPD and the two QG-U1 presets have a uniform IV
conditional, which reduces to an independent 50/50 IV draw shared across
policies. CG-MS and QG-G4 do not: QG_G4[Z]'s law is (0, 1, 0, 0), so its
IV decelerates in every episode, and each of the uniform opponent model's
five gate laws fixes the IV's action given the EV's. IDM/MOBIL's rule
computes the EV action from the state; their IV stays on the 50/50 draw.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .classical_game import (
    OutcomeDistribution,
    TwoPlayerGame,
    _require_int,
    builtin_game,
    cg_epd_distribution,
    cg_ms_distribution,
    read_key_values,
    write_csv,
)
from .quantum_game import (
    GATE_ORDER,
    QuantumGate,
    as_gate,
    play,
    preset,
)
from .scenario_sim import (
    ScenarioConfig,
    _require,
    builtin_scenario,
    idm_entry_decision,
    mobil_merge_decision,
    run_episode,
    run_episodes,
    sample_initial,
)
from .streams import _Derived, episode_rng

# Report name -> (the one scenario kind the policy runs on, or None for both;
# what decides for it): a game policy's law builder, (game, assumed_gate) ->
# OutcomeDistribution or policy_distributions' tuple, or a driver baseline's
# rule, (scenario, ev_s, ev_v, iv_s, iv_v) -> EV action, taken before the EV
# leaves its entry lane. The lambdas look their functions up at call time, so
# a tracer that swaps them sees each call.
POLICIES = {
    "CG_EPD": (None, lambda game, gate: cg_epd_distribution()),
    "CG_MS": (None, lambda game, gate: cg_ms_distribution(game)),
    "QG_U1_1": (None, lambda game, gate: play(preset("QG_U1_1"))),
    "QG_U1_2": (None, lambda game, gate: play(preset("QG_U1_2"))),
    "QG_G4": (None, lambda game, gate: (
        tuple(play(preset("QG_G4", g)) for g in GATE_ORDER) if gate == "uniform"
        else play(preset("QG_G4", gate)))),
    "IDM": ("roundabout", lambda *state: idm_entry_decision(*state)),
    "MOBIL": ("merging", lambda *state: mobil_merge_decision(*state)),
}


@dataclass(frozen=True)
class PolicySpec:
    """A POLICIES row by name; assumed_gate configures QG-G4's opponent
    model: a single gate, as a letter or a QuantumGate (default 'Z'), or
    'uniform' for a per-episode uniform draw over the five gates."""

    name: str
    assumed_gate: "str | QuantumGate" = "Z"

    def __post_init__(self):
        gate = self.assumed_gate
        if not isinstance(self.name, str) or not isinstance(gate, (str, QuantumGate)):
            raise ValueError(f"a policy takes a str name and a str or QuantumGate assumed_gate, "
                             f"got {self.name!r} and {gate!r}")
        canon = self.name.strip().upper().replace("-", "_")
        object.__setattr__(self, "name", canon)
        if canon not in POLICIES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {tuple(POLICIES)}")
        gate = gate.strip() if isinstance(gate, str) else gate
        uniform = isinstance(gate, str) and gate.lower() == "uniform"
        object.__setattr__(self, "assumed_gate", "uniform" if uniform else as_gate(gate).value)

    def label(self) -> str:
        """Report label; QG_G4 carries its opponent-gate model."""
        if self.name == "QG_G4":
            return f"QG_G4[{self.assumed_gate}]"
        return self.name


@dataclass(frozen=True)
class MonteCarloConfig:
    scenario: ScenarioConfig
    game: TwoPlayerGame
    episodes: int
    master_seed: int

    def __post_init__(self):
        _require(self, ("scenario",), lambda v: isinstance(v, ScenarioConfig), "a ScenarioConfig")
        _require(self, ("game",), lambda v: isinstance(v, TwoPlayerGame), "a TwoPlayerGame")
        _require_int("episodes", self.episodes, 1)
        _require_int("master_seed", self.master_seed, 0)


class MetricsSummary(NamedTuple):
    scenario: str
    method: str
    episodes: int
    cr: float               # collision rate, fraction
    sr: float               # success rate, fraction
    mean_headway_m: float   # mean over episodes of per-episode mean headway
    cr_ci95: float          # Wilson 95% halfwidth for cr


def wilson_halfwidth(successes: int, n: int) -> float:
    """Halfwidth of the 95% Wilson score interval for a binomial fraction."""
    if n <= 0:
        return 0.0
    z = 1.959963984540054  # two-sided 95% normal quantile
    phat = successes / n
    denom = n + z * z
    return z * math.sqrt(phat * (1.0 - phat) * n + z * z / 4.0) / denom


def _check_compatible(policy: PolicySpec, scenario: ScenarioConfig) -> None:
    kind = POLICIES[policy.name][0]
    if kind not in (None, scenario.kind):
        raise ValueError(f"{policy.name} is a {kind}-only baseline; "
                         f"it has no decision to take on the {scenario.kind} scenario")


def policy_distributions(policy: PolicySpec, game: TwoPlayerGame):
    """Outcome distribution(s) backing a game policy, from its POLICIES
    row's law builder, or None for a driver baseline (IDM/MOBIL).

    Returns a single OutcomeDistribution for fixed policies, or a tuple of
    five (one per opponent gate, GATE_ORDER) for QG_G4 with the uniform
    opponent model.
    """
    kind, decide = POLICIES[policy.name]
    return None if kind else decide(game, policy.assumed_gate)


def _sample_joint(thresholds: tuple, u_ev: float, u_iv: float) -> tuple[int, int]:
    """Invert a joint distribution at its fixed thresholds (its
    OutcomeDistribution.thresholds, which a replay callback binds once per
    episode): EV from its marginal, IV from the conditional given the EV
    action. Keeps the exact joint law while sharing the two uniforms across
    policies; a uniform on a threshold takes action 1."""
    p_ev0, p_iv0_ev0, p_iv0_ev1 = thresholds
    if u_ev < p_ev0:
        return 0, (0 if u_iv < p_iv0_ev0 else 1)
    return 1, (0 if u_iv < p_iv0_ev1 else 1)


def _fixed_law(dist: OutcomeDistribution) -> bool:
    """Whether _sample_joint takes one joint action from `dist` at every pair
    of uniforms: P(A=0) is exactly 0.0 or 1.0, and so is the conditional
    threshold of the one EV action that can be drawn. A uniform u in [0, 1)
    is always below 1.0 and never below 0.0, so a replayed decision under
    such a law repeats the start decision, and the replayed episode is the
    held one. A threshold just below 1.0 (QG_U1_1's P(A=0) is
    0.9999999999999998) is not fixed."""
    p_ev0, p_iv0_ev0, p_iv0_ev1 = dist.thresholds
    if p_ev0 == 1.0:
        return p_iv0_ev0 in (0.0, 1.0)
    return p_ev0 == 0.0 and p_iv0_ev1 in (0.0, 1.0)


def _columns(thresholds: tuple, blocks):
    """_sample_joint at `thresholds` over the k/2 (EV, IV) uniform pairs of
    each row of the (n, k) `blocks`: an (n, k/2, 2) bool array of (EV action,
    IV action), True for 1, each row a run_episodes lane's columns. No
    uniform is NaN, so `>=` is _sample_joint's `not <`."""
    p_ev0, p_iv0_ev0, p_iv0_ev1 = thresholds
    pairs = blocks.reshape(len(blocks), -1, 2)
    # the IV's action given EV action 0, then given 1 where the EV takes it
    decisions = pairs >= (p_ev0, p_iv0_ev0)
    ev, iv = decisions[..., 0], decisions[..., 1]
    iv &= ~ev
    iv |= ev & (pairs[..., 1] >= p_iv0_ev1)
    return decisions


def episode_decision(policy, scenario, dists, rng, ev, iv, u_ev, u_iv, uniforms=None):
    """Episode-start (EV action, IV action), and how the episode replays,
    for `dists` from policy_distributions: None if it is held, a driver
    baseline's callback `(ev_s, ev_v, iv_s, iv_v) -> (EV action, IV
    action)`, or the OutcomeDistribution a game policy's replays invert.

    The start takes the episode's shared EV and IV uniforms; a uniform QG_G4
    then draws its opponent gate from `rng`, and IDM/MOBIL apply their rule
    to the positions and speeds of `ev` and `iv`. `uniforms` is the
    episode's shared replay block, which the driver callback reads as the
    module docstring states; without it, and for a fixed law (_fixed_law),
    the episode is held. `rng` is read through integers(n) only: a numpy
    Generator just after the episode's shared six, or streams._Derived.
    """
    if dists is None:
        rule = POLICIES[policy.name][1]
        start = rule(scenario, ev.s, ev.v, iv.s, iv.v), 0 if u_iv < 0.5 else 1
        if uniforms is None:
            return start, None
        u_next = iter(uniforms).__next__

        def replay(ev_s, ev_v, iv_s, iv_v):
            return (rule(scenario, ev_s, ev_v, iv_s, iv_v),
                    0 if u_next() < 0.5 else 1)

        return start, replay
    dist = dists[int(rng.integers(len(dists)))] if isinstance(dists, tuple) else dists
    start = _sample_joint(dist.thresholds, u_ev, u_iv)
    return start, None if uniforms is None or _fixed_law(dist) else dist


# Episodes per episode_rng call and, without replay, per kernel call. Each
# kernel call pays a fixed cost per step, so fewer, larger calls are faster
# up to a point: on merging with six policies at the CLI default of
# 10,000 episodes (2-core Xeon, CPython 3.11.7, numpy 2.4.6), run_comparison
# took 1.19, 1.07, 1.00 and 1.04 times as long with chunks of 512, 1024,
# 2048 and 4096 (the median ratio over 41 interleaved rounds), and 2048 is
# the smallest within 3% of the fastest. A chunk holds about 2 KB per
# episode: run_comparison's tracemalloc peak there is 4.2 MB at 2048,
# against 1.0 MB at 512. Under decision replay (roundabout, six policies
# with a uniform QG_G4, 10,000 episodes) it is 2.3 MB at 2048 and 1.6 MB at
# 512: the chunk's draws and initial states, and one row batch's columns,
# lanes and results at a time.
_CHUNK = 2048


def run_comparison(policies, config: MonteCarloConfig) -> tuple[MetricsSummary, ...]:
    """Run every policy over the same episode set (same master seed), in
    the module docstring's three passes. Each report label may appear once;
    a repeat, like a policy on the wrong scenario, is rejected before
    anything runs."""
    specs = [p if isinstance(p, PolicySpec) else PolicySpec(str(p)) for p in policies]
    if not specs:
        raise ValueError("no policies given")
    labels = [spec.label() for spec in specs]
    for i, spec in enumerate(specs):
        _check_compatible(spec, config.scenario)
        if labels[i] in labels[:i]:
            raise ValueError(f"policy {labels[i]} is given more than once")
    scenario = config.scenario
    n = config.episodes
    dists = [policy_distributions(spec, config.game) for spec in specs]
    outcomes = [Counter() for _ in specs]
    headway_totals = [0.0] * len(specs)
    choices = next((len(d) for d in dists if isinstance(d, tuple)), None)
    k = 2 * (scenario.horizon - 1)

    def tally(j, result):
        outcomes[j][result.outcome] += 1
        headway_totals[j] += result.mean_headway

    def decide(span, rows, resume):
        """Pass 1 over `span`'s (index in the chunk, initial states, decision
        uniforms, gate) and `rows`, their row batch under replay: each
        episode's (ev0, iv0, joints, held, handles), and the replayed lanes."""
        # joints holds the held joint actions, handles each replayed game
        # policy's (index, start joint action), the index its replay handle;
        # a driver's replay is tallied here. Only a uniform QG_G4 reads
        # `rng`, and a label appears once, so the policies share it
        episodes, replays, fallbacks = [], [], []
        for r, (j, (ev0, iv0), (u_ev, u_iv), gate) in enumerate(span):
            block = None if rows is None else rows[r, :k]
            rng = None if gate is None else _Derived(gate) if gate >= 0 else resume(j)
            joints, handles = [], []
            for p, (spec, d) in enumerate(zip(specs, dists)):
                joint, replay = episode_decision(spec, scenario, d, rng, ev0, iv0, u_ev, u_iv,
                                                 block)
                if replay is not None:
                    if d is None:
                        tally(p, run_episode(scenario, ev0, iv0, *joint, decide=replay))
                    else:
                        replays.append((ev0, iv0, joint, r, replay.thresholds,
                                        isinstance(d, tuple)))
                        handles.append((p, joint))
                    joint = None
                joints.append(joint)
            if gate is not None and gate < 0:
                fallbacks.append((r, rng))
            held = [joint for joint in dict.fromkeys(joints) if joint is not None]
            episodes.append((ev0, iv0, joints, held, handles or ()))
        columns, replay_lanes = {}, []
        if replays:
            blocks = [rows[:, :k], rows[:, 1:1 + k]]  # the shared ones, a uniform QG_G4's own
            if fallbacks:  # their Generators drew the gates, and draw the own blocks
                blocks[1] = blocks[1].copy()
                for r, gen in fallbacks:
                    blocks[1][r] = gen.random(k)
        for ev0, iv0, joint, r, thresholds, own in replays:
            if (thresholds, own) not in columns:
                columns[thresholds, own] = _columns(thresholds, blocks[own])
            replay_lanes.append((ev0, iv0, *joint, columns[thresholds, own][r]))
        return episodes, replay_lanes

    def integrate(episodes, replay_lanes):
        """Passes 2 and 3, the held lanes first."""
        results = run_episodes(scenario, chain(
            ((ev0, iv0, *joint) for ev0, iv0, _, held, _ in episodes for joint in held),
            replay_lanes))
        held_results = iter(results)
        replayed = islice(results, len(results) - len(replay_lanes), None)
        for ev0, iv0, joints, held, handles in episodes:
            shared = {joint: next(held_results) for joint in held}
            for p, joint in enumerate(joints):
                if joint is not None:
                    tally(p, run_episode(scenario, ev0, iv0, *joint, shared=shared))
            for p, joint in handles:
                shared[p] = next(replayed)
                tally(p, run_episode(scenario, ev0, iv0, *joint, decide=p, shared=shared))

    def run_chunk(start, count):  # its arrays and results go when it returns
        u, gates, batches, resume = episode_rng(config.master_seed, start, count, choices)
        # strict: reading every episode frees each list before the kernel runs
        span = zip(range(count), sample_initial(scenario, u[:, :4]), u[:, 4:].tolist(),
                   [None] * count if gates is None else gates.tolist(), strict=True)
        if not scenario.decision_replay:
            return integrate(*decide(span, None, resume))
        # the shared block, then one more draw for a uniform QG_G4's own block
        for rows in batches(k + (choices is not None)):
            work = decide(islice(span, len(rows)), rows, resume)
            del rows  # freed before the kernel runs
            integrate(*work)
            del work  # the columns too, before the next batch is derived

    for start in range(0, n, _CHUNK):
        run_chunk(start, min(_CHUNK, n - start))
    return tuple(
        MetricsSummary(
            scenario=scenario.kind,
            method=spec.label(),
            episodes=n,
            cr=counts["collision"] / n,
            sr=counts["success"] / n,
            mean_headway_m=headway_total / n,
            cr_ci95=wilson_halfwidth(counts["collision"], n),
        )
        for spec, counts, headway_total in zip(specs, outcomes, headway_totals)
    )


# ---------------------------------------------------------------------------
# Reports

REPORT_FIELDS = MetricsSummary._fields


def emit_report(summaries, path, fmt: str = "csv") -> None:
    """Write the report file, one csv column or json key per MetricsSummary
    field (str of a float is its shortest round-trip repr); rates are
    fractions, not percent. An unknown fmt raises ValueError before the file
    is opened."""
    if fmt == "csv":
        write_csv(path, REPORT_FIELDS, zip(*summaries))
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump([dict(zip(REPORT_FIELDS, s)) for s in summaries], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


# ---------------------------------------------------------------------------
# Experiment config files

def _int_at_least(lo: int):
    """read_key_values converter: an integer no smaller than lo."""
    def convert(text: str) -> int:
        n = int(text)
        if n < lo:
            raise ValueError(f"must be at least {lo}, got {n}")
        return n
    return convert


def _true_or_false(text: str) -> bool:
    """read_key_values converter: 'true' or 'false'."""
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def comparison(kind, policies, episodes, master_seed, assumed_gate=None,
               decision_replay=None, gate_name="assumed_gate"):
    """(specs, config) for a run_comparison of the named policies on the
    builtin scenario and game `kind`: the one builder behind both of
    `qgdrive simulate`'s inputs, its flags and an experiment file. An
    assumed_gate or decision_replay of None keeps PolicySpec's or
    ScenarioConfig's default. A gate given without a QG_G4 among the
    policies raises ValueError naming it as gate_name, since no policy
    would read it."""
    gate = {} if assumed_gate is None else {"assumed_gate": assumed_gate}
    specs = [PolicySpec(name, **gate) for name in policies]
    if gate and all(spec.name != "QG_G4" for spec in specs):
        raise ValueError(f"{gate_name} {assumed_gate!r} is read by qg-g4 only, "
                         "and no qg-g4 is among the policies")
    replay = {} if decision_replay is None else {"decision_replay": decision_replay}
    config = MonteCarloConfig(builtin_scenario(kind, **replay), builtin_game(kind),
                              episodes, master_seed)
    return specs, config


def load_experiment_config(path) -> tuple[list[PolicySpec], MonteCarloConfig]:
    """comparison() of an experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes (positive), master_seed
    (non-negative), policy.name, and optionally policy.assumed_gate and
    decision_replay (true or false, default false). '#' starts a comment.
    A value the builder would reject is rejected at its line, a baseline on
    the other scenario at its policy.name.
    """
    values = read_key_values(
        path,
        {"scenario.kind": lambda kind: builtin_scenario(kind).kind,
         "episodes": _int_at_least(1), "master_seed": _int_at_least(0),
         "policy.name": lambda name: PolicySpec(name).name},
        {"policy.assumed_gate": lambda gate: PolicySpec("QG_G4", gate).assumed_gate,
         "decision_replay": _true_or_false},
    )
    specs, config = comparison(
        values["scenario.kind"], [values["policy.name"]], values["episodes"],
        values["master_seed"], values.get("policy.assumed_gate"),
        values.get("decision_replay"), f"{path}: policy.assumed_gate")
    try:
        _check_compatible(specs[0], config.scenario)
    except ValueError as e:
        raise ValueError(f"{path}: policy.name: {e}") from None
    return specs, config
