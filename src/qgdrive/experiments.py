"""Seeded Monte Carlo comparison of decision policies on the two scenarios.

Episode i draws its randomness from a generator derived from (master_seed, i)
alone, so any episode is reproducible in isolation. Each episode consumes
draws in a fixed order: initial states, the EV decision uniform, the IV
decision uniform, then any policy-internal draws (a uniform QG_G4's opponent
gate, then the replay draws). The replay draws are one block of
2*(horizon - 1) uniforms, taken with one `random(k)` call, which equals k
scalar draws bit for bit; without replay nothing is drawn after the gate.
A uniform QG_G4 reads its own block, drawn after its gate from a copy of
the stream, so when the gate fixes its law (see below) it skips that block
without moving any other draw.

The loop is episode-major: a comparison derives episode i's stream and
draws its initial states and both decision uniforms once, and every policy
decides and integrates from those same values (common random numbers). A
policy's row therefore does not depend on which other policies run beside
it, or in what order; run_monte_carlo is the one-policy view of the same
loop.

The episodes go in chunks of _CHUNK, each in three passes. Pass 1 goes
episode by episode, draws as above, and lets every held policy take its
joint action. Without replay every policy is held for the whole episode.
Under decision replay a game policy is held in an episode whose law is
fixed (_fixed_law): P(A=0) and the drawn EV action's conditional are exactly
0.0 or 1.0, so no replayed uniform can change its decision. That is QG_G4[Z]
and a uniform QG_G4 whose gate is X, Y, Z or I. Pass 2 integrates the
chunk's distinct held (episode, joint action) pairs, at most four per
episode however many policies run, in one scenario_sim.run_episodes call.
Pass 3 goes episode-major: each held policy reads its stored result through
run_episode's `shared` lookup, and each replayed policy continues the
episode's stream from the point after the two shared uniforms, kept as the
generator state in pass 1. Every replayed policy without a gate draw reads
the episode's one replay block; a uniform QG_G4 draws its gate and then a
block of its own from a copy of the stream. A replayed (episode, policy)
runs run_episode's scalar loop with a replay callback: a replayed path
depends on its own decisions, so it is neither shared nor batched. This is
the explicit scalar path; run_episode's docstring says why it stays.

Game-backed policies act by sampling their joint outcome distribution: the
EV action comes from the policy's EV marginal, the IV action from the
distribution conditioned on that EV action, each by comparing a uniform
with the distribution's fixed inverse-CDF thresholds (computed once per
distribution and run, and read by the start and every replayed decision).
Only CG-EPD and the two QG-U1 presets have a uniform IV conditional, which
reduces to an independent 50/50 IV draw shared across policies. CG-MS and
QG-G4 do not: QG_G4[Z]'s distribution is (0, 1, 0, 0), so its IV
decelerates in every episode, and each of the uniform opponent model's five
gate distributions fixes the IV's action given the EV's. IDM/MOBIL compute
the EV action deterministically from the sampled initial states; their IV
stays on the 50/50 draw.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

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
    as_gate,
    play,
    preset,
)
from .scenario_sim import (
    ScenarioConfig,
    builtin_scenario,
    idm_entry_core,
    idm_entry_decision,
    mobil_merge_core,
    mobil_merge_decision,
    run_episode,
    run_episodes,
    sample_initial,
)

POLICY_NAMES = ("CG_EPD", "CG_MS", "QG_U1_1", "QG_U1_2", "QG_G4", "IDM", "MOBIL")


@dataclass(frozen=True)
class PolicySpec:
    """A named policy; assumed_gate configures QG-G4's opponent model:
    a single gate letter (default 'Z') or 'uniform' for a per-episode
    uniform draw over the five gates."""

    name: str
    assumed_gate: str = "Z"

    def __post_init__(self):
        canon = self.name.strip().upper().replace("-", "_")
        object.__setattr__(self, "name", canon)
        if canon not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}")
        gate = self.assumed_gate.strip()
        if gate.lower() == "uniform":
            object.__setattr__(self, "assumed_gate", "uniform")
        else:
            object.__setattr__(self, "assumed_gate", as_gate(gate).value)

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
        _require_int("episodes", self.episodes, 1)
        _require_int("master_seed", self.master_seed, 0)


@dataclass(frozen=True)
class MetricsSummary:
    scenario: str
    method: str
    episodes: int
    cr: float               # collision rate, fraction
    sr: float               # success rate, fraction
    mean_headway_m: float   # mean over episodes of per-episode mean headway
    cr_ci95: float          # Wilson 95% halfwidth for cr


def episode_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-episode stream keyed by (master_seed, episode index)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def wilson_halfwidth(successes: int, n: int) -> float:
    """Halfwidth of the 95% Wilson score interval for a binomial fraction."""
    if n <= 0:
        return 0.0
    z = 1.959963984540054  # two-sided 95% normal quantile
    phat = successes / n
    denom = n + z * z
    return z * math.sqrt(phat * (1.0 - phat) * n + z * z / 4.0) / denom


def _check_compatible(policy: PolicySpec, scenario: ScenarioConfig) -> None:
    if policy.name == "MOBIL" and scenario.kind != "merging":
        raise ValueError("MOBIL is a merging-only baseline; it has no lane change to decide here")
    if policy.name == "IDM" and scenario.kind != "roundabout":
        raise ValueError("the IDM gap-acceptance baseline applies to the roundabout only")


def policy_distributions(policy: PolicySpec, game: TwoPlayerGame):
    """Outcome distribution(s) backing a game policy, or None for IDM/MOBIL.

    Returns a single OutcomeDistribution for fixed policies, or a tuple of
    five (one per opponent gate, GATE_ORDER) for QG_G4 with the uniform
    opponent model.
    """
    name = policy.name
    if name == "CG_EPD":
        return cg_epd_distribution()
    if name == "CG_MS":
        return cg_ms_distribution(game)
    if name in ("QG_U1_1", "QG_U1_2"):
        return play(preset(name))
    if name == "QG_G4":
        if policy.assumed_gate == "uniform":
            return tuple(play(preset(name, g)) for g in GATE_ORDER)
        return play(preset(name, policy.assumed_gate))
    return None


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


def _fixed_law(dist: "OutcomeDistribution | None") -> bool:
    """Whether _sample_joint takes one joint action from `dist` at every pair
    of uniforms: P(A=0) is exactly 0.0 or 1.0, and so is the conditional
    threshold of the one EV action that can be drawn. A uniform u in [0, 1)
    is always below 1.0 and never below 0.0, so a replayed decision under
    such a law repeats the start decision, and the replayed episode is the
    held one. A threshold just below 1.0 (QG_U1_1's P(A=0) is
    0.9999999999999998) is not fixed; neither is IDM/MOBIL (None), which
    decides from the state."""
    if dist is None:
        return False
    p_ev0, p_iv0_ev0, p_iv0_ev1 = dist.thresholds
    if p_ev0 == 1.0:
        return p_iv0_ev0 in (0.0, 1.0)
    return p_ev0 == 0.0 and p_iv0_ev1 in (0.0, 1.0)


def _episode_law(dists, rng):
    """The law a game policy plays in an episode: `dists` itself, or for a
    uniform QG_G4 (a tuple of gate laws) the row of the gate drawn from
    `rng`."""
    if isinstance(dists, tuple):
        return dists[int(rng.integers(len(dists)))]
    return dists


def episode_decision(policy, scenario, dists, rng, ev, iv, u_ev, u_iv, uniforms=None):
    """Episode-start (EV action, IV action), and under decision replay the
    episode's replay callback `(ev_lane, ev_s, ev_v, iv_s, iv_v) -> (EV
    action, IV action)`, for `dists` from policy_distributions.

    The start takes the episode's shared EV and IV uniforms; a uniform QG_G4
    then draws its opponent gate from `rng`. `uniforms` is the episode's
    replay block: the 2*(horizon - 1) uniforms that follow the shared two in
    the episode stream, drawn with one `random(k)` call. Without it (held
    decisions) the callback is None and nothing more is drawn. Each callback
    call reads the block's next two uniforms for a game policy, keeping the
    gate, or the next one, the IV's, for IDM/MOBIL, which decide with their
    rule's raw-float core (run_episode has checked the lanes). A uniform
    QG_G4 draws its gate first, so it reads a block of its own, drawn from
    `rng` after the gate. run_comparison asks for a callback only when the
    policy's law for the episode is not fixed (_fixed_law): a fixed law's
    callback would repeat the start decision, so its episode is held.
    """
    if dists is None:
        mobil = policy.name == "MOBIL"
        pick = mobil_merge_decision if mobil else idm_entry_decision
        start = pick(scenario, ev, iv), (0 if u_iv < 0.5 else 1)
        if uniforms is None:
            return start, None
        core = mobil_merge_core if mobil else idm_entry_core
        u_next = iter(uniforms).__next__

        def replay(ev_lane, ev_s, ev_v, iv_s, iv_v):
            return (core(scenario, ev_lane, ev_s, ev_v, iv_s, iv_v),
                    0 if u_next() < 0.5 else 1)

        return start, replay
    dist = _episode_law(dists, rng)
    if isinstance(dists, tuple) and uniforms is not None:
        uniforms = rng.random(len(uniforms)).tolist()
    thresholds = dist.thresholds
    start = _sample_joint(thresholds, u_ev, u_iv)
    if uniforms is None:
        return start, None
    u_next = iter(uniforms).__next__

    def replay(ev_lane, ev_s, ev_v, iv_s, iv_v):
        return _sample_joint(thresholds, u_next(), u_next())

    return start, replay


def run_monte_carlo(policy: PolicySpec, config: MonteCarloConfig) -> MetricsSummary:
    """Seeded episode loop for one policy: run_comparison on that policy
    alone, so IDM or MOBIL on the wrong scenario raises ValueError before
    any episode runs."""
    return run_comparison([policy], config)[0]


# Episodes per kernel call. A chunk's lanes are its distinct held
# (episode, joint action) pairs, at most four per episode, so this bounds the
# kernel's arrays however many episodes a run has.
_CHUNK = 512


def _episode_draws(config: MonteCarloConfig, i: int):
    """Episode i's stream, initial states and two shared decision uniforms,
    in the contract's draw order."""
    rng = episode_rng(config.master_seed, i)
    ev0, iv0 = sample_initial(config.scenario, rng)
    return rng, ev0, iv0, float(rng.random()), float(rng.random())


def run_comparison(policies, config: MonteCarloConfig) -> tuple[MetricsSummary, ...]:
    """Run every policy over the same episode set (same master seed), episode
    by episode; see the module docstring for what is drawn once and what per
    policy. Each report label may appear once; a repeat, like a policy on
    the wrong scenario, is rejected before anything runs.

    The episodes go in chunks of _CHUNK, each in three passes: (1) episode
    by episode, draw as the contract says and let every held policy take
    its joint action; (2) integrate the chunk's distinct held (episode,
    joint action) pairs in one run_episodes call and store each result in
    its episode's `shared` dict; (3) make one run_episode call per
    (episode, policy), in that order, and tally it. A held policy's call
    returns the stored result. A replayed one runs run_episode's scalar
    loop with its own replay callback, which reads the episode's block of
    replay uniforms, redrawn from the episode's stream state kept in pass 1,
    and decides at fixed thresholds (a game policy) or with its rule's
    raw-float core (IDM/MOBIL); the module docstring says which policies are
    held. Why pass 3 goes through run_episode is stated in run_episode's.
    """
    specs = [p if isinstance(p, PolicySpec) else PolicySpec(str(p)) for p in policies]
    if not specs:
        raise ValueError("no policies given")
    labels = [spec.label() for spec in specs]
    for i, spec in enumerate(specs):
        _check_compatible(spec, config.scenario)
        if labels[i] in labels[:i]:
            raise ValueError(f"policy {labels[i]} is given more than once")
    scenario = config.scenario
    replay = scenario.decision_replay
    n = config.episodes
    dists = [policy_distributions(spec, config.game) for spec in specs]
    outcomes = [Counter() for _ in specs]
    headway_totals = [0.0] * len(specs)
    k = 2 * (scenario.horizon - 1)
    stream = np.random.default_rng(0)   # replays continue an episode's stream here

    def tally(j, result):
        outcomes[j][result.outcome] += 1
        headway_totals[j] += result.mean_headway

    for start in range(0, n, _CHUNK):
        # pass 1: the contract's draws, then every held policy's joint
        # action (None for a replayed one); only a uniform QG_G4 draws
        # further (its gate), and a label appears once, so the policies can
        # share `rng`, and the replay block starts at `state`
        episodes = []
        for i in range(start, min(start + _CHUNK, n)):
            rng, ev0, iv0, u_ev, u_iv = _episode_draws(config, i)
            state = rng.bit_generator.state if replay else None
            joints = []
            for spec, d in zip(specs, dists):
                law = _episode_law(d, rng)
                joints.append(None if replay and not _fixed_law(law) else
                              episode_decision(spec, scenario, law, None,
                                               ev0, iv0, u_ev, u_iv)[0])
            episodes.append((ev0, iv0, u_ev, u_iv, state, joints))
        # pass 2: each distinct held (episode, joint action), integrated once
        results = iter(run_episodes(scenario, (
            (ev0, iv0, *joint) for ev0, iv0, *_, joints in episodes
            for joint in dict.fromkeys(joints) if joint is not None)))
        # pass 3: every (episode, policy) reads its stored result, or
        # replays; a uniform QG_G4 re-draws its gate, then its own block
        for ev0, iv0, u_ev, u_iv, state, joints in episodes:
            shared = {joint: next(results) for joint in dict.fromkeys(joints)
                      if joint is not None}
            if None in joints:
                stream.bit_generator.state = state
                block = stream.random(k).tolist()
            for j, joint in enumerate(joints):
                if joint is not None:
                    tally(j, run_episode(scenario, ev0, iv0, *joint, shared=shared))
                    continue
                if isinstance(dists[j], tuple):  # its gate comes before its block
                    stream.bit_generator.state = state
                (a_ev, a_iv), decide = episode_decision(
                    specs[j], scenario, dists[j], stream, ev0, iv0, u_ev, u_iv, block)
                tally(j, run_episode(scenario, ev0, iv0, a_ev, a_iv, decide=decide))
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

REPORT_FIELDS = tuple(f.name for f in fields(MetricsSummary))


def emit_report(summaries, path, fmt: str = "csv") -> None:
    """Write the report file, one csv column or json key per MetricsSummary
    field (str of a float is its shortest round-trip repr); rates are
    fractions, not percent. An unknown fmt raises ValueError before the file
    is opened."""
    if fmt == "csv":
        write_csv(path, REPORT_FIELDS, map(astuple, summaries))
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump([asdict(s) for s in summaries], fh, indent=2)
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


def load_experiment_config(path) -> tuple[PolicySpec, MonteCarloConfig]:
    """Key-value experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes (positive), master_seed
    (non-negative), policy.name, and optionally policy.assumed_gate and
    decision_replay (true or false, default false). '#' starts a comment.
    """
    values = read_key_values(
        path,
        {"scenario.kind": str, "episodes": _int_at_least(1), "master_seed": _int_at_least(0),
         "policy.name": str},
        {"policy.assumed_gate": str, "decision_replay": _true_or_false},
    )
    policy = PolicySpec(values["policy.name"], values.get("policy.assumed_gate", "Z"))
    kind = values["scenario.kind"]
    config = MonteCarloConfig(
        scenario=builtin_scenario(kind, decision_replay=values.get("decision_replay", False)),
        game=builtin_game(kind),
        episodes=values["episodes"],
        master_seed=values["master_seed"],
    )
    return policy, config
