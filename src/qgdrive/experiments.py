"""Seeded Monte Carlo comparison of decision policies on the two scenarios.

Episode i draws its randomness from a generator derived from (master_seed, i)
alone, so any episode is reproducible in isolation. Each episode consumes
draws in a fixed order: initial states, the EV decision uniform, the IV
decision uniform, then any policy-internal draws (a uniform QG_G4's opponent
gate, then the replay draws).

The loop is episode-major: a comparison derives episode i's stream and
draws its initial states and both decision uniforms once, and every policy
decides and integrates from those same values (common random numbers). A
policy's row therefore does not depend on which other policies run beside
it, or in what order; run_monte_carlo is the one-policy view of the same
loop. Without replay an episode integrates each distinct joint action once
(at most four per episode, however many policies run), and the policies
that draw the same joint action share that result. Under decision replay
each policy continues its own copy of the episode's stream from the point
after the two shared uniforms, and nothing is shared: its path depends on
its own replay draws.

Game-backed policies act by sampling their joint outcome distribution: the
EV action comes from the policy's EV marginal, the IV action from the
distribution conditioned on that EV action. Only CG-EPD and the two QG-U1
presets have a uniform IV conditional, which reduces to an independent
50/50 IV draw shared across policies. CG-MS and QG-G4 do not: QG_G4[Z]'s
distribution is (0, 1, 0, 0), so its IV decelerates in every episode, and
each of the uniform opponent model's five gate distributions fixes the IV's
action given the EV's. IDM/MOBIL compute the EV action deterministically
from the sampled initial states; their IV stays on the 50/50 draw.
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
    builtin_scenario,
    idm_entry_decision,
    mobil_merge_decision,
    run_episode,
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
        if self.episodes <= 0:
            raise ValueError(f"episodes must be positive, got {self.episodes}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


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
        p = preset(name)
        return play(game, p.initial, p.gamma, p.strategy_a, p.strategy_b)
    if name == "QG_G4":
        p = preset(name)
        if policy.assumed_gate == "uniform":
            return tuple(
                play(game, p.initial, p.gamma, p.strategy_a, g) for g in GATE_ORDER
            )
        return play(game, p.initial, p.gamma, p.strategy_a, QuantumGate(policy.assumed_gate))
    return None


def _sample_joint(dist: OutcomeDistribution, u_ev: float, u_iv: float) -> tuple[int, int]:
    """Invert the joint distribution: EV from its marginal, IV from the
    conditional given the EV action. Keeps the exact joint law while sharing
    the two uniforms across policies."""
    p_ev0 = dist.p00 + dist.p01
    a_ev = 0 if u_ev < p_ev0 else 1
    if a_ev == 0:
        p_iv0 = dist.p00 / p_ev0 if p_ev0 > 0.0 else 0.5
    else:
        p_ev1 = dist.p10 + dist.p11
        p_iv0 = dist.p10 / p_ev1 if p_ev1 > 0.0 else 0.5
    a_iv = 0 if u_iv < p_iv0 else 1
    return a_ev, a_iv


def episode_decision(policy, scenario, dists, rng, ev, iv, u_ev, u_iv):
    """Episode-start (EV action, IV action) and the episode's replay callback
    `(ev, iv) -> (EV action, IV action)`, for `dists` from policy_distributions.

    The start takes the episode's shared EV and IV uniforms; a uniform QG_G4
    then draws its opponent gate from `rng`. Each callback call draws two
    uniforms from `rng` for a game policy (keeping the gate) or one, the
    IV's, for IDM/MOBIL.
    """
    if dists is None:
        pick = mobil_merge_decision if policy.name == "MOBIL" else idm_entry_decision

        def rule(ev, iv, u_iv):
            return pick(scenario, ev, iv), (0 if u_iv < 0.5 else 1)

        return rule(ev, iv, u_iv), lambda ev, iv: rule(ev, iv, float(rng.random()))
    dist = dists[int(rng.integers(len(dists)))] if isinstance(dists, tuple) else dists
    return _sample_joint(dist, u_ev, u_iv), (
        lambda ev, iv: _sample_joint(dist, float(rng.random()), float(rng.random()))
    )


def run_monte_carlo(policy: PolicySpec, config: MonteCarloConfig) -> MetricsSummary:
    """Seeded episode loop for one policy: run_comparison on that policy
    alone, so IDM or MOBIL on the wrong scenario raises ValueError before
    any episode runs."""
    return run_comparison([policy], config)[0]


def run_comparison(policies, config: MonteCarloConfig) -> tuple[MetricsSummary, ...]:
    """Run every policy over the same episode set (same master seed), episode
    by episode; see the module docstring for what is drawn once and what per
    policy. Each report label may appear once; a repeat, like a policy on
    the wrong scenario, is rejected before anything runs."""
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
    dists = [policy_distributions(spec, config.game) for spec in specs]
    streams = [np.random.default_rng(0) for _ in specs] if replay else None
    outcomes = [Counter() for _ in specs]
    headway_totals = [0.0] * len(specs)
    for i in range(config.episodes):
        rng = episode_rng(config.master_seed, i)
        ev0, iv0 = sample_initial(scenario, rng)
        u_ev = float(rng.random())
        u_iv = float(rng.random())
        if replay:
            state = rng.bit_generator.state
        # a held joint action is integrated once per episode; the policies
        # that draw it share the result
        shared = None if replay else {}
        for j, spec in enumerate(specs):
            # without replay only a uniform QG_G4 draws further (its gate),
            # and a label appears once, so the policies can share `rng`
            stream = rng
            if replay:
                stream = streams[j]
                stream.bit_generator.state = state
            (a_ev, a_iv), decide = episode_decision(
                spec, scenario, dists[j], stream, ev0, iv0, u_ev, u_iv)
            result = run_episode(scenario, ev0, iv0, a_ev, a_iv,
                                 decide=decide if replay else None, shared=shared)
            outcomes[j][result.outcome] += 1
            headway_totals[j] += result.mean_headway
    n = config.episodes
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


def load_experiment_config(path) -> tuple[PolicySpec, MonteCarloConfig]:
    """Key-value experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes (positive), master_seed
    (non-negative), policy.name, policy.assumed_gate (optional). '#' starts
    a comment.
    """
    values = read_key_values(
        path,
        {"scenario.kind": str, "episodes": _int_at_least(1), "master_seed": _int_at_least(0),
         "policy.name": str},
        {"policy.assumed_gate": str},
    )
    policy = PolicySpec(values["policy.name"], values.get("policy.assumed_gate", "Z"))
    kind = values["scenario.kind"]
    config = MonteCarloConfig(
        scenario=builtin_scenario(kind),
        game=builtin_game(kind),
        episodes=values["episodes"],
        master_seed=values["master_seed"],
    )
    return policy, config
