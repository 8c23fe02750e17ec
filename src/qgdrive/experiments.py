"""Seeded Monte Carlo comparison of decision policies on the two scenarios.

Episode i draws its randomness from a generator derived from (master_seed, i)
alone, so any episode is reproducible in isolation and every policy in a
comparison replays identical initial conditions and decision draws (common
random numbers). Each episode consumes draws in a fixed order: initial
states, the EV decision uniform, the IV decision uniform, then any
policy-internal draws.

Game-backed policies act by sampling their joint outcome distribution: the
EV action comes from the policy's EV marginal, the IV action from the
distribution conditioned on that EV action. For every policy whose IV
conditional is uniform (CG-EPD, both QG-U1 presets, the assumed-gate QG-G4)
this reduces to an independent 50/50 IV draw shared across policies.
IDM/MOBIL compute the EV action deterministically from the sampled initial
states; their IV stays on the 50/50 draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import get_type_hints

import numpy as np

from .classical_game import (
    OutcomeDistribution,
    TwoPlayerGame,
    builtin_game,
    cg_epd_distribution,
    cg_ms_distribution,
    read_key_values,
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


def wilson_halfwidth(successes: int, n: int, z: float = 1.959963984540054) -> float:
    """Halfwidth of the 95% Wilson score interval for a binomial fraction."""
    if n <= 0:
        return 0.0
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


def episode_decision(policy, scenario, dists, rng, ev, iv):
    """Episode-start (EV action, IV action) and the episode's replay callback
    `(ev, iv) -> (EV action, IV action)`, for `dists` from policy_distributions.

    The start draws the EV uniform, the IV uniform, then a uniform QG_G4's
    opponent gate. Each callback call draws two uniforms for a game policy
    (keeping the gate) or one, the IV's, for IDM/MOBIL.
    """
    u_ev = float(rng.random())
    u_iv = float(rng.random())
    if dists is None:
        if scenario is None or ev is None or iv is None:
            raise ValueError(f"{policy.name} decisions need scenario and initial states")
        pick = mobil_merge_decision if policy.name == "MOBIL" else idm_entry_decision

        def rule(ev, iv, u_iv):
            return pick(scenario, ev, iv), (0 if u_iv < 0.5 else 1)

        return rule(ev, iv, u_iv), lambda ev, iv: rule(ev, iv, float(rng.random()))
    dist = dists[int(rng.integers(len(dists)))] if isinstance(dists, tuple) else dists
    return _sample_joint(dist, u_ev, u_iv), (
        lambda ev, iv: _sample_joint(dist, float(rng.random()), float(rng.random()))
    )


def decide_joint(
    policy: PolicySpec,
    game: TwoPlayerGame,
    rng: np.random.Generator,
    scenario: "ScenarioConfig | None" = None,
    ev=None,
    iv=None,
    dists=None,
) -> tuple[int, int]:
    """The episode-start decision of episode_decision.

    Game policies sample their outcome distribution; IDM/MOBIL need the
    scenario and sampled initial states and keep the IV on a uniform draw.
    `dists` may carry precomputed policy_distributions output.
    """
    if dists is None:
        dists = policy_distributions(policy, game)
    return episode_decision(policy, scenario, dists, rng, ev, iv)[0]


def run_monte_carlo(policy: PolicySpec, config: MonteCarloConfig) -> MetricsSummary:
    """Seeded episode loop for one policy; see the module docstring for the
    randomness contract."""
    _check_compatible(policy, config.scenario)
    scenario = config.scenario
    dists = policy_distributions(policy, config.game)
    collisions = 0
    successes = 0
    headway_total = 0.0
    for i in range(config.episodes):
        rng = episode_rng(config.master_seed, i)
        ev0, iv0 = sample_initial(scenario, rng)
        (a_ev, a_iv), decide = episode_decision(policy, scenario, dists, rng, ev0, iv0)
        result = run_episode(scenario, ev0, iv0, a_ev, a_iv,
                             decide=decide if scenario.decision_replay else None)
        if result.outcome == "collision":
            collisions += 1
        elif result.outcome == "success":
            successes += 1
        headway_total += result.mean_headway
    n = config.episodes
    return MetricsSummary(
        scenario=scenario.kind,
        method=policy.label(),
        episodes=n,
        cr=collisions / n,
        sr=successes / n,
        mean_headway_m=headway_total / n,
        cr_ci95=wilson_halfwidth(collisions, n),
    )


def run_comparison(policies, config: MonteCarloConfig) -> tuple[MetricsSummary, ...]:
    """Run every policy over the same episode set (same master seed)."""
    specs = [p if isinstance(p, PolicySpec) else PolicySpec(str(p)) for p in policies]
    if not specs:
        raise ValueError("no policies given")
    for spec in specs:
        _check_compatible(spec, config.scenario)
    return tuple(run_monte_carlo(spec, config) for spec in specs)


# ---------------------------------------------------------------------------
# Reports

REPORT_HEADER = ",".join(f.name for f in fields(MetricsSummary))


def render_report(summaries, fmt: str = "csv") -> str:
    """Report text, one csv column or json key per MetricsSummary field (str of
    a float is its shortest round-trip repr); rates are fractions, not percent."""
    rows = list(summaries)
    if fmt == "csv":
        lines = [REPORT_HEADER] + [",".join(map(str, astuple(s))) for s in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([asdict(s) for s in rows], indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


def emit_report(summaries, path, fmt: str = "csv") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(summaries, fmt))


def parse_report_csv(text: str) -> list[MetricsSummary]:
    """Inverse of the csv report, for tests and tooling."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("not a report csv: bad header")
    types = get_type_hints(MetricsSummary)
    return [
        MetricsSummary(**{k: types[k](v) for k, v in zip(types, ln.split(","), strict=True)})
        for ln in lines[1:]
    ]


# ---------------------------------------------------------------------------
# Experiment config files

def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise ValueError(f"must be positive, got {n}")
    return n


def load_experiment_config(path) -> tuple[PolicySpec, MonteCarloConfig]:
    """Key-value experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes (positive), master_seed,
    policy.name, policy.assumed_gate (optional). '#' starts a comment.
    """
    values = read_key_values(
        path,
        {"scenario.kind": str, "episodes": _positive_int, "master_seed": int, "policy.name": str},
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
