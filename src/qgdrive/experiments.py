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
from dataclasses import dataclass

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


def _decide_joint_full(policy, game, rng, scenario, ev, iv, dists):
    """(EV action, IV action, episode distribution | None)."""
    u_ev = float(rng.random())
    u_iv = float(rng.random())
    if policy.name in ("IDM", "MOBIL"):
        if scenario is None or ev is None or iv is None:
            raise ValueError(f"{policy.name} decisions need scenario and initial states")
        if policy.name == "MOBIL":
            a_ev = mobil_merge_decision(scenario, ev, iv)
        else:
            a_ev = idm_entry_decision(scenario, ev, iv)
        return a_ev, (0 if u_iv < 0.5 else 1), None
    if dists is None:
        dists = policy_distributions(policy, game)
    if isinstance(dists, tuple):
        # uniform opponent gate: drawn after the shared decision uniforms
        dist = dists[int(rng.integers(len(dists)))]
    else:
        dist = dists
    a_ev, a_iv = _sample_joint(dist, u_ev, u_iv)
    return a_ev, a_iv, dist


def decide_joint(
    policy: PolicySpec,
    game: TwoPlayerGame,
    rng: np.random.Generator,
    scenario: "ScenarioConfig | None" = None,
    ev=None,
    iv=None,
    dists=None,
) -> tuple[int, int]:
    """One joint (EV action, IV action) decision.

    Game policies sample their outcome distribution; IDM/MOBIL need the
    scenario and sampled initial states and keep the IV on a uniform draw.
    `dists` may carry precomputed policy_distributions output.
    """
    a_ev, a_iv, _ = _decide_joint_full(policy, game, rng, scenario, ev, iv, dists)
    return a_ev, a_iv


def _episode_decider(policy: PolicySpec, scenario: ScenarioConfig, dist):
    """Per-step decision callback for decision_replay scenarios."""
    if dist is not None:
        def decide(rng, ev, iv):
            return _sample_joint(dist, float(rng.random()), float(rng.random()))
        return decide
    pick = mobil_merge_decision if policy.name == "MOBIL" else idm_entry_decision
    def decide(rng, ev, iv):
        return pick(scenario, ev, iv), (0 if float(rng.random()) < 0.5 else 1)
    return decide


def run_monte_carlo(policy: PolicySpec, config: MonteCarloConfig) -> MetricsSummary:
    """Seeded episode loop for one policy; see the module docstring for the
    randomness contract."""
    _check_compatible(policy, config.scenario)
    scenario = config.scenario
    game = config.game
    dists = policy_distributions(policy, game)
    collisions = 0
    successes = 0
    headway_total = 0.0
    headway_count = 0
    for i in range(config.episodes):
        rng = episode_rng(config.master_seed, i)
        ev0, iv0 = sample_initial(scenario, rng)
        a_ev, a_iv, dist = _decide_joint_full(policy, game, rng, scenario, ev0, iv0, dists)
        decide = _episode_decider(policy, scenario, dist) if scenario.decision_replay else None
        result = run_episode(scenario, ev0, iv0, a_ev, a_iv, decide=decide, rng=rng)
        if result.outcome == "collision":
            collisions += 1
        elif result.outcome == "success":
            successes += 1
        if result.steps_run:
            headway_total += result.mean_headway
            headway_count += 1
    n = config.episodes
    return MetricsSummary(
        scenario=scenario.kind,
        method=policy.label(),
        episodes=n,
        cr=collisions / n,
        sr=successes / n,
        mean_headway_m=headway_total / headway_count if headway_count else 0.0,
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

REPORT_HEADER = "scenario,method,episodes,cr,sr,mean_headway_m,cr_ci95"


def render_report(summaries, fmt: str = "csv") -> str:
    """Report text in csv or json form; rates are fractions, not percent."""
    rows = list(summaries)
    if fmt == "csv":
        lines = [REPORT_HEADER]
        for s in rows:
            lines.append(
                f"{s.scenario},{s.method},{s.episodes},"
                f"{s.cr!r},{s.sr!r},{s.mean_headway_m!r},{s.cr_ci95!r}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [
            {
                "scenario": s.scenario,
                "method": s.method,
                "episodes": s.episodes,
                "cr": s.cr,
                "sr": s.sr,
                "mean_headway_m": s.mean_headway_m,
                "cr_ci95": s.cr_ci95,
            }
            for s in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


def emit_report(summaries, path, fmt: str = "csv") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(summaries, fmt))


def parse_report_csv(text: str) -> list[MetricsSummary]:
    """Inverse of the csv report, for tests and tooling."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("not a report csv: bad header")
    out = []
    for ln in lines[1:]:
        sc, method, n, cr, sr, hd, ci = ln.split(",")
        out.append(
            MetricsSummary(
                scenario=sc, method=method, episodes=int(n),
                cr=float(cr), sr=float(sr),
                mean_headway_m=float(hd), cr_ci95=float(ci),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Experiment config files

def load_experiment_config(path) -> tuple[PolicySpec, MonteCarloConfig]:
    """Key-value experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes, master_seed, policy.name,
    policy.assumed_gate (optional). '#' starts a comment.
    """
    fields = read_key_values(
        path,
        {"scenario.kind": str, "episodes": int, "master_seed": int, "policy.name": str},
        {"policy.assumed_gate": str},
    )
    policy = PolicySpec(fields["policy.name"], fields.get("policy.assumed_gate", "Z"))
    kind = fields["scenario.kind"]
    config = MonteCarloConfig(
        scenario=builtin_scenario(kind),
        game=builtin_game(kind),
        episodes=fields["episodes"],
        master_seed=fields["master_seed"],
    )
    return policy, config
