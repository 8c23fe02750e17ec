"""Kinematic merging and roundabout episodes driven by one joint decision.

Each episode samples initial states, takes a single (EV action, IV action)
pair at t=0, and integrates forward at a fixed timestep. The IV holds its
commanded acceleration for the whole episode; the EV runs a small maneuver
state machine:

  merging     Merge     hold speed, change lane on crossing the merge-section
                        entry, then follow IDM on the main lane.
              NotMerge  brake on the ramp until the IV has passed the EV's
                        projected main-lane position (plus clearance), then
                        resume under IDM and merge inside the section.
  roundabout  Accelerate  accelerate to the entry line, enter, then IDM on
                          the circulating lane.
              Decelerate  brake before the yield line until the IV has
                          passed, then resume under IDM and enter.

Own-path coordinates differ per lane; `common_position` projects both
vehicles onto the shared exit path (the entry lane carries a fixed offset).
Geometry defaults are tuned so that, over the default initial ranges, the
contested joint action (EV goes + IV accelerates) always produces a
collision and every other joint action never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .classical_game import write_csv

EV_LANE_START = {"merging": "ramp", "roundabout": "approach"}
EV_LANE_TARGET = {"merging": "main", "roundabout": "inside"}
IV_LANE = {"merging": "main", "roundabout": "inside"}


@dataclass(frozen=True)
class VehicleState:
    lane: str
    s: float        # longitudinal position along own path, m
    v: float        # speed, m/s


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


def _non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0


def _require(obj, names, ok, what: str) -> None:
    """Raise ValueError naming the first of obj's fields `names` that fails ok."""
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class IdmParams:
    """Intelligent Driver Model constants (standard highway values)."""

    v0: float = 25.0        # desired speed, m/s
    T: float = 1.5          # desired time headway, s
    s0: float = 2.0         # standstill jam distance, m
    a: float = 1.5          # maximum comfortable acceleration, m/s^2
    b: float = 2.0          # comfortable deceleration, m/s^2
    delta: float = 4.0      # speed exponent

    def __post_init__(self):
        # v0 and b divide, sqrt(a*b) needs a*b > 0
        _require(self, ("v0", "a", "b", "delta"), _positive, "finite and positive")
        _require(self, ("s0", "T"), _non_negative, "finite and non-negative")


@dataclass(frozen=True)
class MobilParams:
    """MOBIL lane-change constants."""

    politeness: float = 0.3
    a_threshold: float = 0.1    # minimum incentive gain, m/s^2
    b_safe: float = 4.0         # maximum braking imposed on the new follower

    def __post_init__(self):
        _require(self, ("politeness", "a_threshold"), math.isfinite, "finite")
        _require(self, ("b_safe",), _non_negative, "finite and non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str                      # "merging" | "roundabout"
    dt: float = 0.1
    horizon: int = 150             # steps per episode
    a_nominal: float = 2.0         # commanded accel magnitude, m/s^2
    vehicle_length: float = 5.0
    # uniform sampling ranges (lo, hi)
    ev_s_range: tuple[float, float] = (0.0, 0.0)
    ev_v_range: tuple[float, float] = (0.0, 0.0)
    iv_s_range: tuple[float, float] = (0.0, 0.0)
    iv_v_range: tuple[float, float] = (0.0, 0.0)
    # geometry, own-path coordinates of the EV's entry lane
    merge_point: float = 0.0       # lane change becomes available / yield line
    section_end: float = 0.0       # last own-path position allowing the change
    lane_offset: float = 0.0       # own-path -> common-path additive offset
    pass_clearance: float = 10.0   # IV must be this far past the EV to release a yield
    # re-take the joint decision every pre-maneuver step instead of holding
    # the episode-start decision; the experiments Monte Carlo loop is its
    # only reader
    decision_replay: bool = False
    idm: IdmParams = IdmParams()
    mobil: MobilParams = MobilParams()

    def __post_init__(self):
        if self.kind not in EV_LANE_START:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        horizon = self.horizon
        if not (isinstance(horizon, int) and not isinstance(horizon, bool) and horizon >= 1):
            raise ValueError(f"horizon must be an integer of at least 1, got {horizon!r}")
        _require(self, ("dt", "a_nominal", "vehicle_length"), _positive, "finite and positive")
        _require(self, ("merge_point", "section_end", "lane_offset", "pass_clearance"),
                 math.isfinite, "finite")
        for name in ("ev_s_range", "ev_v_range", "iv_s_range", "iv_v_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name} must be finite with lo <= hi, got {(lo, hi)!r}")


def merging_scenario(**overrides) -> ScenarioConfig:
    """Highway on-ramp joining a main lane.

    Ramp position x projects to main-lane position x + 20, so the EV enters
    the main lane 15..35 m ahead of the IV's start window. A yielding IV can
    never reach it; an accelerating IV always runs it down inside the
    horizon.
    """
    base = dict(
        kind="merging",
        ev_s_range=(105.0, 115.0),
        ev_v_range=(18.0, 22.0),
        iv_s_range=(100.0, 110.0),
        iv_v_range=(18.0, 22.0),
        merge_point=125.0,
        section_end=255.0,
        lane_offset=20.0,
        idm=IdmParams(v0=25.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def roundabout_scenario(**overrides) -> ScenarioConfig:
    """Single-lane roundabout entry against one circulating vehicle.

    Approach position x projects to circulating-lane position x - 90; the
    yield line at 140 maps onto the conflict point at 50. Default approach
    speeds stop within the 18 m to the line, so a yielding EV never overruns
    it.
    """
    base = dict(
        kind="roundabout",
        ev_s_range=(118.0, 122.0),
        ev_v_range=(4.0, 8.0),
        iv_s_range=(0.0, 10.0),
        iv_v_range=(6.0, 10.0),
        merge_point=140.0,
        section_end=140.0,
        lane_offset=-90.0,
        idm=IdmParams(v0=10.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def builtin_scenario(kind: str, **overrides) -> ScenarioConfig:
    if kind == "merging":
        return merging_scenario(**overrides)
    if kind == "roundabout":
        return roundabout_scenario(**overrides)
    raise ValueError(f"unknown scenario {kind!r}; expected 'merging' or 'roundabout'")


def action_semantics(config: ScenarioConfig) -> dict:
    """Human-readable meaning of each action index per agent."""
    if config.kind == "merging":
        return {
            "ev": {0: "Merge: hold speed, change to the main lane at the merge section",
                   1: "NotMerge: brake on the ramp, merge after the IV has passed"},
            "iv": {0: "Accelerate: +a_nominal on the main lane",
                   1: "Decelerate: -a_nominal on the main lane"},
        }
    return {
        "ev": {0: "Accelerate: +a_nominal through the entry line into the ring",
               1: "Decelerate: brake before the yield line, enter after the IV has passed"},
        "iv": {0: "Accelerate: +a_nominal around the ring",
               1: "Idle: hold speed around the ring"},
    }


def sample_initial(config: ScenarioConfig, rng: np.random.Generator) -> tuple[VehicleState, VehicleState]:
    """Draw (EV, IV) uniformly from the configured ranges.

    Draw order is fixed (ev_s, ev_v, iv_s, iv_v) so seeded runs are stable.
    Zero-width ranges produce the endpoint deterministically.
    """
    ev_s = float(rng.uniform(*config.ev_s_range))
    ev_v = float(rng.uniform(*config.ev_v_range))
    iv_s = float(rng.uniform(*config.iv_s_range))
    iv_v = float(rng.uniform(*config.iv_v_range))
    return (VehicleState(EV_LANE_START[config.kind], ev_s, ev_v),
            VehicleState(IV_LANE[config.kind], iv_s, iv_v))


def check_lanes(config: ScenarioConfig, ev: VehicleState, iv: VehicleState) -> bool:
    """Raise ValueError unless the EV is on the scenario's entry or target
    lane and the IV on its IV lane; return whether the EV is on the entry
    lane."""
    kind = config.kind
    if ev.lane not in (EV_LANE_START[kind], EV_LANE_TARGET[kind]):
        raise ValueError(f"EV lane {ev.lane!r} is not a {kind} EV lane; expected "
                         f"{EV_LANE_START[kind]!r} or {EV_LANE_TARGET[kind]!r}")
    if iv.lane != IV_LANE[kind]:
        raise ValueError(f"IV lane {iv.lane!r} is not the {kind} IV lane {IV_LANE[kind]!r}")
    return ev.lane == EV_LANE_START[kind]


def common_position(config: ScenarioConfig, state: VehicleState) -> float:
    """Project an own-path position onto the shared exit path."""
    if state.lane == EV_LANE_START[config.kind]:
        return state.s + config.lane_offset
    return state.s


def classify_outcome(collided: bool, completed: bool, violation: bool) -> str:
    """Exactly one of collision / success / timeout."""
    if collided:
        return "collision"
    if completed and not violation:
        return "success"
    return "timeout"


# ---------------------------------------------------------------------------
# Driver models (baseline plumbing)

def idm_accel(v: float, gap: "float | None", v_lead: float, p: IdmParams) -> float:
    """IDM acceleration. gap is the net (bumper) distance to the leader;
    None means free road. A gap of 0.1 m or less, overlap included, is an
    emergency: brake at 4b."""
    free = 1.0 - (v / p.v0) ** p.delta
    if gap is None:
        return p.a * free
    if gap <= 0.1:
        return -p.b * 4.0
    s_star = p.s0 + max(0.0, v * p.T + v * (v - v_lead) / (2.0 * math.sqrt(p.a * p.b)))
    return p.a * (free - (s_star / gap) ** 2)


def mobil_decide(
    ego_a_old: float,
    ego_a_new: float,
    follower_a_old: float,
    follower_a_new: float,
    p: MobilParams,
) -> bool:
    """MOBIL criterion: safe for the new follower, and the politeness-weighted
    acceleration gain clears the threshold."""
    if follower_a_new < -p.b_safe:
        return False
    gain = (ego_a_new - ego_a_old) + p.politeness * (follower_a_new - follower_a_old)
    return gain > p.a_threshold


def mobil_merge_decision(config: ScenarioConfig, ev: VehicleState, iv: VehicleState) -> int:
    """MOBIL-style one-shot merge decision on the merging scenario.

    Staying on the ramp means eventually braking for the section end;
    merging puts the EV ahead of or behind the IV on the main lane. Returns
    action 0 (Merge) or 1 (NotMerge).
    """
    if config.kind != "merging":
        raise ValueError("MOBIL merge decision applies to the merging scenario only")
    check_lanes(config, ev, iv)
    idm = config.idm
    length = config.vehicle_length
    ego_a_old = idm_accel(ev.v, config.section_end - ev.s - length, 0.0, idm)

    ev_c = common_position(config, ev)
    iv_c = common_position(config, iv)
    if iv_c > ev_c:
        # IV would be the EV's leader after the change
        gap = iv_c - ev_c - length
        ego_a_new = idm_accel(ev.v, gap, iv.v, idm)
        fol_old = fol_new = idm_accel(iv.v, None, 0.0, idm)
    else:
        ego_a_new = idm_accel(ev.v, None, 0.0, idm)
        gap = ev_c - iv_c - length
        fol_old = idm_accel(iv.v, None, 0.0, idm)
        fol_new = idm_accel(iv.v, gap, ev.v, idm)
    return 0 if mobil_decide(ego_a_old, ego_a_new, fol_old, fol_new, config.mobil) else 1


# accepted entry gap of the roundabout baseline, s
T_ACCEPT = 2.5


def idm_entry_decision(config: ScenarioConfig, ev: VehicleState, iv: VehicleState) -> int:
    """Gap-acceptance entry decision for the roundabout baseline.

    Enter (action 0) when the circulating vehicle has already passed the
    conflict point, or arrives at constant speed at least T_ACCEPT seconds
    after the EV would clear it when accelerating. Otherwise yield.
    """
    if config.kind != "roundabout":
        raise ValueError("IDM entry decision applies to the roundabout scenario only")
    check_lanes(config, ev, iv)
    conflict = config.merge_point + config.lane_offset
    iv_dist = conflict - iv.s
    if iv_dist <= 0.0:
        return 0
    tau_iv = iv_dist / max(iv.v, 0.1)
    # time for the EV to pass the conflict point plus one vehicle length;
    # an EV already past the line commits (d = 0)
    d = max(config.merge_point - ev.s + config.vehicle_length, 0.0)
    a = config.a_nominal
    tau_ev = (-ev.v + math.sqrt(ev.v * ev.v + 2.0 * a * d)) / a
    return 0 if tau_iv - tau_ev >= T_ACCEPT else 1


# ---------------------------------------------------------------------------
# Episode integration

@dataclass(frozen=True)
class TracePoint:
    t: float
    ev_lane: str
    ev_s: float
    ev_v: float
    iv_lane: str
    iv_s: float
    iv_v: float
    headway: float


@dataclass(frozen=True)
class EpisodeResult:
    ev_action: int
    iv_action: int
    outcome: str               # "collision" | "success" | "timeout"
    collided: bool
    completed: bool            # EV reached the target lane
    violation: bool            # yield-line overrun while yielding (roundabout)
    completed_at: "float | None"
    steps_run: int
    mean_headway: float        # mean |common-path separation| over run steps
    trace: tuple[TracePoint, ...]


_GO, _YIELD, _FOLLOW = 0, 1, 2


def run_episode(
    config: ScenarioConfig,
    ev0: VehicleState,
    iv0: VehicleState,
    ev_action: int,
    iv_action: int,
    record_trace: bool = False,
    decide=None,
    shared: "dict | None" = None,
) -> EpisodeResult:
    """Integrate one episode under a joint decision.

    The IV holds its commanded acceleration. The EV is in one of three
    phases: _GO holds its action (constant speed on the ramp, +a_nominal on
    the approach), _YIELD brakes until the IV has passed, and _FOLLOW
    follows IDM behind the IV once released from a yield or on the target
    lane. The module docstring gives each scenario's maneuvers. The episode
    stops at the first step whose centre distance on the target lane is
    below config.vehicle_length (a collision) or after config.horizon steps.
    Vehicles off the scenario's lanes are rejected (check_lanes).
    Given a decide callback `(ev_state, iv_state) -> (ev_action, iv_action)`,
    the joint decision is re-taken at every step until the EV reaches
    _FOLLOW; the result then records the last commanded pair.

    `shared` is a dict the caller owns for one (config, ev0, iv0) triple,
    keyed by the joint action: a held decision that was integrated already
    returns the stored (frozen) result without integrating, and a new one is
    integrated and stored. It cannot be combined with `decide` (a replayed
    path depends on the callback's own draws) or with `record_trace` (a
    stored result carries no trace). The lookup lives here rather than in
    the Monte Carlo loop only so that every (policy, episode) pair still
    makes one run_episode call, as bench/selftest.py pins; once that pin
    counts outcomes instead, the lookup belongs in the loop and this
    parameter can go.
    """
    if ev_action not in (0, 1) or iv_action not in (0, 1):
        raise ValueError("actions must be 0 or 1")
    on_entry = check_lanes(config, ev0, iv0)
    if shared is not None:
        if decide is not None or record_trace:
            raise ValueError("shared results take neither a decide callback nor a trace")
        hit = shared.get((ev_action, iv_action))
        if hit is not None:
            return hit
    # everything fixed per episode is bound once, outside the step loop
    merging = config.kind == "merging"
    dt = config.dt
    a_nom = config.a_nominal
    idm = config.idm
    offset = config.lane_offset
    merge_point = config.merge_point
    section_end = config.section_end
    clearance = config.pass_clearance
    length = config.vehicle_length
    iv_lane = IV_LANE[config.kind]
    target_lane = EV_LANE_TARGET[config.kind]
    go_a = 0.0 if merging else a_nom    # EV acceleration while going
    iv_a1 = -a_nom if merging else 0.0  # IV acceleration under action 1

    ev_s, ev_v, ev_lane = ev0.s, ev0.v, ev0.lane
    on_target = not on_entry
    iv_s, iv_v = iv0.s, iv0.v

    iv_a = a_nom if iv_action == 0 else iv_a1
    phase = _GO if ev_action == 0 else _YIELD
    collided = False
    violation = False
    completed_at = None
    headway_sum = 0.0
    headway_steps = 0
    steps = 0
    trace: list[TracePoint] = []
    t = 0.0
    ev_common = ev_s + offset if on_entry else ev_s

    for _ in range(config.horizon):
        if decide is not None and steps and phase != _FOLLOW:
            ev_action, iv_action = decide(
                VehicleState(ev_lane, ev_s, ev_v), VehicleState(iv_lane, iv_s, iv_v)
            )
            iv_a = a_nom if iv_action == 0 else iv_a1
            phase = _GO if ev_action == 0 else _YIELD

        # phase transitions on the current state
        if phase == _YIELD:
            if not merging and ev_s >= merge_point:
                violation = True
            if iv_s >= ev_common + clearance:
                phase = _FOLLOW
        if on_entry and phase != _YIELD:
            if ev_s >= merge_point and (ev_s <= section_end or not merging):
                ev_lane = target_lane
                on_entry, on_target = False, True
                ev_s = ev_s + offset
                ev_common = ev_s
                completed_at = t
                phase = _FOLLOW

        # EV acceleration for this step
        if phase == _GO:
            ev_a = go_a
        elif phase == _YIELD:
            ev_a = -a_nom
        else:  # _FOLLOW: IDM, IV as leader when it is ahead on the shared path
            if iv_s > ev_common:
                ev_a = idm_accel(ev_v, iv_s - ev_common - length, iv_v, idm)
            else:
                ev_a = idm_accel(ev_v, None, 0.0, idm)

        # integrate both vehicles; one that would cross v=0 inside the step
        # brakes to rest exactly (v is set: v + (-v/dt)*dt can round below 0)
        ev_v_next = ev_v + ev_a * dt
        if ev_v_next < 0.0:
            ev_a = -ev_v / dt
            ev_v_next = 0.0
        ev_s += ev_v * dt + 0.5 * ev_a * dt * dt
        ev_v = ev_v_next

        iv_a_step = iv_a
        iv_v_next = iv_v + iv_a_step * dt
        if iv_v_next < 0.0:
            iv_a_step = -iv_v / dt
            iv_v_next = 0.0
        iv_s += iv_v * dt + 0.5 * iv_a_step * dt * dt
        iv_v = iv_v_next

        t += dt
        steps += 1
        ev_common = ev_s + offset if on_entry else ev_s
        headway = abs(iv_s - ev_common)

        if record_trace:
            trace.append(TracePoint(
                t=t, ev_lane=ev_lane, ev_s=ev_s, ev_v=ev_v,
                iv_lane=iv_lane, iv_s=iv_s, iv_v=iv_v, headway=headway,
            ))

        if on_target and headway < length:
            collided = True
            break

        # the colliding step is excluded from the headway average
        headway_sum += headway
        headway_steps += 1

    completed = completed_at is not None
    outcome = classify_outcome(collided, completed, violation)
    result = EpisodeResult(
        ev_action=ev_action,
        iv_action=iv_action,
        outcome=outcome,
        collided=collided,
        completed=completed,
        violation=violation,
        completed_at=completed_at,
        steps_run=steps,
        mean_headway=headway_sum / headway_steps if headway_steps else 0.0,
        trace=tuple(trace),
    )
    if shared is not None:
        shared[ev_action, iv_action] = result
    return result


def write_trace_csv(result: EpisodeResult, path) -> None:
    """One line per TracePoint, one column per field."""
    if not result.trace:
        raise ValueError("episode was run without record_trace=True; no trace to write")
    header = [f.name for f in fields(TracePoint)]
    write_csv(path, header, map(attrgetter(*header), result.trace))
