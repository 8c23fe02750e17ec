"""Kinematic merging and roundabout episodes driven by one joint decision.

Each episode samples initial states, takes a single (EV action, IV action)
pair at t=0, and integrates forward at the fixed time step DT. The IV holds
its commanded acceleration for the whole episode; the EV runs a small
maneuver state machine:

  merging     Merge     hold speed, change lane on crossing the merge-section
                        entry, then follow IDM on the main lane.
              NotMerge  brake on the ramp until the IV has passed the EV's
                        projected main-lane position (plus clearance), then
                        resume under IDM and merge inside the section.
  roundabout  Accelerate  accelerate to the entry line, enter, then IDM on
                          the circulating lane.
              Decelerate  brake before the yield line until the IV has
                          passed, then resume under IDM and enter.

Every episode starts with the EV on its entry lane and the IV on the lane
the EV enters. Own-path coordinates differ per lane; the shared exit path is
the target lane's own path, and an entry-lane position projects onto it by
adding `lane_offset`.
run_episode integrates one episode, optionally replaying the decision or
recording a trace; run_episodes integrates many episodes at once as numpy
arrays, held or replaying given decisions, with results equal to
run_episode's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .classical_game import _finite_real, _require_int, write_csv

EV_LANE_START = {"merging": "ramp", "roundabout": "approach"}
EV_LANE_TARGET = {"merging": "main", "roundabout": "inside"}


class VehicleState(NamedTuple):
    s: float        # longitudinal position along own path, m
    v: float        # speed, m/s


def _positive(value) -> bool:
    return _finite_real(value) and value > 0


def _require(obj, names, ok, what: str) -> None:
    """Raise ValueError naming the first of obj's fields `names` that fails ok."""
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")


DT = 0.1                # integration time step, s
VEHICLE_LENGTH = 5.0    # m; a centre distance below it on one lane is a collision


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str                      # "merging" | "roundabout"
    horizon: int = 150             # steps per episode
    a_nominal: float = 2.0         # commanded accel magnitude, m/s^2
    idm_v0: float = 25.0           # IDM's desired speed, m/s
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

    def __post_init__(self):
        if self.kind not in EV_LANE_START:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        _require_int("horizon", self.horizon, 1)
        if not isinstance(self.decision_replay, bool):
            raise ValueError(f"decision_replay must be True or False, got {self.decision_replay!r}")
        _require(self, ("a_nominal", "idm_v0"), _positive, "finite and positive")
        _require(self, ("merge_point", "section_end", "lane_offset", "pass_clearance"),
                 _finite_real, "finite")
        for name in ("ev_s_range", "ev_v_range", "iv_s_range", "iv_v_range"):
            pair = getattr(self, name)
            # sample_initial scales by the width, so it must be finite too
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(map(_finite_real, pair)) and pair[0] <= pair[1]
                    and math.isfinite(pair[1] - pair[0])):
                raise ValueError(f"{name} must be a finite (lo, hi) with lo <= hi, got {pair!r}")


# The builtin scenarios, which builtin_scenario reads: one row of
# ScenarioConfig fields each, tuned so that the contested joint action (EV
# goes + IV accelerates) always collides and every other joint action never
# does. Merging: ramp position x projects to main-lane position x + 20, so
# the EV enters the main lane 15..35 m ahead of the IV's start window; a
# yielding IV can never reach it, an accelerating IV always runs it down
# inside the horizon. Roundabout: approach position x projects to
# circulating-lane position x - 90, so the yield line at 140 maps onto the
# conflict point at 50; the approach speeds stop within the 18 m to the
# line, so a yielding EV never overruns it.
_BUILTIN = {
    "merging": dict(
        ev_s_range=(105.0, 115.0),
        ev_v_range=(18.0, 22.0),
        iv_s_range=(100.0, 110.0),
        iv_v_range=(18.0, 22.0),
        merge_point=125.0,
        section_end=255.0,
        lane_offset=20.0,
        idm_v0=25.0,
    ),
    "roundabout": dict(
        ev_s_range=(118.0, 122.0),
        ev_v_range=(4.0, 8.0),
        iv_s_range=(0.0, 10.0),
        iv_v_range=(6.0, 10.0),
        merge_point=140.0,
        section_end=140.0,
        lane_offset=-90.0,
        idm_v0=10.0,
    ),
}


def builtin_scenario(kind: str, **overrides) -> ScenarioConfig:
    """The _BUILTIN row `kind` as a ScenarioConfig, `overrides` applied."""
    if kind not in _BUILTIN:
        raise ValueError(f"unknown scenario {kind!r}; expected 'merging' or 'roundabout'")
    return ScenarioConfig(kind, **{**_BUILTIN[kind], **overrides})


def sample_initial(config: ScenarioConfig, uniforms):
    """Draw (EV, IV) uniformly from the configured ranges: a list of n
    pairs, one per row of an (n, 4) array of uniforms.

    Draw order is fixed (ev_s, ev_v, iv_s, iv_v) so seeded runs are stable.
    The uniforms are scaled in one lo + (hi - lo) * u expression, numpy's
    own uniform formula, so each value equals a uniform(lo, hi) call on the
    stream the uniforms came from, bit for bit. Zero-width ranges produce
    the endpoint deterministically.
    """
    lo, hi = np.array((config.ev_s_range, config.ev_v_range,
                       config.iv_s_range, config.iv_v_range)).T
    return [(VehicleState(ev_s, ev_v), VehicleState(iv_s, iv_v)) for ev_s, ev_v, iv_s, iv_v
            in (lo + (hi - lo) * uniforms).tolist()]


def classify_outcome(collided: bool, completed: bool, violation: bool) -> str:
    """Exactly one of collision / success / timeout."""
    if collided:
        return "collision"
    if completed and not violation:
        return "success"
    return "timeout"


# ---------------------------------------------------------------------------
# Driver models (baseline plumbing)

# The baselines' constants: IDM's (Treiber, Hennecke & Helbing 2000; its
# desired speed is the scenario's idm_v0), MOBIL's (Kesting, Treiber &
# Helbing 2007) and the roundabout's accepted entry gap
IDM_T = 1.5             # desired time headway, s
IDM_S0 = 2.0            # standstill jam distance, m
IDM_A = 1.5             # maximum comfortable acceleration, m/s^2
IDM_B = 2.0             # comfortable deceleration, m/s^2
_IDM_BRAKE = -IDM_B * 4.0                           # the emergency brake
_IDM_TWO_SQRT_AB = 2.0 * math.sqrt(IDM_A * IDM_B)   # the dynamic term's denominator
MOBIL_POLITENESS = 0.3
MOBIL_THRESHOLD = 0.1   # minimum incentive gain, m/s^2
MOBIL_B_SAFE = 4.0      # maximum braking imposed on the new follower, m/s^2
T_ACCEPT = 2.5          # s


def idm_accel(v: float, gap: "float | None", v_lead: float, v0: float) -> float:
    """IDM acceleration with the standard speed exponent 4 (Treiber, Hennecke
    & Helbing 2000) and desired speed v0. gap is the net (bumper) distance
    to the leader; None means free road. A gap of 0.1 m or less, overlap
    included, is an emergency: brake at 4b.

    Both powers are IEEE multiplications (1 - (v/v0)^4 as ((v/v0)^2)^2, and
    q * q for (s*/gap)^2), never the C library's pow, so the result is the
    same bits on every IEEE 754 platform; idm_accel_lanes runs the same
    operations. The other constants are the module's IDM_*, with -4b and
    2*sqrt(a*b) computed once, at import.
    """
    r = v / v0
    r = r * r
    free = 1.0 - r * r
    if gap is None:
        return IDM_A * free
    if gap <= 0.1:
        return _IDM_BRAKE
    dynamic = v * IDM_T + v * (v - v_lead) / _IDM_TWO_SQRT_AB
    q = (IDM_S0 + (dynamic if dynamic > 0.0 else 0.0)) / gap
    return IDM_A * (free - q * q)


def idm_accel_lanes(v: np.ndarray, gap: np.ndarray, v_lead: np.ndarray,
                    lead: np.ndarray, v0: float) -> np.ndarray:
    """idm_accel on arrays, bit for bit: lanes where `lead` is False are on
    free road, the others follow a leader at `gap` driving at `v_lead`.
    Every lane is evaluated in idm_accel's operations and order, and each
    lane's branch is picked with np.where; the division by the gap of an
    emergency or free-road lane, whose result is never read, may overflow
    or divide by zero silently."""
    r = v / v0
    r = r * r
    free = 1.0 - r * r
    dynamic = v * IDM_T + v * (v - v_lead) / _IDM_TWO_SQRT_AB
    # idm_accel keeps 0.0 unless dynamic > 0.0, and so does fmax, NaN
    # included; the sign of fmax(-0.0, 0.0) is left open by IEEE 754, and
    # IDM_S0 + absorbs it
    s_star = IDM_S0 + np.fmax(dynamic, 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = s_star / gap
        follow = IDM_A * (free - q * q)
    return np.where(lead, np.where(gap <= 0.1, _IDM_BRAKE, follow), IDM_A * free)


def mobil_decide(
    ego_a_old: float,
    ego_a_new: float,
    follower_a_old: float,
    follower_a_new: float,
) -> bool:
    """MOBIL criterion: safe for the new follower, and the politeness-weighted
    acceleration gain clears the threshold."""
    if follower_a_new < -MOBIL_B_SAFE:
        return False
    gain = (ego_a_new - ego_a_old) + MOBIL_POLITENESS * (follower_a_new - follower_a_old)
    return gain > MOBIL_THRESHOLD


def mobil_merge_decision(config: ScenarioConfig, ev_s: float, ev_v: float,
                         iv_s: float, iv_v: float) -> int:
    """MOBIL-style one-shot merge decision for a merging EV still on the ramp.

    Staying on the ramp means eventually braking for the section end;
    merging puts the EV ahead of or behind the IV on the main lane. Returns
    action 0 (Merge) or 1 (NotMerge).
    """
    v0 = config.idm_v0
    ego_a_old = idm_accel(ev_v, config.section_end - ev_s - VEHICLE_LENGTH, 0.0, v0)

    ev_c = ev_s + config.lane_offset
    if iv_s > ev_c:
        # IV would be the EV's leader after the change
        gap = iv_s - ev_c - VEHICLE_LENGTH
        ego_a_new = idm_accel(ev_v, gap, iv_v, v0)
        fol_old = fol_new = idm_accel(iv_v, None, 0.0, v0)
    else:
        ego_a_new = idm_accel(ev_v, None, 0.0, v0)
        gap = ev_c - iv_s - VEHICLE_LENGTH
        fol_old = idm_accel(iv_v, None, 0.0, v0)
        fol_new = idm_accel(iv_v, gap, ev_v, v0)
    return 0 if mobil_decide(ego_a_old, ego_a_new, fol_old, fol_new) else 1


def idm_entry_decision(config: ScenarioConfig, ev_s: float, ev_v: float,
                       iv_s: float, iv_v: float) -> int:
    """Gap-acceptance entry decision for the roundabout baseline.

    Enter (action 0) when the circulating vehicle has already passed the
    conflict point, or arrives at constant speed at least T_ACCEPT seconds
    after the EV would clear it when accelerating. Otherwise yield. The
    arguments are mobil_merge_decision's, approach and circulating-lane
    positions; `c if c > x else x` is max(x, c), keeping x on a tie or a NaN.
    """
    conflict = config.merge_point + config.lane_offset
    iv_dist = conflict - iv_s
    if iv_dist <= 0.0:
        return 0
    tau_iv = iv_dist / (0.1 if 0.1 > iv_v else iv_v)
    # time for the EV to pass the conflict point plus one vehicle length;
    # an EV already past the line commits (d = 0)
    d = config.merge_point - ev_s + VEHICLE_LENGTH
    a = config.a_nominal
    tau_ev = (-ev_v + math.sqrt(ev_v * ev_v + 2.0 * a * (0.0 if 0.0 > d else d))) / a
    return 0 if tau_iv - tau_ev >= T_ACCEPT else 1


# ---------------------------------------------------------------------------
# Episode integration

class TracePoint(NamedTuple):
    t: float
    ev_lane: str
    ev_s: float
    ev_v: float
    iv_lane: str
    iv_s: float
    iv_v: float
    headway: float


class EpisodeResult(NamedTuple):
    ev_action: int
    iv_action: int
    outcome: str               # "collision" | "success" | "timeout"
    violation: bool            # yield-line overrun while yielding (roundabout)
    steps_run: int
    mean_headway: float        # mean |common-path separation| over run steps
    trace: tuple[TracePoint, ...]


_GO, _YIELD, _FOLLOW = 0, 1, 2


def _episode_result(ev_action, iv_action, collided, completed, violation, steps,
                    headway_sum, trace=()) -> EpisodeResult:
    """The EpisodeResult of an episode that ran `steps` steps, summing the
    headway of every step but a colliding one, where `completed` says whether
    the EV reached the target lane: the one assembly of run_episode and
    run_episodes. Positional: run_episodes maps it over its lanes."""
    return EpisodeResult(ev_action, iv_action, classify_outcome(collided, completed, violation),
                         violation, steps,
                         headway_sum / (steps - collided) if steps - collided else 0.0, trace)


def _setup(config: ScenarioConfig):
    """What both engines fix per scenario before their step loops: the
    merging flag, a_nominal, idm_v0, the geometry, the EV's acceleration
    while going, and per IV action (+a_nominal; -a_nominal merging, 0
    roundabout) its step terms a*DT and 0.5*a*DT*DT."""
    merging = config.kind == "merging"
    a_nom = config.a_nominal
    return (merging, a_nom, config.idm_v0, config.lane_offset, config.merge_point,
            config.section_end, config.pass_clearance, 0.0 if merging else a_nom,
            tuple((a * DT, 0.5 * a * DT * DT) for a in (a_nom, -a_nom if merging else 0.0)))


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
    """Integrate one episode under a joint decision from ev0 on the EV's
    entry lane and iv0 on the lane it enters.

    The IV holds its commanded acceleration. The EV is in one of three
    phases: _GO holds its action (constant speed on the ramp, +a_nominal on
    the approach), _YIELD brakes until the IV has passed, and _FOLLOW
    follows IDM behind the IV once released from a yield or on the target
    lane. The module docstring gives each scenario's maneuvers. The episode
    stops at the first step whose centre distance on the target lane is
    below VEHICLE_LENGTH (a collision) or after config.horizon steps.
    Given a decide callback `(ev_s, ev_v, iv_s, iv_v) -> (ev_action,
    iv_action)`, the joint decision is re-taken from the current state at
    every step until the EV reaches _FOLLOW, which every lane change enters,
    so the EV is on its entry lane at every decision; the result then records
    the last commanded pair. The IV's step terms are _setup's, looked up
    per commanded action.

    `shared` is a lookup: a dict the caller owns for one (config, ev0, iv0)
    triple, filled from run_episodes. run_episode returns `shared[ev_action,
    iv_action]`, or `shared[decide]`, where `decide` is a replayed lane's
    handle, not a callback, integrating nothing; a missing key raises
    ValueError, and so does `record_trace` (a stored result has no trace).

    Why the Monte Carlo loop calls run_episode at all is stated here once
    for the whole package: bench/selftest.py pins one run_episode call per
    (policy, episode) on both Monte Carlo workloads, so a held decision and
    a replayed game policy read the kernel's results through this lookup,
    and an IDM/MOBIL replay runs this scalar loop. Once that pin counts
    outcomes instead, the lookup belongs in the loop and `shared` can go.
    The loop also records traces, and it is the reference run_episodes is
    tested against.
    """
    if shared is not None:
        if record_trace:
            raise ValueError("shared results carry no trace")
        key, what = ((ev_action, iv_action), "joint action") if decide is None else \
            (decide, "replay handle")
        try:
            return shared[key]
        except KeyError:
            raise ValueError(f"no shared result for {what} {key!r}") from None
    if ev_action not in (0, 1) or iv_action not in (0, 1):
        raise ValueError("actions must be 0 or 1")
    merging, a_nom, v0, offset, merge_point, section_end, clearance, go_a, iv_terms = \
        _setup(config)
    dt = DT
    length = VEHICLE_LENGTH
    entry_lane = EV_LANE_START[config.kind]
    target_lane = EV_LANE_TARGET[config.kind]

    (ev_s, ev_v), (iv_s, iv_v) = ev0, iv0

    iv_dv, iv_ds = iv_terms[iv_action]
    phase = _GO if ev_action == 0 else _YIELD
    on_entry = True
    collided = False
    violation = False
    headway_sum = 0.0
    trace: list[TracePoint] = []
    t = 0.0
    ev_common = ev_s + offset

    for steps in range(1, config.horizon + 1):
        if phase != _FOLLOW and decide is not None and steps > 1:
            ev_action, iv_action = decide(ev_s, ev_v, iv_s, iv_v)
            iv_dv, iv_ds = iv_terms[iv_action]
            phase = _GO if ev_action == 0 else _YIELD

        # phase transitions on the current state
        if phase == _YIELD:
            if not merging and ev_s >= merge_point:
                violation = True
            if iv_s >= ev_common + clearance:
                phase = _FOLLOW
        if on_entry and phase != _YIELD:
            if ev_s >= merge_point and (ev_s <= section_end or not merging):
                on_entry = False
                ev_s = ev_s + offset
                ev_common = ev_s
                phase = _FOLLOW

        # EV acceleration for this step
        if phase == _GO:
            ev_a = go_a
        elif phase == _YIELD:
            ev_a = -a_nom
        else:  # _FOLLOW: IDM, IV as leader when it is ahead on the shared path
            if iv_s > ev_common:
                ev_a = idm_accel(ev_v, iv_s - ev_common - length, iv_v, v0)
            else:
                ev_a = idm_accel(ev_v, None, 0.0, v0)

        # integrate both vehicles; one that would cross v=0 inside the step
        # brakes to rest exactly (v is set: v + (-v/dt)*dt can round below 0)
        ev_v_next = ev_v + ev_a * dt
        if ev_v_next < 0.0:
            ev_a = -ev_v / dt
            ev_v_next = 0.0
        ev_s += ev_v * dt + 0.5 * ev_a * dt * dt
        ev_v = ev_v_next

        iv_v_next = iv_v + iv_dv
        if iv_v_next < 0.0:
            iv_s += iv_v * dt + 0.5 * (-iv_v / dt) * dt * dt
            iv_v_next = 0.0
        else:
            iv_s += iv_v * dt + iv_ds
        iv_v = iv_v_next

        ev_common = ev_s + offset if on_entry else ev_s
        headway = abs(iv_s - ev_common)

        if record_trace:
            t += dt
            trace.append(TracePoint(
                t=t, ev_lane=entry_lane if on_entry else target_lane, ev_s=ev_s, ev_v=ev_v,
                iv_lane=target_lane, iv_s=iv_s, iv_v=iv_v, headway=headway,
            ))

        if not on_entry and headway < length:
            collided = True
            break

        # the colliding step is excluded from the headway average
        headway_sum += headway

    return _episode_result(ev_action, iv_action, collided, not on_entry, violation, steps,
                           headway_sum, tuple(trace))


def _advance(s: np.ndarray, v: np.ndarray, dv: np.ndarray, ds: np.ndarray):
    """run_episode's integration step on arrays: position and speed after DT
    under the step terms dv = a*DT and ds = 0.5*a*DT*DT of an acceleration
    a, where a vehicle that would cross v=0 inside the step brakes to rest
    exactly, at a = -v/DT; and the mask of the vehicles that did."""
    v_next = v + dv
    stop = v_next < 0.0
    if np.count_nonzero(stop):
        ds = np.where(stop, 0.5 * (-v / DT) * DT * DT, ds)
        v_next[stop] = 0.0
    return s + (v * DT + ds), v_next, stop


def run_episodes(config: ScenarioConfig, lanes) -> list[EpisodeResult]:
    """Integrate many episodes at once: one EpisodeResult per lane of
    `lanes`, in order, each a held (ev0, iv0, ev_action, iv_action) or a
    replayed (ev0, iv0, ev_action, iv_action, columns), whose columns are
    the config.horizon - 1 (EV action, IV action) pairs a decide callback
    would return. Each result equals run_episode's in every field; the
    trace is always empty.

    The body is run_episode's step loop with every per-episode scalar turned
    into an array over the lanes: one `phase` array of _GO/_YIELD/_FOLLOW,
    each `if` a mask, and idm_accel_lanes on every lane (np.where keeps it
    for the _FOLLOW lanes). From step 2 on, a replayed lane not yet in
    _FOLLOW takes its next column, as run_episode's decide block does. Both
    vehicles step through _advance: the EV's step terms are computed from
    its acceleration every step, the IV's are _setup's, indexed per lane
    and zeroed once a brake has stopped the IV, where every later step
    would clamp it at rest and add +0.0 to its position, as zero terms do,
    until a decision indexes them again. The results are bit-identical to
    run_episode's because the arrays see the same IEEE operations in the
    same order: IDM's multiplications, `s + (v*DT + 0.5*a*DT*DT)` and one
    headway sum per lane in step order.
    Where run_episode stops at a collision, a lane is masked, not removed:
    its counts, flags and headway sum are kept from that step (its vehicles
    and running sum move on unread), and the loop ends once every lane has
    collided.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    ev0s, iv0s, ev_actions, iv_actions, *columns = zip_longest(*lanes)
    columns = columns[0] if columns else ()     # None for a held lane
    if not {*ev_actions, *iv_actions} <= {0, 1}:
        raise ValueError("actions must be 0 or 1")
    merging, a_nom, v0, offset, merge_point, section_end, clearance, go_a, iv_terms = \
        _setup(config)
    terms = np.array(iv_terms).T    # (a*DT, 0.5*a*DT*DT) by IV action

    n = len(lanes)
    ev_act, iv_act = np.array(ev_actions, np.int8), np.array(iv_actions, np.int8)
    # the replayed lanes still deciding, and their rows of `decisions`
    deciding = [i for i, c in enumerate(columns) if c is not None]
    if deciding:
        shape = (len(deciding), config.horizon - 1, 2)
        decisions = np.array([columns[i] for i in deciding], np.int8)
        if not decisions.size:  # numpy sees no pair axis in empty columns
            decisions = decisions.reshape(shape)
        if (decisions.shape != shape or decisions.min(initial=0) < 0
                or decisions.max(initial=0) > 1):
            raise ValueError(f"columns must be {shape[1]} (EV action, IV action) pairs, "
                             "each action 0 or 1")
        deciding, row = np.array(deciding), np.arange(len(deciding))

    ev_s, ev_v = np.array(ev0s).T
    iv_s, iv_v = np.array(iv0s).T

    iv_dv, iv_ds = terms[:, iv_act]
    phase = np.where(ev_act == 0, _GO, _YIELD)
    alive = np.ones(n, bool)        # not collided: run_episode's loop still runs
    violation = np.zeros(n, bool)
    steps_run = np.full(n, config.horizon)
    headway_sum = np.zeros(n)
    hit_sum = np.zeros(n)           # headway_sum at the lane's collision
    on_entry = np.ones(n, bool)     # rebound as lanes change, never written
    # ev_common is ev_s + offset on the entry lane, else ev_s; ev_s + 0.0
    # differs from ev_s only in the sign of a zero, which no comparison,
    # difference or abs below can see
    shift = np.full(n, offset, dtype=float)
    ev_common = ev_s + shift
    phase_accel = np.array([go_a, -a_nom, 0.0])  # by phase; _FOLLOW's IDM is set per step

    for step in range(1, config.horizon + 1):
        if step > 1 and len(deciding):
            # run_episode's decide block
            live = phase[deciding] != _FOLLOW
            deciding, row = deciding[live], row[live]
            a_ev, a_iv = decisions[row, step - 2].T
            phase[deciding] = np.where(a_ev == 0, _GO, _YIELD)
            iv_dv[deciding], iv_ds[deciding] = terms[:, a_iv]
            ev_act[deciding], iv_act[deciding] = a_ev, a_iv

        # phase transitions on the current state; a collided lane is on the
        # target lane, so in _FOLLOW: it never yields or changes lane again
        yielding = phase == _YIELD
        if not merging:
            violation |= yielding & (ev_s >= merge_point)
        phase[yielding & (iv_s >= ev_common + clearance)] = _FOLLOW
        change = on_entry & (phase != _YIELD) & (ev_s >= merge_point)
        if merging:
            change &= ev_s <= section_end
        if np.count_nonzero(change):
            on_entry = on_entry & ~change
            ev_s = np.where(change, ev_s + offset, ev_s)
            shift[change] = 0.0
            ev_common = ev_s + shift
            phase[change] = _FOLLOW

        # EV acceleration for this step
        # _FOLLOW: IDM, IV as leader where it is ahead on the shared path
        ev_a = np.where(phase == _FOLLOW,
                        idm_accel_lanes(ev_v, iv_s - ev_common - VEHICLE_LENGTH, iv_v,
                                        iv_s > ev_common, v0),
                        phase_accel[phase])

        ev_s, ev_v, _ = _advance(ev_s, ev_v, ev_a * DT, 0.5 * ev_a * DT * DT)
        iv_s, iv_v, stop = _advance(iv_s, iv_v, iv_dv, iv_ds)
        if np.count_nonzero(stop):
            # a brake keeps a stopped IV at rest: zero terms, no clamp
            rest = stop & (iv_dv < 0.0)
            iv_dv[rest] = iv_ds[rest] = 0.0

        ev_common = ev_s + shift
        headway = np.abs(iv_s - ev_common)

        hit = alive & ~on_entry & (headway < VEHICLE_LENGTH)
        if np.count_nonzero(hit):
            # the colliding step is excluded from the headway average
            steps_run[hit] = step
            hit_sum[hit] = headway_sum[hit]
            alive &= ~hit
            if not np.count_nonzero(alive):
                break
        headway_sum += headway

    if columns:  # the last commanded pairs
        ev_actions, iv_actions = ev_act.tolist(), iv_act.tolist()
    return list(map(_episode_result, ev_actions, iv_actions, (~alive).tolist(),
                    (~on_entry).tolist(), violation.tolist(), steps_run.tolist(),
                    np.where(alive, headway_sum, hit_sum).tolist()))


def write_trace_csv(result: EpisodeResult, path) -> None:
    """One line per TracePoint, one column per field."""
    if not result.trace:
        raise ValueError("episode was run without record_trace=True; no trace to write")
    write_csv(path, TracePoint._fields, zip(*result.trace))
