import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import idm_accel_exact, idm_entry_max_rule
from qgdrive import scenario_sim as sim

# IDM's standard constants (Treiber, Hennecke & Helbing 2000), written out
# so that the oracle pins the module's values too
IDM = dict(T=1.5, s0=2.0, a=1.5, b=2.0)


def mid_merging():
    return sim.VehicleState(110.0, 20.0), sim.VehicleState(105.0, 20.0)


def mid_roundabout():
    return sim.VehicleState(120.0, 6.0), sim.VehicleState(5.0, 8.0)


class TestConfig:
    def test_builtin_kinds(self):
        assert sim.builtin_scenario("merging").kind == "merging"
        assert sim.builtin_scenario("roundabout").kind == "roundabout"
        with pytest.raises(ValueError):
            sim.builtin_scenario("intersection")

    def test_overrides_apply(self):
        cfg = sim.builtin_scenario("merging", horizon=10, idm_v0=12.0)
        assert cfg.horizon == 10
        assert cfg.idm_v0 == 12.0

    # a bool is not a number (a_nominal=True ran episodes at 1 m/s^2), a
    # range that is not a pair raised "too many values to unpack", and a
    # string raised TypeError from math.isfinite
    def test_bad_values_rejected(self):
        for field, bad in (("idm_v0", -25.0), ("horizon", 0), ("a_nominal", True),
                           ("idm_v0", True), ("lane_offset", False), ("merge_point", True),
                           ("ev_s_range", (1.0, 2.0, 3.0)), ("iv_v_range", (1.0,)),
                           ("ev_v_range", 5.0), ("pass_clearance", "10"),
                           ("iv_s_range", ("0", "1"))):
            with pytest.raises(ValueError, match=f"^{field} must"):
                sim.builtin_scenario("merging", **{field: bad})

    # each case: (bad sampling range, bad a_nominal / idm_v0); a_nominal = 0
    # divides by zero in idm_entry_decision, a negative one swaps the
    # actions, and IDM divides by idm_v0
    @pytest.mark.parametrize("bad", [
        pytest.param(((2.0, 1.0), 0.0), id="bad0"),
        pytest.param(((math.nan, 1.0), math.nan), id="bad1"),
        pytest.param(((0.0, math.inf), math.inf), id="bad2"),
        pytest.param(((-math.inf, 0.0), -2.0), id="bad3"),
        pytest.param(((False, True), True), id="bool"),
    ])
    @pytest.mark.parametrize("field", [
        "ev_s_range", "ev_v_range", "iv_s_range", "iv_v_range", "a_nominal", "idm_v0",
    ])
    def test_sampling_ranges_validated(self, field, bad):
        value = bad[0] if field.endswith("_range") else bad[1]
        with pytest.raises(ValueError, match=field):
            sim.builtin_scenario("merging", **{field: value})

    # horizon=10.5 used to fail inside range() mid-run; a NaN lane offset
    # read a NaN mean headway; the truthy decision_replay="false" turned
    # replay on (CG_EPD's roundabout cr read 0.725 instead of 0.245 at 200
    # episodes, seed 7)
    @pytest.mark.parametrize("field,bad", [
        ("horizon", 10.5), ("horizon", True), ("horizon", -3),
        ("merge_point", math.nan), ("section_end", math.inf),
        ("lane_offset", math.nan), ("pass_clearance", -math.inf),
        ("decision_replay", "false"), ("decision_replay", 0), ("decision_replay", None),
    ])
    def test_horizon_and_geometry_validated(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            sim.builtin_scenario("merging", **{field: bad})

    # sample_initial scales by hi - lo, so a range whose width overflows is
    # rejected with the config, not met mid-run
    def test_range_width_must_be_finite(self):
        with pytest.raises(ValueError, match="ev_s_range"):
            sim.builtin_scenario("merging", ev_s_range=(-1e308, 1e308))


class TestSampling:
    def test_ranges_respected(self):
        cfg = sim.builtin_scenario("merging")
        for ev, iv in sim.sample_initial(cfg, np.random.default_rng(5).random((200, 4))):
            assert cfg.ev_s_range[0] <= ev.s <= cfg.ev_s_range[1]
            assert cfg.ev_v_range[0] <= ev.v <= cfg.ev_v_range[1]
            assert cfg.iv_s_range[0] <= iv.s <= cfg.iv_s_range[1]
            assert cfg.iv_v_range[0] <= iv.v <= cfg.iv_v_range[1]

    def test_zero_width_ranges_pin_the_draw(self):
        cfg = sim.builtin_scenario(
            "roundabout",
            ev_s_range=(120.0, 120.0), ev_v_range=(6.0, 6.0),
            iv_s_range=(5.0, 5.0), iv_v_range=(8.0, 8.0),
        )
        ev, iv = sim.sample_initial(cfg, np.random.default_rng(0).random((1, 4)))[0]
        assert (ev.s, ev.v, iv.s, iv.v) == (120.0, 6.0, 5.0, 8.0)

    def test_same_seed_same_draw(self):
        cfg = sim.builtin_scenario("merging")
        a = sim.sample_initial(cfg, np.random.default_rng(42).random((1, 4)))
        b = sim.sample_initial(cfg, np.random.default_rng(42).random((1, 4)))
        assert a == b

    # the seeded contract: one block of four uniforms is four rng.uniform
    # calls on the same stream, bit for bit
    @settings(max_examples=300, deadline=None)
    @given(ranges=st.lists(
               st.one_of(
                   # numpy's uniform rejects the signed width of (0.0, -0.0)
                   st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True)
                   .map(sorted),
                   st.floats(-1e6, 1e6).map(lambda x: [x, x])),
               min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_one_block_equals_four_uniform_calls(self, ranges, seed):
        names = ("ev_s_range", "ev_v_range", "iv_s_range", "iv_v_range")
        cfg = sim.builtin_scenario("roundabout", **{n: tuple(r) for n, r in zip(names, ranges)})
        ev, iv = sim.sample_initial(cfg, np.random.default_rng(seed).random((1, 4)))[0]
        rng = np.random.default_rng(seed)
        want = [float(rng.uniform(lo, hi)) for lo, hi in ranges]
        assert [x.hex() for x in (ev.s, ev.v, iv.s, iv.v)] == [x.hex() for x in want]


def first_step(ev, iv, ev_action=0, iv_action=1):
    """Trace point after one step of a merging episode."""
    cfg = sim.builtin_scenario("merging")
    return sim.run_episode(cfg, ev, iv, ev_action, iv_action, record_trace=True).trace[0]


FAR_RAMP_EV = sim.VehicleState(0.0, 0.0)


class TestKinematics:
    def test_constant_speed_step(self):
        # a merging EV that goes holds its speed on the ramp
        p = first_step(sim.VehicleState(10.0, 20.0), sim.VehicleState(200.0, 0.0))
        assert p.ev_s == pytest.approx(12.0)
        assert p.ev_v == 20.0

    # one DT = 0.1 s step at a_nominal = 2 m/s^2
    def test_acceleration_step(self):
        p = first_step(FAR_RAMP_EV, sim.VehicleState(0.0, 10.0), iv_action=0)
        assert p.iv_v == pytest.approx(10.2)
        assert p.iv_s == pytest.approx(1.01)

    def test_braking_clamps_at_standstill(self):
        p = first_step(FAR_RAMP_EV, sim.VehicleState(0.0, 0.1))
        assert p.iv_v == 0.0
        # the vehicle stops inside the step; it advances half the free run
        assert p.iv_s == pytest.approx(0.005)

    def test_stopped_vehicle_stays_put_under_braking(self):
        cfg = sim.builtin_scenario("merging")
        r = sim.run_episode(
            cfg, FAR_RAMP_EV, sim.VehicleState(3.0, 0.0), 0, 1, record_trace=True
        )
        assert all(p.iv_v == 0.0 and p.iv_s == 3.0 for p in r.trace)

    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=6.0, exclude_min=True),
    )
    @settings(max_examples=2000)
    def test_speed_never_negative(self, v, a_nominal):
        # both vehicles brake at a_nominal: the yielding EV on the ramp and
        # the decelerating IV on the main lane
        cfg = sim.builtin_scenario("merging", a_nominal=a_nominal)
        ev, iv = mid_merging()
        ev, iv = sim.VehicleState(ev.s, v), sim.VehicleState(iv.s, v)
        r = sim.run_episode(cfg, ev, iv, 1, 1, record_trace=True)
        assert all(p.ev_v >= 0.0 and p.iv_v >= 0.0 for p in r.trace)


class TestGeometry:
    def test_collision_same_lane_only(self):
        # stationary vehicles: a collision is a center distance below
        # VEHICLE_LENGTH, 5 m, on the same lane. A going EV at the merge
        # point (ramp 125 m) changes lane at step 1, before it moves, to main
        # 145 m, and moves 0.0075 m away from the IV behind it in that step
        cfg = sim.builtin_scenario("merging")
        at_merge = sim.VehicleState(cfg.merge_point, 0.0)

        def episode(ev, iv_s):
            return sim.run_episode(cfg, ev, sim.VehicleState(iv_s, 0.0), 0, 1, record_trace=True)

        hit = episode(at_merge, 141.0)
        assert hit.outcome == "collision" and hit.steps_run == 1
        assert hit.trace[0].ev_lane == "main"
        assert episode(at_merge, 140.0).outcome != "collision"
        # the ramp EV at 121 m projects onto the IV's main-lane position
        ramp = episode(sim.VehicleState(121.0, 0.0), 141.0)
        assert ramp.outcome != "collision"
        assert {p.headway for p in ramp.trace} == {0.0}

    @pytest.mark.parametrize("length,collides", [(7.0, True), (5.0, False)])
    def test_collision_gap_is_VEHICLE_LENGTH(self, monkeypatch, length, collides):
        # stationary vehicles: the EV merges at step 1 to 6 m (and the
        # 0.0075 m it moves) ahead of the IV, so they overlap only when
        # VEHICLE_LENGTH, which run_episode reads per call, exceeds 6 m
        monkeypatch.setattr(sim, "VEHICLE_LENGTH", length)
        cfg = sim.builtin_scenario("merging")
        ev, iv = sim.VehicleState(cfg.merge_point, 0.0), sim.VehicleState(139.0, 0.0)
        r = sim.run_episode(cfg, ev, iv, 0, 1, record_trace=True)
        assert 6.0 < r.trace[0].headway < 6.01
        assert (r.outcome == "collision") is collides

    def test_classification_precedence(self):
        assert sim.classify_outcome(True, True, False) == "collision"
        assert sim.classify_outcome(False, True, False) == "success"
        assert sim.classify_outcome(False, True, True) == "timeout"
        assert sim.classify_outcome(False, False, False) == "timeout"


class TestDriverModels:
    def test_idm_free_road_settles_at_target_speed(self):
        assert sim.idm_accel(25.0, None, 0.0, 25.0) == pytest.approx(0.0)
        assert sim.idm_accel(0.0, None, 0.0, 25.0) == pytest.approx(IDM["a"])

    def test_idm_close_gap_brakes(self):
        assert sim.idm_accel(20.0, 5.0, 20.0, 25.0) < -1.0

    # idm_accel is the only home of the 0.1 m floor: callers pass a gap as
    # it is, negative (overlapping) ones included
    @pytest.mark.parametrize("gap", [-3.0, 0.05, 0.1])
    def test_idm_emergency_floor(self, gap):
        assert sim.idm_accel(20.0, gap, 0.0, 25.0) == -4.0 * IDM["b"]

    # both IDM paths are the documented chain of IEEE operations, bit for
    # bit, so no result depends on the platform's pow; once per builtin
    # row's idm_v0
    @pytest.mark.parametrize("v0", [25.0, 10.0], ids=["highway", "roundabout"])
    def test_idm_is_the_correctly_rounded_chain(self, v0):
        rng = np.random.default_rng(16)
        n = 4000
        v = rng.uniform(0.0, 1.6 * v0, n)             # v > v0 included
        gap = rng.uniform(-2.0, 60.0, n)              # <= 0.1 m included
        gap[:40] = 0.1
        v_lead = rng.uniform(0.0, 35.0, n)
        lead = rng.random(n) < 0.5                    # the rest: free road
        args = [(vi, gi if li else None, wi)
                for vi, gi, wi, li in zip(v.tolist(), gap.tolist(), v_lead.tolist(), lead.tolist())]
        want = [idm_accel_exact(*a, v0, **IDM).hex() for a in args]
        assert [sim.idm_accel(*a, v0).hex() for a in args] == want
        assert [x.hex() for x in sim.idm_accel_lanes(v, gap, v_lead, lead, v0).tolist()] == want
        assert (v > v0).sum() > 500 and (lead & (gap <= 0.1)).sum() > 40

    # hand-picked corners of the chain, each against the exact oracle
    @pytest.mark.parametrize("v,gap,v_lead,v0", [
        (1.5e308, 50.0, 1.7e308, 25.0),             # v*T = inf, closing = -inf: NaN dynamic
        (1e308, None, 0.0, 25.0),                   # (v/v0)^4 overflows on free road
        (20.0, 30.0, 1e300, 25.0),                  # a far faster leader: dynamic < 0
        (20.0, 30.0, 20.0 + 1.5 * 2 * math.sqrt(3.0), 25.0),  # dynamic about 0
        (-0.0, 5e-324, 3.0, 25.0),                  # signed zero speed, subnormal gap
        (5e-324, 0.2, -1e308, 5e-324),              # subnormal v0
    ], ids=["nan-dynamic", "free-overflow", "fast-leader", "dynamic-near-zero",
            "zero-speed", "subnormal-v0"])
    def test_idm_corners_match_the_exact_chain(self, v, gap, v_lead, v0):
        want = idm_accel_exact(v, gap, v_lead, v0, **IDM).hex()
        assert sim.idm_accel(v, gap, v_lead, v0).hex() == want
        lanes = [np.array([x]) for x in (v, 1.0 if gap is None else gap, v_lead, gap is not None)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert sim.idm_accel_lanes(*lanes, v0).item().hex() == want

    # any positive v0, any finite speeds and gaps: near-zero, subnormal and
    # huge values overflow and underflow inside the chain, and a leader
    # faster than the EV makes IDM's dynamic term negative, where
    # `x if x > 0.0 else 0.0` stands for max(0.0, x)
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_idm_is_the_correctly_rounded_chain_for_any_input(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        v0 = data.draw(st.one_of(st.floats(0.5, 40.0), st.floats(
            min_value=0.0, exclude_min=True, allow_infinity=False)), label="v0")
        speed = st.one_of(st.floats(-1.0, 45.0), finite)
        v = data.draw(speed, label="v")
        v_lead = data.draw(st.one_of(
            speed,
            st.floats(min_value=v, allow_infinity=False),           # leader at least as fast
            st.floats(0.0, 40.0).map(lambda d: v + d).filter(math.isfinite),
        ), label="v_lead")
        gap = data.draw(st.one_of(st.none(), st.just(0.1), st.floats(-5.0, 0.1),
                                  st.floats(0.1, 200.0), finite), label="gap")
        want = idm_accel_exact(v, gap, v_lead, v0, **IDM).hex()
        assert sim.idm_accel(v, gap, v_lead, v0).hex() == want
        lanes = [np.array([x]) for x in (v, 1.0 if gap is None else gap, v_lead, gap is not None)]
        with np.errstate(over="ignore", invalid="ignore"):  # huge v overflows (v/v0)^4
            assert sim.idm_accel_lanes(*lanes, v0).item().hex() == want

    def test_mobil_rejects_unsafe_cut_in(self):
        assert not sim.mobil_decide(0.0, 2.0, 0.0, -sim.MOBIL_B_SAFE - 0.1)

    def test_mobil_needs_net_gain(self):
        assert sim.mobil_decide(-1.0, 1.0, 0.0, 0.0)
        assert not sim.mobil_decide(0.0, 0.05, 0.0, 0.0)

    def test_mobil_politeness_weighs_follower(self):
        # ego gain 1.0, follower loses 4.0: politeness 0.3 kills the move
        assert not sim.mobil_decide(0.0, 1.0, 0.0, -4.0)

    def test_merge_decision_directions(self):
        # the IV far back on the main lane, or ahead of the EV's projection
        cfg = sim.builtin_scenario("merging")
        for iv_s, want in ((20.0, 0), (135.0, 1)):
            assert sim.mobil_merge_decision(cfg, 110.0, 20.0, iv_s, 20.0) == want

    def test_entry_decision_directions(self):
        cfg = sim.builtin_scenario("roundabout")
        for iv_s, iv_v, want in ((60.0, 8.0, 0), (45.0, 10.0, 1)):
            assert sim.idm_entry_decision(cfg, 120.0, 6.0, iv_s, iv_v) == want

    # idm_entry_decision spells its two floors as comparisons; the max-spelled
    # rule in tests/oracles.py is the reference, NaN and ties included
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_entry_core_is_the_max_rule(self, data):
        cfg = sim.builtin_scenario("roundabout", **data.draw(st.fixed_dictionaries({}, optional={
            "merge_point": st.floats(100.0, 200.0), "lane_offset": st.floats(-150.0, 0.0),
            "a_nominal": st.floats(0.1, 5.0)})))
        conflict = cfg.merge_point + cfg.lane_offset
        line = cfg.merge_point
        # a NaN is drawn on purpose: `c if c > x else x` must keep it as max does
        anything = st.one_of(st.just(math.nan), st.floats(allow_infinity=False))
        ev_s = data.draw(st.one_of(
            st.floats(line - 30.0, line),                           # before the yield line
            st.floats(line, line + 2 * sim.VEHICLE_LENGTH),         # past it: d floors at 0
            st.just(line + sim.VEHICLE_LENGTH), anything), label="ev_s")
        ev_v = data.draw(st.one_of(st.floats(0.0, 15.0), anything), label="ev_v")
        iv_v = data.draw(st.one_of(
            st.floats(-1.0, 0.1), st.just(0.1), st.floats(0.1, 15.0), anything), label="iv_v")
        tau_ev = ((-ev_v + math.sqrt(ev_v * ev_v + 2.0 * cfg.a_nominal * max(
            line - ev_s + sim.VEHICLE_LENGTH, 0.0))) / cfg.a_nominal
                  if math.isfinite(ev_s) and math.isfinite(ev_v) else 0.0)
        iv_s_choices = [st.floats(conflict - 60.0, conflict),       # approaching
                        st.floats(conflict, conflict + 30.0),       # already past
                        anything]
        at_boundary = conflict - max(iv_v, 0.1) * (tau_ev + sim.T_ACCEPT)
        if math.isfinite(at_boundary):                              # tau gap ~ T_ACCEPT
            iv_s_choices.append(st.integers(-4, 4).map(
                lambda k: at_boundary + k * math.ulp(at_boundary)))
        iv_s = data.draw(st.one_of(iv_s_choices), label="iv_s")
        want = idm_entry_max_rule(cfg, ev_s, ev_v, iv_s, iv_v, sim.T_ACCEPT, sim.VEHICLE_LENGTH)
        assert sim.idm_entry_decision(cfg, ev_s, ev_v, iv_s, iv_v) == want

MERGING_OUTCOMES = {
    (0, 0): "collision",
    (0, 1): "success",
    (1, 0): "success",
    (1, 1): "timeout",
}

ROUNDABOUT_OUTCOMES = {
    (0, 0): "collision",
    (0, 1): "success",
    (1, 0): "success",
    (1, 1): "success",
}


class TestEpisodes:
    @pytest.mark.parametrize("joint,want", sorted(MERGING_OUTCOMES.items()))
    def test_merging_outcome_structure(self, joint, want):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        assert sim.run_episode(cfg, ev, iv, *joint).outcome == want

    @pytest.mark.parametrize("joint,want", sorted(ROUNDABOUT_OUTCOMES.items()))
    def test_roundabout_outcome_structure(self, joint, want):
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        assert sim.run_episode(cfg, ev, iv, *joint).outcome == want

    def test_outcome_structure_holds_across_the_draw_ranges(self):
        # the collision/success split depends only on the joint action
        for kind, table in (("merging", MERGING_OUTCOMES), ("roundabout", ROUNDABOUT_OUTCOMES)):
            cfg = sim.builtin_scenario(kind)
            for ev, iv in sim.sample_initial(cfg, np.random.default_rng(99).random((20, 4))):
                for (a, b), want in table.items():
                    got = sim.run_episode(cfg, ev, iv, a, b).outcome
                    if want == "timeout":
                        assert got in ("timeout", "success")
                    else:
                        assert got == want

    def test_result_consistency(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 0)
        assert r.outcome == "collision"
        assert r.steps_run <= cfg.horizon
        assert r.ev_action == 0 and r.iv_action == 0

    def test_success_records_completion_time(self):
        # the trace shows when the EV changed lane: once, inside the horizon
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 1, record_trace=True)
        assert r.outcome == "success"
        lanes = [p.ev_lane for p in r.trace]
        at = lanes.index(sim.EV_LANE_TARGET["merging"])
        assert 0 < at < cfg.horizon
        assert set(lanes[:at]) == {sim.EV_LANE_START["merging"]}
        assert set(lanes[at:]) == {sim.EV_LANE_TARGET["merging"]}

    def test_trace_disabled_by_default(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        assert sim.run_episode(cfg, ev, iv, 0, 1).trace == ()

    def test_trace_contents(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 1, record_trace=True)
        assert len(r.trace) == r.steps_run
        first = r.trace[0]
        assert first.t == pytest.approx(sim.DT)
        assert first.headway >= 0.0

    def test_collision_step_in_trace_but_not_headway_mean(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 0, record_trace=True)
        assert r.outcome == "collision"
        assert len(r.trace) == r.steps_run
        want = sum(p.headway for p in r.trace[:-1]) / (len(r.trace) - 1)
        assert r.mean_headway == pytest.approx(want)

    def test_trace_csv(self, tmp_path):
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        r = sim.run_episode(cfg, ev, iv, 1, 0, record_trace=True)
        path = tmp_path / "trace.csv"
        sim.write_trace_csv(r, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,ev_lane,ev_s,ev_v,iv_lane,iv_s,iv_v,headway"
        assert len(lines) == 1 + r.steps_run
        cells = lines[1].split(",")
        assert cells[1] in ("approach", "inside")
        assert float(cells[0]) == pytest.approx(sim.DT)

    def test_trace_csv_requires_trace(self, tmp_path):
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        r = sim.run_episode(cfg, ev, iv, 1, 0)
        with pytest.raises(ValueError):
            sim.write_trace_csv(r, tmp_path / "trace.csv")

    def test_yielding_ev_reaches_the_ring_after_the_iv_passes(self):
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        r = sim.run_episode(cfg, ev, iv, 1, 0, record_trace=True)
        assert r.outcome == "success"
        lanes = [p.ev_lane for p in r.trace]
        assert lanes[0] == "approach"
        assert lanes[-1] == "inside"

    def test_bad_action_rejected(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        with pytest.raises(ValueError):
            sim.run_episode(cfg, ev, iv, 2, 0)


class TestSharedResults:
    JOINTS = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def filled(self, kind):
        """`shared` for one episode, filled from run_episodes as the Monte
        Carlo loop fills it."""
        cfg = sim.builtin_scenario(kind)
        ev, iv = mid_merging() if kind == "merging" else mid_roundabout()
        results = sim.run_episodes(cfg, [(ev, iv, *joint) for joint in self.JOINTS])
        return cfg, ev, iv, dict(zip(self.JOINTS, results))

    def count_idm(self, monkeypatch):
        calls = []
        real = sim.idm_accel

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sim, "idm_accel", counting)
        return calls

    def test_repeated_joint_action_returns_the_stored_result(self, monkeypatch):
        cfg, ev, iv, shared = self.filled("merging")
        calls = self.count_idm(monkeypatch)
        assert sim.run_episode(cfg, ev, iv, 0, 1, shared=shared) is shared[0, 1]
        assert not calls

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_stored_result_equals_a_fresh_run(self, kind):
        cfg, ev, iv, shared = self.filled(kind)
        for joint, stored in shared.items():
            fresh = sim.run_episode(cfg, ev, iv, *joint)
            for name in sim.EpisodeResult._fields:
                assert getattr(stored, name) == getattr(fresh, name), name

    def test_a_miss_raises(self):
        cfg, ev, iv, shared = self.filled("merging")
        del shared[1, 1]
        with pytest.raises(ValueError, match=r"joint action \(1, 1\)"):
            sim.run_episode(cfg, ev, iv, 1, 1, shared=shared)
        assert list(shared) == self.JOINTS[:3]

    @pytest.mark.parametrize("extra", [
        {"decide": lambda *state: (1, 1)}, {"record_trace": True},
    ], ids=["decide", "record_trace"])
    def test_shared_refuses_replay_and_trace(self, extra):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        with pytest.raises(ValueError, match="shared"):
            sim.run_episode(cfg, ev, iv, 0, 1, shared={}, **extra)


class TestDecisionReplay:
    def test_without_callback_the_start_decision_holds(self):
        # run_episode replays only when given a callback; the scenario flag
        # is read by the experiments Monte Carlo loop
        cfg = sim.builtin_scenario("merging", decision_replay=True)
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 0)
        assert r.outcome == "collision"
        assert (r.ev_action, r.iv_action) == (0, 0)

    def test_replayed_decision_overrides_the_start(self):
        # the start says collide, every replay says yield: no collision
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 0, decide=lambda *state: (1, 1))
        assert r.outcome != "collision"
        assert (r.ev_action, r.iv_action) == (1, 1)

    def test_replay_stops_once_the_maneuver_is_underway(self):
        # decisions are re-taken from step 2 on, so the last one is taken at
        # step len(seen) + 1: no later than the step whose trace point first
        # shows the EV on the target lane
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        seen = []

        def decide(ev_s, ev_v, iv_s, iv_v):
            seen.append(ev_s)
            return 0, 0

        r = sim.run_episode(cfg, ev, iv, 0, 0, decide=decide, record_trace=True)
        changed = [p.ev_lane for p in r.trace].index("inside") + 1
        assert seen
        assert len(seen) + 1 <= changed < r.steps_run

    def test_replay_sees_current_states(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        positions = []

        def decide(ev_s, ev_v, iv_s, iv_v):
            positions.append(ev_s)
            return 1, 1

        sim.run_episode(cfg, ev, iv, 1, 1, decide=decide)
        assert positions == sorted(positions)
        assert len(set(positions)) > 1


def episode_fields(result):
    """Every EpisodeResult field but the trace, which run_episodes never
    records."""
    return tuple(getattr(result, name) for name in sim.EpisodeResult._fields
                 if name != "trace")


JOINTS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def ordered_pair(lo, hi):
    """(a, b) with lo <= a <= b <= hi: a sampling range inside [lo, hi]."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted).map(tuple)


def assert_kernel_matches_run_episode(cfg, states):
    lanes = [(ev, iv, *joint) for ev, iv in states for joint in JOINTS]
    got = sim.run_episodes(cfg, lanes)
    assert len(got) == len(lanes)
    for lane, result in zip(lanes, got):
        assert result.trace == ()
        assert episode_fields(result) == episode_fields(sim.run_episode(cfg, *lane)), lane


class TestBatchedKernel:
    # run_episodes is the Monte Carlo loop's integrator and run_episode its
    # oracle: every field but the trace must be equal, not approximately
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_matches_run_episode_on_sampled_episodes(self, kind, seed):
        cfg = sim.builtin_scenario(kind)
        states = sim.sample_initial(cfg, np.random.default_rng(seed).random((200, 4)))
        assert_kernel_matches_run_episode(cfg, states)

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_matches_run_episode_on_edge_states(self, kind):
        # an EV at the merge point (the roundabout's yield line) that goes
        # changes lane at step 1, before it moves, to `at`; each state
        # reaches its branch under EV action 0, and the two moving IVs theirs
        # under merging's IV action 1: braked to rest inside the horizon, or
        # clamped from backing up at step 1 and then held at rest
        cfg = sim.builtin_scenario(kind)
        ev, iv = mid_merging() if kind == "merging" else mid_roundabout()
        common = ev.s + cfg.lane_offset
        at = cfg.merge_point + cfg.lane_offset
        states = [
            (ev, iv),
            (ev._replace(s=cfg.merge_point), iv),                       # changes lane at step 1
            (ev, iv._replace(v=0.0)),                                   # stopped IV
            (ev, iv._replace(v=3.0)),                                   # braking IV
            (ev, iv._replace(v=-1.0)),                                  # IV clamped at step 1
            (ev._replace(v=0.0), iv),                                   # stopped EV
            (ev._replace(v=0.5), iv),                                   # a yield brakes it to rest
            (sim.VehicleState(cfg.merge_point, 10.0),                   # 0.05 m behind the IV
             sim.VehicleState(at + 5.05, 10.0)),
            (sim.VehicleState(124.0, 20.0),                             # merges 0.05 m behind the
             sim.VehicleState(149.04, 20.0)),                           # IV, brakes to rest
            (sim.VehicleState(cfg.merge_point, 10.0),                   # overlap: collision at step 1
             sim.VehicleState(at + 3.0, 12.0)),
            (sim.VehicleState(cfg.merge_point, 10.0),                   # leader ahead, closing fast
             sim.VehicleState(at + 12.0, 2.0)),
            (ev, iv._replace(s=common + 40.0)),                         # IV already far past
            (ev._replace(s=cfg.section_end + 5.0), iv),                 # past the merge section
        ]
        assert_kernel_matches_run_episode(cfg, states)
        assert_kernel_matches_run_episode(dataclasses.replace(cfg, horizon=1), states)

    # the sampling ranges and the geometry are drawn too, inside bounds well
    # wider than both scenarios' tuned rows: an EV may start past its merge
    # point or yield line, or past a section end that comes before the merge
    # point, the IV anywhere from 40 m behind to 200 m along its lane, either
    # vehicle at any speed up to 35 m/s, and the entry lane may project
    # ahead of or far behind the target lane
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["merging", "roundabout"]),
           idm_v0=st.floats(1.0, 40.0),
           a_nominal=st.floats(0.1, 6.0),
           horizon=st.integers(1, 200),
           pass_clearance=st.floats(-10.0, 40.0),
           ev_s_range=ordered_pair(60.0, 160.0),
           ev_v_range=ordered_pair(0.0, 35.0),
           iv_s_range=ordered_pair(-40.0, 200.0),
           iv_v_range=ordered_pair(0.0, 35.0),
           merge_point=st.floats(80.0, 180.0),
           section_end=st.floats(80.0, 300.0),
           lane_offset=st.floats(-120.0, 40.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_run_episode_on_drawn_configs(self, kind, seed, **fields):
        cfg = sim.builtin_scenario(kind, **fields)
        states = sim.sample_initial(cfg, np.random.default_rng(seed).random((8, 4)))
        assert_kernel_matches_run_episode(cfg, states)

    def test_edge_states_reach_the_branches_they_name(self):
        # the merging edge states, at EV action 0: the EV changes lane at
        # step 1 from the merge point (ramp 125 m) to main 145 m
        cfg = sim.builtin_scenario("merging")
        at_merge = sim.VehicleState(cfg.merge_point, 10.0)
        collide_first, = sim.run_episodes(cfg, [(at_merge, sim.VehicleState(148.0, 12.0), 0, 1)])
        assert collide_first.outcome == "collision" and collide_first.steps_run == 1
        assert collide_first.mean_headway == 0.0
        # 0.05 m behind the IV: IDM's emergency brake
        behind = sim.run_episode(cfg, at_merge, sim.VehicleState(150.05, 10.0), 0, 1,
                                 record_trace=True)
        assert behind.trace[0].ev_v == 10.0 - 4.0 * IDM["b"] * sim.DT
        # a leader 7 m ahead closing at 8 m/s: IDM brakes harder than the
        # emergency brake, and the speed stays above 0
        closing = sim.run_episode(cfg, at_merge, sim.VehicleState(157.0, 2.0), 0, 1,
                                  record_trace=True)
        a = sim.idm_accel(10.0, 7.0, 2.0, cfg.idm_v0)
        assert a < -4.0 * IDM["b"] and closing.trace[0].ev_v == 10.0 + a * sim.DT > 0.0
        ev, iv = mid_merging()
        slow = sim.run_episode(cfg, ev._replace(v=0.5), iv, 1, 1, record_trace=True)
        assert slow.trace[2].ev_v == 0.0                  # the yield clamped it to rest
        # merging at step 2 puts the EV 0.05 m behind the IV: IDM's emergency
        # brake, then a clamp to rest
        emergency = sim.run_episode(cfg, sim.VehicleState(124.0, 20.0),
                                    sim.VehicleState(149.04, 20.0), 0, 0,
                                    record_trace=True)
        assert emergency.trace[1].ev_v == 20.0 - 4.0 * IDM["b"] * sim.DT
        assert emergency.trace[2].ev_v == 0.0
        # IV action 1 brakes the IV from 3 m/s: step 15 would take it below
        # 0, so it is clamped to rest there and stays put to the horizon
        braking = sim.run_episode(cfg, ev, iv._replace(v=3.0), 1, 1,
                                  record_trace=True)
        before, *rest = braking.trace[13:]
        assert before.iv_v > 0.0 > before.iv_v - cfg.a_nominal * sim.DT
        assert braking.steps_run == cfg.horizon
        assert {(p.iv_v, p.iv_s) for p in rest} == {(0.0, rest[0].iv_s)}

    def test_empty_and_rejected_lanes(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        assert sim.run_episodes(cfg, []) == []
        with pytest.raises(ValueError, match="actions"):
            sim.run_episodes(cfg, [(ev, iv, 0, 1), (ev, iv, 2, 0)])

    def test_lane_idm_is_idm_accel_bit_for_bit(self):
        v0 = 25.0
        rng = np.random.default_rng(2024)
        n = 10_000
        v = rng.uniform(0.0, 1.6 * v0, n)             # v > v0 included
        gap = rng.uniform(-2.0, 60.0, n)              # <= 0.1 m included
        gap[:50] = 0.1
        v_lead = rng.uniform(0.0, 35.0, n)
        lead = rng.random(n) < 0.7                    # the rest: free road
        # leaders at 20 m behind which the dynamic term is +0.0 (at rest),
        # -0.0 (-0.0 behind -0.0) and negative (slower than the leader)
        v[50:80], v_lead[50:80], gap[50:80], lead[50:80] = 0.0, 10.0, 20.0, True
        v[60:70] = v_lead[60:70] = -0.0
        v[70:80], v_lead[70:80] = 1.0, 30.0
        dynamic = v * sim.IDM_T + v * (v - v_lead) / sim._IDM_TWO_SQRT_AB
        assert not np.signbit(dynamic[50:60]).any() and (dynamic[50:70] == 0.0).all()
        assert np.signbit(dynamic[60:70]).all() and (dynamic[70:80] < 0.0).all()
        got = sim.idm_accel_lanes(v, gap, v_lead, lead, v0)
        want = np.array([
            sim.idm_accel(vi, gi if li else None, wi, v0)
            for vi, gi, wi, li in zip(v.tolist(), gap.tolist(), v_lead.tolist(), lead.tolist())
        ])
        assert (~lead).sum() > 2000 and (lead & (gap <= 0.1)).sum() > 50
        assert got.tobytes() == want.tobytes()
