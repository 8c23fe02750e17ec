import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgdrive import scenario_sim as sim


def mid_merging():
    return (
        sim.VehicleState("ramp", 110.0, 20.0),
        sim.VehicleState("main", 105.0, 20.0),
    )


def mid_roundabout():
    return (
        sim.VehicleState("approach", 120.0, 6.0),
        sim.VehicleState("inside", 5.0, 8.0),
    )


class TestConfig:
    def test_builtin_kinds(self):
        assert sim.builtin_scenario("merging").kind == "merging"
        assert sim.builtin_scenario("roundabout").kind == "roundabout"
        with pytest.raises(ValueError):
            sim.builtin_scenario("intersection")

    def test_overrides_apply(self):
        cfg = sim.builtin_scenario("merging", horizon=10, dt=0.2)
        assert cfg.horizon == 10
        assert cfg.dt == 0.2

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            sim.merging_scenario(dt=0.0)
        with pytest.raises(ValueError):
            sim.merging_scenario(horizon=0)

    # each case: (bad sampling range, bad dt / a_nominal); a_nominal = 0
    # divides by zero in idm_entry_decision, a negative one swaps the actions
    @pytest.mark.parametrize("bad", [
        pytest.param(((2.0, 1.0), 0.0), id="bad0"),
        pytest.param(((math.nan, 1.0), math.nan), id="bad1"),
        pytest.param(((0.0, math.inf), math.inf), id="bad2"),
        pytest.param(((-math.inf, 0.0), -2.0), id="bad3"),
    ])
    @pytest.mark.parametrize("field", [
        "ev_s_range", "ev_v_range", "iv_s_range", "iv_v_range", "dt", "a_nominal",
    ])
    def test_sampling_ranges_validated(self, field, bad):
        value = bad[0] if field.endswith("_range") else bad[1]
        with pytest.raises(ValueError, match=field):
            sim.merging_scenario(**{field: value})

    # horizon=10.5 used to fail inside range() mid-run; a NaN or negative
    # vehicle length read cr = 0, a NaN lane offset a NaN mean headway
    @pytest.mark.parametrize("field,bad", [
        ("horizon", 10.5), ("horizon", True), ("horizon", -3),
        ("vehicle_length", math.nan), ("vehicle_length", -5.0), ("vehicle_length", 0.0),
        ("merge_point", math.nan), ("section_end", math.inf),
        ("lane_offset", math.nan), ("pass_clearance", -math.inf),
    ])
    def test_horizon_and_geometry_validated(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            sim.merging_scenario(**{field: bad})

    def test_action_semantics_structure(self):
        for kind in ("merging", "roundabout"):
            sem = sim.action_semantics(sim.builtin_scenario(kind))
            assert set(sem) == {"ev", "iv"}
            assert set(sem["ev"]) == {0, 1}
            assert set(sem["iv"]) == {0, 1}


class TestSampling:
    def test_ranges_respected(self):
        cfg = sim.builtin_scenario("merging")
        rng = np.random.default_rng(5)
        for _ in range(200):
            ev, iv = sim.sample_initial(cfg, rng)
            assert cfg.ev_s_range[0] <= ev.s <= cfg.ev_s_range[1]
            assert cfg.ev_v_range[0] <= ev.v <= cfg.ev_v_range[1]
            assert cfg.iv_s_range[0] <= iv.s <= cfg.iv_s_range[1]
            assert cfg.iv_v_range[0] <= iv.v <= cfg.iv_v_range[1]
            assert ev.lane == "ramp"
            assert iv.lane == "main"

    def test_zero_width_ranges_pin_the_draw(self):
        cfg = sim.builtin_scenario(
            "roundabout",
            ev_s_range=(120.0, 120.0), ev_v_range=(6.0, 6.0),
            iv_s_range=(5.0, 5.0), iv_v_range=(8.0, 8.0),
        )
        ev, iv = sim.sample_initial(cfg, np.random.default_rng(0))
        assert (ev.s, ev.v, iv.s, iv.v) == (120.0, 6.0, 5.0, 8.0)

    def test_same_seed_same_draw(self):
        cfg = sim.builtin_scenario("merging")
        a = sim.sample_initial(cfg, np.random.default_rng(42))
        b = sim.sample_initial(cfg, np.random.default_rng(42))
        assert a == b


def first_step(ev, iv, ev_action=0, iv_action=1, **overrides):
    """Trace point after one step of a merging episode."""
    cfg = sim.builtin_scenario("merging", **overrides)
    return sim.run_episode(cfg, ev, iv, ev_action, iv_action, record_trace=True).trace[0]


FAR_RAMP_EV = sim.VehicleState("ramp", 0.0, 0.0)


class TestKinematics:
    def test_constant_speed_step(self):
        # a merging EV that goes holds its speed on the ramp
        p = first_step(sim.VehicleState("ramp", 10.0, 20.0), sim.VehicleState("main", 200.0, 0.0))
        assert p.ev_s == pytest.approx(12.0)
        assert p.ev_v == 20.0

    def test_acceleration_step(self):
        p = first_step(FAR_RAMP_EV, sim.VehicleState("main", 0.0, 10.0), iv_action=0, dt=0.5)
        assert p.iv_v == pytest.approx(11.0)
        assert p.iv_s == pytest.approx(5.25)

    def test_braking_clamps_at_standstill(self):
        p = first_step(FAR_RAMP_EV, sim.VehicleState("main", 0.0, 1.0), dt=1.0)
        assert p.iv_v == 0.0
        # the vehicle stops inside the step; it advances half the free run
        assert p.iv_s == pytest.approx(0.5)

    def test_stopped_vehicle_stays_put_under_braking(self):
        cfg = sim.builtin_scenario("merging")
        r = sim.run_episode(
            cfg, FAR_RAMP_EV, sim.VehicleState("main", 3.0, 0.0), 0, 1, record_trace=True
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
        ev, iv = sim.VehicleState(ev.lane, ev.s, v), sim.VehicleState(iv.lane, iv.s, v)
        r = sim.run_episode(cfg, ev, iv, 1, 1, record_trace=True)
        assert all(p.ev_v >= 0.0 and p.iv_v >= 0.0 for p in r.trace)


class TestGeometry:
    def test_entry_lane_offset(self):
        m = sim.builtin_scenario("merging")
        assert sim.common_position(m, sim.VehicleState("ramp", 100.0, 0.0)) == 120.0
        assert sim.common_position(m, sim.VehicleState("main", 100.0, 0.0)) == 100.0
        r = sim.builtin_scenario("roundabout")
        assert sim.common_position(r, sim.VehicleState("approach", 140.0, 0.0)) == 50.0
        assert sim.common_position(r, sim.VehicleState("inside", 50.0, 0.0)) == 50.0

    def test_collision_same_lane_only(self):
        # stationary vehicles: a collision is a center distance below the
        # 5 m half-sum of lengths, on the same lane
        cfg = sim.builtin_scenario("merging")
        iv = sim.VehicleState("main", 100.0, 0.0)

        def episode(ev):
            return sim.run_episode(cfg, ev, iv, 0, 1, record_trace=True)

        hit = episode(sim.VehicleState("main", 104.0, 0.0))
        assert hit.collided and hit.steps_run == 1
        assert not episode(sim.VehicleState("main", 105.0, 0.0)).collided
        # the ramp EV at 80 m projects onto the IV's main-lane position
        ramp = episode(sim.VehicleState("ramp", 80.0, 0.0))
        assert not ramp.collided
        assert {p.headway for p in ramp.trace} == {0.0}

    @pytest.mark.parametrize("length,collides", [(7.0, True), (5.0, False)])
    def test_collision_gap_is_the_configured_vehicle_length(self, length, collides):
        # stationary vehicles 6 m apart on the main lane: they overlap only
        # when the scenario's vehicles are longer than 6 m
        cfg = sim.builtin_scenario("merging", vehicle_length=length)
        ev, iv = sim.VehicleState("main", 106.0, 0.0), sim.VehicleState("main", 100.0, 0.0)
        assert sim.run_episode(cfg, ev, iv, 0, 1).collided is collides

    def test_classification_precedence(self):
        assert sim.classify_outcome(True, True, False) == "collision"
        assert sim.classify_outcome(False, True, False) == "success"
        assert sim.classify_outcome(False, True, True) == "timeout"
        assert sim.classify_outcome(False, False, False) == "timeout"


class TestDriverModels:
    def test_idm_free_road_settles_at_target_speed(self):
        p = sim.IdmParams()
        assert sim.idm_accel(p.v0, None, 0.0, p) == pytest.approx(0.0)
        assert sim.idm_accel(0.0, None, 0.0, p) == pytest.approx(p.a)

    def test_idm_close_gap_brakes(self):
        p = sim.IdmParams()
        assert sim.idm_accel(20.0, 5.0, 20.0, p) < -1.0

    # idm_accel is the only home of the 0.1 m floor: callers pass a gap as
    # it is, negative (overlapping) ones included
    @pytest.mark.parametrize("gap", [-3.0, 0.05, 0.1])
    def test_idm_emergency_floor(self, gap):
        p = sim.IdmParams()
        assert sim.idm_accel(20.0, gap, 0.0, p) == -4.0 * p.b

    # b = 0 divided by zero and a < 0 took sqrt of a negative, both deep
    # inside run_episode
    @pytest.mark.parametrize("field,bad", [
        ("v0", 0.0), ("a", -1.0), ("b", 0.0), ("delta", math.nan),
        ("s0", -1.0), ("T", math.inf),
    ])
    def test_idm_params_validated(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            sim.IdmParams(**{field: bad})

    def test_idm_zero_jam_distance_and_headway_allowed(self):
        p = sim.IdmParams(s0=0.0, T=0.0)
        assert sim.idm_accel(20.0, 20.0, 20.0, p) == pytest.approx(p.a * (1.0 - 0.8 ** 4))

    @pytest.mark.parametrize("field,bad", [
        ("politeness", math.nan), ("a_threshold", math.inf),
        ("b_safe", -0.1), ("b_safe", math.nan),
    ])
    def test_mobil_params_validated(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            sim.MobilParams(**{field: bad})

    def test_mobil_rejects_unsafe_cut_in(self):
        p = sim.MobilParams()
        assert not sim.mobil_decide(0.0, 2.0, 0.0, -p.b_safe - 0.1, p)

    def test_mobil_needs_net_gain(self):
        p = sim.MobilParams()
        assert sim.mobil_decide(-1.0, 1.0, 0.0, 0.0, p)
        assert not sim.mobil_decide(0.0, 0.05, 0.0, 0.0, p)

    def test_mobil_politeness_weighs_follower(self):
        p = sim.MobilParams()
        # ego gain 1.0, follower loses 4.0: politeness 0.3 kills the move
        assert not sim.mobil_decide(0.0, 1.0, 0.0, -4.0, p)

    def test_merge_decision_directions(self):
        cfg = sim.builtin_scenario("merging")
        ev = sim.VehicleState("ramp", 110.0, 20.0)
        far_back = sim.VehicleState("main", 20.0, 20.0)
        ahead = sim.VehicleState("main", 135.0, 20.0)
        assert sim.mobil_merge_decision(cfg, ev, far_back) == 0
        assert sim.mobil_merge_decision(cfg, ev, ahead) == 1
        with pytest.raises(ValueError):
            sim.mobil_merge_decision(sim.builtin_scenario("roundabout"), ev, far_back)

    def test_entry_decision_directions(self):
        cfg = sim.builtin_scenario("roundabout")
        ev = sim.VehicleState("approach", 120.0, 6.0)
        assert sim.idm_entry_decision(cfg, ev, sim.VehicleState("inside", 60.0, 8.0)) == 0
        assert sim.idm_entry_decision(cfg, ev, sim.VehicleState("inside", 45.0, 10.0)) == 1
        with pytest.raises(ValueError):
            sim.idm_entry_decision(sim.builtin_scenario("merging"), ev, ev)



class TestLanes:
    # an EV on an unknown lane used to run to timeout, and an IV on the ramp
    # moved MOBIL's decision while the episode ignored its lane
    @pytest.mark.parametrize("kind,ev_lane,iv_lane", [
        ("merging", "bogus", "main"),
        ("merging", "ramp", "ramp"),
        ("merging", "main", "inside"),
        ("roundabout", "ramp", "inside"),
        ("roundabout", "approach", "approach"),
    ])
    def test_run_episode_rejects_vehicles_off_the_lanes(self, kind, ev_lane, iv_lane):
        cfg = sim.builtin_scenario(kind)
        ev, iv = mid_merging() if kind == "merging" else mid_roundabout()
        ev = dataclasses.replace(ev, lane=ev_lane)
        iv = dataclasses.replace(iv, lane=iv_lane)
        with pytest.raises(ValueError, match="lane"):
            sim.run_episode(cfg, ev, iv, 0, 1)

    def test_decisions_reject_vehicles_off_the_lanes(self):
        merging = sim.builtin_scenario("merging")
        ev = sim.VehicleState("ramp", 110.0, 20.0)
        with pytest.raises(ValueError, match="IV lane 'ramp'"):
            sim.mobil_merge_decision(merging, ev, sim.VehicleState("ramp", 105.0, 20.0))
        with pytest.raises(ValueError, match="EV lane 'bogus'"):
            sim.mobil_merge_decision(merging, dataclasses.replace(ev, lane="bogus"),
                                     sim.VehicleState("main", 105.0, 20.0))
        roundabout = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        with pytest.raises(ValueError, match="EV lane 'ramp'"):
            sim.idm_entry_decision(roundabout, dataclasses.replace(ev, lane="ramp"), iv)
        with pytest.raises(ValueError, match="IV lane 'approach'"):
            sim.idm_entry_decision(roundabout, ev, dataclasses.replace(iv, lane="approach"))

    def test_ev_on_the_target_lane_is_accepted(self):
        for kind, make in (("merging", mid_merging), ("roundabout", mid_roundabout)):
            cfg = sim.builtin_scenario(kind)
            ev, iv = make()
            on_target = dataclasses.replace(ev, lane=sim.EV_LANE_TARGET[kind])
            assert sim.check_lanes(cfg, ev, iv)
            assert not sim.check_lanes(cfg, on_target, iv)
            r = sim.run_episode(cfg, on_target, iv, 0, 1)
            assert r.completed_at is None


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
            rng = np.random.default_rng(99)
            for _ in range(20):
                ev, iv = sim.sample_initial(cfg, rng)
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
        assert r.collided and r.outcome == "collision"
        assert r.steps_run <= cfg.horizon
        assert r.ev_action == 0 and r.iv_action == 0

    def test_success_records_completion_time(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        r = sim.run_episode(cfg, ev, iv, 0, 1)
        assert r.completed
        assert r.completed_at is not None
        assert 0.0 <= r.completed_at <= cfg.horizon * cfg.dt

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
        assert first.t == pytest.approx(cfg.dt)
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
        assert float(cells[0]) == pytest.approx(cfg.dt)

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
    def count_idm(self, monkeypatch):
        calls = []
        real = sim.idm_accel

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sim, "idm_accel", counting)
        return calls

    def test_repeated_joint_action_returns_the_stored_result(self, monkeypatch):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        shared = {}
        first = sim.run_episode(cfg, ev, iv, 0, 1, shared=shared)
        calls = self.count_idm(monkeypatch)
        assert sim.run_episode(cfg, ev, iv, 0, 1, shared=shared) is first
        assert not calls

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_stored_result_equals_a_fresh_run(self, kind):
        cfg = sim.builtin_scenario(kind)
        ev, iv = mid_merging() if kind == "merging" else mid_roundabout()
        shared = {}
        joints = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for joint in joints:
            sim.run_episode(cfg, ev, iv, *joint, shared=shared)
        assert list(shared) == joints
        for joint, stored in shared.items():
            fresh = sim.run_episode(cfg, ev, iv, *joint)
            for f in dataclasses.fields(sim.EpisodeResult):
                assert getattr(stored, f.name) == getattr(fresh, f.name), f.name

    def test_a_different_joint_action_integrates_fresh(self, monkeypatch):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        shared = {}
        first = sim.run_episode(cfg, ev, iv, 1, 0, shared=shared)
        calls = self.count_idm(monkeypatch)
        other = sim.run_episode(cfg, ev, iv, 0, 1, shared=shared)
        assert calls
        assert other is not first
        assert (other.ev_action, other.iv_action) == (0, 1)
        assert shared == {(1, 0): first, (0, 1): other}

    @pytest.mark.parametrize("extra", [
        {"decide": lambda e, i: (1, 1)}, {"record_trace": True},
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
        r = sim.run_episode(cfg, ev, iv, 0, 0, decide=lambda e, i: (1, 1))
        assert r.outcome != "collision"
        assert (r.ev_action, r.iv_action) == (1, 1)

    def test_replay_stops_once_the_maneuver_is_underway(self):
        cfg = sim.builtin_scenario("roundabout")
        ev, iv = mid_roundabout()
        seen_phases = []

        def decide(e, i):
            seen_phases.append(e.lane)
            return 0, 0

        r = sim.run_episode(cfg, ev, iv, 0, 0, decide=decide)
        assert seen_phases
        assert set(seen_phases) == {"approach"}

    def test_replay_sees_current_states(self):
        cfg = sim.builtin_scenario("merging")
        ev, iv = mid_merging()
        positions = []

        def decide(e, i):
            positions.append(e.s)
            return 1, 1

        sim.run_episode(cfg, ev, iv, 1, 1, decide=decide)
        assert positions == sorted(positions)
        assert len(set(positions)) > 1
