import math
from collections import Counter
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import inverse_cdf_joint
from qgdrive import experiments as ex
from qgdrive import scenario_sim
from qgdrive.classical_game import OutcomeDistribution, builtin_game
from qgdrive.quantum_game import GATE_ORDER, QuantumGate
from qgdrive.scenario_sim import builtin_scenario


def merging_config(episodes=200, seed=5):
    return ex.MonteCarloConfig(
        scenario=builtin_scenario("merging"),
        game=builtin_game("merging"),
        episodes=episodes,
        master_seed=seed,
    )


class TestPolicySpec:
    def test_name_canonicalized(self):
        assert ex.PolicySpec("cg-epd").name == "CG_EPD"
        assert ex.PolicySpec("qg_u1_1").name == "QG_U1_1"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ex.PolicySpec("QG_U2")
        for name in (None, 3, QuantumGate.PAULI_Z):
            with pytest.raises(ValueError, match="str name"):
                ex.PolicySpec(name)

    def test_assumed_gate_normalized(self):
        assert ex.PolicySpec("QG_G4", "z").assumed_gate == "Z"
        assert ex.PolicySpec("QG_G4", "Uniform").assumed_gate == "uniform"
        # the enum, as as_gate and preset take it
        assert ex.PolicySpec("QG_G4", QuantumGate.PAULI_Z) == ex.PolicySpec("QG_G4", "Z")
        assert ex.PolicySpec("QG_G4", QuantumGate.HADAMARD).label() == "QG_G4[H]"
        with pytest.raises(ValueError):
            ex.PolicySpec("QG_G4", "Q")
        for gate in (None, 4, ("Z",)):
            with pytest.raises(ValueError, match="QuantumGate assumed_gate"):
                ex.PolicySpec("QG_G4", gate)

    def test_label_carries_opponent_model(self):
        assert ex.PolicySpec("QG_G4").label() == "QG_G4[Z]"
        assert ex.PolicySpec("QG_G4", "uniform").label() == "QG_G4[uniform]"
        assert ex.PolicySpec("CG_MS").label() == "CG_MS"

    # episodes=True used to run one episode and report "episodes": true;
    # 2.5 and a seed of 1.5 raised TypeError in the middle of the run
    def test_episodes_must_be_positive(self):
        for episodes in (0, True, 2.5, "10"):
            with pytest.raises(ValueError, match="^episodes must"):
                merging_config(episodes=episodes)

    def test_master_seed_must_be_non_negative(self):
        assert merging_config(seed=0).master_seed == 0
        for seed in (-1, True, False, 1.5):
            with pytest.raises(ValueError, match="^master_seed must"):
                merging_config(seed=seed)


class TestSeeding:
    def test_episode_rng_reproducible(self):
        a = ex.episode_rng(7, 3).random(4)
        b = ex.episode_rng(7, 3).random(4)
        assert np.array_equal(a, b)

    def test_episodes_independent(self):
        a = ex.episode_rng(7, 3).random(4)
        b = ex.episode_rng(7, 4).random(4)
        assert not np.array_equal(a, b)


class TestWilson:
    def test_known_value(self):
        # k=25, n=100 against the closed form evaluated by hand
        z = 1.959963984540054
        want = z * math.sqrt(0.25 * 0.75 * 100 + z * z / 4) / (100 + z * z)
        assert ex.wilson_halfwidth(25, 100) == pytest.approx(want)

    def test_zero_failures_still_positive(self):
        assert 0.0 < ex.wilson_halfwidth(0, 100) < 0.02

    def test_symmetry(self):
        assert ex.wilson_halfwidth(10, 50) == pytest.approx(ex.wilson_halfwidth(40, 50))

    def test_empty_sample(self):
        assert ex.wilson_halfwidth(0, 0) == 0.0


class TestDistributions:
    def test_fixed_policies(self):
        game = builtin_game("merging")
        assert ex.policy_distributions(ex.PolicySpec("CG_EPD"), game).as_tuple() == (
            0.25, 0.25, 0.25, 0.25,
        )
        ms = ex.policy_distributions(ex.PolicySpec("CG_MS"), game)
        assert ms.p00 == pytest.approx(81.0 / 169.0)
        u11 = ex.policy_distributions(ex.PolicySpec("QG_U1_1"), game)
        assert u11.p00 == pytest.approx(0.5)
        assert u11.p10 == pytest.approx(0.0, abs=1e-12)

    def test_g4_assumed_z_is_a_point_mass(self):
        d = ex.policy_distributions(ex.PolicySpec("QG_G4", "Z"), builtin_game("merging"))
        assert d.p01 == pytest.approx(1.0)

    def test_g4_uniform_is_five_rows(self):
        rows = ex.policy_distributions(
            ex.PolicySpec("QG_G4", "uniform"), builtin_game("merging")
        )
        assert isinstance(rows, tuple) and len(rows) == 5
        s00_mass = sum(r.p00 for r in rows) / 5.0
        assert s00_mass == pytest.approx(0.2)

    def test_controllers_have_no_distribution(self):
        game = builtin_game("merging")
        assert ex.policy_distributions(ex.PolicySpec("MOBIL"), game) is None
        assert ex.policy_distributions(ex.PolicySpec("IDM"), game) is None


class TestJointSampling:
    def test_uniform_inversion_quadrants(self):
        d = OutcomeDistribution(0.25, 0.25, 0.25, 0.25)
        assert ex._sample_joint(d.thresholds, 0.4, 0.4) == (0, 0)
        assert ex._sample_joint(d.thresholds, 0.4, 0.6) == (0, 1)
        assert ex._sample_joint(d.thresholds, 0.6, 0.4) == (1, 0)
        assert ex._sample_joint(d.thresholds, 0.6, 0.6) == (1, 1)

    def test_point_mass_ignores_draws(self):
        d = OutcomeDistribution(0.0, 1.0, 0.0, 0.0)
        for u in (0.01, 0.5, 0.99):
            assert ex._sample_joint(d.thresholds, u, u) == (0, 1)

    def test_empirical_joint_matches_law(self):
        d = OutcomeDistribution(0.5, 0.1, 0.15, 0.25)
        rng = np.random.default_rng(17)
        counts = {}
        n = 40000
        for _ in range(n):
            jk = ex._sample_joint(d.thresholds, float(rng.random()), float(rng.random()))
            counts[jk] = counts.get(jk, 0) + 1
        for (j, k), want in zip(((0, 0), (0, 1), (1, 0), (1, 1)), d.as_tuple()):
            assert counts.get((j, k), 0) / n == pytest.approx(want, abs=0.01)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4)
           .filter(lambda w: sum(w) > 0.0), st.data())
    @example([0.0, 1.0, 0.0, 0.0], None)   # QG_G4[Z]: P(EV=1) = 0
    @example([0.0, 0.0, 0.3, 0.7], None)   # P(EV=0) = 0
    def test_thresholds_invert_like_the_loop_oracle(self, weights, data):
        p = [w / sum(weights) for w in weights]
        dist = OutcomeDistribution(*p)
        # a uniform on a threshold must land on the oracle's side of it
        m0, m1 = p[0] + p[1], p[2] + p[3]
        edges = [m0, p[0] / m0 if m0 else 0.5, p[2] / m1 if m1 else 0.5, 0.0]
        uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(edges))
        u_ev, u_iv = (0.5, 0.5) if data is None else (data.draw(uniform), data.draw(uniform))
        want = inverse_cdf_joint(p, u_ev, u_iv)
        assert ex._sample_joint(dist.thresholds, u_ev, u_iv) == want
        # the start decision and a replayed one read the same thresholds;
        # a fixed law gets no replay callback
        start, replay = ex.episode_decision(ex.PolicySpec("cg-ms"), builtin_scenario("merging"),
                                            dist, None, None, None, u_ev, u_iv, [u_ev, u_iv])
        assert start == want
        assert (replay is None) == ex._fixed_law(dist)
        if replay is not None:
            assert replay(110.0, 20.0, 105.0, 20.0) == want

    def test_uniform_gate_drawn_after_decision_uniforms(self):
        # the gate index must come from the third draw so the first two
        # stay aligned with every other policy
        game = builtin_game("merging")
        spec = ex.PolicySpec("QG_G4", "uniform")
        rows = ex.policy_distributions(spec, game)
        scenario = builtin_scenario("merging")
        for i in range(40):
            rng = ex.episode_rng(3, i)
            u_ev, u_iv = float(rng.random()), float(rng.random())
            got, _ = ex.episode_decision(spec, scenario, rows, rng, None, None, u_ev, u_iv)
            twin = ex.episode_rng(3, i)
            u_ev, u_iv = float(twin.random()), float(twin.random())
            gate = int(twin.integers(5))
            assert got == ex._sample_joint(rows[gate].thresholds, u_ev, u_iv)


class TestRuns:
    def test_summary_is_reproducible(self):
        cfg = merging_config()
        a = ex.run_comparison([ex.PolicySpec("CG_EPD")], cfg)[0]
        b = ex.run_comparison([ex.PolicySpec("CG_EPD")], cfg)[0]
        assert a == b

    def test_rates_are_fractions_and_consistent(self):
        s = ex.run_comparison([ex.PolicySpec("CG_MS")], merging_config())[0]
        assert 0.0 <= s.cr <= 1.0
        assert 0.0 <= s.sr <= 1.0
        assert s.cr + s.sr <= 1.0 + 1e-12
        assert s.episodes == 200
        assert s.scenario == "merging"

    def test_common_random_numbers_align_identical_policies(self):
        # CG-EPD and the flat QG-U1 point share the same outcome law, so
        # under a shared master seed they must replay identical episodes
        cfg = merging_config(episodes=400, seed=13)
        a = ex.run_comparison([ex.PolicySpec("CG_EPD")], cfg)[0]
        b = ex.run_comparison([ex.PolicySpec("QG_U1_2")], cfg)[0]
        assert a.cr == b.cr
        assert a.sr == b.sr
        assert a.mean_headway_m == b.mean_headway_m

    def test_assumed_z_never_collides(self):
        s = ex.run_comparison([ex.PolicySpec("QG_G4")], merging_config())[0]
        assert s.cr == 0.0
        assert s.sr == 1.0

    def test_comparison_shares_the_seed(self):
        cfg = merging_config()
        both = ex.run_comparison(["cg-epd", "qg-g4"], cfg)
        assert both[0] == ex.run_comparison([ex.PolicySpec("CG_EPD")], cfg)[0]
        assert both[1].method == "QG_G4[Z]"

    @pytest.mark.parametrize("kind,replay", [
        ("merging", False), ("roundabout", False), ("roundabout", True),
    ], ids=["merging", "roundabout", "roundabout-replay"])
    @pytest.mark.parametrize("uniform_g4_at", ["first", "last"])
    def test_row_does_not_depend_on_the_other_policies(self, kind, replay, uniform_g4_at):
        # the uniform QG_G4 takes one more draw (its gate) than any other
        # policy, so placing it first and then last pins the shared-draw order
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=replay), builtin_game(kind), 60, 7
        )
        controller = "mobil" if kind == "merging" else "idm"
        others = [ex.PolicySpec(p) for p in ("cg-epd", "cg-ms", "qg-u1-1", controller, "qg-g4")]
        uniform_g4 = ex.PolicySpec("qg-g4", "uniform")
        if uniform_g4_at == "first":
            specs = [uniform_g4, *others]
        else:
            specs = [*reversed(others), uniform_g4]
        got = ex.run_comparison(specs, cfg)
        assert got == tuple(ex.run_comparison([spec], cfg)[0] for spec in specs)

    @pytest.mark.parametrize("kind,replay", [("merging", False), ("roundabout", True)],
                             ids=["merging", "roundabout-replay"])
    def test_held_decisions_share_integrations(self, kind, replay, monkeypatch):
        # group each run_episode result by episode (the ev0 object it ran
        # from), whatever order the calls come in
        episodes = {}
        real = ex.run_episode

        def recording(config, ev0, iv0, a_ev, a_iv, **kwargs):
            result = real(config, ev0, iv0, a_ev, a_iv, **kwargs)
            episodes.setdefault(id(ev0), (ev0, []))[1].append(((a_ev, a_iv), result))
            return result

        monkeypatch.setattr(ex, "run_episode", recording)
        controller = "mobil" if kind == "merging" else "idm"
        policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", controller]
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=replay), builtin_game(kind), 40, 7
        )
        ex.run_comparison(policies, cfg)
        assert len(episodes) == 40
        for _, calls in episodes.values():
            assert len(calls) == len(policies)
            objects = {id(result) for _, result in calls}
            if replay:
                assert len(objects) == len(calls)
            else:
                joints = {joint for joint, _ in calls}
                assert len(objects) == len(joints) <= 4

    @pytest.mark.parametrize("kind", ["roundabout", "merging"])
    def test_replay_counts_episodes_and_rule_calls(self, kind, monkeypatch):
        # run_episode runs each (episode, policy) once, and the IDM/MOBIL
        # rule takes the start and every replayed decision
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_decision = ex.episode_decision

        def deciding(policy, *args):
            start, decide = real_decision(policy, *args)
            if policy.name in ("IDM", "MOBIL"):
                decide = counting("decide", decide)
            return start, decide

        monkeypatch.setattr(ex, "run_episode", counting("run_episode", ex.run_episode))
        monkeypatch.setattr(ex, "episode_decision", deciding)
        controller = "mobil" if kind == "merging" else "idm"
        rule = ex.mobil_merge_decision if kind == "merging" else ex.idm_entry_decision
        monkeypatch.setattr(ex, rule.__name__, counting("rule", rule))
        policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", controller]
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=True), builtin_game(kind), 40, 7
        )
        ex.run_comparison([ex.PolicySpec(p, "uniform") for p in policies], cfg)
        assert counts["run_episode"] == 40 * len(policies)
        assert counts["decide"] > 0
        assert counts["rule"] == 40 + counts["decide"]

    # under replay the others read their block from a copy of the stream,
    # and a uniform QG_G4 (first here) draws its gate and own block from the
    # stream itself; the held cases keep their bare ids
    @pytest.mark.parametrize("kind,replay,chunk", [
        *(pytest.param("merging", False, chunk, id=str(chunk)) for chunk in (1, 7, 50)),
        *(pytest.param("roundabout", True, chunk, id=f"roundabout-replay-{chunk}")
          for chunk in (1, 7, 50)),
    ])
    def test_chunk_size_does_not_move_the_summaries(self, kind, replay, chunk, monkeypatch):
        # 23 episodes fill no chunk size evenly; 50 holds them all at once
        uniform_g4 = ex.PolicySpec("qg-g4", "uniform")
        if replay:
            policies = [uniform_g4, "cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "idm"]
        else:
            policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", uniform_g4, "mobil"]
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=replay), builtin_game(kind), 23, 7
        )
        default = ex.run_comparison(policies, cfg)
        lanes_per_call = []
        real = ex.run_episodes

        def recording(config, lanes):
            lanes = list(lanes)
            lanes_per_call.append(len(lanes))
            return real(config, lanes)

        monkeypatch.setattr(ex, "_CHUNK", chunk)
        monkeypatch.setattr(ex, "run_episodes", recording)
        assert ex.run_comparison(policies, cfg) == default
        assert len(lanes_per_call) == -(-23 // chunk)
        assert max(lanes_per_call) <= 4 * chunk

    def test_comparison_rejects_empty(self):
        with pytest.raises(ValueError):
            ex.run_comparison([], merging_config())

    def test_comparison_rejects_repeated_policy_before_running(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a policy ran")

        for name in ("run_episode", "episode_rng"):
            monkeypatch.setattr(ex, name, no_run)
        with pytest.raises(ValueError, match=r"CG_EPD"):
            ex.run_comparison(["cg-epd", "qg-g4", "CG_EPD"], merging_config())

    def test_single_policy_on_wrong_scenario_rejected_before_running(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(ex, "episode_rng", no_run)
        round_cfg = ex.MonteCarloConfig(
            builtin_scenario("roundabout"), builtin_game("roundabout"), 10, 0
        )
        with pytest.raises(ValueError, match="MOBIL"):
            ex.run_comparison([ex.PolicySpec("MOBIL")], round_cfg)

    def test_scenario_policy_compatibility(self):
        round_cfg = ex.MonteCarloConfig(
            builtin_scenario("roundabout"), builtin_game("roundabout"), 10, 0
        )
        with pytest.raises(ValueError):
            ex.run_comparison([ex.PolicySpec("MOBIL")], round_cfg)
        with pytest.raises(ValueError):
            ex.run_comparison([ex.PolicySpec("IDM")], merging_config(episodes=10))

    def test_baselines_run_on_their_scenario(self):
        round_cfg = ex.MonteCarloConfig(
            builtin_scenario("roundabout"), builtin_game("roundabout"), 50, 2
        )
        assert ex.run_comparison([ex.PolicySpec("IDM")], round_cfg)[0].episodes == 50
        mobil = ex.run_comparison([ex.PolicySpec("MOBIL")], merging_config(episodes=50))[0]
        assert mobil.method == "MOBIL"

    def test_decision_replay_mode_runs_and_differs(self):
        held = merging_config(episodes=150, seed=9)
        replay = ex.MonteCarloConfig(
            builtin_scenario("merging", decision_replay=True),
            builtin_game("merging"), 150, 9,
        )
        a = ex.run_comparison([ex.PolicySpec("CG_EPD")], held)[0]
        b = ex.run_comparison([ex.PolicySpec("CG_EPD")], replay)[0]
        assert b == ex.run_comparison([ex.PolicySpec("CG_EPD")], replay)[0]
        assert (a.cr, a.sr) != (b.cr, b.sr)

    @pytest.mark.parametrize("kind,replay,episodes,policies,want", [
        ("merging", False, 200, ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", "mobil"], [
            ("CG_EPD", 0.245, 0.515, 63.0809337292406),
            ("CG_MS", 0.47, 0.43, 55.44357704739754),
            ("QG_U1_1", 0.54, 0.46, 64.25097573373057),
            ("QG_U1_2", 0.245, 0.515, 63.0809337292406),
            ("QG_G4[Z]", 0.0, 1.0, 116.42112636937344),
            ("MOBIL", 0.305, 0.58, 71.47306386833519),
        ]),
        ("roundabout", True, 100, ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", "idm"], [
            ("CG_EPD", 0.63, 0.23, 22.37398987256631),
            ("CG_MS", 0.81, 0.11, 19.156902643247914),
            ("QG_U1_1", 0.62, 0.38, 22.019941526665338),
            ("QG_U1_2", 0.63, 0.23, 22.37398987256631),
            ("QG_G4[uniform]", 0.18, 0.73, 37.45840094237928),
            ("IDM", 0.35, 0.65, 40.071021451113204),
        ]),
        ("merging", True, 100, ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", "mobil"], [
            ("CG_EPD", 0.43, 0.57, 65.07740859936551),
            ("CG_MS", 0.64, 0.36, 47.28916806731319),
            ("QG_U1_1", 0.45, 0.55, 66.3947876232998),
            ("QG_U1_2", 0.43, 0.57, 65.07740859936551),
            ("QG_G4[uniform]", 0.16, 0.6, 70.20467183547966),
            ("MOBIL", 0.28, 0.72, 55.17737039698278),
        ]),
    ], ids=["merging", "roundabout-replay", "merging-replay"])
    def test_seeded_stream_is_frozen(self, kind, replay, episodes, policies, want):
        # golden numbers at seed 7: any change to the draw order, the
        # decision rule or the replay loop moves at least one of them
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=replay), builtin_game(kind), episodes, 7
        )
        got = ex.run_comparison([ex.PolicySpec(p, "uniform" if replay else "Z") for p in policies], cfg)
        assert [(s.method, s.cr, s.sr) for s in got] == [w[:3] for w in want]
        for s, w in zip(got, want):
            assert s.mean_headway_m == pytest.approx(w[3], rel=1e-12)

    def test_decision_replay_controller_policy(self):
        replay = ex.MonteCarloConfig(
            builtin_scenario("roundabout", decision_replay=True),
            builtin_game("roundabout"), 80, 4,
        )
        s = ex.run_comparison([ex.PolicySpec("IDM")], replay)[0]
        assert s.episodes == 80
        assert 0.0 <= s.cr <= 1.0


class TestFixedLaws:
    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    def test_which_laws_are_fixed(self, kind):
        game = builtin_game(kind)

        def law(name, gate="Z"):
            return ex.policy_distributions(ex.PolicySpec(name, gate), game)

        # the uniform opponent model's gate laws, in GATE_ORDER: only H mixes
        gates = dict(zip((g.value for g in GATE_ORDER), law("QG_G4", "uniform")))
        assert {g: ex._fixed_law(d) for g, d in gates.items()} == {
            "H": False, "X": True, "Y": True, "Z": True, "I": True}
        assert ex._fixed_law(law("QG_G4", "Z"))
        assert not ex._fixed_law(law("CG_EPD"))
        assert not ex._fixed_law(law("CG_MS"))
        # QG_U1_1's P(A=0) lies just below 1.0, and its IV conditional is 0.5
        u11 = law("QG_U1_1")
        assert u11.thresholds[0] == 0.9999999999999998
        assert not ex._fixed_law(u11)
        # P(A=0) one step below 1.0, with fixed conditionals: the top
        # uniform in [0, 1) takes the other EV action
        top = math.nextafter(1.0, 0.0)
        near = OutcomeDistribution(top, 0.0, 1.0 - top, 0.0)
        assert not ex._fixed_law(near)
        # a fixed law takes one joint action at both ends of [0, 1)
        for d in (*gates.values(), u11, near):
            joints = {ex._sample_joint(d.thresholds, u_ev, u_iv)
                      for u_ev in (0.0, top) for u_iv in (0.0, top)}
            assert (len(joints) == 1) == ex._fixed_law(d)

    @given(st.sampled_from(["merging", "roundabout"]), st.sampled_from("XYZI"),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_fixed_law_replays_the_held_episode(self, kind, gate, wide, seed):
        # the wide ranges let every joint action collide, time out or succeed
        ranges = {
            "merging": dict(ev_s_range=(95.0, 125.0), ev_v_range=(14.0, 26.0),
                            iv_s_range=(80.0, 130.0), iv_v_range=(14.0, 26.0)),
            "roundabout": dict(ev_s_range=(110.0, 125.0), ev_v_range=(2.0, 10.0),
                               iv_s_range=(0.0, 35.0), iv_v_range=(4.0, 12.0)),
        }[kind] if wide else {}
        scenario = builtin_scenario(kind, decision_replay=True, **ranges)
        spec = ex.PolicySpec("QG_G4", gate)
        law = ex.policy_distributions(spec, builtin_game(kind))
        rng = np.random.default_rng(seed)
        ev0, iv0 = scenario_sim.sample_initial(scenario, rng)
        u_ev, u_iv = rng.random(2).tolist()
        block = rng.random(2 * (scenario.horizon - 1)).tolist()
        start, callback = ex.episode_decision(spec, scenario, law, None, ev0, iv0, u_ev, u_iv,
                                              block)
        assert callback is None
        # the callback a fixed law would get, as any other game policy's
        u_next = iter(block).__next__

        def decide(*state):
            return ex._sample_joint(law.thresholds, u_next(), u_next())

        replayed = scenario_sim.run_episode(scenario, ev0, iv0, *start, record_trace=True,
                                            decide=decide)
        held = scenario_sim.run_episode(scenario, ev0, iv0, *start, record_trace=True)
        assert replayed == held

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    @pytest.mark.parametrize("chunk", [7, 512])
    def test_fixed_gates_are_held_under_replay(self, kind, chunk, monkeypatch):
        lanes, calls = [], []
        real_many, real_one = ex.run_episodes, ex.run_episode

        def many(config, batch):
            batch = list(batch)
            lanes.extend(batch)
            return real_many(config, batch)

        def one(config, ev0, iv0, a_ev, a_iv, **kwargs):
            calls.append((ev0, (a_ev, a_iv), "shared" in kwargs))
            return real_one(config, ev0, iv0, a_ev, a_iv, **kwargs)

        monkeypatch.setattr(ex, "_CHUNK", chunk)
        monkeypatch.setattr(ex, "run_episodes", many)
        monkeypatch.setattr(ex, "run_episode", one)
        controller = "mobil" if kind == "merging" else "idm"
        policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", controller]
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=True), builtin_game(kind), 40, 7
        )
        ex.run_comparison([ex.PolicySpec(p, "uniform") for p in policies], cfg)
        # each episode's gate, drawn as the contract says, and the joint
        # action the uniform QG_G4 holds when the gate fixes its law
        rows = ex.policy_distributions(ex.PolicySpec("qg-g4", "uniform"), cfg.game)
        starts, fixed = [], []
        for i in range(40):
            rng = ex.episode_rng(7, i)
            starts.append(scenario_sim.sample_initial(cfg.scenario, rng)[0])
            u_ev, u_iv = rng.random(2).tolist()
            gate = int(rng.integers(5))
            joint = ex._sample_joint(rows[gate].thresholds, u_ev, u_iv)
            fixed.append(joint if GATE_ORDER[gate] is not QuantumGate.HADAMARD else None)
        assert 0 < sum(f is not None for f in fixed) < 40
        assert [lane[0] for lane in lanes] == [ev0 for ev0, f in zip(starts, fixed) if f]
        # one call per (episode, policy), and only the fixed gates' held
        by_episode = {}
        for ev0, joint, held in calls:
            by_episode.setdefault(ev0, []).append(joint if held else None)
        assert list(by_episode) == starts
        assert [sorted(j for j in joints if j) for joints in by_episode.values()] == [
            [f] if f else [] for f in fixed]
        assert {len(joints) for joints in by_episode.values()} == {len(policies)}


class TestReports:
    def _summaries(self):
        return ex.run_comparison(["cg-epd", "cg-ms"], merging_config(episodes=100))

    def test_csv_round_trip(self, tmp_path):
        rows = self._summaries()
        path = tmp_path / "report.csv"
        ex.emit_report(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        types = get_type_hints(ex.MetricsSummary)
        assert lines[0].split(",") == list(types)
        back = [
            ex.MetricsSummary(**{k: types[k](v) for k, v in zip(types, ln.split(","), strict=True)})
            for ln in lines[1:]
        ]
        assert tuple(back) == tuple(rows)

    def test_csv_header(self, tmp_path):
        path = tmp_path / "report.csv"
        ex.emit_report(self._summaries(), path, fmt="csv")
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.readline() == "scenario,method,episodes,cr,sr,mean_headway_m,cr_ci95\n"

    def test_json_fields(self, tmp_path):
        import json

        rows = self._summaries()
        path = tmp_path / "report.json"
        ex.emit_report(rows, path, fmt="json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload) == 2
        assert payload[0]["method"] == "CG_EPD"
        assert payload[0]["cr"] == rows[0].cr

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "report.yaml"
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            ex.emit_report(self._summaries(), path, fmt="yaml")
        assert not path.exists()

    def test_emit_writes_identical_bytes(self, tmp_path):
        rows = self._summaries()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.emit_report(rows, p1)
        ex.emit_report(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# comparison run\n"
            "scenario.kind = roundabout\n"
            "episodes = 250\n"
            "master_seed = 99\n"
            "policy.name = qg-g4\n"
            "policy.assumed_gate = uniform\n"
        )
        (policy,), cfg = ex.load_experiment_config(path)
        assert policy.name == "QG_G4"
        assert policy.assumed_gate == "uniform"
        assert cfg.scenario.kind == "roundabout"
        assert cfg.episodes == 250
        assert cfg.master_seed == 99

    @pytest.mark.parametrize("line,replay", [
        ("", False), ("decision_replay = true\n", True), ("decision_replay = false\n", False),
    ], ids=["absent", "true", "false"])
    def test_decision_replay_key(self, tmp_path, line, replay):
        path = tmp_path / "exp.conf"
        path.write_text("scenario.kind = merging\nepisodes = 40\nmaster_seed = 1\n"
                        "policy.name = cg-epd\n" + line)
        assert ex.load_experiment_config(path)[1].scenario.decision_replay is replay

    def test_missing_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("scenario.kind = merging\n")
        with pytest.raises(ValueError, match="missing"):
            ex.load_experiment_config(path)

    @pytest.mark.parametrize("bad_line,match", [
        ("episodes = 100", "exp.conf:5: duplicate key 'episodes'"),
        ("policy.assumed_gat = X", "exp.conf:5: unknown key 'policy.assumed_gat'"),
        ("# typo below\nmaster_sed = 3", "exp.conf:6: unknown key 'master_sed'"),
        ("decision_replay = yes", "exp.conf:5: decision_replay: must be true or false"),
        ("scenario.kind = merge", "exp.conf:5: scenario.kind: unknown scenario 'merge'"),
        ("policy.name = qg-u5", "exp.conf:5: policy.name: unknown policy 'QG_U5'"),
        ("policy.assumed_gate = Q", "exp.conf:5: policy.assumed_gate: unknown gate 'Q'"),
    ])
    def test_strict_keys(self, tmp_path, bad_line, match):
        # scenario.kind and policy.name are left out, so that a bad value of
        # either is not a duplicate: a line's error is raised at that line,
        # before the missing keys are counted
        path = tmp_path / "exp.conf"
        path.write_text(
            "episodes = 40\nmaster_seed = 1\n"
            "# scenario.kind and\n# policy.name left out\n" + bad_line + "\n"
        )
        with pytest.raises(ValueError, match=match):
            ex.load_experiment_config(path)

    @pytest.mark.parametrize("episodes", ["4e3", "0"])
    def test_bad_episodes_names_the_line(self, tmp_path, episodes):
        path = tmp_path / "exp.conf"
        path.write_text(f"scenario.kind = merging\nepisodes = {episodes}\n")
        with pytest.raises(ValueError, match="exp.conf:2: episodes"):
            ex.load_experiment_config(path)

    def test_negative_master_seed_names_the_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("scenario.kind = merging\nepisodes = 40\nmaster_seed = -1\n")
        with pytest.raises(ValueError, match="exp.conf:3: master_seed"):
            ex.load_experiment_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("episodes 100\n")
        with pytest.raises(ValueError):
            ex.load_experiment_config(path)
