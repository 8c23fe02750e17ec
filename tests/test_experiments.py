import math
from typing import get_type_hints

import numpy as np
import pytest

from qgdrive import experiments as ex
from qgdrive.classical_game import OutcomeDistribution, builtin_game
from qgdrive.scenario_sim import VehicleState, builtin_scenario


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

    def test_assumed_gate_normalized(self):
        assert ex.PolicySpec("QG_G4", "z").assumed_gate == "Z"
        assert ex.PolicySpec("QG_G4", "Uniform").assumed_gate == "uniform"
        with pytest.raises(ValueError):
            ex.PolicySpec("QG_G4", "Q")

    def test_label_carries_opponent_model(self):
        assert ex.PolicySpec("QG_G4").label() == "QG_G4[Z]"
        assert ex.PolicySpec("QG_G4", "uniform").label() == "QG_G4[uniform]"
        assert ex.PolicySpec("CG_MS").label() == "CG_MS"

    def test_episodes_must_be_positive(self):
        with pytest.raises(ValueError):
            merging_config(episodes=0)

    def test_master_seed_must_be_non_negative(self):
        assert merging_config(seed=0).master_seed == 0
        with pytest.raises(ValueError, match="master_seed"):
            merging_config(seed=-1)


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
        assert ex._sample_joint(d, 0.4, 0.4) == (0, 0)
        assert ex._sample_joint(d, 0.4, 0.6) == (0, 1)
        assert ex._sample_joint(d, 0.6, 0.4) == (1, 0)
        assert ex._sample_joint(d, 0.6, 0.6) == (1, 1)

    def test_point_mass_ignores_draws(self):
        d = OutcomeDistribution(0.0, 1.0, 0.0, 0.0)
        for u in (0.01, 0.5, 0.99):
            assert ex._sample_joint(d, u, u) == (0, 1)

    def test_empirical_joint_matches_law(self):
        d = OutcomeDistribution(0.5, 0.1, 0.15, 0.25)
        rng = np.random.default_rng(17)
        counts = {}
        n = 40000
        for _ in range(n):
            jk = ex._sample_joint(d, float(rng.random()), float(rng.random()))
            counts[jk] = counts.get(jk, 0) + 1
        for (j, k), want in zip(((0, 0), (0, 1), (1, 0), (1, 1)), d.as_tuple()):
            assert counts.get((j, k), 0) / n == pytest.approx(want, abs=0.01)

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
            assert got == ex._sample_joint(rows[gate], u_ev, u_iv)

    def test_controller_requires_states(self):
        # a controller decides from the initial states, which must be on the
        # scenario's lanes
        scenario = builtin_scenario("merging")
        ev = VehicleState("ramp", 110.0, 20.0)
        iv = VehicleState("ramp", 105.0, 20.0)
        with pytest.raises(ValueError, match="IV lane"):
            ex.episode_decision(ex.PolicySpec("MOBIL"), scenario, None,
                                ex.episode_rng(0, 0), ev, iv, 0.5, 0.5)


class TestRuns:
    def test_summary_is_reproducible(self):
        cfg = merging_config()
        a = ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), cfg)
        b = ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), cfg)
        assert a == b

    def test_rates_are_fractions_and_consistent(self):
        s = ex.run_monte_carlo(ex.PolicySpec("CG_MS"), merging_config())
        assert 0.0 <= s.cr <= 1.0
        assert 0.0 <= s.sr <= 1.0
        assert s.cr + s.sr <= 1.0 + 1e-12
        assert s.episodes == 200
        assert s.scenario == "merging"

    def test_common_random_numbers_align_identical_policies(self):
        # CG-EPD and the flat QG-U1 point share the same outcome law, so
        # under a shared master seed they must replay identical episodes
        cfg = merging_config(episodes=400, seed=13)
        a = ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), cfg)
        b = ex.run_monte_carlo(ex.PolicySpec("QG_U1_2"), cfg)
        assert a.cr == b.cr
        assert a.sr == b.sr
        assert a.mean_headway_m == b.mean_headway_m

    def test_assumed_z_never_collides(self):
        s = ex.run_monte_carlo(ex.PolicySpec("QG_G4"), merging_config())
        assert s.cr == 0.0
        assert s.sr == 1.0

    def test_comparison_shares_the_seed(self):
        cfg = merging_config()
        both = ex.run_comparison(["cg-epd", "qg-g4"], cfg)
        assert both[0] == ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), cfg)
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
        assert got == tuple(ex.run_monte_carlo(spec, cfg) for spec in specs)

    @pytest.mark.parametrize("kind,replay", [("merging", False), ("roundabout", True)],
                             ids=["merging", "roundabout-replay"])
    def test_held_decisions_share_integrations(self, kind, replay, monkeypatch):
        # group each run_episode result by episode (the ev0 object it ran from)
        episodes = []
        real = ex.run_episode

        def recording(config, ev0, iv0, a_ev, a_iv, **kwargs):
            result = real(config, ev0, iv0, a_ev, a_iv, **kwargs)
            if not episodes or episodes[-1][0] is not ev0:
                episodes.append((ev0, []))
            episodes[-1][1].append(((a_ev, a_iv), result))
            return result

        monkeypatch.setattr(ex, "run_episode", recording)
        controller = "mobil" if kind == "merging" else "idm"
        policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", controller]
        cfg = ex.MonteCarloConfig(
            builtin_scenario(kind, decision_replay=replay), builtin_game(kind), 40, 7
        )
        ex.run_comparison(policies, cfg)
        assert len(episodes) == 40
        for _, calls in episodes:
            assert len(calls) == len(policies)
            objects = {id(result) for _, result in calls}
            if replay:
                assert len(objects) == len(calls)
            else:
                joints = {joint for joint, _ in calls}
                assert len(objects) == len(joints) <= 4

    def test_comparison_rejects_empty(self):
        with pytest.raises(ValueError):
            ex.run_comparison([], merging_config())

    def test_comparison_rejects_repeated_policy_before_running(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a policy ran")

        for name in ("run_monte_carlo", "run_episode", "episode_rng"):
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
            ex.run_monte_carlo(ex.PolicySpec("MOBIL"), round_cfg)

    def test_scenario_policy_compatibility(self):
        round_cfg = ex.MonteCarloConfig(
            builtin_scenario("roundabout"), builtin_game("roundabout"), 10, 0
        )
        with pytest.raises(ValueError):
            ex.run_monte_carlo(ex.PolicySpec("MOBIL"), round_cfg)
        with pytest.raises(ValueError):
            ex.run_monte_carlo(ex.PolicySpec("IDM"), merging_config(episodes=10))

    def test_baselines_run_on_their_scenario(self):
        round_cfg = ex.MonteCarloConfig(
            builtin_scenario("roundabout"), builtin_game("roundabout"), 50, 2
        )
        assert ex.run_monte_carlo(ex.PolicySpec("IDM"), round_cfg).episodes == 50
        assert ex.run_monte_carlo(ex.PolicySpec("MOBIL"), merging_config(episodes=50)).method == "MOBIL"

    def test_decision_replay_mode_runs_and_differs(self):
        held = merging_config(episodes=150, seed=9)
        replay = ex.MonteCarloConfig(
            builtin_scenario("merging", decision_replay=True),
            builtin_game("merging"), 150, 9,
        )
        a = ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), held)
        b = ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), replay)
        assert b == ex.run_monte_carlo(ex.PolicySpec("CG_EPD"), replay)
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
    ], ids=["merging", "roundabout-replay"])
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
        s = ex.run_monte_carlo(ex.PolicySpec("IDM"), replay)
        assert s.episodes == 80
        assert 0.0 <= s.cr <= 1.0


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
        policy, cfg = ex.load_experiment_config(path)
        assert policy.name == "QG_G4"
        assert policy.assumed_gate == "uniform"
        assert cfg.scenario.kind == "roundabout"
        assert cfg.episodes == 250
        assert cfg.master_seed == 99

    def test_missing_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("scenario.kind = merging\n")
        with pytest.raises(ValueError, match="missing"):
            ex.load_experiment_config(path)

    @pytest.mark.parametrize("bad_line,match", [
        ("episodes = 100", "exp.conf:5: duplicate key 'episodes'"),
        ("policy.assumed_gat = X", "exp.conf:5: unknown key 'policy.assumed_gat'"),
        ("# typo below\nmaster_sed = 3", "exp.conf:6: unknown key 'master_sed'"),
    ])
    def test_strict_keys(self, tmp_path, bad_line, match):
        path = tmp_path / "exp.conf"
        path.write_text(
            "scenario.kind = merging\nepisodes = 40\n"
            "master_seed = 1\npolicy.name = cg-epd\n" + bad_line + "\n"
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
