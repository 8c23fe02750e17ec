import math
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import inverse_cdf_joint
from qgdrive import cli
from qgdrive import experiments as ex
from qgdrive import scenario_sim, streams
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


def _report_bytes(stem, argv):
    """The CSV and JSON reports of `qgdrive simulate` with argv, written
    next to `stem`."""
    paths = [stem.with_suffix(f".{fmt}") for fmt in ("csv", "json")]
    for path in paths:
        assert cli.main([*argv, "--format", path.suffix[1:], "--out", str(path)]) == 0
    return [path.read_bytes() for path in paths]


def _loads_numpy_random(tmp_path, kind, gate, replay=False):
    """Whether a `simulate` run of three policies, in a fresh interpreter,
    loads numpy.random: 'True' or 'False'."""
    controller = "mobil" if kind == "merging" else "idm"
    argv = ["simulate", "--scenario", kind, "--policies", f"cg-epd,qg-g4,{controller}",
            "--assumed-gate", gate, "--episodes", "20", "--out", str(tmp_path / "r.csv"),
            *(["--decision-replay"] if replay else [])]
    code = ("import sys; from qgdrive import cli; loaded = 'numpy.random' in sys.modules; "
            f"code = cli.main({argv!r}); "
            "print(code, loaded, 'numpy.random' in sys.modules)")
    src = str(Path(ex.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    code, before, after = out.stdout.split()[-3:]
    assert code == "0" and before == "False"
    return after


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
        a = streams.episode_rng(7, 3).random(4)
        b = streams.episode_rng(7, 3).random(4)
        assert np.array_equal(a, b)

    def test_episodes_independent(self):
        a = streams.episode_rng(7, 3).random(4)
        b = streams.episode_rng(7, 4).random(4)
        assert not np.array_equal(a, b)

    # the oracle of the vectorized derivation: numpy's own SeedSequence and
    # PCG64. Master seeds past 2**128 take a fifth run-entropy word, and the
    # chunk from 2**32 - 2 crosses into two-word spawn keys
    @given(st.integers(0, 2**130 - 1),
           st.one_of(st.sampled_from([0, 2**32 - 2, 2**40]), st.integers(0, 2**48)))
    @example(0, 0)
    @example(2**128 - 1, 2**32 - 2)
    @example(2**128, 2**40)
    def test_streams_equal_numpys_seed_sequence_and_pcg64(self, master_seed, first):
        count = 3
        doubles, gates, _, resume = streams.episode_rng(master_seed, first, count)
        assert doubles.shape == (count, 6) and gates is None
        for j in range(count):
            want = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(first + j,)))
            assert doubles[j].tobytes() == want.random(6).tobytes()
            got = resume(j)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.integers(5) == want.integers(5)
            assert got.random(298).tobytes() == want.random(298).tobytes()
        # an int index alone is that episode's Generator at its stream's start
        single = streams.episode_rng(master_seed, first + 2)
        assert single.random(6).tobytes() == doubles[2].tobytes()

    # the replay rows and the gate, against numpy's draws on the same
    # stream: random(6) and random(width) for the six and the row; random(6),
    # integers(choices) and random(width - 1) for the gate and the block
    # after it. 298 and 299 are the roundabout's k and k + 1; 2**31 + 1
    # choices rejects the gate's first word about half the time, so both
    # sides of the flag are seen
    @given(st.integers(0, 2**130 - 1),
           st.one_of(st.sampled_from([0, 2**32 - 2, 2**40]), st.integers(0, 2**48)),
           st.sampled_from([0, 1, 15, 16, 17, 33, 298, 299]),
           st.sampled_from([None, 2, 5, 7, 2**31 + 1, 2**32 - 1]))
    @example(2**128, 2**32 - 2, 299, 5)
    @example(7, 0, 0, 5)
    @example(2**128, 2**40, 298, None)
    def test_rows_and_gates_equal_numpys_draws(self, master_seed, first, width, choices):
        doubles, gates, rows, resume = streams.episode_rng(master_seed, first, 3, choices)
        rows = list(rows(width))
        assert len(rows) == 3 and (gates is None) == (choices is None)
        for j, row in enumerate(rows):
            def stream():
                return np.random.default_rng(
                    np.random.SeedSequence(master_seed, spawn_key=(first + j,)))

            want = stream()
            assert doubles[j].tobytes() == want.random(6).tobytes()
            assert row.tobytes() == want.random(width).tobytes()
            if choices is None:
                continue
            want, twin = stream(), stream()
            want.random(6), twin.random(7)
            gate = int(want.integers(choices))
            state = want.bit_generator.state
            block = want.random(298)
            # numpy took the gate from output 7's low word, on the first try
            first_try = (state["has_uint32"] == 1
                         and state["state"] == twin.bit_generator.state["state"])
            assert (gates[j] >= 0) == first_try
            if first_try:
                assert gates[j] == gate
                assert row[1:].tobytes() == block[:max(width - 1, 0)].tobytes()
            fallback = resume(j)
            assert fallback.integers(choices) == gate
            assert fallback.random(298).tobytes() == block.tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 512])
    def test_rows_do_not_depend_on_the_batch(self, batch, monkeypatch):
        # row_batch takes _ROWS streams at a time; 5 streams fill no batch of 2
        want = [np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,))).random(305)[6:]
                for i in range(40, 45)]
        monkeypatch.setattr(streams, "_ROWS", batch)
        rows = streams.episode_rng(11, 40, 5)[2]
        assert [row.tobytes() for row in rows(299)] == [w.tobytes() for w in want]

    # a PCG64 state whose seventh output has a chosen low word: zero, the
    # one word numpy's integers(5) rejects, or 5**-1 mod 2**32, whose
    # product with 5 leaves 1, the least low word numpy accepts. Pick the
    # seventh state, then undo seven LCG steps, s = (s' - inc) / mult
    @pytest.mark.parametrize("low,rejected", [(0, True), (pow(5, -1, 2**32), False)],
                             ids=["zero-word", "least-accepted-word"])
    def test_crafted_gate_words_are_flagged_as_numpy_rejects_them(self, low, rejected):
        mask = 2**64 - 1
        inc = 0x9E3779B97F4A7C15F39CC0605CEDC835
        hi = 0xFEDCBA9876543210
        rot = hi >> 58
        word = 0xDEADBEEF << 32 | low
        lo = hi ^ ((word << rot | word >> (64 - rot)) & mask)  # XSL-RR gives `word`
        state, inverse = hi << 64 | lo, pow(streams._PCG_MULT, -1, 2**128)
        for _ in range(7):
            state = (state - inc) * inverse % 2**128
        want = np.random.Generator(np.random.PCG64())
        want.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                    "state": {"state": state, "inc": inc}}
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = want.bit_generator.state
        six, row = want.random(6), want.random(299)
        want.bit_generator.state = twin.bit_generator.state
        want.random(6)
        twin.random(6)
        assert twin.bit_generator.random_raw() == word
        gate = int(want.integers(5))
        # numpy reads on to the high word only when it rejects the low one
        assert (want.bit_generator.state["has_uint32"] == 0) == rejected
        block = want.random(298)
        # lane 0 is the crafted stream, lane 1 an ordinary one
        seeded = [state, 0x243F6A8885A308D313198A2E03707344]
        incs = [inc, 0xA4093822299F31D0082EFA98EC4E6C89 | 1]
        halves = [np.array([v >> 64 for v in seeded], streams._U64),
                  np.array([v & mask for v in seeded], streams._U64),
                  np.array([v >> 64 for v in incs], streams._U64),
                  np.array([v & mask for v in incs], streams._U64)]
        doubles, gates, rows, resume = streams._streams(*halves, 5)
        assert doubles[0].tobytes() == six.tobytes()
        assert next(rows(299)).tobytes() == row.tobytes()
        assert gates[0] == (-1 if rejected else gate) and gates[1] >= 0
        if not rejected:
            assert row[1:].tobytes() == block.tobytes()
        fallback = resume(0)
        assert fallback.integers(5) == gate
        assert fallback.random(298).tobytes() == block.tobytes()

    @pytest.mark.parametrize("args,name", [
        ((7, 1.5), "index"), ((7, -1), "index"), ((7, True), "index"), ((7, -1, 3), "index"),
        ((7, 0, -1), "count"), ((7, 0, 2.0), "count"),
        ((7, 2**64), "index + count"), ((7, 2**64 - 2, 3), "index + count"),
        ((7, 0, 3, 1), "choices"), ((7, 0, 3, 2**32), "choices"),
    ], ids=["fractional-index", "negative-index", "bool-index", "negative-index-count",
            "negative-count", "float-count", "index-past-2**64", "count-past-2**64",
            "one-choice", "choices-past-2**32"])
    def test_bad_arguments_are_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
            streams.episode_rng(*args)

    def test_streams_reach_index_2_to_the_64(self):
        doubles = streams.episode_rng(7, 2**64 - 2, 2)[0]
        last = streams.episode_rng(7, 2**64 - 1)
        assert last.random(6).tobytes() == doubles[1].tobytes()


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

    # under replay the others read their block from the episode's stream,
    # and a uniform QG_G4 (first here) draws its gate and own block from
    # that stream reset past the shared draws; the held cases keep their
    # bare ids
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

    @pytest.mark.parametrize("kind,gate,replay", [
        ("merging", "Z", False), ("merging", "uniform", False), ("roundabout", "uniform", True),
    ], ids=["merging-Z", "merging-uniform", "roundabout-replay-uniform"])
    def test_chunk_size_does_not_move_the_report_bytes(self, kind, gate, replay, tmp_path,
                                                       monkeypatch):
        # 47 episodes in chunks of 7 end on a partial chunk; each chunk
        # derives its streams in one pass, from its own start index
        controller = "mobil" if kind == "merging" else "idm"
        argv = ["simulate", "--scenario", kind, "--episodes", "47", "--seed", "7",
                "--policies", f"cg-epd,cg-ms,qg-u1-1,qg-u1-2,qg-g4,{controller}",
                "--assumed-gate", gate, *(["--decision-replay"] if replay else [])]
        default = _report_bytes(tmp_path / "default", argv)
        monkeypatch.setattr(ex, "_CHUNK", 7)
        assert _report_bytes(tmp_path / "chunk7", argv) == default
        if replay:
            # replay rows in batches of 3 put a batch seam inside every chunk
            monkeypatch.setattr(streams, "_ROWS", 3)
            assert _report_bytes(tmp_path / "rows3", argv) == default

    def test_each_row_batch_is_freed_before_the_next(self, monkeypatch):
        # neither the row pass 1 holds nor the uniform QG_G4's _Derived on it
        # may keep a batch alive while the next batch is derived
        real, batches, alive = streams.row_batch, [], []

        def tracked(*args):
            alive.append([ref() is not None for ref in batches])
            batch = real(*args)
            batches.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(streams, "_ROWS", 4)
        monkeypatch.setattr(streams, "row_batch", tracked)
        policies = ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", ex.PolicySpec("qg-g4", "uniform"),
                    "idm"]
        cfg = ex.MonteCarloConfig(builtin_scenario("roundabout", decision_replay=True),
                                  builtin_game("roundabout"), 14, 7)
        ex.run_comparison(policies, cfg)
        assert alive == [[False] * n for n in range(4)]

    def test_held_run_never_loads_numpy_random(self, tmp_path):
        # numpy 2 loads numpy.random on first use, about 15 ms; a held run
        # draws nothing past each episode's six doubles, so it never needs it
        assert _loads_numpy_random(tmp_path, "merging", "Z") == "False"

    # every draw comes from episode_rng's derived rows; numpy.random loads
    # only for a gate word numpy would reject, about once in 2**32 episodes
    @pytest.mark.parametrize("kind,replay", [("roundabout", True), ("merging", False)],
                             ids=["roundabout-replay", "merging"])
    def test_uniform_gate_runs_never_load_numpy_random(self, tmp_path, kind, replay):
        assert _loads_numpy_random(tmp_path, kind, "uniform", replay) == "False"

    def test_rejected_gates_fall_back_to_the_same_report_bytes(self, tmp_path, monkeypatch):
        # flag every lane's gate word as rejected, so each uniform QG_G4
        # draws its gate and its own block from a Generator on its stream
        argv = ["simulate", "--scenario", "roundabout", "--episodes", "60", "--seed", "7",
                "--policies", "cg-epd,cg-ms,qg-u1-1,qg-u1-2,qg-g4,idm",
                "--assumed-gate", "uniform", "--decision-replay"]
        derived = _report_bytes(tmp_path / "derived", argv)
        real = ex.episode_rng
        resumed = Counter()

        def rejecting(*args):
            doubles, gates, rows, resume = real(*args)

            def counted(j):
                resumed[j] += 1
                return resume(j)

            return doubles, np.full_like(gates, -1), rows, counted

        monkeypatch.setattr(ex, "episode_rng", rejecting)
        assert _report_bytes(tmp_path / "fallback", argv) == derived
        # two runs, csv and json, each resume every episode once
        assert sorted(resumed) == list(range(60)) and set(resumed.values()) == {2}

    @pytest.mark.parametrize("field, value", [
        ("scenario", "merging"), ("game", "merging"), ("game", builtin_scenario("merging"))])
    def test_config_rejects_a_scenario_or_game_of_the_wrong_type(self, field, value):
        fields = dict(scenario=builtin_scenario("merging"), game=builtin_game("merging"),
                      episodes=3, master_seed=1)
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            ex.MonteCarloConfig(**{**fields, field: value})

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

    @pytest.mark.parametrize("kind", ["merging", "roundabout"])
    @pytest.mark.parametrize("gate", ["Z", "uniform"])
    def test_one_step_replay_reports_equal_held_ones(self, kind, gate, tmp_path):
        # at horizon 1 the replay block is empty and no decision is re-taken
        controller = "mobil" if kind == "merging" else "idm"
        specs = [ex.PolicySpec(p, gate)
                 for p in ["cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", controller]]
        reports = []
        for replay in (False, True):
            cfg = ex.MonteCarloConfig(builtin_scenario(kind, horizon=1, decision_replay=replay),
                                      builtin_game(kind), 60, 7)
            summaries = ex.run_comparison(specs, cfg)
            for fmt in ("csv", "json"):
                ex.emit_report(summaries, tmp_path / f"{replay}.{fmt}", fmt)
                reports.append((tmp_path / f"{replay}.{fmt}").read_bytes())
        assert reports[:2] == reports[2:]

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
        ev0, iv0 = scenario_sim.sample_initial(scenario, rng.random((1, 4)))[0]
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
            starts.append(scenario_sim.sample_initial(cfg.scenario, rng.random((1, 4)))[0][0])
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
