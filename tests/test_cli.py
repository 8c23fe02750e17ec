import json
import math
import warnings

import numpy as np
import pytest

from qgdrive import cli, quantum_game

GAME_FILE = (
    "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
    "ua = 0 10 4 1\nub = 0 4 10 1\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAngles:
    def test_pi_literals(self):
        assert cli.parse_angle("pi") == math.pi
        assert cli.parse_angle("pi/2") == math.pi / 2
        assert cli.parse_angle("3pi/4") == 3 * math.pi / 4
        assert cli.parse_angle("-pi/2") == -math.pi / 2
        assert cli.parse_angle("2*pi/4") == math.pi / 2

    def test_plain_radians(self):
        assert cli.parse_angle("1.25") == 1.25
        # a negative zero reads as +0.0, so it is written as 0.0, not -0.0
        for text in ("0", "-0", "-0.0", "-0pi"):
            x = cli.parse_angle(text)
            assert x == 0.0 and math.copysign(1.0, x) == 1.0, text

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            cli.parse_angle("deg45")
        for text in ("pi/0", "pi/0.0", "-3pi/0", "2*pi / 0.00"):
            with pytest.raises(ValueError, match="divides by zero"):
                cli.parse_angle(text)


class TestInitialFlag:
    def test_named_forms(self):
        assert cli.parse_initial_flag("equal")[0] == pytest.approx(0.5)
        assert cli.parse_initial_flag("s01")[1] == 1.0
        assert np.array_equal(cli.parse_initial_flag("s10"), quantum_game.basis_state(2))

    def test_raw_components_normalized(self, capsys):
        v = cli.parse_initial_flag("1,0,1,0,0,0,0,0")
        assert abs(v[0]) == pytest.approx(1 / math.sqrt(2))
        assert "normalizing" in capsys.readouterr().err

    def test_near_unit_raw_does_not_warn(self, capsys):
        r = 1 / math.sqrt(2)
        cli.parse_initial_flag(f"{r!r},0,0,{r!r},0,0,0,0")
        assert capsys.readouterr().err == ""

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            cli.parse_initial_flag("1,0,0,0")

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            cli.parse_initial_flag("0,0,0,0,0,0,0,0")

    # np.linalg.norm reads 0 for these; solve used to exit 2 with "cannot
    # normalize the zero vector" and the warning printed norm 0.0
    @pytest.mark.parametrize("tiny,norm,unit", [
        ("1e-200,0,1e-200,0,0,0,0,0", "1.414213562373095e-200", "1,0,1,0,0,0,0,0"),
        ("5e-324,0,0,0,0,0,0,0", "5e-324", "s00"),
    ], ids=["1e-200", "5e-324"])
    def test_underflowing_raw_components_normalized(self, capsys, tiny, norm, unit):
        flags = ("solve", "--model", "qg-u1", "--gamma", "0.5", "--theta-a", "1",
                 "--theta-b", "0.3", "--format", "csv", "--initial")
        code, out, err = run(capsys, *flags, tiny)
        assert code == 0
        assert err == f"warning: initial state norm {norm} deviates from 1; normalizing\n"
        assert out == run(capsys, *flags, unit)[1]

    # these norms are nonzero but their squares are subnormal and lose
    # digits, or overflow; 1e-160 used to exit 2 ("norm 1.0000055664551364
    # deviates"), 1e200 too ("norm must be finite, got norm inf"). The
    # warning prints the true norm, inf where it overflows, and numpy warns
    # of nothing.
    @pytest.mark.parametrize("x,norm", [
        (1e-155, "1.414213562373095e-155"), (1e-160, "1.414213562373095e-160"),
        (1e200, "1.414213562373095e+200"), (1.7e308, "inf"),
    ], ids=["1e-155", "1e-160", "1e200", "1.7e308"])
    def test_subnormal_squares_normalize_as_their_power_of_two_multiple(self, capsys, x, norm):
        flags = ("solve", "--model", "qg-u1", "--gamma", "0.5", "--theta-a", "1",
                 "--theta-b", "0.3", "--format", "csv", "--initial")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *flags, f"{x!r},0,{x!r},0,0,0,0,0")
        big = x * (2.0**600 if x < 1.0 else 2.0**-600)
        assert code == 0
        assert err == f"warning: initial state norm {norm} deviates from 1; normalizing\n"
        assert out == run(capsys, *flags, f"{big!r},0,{big!r},0,0,0,0,0")[1]


class TestEquilibria:
    def test_merging_report(self, capsys):
        code, out, _ = run(capsys, "equilibria", "--game", "merging")
        assert code == 0
        assert "s01" in out and "s10" in out
        assert "0.6923076923076923" in out
        assert "cannot coordinate" in out

    def test_roundabout_values(self, capsys):
        code, out, _ = run(capsys, "equilibria", "--game", "roundabout")
        assert code == 0
        assert "p = 0.6" in out

    def test_unknown_game(self, capsys):
        code, _, err = run(capsys, "equilibria", "--game", "chicken")
        assert code == 2
        assert "unknown" in err

    # a zero indifference denominator is a finding about the game, like p or q
    # outside [0, 1], not a rejected file; every profile of the constant game
    # is an equilibrium
    def test_degenerate_game_file(self, capsys, tmp_path):
        path = tmp_path / "constant.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = 2 2 2 2\nub = 2 2 2 2\n"
        )
        code, out, err = run(capsys, "equilibria", "--game-file", str(path))
        assert (code, err) == (0, "")
        assert ("mixed equilibria: every pair with p in [0, 1] (B plays x) "
                "and q in [0, 1] (A plays x)\n") in out

    @staticmethod
    def equilibria_of(capsys, tmp_path, ua):
        path = tmp_path / "coordination.game"
        path.write_text(
            "label_a0 = L\nlabel_a1 = R\nlabel_b0 = U\nlabel_b1 = D\n"
            f"ua = {ua}\nub = 2 0 0 2\n"
        )
        return run(capsys, "equilibria", "--game-file", str(path))

    # a zero denominator over a zero numerator: A is indifferent whatever B
    # plays, so each p in [0, 1] with B's indifference point is an equilibrium
    def test_one_zero_denominator_is_named(self, capsys, tmp_path):
        code, out, err = self.equilibria_of(capsys, tmp_path, "1 1 1 1")
        assert (code, err) == (0, "")
        assert out.endswith("pure Nash equilibria: s00 (L/U), s11 (R/D)\n"
                            "mixed equilibria: every pair with p in [0, 1] (B plays U) "
                            "and q = 0.5 (A plays L)\n")

    # over a nonzero numerator A's action 0 strictly dominates: there is none
    def test_dominant_action_rules_out_interior(self, capsys, tmp_path):
        code, out, err = self.equilibria_of(capsys, tmp_path, "2 2 1 1")
        assert (code, err) == (0, "")
        assert out.endswith("pure Nash equilibria: s00 (L/U)\n"
                            "no interior mixed equilibrium: zero denominator for p\n")

    def test_non_finite_payoff_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = nan 1 2 3\nub = 2 2 2 2\n"
        )
        code, _, err = run(capsys, "equilibria", "--game-file", str(path))
        assert code == 2
        assert "nan.game:5" in err

    def test_missing_game_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "equilibria", "--game-file", str(tmp_path / "no.game"))
        assert code == 2

    def test_directory_as_game_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "equilibria", "--game-file", str(tmp_path))
        assert code == 2
        assert f"{str(tmp_path)!r}: cannot read" in err


class TestSolve:
    def test_gate_game_point(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--model", "qg-g4", "--game", "merging",
            "--initial", "s10", "--gate-b", "Z",
        )
        assert code == 0
        assert "P(s01) = 1.0" in out
        assert "E[u_A] = 10.0" in out

    def test_u1_with_pi_fractions(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--model", "qg-u1", "--gamma", "0",
            "--theta-a", "0", "--theta-b", "0", "--initial", "equal",
        )
        assert code == 0
        assert out.count("0.25") == 4

    def test_preset_defaults(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "qg-u1-1")
        assert code == 0
        assert "E[u_A] = 4.999999999999999" in out or "E[u_A] = 5.0" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--model", "qg-u1-2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distribution"]["s00"] == pytest.approx(0.25)
        assert payload["eu_a"] == pytest.approx(3.75)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "qg-u1-2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p00,p01,p10,p11,eu_a,eu_b"
        assert len(lines[1].split(",")) == 6

    def test_g4_needs_gate_b(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "qg-g4")
        assert code == 2
        assert "gate-b" in err

    def test_u1_needs_angles(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "qg-u1")
        assert code == 2

    @pytest.mark.parametrize("model", ["qg-u1-1", "qg-u1-2"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_phi_without_theta_is_usage_error(self, capsys, model, side):
        code, _, err = run(capsys, "solve", "--model", model, f"--phi-{side}", "pi/4")
        assert code == 2
        assert f"--phi-{side} needs --theta-{side}" in err

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_u1_phi_without_theta_names_all_u1_flags(self, capsys, side):
        code, _, err = run(capsys, "solve", "--model", "qg-u1", "--gamma", "0.3",
                           "--theta-a" if side == "b" else "--theta-b", "1",
                           f"--phi-{side}", "pi/4")
        assert code == 2
        assert "qg-u1 needs --gamma, --theta-a and --theta-b" in err

    def test_mixed_flag_kinds_rejected(self, capsys):
        code, _, err = run(
            capsys, "solve", "--model", "qg-u1-1", "--gate-b", "Z"
        )
        assert code == 2
        code, _, err = run(
            capsys, "solve", "--model", "qg-g4", "--gate-b", "Z", "--theta-a", "1"
        )
        assert code == 2

    # each flag the model does not read is named, and no other
    @pytest.mark.parametrize("argv,message", [
        ("--model qg-g4 --gate-b Z --theta-a 1 --phi-b 0.2",
         "qg-g4 does not read --theta-a and --phi-b"),
        ("--model qg-u1-1 --gate-a X", "qg-u1-1 does not read --gate-a"),
    ], ids=["g4-angles", "u1-1-gate-a"])
    def test_other_models_flags_are_named(self, capsys, argv, message):
        code, _, err = run(capsys, "solve", *argv.split())
        assert (code, err) == (2, f"error: {message}\n")

    # from s00 at (0, pi) and gamma = pi/4 the circuit splits the two pure
    # equilibria evenly: each player expects 7, the correlated equilibrium's
    def test_s00_traffic_light(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "qg-u1", "--game", "merging",
                           "--initial", "s00", "--gamma", "pi/4", "--theta-a", "0",
                           "--theta-b", "pi")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["E[u_A] = 7.0", "E[u_B] = 7.0"]
        probs = dict(line.strip().split(" = ") for line in lines[1:5])
        assert abs(float(probs["P(s01)"]) - 0.5) <= 1e-15
        assert abs(float(probs["P(s10)"]) - 0.5) <= 1e-15

    def test_out_of_range_angle(self, capsys):
        code, _, err = run(
            capsys, "solve", "--model", "qg-u1", "--gamma", "pi",
            "--theta-a", "0", "--theta-b", "0",
        )
        assert code == 2

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "qg-u3")
        assert code == 2

    def test_zero_denominator_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "solve", "--model", "qg-u1", "--gamma", "pi/0",
            "--theta-a", "0", "--theta-b", "0",
        )
        assert code == 2
        assert err == "error: angle 'pi/0' divides by zero\n"


class TestSweep:
    def test_u1_reports_extrema(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--model", "qg-u1", "--gamma-points", "11",
            "--theta-points", "11", "--out", str(out_path),
        )
        assert code == 0
        assert "argmax E[u_A]: gamma = 0.0" in out
        assert "argmin E[u_A]: gamma = 1.5707963267948966" in out
        assert out_path.read_text().startswith("gamma,theta_a,theta_b,")

    def test_gate_table_written(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "sweep", "--model", "qg-g4", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 26

    def test_negative_zero_gamma_writes_the_zero_table(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p, gamma in ((a, "0"), (b, "-0")):
            assert run(capsys, "sweep", "--model", "qg-g4", "--gamma", gamma,
                       "--out", str(p))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].startswith("0.0,H,H,")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run(
                capsys, "sweep", "--model", "qg-u1", "--gamma-points", "5",
                "--theta-points", "5", "--out", str(p),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, out, _ = run(capsys, "sweep", "--model", "qg-g4")
        assert code == 0
        assert (tmp_path / "gate_table_merging.csv").exists()

    def test_unwritable_path_is_runtime_failure(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--model", "qg-g4",
            "--out", str(tmp_path / "missing_dir" / "t.csv"),
        )
        assert code == 1

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "sweep", "--model", "qg-g5")
        assert code == 2
        assert err

    @pytest.mark.parametrize("model,written", [
        ("qg-g4", "gate_table_my_game.csv"),
        ("qg-u1", "sweep_u1_my_game_theta_b_zero.csv"),
    ])
    def test_slash_in_game_name(self, capsys, tmp_path, monkeypatch, model, written):
        game = tmp_path / "g.txt"
        game.write_text(GAME_FILE + "name = my/game\n")
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        grid = ["--gamma-points", "3", "--theta-points", "3"] if model == "qg-u1" else []
        code, _, _ = run(capsys, "sweep", "--game-file", str(game), "--model", model, *grid)
        assert code == 0
        assert (tmp_path / written).exists()

    @pytest.mark.parametrize("model,flag", [
        ("qg-u1", ["--gamma", "0.5"]),
        ("qg-g4", ["--mode", "equal_thetas"]),
        ("qg-g4", ["--gamma-points", "7"]),
        ("qg-g4", ["--theta-points", "7"]),
    ], ids=["u1-gamma", "g4-mode", "g4-gamma-points", "g4-theta-points"])
    def test_other_models_flag_is_usage_error(self, capsys, tmp_path, model, flag):
        out_path = tmp_path / "out.csv"
        code, _, err = run(capsys, "sweep", "--model", model, *flag, "--out", str(out_path))
        assert code == 2
        assert flag[0] in err
        assert not out_path.exists()


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "simulate", "--scenario", "merging",
            "--policies", "cg-epd,qg-g4", "--episodes", "100",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert "QG_G4[Z]" in lines[2]
        assert "cr" in out  # console table rendered

    def test_zero_episodes_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "merging",
            "--policies", "cg-epd", "--episodes", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("scenario,policy,message", [
        ("roundabout", "mobil", "MOBIL is a merging-only"),
        ("merging", "idm", "IDM is a roundabout-only"),
    ], ids=["roundabout-mobil", "merging-idm"])
    def test_incompatible_policy_rejected_before_running(self, capsys, scenario, policy,
                                                         message):
        code, _, err = run(
            capsys, "simulate", "--scenario", scenario,
            "--policies", policy, "--episodes", "10",
        )
        assert code == 2
        assert message in err

    def test_repeated_policy_rejected(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "merging",
            "--policies", "qg-g4,QG_G4", "--episodes", "10",
        )
        assert code == 2
        assert "QG_G4[Z]" in err

    def test_unknown_policy(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "merging",
            "--policies", "qg-u5", "--episodes", "10",
        )
        assert code == 2

    def test_missing_required_flags(self, capsys):
        assert run(capsys, "simulate", "--episodes", "10")[0] == 2

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "simulate", "--scenario", "roundabout",
            "--policies", "idm", "--episodes", "50",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload[0]["method"] == "IDM"
        assert payload[0]["episodes"] == 50

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run(
                capsys, "simulate", "--scenario", "merging",
                "--policies", "cg-ms", "--episodes", "60",
                "--seed", "11", "--out", str(p),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_run(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "scenario.kind = merging\nepisodes = 40\n"
            "master_seed = 1\npolicy.name = cg-epd\n"
        )
        out_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "simulate", "--config", str(conf), "--out", str(out_path)
        )
        assert code == 0
        assert "CG_EPD" in out_path.read_text()

    def test_config_file_unknown_key_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "scenario.kind = merging\nepisodes = 40\n"
            "master_seed = 1\npolicy.name = qg-g4\npolicy.assumed_gat = X\n"
        )
        code, _, err = run(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert "exp.conf:5: unknown key 'policy.assumed_gat'" in err

    def test_config_incompatible_policy_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "scenario.kind = roundabout\nepisodes = 5\n"
            "master_seed = 1\npolicy.name = mobil\n"
        )
        code, _, err = run(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert f"error: {conf}: policy.name: MOBIL is a merging-only" in err

    def test_gate_without_qg_g4_is_usage_error(self, capsys, tmp_path):
        # no policy would read the gate, from the flag or from the file key
        code, _, err = run(capsys, "simulate", "--scenario", "merging", "--policies", "cg-epd",
                           "--episodes", "5", "--assumed-gate", "X")
        assert code == 2
        assert "--assumed-gate 'X' is read by qg-g4 only" in err
        conf = tmp_path / "exp.conf"
        conf.write_text("scenario.kind = merging\nepisodes = 5\nmaster_seed = 1\n"
                        "policy.name = cg-epd\npolicy.assumed_gate = X\n")
        code, _, err = run(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert "exp.conf: policy.assumed_gate 'X' is read by qg-g4 only" in err

    # both inputs go through experiments.comparison
    @pytest.mark.parametrize("replay", [False, True], ids=["held", "replay"])
    @pytest.mark.parametrize("scenario", ["merging", "roundabout"])
    def test_config_file_and_flags_write_the_same_report(self, capsys, tmp_path, scenario,
                                                         replay):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"scenario.kind = {scenario}\nepisodes = 60\nmaster_seed = 7\n"
                        "policy.name = qg-g4\npolicy.assumed_gate = uniform\n"
                        f"decision_replay = {str(replay).lower()}\n")
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run(capsys, "simulate", "--config", str(conf), "--out", str(by_file))[0] == 0
        assert run(capsys, "simulate", "--scenario", scenario, "--policies", "qg-g4",
                   "--assumed-gate", "uniform", "--episodes", "60", "--seed", "7",
                   *(["--decision-replay"] if replay else []), "--out", str(by_flags))[0] == 0
        assert by_file.read_bytes() == by_flags.read_bytes()

    # a flag given at its default value is still rejected, and each given
    # flag is named
    @pytest.mark.parametrize("flag", [
        ["--scenario", "merging"], ["--policies", "cg-epd"], ["--episodes", "500"],
        ["--seed", "0"], ["--assumed-gate", "uniform"], ["--decision-replay"],
        ["--seed", "0", "--decision-replay"],
    ], ids=lambda flag: " ".join(f for f in flag if f.startswith("--")))
    def test_config_excludes_flags(self, capsys, tmp_path, flag):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "scenario.kind = merging\nepisodes = 40\n"
            "master_seed = 1\npolicy.name = cg-epd\n"
        )
        code, _, err = run(capsys, "simulate", "--config", str(conf), *flag)
        assert code == 2
        assert flag[0] in err
        assert all(f in err for f in flag if f.startswith("--"))

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "no.conf"))
        assert code == 2
        assert err

    def test_directory_as_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path))
        assert code == 2
        assert f"{str(tmp_path)!r}: cannot read" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "merging", "--policies", "cg-epd",
            "--episodes", "10", "--seed", "-1",
        )
        assert code == 2
        assert "master_seed" in err

    def test_empty_policy_list(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "merging", "--policies", ",", "--episodes", "10"
        )
        assert code == 2
        assert err


class TestTopLevel:
    def test_no_verb_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_verb(self, capsys):
        assert cli.main(["replay"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        "equilibria --game-f g.game",
        "solve --model qg-u1-1 --form json",
        "sweep --model qg-u1 --gamma-p 3 --theta-p 3 --out X",
        "simulate --scenario merging --policies cg-epd --epi 5",
    ], ids=["equilibria", "solve", "sweep", "simulate"])
    def test_abbreviated_flag_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.game").write_text(GAME_FILE)
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        assert "unrecognized arguments" in err
        assert not (tmp_path / "X").exists()

    # a flag is given whenever it appears: an empty value is read and
    # rejected like any other, not taken for the flag's default
    @pytest.mark.parametrize("argv,code,err", [
        (["solve", "--model", "qg-g4", "--gate-b", "Z", "--gate-a", ""], 2,
         "unknown gate ''"),
        (["solve", "--model", "qg-u1-1", "--initial", ""], 2, "unknown basis state ''"),
        (["sweep", "--model", "qg-g4", "--initial", ""], 2, "unknown basis state ''"),
        (["solve", "--model", "qg-u1-1", "--game-file", ""], 2, "error: '': no such file\n"),
        (["equilibria", "--game-file", ""], 2, "error: '': no such file\n"),
        (["simulate", "--config", ""], 2, "error: '': no such file\n"),
        (["simulate", "--scenario", "merging", "--policies", "cg-epd,", "--episodes", "5"], 2,
         "unknown policy ''"),
        (["simulate", "--scenario", "merging", "--policies", "", "--episodes", "5"], 2,
         "unknown policy ''"),
        (["sweep", "--model", "qg-g4", "--out", ""], 1, "No such file or directory: ''"),
    ], ids=["solve-gate-a", "solve-initial", "sweep-initial", "solve-game-file",
            "equilibria-game-file", "simulate-config", "simulate-policies-trailing-comma",
            "simulate-policies", "sweep-out"])
    def test_empty_value_is_read(self, capsys, tmp_path, monkeypatch, argv, code, err):
        monkeypatch.chdir(tmp_path)
        got_code, out, got_err = run(capsys, *argv)
        assert got_code == code
        assert err in got_err
        assert out == "" and not list(tmp_path.iterdir())
