import json
import math

import pytest

from qgdrive import cli

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
        assert cli.parse_angle("0") == 0.0

    def test_rejects_junk(self):
        with pytest.raises(cli.CliError):
            cli.parse_angle("deg45")


class TestInitialFlag:
    def test_named_forms(self):
        assert cli.parse_initial_flag("equal")[0] == pytest.approx(0.5)
        assert cli.parse_initial_flag("s01")[1] == 1.0

    def test_raw_components_normalized(self, capsys):
        v = cli.parse_initial_flag("1,0,1,0,0,0,0,0")
        assert abs(v[0]) == pytest.approx(1 / math.sqrt(2))
        assert "normalizing" in capsys.readouterr().err

    def test_near_unit_raw_does_not_warn(self, capsys):
        r = 1 / math.sqrt(2)
        cli.parse_initial_flag(f"{r!r},0,0,{r!r},0,0,0,0")
        assert capsys.readouterr().err == ""

    def test_wrong_arity(self):
        with pytest.raises(cli.CliError):
            cli.parse_initial_flag("1,0,0,0")

    def test_zero_vector(self):
        with pytest.raises(cli.CliError):
            cli.parse_initial_flag("0,0,0,0,0,0,0,0")


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

    def test_degenerate_game_file(self, capsys, tmp_path):
        path = tmp_path / "constant.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = 2 2 2 2\nub = 2 2 2 2\n"
        )
        code, _, err = run(capsys, "equilibria", "--game-file", str(path))
        assert code == 2
        assert "degenerate" in err.lower()

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
        assert f"{tmp_path}: cannot read" in err


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

    def test_mixed_flag_kinds_rejected(self, capsys):
        code, _, err = run(
            capsys, "solve", "--model", "qg-u1-1", "--gate-b", "Z"
        )
        assert code == 2
        code, _, err = run(
            capsys, "solve", "--model", "qg-g4", "--gate-b", "Z", "--theta-a", "1"
        )
        assert code == 2

    def test_out_of_range_angle(self, capsys):
        code, _, err = run(
            capsys, "solve", "--model", "qg-u1", "--gamma", "pi",
            "--theta-a", "0", "--theta-b", "0",
        )
        assert code == 2

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "qg-u3")
        assert code == 2


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

    def test_incompatible_policy_rejected_before_running(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "roundabout",
            "--policies", "mobil", "--episodes", "10",
        )
        assert code == 2
        assert "merging-only" in err

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
        assert "merging-only" in err

    def test_config_excludes_flags(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "scenario.kind = merging\nepisodes = 40\n"
            "master_seed = 1\npolicy.name = cg-epd\n"
        )
        code, _, err = run(
            capsys, "simulate", "--config", str(conf), "--scenario", "merging"
        )
        assert code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "no.conf"))
        assert code == 2
        assert err

    def test_directory_as_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path))
        assert code == 2
        assert f"{tmp_path}: cannot read" in err

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
