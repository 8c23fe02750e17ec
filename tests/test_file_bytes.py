"""Golden bytes for every file writer and the csv form of `qgdrive solve`.

Each case writes one small output and compares the sha256 of its exact
bytes, so a changed line ending, header, float spelling ('1' for '1.0') or
number fails here where a parse-and-compare test would pass. The digests
were recorded on x86-64 Linux with the numpy this package is tested
against; the circuit outputs depend on numpy's complex products.
"""

import hashlib
import math

import pytest

from qgdrive import cli, experiments, quantum_game, scenario_sim
from qgdrive.classical_game import builtin_game


def sweep_csv(mode, gamma_points=3, theta_points=3, initial=None):
    def write(path):
        result = quantum_game.sweep_u1(
            builtin_game("merging"), mode=mode, initial=initial,
            gamma_points=gamma_points, theta_points=theta_points,
        )
        quantum_game.write_sweep_csv(result, path)
    return write


# a start with no symmetry, swept on a 21x17 grid: with unequal sizes a
# mix-up of the gamma and theta axes shows
ASYMMETRIC = quantum_game.state_vector([1, 2j, 0.5, -1], normalize=True)


def gate_table_csv(kind, gamma, initial=None):
    def write(path):
        table = quantum_game.sweep_g4(builtin_game(kind), initial=initial, gamma=gamma)
        quantum_game.write_gate_table_csv(table, path)
    return write


def roundabout_trace_csv(path):
    # the EV yields and then enters behind the accelerating IV, so the trace
    # passes through every phase of the episode
    cfg = scenario_sim.builtin_scenario("roundabout")
    ev, iv = scenario_sim.sample_initial(cfg, experiments.episode_rng(7, 0).random((1, 4)))[0]
    result = scenario_sim.run_episode(cfg, ev, iv, 1, 0, record_trace=True)
    scenario_sim.write_trace_csv(result, path)


def report(fmt):
    def write(path):
        config = experiments.MonteCarloConfig(
            scenario_sim.builtin_scenario("merging"), builtin_game("merging"), 50, 7
        )
        summaries = experiments.run_comparison(["cg-epd", "cg-ms"], config)
        experiments.emit_report(summaries, path, fmt=fmt)
    return write


def simulate_report(scenario, baseline, replay):
    # all six policies of the scenario. Under replay every policy re-decides
    # each step; the uniform QG_G4 draws its gate per episode, so held and
    # replayed episodes mix. On merging, MOBIL's replayed decision calls
    # idm_accel four times
    def write(path):
        assert cli.main([
            "simulate", "--scenario", scenario, *(["--decision-replay"] if replay else []),
            "--policies", f"cg-epd,cg-ms,qg-u1-1,qg-u1-2,qg-g4,{baseline}",
            "--assumed-gate", "uniform",
            "--episodes", "60", "--seed", "7", "--format", "json", "--out", str(path),
        ]) == 0
    return write


WRITERS = {
    "sweep-equal-thetas": (sweep_csv("equal_thetas"),
                           "cf5a7dfe41ab79b46d87986de86345324b028299f247723516b992134900806e"),
    "sweep-theta-b-zero": (sweep_csv("theta_b_zero"),
                           "7bb2a7f51a3a23159bc61718637ebca0e0366113db419709495489aab7691409"),
    # 151x151 repeats each gamma and theta 151 times, as `qgdrive sweep` does
    "sweep-equal-thetas-151x151": (
        sweep_csv("equal_thetas", 151, 151),
        "a2abfb425355e10c8d9873a8694db78c04dc20d1f2bce5a77e9ef3f8f0436aae"),
    "sweep-equal-thetas-21x17-asymmetric": (
        sweep_csv("equal_thetas", 21, 17, ASYMMETRIC),
        "606e3a7fb1a24f038396bcb94d326be3f9f54804051ab4009752abcb27c7fd45"),
    "sweep-theta-b-zero-21x17-asymmetric": (
        sweep_csv("theta_b_zero", 21, 17, ASYMMETRIC),
        "e36c1437ca2c4c704c3704fd9df4f88e7d0377a4d6bf8a1f2cfc058d6309e022"),
    "gate-table-merging-pi-2": (gate_table_csv("merging", math.pi / 2),
                                "b763ea76134be257f7eea6b81b943e09c561d9a0088877f96596c0e4b678e263"),
    "gate-table-roundabout-0.3": (gate_table_csv("roundabout", 0.3),
                                  "6be2cef5a5657efad30874a5a6d45b143b9b2ca67092e8410a43a78de5e42425"),
    # a gate table from a start other than the default s10
    "gate-table-merging-0.7-asymmetric": (
        gate_table_csv("merging", 0.7, ASYMMETRIC),
        "5039419f0bb5d23ae04fd2d194ee3ab1e2c0efbe3bdd2bb4eae7473df91c2db1"),
    "trace-roundabout": (roundabout_trace_csv,
                         "0a6d81627ec545f8784c2986a56857f471d60152a49a4d54f1574148b5334451"),
    "report-csv": (report("csv"),
                   "d1728ca4c1c22cdbeaf9f6a00a7ca47cc05dcd6740e7a1deb8b1866a8f3b8db5"),
    "report-json": (report("json"),
                    "72bce67846a5a2eb5a776f1841f0026a3fefa7669144168d5ba9aa82794f014c"),
    "report-json-roundabout-replay": (simulate_report("roundabout", "idm", replay=True),
        "414f3e440de89a8c1247be242e021ea280df5bd9ec51822e2325f25166027903"),
    "report-json-merging-replay": (simulate_report("merging", "mobil", replay=True),
        "ad628ab2c6a845d97ed0a449892402ac5b6397666a054a67fa7c62f609d943f0"),
    "report-json-roundabout-held": (simulate_report("roundabout", "idm", replay=False),
        "5f1abd1d07c7a7e4615be3180b3253e2c2674237cd8638667764c173977c1ce8"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(name, tmp_path):
    write, want = WRITERS[name]
    path = tmp_path / "out"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


SOLVE_CSV = {
    "qg-u1-1": (
        ["--model", "qg-u1-1"],
        "0.4999999999999999,0.4999999999999999,3.0814879110195774e-33,"
        "3.0814879110195774e-33,4.999999999999999,1.9999999999999996\n",
    ),
    "qg-g4-z": (
        ["--model", "qg-g4", "--gate-b", "Z"],
        "0.0,1.0,4.930380657631324e-32,0.0,10.0,4.0\n",
    ),
    "qg-u1-point": (
        ["--model", "qg-u1", "--gamma", "pi/4", "--theta-a", "pi/3", "--theta-b", "0.7",
         "--phi-a", "pi/8"],
        "0.705886368199479,0.22040072172307668,0.021878979403563575,"
        "0.05183393067388052,2.343357065518901,1.152226611601823\n",
    ),
}


@pytest.mark.parametrize("name", SOLVE_CSV)
def test_solve_csv_stdout_bytes(name, capsys):
    flags, row = SOLVE_CSV[name]
    assert cli.main(["solve", *flags, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == "p00,p01,p10,p11,eu_a,eu_b\n" + row
