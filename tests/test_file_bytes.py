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


def sweep_csv(mode):
    def write(path):
        result = quantum_game.sweep_u1(
            builtin_game("merging"), mode=mode, gamma_points=3, theta_points=3
        )
        quantum_game.write_sweep_csv(result, path)
    return write


def gate_table_csv(kind, gamma):
    def write(path):
        table = quantum_game.sweep_g4(builtin_game(kind), gamma=gamma)
        quantum_game.write_gate_table_csv(table, path)
    return write


def roundabout_trace_csv(path):
    # the EV yields and then enters behind the accelerating IV, so the trace
    # passes through every phase of the episode
    cfg = scenario_sim.builtin_scenario("roundabout")
    ev, iv = scenario_sim.sample_initial(cfg, experiments.episode_rng(7, 0))
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


WRITERS = {
    "sweep-equal-thetas": (sweep_csv("equal_thetas"),
                           "cf5a7dfe41ab79b46d87986de86345324b028299f247723516b992134900806e"),
    "sweep-theta-b-zero": (sweep_csv("theta_b_zero"),
                           "7bb2a7f51a3a23159bc61718637ebca0e0366113db419709495489aab7691409"),
    "gate-table-merging-pi-2": (gate_table_csv("merging", math.pi / 2),
                                "b763ea76134be257f7eea6b81b943e09c561d9a0088877f96596c0e4b678e263"),
    "gate-table-roundabout-0.3": (gate_table_csv("roundabout", 0.3),
                                  "6be2cef5a5657efad30874a5a6d45b143b9b2ca67092e8410a43a78de5e42425"),
    "trace-roundabout": (roundabout_trace_csv,
                         "0a6d81627ec545f8784c2986a56857f471d60152a49a4d54f1574148b5334451"),
    "report-csv": (report("csv"),
                   "d1728ca4c1c22cdbeaf9f6a00a7ca47cc05dcd6740e7a1deb8b1866a8f3b8db5"),
    "report-json": (report("json"),
                    "72bce67846a5a2eb5a776f1841f0026a3fefa7669144168d5ba9aa82794f014c"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(name, tmp_path):
    write, want = WRITERS[name]
    path = tmp_path / "out"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_solve_csv_stdout_bytes(capsys):
    assert cli.main(["solve", "--model", "qg-u1-1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "p00,p01,p10,p11,eu_a,eu_b\n"
        "0.4999999999999999,0.4999999999999999,3.0814879110195774e-33,"
        "3.0814879110195774e-33,4.999999999999999,1.9999999999999996\n"
    )
