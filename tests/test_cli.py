import json
import subprocess
import sys
import time

import pytest

import cubehom.cli
from cubehom import cubes
from cubehom.budget import (
    BudgetExhausted,
    DimensionBudgetError,
    checkpoint,
    clear_time_budget,
    set_time_budget,
    time_budget,
)
from cubehom.cli import main
from cubehom.cwcomplex import build_cw_complex
from cubehom.graphs import (
    complete_bipartite_graph,
    cycle_graph,
    format_edge_list,
    greene_sphere,
)
from cubehom.zlinalg import ContractViolation


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cli(capsys, monkeypatch):
    def runner(argv, stdin_text=""):
        return run_cli(argv, stdin_text, capsys, monkeypatch)

    return runner


def test_gen_writes_edge_list(cli):
    code, out, _ = cli(["gen", "greene-sphere", "4"])
    assert code == 0
    assert out.startswith("# vertices 10\n")
    assert len(out.strip().splitlines()) == 17  # header + 16 edges


def test_gen_rejects_bad_params(cli):
    code, _, err = cli(["gen", "greene-sphere", "2"])
    assert code == 1 and "error" in err


def test_homology_pipe_sphere(cli):
    graph_text = format_edge_list(greene_sphere(4))
    code, out, _ = cli(["homology", "--max-dim", "3"], graph_text)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = 0", "H_2 = Z"]


def test_header_after_a_blank_line_counts_every_vertex(cli):
    code, out, _ = cli(["homology", "--max-dim", "1"], "\n# vertices 5\n0 1\n")
    assert code == 0 and out.splitlines() == ["H_0 = Z^4"]


def test_homology_json_schema_and_determinism(cli):
    graph_text = format_edge_list(greene_sphere(4))
    code, out1, _ = cli(["homology", "--max-dim", "2", "--format", "json"],
                        graph_text)
    assert code == 0
    code, out2, _ = cli(["homology", "--max-dim", "2", "--format", "json"],
                        graph_text)
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["command"] == "homology"
    assert doc["graph"] == {"vertices": 10, "edges": 16}
    assert doc["status"] == "complete"
    assert doc["results"]["H"][0] == {"n": 0, "rank": 1, "torsion": []}


def test_cycle5_homology(cli):
    code, out, _ = cli(["gen", "cycle", "5"])
    code, out, _ = cli(["homology", "--max-dim", "3"], out)
    assert out.splitlines() == ["H_0 = Z", "H_1 = Z", "H_2 = 0"]


def test_filtered_homology_matches_graph_space(cli):
    # triangle-free: degree-1 subcomplex carries the topological graph
    # homology, whose H_1 rank is the circuit rank 16 - 10 + 1
    graph_text = format_edge_list(greene_sphere(4))
    code, out, _ = cli(["filtered-homology", "--degree", "1",
                        "--max-dim", "3"], graph_text)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = Z^7", "H_2 = 0"]


def test_filtered_homology_copies_no_subcomplex(cli, monkeypatch):
    def no_copy(*args):
        raise AssertionError("filtered-homology copied the subcomplex")

    monkeypatch.setattr(cubehom.chains, "_restrict", no_copy)
    code, out, _ = cli(["filtered-homology", "--degree", "1",
                        "--max-dim", "3"], format_edge_list(greene_sphere(4)))
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = Z^7", "H_2 = 0"]


def test_injective_homology_command(cli):
    graph_text = format_edge_list(greene_sphere(4))
    code, out, _ = cli(["injective-homology", "--dim", "2", "--format",
                        "json"], graph_text)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"n": 2, "rank": 1, "torsion": []}


def test_injective_homology_solid_cube(cli):
    # injective 3-cubes exist, yet chains through dimension 3 suffice
    code, out, _ = cli(["gen", "hypercube", "3"])
    code, out, _ = cli(["injective-homology", "--dim", "2", "--format",
                        "json"], out)
    assert code == 0
    assert json.loads(out)["results"] == {"n": 2, "rank": 0, "torsion": []}


def test_einf_command(cli):
    graph_text = format_edge_list(greene_sphere(4))
    code, out, _ = cli(["einf", "--dim", "2", "--format", "json"], graph_text)
    doc = json.loads(out)
    assert doc["results"]["match"] is True
    assert doc["results"]["filtration_graded"][2] == {"rank": 1, "torsion": []}


def test_cw_homology_command(cli):
    graph_text = format_edge_list(greene_sphere(4))
    code, out, _ = cli(["cw-homology", "--max-dim", "3", "--format", "json"],
                       graph_text)
    doc = json.loads(out)
    assert doc["results"]["euler_characteristic"] == 2
    assert doc["results"]["H"][2] == {"n": 2, "rank": 1, "torsion": []}


def test_check_mono_witness_roundtrip(cli, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = cli(["gen", "complete-bipartite", "2", "3"])
    code, out, _ = cli(["check-mono", "--dim", "2", "--quasi",
                        "--certificate", str(cert), "--format", "json"], out)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["overall"] is False
    w = doc["results"]["cubes"][0]["witness"]
    assert w["dim"] == 3 and len(w["corners"]) == 8
    saved = json.loads(cert.read_text())
    assert saved == doc["results"]


def test_h2_pipeline_sphere(cli):
    code, out, _ = cli(["gen", "greene-sphere", "4"])
    code, out, _ = cli(["h2-pipeline", "--format", "json"], out)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["quasimonophobic_1"] is True
    assert doc["results"]["quasimonophobic_2"] is True
    assert doc["results"]["conclusion_h2"] == {"rank": 1, "torsion": []}
    assert "direct_h2" not in doc["results"]  # auto mode skips it


def test_h2_pipeline_k23(cli):
    code, out, _ = cli(["gen", "complete-bipartite", "2", "3"])
    code, out, _ = cli(["h2-pipeline", "--format", "json"], out)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["quasimonophobic_2"] is False
    assert doc["results"]["witnesses"]["2"] is not None
    assert doc["results"]["cw_h2"] == {"rank": 1, "torsion": []}
    assert doc["results"]["direct_h2"] == {"rank": 0, "torsion": []}
    assert doc["results"]["hypothesis_failure"] is True


def test_budget_exhaustion_exit_code(cli):
    graph_text = format_edge_list(greene_sphere(6))
    code, out, _ = cli(["homology", "--max-dim", "3", "--time-budget",
                        "0.05", "--format", "json"], graph_text)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "incomplete"


def test_main_keeps_an_outer_budget(cli):
    # a library caller's deadline outlives a CLI call without --time-budget
    graph_text = format_edge_list(cycle_graph(5))
    start = time.monotonic()
    set_time_budget(1.0)
    try:
        code, out, _ = cli(["homology", "--max-dim", "1"], graph_text)
        assert code == 0 and out.splitlines() == ["H_0 = Z"]
        time.sleep(max(0.0, start + 1.05 - time.monotonic()))
        with pytest.raises(BudgetExhausted):
            checkpoint()
    finally:
        clear_time_budget()


def test_time_budget_takes_the_earlier_deadline():
    clear_time_budget()
    with time_budget(None):
        checkpoint()  # no budget at all
    with time_budget(3600):
        with time_budget(-1):
            with pytest.raises(BudgetExhausted):
                checkpoint()
        checkpoint()  # the inner, earlier deadline is gone on exit
    with pytest.raises(ZeroDivisionError):
        with time_budget(-1):
            1 / 0
    checkpoint()  # ... also when the block raises
    set_time_budget(-1)
    try:
        for inner in (3600, None):  # an inner budget never lifts an outer one
            with time_budget(inner):
                with pytest.raises(BudgetExhausted):
                    checkpoint()
        with pytest.raises(BudgetExhausted):
            checkpoint()
    finally:
        clear_time_budget()


def _stop_on_call(monkeypatch, name, stop_at):
    """Make `cubehom.cli.<name>` run out of budget on call `stop_at`."""
    orig = getattr(cubehom.cli, name)
    calls = []

    def stopping(*args, **kwargs):
        calls.append(args)
        if len(calls) == stop_at:
            raise BudgetExhausted("soft time budget exhausted")
        return orig(*args, **kwargs)

    monkeypatch.setattr(cubehom.cli, name, stopping)


def test_partial_results_survive_budget_stop(cli):
    graph_text = format_edge_list(greene_sphere(4))
    with pytest.MonkeyPatch.context() as m:
        _stop_on_call(m, "homology", 3)
        code, out, _ = cli(["homology", "--max-dim", "3"], graph_text)
    assert code == 2
    assert out.splitlines() == ["H_0 = Z", "H_1 = 0", "status: incomplete"]
    with pytest.MonkeyPatch.context() as m:
        _stop_on_call(m, "homology", 3)
        code, out, _ = cli(["homology", "--max-dim", "3", "--format",
                            "json"], graph_text)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "incomplete"
    assert [e["n"] for e in doc["results"]["H"]] == [0, 1]
    assert doc["results"]["chain_ranks"][0] == 10


def test_h2_pipeline_partial_table(cli, monkeypatch):
    graph_text = format_edge_list(greene_sphere(4))
    _stop_on_call(monkeypatch, "build_cw_complex", 1)
    code, out, _ = cli(["h2-pipeline"], graph_text)
    assert code == 2
    assert out.splitlines() == ["1-quasimonophobic: True",
                                "2-quasimonophobic: True",
                                "status: incomplete"]


def test_incomplete_runs_give_their_reason(cli, monkeypatch):
    # stdout holds the usual document only; the reason goes to stderr
    graph_text = format_edge_list(greene_sphere(4))
    for fmt, want in (("table", "status: incomplete\n"),
                      ("json", '{"command":"h2-pipeline","graph":{"edges":16,'
                               '"vertices":10},"results":{},'
                               '"status":"incomplete"}\n')):
        code, out, err = cli(["h2-pipeline", "--time-budget", "0",
                              "--format", fmt], graph_text)
        assert (code, out) == (2, want)
        assert err == "incomplete: soft time budget exhausted\n"
    _stop_on_call(monkeypatch, "homology", 3)
    code, out, err = cli(["homology", "--max-dim", "3"], graph_text)
    assert code == 2 and out.splitlines()[-1] == "status: incomplete"
    assert err == "incomplete: soft time budget exhausted\n"

    def beyond(c, n):
        raise DimensionBudgetError(n + 1, n, "cell complex")

    monkeypatch.setattr(cubehom.cli, "cw_homology", beyond)
    code, out, err = cli(["cw-homology", "--max-dim", "2"], graph_text)
    assert code == 2
    assert err == ("incomplete: cell complex built through dimension 0, "
                   "but dimension 1 is required\n")


def _spy_level_walks(monkeypatch):
    """(n, prefix) of every walk of the cube subgraph levels."""
    walks, walk = [], cubes.singular_cubes

    def spy(g, n, filt="all", prefix=None, avoid=()):
        walks.append((n, prefix))
        return walk(g, n, filt, prefix, avoid)

    monkeypatch.setattr(cubes, "singular_cubes", spy)
    return walks


def test_h2_pipeline_walks_each_level_once(cli, monkeypatch):
    g = greene_sphere(4)
    with monkeypatch.context() as m:
        once = _spy_level_walks(m)
        build_cw_complex(g, 3)
    walks = _spy_level_walks(monkeypatch)
    code, out, _ = cli(["h2-pipeline", "--format", "json"],
                       format_edge_list(g))
    assert code == 0 and json.loads(out)["results"]["cw_h2"]["rank"] == 1
    assert walks == once and {n for n, _ in walks} == {1, 2, 3}


def test_h2_pipeline_stop_in_second_check_keeps_the_first(cli, monkeypatch):
    # greene-sphere(4) has 16 edges, so the 17th cube check is the first
    # of the 2-cubes
    graph_text = format_edge_list(greene_sphere(4))
    real, calls = cubehom.monophobic.check_cube, []

    def stopping(*args):
        calls.append(args)
        if len(calls) == 17:
            assert args[1].dim == 2
            raise BudgetExhausted("soft time budget exhausted")
        return real(*args)

    monkeypatch.setattr(cubehom.monophobic, "check_cube", stopping)
    code, out, _ = cli(["h2-pipeline", "--format", "json"], graph_text)
    assert code == 2
    assert json.loads(out)["results"] == {"quasimonophobic_1": True}


def test_check_mono_partial_verdicts(cli, monkeypatch, tmp_path):
    graph_text = format_edge_list(complete_bipartite_graph(2, 3))
    argv = ["check-mono", "--dim", "2", "--quasi", "--format", "json"]
    code, out, _ = cli(argv, graph_text)
    assert code == 0
    complete = json.loads(out)["results"]
    real, calls = cubehom.monophobic.check_cube, []

    def stopping(*args):
        calls.append(args)
        if len(calls) == 3:
            raise BudgetExhausted("soft time budget exhausted")
        return real(*args)

    monkeypatch.setattr(cubehom.monophobic, "check_cube", stopping)
    cert = tmp_path / "cert.json"
    code, out, _ = cli(argv + ["--certificate", str(cert)], graph_text)
    assert code == 2 and not cert.exists()
    doc = json.loads(out)
    assert doc["status"] == "incomplete"
    assert doc["results"] == {"mode": "quasimonophobic", "dim": 2,
                              "cubes": complete["cubes"][:2]}
    calls.clear()
    code, out, _ = cli(argv[:-2], graph_text)
    assert code == 2
    assert out.splitlines() == ["cube [0, 1, 2, 3]: fails",
                                "cube [0, 1, 2, 4]: fails",
                                "status: incomplete"]


def test_contract_violation_exit_code(cli, monkeypatch):
    def broken(c, n):
        raise ContractViolation("image does not lie in the kernel")

    monkeypatch.setattr(cubehom.cli, "injective_homology", broken)
    graph_text = format_edge_list(cycle_graph(5))
    code, out, err = cli(["injective-homology", "--dim", "1", "--format",
                          "json"], graph_text)
    assert code == 3
    doc = json.loads(out)
    assert doc["command"] == "injective-homology"
    assert doc["graph"] == {"vertices": 5, "edges": 5}
    assert doc["status"] == "error"
    assert doc["results"] == {"violated": "image does not lie in the kernel"}
    assert "image does not lie in the kernel" in err
    code, out, err = cli(["injective-homology", "--dim", "1"], graph_text)
    assert code == 3 and out == ""
    assert "internal identity failed" in err


def test_bad_input_exit_code(cli):
    code, _, err = cli(["homology", "--max-dim", "2"], "0 zero\n")
    assert code == 1
    assert "line 1" in err


def test_unreadable_graph_file(cli, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = cli(["homology", "--max-dim", "2", str(missing)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {missing}: ")
    assert "line 0" not in err


@pytest.mark.parametrize("argv", [
    ["homology"],  # missing --max-dim
    ["homology", "--max-dim", "two"],
    ["no-such-command"],
    [],
    ["h2-pipeline", "--direct-max-dim", "3"],  # the flag is gone
    ["check-mono", "--dim", "1", "--format", "yaml"],
])
def test_usage_errors_exit_1(cli, argv):
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("argv,flag", [
    (["homology", "--max-dim", "2", "--threads", "0"], "--threads"),
    (["homology", "--max-dim", "2", "--threads", "-3"], "--threads"),
    (["homology", "--max-dim", "2", "--time-budget", "-1"], "--time-budget"),
    (["homology", "--max-dim", "2", "--time-budget", "nan"], "--time-budget"),
    (["homology", "--max-dim", "-1"], "--max-dim"),
    (["filtered-homology", "--degree", "-1", "--max-dim", "2"], "--degree"),
    (["e1-page", "--max-total", "-1"], "--max-total"),
    (["injective-homology", "--dim", "-1"], "--dim"),
    (["einf", "--dim", "-1"], "--dim"),
    (["cw-homology", "--max-dim", "-2"], "--max-dim"),
    (["check-mono", "--dim", "-1"], "--dim"),
    (["cell-map", "--dim", "-1"], "--dim"),
])
def test_out_of_range_values_are_usage_errors(cli, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli(argv, format_edge_list(cycle_graph(5)))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("argv,message", [
    (["homology", "--max-dim", "two"], "argument --max-dim: invalid int"),
    (["homology", "--max-dim", "2", "--time-budget", "soon"],
     "argument --time-budget: invalid float"),
])
def test_non_numeric_values_name_flag_and_type(cli, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


def test_range_limits_are_valid(cli):
    graph_text = format_edge_list(cycle_graph(5))
    code, out, _ = cli(["homology", "--max-dim", "1", "--threads", "1"],
                       graph_text)
    assert code == 0 and out.splitlines() == ["H_0 = Z"]
    code, out, _ = cli(["homology", "--max-dim", "2", "--time-budget", "0"],
                       graph_text)
    assert code == 2 and out.splitlines()[-1] == "status: incomplete"


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["homology", "--help"]])
def test_help_and_version_exit_0(cli, argv):
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 0


def test_usage_error_exit_code_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cubehom.cli", "homology"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "--max-dim" in proc.stderr and proc.stdout == ""


def test_dump_complex_flag(cli, tmp_path):
    dump = tmp_path / "complex.txt"
    code, out, _ = cli(["gen", "cycle", "5"])
    code, _, _ = cli(["homology", "--max-dim", "1", "--dump-complex",
                      str(dump)], out)
    assert code == 0
    text = dump.read_text()
    assert text.startswith("cube 0 0 0\n")
    assert "bnd 1 " in text


@pytest.mark.parametrize("argv,flag", [
    (["homology", "--max-dim", "1"], "--dump-complex"),
    (["cw-homology", "--max-dim", "1"], "--dump-cells"),
    (["check-mono", "--dim", "1"], "--certificate"),
])
def test_unwritable_output_path_is_bad_input(tmp_path, argv, flag):
    target = tmp_path / "no-such-dir" / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "cubehom.cli", *argv, flag, str(target)],
        input=format_edge_list(cycle_graph(5)), capture_output=True,
        text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {target}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_subprocess_pipe_end_to_end():
    gen = subprocess.run(
        [sys.executable, "-m", "cubehom.cli", "gen", "greene-sphere", "4"],
        capture_output=True, text=True)
    assert gen.returncode == 0
    hom = subprocess.run(
        [sys.executable, "-m", "cubehom.cli", "homology", "--max-dim", "2",
         "--format", "json"],
        input=gen.stdout, capture_output=True, text=True)
    assert hom.returncode == 0
    doc = json.loads(hom.stdout)
    assert doc["results"]["H"][1] == {"n": 1, "rank": 0, "torsion": []}
