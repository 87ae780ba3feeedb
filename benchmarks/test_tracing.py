"""Self-tests of the benchmark's tracer and oracles.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cubehom  # noqa: E402
import cubehom.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402


def test_normalized_complex_counts():
    g = cubehom.greene_sphere(4)
    with Tracer() as tr:
        cubehom.chains.normalized_complex(g, 3)
    assert tr.calls["cubes.degree"] == 21962
    assert tr.counts[("cubes.enumerate", 3)] == 21552
    m = tr.layer_metrics()
    assert m["cubes.degree_calls"] == 21962
    assert m["cubes.enumerated"] == 21962      # 10 + 32 + 368 + 21552
    assert m["chains.basis"] == 21962
    assert m["chains.columns"] == 32 + 368 + 21552


def test_cw_complex_cells():
    with Tracer() as tr:
        cubehom.cwcomplex.build_cw_complex(cubehom.hypercube_graph(4), 3)
    cells = [tr.counts[("cwcomplex.cells", n)] for n in range(4)]
    assert cells == [16, 32, 24, 8]
    assert tr.layer_metrics()["cwcomplex.cells"] == 80


def test_stream_counts_full_stream():
    # greene-sphere(4) at (k, n) = (2, 2) never saturates, so the stream
    # pulls every nondegenerate 3-cube
    g = cubehom.greene_sphere(4)
    c = cubehom.chains.normalized_complex(g, 3)
    here = sum(d == 2 for d in c.degrees[2])
    hits = sum(d == 2 for d in c.degrees[3])
    with Tracer() as tr:
        h = cubehom.spectral.quotient_homology(g, 2, 2)
    assert h.invariants() == (8, ())
    m = tr.layer_metrics()
    assert m["spectral.stream_cubes"] == 21552
    assert m["spectral.stream_degree_hit_ratio"] == hits / 21552
    # one add per slice cube for the outgoing rank, one per degree-2 3-cube
    assert m["spectral.stream_adds"] == here + hits


def test_rebinding_and_restore():
    mods = (cubehom.cubes, cubehom.chains, cubehom.spectral, cubehom)
    degree = cubehom.cubes.cube_degree
    enum = cubehom.cubes.singular_cubes
    add = cubehom.zlinalg.Echelon.add
    with Tracer():
        wrapped = {m.cube_degree for m in mods}
        assert len(wrapped) == 1 and degree not in wrapped
        assert cubehom.spectral.singular_cubes is not enum
        assert cubehom.zlinalg.Echelon.add is not add
    assert all(m.cube_degree is degree for m in mods)
    assert cubehom.spectral.singular_cubes is enum
    assert cubehom.zlinalg.Echelon.add is add


def _jobs(name, graphs):
    return [j for j in workloads.WORKLOADS[name].jobs if j.graph in graphs]


def test_traced_and_untraced_outputs_identical(tmp_path):
    jobs = (_jobs("shortcut_cells", ("k23", "k34", "gs60"))
            + _jobs("stream_h3", ("gs4",)))
    graphs = workloads.build_graphs(cubehom, {j.graph for j in jobs}, 5)
    paths = run.write_edge_lists(cubehom, graphs, tmp_path, 5)
    _, plain = run.run_pass(cubehom, jobs, graphs, paths)
    tr = Tracer(max_spans=10**7)
    with tr:
        _, traced = run.run_pass(cubehom, jobs, graphs, paths, tr)
    assert [e.error for e in plain] == [None] * len(jobs)
    assert [e.text for e in traced] == [e.text for e in plain]
    ledger = run.Ledger()
    ledger.check(cubehom, graphs, "traced", traced, reference=plain)
    assert ledger.failed == 0 and ledger.attempted == len(jobs)
    # every moment inside a job's root span is some span's self time
    roots = [end - start for _, parent, name, start, end in tr.spans
             if name == "job"]
    assert len(roots) == len(jobs)
    assert sum(tr.self_s.values()) == pytest.approx(sum(roots), abs=1e-6)
    assert set(tr.layer_metrics()) == set(LAYER_UNITS)


def test_oracle_rejects_wrong_answers(tmp_path):
    graphs = workloads.build_graphs(cubehom, ["k23", "gs4"], 7)
    paths = run.write_edge_lists(cubehom, graphs, tmp_path, 7)
    mono = _jobs("shortcut_cells", ("k23",))[1]
    text = mono.run(cubehom, graphs, paths, 60)
    assert mono.check(cubehom, graphs["k23"], text) == []
    doc = json.loads(text)
    corners = doc["results"]["cubes"][0]["witness"]["corners"]
    corners[:] = [corners[0]] * len(corners)   # a constant cube refutes nothing
    bad = json.dumps(doc)
    with pytest.raises(workloads.JobFailed):
        mono.check(cubehom, graphs["k23"], bad)
    doc = json.loads(text)
    doc["results"]["overall"] = True
    assert mono.check(cubehom, graphs["k23"], json.dumps(doc))

    hom = _jobs("chains_sphere", ("gs4",))[0]
    doc = {"command": "homology", "status": "complete", "results": {
        "H": [{"n": n, "rank": r, "torsion": []}
              for n, r in enumerate((1, 0, 0))],
        "chain_ranks": [10, 32, 368, 21552]}}
    assert hom.check(cubehom, graphs["gs4"], json.dumps(doc))
    doc["status"] = "incomplete"
    with pytest.raises(workloads.JobFailed):
        hom.check(cubehom, graphs["gs4"], json.dumps(doc))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / HERE.name).mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / HERE.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stream_h3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
