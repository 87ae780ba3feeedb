"""The benchmark's workloads: input graphs, computations and answer oracles.

Each computation is run the way a user runs it: CLI commands through
`cubehom.cli.main(argv)` in-process on an edge-list file, library-only
entry points by a direct call.  Every call uses one thread.  A
computation's `answer` is the part of its output that no vertex
relabeling can change; `check` compares it with what is known to be true
of the input, independently of the program.
"""

import contextlib
import io
import json
import random

# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _torus(ch, rows, cols):
    """The rows x cols grid on a torus (a 4-regular quadrangulation)."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, ((i + 1) % rows) * cols + j))
    return ch.Graph(rows * cols, edges)


# name -> builder taking the cubehom package
GRAPHS = {
    "gs4": lambda ch: ch.greene_sphere(4),
    "gs5": lambda ch: ch.greene_sphere(5),
    "gs6": lambda ch: ch.greene_sphere(6),
    "gs60": lambda ch: ch.greene_sphere(60),
    "q6": lambda ch: ch.hypercube_graph(6),
    "q7": lambda ch: ch.hypercube_graph(7),
    "torus20": lambda ch: _torus(ch, 20, 20),
    "k23": lambda ch: ch.complete_bipartite_graph(2, 3),
    "k34": lambda ch: ch.complete_bipartite_graph(3, 4),
}


def build_graphs(ch, names, seed):
    """The named graphs, each relabeled by its own seeded permutation.

    "gs4.2" names a second, independently relabeled copy of "gs4".
    """
    out = {}
    for name in names:
        g = GRAPHS[name.split(".")[0]](ch)
        perm = list(range(g.n))
        random.Random(f"{seed}:{name}").shuffle(perm)
        out[name] = ch.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return out


# ---------------------------------------------------------------------------
# answers and checks
# ---------------------------------------------------------------------------


def _group(doc):
    return (doc["rank"], tuple(doc["torsion"]))


Z, ZERO = (1, ()), (0, ())


def _free(rank):
    return (rank, ())


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class CliJob:
    """One CLI command on one graph, with its answer extractor and oracle.

    `expected` maps answer keys to their known values; `recheck` marks the
    cheap jobs that are rerun on graphs relabeled by a second seed.
    """

    def __init__(self, graph, argv, baseline_s, expected, recheck=False):
        self.graph = graph
        self.argv = list(argv)
        self.baseline_s = baseline_s
        self.expected = expected
        self.recheck = recheck
        self.label = f"{' '.join(argv)} [{graph}]"

    def run(self, ch, graphs, paths, budget):
        argv = self.argv + [paths[self.graph], "--format", "json",
                            "--threads", "1", "--time-budget", str(budget)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ch.cli.main(argv)
        if code != 0:
            raise JobFailed(f"exit code {code}")
        return buf.getvalue()

    def answer(self, text):
        doc = json.loads(text)
        if doc["status"] != "complete":
            raise JobFailed(f"status {doc['status']}")
        return ANSWERS[self.argv[0]](doc["results"])

    def check(self, ch, g, text):
        """Problems with this output; empty when it is right."""
        ans = self.answer(text)
        problems = []
        for key, want in self.expected.items():
            _expect(problems, key, ans.get(key), want)
        results = json.loads(text)["results"]
        for q, tau in _witnesses(ch, g, self.argv[0], results):
            try:
                if not ch.monophobic.validate_witness(g, q, tau,
                                                      "quasimonophobic"):
                    problems.append(f"witness {list(tau)} does not validate")
            except ValueError as e:  # not a graph map
                problems.append(f"witness {list(tau)}: {e}")
        return problems


class LibJob:
    """`quotient_homology(g, k, n)`, a library-only entry point."""

    def __init__(self, graph, k, n, baseline_s, expected, recheck=False):
        self.graph = graph
        self.k, self.n = k, n
        self.baseline_s = baseline_s
        self.expected = expected
        self.recheck = recheck
        self.label = f"quotient_homology(k={k}, n={n}) [{graph}]"

    def run(self, ch, graphs, paths, budget):
        ch.budget.set_time_budget(budget)
        try:
            h = ch.spectral.quotient_homology(graphs[self.graph], self.k,
                                              self.n, threads=1)
        finally:
            ch.budget.clear_time_budget()
        return json.dumps({"rank": h.free_rank, "torsion": list(h.torsion)})

    def answer(self, text):
        return {"H": _group(json.loads(text))}

    def check(self, ch, g, text):
        problems = []
        _expect(problems, "H", self.answer(text)["H"], self.expected)
        return problems


class JobFailed(Exception):
    """A computation ended without a complete answer."""


def _homology_answer(res):
    return {"H": [_group(h) for h in res["H"]],
            "chain_ranks": res["chain_ranks"]}


def _e1_answer(res):
    entries = {(e["p"], e["q"]): (e["rank"], tuple(e["torsion"]))
               for e in res["entries"]}
    return {"entries": entries, "E1[1,1]": entries[(1, 1)],
            "E1[2,0]": entries[(2, 0)]}


def _einf_answer(res):
    return {"graded": [_group(x) for x in res["filtration_graded"]],
            "einf": [_group(x) for x in res["einf"]],
            "match": res["match"]}


def _cellmap_answer(res):
    return {"cells": res["cells"], "surjective": res["surjective"],
            "chain_map_ok": res["chain_map_ok"],
            "kernel_rank": res["kernel_rank"],
            "target": _group(res["target"])}


def _h2_answer(res):
    def grp(key):
        return _group(res[key]) if res.get(key) is not None else None
    return {"quasimonophobic": (res["quasimonophobic_1"],
                                res["quasimonophobic_2"]),
            "cw_h2": grp("cw_h2"), "conclusion_h2": grp("conclusion_h2"),
            "direct_h2": grp("direct_h2"),
            "hypothesis_failure": res.get("hypothesis_failure"),
            "witness_dims": sorted(res["witnesses"])}


def _mono_answer(res):
    cubes = res["cubes"]
    return {"overall": res["overall"], "cubes": len(cubes),
            "rigid": sum(c["rigid"] for c in cubes),
            "failing": sum(not c["passes"] for c in cubes),
            "witnessed": sum(c["witness"] is not None for c in cubes)}


ANSWERS = {
    "homology": _homology_answer,
    "e1-page": _e1_answer,
    "einf": _einf_answer,
    "cell-map": _cellmap_answer,
    "h2-pipeline": _h2_answer,
    "check-mono": _mono_answer,
}


def _witnesses(ch, g, command, results):
    """(cube subgraph, witness cube) pairs emitted by a command.

    A witness's front 1-face is the canonical parametrization of the cube
    it refutes, so the cube is found from the witness alone.
    """
    if command == "check-mono":
        taus = [c["witness"]["corners"] for c in results["cubes"]
                if c["witness"] is not None]
    elif command == "h2-pipeline":
        taus = [w["corners"] for w in results["witnesses"].values()
                if w is not None]
    else:
        return []
    out = []
    for corners in taus:
        tau = tuple(corners)
        n = (len(tau) - 1).bit_length() - 1
        rep = ch.cubes.face(tau, 1, ch.cubes.MINUS)
        qs = [q for q in ch.cubes.cube_subgraphs(g, n) if q.rep == rep]
        if len(qs) != 1:
            raise JobFailed(f"witness {corners} refutes no cube subgraph")
        out.append((qs[0], tau))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, why, jobs):
        self.why = why
        self.jobs = jobs

    @property
    def graph_names(self):
        return sorted({j.graph for j in self.jobs})


def _sphere_jobs(n, baselines, recheck):
    """greene-sphere(n): H = Z, 0, Z; E1[1,1] = 0; the limit page matches;
    the cell map onto the 2n squares' slice group Z^2n is an isomorphism."""
    name = f"gs{n}"
    b_hom, b_e1, b_einf, b_map = baselines
    return [
        CliJob(name, ["homology", "--max-dim", "3"], b_hom,
               {"H": [Z, ZERO, Z]}, recheck),
        CliJob(name, ["e1-page", "--max-total", "2"], b_e1,
               {"E1[1,1]": ZERO, "E1[2,0]": _free(2 * n)}, recheck),
        CliJob(name, ["einf", "--dim", "2"], b_einf, {"match": True}),
        CliJob(name, ["cell-map", "--dim", "2"], b_map,
               {"surjective": True, "kernel_rank": 0, "chain_map_ok": True,
                "cells": 2 * n, "target": _free(2 * n)}, recheck),
    ]


def _h2_job(graph, baseline_s, h2, recheck):
    """A graph that is 1- and 2-quasimonophobic: the shortcut concludes
    H_2 = H_2(CW) and the direct computation is skipped."""
    return CliJob(graph, ["h2-pipeline"], baseline_s,
                  {"quasimonophobic": (True, True), "cw_h2": h2,
                   "conclusion_h2": h2, "direct_h2": None}, recheck)


def _mono_job(graph, squares):
    """K_{m,n}: every one of its C(m,2) C(n,2) squares is rigid and fails
    2-quasimonophobicity with a witness."""
    return CliJob(graph, ["check-mono", "--dim", "2", "--quasi"], 0.01,
                  {"overall": False, "cubes": squares, "rigid": squares,
                   "failing": squares, "witnessed": squares}, True)


# The early-stop point of a stream depends on the enumeration order, so one
# labeling of greene-sphere(n) pulls from 14k to 35k 3-cubes; the pass
# streams several independently relabeled copies, which keeps the work per
# pass nearly the same from seed to seed.
STREAM_COPIES = 4

# Baselines are single-core seconds per call on a 2-core Xeon; each call's
# time budget is a generous multiple of its baseline (see run.BUDGET_*).
WORKLOADS = {
    "chains_sphere": Workload(
        "chain-level CLI commands rebuild the dim-3 complex of "
        "greene-sphere 4 and 6: enumeration, cube_degree, boundary columns, "
        "lattice reads",
        _sphere_jobs(4, (1.0, 0.8, 2.0, 0.65), True)
        + _sphere_jobs(6, (2.1, 1.6, 3.3, 1.4), False)),
    "stream_h3": Workload(
        "slice homology streamed one cube at a time: the exact early stop "
        "on E1[1,1] of greene-sphere 4-6 (4 relabelings each) and a full "
        "stream that never saturates",
        [LibJob(f"gs{n}.{i}", 1, 2, base, ZERO, recheck=(n, i) == (4, 1))
         for n, base in ((4, 0.5), (5, 0.8), (6, 1.0))
         for i in range(1, STREAM_COPIES + 1)]
        + [LibJob("gs4", 2, 2, 0.45, _free(8), True)]),
    "shortcut_cells": Workload(
        "H_2 shortcut: witness search, cube subgraphs and the cell complex; "
        "no dim-4 stream and no cube_degree outside the K_{2,3} fallback",
        [_h2_job("q6", 1.2, ZERO, True),
         _h2_job("q7", 3.8, ZERO, False),
         _h2_job("torus20", 1.3, Z, False),
         _h2_job("gs60", 0.95, Z, True),
         CliJob("k23", ["h2-pipeline"], 0.25,
                {"quasimonophobic": (True, False), "cw_h2": Z,
                 "conclusion_h2": None, "direct_h2": ZERO,
                 "hypothesis_failure": True, "witness_dims": ["2"]}, True),
         _mono_job("k23", 3),
         _mono_job("k34", 18)]),
}
