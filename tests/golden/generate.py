"""Regenerate the golden CLI corpus replayed by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/generate.py

Runs every case in-process through `cubehom.cli.main` and writes its
standard output to `out/<case>.txt`; `manifest.json` records each case's
arguments, input graph, exit code and output file.  The `gen` cases write
their output to the edge lists under `graphs/` that the other cases read.
Every graph case runs once with `--format json` and once, under the same
name plus `-table`, with `--format table`.  The `budget0-` cases run with
`--time-budget 0`, which stops at the first budget check, and freeze the
incomplete documents and partial tables.
Regenerating rewrites the expected values, so do it only for a deliberate
change of output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# generated graphs: name -> gen arguments
GENERATED = {
    "gs4": ["greene-sphere", "4"],
    "gs5": ["greene-sphere", "5"],
    "gs6": ["greene-sphere", "6"],
    "k23": ["complete-bipartite", "2", "3"],
    "c5": ["cycle", "5"],
    "c6": ["cycle", "6"],
    "c7": ["cycle", "7"],
    "q3": ["hypercube", "3"],
}

# graphs outside the generator families, as edge-list text
WRITTEN = {
    "petersen": "# vertices 10\n"
                + "".join(f"{i} {(i + 1) % 5}\n" for i in range(5))
                + "".join(f"{i} {i + 5}\n" for i in range(5))
                + "".join(f"{i + 5} {5 + (i + 2) % 5}\n" for i in range(5)),
    # a square, a pentagon and an isolated vertex
    "disconnected": "# vertices 10\n0 1\n1 2\n2 3\n3 0\n"
                    "4 5\n5 6\n6 7\n7 8\n8 4\n",
    "empty": "# vertices 0\n",
    "single": "# vertices 1\n",
}

# (case suffix, command arguments) run on every graph of the corpus
EVERY_GRAPH = [
    ("homology-2", ["homology", "--max-dim", "2"]),
    ("filtered-1-2", ["filtered-homology", "--degree", "1", "--max-dim", "2"]),
    ("e1-1", ["e1-page", "--max-total", "1"]),
    ("inj-0", ["injective-homology", "--dim", "0"]),
    ("inj-1", ["injective-homology", "--dim", "1"]),
    ("einf-1", ["einf", "--dim", "1"]),
    ("cw-3", ["cw-homology", "--max-dim", "3"]),
    ("mono-1", ["check-mono", "--dim", "1"]),
    ("mono-1-quasi", ["check-mono", "--dim", "1", "--quasi"]),
    ("mono-2", ["check-mono", "--dim", "2"]),
    ("mono-2-quasi", ["check-mono", "--dim", "2", "--quasi"]),
    ("h2", ["h2-pipeline"]),
    ("cellmap-1", ["cell-map", "--dim", "1"]),
]

# the commands that need dimension-3 chains, only on the graphs where
# they stay cheap (greene-sphere 5 and 6, Petersen and Q3 would add
# seconds each)
DEEP = [
    ("homology-3", ["homology", "--max-dim", "3"]),
    ("e1-2", ["e1-page", "--max-total", "2"]),
    ("einf-2", ["einf", "--dim", "2"]),
    ("inj-2", ["injective-homology", "--dim", "2"]),
    ("cellmap-2", ["cell-map", "--dim", "2"]),
]
DEEP_GRAPHS = ("gs4", "k23", "c5", "c6", "c7", "disconnected", "empty",
               "single")
# the limit page at total degree 2 on the larger spheres, which the
# benchmark's chains_sphere workload runs
EINF_GRAPHS = ("gs5", "gs6")

# h2-pipeline with the direct chain-level check forced on and off
DIRECT = [
    ("h2-always", ["h2-pipeline", "--direct", "always"]),
    ("h2-never", ["h2-pipeline", "--direct", "never"]),
]
DIRECT_GRAPHS = BUDGET_GRAPHS = ("gs4", "k23")


def cases():
    """(case name, argv, input graph name or None) in a fixed order; the
    input graph's path is appended to argv when the case runs."""
    out = [(f"gen-{name}", ["gen"] + args, None)
           for name, args in GENERATED.items()]
    runs = [(f"{graph}-{suffix}", args, graph)
            for graph in list(GENERATED) + list(WRITTEN)
            for suffix, args in EVERY_GRAPH]
    runs += [(f"{graph}-{suffix}", args, graph)
             for graph in DEEP_GRAPHS for suffix, args in DEEP]
    runs += [(f"{graph}-einf-2", ["einf", "--dim", "2"], graph)
             for graph in EINF_GRAPHS]
    runs += [(f"{graph}-{suffix}", args, graph)
             for graph in DIRECT_GRAPHS for suffix, args in DIRECT]
    runs += [(f"budget0-{graph}-{suffix}", args + ["--time-budget", "0"],
              graph)
             for graph in BUDGET_GRAPHS for suffix, args in EVERY_GRAPH + DEEP]
    for fmt, tag in (("json", ""), ("table", "-table")):
        out += [(name + tag, args + ["--format", fmt], graph)
                for name, args, graph in runs]
    return out


def run_case(argv, graph):
    """Exit code and standard output of one in-process CLI run."""
    from cubehom.cli import main

    if graph is not None:
        argv = argv + [str(HERE / "graphs" / f"{graph}.txt")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def main():
    (HERE / "graphs").mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    for name, text in WRITTEN.items():
        (HERE / "graphs" / f"{name}.txt").write_text(text)
    manifest = []
    for name, argv, graph in cases():
        code, text = run_case(argv, graph)
        out = f"graphs/{name[4:]}.txt" if graph is None else f"out/{name}.txt"
        (HERE / out).write_text(text)
        manifest.append({"case": name, "argv": argv, "graph": graph,
                         "exit": code, "out": out})
        print(f"{name}: exit {code}", file=sys.stderr)
    (HERE / "manifest.json").write_text(
        "[\n" + ",\n".join(json.dumps(m, sort_keys=True) for m in manifest)
        + "\n]\n")


if __name__ == "__main__":
    main()
