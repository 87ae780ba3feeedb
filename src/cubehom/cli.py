"""Command-line interface.

Commands read an edge-list graph from a file argument or standard input,
so generator output pipes straight into the analysis commands:

    cubehom gen greene-sphere 4 | cubehom homology --max-dim 3

Each analysis command is a pair of functions: `compute_<command>(g, args,
results)` fills the JSON results document in place, so whatever it
finished before a budget stop stays in the output, and
`table_<command>(results)` renders that document as table lines.  One
runner, `run_command`, loads the graph, calls the compute function, maps
the outcome to a status and prints the JSON document or the table.

Identical inputs and budgets produce byte-identical JSON.  Exit status is
0 on success, 2 when a dimension or time budget stopped the computation
(its reason goes to standard error as `incomplete: <reason>`),
1 on bad input (usage errors included), and 3 when an internal identity
that must hold mathematically failed (a `ContractViolation`, which is a
bug: the JSON document then has status "error" and names the identity).
"""

import argparse
import json
import sys
from itertools import chain

from . import __version__
from .budget import (
    BudgetExhausted,
    DimensionBudgetError,
    time_budget,
)
from .chains import (
    dump_complex,
    filtered_homology,
    homology,
    normalized_complex,
)
from .cubes import subgraph_levels
from .cwcomplex import build_cw_complex, cell_to_degree_class, cw_homology, cw_to_json
from .graphs import FAMILIES, EdgeListError, format_edge_list, generate, parse_edge_list
from .monophobic import check_graph, iter_checks
from .spectral import (
    e1_page,
    einfinity_report,
    injective_homology,
    page_to_json,
)
from .zlinalg import ContractViolation, group_str

EXIT_CODES = {"complete": 0, "incomplete": 2, "error": 3}


def _group_doc(g):
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _group_str(doc):
    """The group of a `_group_doc` document, as `str(AbelianGroup)`."""
    return group_str(doc["rank"], doc["torsion"])


def _load_graph(args):
    if args.graph is None or args.graph == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read {args.graph}: {e}")
    return parse_edge_list(text)


def _write(path, text):
    """Write `text` to the file at `path`; a path that cannot be written
    is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}")


def run_command(args):
    """Run one analysis command and print its output; returns the exit
    status."""
    g = _load_graph(args)
    results = {}
    try:
        args.compute(g, args, results)
        status = "complete"
    except (BudgetExhausted, DimensionBudgetError) as e:
        print(f"incomplete: {e}", file=sys.stderr)
        status = "incomplete"
    except ContractViolation as e:
        print(f"error: internal identity failed: {e}", file=sys.stderr)
        results, status = {"violated": str(e)}, "error"
    if args.format == "json":
        doc = {"command": args.command,
               "graph": {"vertices": g.n, "edges": g.edge_count},
               "results": results, "status": status}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    elif status != "error":
        for line in args.table(results) if results else ():
            print(line)
        if status != "complete":
            print(f"status: {status}")
    return EXIT_CODES[status]


# ---------------------------------------------------------------------------
# commands: compute functions fill `results`; table functions render it
# and are called only when it is not empty
# ---------------------------------------------------------------------------

def cmd_gen(args):
    g = generate(args.family, tuple(args.params))
    sys.stdout.write(format_edge_list(g))
    return 0


def _homology_entries(results, hom, c, top):
    for n in range(top):
        results["H"].append({"n": n, **_group_doc(hom(c, n))})


def table_homology(results, suffix=""):
    return [f"H_{e['n']}{suffix} = {_group_str(e)}" for e in results["H"]]


def compute_homology(g, args, results):
    results.update(H=[], chain_ranks=[])
    c = normalized_complex(g, args.max_dim)
    results["chain_ranks"] = [c.dim(n) for n in range(args.max_dim + 1)]
    if args.dump_complex:
        _write(args.dump_complex, dump_complex(c))
    _homology_entries(results, homology, c, args.max_dim)


def compute_filtered_homology(g, args, results):
    results.update(degree=args.degree, H=[])
    c = normalized_complex(g, args.max_dim)
    _homology_entries(results,
                      lambda c, n: filtered_homology(c, args.degree, n),
                      c, args.max_dim)


def compute_e1_page(g, args, results):
    c = normalized_complex(g, args.max_total + 1)
    results.update(page_to_json(e1_page(c, args.max_total)))


def table_e1_page(results):
    return [f"E1[{e['p']},{e['q']}] = {_group_str(e)}"
            for e in results["entries"]]


def compute_injective_homology(g, args, results):
    c = normalized_complex(g, args.dim + 1)
    results.update(n=args.dim, **_group_doc(injective_homology(c, args.dim)))


def table_injective_homology(results):
    return [f"Hinj_{results['n']} = {_group_str(results)}"]


def compute_einf(g, args, results):
    rep = einfinity_report(normalized_complex(g, args.dim + 1), args.dim)
    results.update(
        n=rep.n,
        filtration_graded=[_group_doc(x) for x in rep.filtration_graded],
        einf=[_group_doc(x) for x in rep.einf_entries],
        match=rep.match)


def table_einf(results):
    pages = zip(results["filtration_graded"], results["einf"])
    return [f"p={p}: graded {_group_str(a)}  stable-page {_group_str(b)}"
            for p, (a, b) in enumerate(pages)] + \
        [f"match: {results['match']}"]


def compute_cw_homology(g, args, results):
    results.update(H=[], euler_characteristic=None)
    c = build_cw_complex(g, args.max_dim)
    results["euler_characteristic"] = c.euler_characteristic
    if args.dump_cells:
        _write(args.dump_cells,
               json.dumps(cw_to_json(c), sort_keys=True) + "\n")
    _homology_entries(results, cw_homology, c, args.max_dim)


def table_cw_homology(results):
    lines = table_homology(results, "(CW)")
    chi = results["euler_characteristic"]
    if chi is not None:
        lines.append(f"euler characteristic (through built cells): {chi}")
    return lines


def _witness_doc(w):
    return None if w is None else {"dim": (len(w) - 1).bit_length(),
                                   "corners": list(w)}


def compute_check_mono(g, args, results):
    mode = "quasimonophobic" if args.quasi else "monophobic"
    cubes = []
    for c in iter_checks(g, args.dim, mode):
        # a budget stop keeps the verdicts so far, with no overall verdict,
        # and one before the first verdict keeps no results at all
        if not cubes:
            results.update(mode=mode, dim=args.dim, cubes=cubes)
        cubes.append({"vertices": list(c.cube.vertices), "rigid": c.rigid,
                      "passes": c.passes, "witness": _witness_doc(c.witness)})
    results.update(mode=mode, dim=args.dim, cubes=cubes,
                   overall=all(c["rigid"] and c["passes"] for c in cubes))
    if args.certificate:
        _write(args.certificate,
               json.dumps(results, sort_keys=True, indent=2) + "\n")


def table_check_mono(results):
    lines = []
    for c in results["cubes"]:
        verdict = "ok" if c["rigid"] and c["passes"] else (
            "fails" if c["rigid"] else "not rigid")
        lines.append(f"cube {c['vertices']}: {verdict}")
    if "overall" in results:
        lines.append(f"{results['mode']} at dimension {results['dim']}: "
                     f"{results['overall']}")
    return lines


def compute_h2_pipeline(g, args, results):
    # one walk of the cube subgraph levels: levels 1 and 2 feed the checks,
    # and level 3 is pulled for the cell complex only after both
    levels = subgraph_levels(g)
    walked = [next(levels)]
    witnesses = {}
    for n in (1, 2):
        walked.append(next(levels))
        report = check_graph(g, n, "quasimonophobic", walked[n])
        results[f"quasimonophobic_{n}"] = report.overall
        if not report.overall:
            bad = next(c for c in report.checks
                       if not (c.rigid and c.passes))
            witnesses[n] = _witness_doc(bad.witness)
    results["witnesses"] = witnesses
    quasi_ok = not witnesses

    cw = build_cw_complex(g, 3, chain(walked, levels))
    cw_h2 = _group_doc(cw_homology(cw, 2))
    results["cw_h2"] = cw_h2
    results["conclusion_h2"] = cw_h2 if quasi_ok else None

    if args.direct == "always" or (args.direct == "auto" and not quasi_ok):
        # H_2 reads boundaries of 3-chains, so chains through dimension 3
        h2 = _group_doc(homology(normalized_complex(g, 3), 2))
        results["direct_h2"] = h2
        if quasi_ok:
            results["agreement"] = h2 == cw_h2
        else:
            results["hypothesis_failure"] = h2 != cw_h2


def table_h2_pipeline(results):
    lines = [f"{n}-quasimonophobic: {results[f'quasimonophobic_{n}']}"
             for n in (1, 2) if f"quasimonophobic_{n}" in results]
    if "cw_h2" in results:
        cw_h2 = _group_str(results["cw_h2"])
        lines.append(f"H_2(CW) = {cw_h2}")
        lines.append(f"conclusion: H_2 = {cw_h2}"
                     if results["conclusion_h2"] is not None
                     else "hypotheses fail: no shortcut conclusion for H_2")
    if "direct_h2" in results:
        lines.append(f"direct H_2 = {_group_str(results['direct_h2'])}")
        lines.append(
            f"shortcut agrees with direct: {results['agreement']}"
            if "agreement" in results
            else "cellular value is not a valid H_2 conclusion here")
    return lines


def compute_cell_map(g, args, results):
    cm = cell_to_degree_class(g, args.dim)
    results.update(dim=args.dim, cells=cm.matrix.source.ngens,
                   surjective=cm.surjective, chain_map_ok=cm.chain_map_ok,
                   kernel_rank=cm.kernel_rank,
                   target=_group_doc(cm.matrix.target))


def table_cell_map(results):
    return [f"cells: {results['cells']}",
            f"target slice group: {_group_str(results['target'])}",
            f"surjective: {results['surjective']}",
            f"kernel rank: {results['kernel_rank']}"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, since 2 means budget exhausted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low, convert=int):
    """An argparse type: `convert`, then a usage error below `low`."""
    def parse(text):
        value = convert(text)
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    parse.__name__ = convert.__name__  # for argparse's "invalid int value"
    return parse


def _command(sp, name, compute, table, help):
    """Register an analysis command with the flags every one of them
    takes."""
    sub = sp.add_parser(name, help=help)
    sub.add_argument("graph", nargs="?", default=None,
                     help="edge-list file (default: standard input)")
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.add_argument("--threads", type=_at_least(1), default=1,
                     help="accepted and ignored: every command runs in one "
                          "process")
    sub.add_argument("--time-budget", type=_at_least(0, float), default=None,
                     help="soft wall-clock limit in seconds")
    sub.set_defaults(func=run_command, compute=compute, table=table)
    return sub


def build_parser():
    ap = _Parser(
        prog="cubehom",
        description="discrete cubical homology of graphs, with the degree "
                    "filtration, spectral sequence, injective and cellular "
                    "homology, and monophobicity checks")
    ap.add_argument("--version", action="version", version=__version__)
    sp = ap.add_subparsers(dest="command", required=True)

    gen = sp.add_parser("gen", help="emit a generated graph as an edge list")
    gen.add_argument("family", choices=sorted(FAMILIES))
    gen.add_argument("params", nargs="+", type=int)
    gen.set_defaults(func=cmd_gen)

    hom = _command(sp, "homology", compute_homology, table_homology,
                   "discrete cubical homology")
    hom.add_argument("--max-dim", type=_at_least(0), required=True,
                     help="build chains through this dimension; reports "
                          "H_0..H_{D-1}")
    hom.add_argument("--dump-complex", default=None,
                     help="write the based complex in the diff format")

    fil = _command(sp, "filtered-homology", compute_filtered_homology,
                   table_homology,
                   "homology of the degree-at-most-K subcomplex")
    fil.add_argument("--degree", type=_at_least(0), required=True)
    fil.add_argument("--max-dim", type=_at_least(0), required=True)

    e1 = _command(sp, "e1-page", compute_e1_page, table_e1_page,
                  "first page of the degree spectral sequence")
    e1.add_argument("--max-total", type=_at_least(0), required=True)

    inj = _command(sp, "injective-homology", compute_injective_homology,
                   table_injective_homology,
                   "homology of the injective bottom edge")
    inj.add_argument("--dim", type=_at_least(0), required=True)

    einf = _command(sp, "einf", compute_einf, table_einf,
                    "limit page versus the filtration on homology")
    einf.add_argument("--dim", type=_at_least(0), required=True)

    cw = _command(sp, "cw-homology", compute_cw_homology, table_cw_homology,
                  "cellular homology of the filled-cube complex")
    cw.add_argument("--max-dim", type=_at_least(0), required=True)
    cw.add_argument("--dump-cells", default=None,
                    help="write the cell/boundary JSON dump to this file")

    mono = _command(sp, "check-mono", compute_check_mono, table_check_mono,
                    "monophobicity of the n-cubes")
    mono.add_argument("--dim", type=_at_least(0), required=True)
    mono.add_argument("--quasi", action="store_true",
                      help="only noninjective witnesses count")
    mono.add_argument("--certificate", default=None,
                      help="write per-cube verdicts to this JSON file")

    pipe = _command(sp, "h2-pipeline", compute_h2_pipeline,
                    table_h2_pipeline,
                    "H_2 via quasimonophobicity and the filled-cube "
                    "complex, with optional direct check")
    pipe.add_argument("--direct", choices=("auto", "always", "never"),
                      default="auto",
                      help="when to also compute H_2 from the chain level "
                           "(auto: only if the hypotheses fail)")

    cmap = _command(sp, "cell-map", compute_cell_map, table_cell_map,
                    "compare cellular chains with the top degree slice")
    cmap.add_argument("--dim", type=_at_least(0), required=True)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with time_budget(getattr(args, "time_budget", None)):
            return args.func(args)
    except (EdgeListError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
