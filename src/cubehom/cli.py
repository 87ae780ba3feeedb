"""Command-line interface.

Commands read an edge-list graph from a file argument or standard input,
so generator output pipes straight into the analysis commands:

    cubehom gen greene-sphere 4 | cubehom homology --max-dim 3

Results print as an aligned table or as JSON with a stable schema;
identical inputs and budgets produce byte-identical JSON.  Exit status is
0 on success, 2 when a dimension or time budget stopped the computation,
and 1 on bad input.
"""

import argparse
import json
import sys

from . import __version__
from .budget import (
    BudgetExhausted,
    DimensionBudgetError,
    clear_time_budget,
    set_time_budget,
)
from .chains import (
    degree_subcomplex,
    dump_complex,
    homology,
    normalized_complex,
)
from .cwcomplex import build_cw_complex, cw_homology, cell_to_degree_class
from .graphs import FAMILIES, EdgeListError, format_edge_list, generate, parse_edge_list
from .monophobic import check_graph
from .spectral import (
    e1_page,
    einfinity_report,
    injective_homology,
    page_to_json,
)


def _group_doc(g, n=None):
    doc = {"rank": g.free_rank, "torsion": list(g.torsion)}
    if n is not None:
        doc["n"] = n
    return doc


def _load_graph(args):
    if args.graph is None or args.graph == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise EdgeListError(0, f"cannot read {args.graph}: {e}")
    return parse_edge_list(text)


def _emit(args, command, graph, results, status, table_lines):
    if args.format == "json":
        doc = {
            "command": command,
            "graph": {"vertices": graph.n, "edges": graph.edge_count}
            if graph is not None else None,
            "results": results,
            "status": status,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in table_lines:
            print(line)
        if status != "complete":
            print(f"status: {status}")
    return 0 if status == "complete" else 2


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_gen(args):
    g = generate(args.family, tuple(args.params))
    sys.stdout.write(format_edge_list(g))
    return 0


def _homology_table(results):
    return [f"H_{e['n']} = {e['str']}" for e in results]


def cmd_homology(args):
    g = _load_graph(args)
    status = "complete"
    entries = []
    ranks = []
    try:
        c = normalized_complex(g, args.max_dim, args.threads)
        ranks = [c.dim(n) for n in range(args.max_dim + 1)]
        if args.dump_complex:
            with open(args.dump_complex, "w", encoding="utf-8") as fh:
                fh.write(dump_complex(c))
        for n in range(args.max_dim):
            h = homology(c, n)
            entries.append({"n": n, "rank": h.free_rank,
                            "torsion": list(h.torsion), "str": str(h)})
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    results = {"H": [{k: e[k] for k in ("n", "rank", "torsion")}
                     for e in entries],
               "chain_ranks": ranks}
    return _emit(args, "homology", g, results, status,
                 _homology_table(entries))


def cmd_filtered_homology(args):
    g = _load_graph(args)
    status = "complete"
    entries = []
    try:
        c = degree_subcomplex(
            normalized_complex(g, args.max_dim, args.threads), args.degree)
        for n in range(args.max_dim):
            h = homology(c, n)
            entries.append({"n": n, "rank": h.free_rank,
                            "torsion": list(h.torsion), "str": str(h)})
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    results = {"degree": args.degree,
               "H": [{k: e[k] for k in ("n", "rank", "torsion")}
                     for e in entries]}
    return _emit(args, "filtered-homology", g, results, status,
                 _homology_table(entries))


def cmd_e1_page(args):
    g = _load_graph(args)
    status = "complete"
    doc = {}
    lines = []
    try:
        c = normalized_complex(g, args.max_total + 1, args.threads)
        page = e1_page(c, args.max_total)
        doc = page_to_json(page)
        for e in doc["entries"]:
            grp = f"Z^{e['rank']}" if e["rank"] else ""
            tor = " + ".join(f"Z/{t}" for t in e["torsion"])
            shown = " + ".join(x for x in (grp, tor) if x) or "0"
            lines.append(f"E1[{e['p']},{e['q']}] = {shown}")
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "e1-page", g, doc, status, lines)


def cmd_injective_homology(args):
    g = _load_graph(args)
    status = "complete"
    results = {}
    lines = []
    try:
        # the slice above only needs its relations (dimension n+2 data)
        # when injective (n+1)-cubes exist at all
        c = normalized_complex(g, args.dim + 1, args.threads)
        if any(d == args.dim + 1 for d in c.degrees[args.dim + 1]):
            c = normalized_complex(g, args.dim + 2, args.threads)
        h = injective_homology(c, args.dim)
        results = {"n": args.dim, "rank": h.free_rank,
                   "torsion": list(h.torsion)}
        lines = [f"Hinj_{args.dim} = {h}"]
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "injective-homology", g, results, status, lines)


def cmd_einf(args):
    g = _load_graph(args)
    status = "complete"
    results = {}
    lines = []
    try:
        c = normalized_complex(g, args.dim + 1, args.threads)
        rep = einfinity_report(c, args.dim)
        results = {
            "n": rep.n,
            "filtration_graded": [_group_doc(x) for x in rep.filtration_graded],
            "einf": [_group_doc(x) for x in rep.einf_entries],
            "match": rep.match,
        }
        for p, (a, b) in enumerate(zip(rep.filtration_graded,
                                       rep.einf_entries)):
            lines.append(f"p={p}: graded {a}  stable-page {b}")
        lines.append(f"match: {rep.match}")
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "einf", g, results, status, lines)


def cmd_cw_homology(args):
    g = _load_graph(args)
    status = "complete"
    entries = []
    chi = None
    try:
        c = build_cw_complex(g, args.max_dim, args.threads)
        chi = c.euler_characteristic
        if args.dump_cells:
            from .cwcomplex import cw_to_json

            with open(args.dump_cells, "w", encoding="utf-8") as fh:
                json.dump(cw_to_json(c), fh, sort_keys=True)
                fh.write("\n")
        for n in range(args.max_dim):
            h = cw_homology(c, n)
            entries.append({"n": n, "rank": h.free_rank,
                            "torsion": list(h.torsion), "str": str(h)})
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    results = {"H": [{k: e[k] for k in ("n", "rank", "torsion")}
                     for e in entries],
               "euler_characteristic": chi}
    lines = [f"H_{e['n']}(CW) = {e['str']}" for e in entries]
    if chi is not None:
        lines.append(f"euler characteristic (through built cells): {chi}")
    return _emit(args, "cw-homology", g, results, status, lines)


def _witness_doc(witness):
    if witness is None:
        return None
    return {"dim": (len(witness) - 1).bit_length(), "corners": list(witness)}


def cmd_check_mono(args):
    g = _load_graph(args)
    mode = "quasimonophobic" if args.quasi else "monophobic"
    status = "complete"
    results = {}
    lines = []
    try:
        report = check_graph(g, args.dim, mode)
        cubes = []
        for c in report.checks:
            cubes.append({
                "vertices": list(c.cube.vertices),
                "rigid": c.rigid,
                "passes": c.passes,
                "witness": _witness_doc(c.witness),
            })
            verdict = "ok" if (c.rigid and c.passes) else (
                "not rigid" if not c.rigid else "fails")
            lines.append(f"cube {list(c.cube.vertices)}: {verdict}")
        results = {"mode": mode, "dim": args.dim,
                   "overall": report.overall, "cubes": cubes}
        lines.append(f"{mode} at dimension {args.dim}: {report.overall}")
        if args.certificate:
            with open(args.certificate, "w", encoding="utf-8") as fh:
                json.dump(results, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "check-mono", g, results, status, lines)


def cmd_h2_pipeline(args):
    g = _load_graph(args)
    status = "complete"
    results = {}
    lines = []
    try:
        quasi_ok = True
        witnesses = {}
        for n in (1, 2):
            report = check_graph(g, n, "quasimonophobic")
            results[f"quasimonophobic_{n}"] = report.overall
            if not report.overall:
                quasi_ok = False
                bad = next(c for c in report.checks
                           if not (c.rigid and c.passes))
                witnesses[n] = _witness_doc(bad.witness)
            lines.append(f"{n}-quasimonophobic: {report.overall}")
        results["witnesses"] = witnesses

        cw = build_cw_complex(g, 3, args.threads)
        h2cw = cw_homology(cw, 2)
        results["cw_h2"] = _group_doc(h2cw)
        lines.append(f"H_2(CW) = {h2cw}")

        if quasi_ok:
            results["conclusion_h2"] = _group_doc(h2cw)
            lines.append(f"conclusion: H_2 = {h2cw}")
        else:
            results["conclusion_h2"] = None
            lines.append("hypotheses fail: no shortcut conclusion for H_2")

        run_direct = args.direct == "always" or (
            args.direct == "auto" and not quasi_ok)
        if run_direct:
            c = normalized_complex(g, args.direct_max_dim, args.threads)
            h2 = homology(c, 2)
            results["direct_h2"] = _group_doc(h2)
            lines.append(f"direct H_2 = {h2}")
            if quasi_ok:
                agree = h2.invariants() == h2cw.invariants()
                results["agreement"] = agree
                lines.append(f"shortcut agrees with direct: {agree}")
            else:
                results["hypothesis_failure"] = \
                    h2.invariants() != h2cw.invariants()
                lines.append(
                    "cellular value is not a valid H_2 conclusion here")
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "h2-pipeline", g, results, status, lines)


def cmd_cell_map(args):
    g = _load_graph(args)
    status = "complete"
    results = {}
    lines = []
    try:
        cm = cell_to_degree_class(g, args.dim, threads=args.threads)
        results = {
            "dim": args.dim,
            "cells": cm.matrix.source.ngens,
            "surjective": cm.surjective,
            "chain_map_ok": cm.chain_map_ok,
            "kernel_rank": cm.kernel_rank,
            "target": _group_doc(cm.matrix.target),
        }
        lines = [
            f"cells: {cm.matrix.source.ngens}",
            f"target slice group: {cm.matrix.target}",
            f"surjective: {cm.surjective}",
            f"kernel rank: {cm.kernel_rank}",
        ]
    except (BudgetExhausted, DimensionBudgetError):
        status = "incomplete"
    return _emit(args, "cell-map", g, results, status, lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("graph", nargs="?", default=None,
                     help="edge-list file (default: standard input)")
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker processes for enumeration")
    sub.add_argument("--time-budget", type=float, default=None,
                     help="soft wall-clock limit in seconds")


def build_parser():
    ap = argparse.ArgumentParser(
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

    hom = sp.add_parser("homology", help="discrete cubical homology")
    hom.add_argument("--max-dim", type=int, required=True,
                     help="build chains through this dimension; reports "
                          "H_0..H_{D-1}")
    hom.add_argument("--dump-complex", default=None,
                     help="write the based complex in the diff format")
    _add_common(hom)
    hom.set_defaults(func=cmd_homology)

    fil = sp.add_parser("filtered-homology",
                        help="homology of the degree-at-most-K subcomplex")
    fil.add_argument("--degree", type=int, required=True)
    fil.add_argument("--max-dim", type=int, required=True)
    _add_common(fil)
    fil.set_defaults(func=cmd_filtered_homology)

    e1 = sp.add_parser("e1-page", help="first page of the degree spectral "
                                       "sequence")
    e1.add_argument("--max-total", type=int, required=True)
    _add_common(e1)
    e1.set_defaults(func=cmd_e1_page)

    inj = sp.add_parser("injective-homology",
                        help="homology of the injective bottom edge")
    inj.add_argument("--dim", type=int, required=True)
    _add_common(inj)
    inj.set_defaults(func=cmd_injective_homology)

    einf = sp.add_parser("einf", help="limit page versus the filtration "
                                      "on homology")
    einf.add_argument("--dim", type=int, required=True)
    _add_common(einf)
    einf.set_defaults(func=cmd_einf)

    cw = sp.add_parser("cw-homology", help="cellular homology of the "
                                           "filled-cube complex")
    cw.add_argument("--max-dim", type=int, required=True)
    cw.add_argument("--dump-cells", default=None,
                    help="write the cell/boundary JSON dump to this file")
    _add_common(cw)
    cw.set_defaults(func=cmd_cw_homology)

    mono = sp.add_parser("check-mono", help="monophobicity of the n-cubes")
    mono.add_argument("--dim", type=int, required=True)
    mono.add_argument("--quasi", action="store_true",
                      help="only noninjective witnesses count")
    mono.add_argument("--certificate", default=None,
                      help="write per-cube verdicts to this JSON file")
    _add_common(mono)
    mono.set_defaults(func=cmd_check_mono)

    pipe = sp.add_parser("h2-pipeline",
                         help="H_2 via quasimonophobicity and the filled-"
                              "cube complex, with optional direct check")
    pipe.add_argument("--direct", choices=("auto", "always", "never"),
                      default="auto",
                      help="when to also compute H_2 from the chain level "
                           "(auto: only if the hypotheses fail)")
    pipe.add_argument("--direct-max-dim", type=int, default=3)
    _add_common(pipe)
    pipe.set_defaults(func=cmd_h2_pipeline)

    cmap = sp.add_parser("cell-map", help="compare cellular chains with the "
                                          "top degree slice")
    cmap.add_argument("--dim", type=int, required=True)
    _add_common(cmap)
    cmap.set_defaults(func=cmd_cell_map)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    budget = getattr(args, "time_budget", None)
    if budget is not None:
        set_time_budget(budget)
    try:
        return args.func(args)
    except (EdgeListError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        clear_time_budget()


if __name__ == "__main__":
    sys.exit(main())
