import hashlib
import json
import random

import pytest

from cube_group import det, signed_permutations
from cubehom import cwcomplex, zlinalg
from cubehom.budget import DimensionBudgetError
from cubehom.chains import block, normalized_complex
from cubehom.cwcomplex import (
    build_cw_complex,
    cell_to_degree_class,
    cw_homology,
    cw_to_json,
    cycle_space,
    geometric_class_check,
)
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)
from cubehom.zlinalg import AbelianGroup, Echelon, subquotient_homology


def boundary_squared_is_zero(c):
    for n in range(2, c.max_dim + 1):
        for col in c.columns[n]:
            acc = {}
            for i, v in col.items():
                for ii, vv in c.columns[n - 1][i].items():
                    w = acc.get(ii, 0) + v * vv
                    if w:
                        acc[ii] = w
                    else:
                        del acc[ii]
            if acc:
                return False
    return True



def test_cycle_space_rejects_a_negative_degree():
    # it used to return an echelon with ncols 0 holding rows keyed 0..5,
    # read off the top boundary
    with pytest.raises(ValueError, match="degree must be non-negative"):
        cycle_space(build_cw_complex(hypercube_graph(3), 3), -1)

def test_cw_c5_is_a_circle():
    c = build_cw_complex(cycle_graph(5), 2)
    assert [c.dim(n) for n in range(3)] == [5, 5, 0]
    assert cw_homology(c, 0).invariants() == (1, ())
    assert cw_homology(c, 1).invariants() == (1, ())


def test_cw_sphere_cells_and_euler():
    c = build_cw_complex(greene_sphere(4), 3)
    assert [c.dim(n) for n in range(4)] == [10, 16, 8, 0]
    assert c.euler_characteristic == 2
    assert boundary_squared_is_zero(c)


def test_cw_k23_cells_and_euler():
    c = build_cw_complex(complete_bipartite_graph(2, 3), 3)
    assert [c.dim(n) for n in range(4)] == [5, 6, 3, 0]
    assert c.euler_characteristic == 2
    assert boundary_squared_is_zero(c)


# sha256 of json.dumps(cw_to_json(build_cw_complex(g, 3)), sort_keys=True),
# frozen from the route that found each face cell by its edge set and its
# sign by a relating automorphism: cells, representatives, boundary order
# and every incidence sign must stay byte-identical
CW_DUMP_SHA256 = {
    "Q4": "300a7f0c64c810ed13f594d6b6b95dab263ed837fab516e8a5f8cfccdb49430e",
    "greene-sphere(5)":
        "1730174610b965cd8d4e71d783188b592c8e83683275939a5b10380c29dd8926",
}


@pytest.mark.parametrize("name,graph", [
    ("Q4", lambda: hypercube_graph(4)),
    ("greene-sphere(5)", lambda: greene_sphere(5)),
])
def test_cw_dump_frozen(name, graph):
    text = json.dumps(cw_to_json(build_cw_complex(graph(), 3)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CW_DUMP_SHA256[name]


def test_cw_homology_spheres():
    for n in (4, 5, 6):
        c = build_cw_complex(greene_sphere(n), 3)
        assert cw_homology(c, 0).invariants() == (1, ())
        assert cw_homology(c, 1).is_trivial
        assert cw_homology(c, 2).invariants() == (1, ())


def _complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# cellular H_0, H_1, H_2 of graphs with torsion or several components
KNOWN_GROUPS = [
    ("K4", _complete(4), [(1, ()), (0, (2,)), (0, ())]),
    ("K44", complete_bipartite_graph(4, 4), [(1, ()), (0, ()), (9, (2,) * 5)]),
    ("C5+K4+K1", Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(u + 5, v + 5) for u in range(4)
                          for v in range(u + 1, 4)]),
     [(3, ()), (1, (2,)), (0, ())]),
]


@pytest.mark.parametrize("name,graph,groups", KNOWN_GROUPS)
def test_cw_homology_known_groups(name, graph, groups):
    c = build_cw_complex(graph, 3)
    assert [cw_homology(c, n).invariants() for n in range(3)] == groups


def _differential_inputs():
    """The graphs above, the empty graph and a point, then seeded random
    ones: edge subsets of Q5 and graphs on at most 8 vertices."""
    yield from ((name, g) for name, g, _ in KNOWN_GROUPS)
    yield "Graph(0)", Graph(0)
    yield "Graph(1)", Graph(1)
    rng = random.Random(31)
    q5 = hypercube_graph(5).edges()
    for t in range(60):
        p = rng.random()
        yield f"Q5 subset {t}", Graph(32, [e for e in q5 if rng.random() < p])
    for t in range(100):
        n, p = rng.randint(1, 8), rng.random()
        yield f"random {t}", Graph(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if rng.random() < p])


def test_cw_homology_matches_the_uncoreduced_route():
    # the reference reads the whole cellular complex, with no coreduction
    torsion = 0
    for name, g in _differential_inputs():
        c = build_cw_complex(g, 3)
        for n in range(c.max_dim):
            got = cw_homology(c, n).invariants()
            assert got == subquotient_homology(block(c, n + 1),
                                               block(c, n)).invariants(), \
                (name, n)
            torsion += bool(got[1])
    assert torsion >= 10


def _residual_dims(monkeypatch, c, n):
    """(n+1-cells, n-cells, (n-1)-cells) that reach the exact route."""
    seen = []

    def spy(d_in, d_out):
        seen.append((d_in[2], d_in[1], d_out[1]))
        return subquotient_homology(d_in, d_out)
    monkeypatch.setattr(cwcomplex, "subquotient_homology", spy)
    cw_homology(c, n)
    return seen.pop()


def _relabeled(g, seed, name):
    """g under the seeded vertex permutation the benchmark gives `name`."""
    perm = list(range(g.n))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("name,dim,seed", [
    ("q7", 7, None), ("q7", 7, 101), ("q7", 7, 102), ("q7", 7, 103),
    ("q6", 6, 101), ("q6", 6, 102), ("q6", 6, 103)])
def test_coreduction_leaves_hypercubes_only_their_3_cells(monkeypatch, name,
                                                          dim, seed):
    # the order of the retries decides the relabeled ones: a LIFO stack
    # strands squares and edges of the relabeled 7-cube, not of the 7-cube
    g = hypercube_graph(dim)
    c = build_cw_complex(g if seed is None else _relabeled(g, seed, name), 3)
    top, squares, edges = _residual_dims(monkeypatch, c, 2)
    assert (squares, edges) == (0, 0) and 0 < top < c.dim(3)


def test_block_restricts_cw_columns_by_hand():
    c = build_cw_complex(hypercube_graph(3), 3)
    for n, cols, rows in ((2, [0], [0, 1]), (2, [1, 4, 5], [0, 2, 3, 7, 11]),
                          (1, None, [2, 5]), (2, [3], None), (3, [0], [5])):
        picked = c.columns[n] if cols is None else [c.columns[n][j]
                                                   for j in cols]
        at = {i: r for r, i in enumerate(rows or range(c.dim(n - 1)))}
        hand = [{at[i]: v for i, v in col.items() if i in at}
                for col in picked]
        assert block(c, n, cols, rows) == (hand, len(at), len(picked))


def test_coreduction_leaves_the_sphere_one_square(monkeypatch):
    c = build_cw_complex(greene_sphere(60), 3)
    _, squares, _ = _residual_dims(monkeypatch, c, 2)
    assert squares <= 1 < c.dim(2)
    assert cw_homology(c, 2).invariants() == (1, ())


def test_coreduction_reads_the_clock(monkeypatch):
    # the exact route is stubbed out, so only the coreduction reads it
    c, calls = build_cw_complex(hypercube_graph(7), 3), []
    monkeypatch.setattr(zlinalg, "checkpoint", lambda: calls.append(1))
    monkeypatch.setattr(cwcomplex, "subquotient_homology",
                        lambda d_in, d_out: AbelianGroup.trivial())
    cw_homology(c, 2)
    assert calls


def test_cw_homology_guards():
    c = build_cw_complex(hypercube_graph(3), 3)
    with pytest.raises(DimensionBudgetError):
        cw_homology(c, c.max_dim)
    with pytest.raises(ValueError, match="non-negative"):
        cw_homology(c, -1)


def test_cw_homology_k23_sphere():
    c = build_cw_complex(complete_bipartite_graph(2, 3), 3)
    assert cw_homology(c, 2).invariants() == (1, ())
    assert cw_homology(c, 1).is_trivial


def test_cw_homology_solid_cube_vs_shell():
    g = hypercube_graph(3)
    shell = build_cw_complex(g, 2)     # 2-skeleton: boundary sphere
    assert [shell.dim(n) for n in range(3)] == [8, 12, 6]
    assert cw_homology(shell, 1).is_trivial
    # H_2 of the shell needs (absent) 3-cells: Z for the 2-sphere
    full = build_cw_complex(g, 3)
    assert full.dim(3) == 1
    assert cw_homology(full, 2).is_trivial
    from cubehom.zlinalg import kernel_echelon

    ker = kernel_echelon(shell.columns[2], shell.dim(1), shell.dim(2))
    assert ker.rank == 1  # the fundamental shell cycle


def test_euler_matches_homology_ranks():
    for g in (cycle_graph(5), greene_sphere(4),
              complete_bipartite_graph(2, 3), hypercube_graph(3)):
        c = build_cw_complex(g, 4)  # one spare dimension, empty everywhere
        assert c.dim(4) == 0
        chi = sum((-1) ** n * cw_homology(c, n).free_rank
                  for n in range(c.max_dim))
        assert chi == c.euler_characteristic


def test_homology_invariant_under_orientation_flips():
    # flipping a cell's representative changes a column sign only
    rng = random.Random(9)
    g = greene_sphere(4)
    base = build_cw_complex(g, 3)
    group = signed_permutations(2)
    flipped = build_cw_complex(g, 3)
    for j, q in enumerate(flipped.cells[2]):
        if det(*rng.choice(group)) == -1:
            flipped.columns[2][j] = {i: -v
                                     for i, v in flipped.columns[2][j].items()}
    for n in range(3):
        assert cw_homology(flipped, n).invariants() == \
            cw_homology(base, n).invariants()


def test_cell_map_sphere_isomorphism():
    g = greene_sphere(4)
    cm = cell_to_degree_class(g, 2)
    assert cm.chain_map_ok
    assert cm.surjective
    assert cm.kernel_rank == 0
    assert cm.matrix.target.invariants() == (8, ())


def test_cell_map_k23_kernel():
    g = complete_bipartite_graph(2, 3)
    cm = cell_to_degree_class(g, 2)
    assert cm.surjective
    assert cm.kernel_rank > 0  # the sphere cycle dies in the slice group


def test_cell_map_vertices():
    g = cycle_graph(5)
    cm = cell_to_degree_class(g, 0)
    assert cm.surjective and cm.kernel_rank == 0
    assert cm.matrix.target.invariants() == (5, ())


def test_geometric_class_sphere():
    g = greene_sphere(4)
    cw = build_cw_complex(g, 3)
    fundamental = cycle_space(cw, 2)
    assert fundamental.rank == 1
    cycle = dict(fundamental.rows[0])
    res = geometric_class_check(g, cycle, 2)
    assert res.quasimonophobic
    assert res.cw_class_nonzero
    assert res.inj_class_nonzero


def test_geometric_class_k23():
    g = complete_bipartite_graph(2, 3)
    cw = build_cw_complex(g, 3)
    fundamental = cycle_space(cw, 2)
    assert fundamental.rank == 1
    cycle = dict(fundamental.rows[0])
    res = geometric_class_check(g, cycle, 2)
    assert not res.quasimonophobic
    assert res.cw_class_nonzero
    assert not res.inj_class_nonzero


def test_geometric_class_zero_cycle():
    g = greene_sphere(4)
    res = geometric_class_check(g, {}, 2)
    assert not res.cw_class_nonzero and not res.inj_class_nonzero


def test_geometric_class_rejects_noncycles():
    g = greene_sphere(4)
    with pytest.raises(ValueError):
        geometric_class_check(g, {0: 1}, 2)
