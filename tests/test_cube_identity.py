"""A cube subgraph is identified by its canonical parametrization.

`cube_subgraphs`, `build_cw_complex` and `check_cube` read cells, face
cells, incidence signs and witnesses off `canonical_parametrization`.
The routes they replaced stay here as oracles: the (vertices, edges)
dedupe of the injective stream, the edge-keyed face lookup with the
relating automorphism read off corner positions, and the witness search
that counts supported faces exactly.
"""

import random
from itertools import combinations

import pytest

from cube_group import act, corner_map, det, signed_permutations
from cubehom.cubes import (
    CubeSubgraph,
    canonical_parametrization,
    cube_subgraphs,
    face_getters,
    image_subgraph,
    is_injective,
    singular_cubes,
)
from cubehom.cwcomplex import CwCubeComplex, build_cw_complex, cw_to_json
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)
from cubehom.monophobic import (
    check_graph,
    is_rigid,
    supported_face_count,
)


def _random_graphs(count=40, seed=13):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(3, 8)
        p = rng.choice((0.3, 0.45, 0.6))
        graphs.append(Graph(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if rng.random() < p]))
    return graphs


DIFFERENTIAL = ([hypercube_graph(4), greene_sphere(5),
                 complete_bipartite_graph(3, 4), cycle_graph(4),
                 complete_bipartite_graph(2, 3)] + _random_graphs())
IDS = ["Q4", "gs5", "K34", "C4", "K23"] + [f"random{i}" for i in range(40)]


def _dedupe_subgraphs(g, n):
    """The injective stream deduped by image: each subgraph is met first
    at its least parametrization."""
    seen = {}
    for corners in singular_cubes(g, n, "injective"):
        key = image_subgraph(corners)
        if key not in seen:
            seen[key] = CubeSubgraph(n, *key, corners)
    return list(seen.values())


def _relating_sign(sigma, gamma):
    """Sign of the g with gamma = sigma o g, read off corner positions."""
    n = len(sigma).bit_length() - 1
    pos = {v: b for b, v in enumerate(sigma)}
    cmap = [pos[v] for v in gamma]
    base = cmap[0]
    src = [None] * n
    for i in range(n):
        src[(cmap[1 << i] ^ base).bit_length() - 1] = i
    flip = tuple((base >> j) & 1 for j in range(n))
    assert act(sigma, src, flip) == tuple(gamma)
    return det(src, flip)


def _edge_keyed_complex(g, max_dim):
    """Face cells found by their edge set (vertex set at n = 1)."""
    cells = [_dedupe_subgraphs(g, n) for n in range(max_dim + 1)]
    columns = [[]]
    for n in range(1, max_dim + 1):
        below = {q.edges if n > 1 else q.vertices: i
                 for i, q in enumerate(cells[n - 1])}
        cols = []
        for q in cells[n]:
            col = {}
            for t, get in enumerate(face_getters(n)):
                f = get(q.rep)
                verts, edges = image_subgraph(f)
                pos = below[edges if n > 1 else verts]
                eps = 1 if n == 1 else _relating_sign(cells[n - 1][pos].rep, f)
                sgn = -1 if t & 1 == (t >> 1) & 1 else 1
                w = col.get(pos, 0) + sgn * eps
                if w:
                    col[pos] = w
                else:
                    del col[pos]
            cols.append(col)
        columns.append(cols)
    return CwCubeComplex(max_dim, cells, columns)


def _count_search(g, q, mode):
    """The witness search deciding each candidate by an exact count."""
    size = len(q.rep)
    for tau in singular_cubes(g, q.dim + 1, prefix=q.rep):
        if mode == "quasimonophobic" and is_injective(tau):
            continue
        if supported_face_count(tau, q) == 1:
            return False, tuple(tau[(t & 1) * size + (t >> 1)]
                                for t in range(2 * size))
    return True, None


@pytest.mark.parametrize("g", DIFFERENTIAL, ids=IDS)
def test_cube_subgraphs_match_the_dedupe_route(g):
    for n in range(4):
        got = [(q.vertices, q.edges, q.rep) for q in cube_subgraphs(g, n)]
        want = [(q.vertices, q.edges, q.rep) for q in _dedupe_subgraphs(g, n)]
        assert got == want


@pytest.mark.parametrize("g", DIFFERENTIAL, ids=IDS)
def test_cw_complex_matches_the_edge_keyed_route(g):
    assert cw_to_json(build_cw_complex(g, 3)) == \
        cw_to_json(_edge_keyed_complex(g, 3))


@pytest.mark.parametrize("g", DIFFERENTIAL, ids=IDS)
@pytest.mark.parametrize("mode", ["monophobic", "quasimonophobic"])
def test_check_graph_matches_the_count_search(g, mode):
    for n in range(3):
        got = [(c.cube.rep, c.rigid, c.passes, c.witness)
               for c in check_graph(g, n, mode).checks]
        want = []
        for q in _dedupe_subgraphs(g, n):
            rigid = is_rigid(g, q)
            verdict = _count_search(g, q, mode) if rigid else (False, None)
            want.append((q.rep, rigid) + verdict)
        assert got == want


HELPER_GRAPHS = [hypercube_graph(4), greene_sphere(4),
                 complete_bipartite_graph(2, 3),
                 complete_bipartite_graph(3, 4), cycle_graph(4)]


@pytest.mark.parametrize("g", HELPER_GRAPHS,
                         ids=["Q4", "gs4", "K23", "K34", "C4"])
def test_canonical_parametrization_is_the_least(g):
    """The least parametrization, with the determinant of the unique
    signed permutation that carries the cube onto it."""
    for n in range(5):
        group = [(a, corner_map(*a)) for a in signed_permutations(n)]
        canonical = []
        for c in singular_cubes(g, n, "injective"):
            params = {tuple(c[m] for m in cmap): a for a, cmap in group}
            assert len(params) == len(group)
            least = min(params)
            assert canonical_parametrization(c) == (det(*params[least]), least)
            if least == c:
                canonical.append(c)
        # the shape test of cube_subgraphs keeps exactly the canonical cubes
        assert [q.rep for q in cube_subgraphs(g, n)] == canonical


@pytest.mark.parametrize("g", [hypercube_graph(3), greene_sphere(4),
                               complete_bipartite_graph(2, 3), cycle_graph(5)],
                         ids=["Q3", "gs4", "K23", "C5"])
def test_rigid_support_is_the_vertex_set(g):
    """For rigid Q, the faces supported by Q are the faces hitting exactly
    Q's vertices, on every coface the witness search visits."""
    checked = 0
    for n in range(3):
        for q in cube_subgraphs(g, n):
            if not is_rigid(g, q):
                continue
            verts = set(q.vertices)
            for tau in singular_cubes(g, n + 1, prefix=q.rep):
                same = sum(set(get(tau)) == verts
                           for get in face_getters(n + 1))
                assert supported_face_count(tau, q) == same
                checked += 1
    assert checked


def _petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(i + 5, 5 + (i + 2) % 5) for i in range(5)])


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


GROWTH = ([hypercube_graph(4), Graph(4, list(combinations(range(4), 2))),
           complete_bipartite_graph(3, 3), _petersen(),
           _relabeled(greene_sphere(4), 18),
           Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)])]
          + _random_graphs(count=6, seed=18))
GROWTH_IDS = (["Q4", "K4", "K33", "petersen", "gs4-relabeled", "isolated"]
              + [f"random{i}" for i in range(6)])


@pytest.mark.parametrize("g", GROWTH, ids=GROWTH_IDS)
def test_cube_subgraphs_are_the_canonical_parametrizations(g):
    """Growing level by level keeps exactly the distinct canonical
    parametrizations of the injective stream, in order."""
    for n in range(5):
        want = sorted({canonical_parametrization(c)[1]
                       for c in singular_cubes(g, n, "injective")})
        cells = cube_subgraphs(g, n)
        assert [q.rep for q in cells] == want
        for q in cells:
            assert q.dim == n
            assert (q.vertices, q.edges) == image_subgraph(q.rep)
