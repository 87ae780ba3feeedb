import hashlib
import os
import random

import pytest

from cubehom.chains import dump_complex, normalized_complex
from cubehom.cubes import (
    MINUS,
    PLUS,
    CubeAutomorphism,
    _worker_count,
    all_automorphisms,
    apply_automorphism,
    cube_degree,
    cube_dim,
    cube_subgraphs,
    cubical_dimension,
    enumerate_singular_cubes,
    face,
    face_getters,
    image_subgraph,
    is_degenerate,
    is_graph_map,
    is_injective,
    iter_faces,
    relating_automorphism,
    singular_cubes,
)
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)

# the noninjective 3-cube in K_{2,3} whose boundary kills the sphere cycle;
# bipartition classes are {0,1} and {2,3,4} in generator vertex order
K23_WITNESS = (0, 3, 2, 1, 4, 0, 0, 4)


def k2():
    return Graph(2, [(0, 1)])


def k3():
    return cycle_graph(3)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_face_of_edge_is_endpoint():
    assert face((3, 5), 1, MINUS) == (3,)
    assert face((3, 5), 1, PLUS) == (5,)


def test_face_out_of_range():
    with pytest.raises(ValueError):
        face((0, 1), 2, MINUS)


def test_face_table_matches_index_formula():
    for n in range(7):
        corners = tuple(range(100, 100 + (1 << n)))
        assert len(face_getters(n)) == 2 * n
        for i in range(1, n + 1):
            low = (1 << (i - 1)) - 1
            for side in (MINUS, PLUS):
                bit = side << (i - 1)
                want = tuple(corners[(c & low) | bit | ((c >> (i - 1)) << i)]
                             for c in range(1 << (n - 1)))
                assert face(corners, i, side) == want
                assert face_getters(n)[2 * (i - 1) + side](corners) == want
        assert [(i, side) for i, side, _ in iter_faces(corners)] == \
            [(i, side) for i in range(1, n + 1) for side in (MINUS, PLUS)]


def test_faces_of_one_cube_are_one_tuples():
    for corners in ((3, 5), [3, 5]):
        assert [f for _, _, f in iter_faces(corners)] == [(3,), (5,)]
        assert face(corners, 1, MINUS) == (3,)


# sha256 of dump_complex(normalized_complex(g, 3)), frozen from the
# per-call face arithmetic the face tables replaced: basis order, degrees
# and every boundary sign must stay byte-identical
COMPLEX_DUMP_SHA256 = {
    "greene-sphere(4)":
        "193fcc7b69f3621795b62d96fa8ca2a4864e7161c62e2b2ce3a59256063a9115",
    "K_{2,3}":
        "b4ca4ce2fae04aba311fa05b9318bb29b0bdfb9a0cc510da4edd51bc65e6d6ad",
}


@pytest.mark.parametrize("name,graph", [
    ("greene-sphere(4)", lambda: greene_sphere(4)),
    ("K_{2,3}", lambda: complete_bipartite_graph(2, 3)),
])
def test_complex_dump_frozen(name, graph):
    text = dump_complex(normalized_complex(graph(), 3))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        COMPLEX_DUMP_SHA256[name]


def test_k23_witness_is_graph_map():
    g = complete_bipartite_graph(2, 3)
    assert is_graph_map(g, K23_WITNESS)
    assert not is_injective(K23_WITNESS)


def test_k23_witness_faces():
    # bottom 3-face: the injective square on (00,10,01,11)
    bottom = face(K23_WITNESS, 3, MINUS)
    assert bottom == (0, 3, 2, 1)
    assert is_injective(bottom)
    # top 3-face collapses onto an edge
    top = face(K23_WITNESS, 3, PLUS)
    assert top == (4, 0, 0, 4)
    assert not is_injective(top)


def test_face_relation_exhaustive_small():
    rng = random.Random(0)
    g = greene_sphere(4)
    cubes = [c for c in singular_cubes(g, 3, "all")][:50]
    for c in cubes:
        n = cube_dim(c)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in (MINUS, PLUS):
                    for b in (MINUS, PLUS):
                        assert face(face(c, j, b), i, a) == \
                            face(face(c, i, a), j - 1, b)


# ---------------------------------------------------------------------------
# degeneracy and degree
# ---------------------------------------------------------------------------

def test_degeneracy_basics():
    assert is_degenerate((7, 7, 7, 7))      # constant square
    assert not is_degenerate((0, 1, 2, 3))  # injective square
    assert not is_degenerate((5,))          # 0-cube, vacuous


def test_degree_basics():
    assert cube_degree((4, 4, 4, 4, 4, 4, 4, 4)) == 0  # constant 3-cube
    assert cube_degree((0, 1, 2, 3, 4, 5, 6, 7)) == 3  # injective 3-cube
    assert cube_degree(K23_WITNESS) == 2


def test_degree_zero_positive_dim_is_degenerate():
    g = greene_sphere(4)
    for n in (1, 2):
        for c in singular_cubes(g, n, "all"):
            if cube_degree(c) == 0:
                assert is_degenerate(c)


def test_degree_monotone_under_faces():
    g = complete_bipartite_graph(2, 3)
    count = 0
    for c in singular_cubes(g, 3, "nondegenerate"):
        d = cube_degree(c)
        for i in range(1, 4):
            for s in (MINUS, PLUS):
                assert cube_degree(face(c, i, s)) <= d
        count += 1
        if count >= 200:
            break


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_identity_and_reflection():
    sq = (0, 1, 2, 3)
    assert apply_automorphism(sq, CubeAutomorphism.identity(2)) == sq
    t1 = CubeAutomorphism.reflection(2, 1)
    assert apply_automorphism((5, 9), CubeAutomorphism.reflection(1, 1)) == (9, 5)
    assert t1.sign == -1


def test_swap_on_square():
    # T_{1,2} exchanges the two off-diagonal corners
    sq = (0, 1, 2, 3)
    t12 = CubeAutomorphism.swap(2, 1, 2)
    assert apply_automorphism(sq, t12) == (0, 2, 1, 3)
    assert t12.sign == -1


def test_composition_law():
    rng = random.Random(1)
    sigma = tuple(range(8))
    auts = all_automorphisms(3)
    for _ in range(60):
        g1 = rng.choice(auts)
        g2 = rng.choice(auts)
        lhs = apply_automorphism(apply_automorphism(sigma, g1), g2)
        rhs = apply_automorphism(sigma, g1.compose(g2))
        assert lhs == rhs
        assert g1.compose(g2).sign == g1.sign * g2.sign
        inv = g1.inverse()
        assert g1.compose(inv) == CubeAutomorphism.identity(3)


def test_group_order():
    assert len(set(all_automorphisms(3))) == 48  # 2^3 * 3!


def test_relating_automorphism_basics():
    sigma = (10, 11, 12, 13)
    aut, sign = relating_automorphism(sigma, sigma)
    assert aut == CubeAutomorphism.identity(2) and sign == 1

    t1 = CubeAutomorphism.reflection(2, 1)
    gamma = apply_automorphism(sigma, t1)
    aut, sign = relating_automorphism(sigma, gamma)
    assert sign == -1 and apply_automorphism(sigma, aut) == gamma

    # quarter turn = swap then flip: determinant +1
    r12 = CubeAutomorphism.swap(2, 1, 2).compose(CubeAutomorphism.reflection(2, 2))
    gamma = apply_automorphism(sigma, r12)
    _, sign = relating_automorphism(sigma, gamma)
    assert sign == 1


def test_relating_automorphism_sign_multiplicative():
    rng = random.Random(2)
    sigma = (3, 1, 4, 5, 9, 2, 6, 8)
    auts = all_automorphisms(3)
    for _ in range(40):
        gamma = apply_automorphism(sigma, rng.choice(auts))
        tau = apply_automorphism(sigma, rng.choice(auts))
        s1 = relating_automorphism(sigma, gamma)[1]
        s2 = relating_automorphism(gamma, tau)[1]
        s3 = relating_automorphism(sigma, tau)[1]
        assert s1 * s2 == s3


def test_relating_automorphism_errors():
    with pytest.raises(ValueError):
        relating_automorphism((0, 1, 2, 3), (0, 1, 2, 9))  # different image
    with pytest.raises(ValueError):
        relating_automorphism((0, 0), (0, 0))  # noninjective
    with pytest.raises(ValueError):
        relating_automorphism((0, 1), (0, 1, 2, 3))  # dimension mismatch


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_small():
    assert len(enumerate_singular_cubes(k2(), 1, "all")) == 4
    assert len(enumerate_singular_cubes(k3(), 1, "all")) == 9
    # 16 total assignments minus 6 degenerate, by inclusion-exclusion
    assert len(enumerate_singular_cubes(k2(), 2, "nondegenerate")) == 10


def test_enumeration_matches_brute_force():
    from itertools import product

    for g in (k2(), k3(), cycle_graph(4)):
        for n in (0, 1, 2):
            brute = [c for c in product(range(g.n), repeat=1 << n)
                     if is_graph_map(g, c)]
            got = enumerate_singular_cubes(g, n, "all")
            assert got == sorted(brute)
            assert got == sorted(set(got))  # no duplicates


def test_enumeration_lex_order_and_chunking():
    g = greene_sphere(4)
    full = list(singular_cubes(g, 2, "nondegenerate"))
    assert full == sorted(full)
    chunked = []
    for v in range(g.n):
        chunked.extend(singular_cubes(g, 2, "nondegenerate", first_corner=v))
    assert chunked == full


def test_degree_filter():
    g = greene_sphere(4)
    inj = enumerate_singular_cubes(g, 2, "injective")
    deg2 = [c for c in enumerate_singular_cubes(g, 2, ("degree", 2))]
    assert set(inj) == set(deg2)  # at top dimension, degree n means injective
    assert len(inj) == 64  # 8 squares, 8 parametrizations each


def test_worker_count_caps():
    cpus = os.cpu_count() or 1
    assert _worker_count(2, 10) == min(2, cpus)
    assert _worker_count(8, 3) == min(3, cpus)
    assert _worker_count(10 ** 9, 10 ** 9) == cpus
    assert _worker_count(10 ** 9, 5) == min(5, cpus)


def test_worker_count_unknown_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(10 ** 9, 10 ** 9) == 1


def test_parallel_enumeration_identical():
    g = greene_sphere(4)
    seq = enumerate_singular_cubes(g, 2, "nondegenerate", threads=1)
    par = enumerate_singular_cubes(g, 2, "nondegenerate", threads=4)
    assert seq == par


# ---------------------------------------------------------------------------
# cube subgraphs and cubical dimension
# ---------------------------------------------------------------------------

def test_cube_subgraphs_counts():
    assert len(cube_subgraphs(hypercube_graph(3), 2)) == 6
    assert len(cube_subgraphs(greene_sphere(4), 2)) == 8
    assert len(cube_subgraphs(complete_bipartite_graph(2, 3), 2)) == 3


def test_cube_subgraph_reps_are_lex_minimal():
    for q in cube_subgraphs(greene_sphere(4), 2):
        img = image_subgraph(q.rep)
        assert img == (q.vertices, q.edges)
        auts = all_automorphisms(2)
        params = [apply_automorphism(q.rep, a) for a in auts]
        assert q.rep == min(params)


def test_greene_sphere_squares_shape():
    # each square is {i, i+1, i+2, apex} for a consecutive cycle triple
    g = greene_sphere(4)
    for q in cube_subgraphs(g, 2):
        cyc = [v for v in q.vertices if v < 8]
        apex = [v for v in q.vertices if v >= 8]
        assert len(cyc) == 3 and len(apex) == 1


def test_cubical_dimension():
    assert cubical_dimension(greene_sphere(4)) == 2
    assert cubical_dimension(hypercube_graph(4)) == 4
    assert cubical_dimension(k3()) == 1
    assert cubical_dimension(Graph(1)) == 0
    with pytest.raises(ValueError):
        cubical_dimension(Graph(0))
