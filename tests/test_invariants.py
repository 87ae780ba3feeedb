"""Cross-cutting invariants that tie the modules together."""

import random

from cubehom.chains import (
    degree_quotient_complex,
    homology,
    normalized_complex,
)
from cubehom.cubes import MINUS, PLUS, face, singular_cubes
from cubehom.cwcomplex import build_cw_complex, cw_homology, cw_to_json
from cubehom.graphs import Graph, cycle_graph, greene_sphere, hypercube_graph
from cubehom.monophobic import is_quasimonophobic
from cubehom.spectral import injective_homology
from cubehom.zlinalg import echelon_from_rows, split_echelon
from test_zlinalg import sparse


def test_face_relation_dimension_four():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    count = 0
    for c in singular_cubes(g, 4, "all"):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                for a in (MINUS, PLUS):
                    for b in (MINUS, PLUS):
                        assert face(face(c, j, b), i, a) == \
                            face(face(c, i, a), j - 1, b)
        count += 1
        if count >= 60:
            break
    assert count == 60


def test_lattice_ops_against_box_enumeration():
    # brute-force oracle: membership over all points of a bounded box
    rng = random.Random(31)
    for _ in range(25):
        def rand_lat():
            k = rng.randint(1, 2)
            return echelon_from_rows(
                [sparse([rng.randint(-3, 3) for _ in range(2)])
                 for _ in range(k)], 2)

        def member(lat, v):
            return lat.contains(sparse(v))

        a, b = rand_lat(), rand_lat()
        # the sum is echelonized from both bases; the intersection is the
        # zero-top part of the stacked lattice spanned by (r, r) over a and
        # (-s, 0) over b
        s = echelon_from_rows(a.rows + b.rows, 2)
        _, i = split_echelon(
            [(r, r) for r in a.rows]
            + [({k: -v for k, v in r.items()}, {}) for r in b.rows], 2, 2)
        box = range(-6, 7)
        for x in box:
            for y in box:
                v = [x, y]
                in_a = member(a, v)
                in_b = member(b, v)
                if in_a or in_b:
                    assert member(s, v)
                assert member(i, v) == (in_a and in_b)
        # sum points inside the box: every a+b combination from the box core
        for x in range(-3, 4):
            for y in range(-3, 4):
                if member(a, [x, y]):
                    for u in range(-3, 4):
                        for w in range(-3, 4):
                            if member(b, [u, w]):
                                assert member(s, [x + u, y + w])


def test_slice_vanishes_above_total_degree():
    # the degree-k slice has no chains below dimension k
    c = normalized_complex(greene_sphere(4), 3)
    for k in (1, 2, 3):
        q = degree_quotient_complex(c, k)
        for n in range(k):
            assert q.dim(n) == 0
            assert homology(q, n).is_trivial


def test_slice_vanishes_above_cubical_dimension():
    c = normalized_complex(greene_sphere(4), 3)  # cubical dimension 2
    q = degree_quotient_complex(c, 3)
    for n in range(4):
        assert q.dim(n) == 0


def test_cw_injects_into_injective_homology_at_desk_scale():
    # for n-quasimonophobic graphs the cellular group embeds in the
    # injective homology, and matches it when (n-1)-quasimonophobicity
    # also holds; every graph here satisfies both at n = 2
    for g in (greene_sphere(4), greene_sphere(5), hypercube_graph(2),
              cycle_graph(6)):
        assert is_quasimonophobic(g, 2) and is_quasimonophobic(g, 1)
        cw = build_cw_complex(g, 3)
        c = normalized_complex(g, 3)
        h_cw = cw_homology(cw, 2)
        h_inj = injective_homology(c, 2)
        assert h_cw.invariants() == h_inj.invariants()


def test_cw_json_dump_shape():
    c = build_cw_complex(cycle_graph(4), 2)
    doc = cw_to_json(c)
    assert {cell["dim"] for cell in doc["cells"]} == {0, 1, 2}
    square = next(cell for cell in doc["cells"] if cell["dim"] == 2)
    assert len(square["corners"]) == 4
    assert len(square["edges"]) == 4
    for entry in doc["boundary"]:
        assert set(entry) == {"dim", "row", "col", "coeff"}
