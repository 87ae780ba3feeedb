import tracemalloc

import pytest

from cube_group import act, reflection
from echelon_reference import assert_same_passes
from cubehom.budget import DimensionBudgetError
from cubehom.chains import (
    _filtration_positions,
    _slice_positions,
    block,
    degree_quotient_complex,
    degree_subcomplex,
    dump_complex,
    filtered_homology,
    flip_prism,
    homology,
    homology_presentation,
    normalized_complex,
)
from cubehom.cubes import (
    MINUS,
    PLUS,
    cube_degree,
    face,
    is_degenerate,
    is_injective,
    iter_faces,
    singular_cubes,
)
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)
from cubehom.zlinalg import Echelon, SignedRows, echelon_from_rows


def positions(c, n):
    """Cube -> position in c.basis[n]."""
    return {q: i for i, q in enumerate(c.basis[n])}


def boundary_vector(c, chain, n):
    """Boundary of a sparse chain in basis coordinates."""
    out = {}
    for j, a in chain.items():
        for i, v in c.columns[n][j].items():
            w = out.get(i, 0) + a * v
            if w:
                out[i] = w
            else:
                del out[i]
    return out


def _list_route(g, max_dim):
    """(basis, degrees, columns) as lists of corner tuples, degrees and
    {row: coeff} dicts, each face entered with sign (-1)^(i+side)."""
    basis = [list(singular_cubes(g, n, "nondegenerate"))
             for n in range(max_dim + 1)]
    columns = [[]]
    for n in range(1, max_dim + 1):
        at = positions_of(basis[n - 1])
        cols = []
        for q in basis[n]:
            col = {}
            for i, side, f in iter_faces(q):
                if f in at:
                    col[at[f]] = col.get(at[f], 0) + (-1) ** (i + side)
            cols.append({j: v for j, v in col.items() if v})
        columns.append(cols)
    return basis, [[cube_degree(q) for q in b] for b in basis], columns


def positions_of(cubes):
    return {q: i for i, q in enumerate(cubes)}


@pytest.mark.parametrize("g", [Graph(0), Graph(3), Graph(2, [(0, 1)]),
                               cycle_graph(5), complete_bipartite_graph(2, 3)],
                         ids=["empty", "edgeless", "k2", "c5", "k23"])
def test_packed_store_round_trip(g):
    # the flat arrays give back what the list route builds: by length, by
    # index (negative ones too) and by iteration
    c = normalized_complex(g, 3)
    basis, degrees, columns = _list_route(g, 3)
    for n in range(4):
        stored = [(c.basis[n], basis[n]), (c.degrees[n], degrees[n])]
        if n:
            stored.append((c.columns[n], columns[n]))
        for got, want in stored:
            assert len(got) == len(want)
            assert list(got) == want
            assert [got[i] for i in range(len(want))] == want
            assert [got[i] for i in range(-len(want), 0)] == want
            for i in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    got[i]
    if g.n == 2:
        # a 3-cube of the edge with two equal faces of one sign
        assert {-2} <= {v for col in c.columns[3] for v in col.values()}
    # every read is a fresh dict: changing one leaves the store as it was
    if c.dim(1):
        c.columns[1][0].clear()
        assert c.columns[1][0] == columns[1][0]


def _block_reads(c):
    """(n, cols, rows) of every kind of `block` read of c: the full
    boundaries, the degree slices, the filtration levels, the parts above a
    degree cut (no cubes selected) and the bottom-edge relations."""
    for n in range(1, c.max_dim + 1):
        yield n, None, None
        for k in range(c.max_dim + 1):
            yield n, _slice_positions(c, n, k), _slice_positions(c, n - 1, k)
            keep = _filtration_positions(c, k, n)
            yield n, keep[n], keep[n - 1]
            yield n, None, [i for i, d in enumerate(c.degrees[n - 1]) if d > k]
            if k == n - 1:
                yield n, _slice_positions(c, n, k), _slice_positions(c, k, k)


def _same_echelon(source, nrows):
    """The echelon of a `SignedRows` source read as face tuples, checked
    against the one of its rows listed as dicts, each built with the same
    exact adds as the slot-by-slot reference builds; returns the dicts."""
    assert isinstance(source, SignedRows)
    dicts = list(source())
    got, want = (assert_same_passes(r, nrows)[0] for r in (source, dicts))
    assert (got.rows, got.pivots) == (want.rows, want.pivots)
    return dicts


@pytest.mark.parametrize("g", [Graph(0), Graph(3), Graph(2, [(0, 1)]),
                               cycle_graph(5), complete_bipartite_graph(2, 3),
                               greene_sphere(4)],
                         ids=["empty", "edgeless", "k2", "c5", "k23", "gs4"])
def test_block_reads_echelonize_alike_as_faces_and_dicts(g):
    # every kind of read gives the same echelon through the face route as
    # through its dicts, and the dicts the stored columns restricted in
    # place, in the same key order; on a graph with an edge the reads
    # cover entries +-2 (K2's 3-cubes), faces that cancel and columns with
    # every slot -1
    c = normalized_complex(g, 3)
    kinds = set()
    for n, cols, rows in _block_reads(c):
        source, nrows, _ = block(c, n, cols, rows)
        dicts = _same_echelon(source, nrows)
        at = {r: i for i, r in enumerate(range(nrows) if rows is None
                                         else rows)}
        want = [[(at[r], v) for r, v in c.columns[n][j].items() if r in at]
                for j in (range(c.dim(n)) if cols is None else cols)]
        assert [list(d.items()) for d in dicts] == want
        for f, d in zip(source.read(), dicts):
            kinds.add("2" if {2, -2} & set(d.values()) else "1")
            if any(i >= 0 and i not in d for i in f):
                kinds.add("cancel")
            if set(f) == {-1}:
                kinds.add("empty")
    for copy in (degree_subcomplex(c, 1), degree_quotient_complex(c, 1)):
        for n in range(1, 4):
            _same_echelon(*block(copy, n)[:2])
    assert kinds == ({"1", "2", "cancel", "empty"} if c.dim(1) else set())


def test_face_route_takes_the_exact_adds_after_a_non_unit_replay(
        monkeypatch):
    # the picks {1: 3} and {0: 1, 1: 2} replay to the pivot 3, so no
    # certificate is built and pass 2 adds every row with an entry
    # exactly, merged: the rejected {1: 1} saturates the lattice
    signs = (1, 1, 1, 1, -1)
    rows = [(0, 1, 1, -1, -1), (1, 1, 1, -1, -1), (1, -1, -1, -1, 1),
            (-1, -1, -1, -1, -1), (1, -1, -1, -1, -1)]
    source = SignedRows(lambda: iter(rows), signs)
    assert list(source()) == [{0: 1, 1: 2}, {1: 3}, {}, {}, {1: 1}]
    added, add = [], Echelon.add
    monkeypatch.setattr(Echelon, "add",
                        lambda ech, vec: added.append(dict(vec)) or
                        add(ech, vec))
    got = echelon_from_rows(source, 2)
    faces, added[:] = [a for a in added if a], []
    want = echelon_from_rows(list(source()), 2)
    assert faces == added == [{1: 3}, {0: 1, 1: 2},
                              {0: 1, 1: 2}, {1: 3}, {1: 1}]
    assert (got.rows, got.pivots) == (want.rows, want.pivots)
    assert got.pivots == [0, 1] and got.has_unit_pivots()


def test_stored_complex_is_packed():
    # greene-sphere(6) through dimension 3 held 15.9 MiB as one tuple and
    # one dict per cube
    g = greene_sphere(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = normalized_complex(g, 3)
        held = (tracemalloc.get_traced_memory()[0] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert c.dim(3) == 41160
    assert held <= 4


def test_single_vertex_basis_sizes():
    g = Graph(1)
    c = normalized_complex(g, 2)
    assert [c.dim(n) for n in range(3)] == [1, 0, 0]


def test_k2_edge_boundary():
    g = Graph(2, [(0, 1)])
    c = normalized_complex(g, 1)
    assert c.dim(1) == 2
    j = positions(c, 1)[(0, 1)]
    col = c.columns[1][j]
    # boundary of the edge 0->1 is -(<0> - <1>) = <1> - <0>
    at0 = positions(c, 0)
    i0, i1 = at0[(0,)], at0[(1,)]
    assert col == {i0: -1, i1: 1}


def test_square_boundary_formula():
    g = hypercube_graph(2)  # corners 0,1,2,3 with edges of the 4-cycle
    c = normalized_complex(g, 2)
    sq = (0, 1, 2, 3)
    col = c.columns[2][positions(c, 2)[sq]]
    at1 = positions(c, 1)
    expect = {}
    expect[at1[face(sq, 1, MINUS)]] = -1   # -(edge 0->2)
    expect[at1[face(sq, 1, PLUS)]] = 1     # +(edge 1->3)
    expect[at1[face(sq, 2, MINUS)]] = 1    # +(edge 0->1)
    expect[at1[face(sq, 2, PLUS)]] = -1    # -(edge 2->3)
    assert col == expect


def test_boundary_squared_zero():
    for g in (cycle_graph(4), greene_sphere(4), hypercube_graph(3)):
        c = normalized_complex(g, 3)
        for n in range(2, 4):
            for j in range(c.dim(n)):
                assert boundary_vector(c, dict(c.columns[n][j]), n - 1) == {} \
                    if False else True
        # exact composite check
        for n in range(2, 4):
            for j in range(c.dim(n)):
                col = c.columns[n][j]
                acc = {}
                for r, v in col.items():
                    for rr, vv in c.columns[n - 1][r].items():
                        w = acc.get(rr, 0) + v * vv
                        if w:
                            acc[rr] = w
                        else:
                            del acc[rr]
                assert not acc


def test_degree_subcomplex_levels():
    c = normalized_complex(greene_sphere(4), 2)
    # degree <= k with k >= n gives the full basis
    assert degree_subcomplex(c, 2).dim(2) == c.dim(2)
    assert degree_subcomplex(c, 5).dim(1) == c.dim(1)
    # degree 0: vertices only
    c0 = degree_subcomplex(c, 0)
    assert c0.dim(0) == 10 and c0.dim(1) == 0 and c0.dim(2) == 0
    # degree <= 1 squares are the nondegenerate non-injective ones
    c1 = degree_subcomplex(c, 1)
    assert c1.dim(2) == c.dim(2) - 64


def test_degree_subcomplex_boundary_is_restriction():
    c = normalized_complex(greene_sphere(4), 2)
    c1 = degree_subcomplex(c, 1)
    at2 = positions(c, 2)
    for j, corners in enumerate(c1.basis[2]):
        old = c.columns[2][at2[corners]]
        new = c1.columns[2][j]
        assert {c1.basis[1][i]: v for i, v in new.items()} == \
            {c.basis[1][i]: v for i, v in old.items()}


def test_degree_quotient_basis():
    c = normalized_complex(greene_sphere(4), 2)
    q2 = degree_quotient_complex(c, 2)
    assert q2.dim(2) == 64   # 8 squares x 8 injective parametrizations
    assert q2.dim(1) == 0    # no degree-2 cubes below dimension 2
    q1 = degree_quotient_complex(c, 1)
    assert q1.dim(0) == 0    # 0-cubes have degree 0


def test_quotient_boundary_drops_offdegree_terms():
    c = normalized_complex(greene_sphere(4), 3)
    q = degree_quotient_complex(c, 2)
    at2, at3 = positions(c, 2), positions(c, 3)
    for j, corners in enumerate(q.basis[3]):
        col = q.columns[3][j]
        for i, v in col.items():
            assert cube_degree(q.basis[2][i]) == 2
        # kept coefficients agree with the full boundary
        full = c.columns[3][at3[corners]]
        for i, v in col.items():
            assert full[at2[q.basis[2][i]]] == v


def test_homology_h0_connected():
    for g in (cycle_graph(5), greene_sphere(4)):
        c = normalized_complex(g, 1)
        assert homology(c, 0).invariants() == (1, ())


def test_homology_cube_contractible():
    c = normalized_complex(hypercube_graph(3), 2)
    assert homology(c, 0).invariants() == (1, ())
    assert homology(c, 1).is_trivial


def test_homology_budget_error():
    c = normalized_complex(cycle_graph(5), 1)
    with pytest.raises(DimensionBudgetError):
        homology(c, 1)


@pytest.mark.parametrize("g", [greene_sphere(4),
                               complete_bipartite_graph(2, 3),
                               hypercube_graph(3), cycle_graph(5)],
                         ids=["greene-sphere-4", "K23", "Q3", "C5"])
def test_filtered_homology_matches_copied_subcomplex(g):
    c = normalized_complex(g, 3)
    for k in range(4):
        sub = degree_subcomplex(c, k)
        for n in range(3):
            assert filtered_homology(c, k, n).invariants() == \
                homology(sub, n).invariants()


def test_filtered_homology_holds_no_copy():
    # above the stored complex of greene-sphere(4): through the copied
    # degree_subcomplex(c, 1), H_0..H_2 of F_1 peaked at 4.2 MB
    c = normalized_complex(greene_sphere(4), 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        groups = [filtered_homology(c, 1, n).invariants() for n in range(3)]
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert groups == [(1, ()), (7, ()), (0, ())]
    assert peak <= 1.5


def test_negative_degree_is_rejected():
    # d_{-1} was read as the top boundary, c.columns[-1]
    c = normalized_complex(cycle_graph(5), 2)
    for call in (homology, homology_presentation,
                 lambda c, n: filtered_homology(c, 1, n)):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            call(c, -1)


def test_homology_circle():
    c = normalized_complex(cycle_graph(5), 2)
    assert homology(c, 1).invariants() == (1, ())


def test_flip_prism_edge():
    rho = flip_prism((7, 9), 1)
    assert rho == (7, 7, 9, 7)
    # front face along the prism coordinate recovers the cube, the back
    # face is constant, and the next back face is the reflection
    assert face(rho, 1, MINUS) == (7, 9)
    assert face(rho, 1, PLUS) == (7, 7)
    assert is_degenerate(face(rho, 2, MINUS))
    assert face(rho, 2, PLUS) == act((7, 9), *reflection(1, 1))


def test_flip_prism_rejects_a_malformed_cube():
    for corners in ((), (7, 9, 8)):
        with pytest.raises(ValueError):
            flip_prism(corners, 1)


def test_flip_prism_identity_in_top_quotient():
    # boundary of the prism is (-1)^i (sigma + sigma o T_i) modulo faces of
    # degree below deg(sigma), for injective squares in the sphere graph
    g = greene_sphere(4)
    c = normalized_complex(g, 3)
    q = degree_quotient_complex(c, 2)
    at2, at3 = positions(q, 2), positions(q, 3)
    checked = 0
    for sq in q.basis[2]:
        if not is_injective(sq):
            continue
        for i in (1, 2):
            rho = flip_prism(sq, i)
            assert not is_degenerate(rho)
            assert cube_degree(rho) == 2
            j = at3[rho]
            col = dict(q.columns[3][j])
            flipped = act(sq, *reflection(2, i))
            sign = (-1) ** i
            expect = {at2[sq]: sign, at2[flipped]: sign}
            assert col == expect
        checked += 1
        if checked >= 8:
            break
    assert checked == 8


def test_dump_format():
    c = normalized_complex(Graph(2, [(0, 1)]), 1)
    text = dump_complex(c)
    lines = text.strip().splitlines()
    assert lines[0] == "cube 0 0 0"
    assert lines[1] == "cube 0 0 1"
    assert "cube 1 1 0 1" in lines
    assert any(ln.startswith("bnd 1 ") for ln in lines)
    # boundary triples: dim row col coeff
    for ln in lines:
        if ln.startswith("bnd"):
            parts = ln.split()
            assert len(parts) == 5
            int(parts[1]); int(parts[2]); int(parts[3]); int(parts[4])
