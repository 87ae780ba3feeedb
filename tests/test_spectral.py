import random
import re
import tracemalloc
from collections import Counter

import pytest

from cubehom import chains, cubes, spectral, zlinalg
from cubehom.budget import BudgetExhausted, DimensionBudgetError
from cubehom.chains import (
    degree_quotient_complex,
    homology,
    homology_presentation,
    normalized_complex,
)
from cubehom.cwcomplex import cell_to_degree_class
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)
from cubehom.spectral import (
    SpectralPage,
    _Progress,
    _boundary_image,
    _filtered_cycles,
    _image_quotient,
    bottom_edge_group,
    e1_page,
    edge_map,
    einfinity_report,
    er_term,
    h2_exact_sequence,
    injective_homology,
    page_to_json,
    quotient_homology,
)
from cubehom.zlinalg import (
    ContractViolation,
    GroupMap,
    axpy,
    echelon_from_rows,
    split_echelon,
)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


@pytest.fixture(scope="module")
def sphere4():
    return normalized_complex(greene_sphere(4), 3)


@pytest.fixture(scope="module")
def c6():
    return normalized_complex(cycle_graph(6), 3)


@pytest.fixture(scope="module")
def k23():
    return normalized_complex(complete_bipartite_graph(2, 3), 3)


# ---------------------------------------------------------------------------
# first page
# ---------------------------------------------------------------------------

def test_e1_sphere_entries(sphere4):
    page = e1_page(sphere4, 2)
    assert page.entry(2, 0).invariants() == (8, ())   # one per square
    assert page.entry(1, 1).is_trivial                # triangle-free vanishing
    assert page.entry(0, 0).invariants() == (10, ())
    assert page.entry(0, 1).is_trivial
    assert page.entry(0, 2).is_trivial
    # out-of-triangle entries are identically zero
    assert page.entry(3, -1).is_trivial
    assert page.entry(-1, 2).is_trivial


def test_e1_c6_bottom_edge(c6):
    page = e1_page(c6, 1)
    # rank oracle from the vertex/edge exact sequence of the filtration:
    # 0 -> Z -> E1_{1,0} -> Z^6 -> Z -> 0, and the extension is free
    assert page.entry(1, 0).invariants() == (6, ())
    assert page.entry(0, 0).invariants() == (6, ())


def test_d1_squares_to_zero(sphere4, k23):
    for c in (sphere4, k23):
        page = e1_page(c, 2)
        for (p, q), f in page.differentials.items():
            g = page.differentials.get((p - 1, q))
            if g is not None:
                assert g.compose(f).is_zero_map()


def test_page_json_shape(c6):
    page = e1_page(c6, 1)
    doc = page_to_json(page)
    assert doc["r"] == 1
    assert {(e["p"], e["q"]) for e in doc["entries"]} == {(0, 0), (0, 1), (1, 0)}
    for d in doc["differentials"]:
        assert d["to"] == [d["from"][0] - 1, d["from"][1]]
        assert isinstance(d["matrix"], list)


def test_e1_budget_error(c6):
    with pytest.raises(DimensionBudgetError):
        e1_page(c6, 3)


def _random_small_graph(rng):
    n = rng.randint(4, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, rng.randint(n - 1, n + 1)))


@pytest.fixture(scope="module")
def slice_complexes(sphere4, k23):
    """Complexes through dimension 3 for the slice-route comparisons."""
    rng = random.Random(20261018)
    graphs = [cycle_graph(5), hypercube_graph(3)]
    graphs += [_random_small_graph(rng) for _ in range(6)]
    return [sphere4, k23] + [normalized_complex(g, 3) for g in graphs]


def _copied_slices_page(c, max_total):
    """page_to_json of the first page through copied slice complexes:
    `degree_quotient_complex` and `homology_presentation` per entry, then
    the d^1 push through cube -> position dicts built from the bases."""
    slices = [degree_quotient_complex(c, p) for p in range(max_total + 1)]
    pres = {(p, n): homology_presentation(slices[p], n)[:2]
            for n in range(max_total + 1) for p in range(n + 1)}
    at = [{q: i for i, q in enumerate(b)} for b in c.basis]
    differentials = {}
    for (p, n), (group, kernel) in pres.items():
        if p == 0:
            continue
        src, tgt = slices[p], slices[p - 1]
        tgt_group, tgt_kernel = pres[(p - 1, n - 1)]
        tgt_at = {q: i for i, q in enumerate(tgt.basis[n - 1])}
        cols = []
        for kvec in kernel.rows:
            bnd = {}
            for jq, a in kvec.items():
                axpy(bnd, a, c.columns[n][at[n][src.basis[n][jq]]])
            cols.append(tgt_kernel.express(
                {tgt_at[c.basis[n - 1][i]]: v for i, v in bnd.items()
                 if c.basis[n - 1][i] in tgt_at}))
        differentials[(p, n - p)] = GroupMap(group, tgt_group, cols)
    entries = {(p, n - p): group for (p, n), (group, _) in pres.items()}
    return page_to_json(SpectralPage(1, entries, differentials))


def test_e1_matches_the_copied_slices_route(slice_complexes):
    for c in slice_complexes:
        assert page_to_json(e1_page(c, 2)) == _copied_slices_page(c, 2)


def test_e1_copies_no_slice_complex(monkeypatch, sphere4, k23):
    expected = [_copied_slices_page(c, 2) for c in (sphere4, k23)]

    def no_copy(c, keep):
        raise AssertionError("e1_page copied a slice complex")

    monkeypatch.setattr(chains, "_restrict", no_copy)
    assert [page_to_json(e1_page(c, 2)) for c in (sphere4, k23)] == expected


def test_e1_presents_no_kernel_at_the_bottom_edge(monkeypatch, sphere4, k23):
    # E1[p, 0] comes from bottom_edge_group, so every kernel presentation
    # e1_page builds is above the edge, where d_out has the slice's
    # (n-1)-cubes as rows; only an empty slice at n (the degree-0 slice
    # above dimension 0) has neither rows nor columns
    real, calls = spectral.subquotient_presentation, []

    def spy(d_in, d_out):
        calls.append(d_out[1:])
        return real(d_in, d_out)

    monkeypatch.setattr(spectral, "subquotient_presentation", spy)
    for c in (sphere4, k23):
        for max_total in range(3):
            e1_page(c, max_total)
    assert calls and all(rows or not cols for rows, cols in calls)


def test_bottom_edge_relations_match_a_direct_echelon(slice_complexes):
    # the relations of the bottom edge at p: boundaries of the degree-p
    # (p+1)-cubes on the injective p-cubes, found by cube lookups
    for c in slice_complexes:
        for p in range(3):
            group, basis = bottom_edge_group(c, p)
            assert basis == tuple(q for q, d in zip(c.basis[p], c.degrees[p])
                                  if d == p)
            at = {q: i for i, q in enumerate(basis)}
            rows = [{at[c.basis[p][i]]: v for i, v in col.items()
                     if c.basis[p][i] in at}
                    for col, d in zip(c.columns[p + 1], c.degrees[p + 1])
                    if d == p]
            direct = echelon_from_rows(rows, len(basis))
            assert group.ngens == len(basis)
            assert all(group.relations.contains(r) for r in direct.rows)
            assert all(direct.contains(r) for r in group.relations.rows)


# ---------------------------------------------------------------------------
# injective homology
# ---------------------------------------------------------------------------

def test_injective_homology_sphere(sphere4):
    assert injective_homology(sphere4, 2).invariants() == (1, ())


def test_injective_homology_connected_h0(sphere4, c6):
    assert injective_homology(sphere4, 0).invariants() == (1, ())
    assert injective_homology(c6, 0).invariants() == (1, ())


def test_injective_homology_c6_h1(c6):
    assert injective_homology(c6, 1).invariants() == (1, ())


def test_injective_homology_needs_one_dimension_up():
    # Q3 has injective 3-cubes; they enter through their boundaries only,
    # so no dimension-4 data is needed (Q3 is 2-quasimonophobic and its
    # filled-cube complex has H_2 = 0)
    assert injective_homology(normalized_complex(hypercube_graph(3), 3),
                              2).is_trivial
    # injective squares of the sphere graph: chains through dimension 2
    assert injective_homology(normalized_complex(greene_sphere(4), 2),
                              1).is_trivial


def test_injective_homology_disjoint_union_splits():
    # two 6-cycles side by side: componentwise direct sum
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    g = Graph(12, edges)
    c = normalized_complex(g, 2)
    assert injective_homology(c, 0).invariants() == (2, ())
    assert injective_homology(c, 1).invariants() == (2, ())


def test_bottom_edge_presents_no_kernel(monkeypatch, sphere4, k23):
    # every chain of the bottom edge is a cycle, so its group is read off
    # the relation echelon alone, with no kernel presentation
    want = [[bottom_edge_group(c, p) for p in range(3)] for c in (sphere4, k23)]

    def refuse(d_in, d_out):
        raise AssertionError("the bottom edge built a kernel presentation")

    monkeypatch.setattr(spectral, "subquotient_presentation", refuse)
    for c, groups in zip((sphere4, k23), want):
        for p, (group, basis) in enumerate(groups):
            got, got_basis = bottom_edge_group(c, p)
            assert got.invariants() == group.invariants()
            assert got_basis == basis
    for g, n, kernel_rank in ((greene_sphere(4), 2, 0),
                              (complete_bipartite_graph(2, 3), 2, 1),
                              (cycle_graph(5), 1, 0)):
        cm = cell_to_degree_class(g, n)
        assert cm.surjective and cm.kernel_rank == kernel_rank


def test_bottom_edge_trivial_without_injective_cubes():
    # no injective 3-cubes in the sphere graph, so no dimension-4 data needed
    c = normalized_complex(greene_sphere(4), 3)
    group, basis = bottom_edge_group(c, 3)
    assert group.is_trivial and basis == ()


class _CountingSource:
    """A column source that counts its reads; it is callable, not
    iterable, so listing it raises."""

    def __init__(self, source):
        self.source, self.reads = source, 0

    def __call__(self):
        self.reads += 1
        return self.source()


def test_slice_sources_are_streamed(monkeypatch, sphere4, k23):
    # each slice source is read by the two passes of the image builder, or
    # as d_out once by the kernel, which also checks d o d = 0, and is
    # never listed
    want = [(page_to_json(e1_page(c, 2)),
             [bottom_edge_group(c, p)[0].invariants() for p in range(3)])
            for c in (sphere4, k23)]
    real, made = chains.block, []

    def counting(*args):
        source, nrows, ncols = real(*args)
        made.append(_CountingSource(source))
        return made[-1], nrows, ncols

    monkeypatch.setattr(spectral, "block", counting)
    got = [(page_to_json(e1_page(c, 2)),
            [bottom_edge_group(c, p)[0].invariants() for p in range(3)])
           for c in (sphere4, k23)]
    assert got == want
    assert made and all(1 <= s.reads <= 2 for s in made)


def _peak_mb(run):
    """tracemalloc peak of `run()` above what is allocated when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_e1_page_holds_no_slice_copy(sphere4):
    # above the stored complex of greene-sphere(4): copied, the degree-1
    # slice's 14,064 restricted 3-columns took e1_page to 4.5 MB
    assert _peak_mb(lambda: e1_page(sphere4, 2)) <= 2.0


def test_bottom_edge_holds_no_relation_copy(sphere4):
    # copied, the 7,488 degree-2 3-columns read on the injective squares
    # took bottom_edge_group to 1.6 MB above the complex of greene-sphere(4)
    assert _peak_mb(lambda: bottom_edge_group(sphere4, 2)) <= 0.75


# ---------------------------------------------------------------------------
# higher pages
# ---------------------------------------------------------------------------

def test_er_at_r1_matches_e1(sphere4):
    page = e1_page(sphere4, 2)
    for (p, q), grp in page.entries.items():
        assert er_term(sphere4, 1, p, q).invariants() == grp.invariants()


def test_e2_sphere(sphere4):
    assert er_term(sphere4, 2, 2, 0).invariants() == (1, ())
    assert er_term(sphere4, 2, 1, 1).is_trivial


def test_er_vanishing_region(sphere4):
    for r in (1, 2, 3):
        assert er_term(sphere4, r, 3, -1).is_trivial
        assert er_term(sphere4, r, 2, -1).is_trivial


def test_einf_h0_connected(c6):
    rep = einfinity_report(c6, 0)
    assert rep.match
    assert [g.invariants() for g in rep.filtration_graded] == [(1, ()), (0, ())]


def test_einf_h1_c5():
    c = normalized_complex(cycle_graph(5), 2)
    rep = einfinity_report(c, 1)
    assert rep.match
    assert [g.invariants() for g in rep.filtration_graded] == \
        [(0, ()), (1, ()), (0, ())]


def test_einf_h2_sphere(sphere4):
    rep = einfinity_report(sphere4, 2)
    assert rep.match
    # pieces at p = 0..3: only p = 2 carries the sphere class
    assert [g.invariants() for g in rep.filtration_graded] == \
        [(0, ()), (0, ()), (1, ()), (0, ())]


def test_einf_rank_sums_match_homology(sphere4, c6, k23):
    for c, n in ((sphere4, 1), (sphere4, 2), (c6, 1), (k23, 1), (k23, 2)):
        rep = einfinity_report(c, n)
        hn = homology(c, n)
        assert sum(g.free_rank for g in rep.filtration_graded) == hn.free_rank
        orders = 1
        for g in rep.filtration_graded:
            orders *= g.torsion_order
        assert orders == hn.torsion_order


class _FacesOnly(zlinalg.SignedRows):
    """Signed rows that may be read as index tuples only."""

    def __call__(self):
        raise AssertionError("signed rows read as dicts")


def test_einf_echelonizes_the_stored_boundary_columns(monkeypatch, sphere4):
    # the boundary echelon reads the stored d_3 columns, all of them in
    # stored order and unchanged, not a permuted or partial copy; only its
    # rank-many rows are put in degree order.  The dict view passes
    # whether or not the builder reads faces, so the face tuples that
    # its two passes pull are recorded too: the stored ones, in stored
    # order, and no dict view of them
    real, seen, pulled = echelon_from_rows, [], []

    def spy(rows, ncols):
        seen.append(list(rows() if callable(rows) else rows))
        if isinstance(rows, zlinalg.SignedRows):
            faces, read = [], rows.read
            pulled.append(faces)

            def recording():
                for f in read():
                    faces.append(f)
                    yield f
            rows = _FacesOnly(recording, rows.signs)
        return real(rows, ncols)

    monkeypatch.setattr(spectral, "echelon_from_rows", spy)
    assert einfinity_report(sphere4, 2).match
    assert list(sphere4.columns[3]) in seen
    stored = sphere4.columns[3]
    assert list(zip(*[stored.flat()] * stored.width)) * 2 in pulled


def _stacked_boundary_image(c, n, p, depth):
    """{boundary(x) : x in F_p C_{n+1}, boundary(x) in F_{p-depth} C_n} by
    the stacked route: echelonize each column as (its part above the cut,
    itself) and keep the second halves of the rows whose first half is 0."""
    cut = p - depth
    degs = c.degrees[n]
    _, lat = split_echelon(
        (({i: v for i, v in col.items() if degs[i] > cut}, col)
         for col, d in zip(c.columns[n + 1], c.degrees[n + 1]) if d <= p),
        c.dim(n), c.dim(n))
    return lat


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 5)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4])


BOUNDARY_GRAPHS = {
    "sphere4": lambda: greene_sphere(4),
    "k23": lambda: complete_bipartite_graph(2, 3),
    "c5": lambda: cycle_graph(5),
    "q3": lambda: hypercube_graph(3),
    "petersen": petersen,
    **{f"random-{seed}": (lambda seed=seed: _random_graph(seed))
       for seed in range(6)},
}


@pytest.mark.parametrize("name", BOUNDARY_GRAPHS)
def test_boundary_image_matches_the_stacked_route(name):
    # one degree-ordered echelon per (n, p), read at every cut, spans the
    # same lattice as one stacked echelon per (n, p, depth)
    c = normalized_complex(BOUNDARY_GRAPHS[name](), 3)
    # the stacked route reads only which columns it takes and which
    # coordinates it cuts, so equal inputs are built once
    stacked = {}
    for n in range(3):
        for p in range(-1, n + 4):
            image = _boundary_image(c, n, p)
            for depth in range(p + 3):
                got = image(p - depth)
                key = (n, tuple(d <= p for d in c.degrees[n + 1]),
                       tuple(d > p - depth for d in c.degrees[n]))
                if key not in stacked:
                    stacked[key] = _stacked_boundary_image(c, n, p, depth)
                want = stacked[key]
                assert all(want.contains(row) for row in got.rows), \
                    (n, p, depth)
                assert all(got.contains(row) for row in want.rows), \
                    (n, p, depth)


def _direct_filtered_cycles(c, n, p, cut):
    """{x in F_p C_n : boundary(x) in F_cut C_{n-1}} built directly: the
    kernel of the boundary's part above the cut on the cubes of degree at
    most p."""
    degs = c.degrees[n - 1]
    _, lat = split_echelon(
        (({i: v for i, v in c.columns[n][j].items() if degs[i] > cut}, {j: 1})
         for j, d in enumerate(c.degrees[n]) if d <= p),
        c.dim(n - 1), c.dim(n))
    return lat


@pytest.mark.parametrize("name", ["sphere4", "k23", "c5"])
def test_filtered_cycles_match_a_direct_build(name):
    # one degree-ordered kernel echelon per (n, cut), read at every p, spans
    # the same lattice as a direct build per (n, p, cut)
    c = normalized_complex(BOUNDARY_GRAPHS[name](), 2)
    for n in (1, 2):
        for cut in range(-2, n + 1):
            cycles = _filtered_cycles(c, n, cut)
            for p in range(-1, n + 2):
                got = cycles(p)
                want = _direct_filtered_cycles(c, n, p, cut)
                assert got.rank == want.rank, (n, cut, p)
                assert all(want.contains(row) for row in got.rows), \
                    (n, cut, p)
                assert all(got.contains(row) for row in want.rows), \
                    (n, cut, p)


# ---------------------------------------------------------------------------
# the H_2 extension
# ---------------------------------------------------------------------------

def test_h2_sequence_sphere(sphere4):
    left, mid, right, ok = h2_exact_sequence(sphere4)
    assert left.is_trivial
    assert mid.invariants() == (1, ())
    assert right.invariants() == (1, ())
    assert ok


def test_h2_sequence_squarefree():
    c = normalized_complex(cycle_graph(5), 3)
    left, mid, right, ok = h2_exact_sequence(c)
    assert left.is_trivial and mid.is_trivial and right.is_trivial and ok


def test_h2_sequence_k23(k23):
    left, mid, right, ok = h2_exact_sequence(k23)
    assert mid.is_trivial
    assert ok


def test_h2_sequence_solid_cube():
    # cubical dimension 3: the free-cover route must handle injective 3-cubes
    c = normalized_complex(hypercube_graph(3), 3)
    left, mid, right, ok = h2_exact_sequence(c)
    assert mid.is_trivial
    assert ok


# ---------------------------------------------------------------------------
# streaming slice homology
# ---------------------------------------------------------------------------

def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_quotient_homology_matches_page(sphere4):
    graphs = [(cycle_graph(5), None), (cycle_graph(6), None),
              (cycle_graph(7), None), (complete_bipartite_graph(2, 3), None),
              (hypercube_graph(3), None), (petersen(), None),
              (greene_sphere(4), sphere4)]
    # the pinned cofaces that lead each front's stream follow the labeling
    graphs += [(_relabeled(g, seed), None)
               for g in (complete_bipartite_graph(2, 3), hypercube_graph(3),
                         petersen())
               for seed in (1, 2)]
    for g, c in graphs:
        page = e1_page(c or normalized_complex(g, 3), 2)
        for n in range(3):
            for k in range(n + 2):
                assert quotient_homology(g, k, n).invariants() == \
                    page.entry(k, n - k).invariants(), (g.n, k, n)


def test_full_stream_hands_over_every_column_once(monkeypatch, sphere4):
    # E1[2,0] of greene-sphere(4) is Z^8, so no column pairs and the
    # column iterator runs dry: it must yield each degree-2 3-cube's
    # boundary on the degree-2 squares once, whatever the stream order
    c, g, seen = sphere4, greene_sphere(4), {}
    image_quotient = spectral._image_quotient

    def record(ncols, rest, columns, progress):
        # copies: the exact pass consumes the columns it adds
        columns = list(columns)
        seen["columns"] = [dict(col) for col in columns]
        seen["progress"] = progress
        return image_quotient(ncols, rest, iter(columns), progress)

    monkeypatch.setattr(spectral, "_image_quotient", record)
    assert quotient_homology(g, 2, 2).invariants() == (8, ())
    here = spectral._slice_basis(g, 2, 2)
    squares = {q for q, d in zip(c.basis[2], c.degrees[2]) if d == 2}
    assert set(here) == squares
    expected = Counter(
        frozenset((c.basis[2][i], v) for i, v in col.items()
                  if c.basis[2][i] in squares)
        for col, d in zip(c.columns[3], c.degrees[3]) if d == 2)
    streamed = Counter(frozenset((here[i], v) for i, v in col.items())
                       for col in seen["columns"])
    assert streamed == expected
    assert len(seen["columns"]) == sum(expected.values()) == 7488
    assert seen["progress"].pulled == len(c.basis[3]) == 21552
    assert seen["progress"].pairs == 0


@pytest.mark.parametrize("name", ["c5", "k23", "sphere4"])
def test_pinned_cofaces_lead_each_front_stream(name):
    # each front's stream is its lexicographic coface stream, reordered so
    # that the cofaces whose corner 2^n repeats corner 0 come first
    g = {"c5": cycle_graph(5), "k23": complete_bipartite_graph(2, 3),
         "sphere4": greene_sphere(4)}[name]
    pinned_total = 0
    for n in range(3):
        for front in cubes.singular_cubes(g, n, "nondegenerate"):
            cofaces = list(cubes.singular_cubes(g, n + 1, "nondegenerate",
                                                prefix=front))
            pinned = [c for c in cofaces if c[1 << n] == front[0]]
            rest = [c for c in cofaces if c[1 << n] != front[0]]
            assert list(spectral._pinned_first(g, n, front)) == pinned + rest
            # the pinned 1-cube (v, v) is degenerate
            assert n > 0 or not pinned
            pinned_total += len(pinned)
    assert pinned_total > 0


def _record_progress(monkeypatch):
    """Spy on `_image_quotient`: the returned dict holds the `_Progress` of
    the last call."""
    seen, image_quotient = {}, spectral._image_quotient

    def record(ncols, rest, columns, progress):
        seen["progress"] = progress
        return image_quotient(ncols, rest, columns, progress)

    monkeypatch.setattr(spectral, "_image_quotient", record)
    return seen


def test_e11_of_a_greene_sphere_saturates_in_the_first_round(monkeypatch):
    # the pairing completes a little after the first round, one pinned
    # coface per slice front (304 columns), on each of these labelings,
    # which pulls 330-337 cubes; a GF(2) pick on the plain lexicographic
    # order pulled 1,338-2,249
    seen = _record_progress(monkeypatch)
    for seed in range(4):
        assert quotient_homology(_relabeled(greene_sphere(4), seed),
                                 1, 2).is_trivial
        assert seen["progress"].pulled <= 350, seed


def test_pairing_settles_a_slice_whose_replay_kept_a_non_unit_pivot(
        monkeypatch):
    # found by search: on this graph a GF(2) pick reached the cycle rank
    # of E1[1,1], its exact replay kept a non-unit pivot, and an exact
    # pass settled the slice after 549 cubes; the pairing needs 358
    seen = _record_progress(monkeypatch)
    g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert quotient_homology(g, 1, 2).is_trivial
    progress = seen["progress"]
    assert progress.phase == "pairing" and progress.echelon is None
    assert progress.pairs == progress.cycle_rank > 0
    assert progress.pulled == 358
    assert e1_page(normalized_complex(g, 3), 2).entry(1, 1).is_trivial


@pytest.mark.parametrize("g, k, n", [(greene_sphere(4), 2, 0),
                                     (Graph(2, [(0, 1)]), 2, 2)])
def test_a_slice_of_cycle_rank_zero_pulls_no_cube(monkeypatch, g, k, n):
    seen = _record_progress(monkeypatch)
    assert quotient_homology(g, k, n).is_trivial
    assert seen["progress"].cycle_rank == 0
    assert seen["progress"].pulled == 0


@pytest.mark.parametrize("name", ["petersen", "q3"])
def test_heavy_slices_at_1_3_pair_completely(monkeypatch, name):
    # both settle with no exact add after the slice bases; an exact pass
    # over their columns, after a replay with a non-unit pivot, took
    # about 14 s and 9 s
    seen = _record_progress(monkeypatch)
    g = {"petersen": petersen, "q3": lambda: hypercube_graph(3)}[name]()
    assert quotient_homology(g, 1, 3).is_trivial
    progress = seen["progress"]
    assert progress.phase == "pairing"
    assert progress.pairs == progress.cycle_rank > 0


def _hand_built(columns, ncols, rest):
    """`_image_quotient` on literal columns, in the order given, with the
    rows `rest` to pair."""
    return _image_quotient(ncols, set(rest), iter(columns),
                           _Progress()).invariants()


def test_image_quotient_full_gf2_rank_with_a_non_unit_pivot():
    # 3 e_0 reaches the cycle rank modulo 2 but spans an index-3
    # sublattice: a lone entry other than +-1 does not pair
    assert _hand_built([{0: 3}], 1, {0}) == (0, (3,))
    # the exact pass then finds the column that saturates it
    assert _hand_built([{0: 3}, {0: 2}], 1, {0}) == (0, ())
    assert _hand_built([{0: 1, 1: 2}, {0: 1, 1: -1}, {1: 3}], 2, {0, 1}) \
        == (0, (3,))


def test_image_quotient_streams_dry_below_the_cycle_rank():
    # a lone 2 e_0 does not pair; the exact pass sees it and the torsion
    assert _hand_built([{0: 2}, {1: 1}], 2, {0, 1}) == (0, (2,))
    assert _hand_built([{1: 1}], 2, {0, 1}) == (1, ())


def test_image_quotient_rejects_columns_outside_the_cycles():
    with pytest.raises(ContractViolation, match="outranks"):
        _hand_built([{0: 2}, {1: 2}], 2, {0})


def test_image_quotient_pairs_a_waiting_column_once():
    # the first column waits on rows 0, 1 and 2; it is retried when row 0
    # and when row 1 is paired, pairs with row 2 after the second, and is
    # retried once more, with no row left, when row 2 leaves
    progress = _Progress()
    columns = [{0: 1, 1: 1, 2: -1}, {0: 1}, {1: -1}, {2: 1}]
    h = _image_quotient(4, {0, 1, 2, 3}, iter(columns), progress)
    assert h.invariants() == (1, ())
    assert progress.pairs == 3
    assert progress.phase == "exact pass" and progress.echelon.rank == 3


def _stop_at_call(monkeypatch, k):
    """Make the K-th budget checkpoint raise; returns the call counter."""
    calls = [0]

    def checkpoint():
        calls[0] += 1
        if calls[0] == k:
            raise BudgetExhausted("soft time budget exhausted")

    monkeypatch.setattr(cubes, "checkpoint", checkpoint)
    monkeypatch.setattr(zlinalg, "checkpoint", checkpoint)
    return calls


def test_budget_stop_reports_the_phase_and_the_ranks(monkeypatch, sphere4):
    g = greene_sphere(4)
    # no degree-2 1-cubes: every degree-2 square is a cycle of the slice
    cycle_rank = sum(d == 2 for d in sphere4.degrees[2])
    total = _stop_at_call(monkeypatch, 0)
    assert quotient_homology(g, 2, 2).invariants() == (8, ())
    phases = set()
    # the pairing reads the clock only in the coface walks, about 500 of
    # some 8,000 reads, so the stops come at 1/24 steps
    for k in range(1, total[0] + 1, total[0] // 24):
        _stop_at_call(monkeypatch, k)
        with pytest.raises(BudgetExhausted) as info:
            quotient_homology(g, 2, 2)
        err = info.value
        assert isinstance(err.__cause__, BudgetExhausted)
        msg = str(err)
        phase = msg.split("in phase ")[1].split(" at ")[0]
        phases.add(phase)
        if phase != "slice bases":
            rank, cycles, pulled = (int(x.replace(",", "")) for x in re.match(
                r".* rank ([\d,]+) of cycle rank ([\d,]+) after ([\d,]+) "
                r"candidates$", msg).groups())
            assert cycles == cycle_rank and rank <= cycle_rank
            assert 0 < pulled <= 21552
    assert phases == {"slice bases", "pairing", "exact pass"}


def test_classification_matches_presentation_route_on_sphere(sphere4):
    # the kernel-coordinate presentation and the rank/invariant-factor
    # classification must agree on the flagship instance
    for n in (0, 1, 2):
        a = homology(sphere4, n)
        b = homology_presentation(sphere4, n)[0]
        assert a.invariants() == b.invariants()
