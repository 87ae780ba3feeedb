import time

import pytest

from cubehom import budget
from cubehom.budget import BudgetExhausted, DimensionBudgetError
from cubehom.cubes import _enumerate_chunk
from cubehom.chains import homology, normalized_complex
from cubehom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    greene_sphere,
    hypercube_graph,
)
from cubehom.spectral import (
    _slice_basis,
    _stream_chunk,
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
from cubehom.zlinalg import GroupMap


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


def test_bottom_edge_trivial_without_injective_cubes():
    # no injective 3-cubes in the sphere graph, so no dimension-4 data needed
    c = normalized_complex(greene_sphere(4), 3)
    group, basis = bottom_edge_group(c, 3)
    assert group.is_trivial and basis == ()


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

def test_quotient_homology_matches_page(sphere4):
    g = greene_sphere(4)
    page = e1_page(sphere4, 2)
    assert quotient_homology(g, 2, 2).invariants() == \
        page.entry(2, 0).invariants()
    assert quotient_homology(g, 1, 2).invariants() == \
        page.entry(1, 1).invariants()
    assert quotient_homology(g, 1, 1).invariants() == \
        page.entry(1, 0).invariants()


def test_quotient_homology_parallel_agrees():
    g = cycle_graph(6)
    a = quotient_homology(g, 1, 1, threads=1)
    b = quotient_homology(g, 1, 1, threads=3)
    assert a.invariants() == b.invariants()


@pytest.mark.parametrize("chunk", ["enumerate", "stream"])
def test_worker_reads_the_deadline_from_its_job(chunk):
    # a worker started by spawn or forkserver imports budget afresh, so the
    # deadline must come with the job, not through the module global
    g = greene_sphere(4)
    passed = time.monotonic() - 1
    job = ((g, 2, "nondegenerate", 0, passed) if chunk == "enumerate"
           else (g, 1, 1, _slice_basis(g, 1, 1), 0, passed))
    run = _enumerate_chunk if chunk == "enumerate" else _stream_chunk
    budget.clear_time_budget()
    try:
        with pytest.raises(BudgetExhausted):
            run(job)
        assert budget.deadline() == passed
        budget.clear_time_budget()
        assert run(job[:-1] + (None,))
    finally:
        budget.clear_time_budget()


def test_classification_matches_presentation_route_on_sphere(sphere4):
    # the kernel-coordinate presentation and the rank/invariant-factor
    # classification must agree on the flagship instance
    for n in (0, 1, 2):
        a = homology(sphere4, n)
        b = homology(sphere4, n, presentation=True)
        assert a.invariants() == b.invariants()
