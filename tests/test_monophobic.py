import random
from collections import Counter

import pytest

from cubehom import monophobic
from cubehom.budget import BudgetExhausted, time_budget
from cubehom.cubes import (
    MINUS,
    cube_subgraphs,
    face,
    image_subgraph,
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
from cubehom.monophobic import (
    check_cube,
    check_graph,
    is_monophobic,
    is_quasimonophobic,
    is_rigid,
    supported_face_count,
    validate_witness,
)

K23_WITNESS = (0, 3, 2, 1, 4, 0, 0, 4)


def k4():
    return Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_rigidity():
    g4 = greene_sphere(4)
    for q in cube_subgraphs(g4, 2):
        assert is_rigid(g4, q)
    # a 4-cycle inside K4 has chords, hence is not induced
    for q in cube_subgraphs(k4(), 2):
        assert not is_rigid(k4(), q)
    # an edge in a triangle-free graph is always induced
    c5 = cycle_graph(5)
    for q in cube_subgraphs(c5, 1):
        assert is_rigid(c5, q)


def test_supported_face_count_worked_example_witness():
    g = complete_bipartite_graph(2, 3)
    squares = cube_subgraphs(g, 2)
    bottom = next(q for q in squares if set(q.vertices) == {0, 1, 2, 3})
    assert supported_face_count(K23_WITNESS, bottom) == 1
    # the same witness also touches each of the other squares exactly once,
    # which is how one noninjective cube defeats all three at once
    for q in squares:
        assert supported_face_count(K23_WITNESS, q) == 1


def test_supported_face_count_degenerate_doubling():
    g = greene_sphere(4)
    q = cube_subgraphs(g, 2)[0]
    rep = q.rep
    # prism with both 1-faces equal to the parametrization of q
    tau = tuple(rep[c] for c in range(4) for _ in (0, 1))
    assert supported_face_count(tau, q) == 2


def _reference_face_count(tau, q):
    target = (q.vertices, q.edges)
    return sum(image_subgraph(f) == target for _, _, f in iter_faces(tau))


def test_prefilter_keeps_same_vertex_set_faces_apart():
    g = k4()
    q = next(q for q in cube_subgraphs(g, 2) if q.rep == (0, 1, 3, 2))
    assert not is_rigid(g, q)
    other = image_subgraph((0, 2, 1, 3))
    assert other[0] == q.vertices and other[1] != q.edges
    # front 1-face is q's parametrization, back 1-face is (0,2,1,3)
    tau = (0, 0, 1, 2, 3, 1, 2, 3)
    assert face(tau, 1, MINUS) == q.rep
    assert face(tau, 1, 1) == (0, 2, 1, 3)
    assert supported_face_count(tau, q) == 1 == _reference_face_count(tau, q)


@pytest.mark.parametrize("graph", [k4, lambda: complete_bipartite_graph(2, 3)])
def test_supported_face_count_matches_reference(graph):
    g = graph()
    squares = cube_subgraphs(g, 2)
    checked = 0
    for tau in singular_cubes(g, 3):
        front = face(tau, 1, MINUS)
        for q in squares:
            if front == q.rep:
                assert supported_face_count(tau, q) == \
                    _reference_face_count(tau, q)
                checked += 1
    assert checked > 0


def _oracle_candidates(g, rep, mode):
    """The witness candidates as the search visited them before it ran
    through `singular_cubes`: every singular (n+1)-cube whose front 1-face
    is `rep`, top corners assigned in order by a recursive extender;
    quasi mode skips injective ones."""
    n = (len(rep) - 1).bit_length()
    size = 1 << n
    closed = g.closed
    tau = [0] * (2 * size)
    for c in range(size):
        tau[2 * c] = rep[c]
    lower = [[c ^ (1 << j) for j in range(n) if c & (1 << j)]
             for c in range(size)]

    def rec(c):
        if c == size:
            t = tuple(tau)
            if mode == "quasimonophobic" and is_injective(t):
                return
            yield t
            return
        cand = closed[tau[2 * c]]
        for c2 in lower[c]:
            cand = cand & closed[tau[2 * c2 + 1]]
            if not cand:
                return
        for v in sorted(cand):
            tau[2 * c + 1] = v
            yield from rec(c + 1)

    yield from rec(0)


def _oracle_check(g, q, mode):
    for tau in _oracle_candidates(g, q.rep, mode):
        if supported_face_count(tau, q) == 1:
            return False, tau
    return True, None


ORACLE_GRAPHS = [k4, lambda: complete_bipartite_graph(2, 3),
                 lambda: hypercube_graph(3), lambda: greene_sphere(4)]


@pytest.mark.parametrize("graph", ORACLE_GRAPHS,
                         ids=["K4", "K23", "Q3", "gs4"])
@pytest.mark.parametrize("n", [1, 2])
def test_coface_stream_matches_oracle(graph, n):
    g = graph()
    squares = cube_subgraphs(g, n)
    assert squares
    for q in squares:
        size = len(q.rep)
        stream = [tuple(tau[(t & 1) * size + (t >> 1)]
                        for t in range(2 * size))
                  for tau in singular_cubes(g, n + 1, prefix=q.rep)]
        oracle = list(_oracle_candidates(g, q.rep, "monophobic"))
        assert stream == oracle
        assert [t for t in stream if not is_injective(t)] == \
            list(_oracle_candidates(g, q.rep, "quasimonophobic"))


@pytest.mark.parametrize("graph", ORACLE_GRAPHS,
                         ids=["K4", "K23", "Q3", "gs4"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["monophobic", "quasimonophobic"])
def test_check_cube_witness_matches_oracle(graph, n, mode):
    g = graph()
    for q in cube_subgraphs(g, n):
        if is_rigid(g, q):
            assert check_cube(g, q, mode) == _oracle_check(g, q, mode)


def _random_graphs(count, seed=1919):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, 8)
        p = rng.choice((0.25, 0.35, 0.5))
        yield f"random{i}", Graph(n, [(a, b) for a in range(n)
                                      for b in range(a + 1, n)
                                      if rng.random() < p])


REFERENCE_GRAPHS = [("K23", complete_bipartite_graph(2, 3)),
                    ("K34", complete_bipartite_graph(3, 4)),
                    ("Q4", hypercube_graph(4)), *_random_graphs(60)]


@pytest.mark.parametrize("name,g", REFERENCE_GRAPHS,
                         ids=[name for name, _ in REFERENCE_GRAPHS])
def test_check_cube_matches_brute_force(name, g):
    # every coface walked and its supported faces counted: the verdict and
    # the first witness do not depend on which non-witnesses are pruned
    for n in range(4):
        for q in cube_subgraphs(g, n):
            for mode in ("monophobic", "quasimonophobic"):
                want = _oracle_check(g, q, mode) if is_rigid(g, q) \
                    else (False, None)
                assert check_cube(g, q, mode) == want


def _local_lemma(g, q):
    """The quasi-mode verdict of a rigid edge or square q from its
    neighbourhoods alone, which shows that for these the condition of the
    local lemma is also necessary: (True, None) when no outside vertex
    neighbours two corners, else (False, a witness).  A common neighbour
    w of edge (a, b) gives (a, b, w, w); an outside w next to q0 and q3
    gives the back corners (q0, q0, q0, w), one next to q1 and q2 gives
    (q1, q1, w, q1): every other face hits w or two vertices.  None for a
    square with a triangle on an edge, which the walk decides."""
    rep = q.rep

    def common(a, b):
        return g.closed[rep[a]] & g.closed[rep[b]]

    if len(rep) == 2:
        extra = sorted(common(0, 1) - set(rep))
        return (False, rep + (extra[0],) * 2) if extra else (True, None)
    q0, q1, q2, q3 = rep
    if any(common(a, b) != {rep[a], rep[b]}
           for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))):
        return None
    for w in sorted(common(0, 3) - {q1, q2}):
        return False, rep + (q0, q0, q0, w)
    for w in sorted(common(1, 2) - {q0, q3}):
        return False, rep + (q1, q1, w, q1)
    return True, None


def _check_local_lemma(g, tally, dims=(1, 2)):
    for n in dims:
        for q in cube_subgraphs(g, n):
            rigid = is_rigid(g, q)
            for mode in ("monophobic", "quasimonophobic"):
                want = _oracle_check(g, q, mode) if rigid else (False, None)
                assert check_cube(g, q, mode) == want
            if not rigid:
                continue
            if n > 2:
                tally[n, monophobic._passes_locally(g, q.rep)] += 1
                continue
            lemma = _local_lemma(g, q)
            tally[n, lemma and lemma[0]] += 1
            if lemma is not None:
                passes, tau = lemma
                assert passes == _oracle_check(g, q, "quasimonophobic")[0]
                assert passes or validate_witness(g, q, tau,
                                                  "quasimonophobic")


def _every_graph(order):
    pairs = [(a, b) for a in range(order) for b in range(a + 1, order)]
    for mask in range(1 << len(pairs)):
        yield Graph(order, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _random_graph(rng, order, triangles):
    edges = []
    adj = [set() for _ in range(order)]
    for a in range(order):
        for b in range(a + 1, order):
            if rng.random() < 0.4 and (triangles or not adj[a] & adj[b]):
                edges.append((a, b))
                adj[a].add(b)
                adj[b].add(a)
    return Graph(order, edges)


def test_local_lemma_every_small_graph():
    # every labelled graph on at most 5 vertices, n = 1 and 2, both modes
    tally = Counter()
    for order in range(1, 6):
        for g in _every_graph(order):
            _check_local_lemma(g, tally)
    # each branch of both lemmas is hit: passes, fails, and (n = 2 only)
    # left to the walk by a triangle on an edge
    assert set(tally) == {(1, True), (1, False),
                          (2, True), (2, False), (2, None)}


def _cube_plus(rng, dim):
    """The dim-cube with one to three extra vertices, each joined to one
    to three earlier vertices."""
    cube = hypercube_graph(dim)
    order = cube.n + rng.randint(1, 3)
    return Graph(order, cube.edges() + [
        (v, w) for w in range(cube.n, order)
        for v in rng.sample(range(w), rng.randint(1, 3))])


# family: (seed, graph count, graph maker, top dimension n checked)
RANDOM_FAMILIES = {
    "triangle-free": (2323, 60, lambda rng: _random_graph(
        rng, rng.randint(6, 11), False), 2),
    "with-triangles": (2324, 60, lambda rng: _random_graph(
        rng, rng.randint(6, 11), True), 2),
    "Q3": (2730, 40, lambda rng: _cube_plus(rng, 3), 3),
    "Q4": (2731, 6, lambda rng: _cube_plus(rng, 4), 4),
}


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
def test_local_lemma_random_graphs(family):
    # dimensions n - 1 and n against the oracle, in both modes
    seed, count, make, n = RANDOM_FAMILIES[family]
    rng = random.Random(seed)
    tally = Counter()
    for _ in range(count):
        _check_local_lemma(make(rng), tally, (n - 1, n))
    # cubes the lemma passes, and cubes that fail its condition
    assert tally[n, True] and tally[n, False]


def test_local_lemma_base_case(monkeypatch):
    # the prism's front face passes without the lemma, up to the largest
    # dimension the lemma serves; in monophobic mode it fails
    monkeypatch.setattr(monophobic, "_passes_locally", lambda g, rep: False)
    for n in range(monophobic.LOCAL_MAX_DIM + 1):
        g = hypercube_graph(n + 1)
        q = next(q for q in cube_subgraphs(g, n)
                 if q.rep == tuple(range(1 << n)))
        assert check_cube(g, q) == (True, None)
        assert not check_cube(g, q, "monophobic")[0]


def test_back_face_is_not_a_fold():
    # a quarter turn of the square supports the back face of its prism
    # but folds along no side face, so the back face is tested on its own
    g = hypercube_graph(4)
    q = next(q for q in cube_subgraphs(g, 2) if q.rep == (0, 1, 2, 3))
    tau = q.rep + (1, 3, 0, 2)
    assert tau in singular_cubes(g, 3, prefix=q.rep)
    assert supported_face_count(tau, q) == 2
    assert [f for _, _, f in iter_faces(tau) if set(f) == {0, 1, 2, 3}] == \
        [q.rep, (1, 3, 0, 2)]


def _record_walks(monkeypatch):
    """The cofaces drawn by each witness walk, one list per walk."""
    walks, real = [], monophobic.singular_cubes

    def counting(*args, **kwargs):
        walks.append([])
        for tau in real(*args, **kwargs):
            walks[-1].append(tau)
            yield tau

    monkeypatch.setattr(monophobic, "singular_cubes", counting)
    return walks


def test_fold_patterns_prune_the_coface_walk(monkeypatch):
    walks = _record_walks(monkeypatch)
    # the local lemma turned off, so every square of Q7 is walked; each
    # passes, so each coface stream runs to its end; 63,168 cofaces
    # without the fold patterns
    monkeypatch.setattr(monophobic, "_passes_locally", lambda g, rep: False)
    assert check_graph(hypercube_graph(7), 2).overall
    assert len(walks) == 672
    assert sum(map(len, walks)) <= 5376


def test_local_lemma_skips_the_walk(monkeypatch):
    walks = _record_walks(monkeypatch)
    for n in (1, 2, 3):
        assert check_graph(hypercube_graph(7), n).overall
    assert walks == []
    # the lemma stops at LOCAL_MAX_DIM = 4: the 5-cube is walked
    assert check_graph(hypercube_graph(5), 5).overall
    assert len(walks) == 1
    # a vertex next to corners 0 and 3 breaks the condition: walked, passes
    q3_plus = Graph(9, hypercube_graph(3).edges() + [(0, 8), (3, 8)])
    assert check_graph(q3_plus, 3).overall
    assert len(walks) == 2
    # the lemma serves quasi mode only
    assert not check_graph(hypercube_graph(3), 2, "monophobic").overall
    assert len(walks) == 2 + 6


def test_failing_squares_still_walk_to_their_witness(monkeypatch):
    walks = _record_walks(monkeypatch)
    report = check_graph(complete_bipartite_graph(2, 3), 2)
    # each walk stops at its first witness, which the search reindexes
    assert [tuple(walk[-1][(t & 1) * 4 + (t >> 1)] for t in range(8))
            for walk in walks] == [c.witness for c in report.checks] == \
        list(K23_FROZEN)


def test_budget_stops_the_witness_search():
    g = hypercube_graph(7)
    q = cube_subgraphs(g, 2)[0]
    with time_budget(0):
        with pytest.raises(BudgetExhausted):
            check_graph(g, 2)
        with pytest.raises(BudgetExhausted):
            check_cube(g, q)


def test_validate_witness_rejects_an_unknown_mode():
    g = complete_bipartite_graph(2, 3)
    q = cube_subgraphs(g, 2)[0]
    passes, tau = check_cube(g, q, "monophobic")
    assert validate_witness(g, q, tau, "monophobic")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        validate_witness(g, q, tau, "bogus")


K23_FROZEN = ((0, 0, 2, 0, 3, 0, 1, 4), (0, 0, 2, 0, 4, 0, 1, 3),
              (0, 0, 3, 0, 4, 0, 1, 2))


def test_check_cube_k23_witnesses_frozen():
    g = complete_bipartite_graph(2, 3)
    got = [check_cube(g, q) for q in cube_subgraphs(g, 2)]
    assert got == [(False, tau) for tau in K23_FROZEN]


def test_supported_face_count_dimension_check():
    g = greene_sphere(4)
    q = cube_subgraphs(g, 2)[0]
    with pytest.raises(ValueError):
        supported_face_count(q.rep, q)


def test_check_cube_triangle_edge():
    g = cycle_graph(3)
    edge = cube_subgraphs(g, 1)[0]
    passes, witness = check_cube(g, edge, "quasimonophobic")
    assert not passes
    assert witness is not None and not is_injective(witness)
    assert validate_witness(g, edge, witness, "quasimonophobic")


def test_check_cube_k23_square():
    g = complete_bipartite_graph(2, 3)
    for q in cube_subgraphs(g, 2):
        passes, witness = check_cube(g, q, "quasimonophobic")
        assert not passes
        assert validate_witness(g, q, witness, "quasimonophobic")


def test_check_cube_sphere_squares_monophobic():
    g = greene_sphere(5)
    for q in cube_subgraphs(g, 2):
        passes, witness = check_cube(g, q, "monophobic")
        assert passes and witness is None


def test_check_graph_zero_always_quasi():
    for g in (cycle_graph(3), k4(), greene_sphere(4)):
        assert check_graph(g, 0, "quasimonophobic").overall


def test_check_graph_dim1():
    assert check_graph(cycle_graph(6), 1, "monophobic").overall
    assert not check_graph(hypercube_graph(2), 1, "monophobic").overall
    # triangle-free characterizes the quasi variant in dimension 1
    assert check_graph(hypercube_graph(2), 1, "quasimonophobic").overall
    assert not check_graph(cycle_graph(3), 1, "quasimonophobic").overall


def test_check_graph_sphere_quasi_2():
    report = check_graph(greene_sphere(4), 2, "quasimonophobic")
    assert report.overall
    assert all(c.rigid for c in report.checks)


def test_check_graph_k23_not_quasi_2():
    report = check_graph(complete_bipartite_graph(2, 3), 2, "quasimonophobic")
    assert not report.overall
    failing = [c for c in report.checks if not c.passes]
    assert failing and all(c.rigid for c in failing)
    for c in failing:
        assert validate_witness(report.graph, c.cube, c.witness,
                                "quasimonophobic")


@pytest.mark.parametrize("graph", [
    lambda: complete_bipartite_graph(2, 3), k4, lambda: hypercube_graph(3)],
    ids=["K_{2,3}", "K4", "Q3"])
@pytest.mark.parametrize("n", [1, 2])
def test_one_rigidity_scan_per_cube(monkeypatch, graph, n):
    g = graph()
    real, scanned = monophobic.is_rigid, []

    def counting(g, q):
        scanned.append(q)
        return real(g, q)

    monkeypatch.setattr(monophobic, "is_rigid", counting)
    report = check_graph(g, n)
    assert report.checks
    assert [id(q) for q in scanned] == [id(c.cube) for c in report.checks]
    assert [c.rigid for c in report.checks] == \
        [real(g, c.cube) for c in report.checks]


def test_vacuous_above_cubical_dimension():
    assert check_graph(greene_sphere(4), 3, "monophobic").overall
    assert check_graph(cycle_graph(5), 2, "quasimonophobic").overall


def test_unknown_mode_raises_without_cubes():
    # C5 has no squares, so no cube check ever sees the mode
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        check_graph(cycle_graph(5), 2, "bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        check_graph(cycle_graph(5), 1, "bogus")


def test_nonrigid_reported_distinctly():
    report = check_graph(k4(), 2, "quasimonophobic")
    assert not report.overall
    assert all(not c.rigid and not c.passes and c.witness is None
               for c in report.checks)


def test_mono_implies_quasi_small():
    for g in (cycle_graph(5), cycle_graph(6), greene_sphere(4),
              hypercube_graph(2), complete_bipartite_graph(2, 3)):
        for n in (1, 2):
            if is_monophobic(g, n):
                assert is_quasimonophobic(g, n)
