import pytest

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


def test_vacuous_above_cubical_dimension():
    assert check_graph(greene_sphere(4), 3, "monophobic").overall
    assert check_graph(cycle_graph(5), 2, "quasimonophobic").overall


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
