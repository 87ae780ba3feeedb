import pytest

from cubehom.graphs import (
    EdgeListError,
    Graph,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    format_edge_list,
    generate,
    graph_space_homology,
    greene_sphere,
    hypercube_graph,
    is_square_free,
    is_triangle_free,
    parse_edge_list,
)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3 and g.edge_count == 3


def test_parse_single_vertex_header():
    g = parse_edge_list("# vertices 1\n")
    assert g.n == 1 and g.edge_count == 0


def test_parse_duplicate_edges_idempotent():
    g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.edge_count == 1


def test_parse_comments_and_crlf():
    g = parse_edge_list("# vertices 4\r\n# a comment\r\n0 1\r\n\r\n2 3\r\n")
    assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListError) as e:
        parse_edge_list("0 1\nnope\n")
    assert e.value.line_no == 2
    with pytest.raises(EdgeListError) as e:
        parse_edge_list("0 1\n2 2\n")
    assert "self-loop" in str(e.value)
    with pytest.raises(EdgeListError) as e:
        parse_edge_list("# vertices 2\n0 5\n")
    assert e.value.line_no == 2
    # the line of the first edge past the pinned count, not the header's
    with pytest.raises(EdgeListError, match="vertex 5 but") as e:
        parse_edge_list("# vertices 3\n0 1\n0 5\n")
    assert e.value.line_no == 3


def test_header_after_a_blank_line_pins_the_vertex_count():
    g = parse_edge_list("\n# vertices 5\n0 1\n")
    assert g.n == 5 and g.edges() == [(0, 1)]


@pytest.mark.parametrize("text", ["# a comment\n# vertices 5\n0 1\n",
                                  "0 1\n# vertices 5\n"])
def test_header_after_another_line_is_an_error(text):
    with pytest.raises(EdgeListError, match="first non-blank line") as e:
        parse_edge_list(text)
    assert e.value.line_no == 2


def test_roundtrip_is_identity():
    g = greene_sphere(4)
    assert parse_edge_list(format_edge_list(g)) == g


def test_greene_sphere_counts():
    # 8 cycle edges + 4 apex-u edges + 4 apex-v edges
    g = greene_sphere(4)
    assert g.n == 10 and g.edge_count == 16
    assert parse_edge_list(format_edge_list(g)).edge_count == 16


def test_greene_sphere_3_is_cube():
    # the n=3 sphere coincides with the 3-cube up to relabeling
    g = greene_sphere(3)
    h = hypercube_graph(3)
    assert g.n == h.n and g.edge_count == h.edge_count
    assert sorted(g.degree(v) for v in range(g.n)) == \
        sorted(h.degree(v) for v in range(h.n))
    # exact isomorphism via brute force over degree-preserving bijections
    import itertools
    gedges = set(g.edges())

    def iso_exists():
        for perm in itertools.permutations(range(8)):
            if all(((perm[a], perm[b]) if perm[a] < perm[b]
                    else (perm[b], perm[a])) in gedges for a, b in h.edges()):
                return True
        return False

    assert iso_exists()


def test_hypercube_2_is_square():
    g = hypercube_graph(2)
    assert g.n == 4 and g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_hypercube_counts():
    for n in range(7):
        g = hypercube_graph(n)
        assert g.n == 2 ** n
        assert g.edge_count == n * 2 ** (n - 1) if n else g.edge_count == 0


def test_generate_dispatch_and_validation():
    assert generate("cycle", (5,)).n == 5
    assert generate("complete-bipartite", (2, 3)).edge_count == 6
    with pytest.raises(ValueError):
        generate("greene-sphere", (2,))
    with pytest.raises(ValueError):
        generate("nosuch", (1,))
    with pytest.raises(ValueError):
        generate("cycle", (1, 2))


def test_triangle_and_square_predicates():
    k3 = cycle_graph(3)
    assert not is_triangle_free(k3)
    g4 = greene_sphere(4)
    assert is_triangle_free(g4)
    assert not is_square_free(g4)
    c5 = cycle_graph(5)
    assert is_triangle_free(c5) and is_square_free(c5)
    assert is_triangle_free(petersen()) and is_square_free(petersen())
    assert not is_square_free(complete_bipartite_graph(2, 3))


def test_greene_spheres_triangle_free_up_to_8():
    for n in range(3, 9):
        assert is_triangle_free(greene_sphere(n))


def test_components_deterministic():
    g = Graph(6, [(3, 4), (0, 1)])
    assert connected_components(g) == [[0, 1], [2], [3, 4], [5]]


def test_graph_space_homology():
    c5 = cycle_graph(5)
    h = graph_space_homology(c5, 3)
    assert [x.invariants() for x in h] == [(1, ()), (1, ()), (0, ()), (0, ())]

    forest = Graph(6, [(0, 1), (1, 2), (3, 4)])  # 3 components, no cycles
    h = graph_space_homology(forest, 1)
    assert h[0].invariants() == (3, ()) and h[1].invariants() == (0, ())

    h = graph_space_homology(petersen(), 2)
    assert h[0].invariants() == (1, ())
    assert h[1].invariants() == (6, ())  # circuit rank 15 - 10 + 1
    assert h[2].is_trivial


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
