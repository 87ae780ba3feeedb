import hashlib
import random
from itertools import combinations, product
from math import comb

import pytest

from cube_group import act, det, reflection, signed_permutations
from cubehom import cubes
from cubehom.budget import BudgetExhausted, time_budget
from cubehom.chains import dump_complex, normalized_complex
from cubehom.cubes import (
    MINUS,
    PLUS,
    _degenerate_ban,
    cube_degree,
    cube_dim,
    canonical_parametrization,
    cube_subgraphs,
    cubical_dimension,
    face,
    face_getters,
    image_subgraph,
    is_degenerate,
    is_graph_map,
    is_injective,
    iter_faces,
    singular_cubes,
    subcube_getters,
)
from cubehom.cwcomplex import build_cw_complex
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
    # slot 2(i-1) + side would read face (2, -) and face (2, +) here
    sq = (0, 1, 2, 3)
    for side in (2, -1):
        with pytest.raises(ValueError):
            face(sq, 1, side)


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


def _oracle_restriction_injective(corners, free_bits, base):
    """The Gray-code walk over one subcube that `cube_degree` ran before
    the subcube tables."""
    seen = set()
    idx = 0
    k = len(free_bits)
    v = corners[base]
    if k == 0:
        return True
    seen.add(v)
    gray_prev = 0
    for m in range(1, 1 << k):
        gray = m ^ (m >> 1)
        idx ^= free_bits[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        v = corners[base | idx]
        if v in seen:
            return False
        seen.add(v)
    return True


def _oracle_injective_subcube(corners, n, k):
    """Whether some k-subcube of the n-cube `corners` is injective, by the
    old walk over free coordinates and 0/1 assignments of the fixed ones."""
    bits = [1 << i for i in range(n)]
    for free in combinations(range(n), k):
        free_bits = [bits[i] for i in free]
        fixed_bits = [bits[i] for i in range(n) if i not in free]
        for a in range(1 << (n - k)):
            base = sum(fb for t, fb in enumerate(fixed_bits) if a >> t & 1)
            if _oracle_restriction_injective(corners, free_bits, base):
                return True
    return False


def _oracle_degree(corners):
    n = cube_dim(corners)
    if len(set(corners)) == len(corners):
        return n
    for k in range(n - 1, 0, -1):
        if _oracle_injective_subcube(corners, n, k):
            return k
    return 0


def _random_corners(rng, n):
    """A corner tuple over 1 to 8 values, or an injective one with some
    corners glued onto others, so that every degree 0..n occurs."""
    size = 1 << n
    if rng.random() < 0.5:
        values = rng.randint(1, 8)
        return tuple(rng.randrange(values) for _ in range(size))
    corners = list(range(size))
    # log-uniform glue count, so that few glues (high degrees) are common
    for _ in range(int(size ** rng.random()) - 1):
        corners[rng.randrange(size)] = corners[rng.randrange(size)]
    return tuple(corners)


@pytest.mark.parametrize("name,graph", [
    ("greene-sphere(4)", lambda: greene_sphere(4)),
    ("K_{2,3}", lambda: complete_bipartite_graph(2, 3)),
])
def test_degree_matches_oracle_on_real_cubes(name, graph):
    g = graph()
    for n in range(4):
        cubes = list(singular_cubes(g, n, "nondegenerate"))
        assert cubes
        assert [cube_degree(c) for c in cubes] == \
            [_oracle_degree(c) for c in cubes]


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_matches_oracle_on_random_corners(n):
    rng = random.Random(1000 + n)
    seen = set()
    for _ in range(300):
        corners = _random_corners(rng, n)
        d = cube_degree(corners)
        assert d == _oracle_degree(corners)
        seen.add(d)
        # monotone: degree >= j iff some j-subcube is injective
        for j in range(1, n + 1):
            assert (d >= j) == _oracle_injective_subcube(corners, n, j)
    assert seen == set(range(n + 1))


def test_degree_table_cold_and_warm(monkeypatch):
    monkeypatch.setattr(cubes, "_degree_tables", {})
    rng = random.Random(2026)
    for n in range(7):
        for _ in range(40):
            corners = _random_corners(rng, n)
            cubes._degree_tables.clear()
            cold = cube_degree(corners)
            assert set(cubes._degree_tables) == {1 << n}
            assert cube_degree(corners) == cold == _oracle_degree(corners)


def test_degree_rejects_bad_lengths_and_stores_nothing(monkeypatch):
    tables = {}
    monkeypatch.setattr(cubes, "_degree_tables", tables)
    for stored in (set(), {4}):
        for length in (0, 3, 6):
            with pytest.raises(ValueError, match="power of two"):
                cube_degree(tuple(range(length)))
        assert set(tables) == stored
        assert cube_degree((0, 1, 1, 0)) == 1


def _table_degree(corners):
    """The subcube-table scan that `cube_degree` ran before it counted
    distinct corners: every level k = n down to 1, every subcube."""
    for k, getters in subcube_getters(cube_dim(corners)):
        size = 1 << k
        for get in getters:
            if len(set(get(corners))) == size:
                return k
    return 0


def test_degree_shortcut_matches_table_scan_on_all_cubes():
    rng = random.Random(20261018)
    graphs = []
    for nv in range(2, 8):
        for _ in range(3):
            pairs = list(combinations(range(nv), 2))
            edges = [e for e in pairs if rng.random() < 0.35][:8]
            graphs.append((Graph(nv, edges), 3))
    # every 4-cube on a one-edge graph: 2^16 maps on the edge's ends
    nv = rng.randint(2, 7)
    graphs.append((Graph(nv, [tuple(rng.sample(range(nv), 2))]), 4))
    seen = set()
    for g, top in graphs:
        for n in range(top + 1):
            for c in singular_cubes(g, n, "all"):
                d = cube_degree(c)
                assert d == _table_degree(c), c
                seen.add((n, d))
    # an injective 3-cube needs 8 vertices
    assert seen == {(n, d) for n in range(4) for d in range(min(n, 2) + 1)
                    } | {(4, 0), (4, 1)}


def test_subcube_table_sizes():
    assert subcube_getters(0) == ()
    for n in range(1, 7):
        corners = tuple(range(1 << n))
        levels = subcube_getters(n)
        assert [k for k, _ in levels] == list(range(n, 0, -1))
        for k, getters in levels:
            assert len(getters) == comb(n, k) * 2 ** (n - k)
            subcubes = set()
            for get in getters:
                sub = get(corners)
                # one corner per assignment of the k free coordinates
                free = 0
                for c in sub:
                    free |= c ^ sub[0]
                assert len(sub) == 1 << k == len(set(sub))
                assert free.bit_count() == k
                assert all(c & ~free == sub[0] & ~free for c in sub)
                subcubes.add(frozenset(sub))
            assert len(subcubes) == len(getters)


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
# signed permutations and the sign of the canonical parametrization
# ---------------------------------------------------------------------------

def _relative_sign(sigma, gamma):
    """Sign of the signed permutation g with gamma = sigma o g."""
    return (canonical_parametrization(sigma)[0]
            * canonical_parametrization(gamma)[0])


def test_identity_and_reflection():
    sq = (0, 1, 2, 3)
    assert act(sq, (0, 1), (0, 0)) == sq
    assert act((5, 9), *reflection(1, 1)) == (9, 5)
    assert det(*reflection(2, 1)) == -1
    assert canonical_parametrization((9, 5)) == (-1, (5, 9))


def test_swap_on_square():
    # T_{1,2} exchanges the two off-diagonal corners
    sq = (0, 1, 2, 3)
    t12 = ((1, 0), (0, 0))
    assert act(sq, *t12) == (0, 2, 1, 3)
    assert det(*t12) == -1
    assert canonical_parametrization((0, 2, 1, 3)) == (-1, sq)


def test_relating_automorphism_basics():
    sigma = (10, 11, 12, 13)
    assert _relative_sign(sigma, sigma) == 1
    assert _relative_sign(sigma, act(sigma, *reflection(2, 1))) == -1
    # quarter turn = swap then flip: determinant +1
    assert _relative_sign(sigma, act(sigma, (1, 0), (1, 0))) == 1


def test_relating_automorphism_sign_multiplicative():
    rng = random.Random(2)
    sigma = (3, 1, 4, 5, 9, 2, 6, 8)
    group = signed_permutations(3)
    for _ in range(40):
        a, b = rng.choice(group), rng.choice(group)
        gamma, tau = act(sigma, *a), act(sigma, *b)
        assert _relative_sign(sigma, gamma) == det(*a)
        assert _relative_sign(sigma, tau) == det(*b)
        assert _relative_sign(gamma, tau) == det(*a) * det(*b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_small():
    assert len(list(singular_cubes(k2(), 1, "all"))) == 4
    assert len(list(singular_cubes(k3(), 1, "all"))) == 9
    # 16 total assignments minus 6 degenerate, by inclusion-exclusion
    assert len(list(singular_cubes(k2(), 2, "nondegenerate"))) == 10


def test_enumeration_matches_brute_force():
    from itertools import product

    for g in (k2(), k3(), cycle_graph(4)):
        for n in (0, 1, 2):
            brute = [c for c in product(range(g.n), repeat=1 << n)
                     if is_graph_map(g, c)]
            got = list(singular_cubes(g, n, "all"))
            assert got == sorted(brute)
            assert got == sorted(set(got))  # no duplicates


def test_enumeration_lex_order_and_chunking():
    g = greene_sphere(4)
    full = list(singular_cubes(g, 2, "nondegenerate"))
    assert full == sorted(full)
    chunked = []
    for v in range(g.n):
        chunked.extend(singular_cubes(g, 2, "nondegenerate", prefix=(v,)))
    assert chunked == full


@pytest.mark.parametrize("filt", ["all", "nondegenerate", "injective"])
def test_prefix_restricts_the_stream(filt):
    g = hypercube_graph(3)
    full = list(singular_cubes(g, 3, filt))
    assert full
    for k in (1, 2, 3, 4, 8):
        by_prefix = {}
        for c in full:
            by_prefix.setdefault(c[:k], []).append(c)
        for prefix, cubes in by_prefix.items():
            assert list(singular_cubes(g, 3, filt, prefix=prefix)) == cubes


def test_injective_prefix_with_repeated_corner_yields_nothing():
    g = hypercube_graph(3)
    assert list(singular_cubes(g, 2, "injective", prefix=(0, 1, 1))) == []
    assert list(singular_cubes(g, 2, "injective", prefix=(0, 0, 1))) == []
    assert list(singular_cubes(g, 2, "all", prefix=(0, 1, 1))) == \
        [c for c in singular_cubes(g, 2) if c[:3] == (0, 1, 1)]


def _extends(cube, pattern):
    return all(cube[c] == v for c, v in pattern.items())


@pytest.mark.parametrize("graph,n,filt", [
    (lambda: hypercube_graph(3), 2, "all"),
    (lambda: hypercube_graph(3), 2, "injective"),
    (lambda: cycle_graph(5), 3, "all"),
    (lambda: cycle_graph(5), 3, "nondegenerate"),
], ids=["Q3-2-all", "Q3-2-injective", "C5-3-all", "C5-3-nondegenerate"])
def test_avoid_filters_the_stream_in_order(graph, n, filt):
    g = graph()
    size = 1 << n
    full = list(singular_cubes(g, n, filt))
    rng = random.Random(19)
    for _ in range(25):
        # patterns copied off cubes of the stream, so that they do match
        avoid = []
        for _ in range(rng.randint(1, 4)):
            c = rng.choice(full)
            corners = rng.sample(range(size), rng.randint(1, 3))
            avoid.append({b: c[b] for b in corners})
        want = [c for c in full if not any(_extends(c, p) for p in avoid)]
        assert len(want) < len(full)
        assert list(singular_cubes(g, n, filt, avoid=avoid)) == want
        for prefix in {c[:k] for c in full[::len(full) // 4]
                       for k in (1, 2, size - 1)}:
            assert list(singular_cubes(g, n, filt, prefix=prefix,
                                       avoid=avoid)) == \
                [c for c in want if c[:len(prefix)] == prefix]


_SMALL = {
    "K1": lambda: Graph(1, []),
    "P3": lambda: Graph(3, [(0, 1), (1, 2)]),
    "K_{1,3}": lambda: Graph(4, [(0, 1), (0, 2), (0, 3)]),
    "C4": lambda: cycle_graph(4),
    "K4": lambda: Graph(4, list(combinations(range(4), 2))),
    "C5": lambda: cycle_graph(5),
    "K_{2,3}": lambda: complete_bipartite_graph(2, 3),
    "C6": lambda: cycle_graph(6),
    "P3+K2+K1": lambda: Graph(6, [(0, 1), (1, 2), (3, 4)]),
}


@pytest.mark.parametrize("name,n", [
    (name, n) for name in _SMALL for n in (0, 1, 2)] + [
    (name, 3) for name in ("P3", "K_{1,3}", "C4", "K4")])
def test_singular_cubes_match_brute_force(name, n):
    # every vertex tuple, kept when it is a graph map and passes the filter,
    # in lexicographic order: the oracle for the walk and its bans
    g = _SMALL[name]()
    size = 1 << n
    every = [c for c in product(range(g.n), repeat=size) if is_graph_map(g, c)]
    tests = {"all": lambda c: True, "injective": is_injective,
             "nondegenerate": lambda c: all(
                 face(c, i, MINUS) != face(c, i, PLUS)
                 for i in range(1, n + 1))}
    rng = random.Random(f"{name}:{n}")
    prefixes = sorted({c[:rng.randint(1, size)] for c in every})
    prefixes = rng.sample(prefixes, min(12, len(prefixes)))
    prefixes += [c for c in every if is_degenerate(c)][:2]  # pinned last
    for filt, test in tests.items():
        want = [c for c in every if test(c)]
        assert list(singular_cubes(g, n, filt)) == want
        for _ in range(3):
            avoid = [{b: rng.randrange(g.n)
                      for b in rng.sample(range(size), rng.randint(1, size))}
                     for _ in range(rng.randint(1, 3))]
            kept = [c for c in want
                    if not any(_extends(c, p) for p in avoid)]
            assert list(singular_cubes(g, n, filt, avoid=avoid)) == kept
            for prefix in prefixes:
                k = len(prefix)
                assert list(singular_cubes(g, n, filt, prefix=prefix)) == \
                    [c for c in want if c[:k] == prefix]
                assert list(singular_cubes(g, n, filt, prefix=prefix,
                                           avoid=avoid)) == \
                    [c for c in kept if c[:k] == prefix]


def test_avoid_inside_the_prefix():
    g = hypercube_graph(2)
    # a pattern that the pinned corners already match empties the stream
    assert list(singular_cubes(g, 2, prefix=(0, 1), avoid=[{1: 1}])) == []
    assert list(singular_cubes(g, 2, prefix=(0, 1),
                               avoid=[{0: 0, 1: 2}])) != []
    assert list(singular_cubes(g, 2, avoid=[{0: 0}])) == \
        [c for c in singular_cubes(g, 2) if c[0] != 0]


@pytest.mark.parametrize("kwargs,match", [
    ({"prefix": ()}, "prefix"),
    ({"prefix": (0, 1, 3, 2, 0)}, "prefix"),
    ({"avoid": [{}]}, "avoid pattern"),
    ({"avoid": [{4: 0}]}, "avoid pattern"),
    ({"avoid": [{0: 0}, {-1: 0}]}, "avoid pattern"),
])
def test_bad_prefix_or_avoid_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        list(singular_cubes(hypercube_graph(2), 2, **kwargs))


@pytest.mark.parametrize("name,graph,n", [
    ("K_{2,3}", lambda: complete_bipartite_graph(2, 3), 3),
    ("greene-sphere(4)", lambda: greene_sphere(4), 2),
    ("Q3", lambda: hypercube_graph(3), 3),
    ("C5", lambda: cycle_graph(5), 1),
    # all 65,536 maps of I^4 onto an edge's ends are graph maps
    ("one edge", k2, 4),
])
def test_filter_predicates_match_the_all_stream(name, graph, n):
    g = graph()
    every = list(singular_cubes(g, n))
    tests = {"nondegenerate": lambda c: all(
                 face(c, i, MINUS) != face(c, i, PLUS) for i in range(1, n + 1)),
             "injective": is_injective}
    for filt, test in tests.items():
        assert list(singular_cubes(g, n, filt)) == [c for c in every
                                                     if test(c)]
    assert [not is_degenerate(c) for c in every] == \
        [tests["nondegenerate"](c) for c in every]


def _tuple_ban(n, corners):
    """The degenerate ban by whole-tuple comparison: per coordinate, the
    corners without its bit (but the last corner's partner) against their
    partners, both padded with corner 0 so that n = 1 compares ()."""
    last = (1 << n) - 1
    out = set()
    for bit in (1 << i for i in range(n)):
        front = [b for b in range(last) if not b & bit and b != last ^ bit]
        if (tuple(corners[b] for b in [0] + front)
                == tuple(corners[b] for b in [0] + [b | bit for b in front])):
            out.add(corners[last ^ bit])
    return out


@pytest.mark.parametrize("name,graph,n", [
    ("C5", lambda: cycle_graph(5), 1),
    ("C5", lambda: cycle_graph(5), 2),
    ("C5", lambda: cycle_graph(5), 3),
    ("one edge", k2, 1),
    ("one edge", k2, 2),
    ("one edge", k2, 3),
    ("one edge", k2, 4),
])
def test_degenerate_ban_matches_the_tuple_comparison(name, graph, n):
    ban = _degenerate_ban(n)
    prefixes = {c[:-1] for c in singular_cubes(graph(), n)}
    assert prefixes
    banned = 0
    for prefix in prefixes:
        got = ban(prefix)
        assert got == _tuple_ban(n, prefix), prefix
        banned += bool(got)
    assert banned


def test_unknown_filter_rejected():
    with pytest.raises(ValueError, match="unknown filter"):
        list(singular_cubes(hypercube_graph(2), 2, "noninjective"))


# ---------------------------------------------------------------------------
# cube subgraphs and cubical dimension
# ---------------------------------------------------------------------------

def test_cube_subgraphs_counts():
    assert len(cube_subgraphs(hypercube_graph(3), 2)) == 6
    assert len(cube_subgraphs(greene_sphere(4), 2)) == 8
    assert len(cube_subgraphs(complete_bipartite_graph(2, 3), 2)) == 3


def _spy_walks(monkeypatch):
    """Record (n, prefix, cubes yielded) for every `singular_cubes` walk."""
    walks = []
    orig = cubes.singular_cubes

    def spy(g, n, filt="all", prefix=None):
        walks.append([n, prefix, 0])
        for c in orig(g, n, filt, prefix):
            walks[-1][2] += 1
            yield c

    monkeypatch.setattr(cubes, "singular_cubes", spy)
    return walks


def test_cube_subgraphs_walk_only_canonical_fronts(monkeypatch):
    # each n-cube subgraph is met among the 2n cubes whose front face is a
    # canonical (n-1)-cube: 896 + 2688 + 3360 on Q7, where the injective
    # stream alone holds 26,880 3-cubes
    walks = _spy_walks(monkeypatch)
    assert len(cube_subgraphs(hypercube_graph(7), 3)) == 560
    assert sum(w[2] for w in walks) <= 7000


def test_cw_complex_walks_each_level_once(monkeypatch):
    # level n is walked once, from each rep's canonical first back corners
    # 2^(n-1): neighbours of corner 0 above corners 0 and 2^(n-2), outside
    # the rep, in increasing order
    g = hypercube_graph(7)
    walks = _spy_walks(monkeypatch)
    c = build_cw_complex(g, 3)
    assert [w[:2] for w in walks] == [
        [n, q.rep + (v,)] for n in range(1, 4) for q in c.cells[n - 1]
        for v in sorted(g.closed[q.rep[0]])
        if v > max(q.rep[0], q.rep[(1 << (n - 1)) >> 1]) and v not in q.rep]


def test_cube_subgraphs_stop_on_budget():
    with time_budget(0):
        with pytest.raises(BudgetExhausted):
            cube_subgraphs(hypercube_graph(6), 3)


class _SpyClosed(list):
    """Closed neighbourhoods that count how often the walk reads them."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return list.__getitem__(self, v)


def _spied(g):
    spy = Graph(g.n, g.edges())
    spy.closed = _SpyClosed(g.closed)
    return spy


@pytest.mark.parametrize("kwargs", [{}, {"prefix": (0,)},
                                    {"prefix": (0, 1)}])
def test_walk_reads_the_clock_on_its_first_node(kwargs):
    g = _spied(hypercube_graph(4))
    stream = singular_cubes(g, 3, "nondegenerate", **kwargs)
    with time_budget(-1):
        with pytest.raises(BudgetExhausted):
            next(stream)
    # the clock is read before the first node looks up a neighbourhood
    assert g.closed.reads == 0


@pytest.mark.parametrize("filt", ["all", "injective", "nondegenerate"])
def test_walk_under_a_distant_deadline_is_unchanged(filt):
    g = hypercube_graph(3)
    want = list(singular_cubes(g, 3, filt))
    front = next(c for c in want if c[0] != c[1])[:2]
    with time_budget(3600):
        assert list(singular_cubes(g, 3, filt)) == want
        assert list(singular_cubes(g, 3, filt, prefix=front)) == \
            [c for c in want if c[:2] == front]


def test_walk_reads_the_clock_every_64_nodes(monkeypatch):
    # read on every node, the clock would stop the walk on its second
    # node, corner 1, before any cube; read on every 64th, cubes come out
    # first, and they are the head of the stream
    g = greene_sphere(6)
    every = list(singular_cubes(g, 3, "nondegenerate"))
    calls = [0]

    def stop_on_second():
        calls[0] += 1
        if calls[0] == 2:
            raise BudgetExhausted("soft time budget exhausted")

    monkeypatch.setattr(cubes, "checkpoint", stop_on_second)
    got = []
    with pytest.raises(BudgetExhausted):
        for c in singular_cubes(g, 3, "nondegenerate"):
            got.append(c)
    assert 0 < len(got) < len(every)
    assert got == every[:len(got)]


def test_cube_subgraph_reps_are_lex_minimal():
    for q in cube_subgraphs(greene_sphere(4), 2):
        img = image_subgraph(q.rep)
        assert img == (q.vertices, q.edges)
        params = [act(q.rep, *a) for a in signed_permutations(2)]
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
