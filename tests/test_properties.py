"""Randomized property suites over small graphs, run under a fixed seed
(override with --property-seed).  Instance sizes stay at or below 8
vertices and dimension 3; every check is exact."""

import pytest

from cube_group import act, reflection
from cubehom.chains import (
    degree_quotient_complex,
    flip_prism,
    normalized_complex,
)
from cubehom.cubes import (
    MINUS,
    PLUS,
    canonical_parametrization,
    cube_degree,
    face,
    image_subgraph,
    is_degenerate,
    is_injective,
    singular_cubes,
)
from cubehom.graphs import Graph, is_triangle_free
from cubehom.monophobic import check_graph, is_monophobic, is_quasimonophobic
from cubehom.zlinalg import Echelon, smith_normal_form
from test_zlinalg import sparse


def random_graph(rng, max_vertices=8, p=None):
    n = rng.randint(3, max_vertices)
    if p is None:
        p = rng.choice((0.2, 0.3, 0.4))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def sample_cubes(g, n, rng, count, filt="nondegenerate"):
    cubes = []
    for c in singular_cubes(g, n, filt):
        cubes.append(c)
        if len(cubes) >= 400:
            break
    rng.shuffle(cubes)
    return cubes[:count]


def test_boundary_squared_zero(property_rng):
    rng = property_rng
    for _ in range(40):
        g = random_graph(rng, max_vertices=6)
        c = normalized_complex(g, 2)
        for n in (2,):
            for col in c.columns[n]:
                acc = {}
                for i, v in col.items():
                    for ii, vv in c.columns[n - 1][i].items():
                        w = acc.get(ii, 0) + v * vv
                        if w:
                            acc[ii] = w
                        else:
                            del acc[ii]
                assert not acc


def test_boundary_squared_zero_dim3_sparse(property_rng):
    rng = property_rng
    done = 0
    while done < 8:
        g = random_graph(rng, max_vertices=5, p=0.3)
        c = normalized_complex(g, 3)
        if not c.dim(3):
            continue
        for col in c.columns[3]:
            acc = {}
            for i, v in col.items():
                for ii, vv in c.columns[2][i].items():
                    w = acc.get(ii, 0) + v * vv
                    if w:
                        acc[ii] = w
                    else:
                        del acc[ii]
            assert not acc
        done += 1


def test_face_relation_random(property_rng):
    rng = property_rng
    for _ in range(40):
        g = random_graph(rng)
        for n in (2, 3):
            for c in sample_cubes(g, n, rng, 5, "all"):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        for a in (MINUS, PLUS):
                            for b in (MINUS, PLUS):
                                assert face(face(c, j, b), i, a) == \
                                    face(face(c, i, a), j - 1, b)


def test_degree_monotone_random(property_rng):
    rng = property_rng
    for _ in range(40):
        g = random_graph(rng)
        for n in (1, 2, 3):
            for c in sample_cubes(g, n, rng, 4, "all"):
                d = cube_degree(c)
                for i in range(1, n + 1):
                    for s in (MINUS, PLUS):
                        assert cube_degree(face(c, i, s)) <= d
                if n >= 1 and d == 0:
                    assert is_degenerate(c)


def test_snf_contract_random(property_rng):
    rng = property_rng
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [sparse([rng.randint(-9, 9) for _ in range(c)])
                for _ in range(r)]
        diag = smith_normal_form(rows)
        assert len(diag) <= min(r, c)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        assert all(x > 0 for x in diag)


def _prism_remainder(sigma, n, i):
    """Boundary chain of the prism minus (-1)^i (sigma + sigma o T_i),
    over the nondegenerate basis."""
    rho = flip_prism(sigma, i)
    chain = {}
    for j in range(1, n + 2):
        s = (-1) ** j
        for side, sgn in ((MINUS, s), (PLUS, -s)):
            f = face(rho, j, side)
            if is_degenerate(f):
                continue
            w = chain.get(f, 0) + sgn
            if w:
                chain[f] = w
            else:
                del chain[f]
    flipped = act(sigma, *reflection(n, i))
    sign = (-1) ** i
    for cube, coeff in ((sigma, sign), (flipped, sign)):
        w = chain.get(cube, 0) - coeff
        if w:
            chain[cube] = w
        else:
            chain.pop(cube, None)
    return chain


def test_flip_prism_identity_random(property_rng):
    # for injective cubes the remainder of the prism boundary sits in
    # strictly smaller degree, so the identity holds in the top slice
    rng = property_rng
    for _ in range(30):
        g = random_graph(rng)
        for n in (1, 2):
            for sigma in sample_cubes(g, n, rng, 3, "injective"):
                for i in range(1, n + 1):
                    remainder = _prism_remainder(sigma, n, i)
                    assert all(cube_degree(t) < n for t in remainder)


def test_flip_prism_remainder_noninjective_general(property_rng):
    # for arbitrary nondegenerate cubes the remainder is still supported
    # on noninjective cubes (it just need not drop a full degree)
    rng = property_rng
    for _ in range(20):
        g = random_graph(rng)
        for n in (1, 2):
            for sigma in sample_cubes(g, n, rng, 3, "nondegenerate"):
                for i in range(1, n + 1):
                    remainder = _prism_remainder(sigma, n, i)
                    assert all(not is_injective(t) for t in remainder)


def test_same_image_squares_homologous_random(property_rng):
    rng = property_rng
    done = 0
    attempts = 0
    while done < 15 and attempts < 300:
        attempts += 1
        g = random_graph(rng, max_vertices=6, p=0.35)
        squares = [c for c in singular_cubes(g, 2, "injective")]
        if not squares or len(squares) > 64:
            continue
        c = normalized_complex(g, 3)
        q = degree_quotient_complex(c, 2)
        at2 = {cube: i for i, cube in enumerate(q.basis[2])}
        image = Echelon(q.dim(2))
        for col in q.columns[3]:
            image.add(dict(col))
        by_image = {}
        for sq in squares:
            by_image.setdefault(image_subgraph(sq), []).append(sq)
        for group in by_image.values():
            sigma = group[0]
            for gamma in group[1:]:
                sign = (canonical_parametrization(sigma)[0]
                        * canonical_parametrization(gamma)[0])
                diff = {at2[sigma]: 1}
                jg = at2[gamma]
                diff[jg] = diff.get(jg, 0) - sign
                if not any(diff.values()):
                    continue
                assert image.contains({k: v for k, v in diff.items() if v})
        done += 1
    assert done == 15


def test_mono_implies_quasi_random(property_rng):
    rng = property_rng
    for _ in range(30):
        g = random_graph(rng, max_vertices=7)
        for n in (1, 2):
            if is_monophobic(g, n):
                assert is_quasimonophobic(g, n)


def test_quasi_dim1_iff_triangle_free(property_rng):
    rng = property_rng
    for _ in range(40):
        g = random_graph(rng)
        assert check_graph(g, 1, "quasimonophobic").overall == \
            is_triangle_free(g)
