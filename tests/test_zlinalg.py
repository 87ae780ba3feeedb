import random

import pytest

from cubehom.budget import BudgetExhausted, clear_time_budget, set_time_budget
from cubehom.zlinalg import (
    AbelianGroup,
    ContractViolation,
    Echelon,
    GF2Echelon,
    GroupMap,
    IntMatrix,
    axpy,
    cokernel_of,
    dense_to_sparse,
    echelon_from_rows,
    hermite_normal_form,
    homology_at,
    image_of,
    invariant_factors,
    is_surjective,
    kernel_echelon,
    kernel_of,
    lattice_preimage,
    lattice_torsion,
    matrix_columns_sparse,
    quotient_group,
    quotient_in,
    smith_normal_form,
    split_echelon,
    subquotient_homology,
    subquotient_presentation,
)


def M(rows, cols=None):
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return IntMatrix.from_rows(rows, cols)


def is_unimodular(m):
    assert m.rows == m.cols
    return abs(_det(m.data)) == 1


def _det(a):
    # fraction-free (Bareiss) determinant
    a = [row[:] for row in a]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_basic_2x2():
    m = M([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    # invariant-factor oracle: d1 = gcd of entries, d1*d2 = |det|
    assert [d.data[0][0], d.data[1][1]] == [2, 4]
    assert u * m * v == d
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_identity_and_zero():
    u, d, v = smith_normal_form(IntMatrix.identity(3))
    assert d == IntMatrix.identity(3)
    u, d, v = smith_normal_form(IntMatrix(2, 3))
    assert d.is_zero()
    assert u * IntMatrix(2, 3) * v == d


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        m = M([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert is_unimodular(u) if r else True
        assert is_unimodular(v) if c else True
        diag = [d.data[k][k] for k in range(min(r, c))]
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else (y == 0)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d.data[i][j] == 0


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        ours = invariant_factors(M(rows, c))
        theirs = sympy_snf(sympy.Matrix(rows))
        tdiag = [abs(theirs[k, k]) for k in range(min(r, c))]
        tdiag = [x for x in tdiag if x]
        assert ours == tdiag


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def test_snf_rank_matches_fraction_free_elimination():
    def bareiss_rank(rows, cols, data):
        a = [row[:] for row in data]
        rank = 0
        prev = 1
        for col in range(cols):
            piv = next((i for i in range(rank, rows) if a[i][col]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            for i in range(rank + 1, rows):
                for j in range(col + 1, cols):
                    a[i][j] = (a[i][j] * a[rank][col]
                               - a[i][col] * a[rank][j]) // prev
                a[i][col] = 0
            prev = a[rank][col]
            rank += 1
        return rank

    rng = random.Random(41)
    for _ in range(40):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        data = [[rng.randint(-7, 7) for _ in range(c)] for _ in range(r)]
        snf_rank = len(invariant_factors(M(data, c)))
        assert snf_rank == bareiss_rank(r, c, data)


def test_hnf_gcd_column():
    h, u = hermite_normal_form(M([[2], [3]], 1))
    assert h.data == [[1], [0]]
    assert u * M([[2], [3]], 1) == h
    assert is_unimodular(u)


def test_hnf_identity():
    h, u = hermite_normal_form(IntMatrix.identity(4))
    assert h == IntMatrix.identity(4)


def test_hnf_already_triangular():
    m = M([[4, 0], [0, 6]])
    h, u = hermite_normal_form(m)
    assert h.data == [[4, 0], [0, 6]]


def test_hnf_contract_random():
    rng = random.Random(3)
    for _ in range(40):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        m = M([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c)
        h, u = hermite_normal_form(m)
        assert u * m == h
        if r:
            assert is_unimodular(u)
        # shape: pivots positive, strictly right-moving, zero rows last,
        # entries above each pivot reduced
        last = -1
        seen_zero = False
        for row in h.data:
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                seen_zero = True
                continue
            assert not seen_zero
            assert piv > last
            last = piv
            assert row[piv] > 0
        for i, row in enumerate(h.data):
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                continue
            for ii in range(i):
                assert 0 <= h.data[ii][piv] < row[piv]


# ---------------------------------------------------------------------------
# echelon lattices
# ---------------------------------------------------------------------------

def test_kernel_echelon_examples():
    def kernel(rows, ncols):
        m = M(rows, ncols)
        ker = kernel_echelon(matrix_columns_sparse(m), m.rows, m.cols)
        return ker

    assert kernel([[1, 0], [0, 1]], 2).rank == 0
    assert kernel([[2, 0], [0, 0]], 2).basis_rows() == [[0, 1]]
    assert kernel([[1, 2], [1, 2]], 2).basis_rows() == [[2, -1]] or \
        kernel([[1, 2], [1, 2]], 2).basis_rows() == [[-2, 1]]
    assert kernel([], 3).rank == 3  # zero map from Z^3 (no constraint rows)


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = M([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], c)
        ker = kernel_echelon(matrix_columns_sparse(m), r, c)
        for row in ker.rows:
            # every kernel basis vector maps to zero
            img = [sum(m.data[i][j] * row.get(j, 0) for j in range(c))
                   for i in range(r)]
            assert not any(img)
        # saturation via rank: kernel rank + row rank = c
        img = echelon_from_rows([m.column(j) for j in range(c)], r)
        assert ker.rank + img.rank == c


def lattice_sum(a, b):
    return echelon_from_rows(a.rows + b.rows, a.ncols)


def lattice_meet(a, b):
    # x in L(a) & L(b) iff (x, x) = sum of (r, r) over a minus (s, 0) over b
    # leaves a zero top part
    n = a.ncols
    cols = [(r, r) for r in a.rows]
    cols += [({k: -v for k, v in r.items()}, {}) for r in b.rows]
    return split_echelon(cols, n, n)[1]


def test_lattice_sum_intersection_membership():
    two = echelon_from_rows([[2, 0], [0, 2]], 2)
    three = echelon_from_rows([[3, 0], [0, 3]], 2)
    assert lattice_sum(two, three).has_unit_pivots()
    assert lattice_sum(two, three).rank == 2

    a = echelon_from_rows([[2]], 1)
    b = echelon_from_rows([[3]], 1)
    inter = lattice_meet(a, b)
    assert inter.basis_rows() == [[6]] or inter.basis_rows() == [[-6]]

    three2 = echelon_from_rows([[3, 0], [0, 3]], 2)
    assert three2.contains({0: 3})
    assert not three2.contains({0: 1})


def test_lattice_modular_identities_random():
    # (A + B) contains A; A & B contained in A; (A & B) + (A & C) inside A & (B + C)
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)

        def rand_lat():
            k = rng.randint(0, 3)
            return echelon_from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)], n)

        a, b, c = rand_lat(), rand_lat(), rand_lat()
        s = lattice_sum(a, b)
        for row in a.rows:
            assert s.contains(dict(row))
        i = lattice_meet(a, b)
        for row in i.rows:
            assert a.contains(dict(row)) and b.contains(dict(row))
        left = lattice_sum(lattice_meet(a, b), lattice_meet(a, c))
        right = lattice_meet(a, lattice_sum(b, c))
        for row in left.rows:
            assert right.contains(dict(row))


def test_lattice_preimage():
    # preimage of 2Z under multiplication by 3 on Z is 2Z
    target = echelon_from_rows([[2]], 1)
    pre = lattice_preimage([{0: 3}], 1, target)
    assert pre.basis_rows() == [[2]]
    # preimage of 0 under [[1,1]] is the antidiagonal
    target = Echelon(1)
    pre = lattice_preimage([{0: 1}, {0: 1}], 2, target)
    assert pre.rank == 1
    row = pre.basis_rows()[0]
    assert row[0] + row[1] == 0 and abs(row[0]) == 1


def test_express_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        ech = echelon_from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)], n)
        if not ech.rank:
            continue
        coeffs = [rng.randint(-3, 3) for _ in range(ech.rank)]
        vec = {}
        for cf, row in zip(coeffs, ech.rows):
            for j, v in row.items():
                w = vec.get(j, 0) + cf * v
                if w:
                    vec[j] = w
                else:
                    vec.pop(j, None)
        got = ech.express(dict(vec))
        assert got == coeffs


# ---------------------------------------------------------------------------
# presented groups
# ---------------------------------------------------------------------------

def test_quotient_group_examples():
    g = quotient_group(2, [[2, 0]])
    assert g.invariants() == (1, (2,))
    assert str(g) == "Z + Z/2"
    assert quotient_group(3, []).invariants() == (3, ())
    assert quotient_group(1, [[1]]).is_trivial


def test_quotient_group_torsion_chain():
    g = quotient_group(3, [[2, 0, 0], [0, 4, 0], [0, 0, 6]])
    assert g.free_rank == 0
    assert g.torsion == (2, 2, 12)  # invariant factors of diag(2,4,6)


def test_group_map_identity_on_torsion():
    z2 = quotient_group(1, [[2]])
    f = GroupMap(z2, z2, [{0: 1}])
    assert kernel_of(f).is_trivial
    assert image_of(f).invariants() == (0, (2,))


def test_group_map_doubling():
    z = AbelianGroup.free(1)
    f = GroupMap(z, z, [{0: 2}])
    assert kernel_of(f).is_trivial
    assert cokernel_of(f).invariants() == (0, (2,))
    assert not is_surjective(f)
    # the inclusion 2Z/4Z -> Z/4Z is injective; doubling on Z/4 is not
    z4 = quotient_group(1, [[4]])
    assert kernel_of(GroupMap(quotient_group(1, [[2]]), z4, [{0: 2}])).is_trivial
    assert kernel_of(GroupMap(z4, z4, [{0: 2}])).invariants() == (0, (2,))


def test_homology_at_zero_maps():
    a = AbelianGroup.free(8)
    b = AbelianGroup.free(6)
    f_in = GroupMap.zero(a, a)
    f_out = GroupMap.zero(a, b)
    assert homology_at(f_in, f_out).invariants() == (8, ())


def test_homology_at_contract_violation():
    z = AbelianGroup.free(1)
    f = GroupMap(z, z, [{0: 1}])
    with pytest.raises(ContractViolation):
        homology_at(f, f)  # identity composed with identity is not zero


def test_ill_defined_map_rejected():
    z2 = quotient_group(1, [[2]])
    z = AbelianGroup.free(1)
    with pytest.raises(ContractViolation):
        GroupMap(z2, z, [{0: 1}])  # Z/2 -> Z sending gen to 1


def test_mod2_boundary_torsion():
    # d_in = multiplication by 2, d_out = 0: homology Z/2
    d_in = M([[2]], 1)
    d_out = IntMatrix(0, 1)
    g = subquotient_homology(d_in, d_out)
    assert g.invariants() == (0, (2,))
    g2, ker, rels = subquotient_presentation(d_in, d_out)
    assert g2.invariants() == (0, (2,))
    assert ker.rank == 1


def test_subquotient_zero_maps():
    g = subquotient_homology(IntMatrix(5, 0), IntMatrix(0, 5))
    assert g.invariants() == (5, ())


def test_subquotient_circle():
    # pentagon: d1 maps edges to vertex differences, d2 = 0
    edges = [(i, (i + 1) % 5) for i in range(5)]
    d1 = IntMatrix(5, 5)
    for j, (a, b) in enumerate(edges):
        d1.data[b][j] += 1
        d1.data[a][j] -= 1
    h1 = subquotient_homology(IntMatrix(5, 0), d1)
    assert h1.invariants() == (1, ())  # circuit rank of a 5-cycle
    h0 = subquotient_homology(d1, IntMatrix(0, 5))
    assert h0.invariants() == (1, ())


def test_subquotient_rejects_noncomposable():
    d_in = M([[1], [0]], 1)   # 2x1
    d_out = M([[1, 1]], 2)    # 1x2
    with pytest.raises(ContractViolation):
        subquotient_homology(d_in, d_out)


def test_presentation_matches_classification_random():
    rng = random.Random(23)
    for _ in range(25):
        mid = rng.randint(1, 5)
        left = rng.randint(0, 4)
        right = rng.randint(0, 4)
        d_out = M([[rng.randint(-2, 2) for _ in range(mid)] for _ in range(right)], mid)
        # build d_in whose columns lie in ker(d_out): multiples of kernel rows
        ker = kernel_echelon(matrix_columns_sparse(d_out), right, mid)
        cols = []
        for _ in range(left):
            col = {}
            for row in ker.rows:
                cf = rng.randint(-2, 2)
                for j, v in row.items():
                    w = col.get(j, 0) + cf * v
                    if w:
                        col[j] = w
                    else:
                        col.pop(j, None)
            cols.append(col)
        d_in = (cols, mid, left)
        a = subquotient_homology(d_in, d_out)
        b = subquotient_homology(d_in, d_out, presentation=True)
        assert a.invariants() == b.invariants()


def test_group_str_and_iso():
    assert str(AbelianGroup.trivial()) == "0"
    assert str(AbelianGroup.free(2)) == "Z^2"
    a = AbelianGroup.from_invariants(1, (2, 4))
    assert a.isomorphic(quotient_group(3, [[0, 2, 0], [0, 0, 4]]))


def test_axpy_in_place_and_drops_zeros():
    d = {0: 1, 1: 2}
    axpy(d, 2, {1: -1, 2: 3})
    assert d == {0: 1, 2: 6}
    axpy(d, -1, dict(d))
    assert d == {}
    axpy(d, 0, {5: 1})
    assert d == {}
    src = {3: 4}
    axpy({3: 1}, 1, src)
    assert src == {3: 4}


def test_reduce_and_express_agree_random():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [dense_to_sparse([rng.randint(-4, 4) for _ in range(n)])
                for _ in range(rng.randint(0, 4))]
        ech = echelon_from_rows(gens, n)
        for _ in range(10):
            member = bool(gens) and rng.random() < 0.5
            if member:
                vec = {}
                for gen in gens:
                    axpy(vec, rng.randint(-3, 3), gen)
            else:
                vec = dense_to_sparse([rng.randint(-6, 6) for _ in range(n)])
            before = dict(vec)
            coeffs = ech.express(vec)
            rest = ech.reduce(vec)
            assert vec == before  # neither consumes its argument
            assert (coeffs is None) == bool(rest)
            if member:
                assert coeffs is not None
            if coeffs is not None:
                back = {}
                for q, row in zip(coeffs, ech.rows):
                    axpy(back, q, row)
                assert back == vec


def test_quotient_in_presents_and_names_violation():
    top = echelon_from_rows([[1, 0], [0, 1]], 2)
    group, rels = quotient_in(top, [{0: 2}], "unused")
    assert group.invariants() == (1, (2,))
    assert rels == [{0: 2}]
    evens = echelon_from_rows([[2, 0]], 2)
    with pytest.raises(ContractViolation, match="sublattice escapes"):
        quotient_in(evens, [{0: 2}, {1: 1}], "sublattice escapes")


def test_lattice_torsion():
    assert lattice_torsion(echelon_from_rows([[2, 0], [0, 3]], 2)) == (6,)
    assert lattice_torsion(echelon_from_rows([[1, 5], [0, 1]], 2)) == ()
    assert lattice_torsion(Echelon(3)) == ()


def test_echelon_checks_budget_per_vector():
    # fresh pivots never reduce, so only the once-per-vector check fires
    set_time_budget(-1)
    try:
        with pytest.raises(BudgetExhausted):
            split_echelon([({j: 1}, {}) for j in range(3)], 3, 0)
    finally:
        clear_time_budget()


def _mod2_rank_by_lists(cols, n):
    """Rank over GF(2) by plain elimination on 0/1 lists."""
    rows = []
    for col in cols:
        v = [col.get(i, 0) % 2 for i in range(n)]
        for row in rows:
            lead = row.index(1)
            if v[lead]:
                v = [a ^ b for a, b in zip(v, row)]
        if any(v):
            rows.append(v)
    return len(rows)


def test_gf2_echelon_matches_list_elimination_random():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 40)
        density = rng.choice((0.05, 0.2, 0.5))
        cols = [{i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in range(n)
                 if rng.random() < density}
                for _ in range(rng.randint(1, 2 * n))]
        ech = GF2Echelon()
        for j, col in enumerate(cols):
            rose = _mod2_rank_by_lists(cols[:j + 1], n) \
                > _mod2_rank_by_lists(cols[:j], n)
            assert ech.add(col) is rose
            assert ech.rank == _mod2_rank_by_lists(cols[:j + 1], n)
        # fully reduced: each pivot bit is set in exactly one row, and
        # `holders` lists the rows of every other coordinate
        for pivot, row in ech.rows.items():
            assert row & -row == 1 << pivot
            assert sum(r >> pivot & 1 for r in ech.rows.values()) == 1
        for k in range(n):
            if k not in ech.rows:
                mask = sum(1 << p for p, r in ech.rows.items() if r >> k & 1)
                assert ech.holders.get(k, 0) == mask
