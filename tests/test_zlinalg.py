import random
from collections.abc import Sequence

import pytest

from cubehom import zlinalg
from echelon_reference import assert_same_passes
from cubehom.budget import BudgetExhausted, clear_time_budget, set_time_budget
from cubehom.chains import block, normalized_complex
from cubehom.graphs import greene_sphere
from cubehom.zlinalg import (
    AbelianGroup,
    ContractViolation,
    Echelon,
    GF2Echelon,
    GroupMap,
    SignedRows,
    apply_columns,
    axpy,
    cokernel_of,
    coreduce,
    echelon_from_rows,
    homology_at,
    image_of,
    is_surjective,
    kernel_echelon,
    kernel_of,
    lattice_preimage,
    lattice_torsion,
    quotient_group,
    quotient_in,
    smith_normal_form,
    split_echelon,
    subquotient_homology,
    subquotient_presentation,
)


def sparse(vec):
    """A dense vector as a sparse {index: coeff} dict."""
    return {i: v for i, v in enumerate(vec) if v}


def triple(rows, ncols):
    """A dense matrix as the (sparse_columns, nrows, ncols) triple."""
    cols = [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]
    return cols, len(rows), ncols


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_basic_2x2():
    # invariant-factor oracle: d1 = gcd of entries, d1*d2 = |det|
    rows = [{0: 2, 1: 4}, {0: 6, 1: 8}]
    assert smith_normal_form(rows) == [2, 4]
    assert rows == [{0: 2, 1: 4}, {0: 6, 1: 8}]  # input left as it was
    # a pivot that does not divide what is left takes it in
    assert smith_normal_form([{0: 2}, {1: 3}]) == [1, 6]
    assert smith_normal_form([{0: 2}, {1: 4}, {2: 6}]) == [2, 2, 12]


def test_snf_identity_and_zero():
    assert smith_normal_form([{i: 1} for i in range(3)]) == [1, 1, 1]
    assert smith_normal_form([{}, {}]) == []
    assert smith_normal_form([]) == []


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        rows = [sparse([rng.randint(-9, 9) for _ in range(c)])
                for _ in range(r)]
        diag = smith_normal_form(rows)
        assert len(diag) <= min(r, c)
        assert all(x > 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        ours = smith_normal_form([sparse(r) for r in rows])
        theirs = sympy_snf(sympy.Matrix(rows))
        tdiag = [abs(theirs[k, k]) for k in range(min(r, c))]
        tdiag = [x for x in tdiag if x]
        assert ours == tdiag


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
        snf_rank = len(smith_normal_form([sparse(r) for r in data]))
        assert snf_rank == bareiss_rank(r, c, data)


# ---------------------------------------------------------------------------
# echelon lattices
# ---------------------------------------------------------------------------

def test_kernel_echelon_examples():
    def kernel(rows, ncols):
        return kernel_echelon(*triple(rows, ncols))

    assert kernel([[1, 0], [0, 1]], 2).rank == 0
    assert kernel([[2, 0], [0, 0]], 2).rows == [{1: 1}]
    assert kernel([[1, 2], [1, 2]], 2).rows in ([{0: 2, 1: -1}],
                                                [{0: -2, 1: 1}])
    assert kernel([], 3).rank == 3  # zero map from Z^3 (no constraint rows)


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        cols = triple(m, c)[0]
        ker = kernel_echelon(cols, r, c)
        for row in ker.rows:
            # every kernel basis vector maps to zero
            img = [sum(m[i][j] * row.get(j, 0) for j in range(c))
                   for i in range(r)]
            assert not any(img)
        # saturation via rank: kernel rank + row rank = c
        img = echelon_from_rows(cols, r)
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


def test_split_echelon_reads_the_zero_top_rows_off():
    """The zero-top echelon is the full echelon's rows pivoting at or past
    `top`, shifted down: the same basis, with the same signs, as adding
    those rows to a fresh echelon over Z^bottom."""
    rng = random.Random(1313)
    for _ in range(60):
        top, bottom = rng.randint(0, 5), rng.randint(1, 6)
        def sparse(size):
            vec = {i: rng.randint(-4, 4) for i in range(size)}
            return {i: v for i, v in vec.items() if v and rng.random() < 0.5}

        cols = [(sparse(top), sparse(bottom))
                for _ in range(rng.randint(0, 8))]
        full, zero_top = split_echelon(cols, top, bottom)
        readd = Echelon(bottom)
        for row, piv in zip(full.rows, full.pivots):
            if piv >= top:
                readd.add({k - top: v for k, v in row.items()})
        assert zero_top.ncols == bottom
        assert zero_top.rows == readd.rows
        assert zero_top.pivots == readd.pivots


def test_lattice_sum_intersection_membership():
    two = echelon_from_rows([{0: 2}, {1: 2}], 2)
    three = echelon_from_rows([{0: 3}, {1: 3}], 2)
    assert lattice_sum(two, three).has_unit_pivots()
    assert lattice_sum(two, three).rank == 2

    a = echelon_from_rows([{0: 2}], 1)
    b = echelon_from_rows([{0: 3}], 1)
    inter = lattice_meet(a, b)
    assert inter.rows in ([{0: 6}], [{0: -6}])

    three2 = echelon_from_rows([{0: 3}, {1: 3}], 2)
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
                [sparse([rng.randint(-3, 3) for _ in range(n)])
                 for _ in range(k)], n)

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
    target = echelon_from_rows([{0: 2}], 1)
    pre = lattice_preimage([{0: 3}], 1, target)
    assert pre.rows == [{0: 2}]
    # preimage of 0 under [[1,1]] is the antidiagonal
    target = Echelon(1)
    pre = lattice_preimage([{0: 1}, {0: 1}], 2, target)
    assert pre.rank == 1
    row = pre.rows[0]
    assert row[0] + row[1] == 0 and abs(row[0]) == 1


def test_express_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        ech = echelon_from_rows(
            [sparse([rng.randint(-4, 4) for _ in range(n)])
             for _ in range(k)], n)
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
        assert got == {i: cf for i, cf in enumerate(coeffs) if cf}


# ---------------------------------------------------------------------------
# presented groups
# ---------------------------------------------------------------------------

def test_quotient_group_examples():
    g = quotient_group(2, [{0: 2}])
    assert g.invariants() == (1, (2,))
    assert str(g) == "Z + Z/2"
    assert quotient_group(3, []).invariants() == (3, ())
    assert quotient_group(1, [{0: 1}]).is_trivial


def test_quotient_group_torsion_chain():
    g = quotient_group(3, [{0: 2}, {1: 4}, {2: 6}])
    assert g.free_rank == 0
    assert g.torsion == (2, 2, 12)  # invariant factors of diag(2,4,6)


def test_group_map_identity_on_torsion():
    z2 = quotient_group(1, [{0: 2}])
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
    z4 = quotient_group(1, [{0: 4}])
    z2 = quotient_group(1, [{0: 2}])
    assert kernel_of(GroupMap(z2, z4, [{0: 2}])).is_trivial
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
    z2 = quotient_group(1, [{0: 2}])
    z = AbelianGroup.free(1)
    with pytest.raises(ContractViolation):
        GroupMap(z2, z, [{0: 1}])  # Z/2 -> Z sending gen to 1


def test_mod2_boundary_torsion():
    # d_in = multiplication by 2, d_out = 0: homology Z/2
    d_in = triple([[2]], 1)
    d_out = triple([], 1)
    g = subquotient_homology(d_in, d_out)
    assert g.invariants() == (0, (2,))
    g2, ker, rels = subquotient_presentation(d_in, d_out)
    assert g2.invariants() == (0, (2,))
    assert ker.rank == 1


def test_subquotient_zero_maps():
    g = subquotient_homology(triple([[]] * 5, 0), triple([], 5))
    assert g.invariants() == (5, ())


def test_subquotient_circle():
    # pentagon: d1 maps edges to vertex differences, d2 = 0
    edges = [(i, (i + 1) % 5) for i in range(5)]
    d1 = ([{a: -1, b: 1} for a, b in edges], 5, 5)
    h1 = subquotient_homology(triple([[]] * 5, 0), d1)
    assert h1.invariants() == (1, ())  # circuit rank of a 5-cycle
    h0 = subquotient_homology(d1, triple([], 5))
    assert h0.invariants() == (1, ())


def test_subquotient_rejects_noncomposable():
    d_in = triple([[1], [0]], 1)   # 2x1
    d_out = triple([[1, 1]], 2)    # 1x2
    with pytest.raises(ContractViolation):
        subquotient_homology(d_in, d_out)


def test_presentation_matches_classification_random():
    rng = random.Random(23)
    for _ in range(25):
        mid = rng.randint(1, 5)
        left = rng.randint(0, 4)
        right = rng.randint(0, 4)
        d_out = triple([[rng.randint(-2, 2) for _ in range(mid)]
                        for _ in range(right)], mid)
        # build d_in whose columns lie in ker(d_out): multiples of kernel rows
        ker = kernel_echelon(*d_out)
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
        b = subquotient_presentation(d_in, d_out)[0]
        assert a.invariants() == b.invariants()


def test_group_str_and_iso():
    assert str(AbelianGroup.trivial()) == "0"
    assert str(AbelianGroup.free(2)) == "Z^2"
    a = AbelianGroup.from_invariants(1, (2, 4))
    assert a.isomorphic(quotient_group(3, [{1: 2}, {2: 4}]))


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
        gens = [sparse([rng.randint(-4, 4) for _ in range(n)])
                for _ in range(rng.randint(0, 4))]
        ech = echelon_from_rows(gens, n)
        for _ in range(10):
            member = bool(gens) and rng.random() < 0.5
            if member:
                vec = {}
                for gen in gens:
                    axpy(vec, rng.randint(-3, 3), gen)
            else:
                vec = sparse([rng.randint(-6, 6) for _ in range(n)])
            before = dict(vec)
            coeffs = ech.express(vec)
            rest = ech.reduce(vec)
            assert vec == before  # neither consumes its argument
            assert (coeffs is None) == bool(rest)
            if member:
                assert coeffs is not None
            if coeffs is not None:
                back = {}
                for i, q in coeffs.items():
                    assert q
                    axpy(back, q, ech.rows[i])
                assert back == vec


def test_quotient_in_presents_and_names_violation():
    top = echelon_from_rows([{0: 1}, {1: 1}], 2)
    group, rels = quotient_in(top, [{0: 2}], "unused")
    assert group.invariants() == (1, (2,))
    assert rels == [{0: 2}]
    evens = echelon_from_rows([{0: 2}], 2)
    with pytest.raises(ContractViolation, match="sublattice escapes"):
        quotient_in(evens, [{0: 2}, {1: 1}], "sublattice escapes")


def test_lattice_torsion():
    assert lattice_torsion(echelon_from_rows([{0: 2}, {1: 3}], 2)) == (6,)
    assert lattice_torsion(echelon_from_rows([{0: 1, 1: 5}, {1: 1}], 2)) == ()
    assert lattice_torsion(Echelon(3)) == ()


def test_lattice_torsion_reads_only_the_non_unit_rows():
    # rows e_i + e_(i+1) and a last row 2 e_(n-1): one non-unit pivot in a
    # wide echelon, whose torsion must not cost a dense n x n Smith form
    n = 2000
    ech = echelon_from_rows(
        [{i: 1, i + 1: 1} for i in range(n - 1)] + [{n - 1: 2}], n)
    set_time_budget(1)
    try:
        assert lattice_torsion(ech) == (2,)
    finally:
        clear_time_budget()


def test_lattice_torsion_against_sympy_random():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        # rows with a +-1 pivot, so the reduction modulo unit rows runs
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(n)
            rows.append([0] * j + [rng.choice((1, -1))]
                        + [rng.randint(-9, 9) for _ in range(n - j - 1)])
        rng.shuffle(rows)
        theirs = sympy_snf(sympy.Matrix(rows))
        tdiag = [abs(theirs[k, k]) for k in range(min(len(rows), n))]
        got = echelon_from_rows([sparse(r) for r in rows], n)
        assert lattice_torsion(got) == tuple(x for x in tdiag if x > 1)


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
            assert ech.add(col.items()) is rose
            assert ech.rank == _mod2_rank_by_lists(cols[:j + 1], n)
        # fully reduced: each tail lies above its pivot and no tail holds a
        # pivot bit, and `holders` lists the tails of every other coordinate
        tails = dict(ech.tails)
        assert tails.pop(-1) == 0
        for pivot, tail in tails.items():
            assert tail >> pivot + 1 << pivot + 1 == tail
            assert not any(t >> pivot & 1 for t in tails.values())
        for k in range(n):
            if k not in tails:
                mask = sum(1 << p for p, t in tails.items() if t >> k & 1)
                assert ech.holders.get(k, 0) == mask


def test_gf2_echelon_stores_no_coordinate_that_is_not_a_pivot():
    # a coordinate that is not a pivot reads as its own bit without being
    # stored, so memory follows the rank however far the indices reach
    big = 10 ** 6
    ech = GF2Echelon()
    assert ech.add([(big, 1), (big + 1, 3), (-1, 1)])
    assert len(ech.tails) == 2 and ech.rank == 1
    for pairs in ([(big, -1), (big + 1, 1)], [(big + 2, 1), (big + 2, -1)],
                  [(big + 3, 2), (7, -4)], [(-1, 1), (-1, -1)]):
        assert not ech.add(pairs)
        assert len(ech.tails) == 2
    assert ech.tails == {-1: 0, big: 1 << big + 1}
    assert ech.holders == {big + 1: 1 << big}


# ---------------------------------------------------------------------------
# echelon_from_rows: GF(2) pick, exact replay, packed certificate
# ---------------------------------------------------------------------------

def _sequential_echelon(rows, ncols):
    """Every row through exact `Echelon.add`, in order: the reference for
    `echelon_from_rows`."""
    ech = Echelon(ncols)
    for r in rows:
        ech.add(dict(r))
    return ech


def _assert_same_lattice(rows, ncols, feed=None):
    """echelon_from_rows(feed or rows) spans the lattice of `rows`, as an
    echelon, and leaves the input rows as they were."""
    before = [dict(r) for r in rows]
    got = echelon_from_rows(rows if feed is None else feed(rows), ncols)
    assert rows == before
    want = _sequential_echelon(rows, ncols)
    assert got.rank == want.rank and got.pivots == want.pivots
    assert all(min(r) == j and r[j] > 0 for r, j in zip(got.rows, got.pivots))
    assert all(got.contains(r) for r in want.rows)
    assert all(want.contains(r) for r in got.rows)
    assert lattice_torsion(got) == lattice_torsion(want)
    return got


def _combination(rng, base, scale=2):
    vec = {}
    for row in base:
        axpy(vec, rng.randint(-scale, scale), row)
    return vec


def test_echelon_from_rows_matches_sequential_adds_random():
    rng = random.Random(71)
    for _ in range(150):
        ncols = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [{j: rng.randint(-3, 3) for j in range(ncols)
                 if rng.random() < density} for _ in range(rng.randint(0, 12))]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        # a list source and a callable source span the lattice of the
        # sequential adds
        _assert_same_lattice(rows, ncols)
        _assert_same_lattice(rows, ncols, feed=_callable)
        # mostly redundant rows over a few generators: the certified path
        base = rows[:rng.randint(0, 4)]
        more = base + [_combination(rng, base) for _ in range(15)]
        rng.shuffle(more)
        _assert_same_lattice(more, ncols)
        _assert_same_lattice(more, ncols, feed=_callable)


def test_echelon_from_rows_adds_what_the_slot_by_slot_passes_add():
    # each pass reduces a row by table lookups, not pair by pair: the same
    # rows are picked, replayed and added exactly, into the same echelon
    rng = random.Random(74)
    for _ in range(150):
        ncols = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [{j: v for j in range(ncols) if rng.random() < density
                 for v in [rng.randint(-3, 3)] if v}
                for _ in range(rng.randint(0, 12))]
        assert_same_passes(rows, ncols)
        base = rows[:rng.randint(0, 4)]
        more = base + [_combination(rng, base) for _ in range(15)]
        rng.shuffle(more)
        assert_same_passes(more, ncols)
    # {2: 2} reaches a coordinate outside the certificate (a KeyError)
    assert assert_same_passes([{0: 1, 1: 1}, {2: 2}], 3)[1] == 2
    assert assert_same_passes(
        SignedRows(lambda: iter([(0, 1), (2, 2)]), (1, 1)), 3)[1] == 2
    # a non-unit replay, after which every row with a face is added
    # exactly, faces that cancel included, and rows whose every slot is -1,
    # which no pass adds
    signs = (1, 1, 1, 1, -1)
    rows = [(0, 1, 1, -1, -1), (1, 1, 1, -1, -1), (1, -1, -1, -1, 1),
            (-1, -1, -1, -1, -1), (1, -1, -1, -1, -1)]
    assert assert_same_passes(SignedRows(lambda: iter(rows), signs), 2)[1] == 6
    rows = [(0, -1), (-1, -1), (1, 0), (0, 1)]
    source = SignedRows(lambda: iter(rows), (1, -1))
    assert assert_same_passes(source, 2)[1] == 2


def _callable(rows):
    """A callable source over `rows` that refuses more than two reads."""
    reads = []

    def source():
        reads.append(1)
        assert len(reads) <= 2, "the builder read its source a third time"
        return iter(rows)
    return source


class _Reads(Sequence):
    """A sequence over `rows` that counts its reads and refuses a list."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __len__(self):
        raise AssertionError("the builder listed a sequence")

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        self.reads += 1
        return iter(self.rows)


def test_echelon_from_rows_rereads_any_sequence():
    # a sequence other than a list or tuple (a packed boundary) is read
    # again, not listed
    rows = _Reads([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}])
    got = echelon_from_rows(rows, 3)
    assert rows.reads == 2
    assert got.rank == 2 and got.contains({0: 1, 2: -1})


def _exact_adds(monkeypatch):
    """Copies of the vectors that go through `Echelon.add` from now on."""
    added, add = [], Echelon.add
    monkeypatch.setattr(Echelon, "add",
                        lambda ech, vec: added.append(dict(vec)) or
                        add(ech, vec))
    return added


def test_echelon_from_rows_adds_a_failed_certificate(monkeypatch):
    # {0: 2} vanishes modulo 2, so the pick rejects it; its remainder
    # against the replayed (1, 1) is -2 e_0, not 0, so it is added exactly
    added = _exact_adds(monkeypatch)
    got = echelon_from_rows([{0: 1, 1: 1}, {0: 2}], 2)
    assert added == [{0: 1, 1: 1}, {0: 2}]
    monkeypatch.undo()
    assert lattice_torsion(got) == (2,)
    _assert_same_lattice([{0: 1, 1: 1}, {0: 2}], 2, feed=_callable)


def test_echelon_from_rows_non_unit_replay_adds_every_row(monkeypatch):
    # (1, 2) and (0, 3) are independent modulo 2 and replay, shortest
    # first, to the pivot 3; with no certificate, pass 2 adds every row
    # exactly, the rejected (1, 5) and (0, 1) included
    rows = [{0: 1, 1: 2}, {1: 3}, {0: 1, 1: 5}, {1: 1}]
    added = _exact_adds(monkeypatch)
    got = echelon_from_rows(_callable(rows), 2)
    assert added == [rows[1], rows[0]] + rows
    monkeypatch.undo()
    assert got.has_unit_pivots() and got.rank == 2
    _assert_same_lattice(rows, 2)


def _replay_by_last_entry(ech, rows):
    """The other replay order: increasing last entry."""
    for r in sorted(rows, key=max):
        ech.add(dict(r))


def _abs_pivots(ech):
    return [abs(r[j]) for r, j in zip(ech.rows, ech.pivots)]


def test_replay_order_keeps_pivots_and_lattice(monkeypatch):
    # the pivot columns and |pivots| of an echelon basis are invariants of
    # its lattice, so the replay order moves neither, only the basis
    rng = random.Random(22)
    other_basis = 0
    for _ in range(120):
        ncols = rng.randint(1, 10)
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [{j: v for j in range(ncols) if rng.random() < density
                 for v in [rng.randint(-4, 4)] if v}
                for _ in range(rng.randint(0, 14))]
        got = _assert_same_lattice(rows, ncols)
        with monkeypatch.context() as m:
            m.setattr(zlinalg, "replay", _replay_by_last_entry)
            old = _assert_same_lattice(rows, ncols)
        assert got.pivots == old.pivots
        assert _abs_pivots(got) == _abs_pivots(old)
        assert got.has_unit_pivots() == old.has_unit_pivots()
        other_basis += got.rows != old.rows
    assert other_basis > 0


def test_echelon_from_rows_gf2_dependent_rows():
    # dependent modulo 2, independent over Q: each must reach the exact adds
    for rows, ncols, torsion in (
            ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, (2,)),
            ([{0: 1}, {1: 1}, {2: 2}], 3, (2,)),
            ([{0: 1, 1: 1}, {0: 3, 1: 3}, {2: 1}], 3, ()),
            ([{0: 1, 1: 1, 2: 1}, {0: 3, 1: 1, 2: 5}], 3, (2,)),
            ([{0: 1, 1: 1, 2: 1}, {0: 1, 2: 1}, {1: 1, 2: 1},
              {0: 1, 1: 1, 2: 2}], 3, ()),
            ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3, (2,)),
            # unreduced, (1, 1, 0) would hide the remainder 2 e_2 of (2, 1, 1)
            ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}], 3, (2,))):
        got = _assert_same_lattice(rows, ncols)
        assert lattice_torsion(got) == torsion


def test_echelon_from_rows_non_unit_pivots_take_the_exact_adds():
    for rows, ncols in (
            ([[2, 0], [0, 3]], 2),
            ([[3, 1], [1, 3]], 2),     # (1, 3) - 3 (3, 1) vanishes off pivots
            ([[3, 1], [5, 1]], 2),     # (5, 1) - (5 // 3) (3, 1) too
            ([[3, 1, 0], [1, 1, 2], [0, 2, 5]], 3),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15], [2, 2, 2]], 3)):
        got = _assert_same_lattice([sparse(r) for r in rows], ncols)
        assert got.rank == min(len(rows), ncols)


def test_echelon_from_rows_lane_width_near_2_40():
    # (1, 1 + 2^42, -1) - (1, 1, 1) has lanes 2^42 and -2; in lanes two
    # bits narrower than |v|_1 * max|R| = 2^42 + 3 needs, they would cancel
    w = 40
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1 + (1 << (w + 2)), 2: -1}]
    assert _assert_same_lattice(rows, 3).rank == 2
    rng = random.Random(72)
    for _ in range(40):
        base = [{j: rng.randint(-1, 1) for j in range(6)} for _ in range(3)]
        base = [{j: v for j, v in r.items() if v} for r in base]
        rows = base + [_combination(rng, base, 1 << w) for _ in range(8)]
        k = rng.randrange(len(rows))
        j = rng.randrange(6)
        rows[k][j] = rows[k].get(j, 0) + (rng.choice((-2, 2)) << w)
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        _assert_same_lattice(rows, 6)


def test_echelon_from_rows_iterator_and_generator_input():
    rng = random.Random(73)
    for _ in range(30):
        ncols = rng.randint(1, 7)
        base = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(3)]
        rows = [sparse(r) for r in base + [
            [sum(rng.randint(-2, 2) * b[j] for b in base)
             for j in range(ncols)] for _ in range(6)]]
        _assert_same_lattice(rows, ncols, feed=iter)
        _assert_same_lattice(rows, ncols, feed=lambda rows: (r for r in rows))


@pytest.fixture(scope="module")
def gs4():
    return normalized_complex(greene_sphere(4), 3)


def test_echelon_from_rows_adds_only_the_gf2_picks(monkeypatch, gs4):
    # the 21,552 boundary columns of d_3 of greene-sphere(4) span a lattice
    # of rank 344 with unit pivots: one exact add per rank step, read as
    # dicts or as the stored face tuples
    c = gs4
    adds = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add",
                        lambda ech, vec: adds.append(1) or add(ech, vec))
    ech = echelon_from_rows(c.columns[3], c.dim(2))
    assert ech.rank == 344 and len(adds) == 344
    faces = echelon_from_rows(block(c, 3)[0], c.dim(2))
    assert (faces.rows, faces.pivots) == (ech.rows, ech.pivots)
    assert len(adds) == 2 * 344
    monkeypatch.undo()
    assert ech.pivots == _sequential_echelon(c.columns[3], c.dim(2)).pivots


def _counting_source(rows, pulled, signs=None):
    """A source of `rows` that appends to `pulled` the number of rows
    pulled in each read; with `signs`, a `SignedRows` of index tuples."""
    def source():
        pulled.append(0)
        for r in rows:
            pulled[-1] += 1
            yield r
    return source if signs is None else SignedRows(source, signs)


def _sources(c, n, count=None):
    """(rows, signs) of d_n of c as dicts (signs None) and as the stored
    face tuples of `block`, the first `count` columns of each."""
    faces = block(c, n)[0]
    return ((list(c.columns[n])[:count], None),
            (list(faces.read())[:count], faces.signs))


def test_row_loops_read_the_clock_on_their_first_row(monkeypatch, gs4):
    for rows, signs in _sources(gs4, 3, 200):
        pulled = []
        set_time_budget(-1)
        try:
            with pytest.raises(BudgetExhausted):
                echelon_from_rows(_counting_source(rows, pulled, signs),
                                  gs4.dim(2))
            assert pulled == [1]
        finally:
            clear_time_budget()
        # and in pass 2: the clock runs out once the second read begins
        pulled = []

        def stop_in_pass_2():
            if len(pulled) == 2:
                raise BudgetExhausted("soft time budget exhausted")

        with monkeypatch.context() as m:
            m.setattr(zlinalg, "checkpoint", stop_in_pass_2)
            with pytest.raises(BudgetExhausted):
                echelon_from_rows(_counting_source(rows, pulled, signs),
                                  gs4.dim(2))
        assert pulled == [200, 1]


def test_row_loops_read_the_clock_every_64_rows(monkeypatch, gs4):
    # the second clock read in a pass comes with its 65th row: in
    # echelon_from_rows' first pass, which adds nothing exactly, in its
    # second, which adds nothing exactly on this boundary (the replay's
    # adds come between the two); each clock read is tagged with the
    # number of reads of the source begun before it
    clock, pulled = [], []

    def stop_on_second():
        clock.append(len(pulled))
        if clock.count(stop_in) == 2:
            raise BudgetExhausted("soft time budget exhausted")

    monkeypatch.setattr(zlinalg, "checkpoint", stop_on_second)
    (dicts, _), faces = _sources(gs4, 3)
    for rows, signs in ((dicts, None), faces):
        for stop_in in (1, 2):
            clock.clear()
            pulled.clear()
            with pytest.raises(BudgetExhausted):
                echelon_from_rows(_counting_source(rows, pulled, signs),
                                  gs4.dim(2))
            assert pulled == [len(rows)] * (stop_in - 1) + [65]


def test_row_loops_under_a_distant_deadline_are_unchanged(gs4):
    rows, ncols = gs4.columns[3], gs4.dim(2)
    want = echelon_from_rows(rows, ncols)
    set_time_budget(3600)
    try:
        got = echelon_from_rows(rows, ncols)
        assert (got.rows, got.pivots) == (want.rows, want.pivots)
    finally:
        clear_time_budget()


# ---------------------------------------------------------------------------
# packed d o d = 0 check
# ---------------------------------------------------------------------------

def test_composable_check_catches_one_changed_boundary_entry(gs4):
    c = gs4
    d_out = (c.columns[2], c.dim(1), c.dim(2))
    d_in = (c.columns[3], c.dim(2), c.dim(3))
    assert subquotient_homology(d_in, d_out).invariants() == (1, ())
    j, i = next((j, i) for j, col in enumerate(c.columns[3])
                for i in col if c.columns[2][i])
    cols = list(c.columns[3])
    cols[j] = dict(cols[j])
    cols[j][i] += 1
    with pytest.raises(ContractViolation):
        subquotient_homology((cols, c.dim(2), c.dim(3)), d_out)
    with pytest.raises(ContractViolation):
        subquotient_presentation((cols, c.dim(2), c.dim(3)), d_out)


def test_subquotient_homology_reads_d_in_twice(gs4):
    # the image builder's two passes; d o d = 0 is checked on its rows
    c, reads = gs4, []

    def d_in():
        reads.append(1)
        return iter(c.columns[3])

    d_out = (c.columns[2], c.dim(1), c.dim(2))
    group = subquotient_homology((d_in, c.dim(2), c.dim(3)), d_out)
    assert group.invariants() == (1, ()) and len(reads) == 2


def test_apply_columns():
    cols = [{0: 1, 2: -1}, {}, {1: 3, 2: 1}]
    assert apply_columns(cols, {0: 2, 2: 2}) == {0: 2, 1: 6}
    assert apply_columns(cols, {1: 5}) == {}


def test_composable_check_lane_width():
    # d_out o d_in = (2^k, -1): |col|_1 * max|d_out| = 2^k + 1 takes k + 1
    # bits, and in lanes of k bits 2^k - 1 * 2^k would read 0
    for k in (1, 5, 40):
        d_out = ([{0: 1}, {1: 1}], 2, 2)
        with pytest.raises(ContractViolation):
            subquotient_homology(([{0: 1 << k, 1: -1}], 2, 1), d_out)
    d_out = triple([[1, 1, 0], [0, 1, 1]], 3)
    d_in = ([{0: 1 << 40, 1: -(1 << 40), 2: 1 << 40}], 3, 1)
    assert subquotient_homology(d_in, d_out).invariants() == (0, (1 << 40,))
    # d_out o d_in = (4, -1): the first packing, in 2-bit lanes, meets the
    # entry 4 of d_out and must widen, or 4 - 1 * 2^2 would read 0
    with pytest.raises(ContractViolation):
        subquotient_homology(([{0: 1}], 1, 1), ([{0: 4, 1: -1}], 2, 1))


# ---------------------------------------------------------------------------
# coreduction
# ---------------------------------------------------------------------------

def test_coreduce_retries_a_waiting_column_as_its_rows_leave():
    # "w" waits on rows 0, 1 and 2; it pairs with 2 once 0 and 1 have left
    rest = {0, 1, 2, 3}
    cols = [("w", {0: 1, 1: -1, 2: 1}), ("a", {0: 1}), ("b", {1: -1, 3: 1})]
    assert list(coreduce(cols, rest)) == ["a"]
    assert rest == {1, 2, 3}
    rest = {0, 1, 2, 3}
    assert list(coreduce(cols + [("c", {3: 1})], rest)) == ["a", "c", "b",
                                                             "w"]
    assert rest == set()


def test_coreduce_never_pairs_a_non_unit_entry():
    rest = {0, 1}
    # "x" is left with row 0 at entry 2 once "y" pairs row 1
    cols = [("x", {0: 2, 1: 1}), ("z", {0: -2}), ("y", {1: 1, 5: 3})]
    assert list(coreduce(cols, rest)) == ["y"]
    assert rest == {0}


def test_coreduce_yields_keys_in_pairing_order_first_in_first_out():
    # "p" frees row 0, so "q" and "r" are retried in the order they came;
    # "q" takes row 1 and leaves "s", which waits on it, behind "r"
    rest = {0, 1, 2, 3}
    cols = [("q", {0: 1, 1: 1}), ("r", {0: 1, 2: 1}), ("s", {1: 1, 3: 1}),
            ("p", {0: 1})]
    assert list(coreduce(cols, rest)) == ["p", "q", "r", "s"]
    assert rest == set()


def test_coreduce_pulls_no_column_once_the_caller_stops():
    pulled = []

    def columns():
        for j in range(10):
            pulled.append(j)
            yield j, {j: 1}
    pairs = coreduce(columns(), set(range(10)))
    assert next(pairs) == 0 and next(pairs) == 1
    pairs.close()
    assert pulled == [0, 1]


def test_coreduce_reads_the_clock_every_64_columns(monkeypatch):
    calls = []
    monkeypatch.setattr(zlinalg, "checkpoint", lambda: calls.append(1))
    rest = set(range(200))
    assert len(list(coreduce(((j, {j: 1}) for j in range(200)), rest))) == 200
    assert len(calls) == 3
