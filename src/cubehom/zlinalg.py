"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints: Smith and Hermite
normal forms, echelonized lattice bases, and finitely presented abelian
groups with homomorphisms between them.  No floating point, no modular
shortcuts; intermediate entry growth is controlled by minimal-pivot
selection, not truncated.

Vectors over a fixed ambient Z^n appear in two shapes: dense lists of
ints, and sparse {index: coeff} dicts (zero coefficients never stored).
Lattices are held as `Echelon` objects: row bases sorted by strictly
increasing pivot column.
"""

from bisect import bisect_left

from .budget import checkpoint


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        else:
            assert len(data) == rows and all(len(r) == cols for r in data)
        self.data = data

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows, cols):
        return cls(len(rows), cols, [list(r) for r in rows])

    def column(self, j):
        return [row[j] for row in self.data]

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        out = IntMatrix(self.rows, other.cols)
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# sparse echelonized lattice bases
# ---------------------------------------------------------------------------

class Echelon:
    """Basis of a sublattice of Z^ncols in row-echelon form.

    Rows are sparse dicts; the pivot of each row is its smallest column
    index, and pivot columns strictly increase down the basis.  `add`
    grows the lattice by one vector, keeping the echelon invariant via
    gcd row operations (unimodular on the span).
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Add the span of `vec` (a sparse dict, consumed) to the lattice."""
        rows, pivots = self.rows, self.pivots
        while vec:
            j = min(vec)
            pos = bisect_left(pivots, j)
            if pos == len(pivots) or pivots[pos] != j:
                if vec[j] < 0:
                    vec = {k: -v for k, v in vec.items()}
                rows.insert(pos, vec)
                pivots.insert(pos, j)
                return
            row = rows[pos]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k, v in row.items():
                    w = vec.get(k, 0) - q * v
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
            else:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_row = {}
                for k in set(row) | set(vec):
                    rv = row.get(k, 0)
                    vv = vec.get(k, 0)
                    nr = x * rv + y * vv
                    nv = ag * vv - bg * rv
                    if nr:
                        new_row[k] = nr
                    if nv:
                        vec[k] = nv
                    else:
                        vec.pop(k, None)
                rows[pos] = new_row
            checkpoint()

    def reduce(self, vec):
        """Reduce a sparse vector against the basis as far as divisibility
        allows; the result is empty iff `vec` lies in the lattice."""
        vec = dict(vec)
        pivots = self.pivots
        while vec:
            j = min(vec)
            pos = bisect_left(pivots, j)
            if pos == len(pivots) or pivots[pos] != j:
                return vec
            row = self.rows[pos]
            b, a = vec[j], row[j]
            if b % a:
                return vec
            q = b // a
            for k, v in row.items():
                w = vec.get(k, 0) - q * v
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return vec

    def contains(self, vec):
        return not self.reduce(vec)

    def express(self, vec):
        """Coefficients writing `vec` over the basis rows, or None if the
        vector is not in the lattice."""
        vec = dict(vec)
        coeffs = [0] * len(self.rows)
        pivots = self.pivots
        while vec:
            j = min(vec)
            pos = bisect_left(pivots, j)
            if pos == len(pivots) or pivots[pos] != j:
                return None
            row = self.rows[pos]
            b, a = vec[j], row[j]
            if b % a:
                return None
            q = b // a
            coeffs[pos] = q
            for k, v in row.items():
                w = vec.get(k, 0) - q * v
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return coeffs

    def basis_rows(self):
        """Dense copies of the basis rows."""
        return [sparse_to_dense(r, self.ncols) for r in self.rows]

    def has_unit_pivots(self):
        """True when every pivot entry is +-1, in which case the lattice is
        a direct summand of Z^ncols and its cokernel is free."""
        for row, j in zip(self.rows, self.pivots):
            if row[j] not in (1, -1):
                return False
        return True


def sparse_to_dense(vec, n):
    out = [0] * n
    for k, v in vec.items():
        out[k] = v
    return out


def dense_to_sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def echelon_from_rows(rows, ncols):
    """Echelonize an iterable of rows (dense lists or sparse dicts)."""
    ech = Echelon(ncols)
    for r in rows:
        ech.add(dict(r) if isinstance(r, dict) else dense_to_sparse(r))
    return ech


def split_echelon(columns, top, bottom):
    """Echelonize vectors of Z^(top+bottom) and split off the zero-top part.

    `columns` yields pairs (top_part, bottom_part) of sparse dicts.  The
    return value is (full, zero_top) where `full` is the echelon of the
    stacked vectors and `zero_top` is the Echelon over Z^bottom spanned by
    the bottom parts of lattice elements whose top part vanishes.

    This one primitive computes kernels (top = M e_j, bottom = e_j),
    boundary images of relative cycles (top = proj dx, bottom = dx), and
    lattice intersections.
    """
    full = Echelon(top + bottom)
    for t, b in columns:
        vec = dict(t)
        for k, v in b.items():
            vec[k + top] = v
        full.add(vec)
    zero_top = Echelon(bottom)
    for row, piv in zip(full.rows, full.pivots):
        if piv >= top:
            zero_top.add({k - top: v for k, v in row.items()})
    return full, zero_top


def kernel_echelon(columns, nrows, ncols):
    """Kernel lattice {x : M x = 0} of the matrix with the given sparse
    columns (length `ncols`, entries indexed below `nrows`)."""
    _, ker = split_echelon(
        ((col, {j: 1}) for j, col in enumerate(columns)), nrows, ncols)
    return ker


def matrix_columns_sparse(m):
    """Sparse columns of an IntMatrix."""
    cols = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------

def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*m, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    r, c = m.rows, m.cols
    ech = Echelon(c + r)
    for i, row in enumerate(m.data):
        vec = dense_to_sparse(row)
        vec[c + i] = 1
        ech.add(vec)
    assert ech.rank == r
    work = [sparse_to_dense(row, c + r) for row in ech.rows]
    # pure-transform rows (zero matrix part) sink to the bottom
    head = [w for w, p in zip(work, ech.pivots) if p < c]
    tail = [w for w, p in zip(work, ech.pivots) if p >= c]
    work = head + tail
    for i, row in enumerate(head):
        piv = next(j for j in range(c) if row[j])
        if row[piv] < 0:
            work[i] = row = [-v for v in row]
        for ii in range(i):
            above = work[ii]
            q = above[piv] // row[piv]
            if q:
                work[ii] = [av - q * rv for av, rv in zip(above, row)]
    h = IntMatrix.from_rows([w[:c] for w in work], c)
    u = IntMatrix.from_rows([w[c:] for w in work], r)
    return h, u


def smith_normal_form(m):
    """Smith normal form with transforms: returns (U, D, V), D = U*m*V.

    U, V are unimodular; D is diagonal with d1 | d2 | ... >= 0.  Pivots are
    chosen by minimal absolute value to limit intermediate entry growth.
    """
    r, c = m.rows, m.cols
    d = [row[:] for row in m.data]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        d1, d2 = d[i1], d[i2]
        u1, u2 = u[i1], u[i2]
        for j in range(c):
            d2[j] -= q * d1[j]
        for j in range(r):
            u2[j] -= q * u1[j]

    def col_op(j1, j2, q):
        for row in d:
            row[j2] -= q * row[j1]
        for row in v:
            row[j2] -= q * row[j1]

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def find_pivot(k):
        best = None
        for i in range(k, r):
            row = d[i]
            for j in range(k, c):
                a = abs(row[j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
                    if a == 1:
                        return best
        return best

    n = min(r, c)
    for k in range(n):
        checkpoint()
        while True:
            best = find_pivot(k)
            if best is None:
                break
            _, i, j = best
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            dirty = False
            for i in range(k + 1, r):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    row_op(k, i, q)
                    if d[i][k]:
                        dirty = True
            for j in range(k + 1, c):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    col_op(k, j, q)
                    if d[k][j]:
                        dirty = True
            if not dirty:
                clean = (all(not d[i][k] for i in range(k + 1, r))
                         and all(not d[k][j] for j in range(k + 1, c)))
                if clean:
                    break

    # enforce the divisibility chain d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            a, b = d[k][k], d[k + 1][k + 1]
            violates = (b % a != 0) if a else (b != 0)
            if violates:
                # fold entry (k+1,k+1) into column k, rediagonalize the 2x2
                col_op(k + 1, k, -1)   # col k += col k+1
                g, x, y = _xgcd(a, b)
                # rows: [x y; -b/g a/g] on rows (k, k+1)
                ag, bg = a // g, b // g
                dk, dk1 = d[k], d[k + 1]
                uk, uk1 = u[k], u[k + 1]
                for j in range(c):
                    p, q = dk[j], dk1[j]
                    dk[j], dk1[j] = x * p + y * q, -bg * p + ag * q
                for j in range(r):
                    p, q = uk[j], uk1[j]
                    uk[j], uk1[j] = x * p + y * q, -bg * p + ag * q
                # clear the remaining off-diagonal entry in column k+1
                q = d[k][k + 1] // d[k][k]
                col_op(k, k + 1, q)
                assert d[k][k + 1] == 0 and d[k + 1][k] == 0
                changed = True
    for k in range(n):
        if d[k][k] < 0:
            for j in range(c):
                d[k][j] = -d[k][j]
            for j in range(r):
                u[k][j] = -u[k][j]
    return (IntMatrix.from_rows(u, r), IntMatrix.from_rows(d, c),
            IntMatrix.from_rows(v, c))


def invariant_factors(m):
    """Nonzero diagonal of the Smith form, as a divisibility chain."""
    _, d, _ = smith_normal_form(m)
    return [d.data[k][k] for k in range(min(m.rows, m.cols)) if d.data[k][k]]


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def lattice_sum(a, b):
    """Echelon basis of L(a) + L(b); inputs are Echelons over the same Z^n."""
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    out = Echelon(a.ncols)
    for row in a.rows:
        out.add(dict(row))
    for row in b.rows:
        out.add(dict(row))
    return out


def lattice_intersection(a, b):
    """Echelon basis of L(a) & L(b)."""
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    n = a.ncols
    cols = [(dict(row), dict(row)) for row in a.rows]
    cols += [({k: -v for k, v in row.items()}, {}) for row in b.rows]
    _, inter = split_echelon(cols, n, n)
    return inter


def lattice_preimage(columns, ncols, target):
    """Echelon basis of {x in Z^ncols : M x in L(target)} for the matrix M
    given by sparse `columns` over Z^(target.ncols)."""
    cols = [(col, {j: 1}) for j, col in enumerate(columns)]
    cols += [(dict(row), {}) for row in target.rows]
    _, pre = split_echelon(cols, target.ncols, ncols)
    return pre


def lattice_member(ech, vec):
    """Membership of a dense or sparse vector in the lattice."""
    if not isinstance(vec, dict):
        vec = dense_to_sparse(vec)
    return ech.contains(vec)


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------

class AbelianGroup:
    """Finitely generated abelian group from a presentation.

    The group is Z^ngens / L where L is the lattice spanned by the
    relation rows.  Elements are integer vectors of length ngens.  The
    isomorphism type (free rank plus invariant-factor torsion) is computed
    on construction; the presentation is retained so maps between
    presented groups can be formed later.
    """

    __slots__ = ("ngens", "relations", "free_rank", "torsion")

    def __init__(self, ngens, relations=None):
        self.ngens = ngens
        if relations is None:
            relations = Echelon(ngens)
        elif not isinstance(relations, Echelon):
            relations = echelon_from_rows(relations, ngens)
        if relations.ncols != ngens:
            raise ValueError("relation length does not match generator count")
        self.relations = relations
        self.free_rank = ngens - relations.rank
        if relations.has_unit_pivots():
            self.torsion = ()
        else:
            facs = invariant_factors(
                IntMatrix.from_rows(relations.basis_rows(), ngens))
            self.torsion = tuple(f for f in facs if f != 1)

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def trivial(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, free_rank, torsion=()):
        n = free_rank + len(torsion)
        rels = [{free_rank + i: t} for i, t in enumerate(torsion)]
        return cls(n, echelon_from_rows(rels, n))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def torsion_order(self):
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def invariants(self):
        return (self.free_rank, self.torsion)

    def isomorphic(self, other):
        return self.invariants() == other.invariants()

    def is_zero_element(self, vec):
        """Does the vector of generator coefficients represent 0?"""
        if not isinstance(vec, dict):
            vec = dense_to_sparse(vec)
        return self.relations.contains(vec)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroup({self})"


class ContractViolation(AssertionError):
    """An internal identity that must hold mathematically failed."""


class GroupMap:
    """Homomorphism between presented groups, as a matrix on generators.

    `columns[j]` is the image of source generator j, a sparse vector over
    the target's generators.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns, check=True):
        if len(columns) != source.ngens:
            raise ValueError("one image column required per source generator")
        self.source = source
        self.target = target
        self.columns = [dict(c) for c in columns]
        if check and not self._well_defined():
            raise ContractViolation("map does not respect source relations")

    def _well_defined(self):
        for rel in self.source.relations.rows:
            img = self.apply(rel)
            if not self.target.relations.contains(img):
                return False
        return True

    def apply(self, vec):
        """Image of an element (sparse or dense coefficient vector)."""
        if not isinstance(vec, dict):
            vec = dense_to_sparse(vec)
        out = {}
        for j, a in vec.items():
            for i, b in self.columns[j].items():
                w = out.get(i, 0) + a * b
                if w:
                    out[i] = w
                else:
                    del out[i]
        return out

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{} for _ in range(source.ngens)],
                   check=False)

    def is_zero_map(self):
        return all(self.target.relations.contains(c) for c in self.columns)

    def compose(self, other):
        """self o other (apply `other` first)."""
        if other.target is not self.source:
            if other.target.ngens != self.source.ngens:
                raise ValueError("composition shape mismatch")
        cols = [self.apply(c) for c in other.columns]
        return GroupMap(other.source, self.target, cols, check=False)


def kernel_lattice(f):
    """Lattice {x in Z^src : f(x) = 0 in target}, echelonized."""
    cols = [(dict(c), {j: 1}) for j, c in enumerate(f.columns)]
    cols += [(dict(r), {}) for r in f.target.relations.rows]
    _, ker = split_echelon(cols, f.target.ngens, f.source.ngens)
    return ker


def kernel_of(f):
    """Kernel of a GroupMap, as an abstract AbelianGroup."""
    ker = kernel_lattice(f)
    rels = []
    for row in f.source.relations.rows:
        coeffs = ker.express(row)
        if coeffs is None:
            raise ContractViolation("source relations must lie in the kernel")
        rels.append(dense_to_sparse(coeffs))
    return AbelianGroup(ker.rank, echelon_from_rows(rels, ker.rank))


def image_lattice(f):
    """Lattice im(f) + relations(target) inside Z^target."""
    out = Echelon(f.target.ngens)
    for c in f.columns:
        out.add(dict(c))
    for r in f.target.relations.rows:
        out.add(dict(r))
    return out


def image_of(f):
    """Image of a GroupMap, as an abstract AbelianGroup."""
    lat = image_lattice(f)
    rels = []
    for row in f.target.relations.rows:
        coeffs = lat.express(row)
        assert coeffs is not None
        rels.append(dense_to_sparse(coeffs))
    return AbelianGroup(lat.rank, echelon_from_rows(rels, lat.rank))


def cokernel_of(f):
    rows = [dict(r) for r in f.target.relations.rows]
    rows += [dict(c) for c in f.columns]
    return AbelianGroup(f.target.ngens,
                        echelon_from_rows(rows, f.target.ngens))


def is_surjective(f):
    lat = image_lattice(f)
    return lat.rank == f.target.ngens and lat.has_unit_pivots()


def is_injective(f):
    ker = kernel_lattice(f)
    # injective iff kernel lattice == relation lattice of the source
    for row in ker.rows:
        if not f.source.relations.contains(row):
            return False
    return True


def homology_at(f_in, f_out):
    """ker(f_out)/im(f_in) for composable GroupMaps A --f_in--> B --f_out--> C."""
    if f_in.target.ngens != f_out.source.ngens:
        raise ValueError("maps are not composable")
    ker = kernel_lattice(f_out)
    img = image_lattice(f_in)
    rels = []
    for row in img.rows:
        coeffs = ker.express(row)
        if coeffs is None:
            raise ContractViolation(
                "image does not lie in the kernel (f_out o f_in != 0)")
        rels.append(dense_to_sparse(coeffs))
    return AbelianGroup(ker.rank, echelon_from_rows(rels, ker.rank))


def induced_map(columns, source, target, check=True):
    """GroupMap sending source generator j to `columns[j]` in the target."""
    return GroupMap(source, target, columns, check=check)


def quotient_group(ambient_rank, relations):
    """Z^ambient_rank modulo the row space of `relations` (IntMatrix,
    iterable of rows, or Echelon)."""
    if isinstance(relations, IntMatrix):
        if relations.cols != ambient_rank:
            raise ValueError("relation width does not match ambient rank")
        relations = relations.data
    return AbelianGroup(ambient_rank, relations if isinstance(relations, Echelon)
                        else echelon_from_rows(relations, ambient_rank))


def subquotient_homology(d_in, d_out, presentation=False):
    """Homology ker(d_out)/im(d_in) of composable integer matrices.

    `d_in` enters the middle degree, `d_out` leaves it; both may be
    IntMatrix or a (sparse_columns, nrows, ncols) triple.  Requires
    d_out o d_in = 0 and checks it.

    With presentation=True the returned group's generators are a kernel
    basis of d_out with the image expressed in those coordinates (see
    `subquotient_presentation` for the generator data).  The default
    classifies the group from ranks and the image lattice, which gives
    the same isomorphism type and is cheaper.
    """
    if presentation:
        group, _, _ = subquotient_presentation(d_in, d_out)
        return group
    return _subquotient_classify(d_in, d_out)


def _as_sparse_cols(d):
    if isinstance(d, IntMatrix):
        return matrix_columns_sparse(d), d.rows, d.cols
    return d


def _check_composable(in_cols, out_cols):
    # exact check that d_out o d_in = 0, column by column
    for col in in_cols:
        acc = {}
        for j, a in col.items():
            for i, b in out_cols[j].items():
                w = acc.get(i, 0) + a * b
                if w:
                    acc[i] = w
                else:
                    del acc[i]
        if acc:
            raise ContractViolation("boundary of a boundary is nonzero")


def _subquotient_classify(d_in, d_out):
    in_cols, in_rows, in_ncols = _as_sparse_cols(d_in)
    out_cols, out_rows, out_ncols = _as_sparse_cols(d_out)
    if in_rows != out_ncols:
        raise ValueError("boundary matrices are not composable")
    _check_composable(in_cols, out_cols)
    img = Echelon(in_rows)
    for col in in_cols:
        img.add(dict(col))
    out_rank = Echelon(out_rows)
    for col in out_cols:
        out_rank.add(dict(col))
    free = in_rows - out_rank.rank - img.rank
    if img.has_unit_pivots():
        torsion = ()
    else:
        facs = invariant_factors(IntMatrix.from_rows(img.basis_rows(), in_rows))
        torsion = tuple(f for f in facs if f != 1)
    return AbelianGroup.from_invariants(free, torsion)


def subquotient_presentation(d_in, d_out):
    """As subquotient_homology, but returns (group, kernel, relation_rows):
    the group's generators are the kernel basis rows of d_out (an Echelon)
    and relation_rows is the image lattice written in those coordinates."""
    in_cols, in_rows, in_ncols = _as_sparse_cols(d_in)
    out_cols, out_rows, out_ncols = _as_sparse_cols(d_out)
    if in_rows != out_ncols:
        raise ValueError("boundary matrices are not composable")
    _check_composable(in_cols, out_cols)
    ker = kernel_echelon(out_cols, out_rows, out_ncols)
    img = Echelon(in_rows)
    for col in in_cols:
        img.add(dict(col))
    rels = []
    for row in img.rows:
        coeffs = ker.express(row)
        if coeffs is None:
            raise ContractViolation("image does not lie in the kernel")
        rels.append(dense_to_sparse(coeffs))
    group = AbelianGroup(ker.rank, echelon_from_rows(rels, ker.rank))
    return group, ker, rels
