"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints: echelonized
lattice bases, the invariant factors of a lattice, and finitely presented
abelian groups with homomorphisms between them.  No floating point;
intermediate entry growth is controlled by minimal-pivot selection, not
truncated.  The one modular tool, `GF2Echelon`, only picks which vectors
an exact computation should see first; no answer is read off it.

Vectors over a fixed ambient Z^n are sparse {index: coeff} dicts (zero
coefficients never stored), and a matrix is a list of them, by rows or by
columns, or a source: a zero-argument callable that returns a fresh
iterator of them.  A `SignedRows` source holds its rows as tuples of
indices instead, one fixed sign per slot and -1 for no entry (`merge`
makes the dict of one), which is how a stored boundary is read.
Lattices are held as `Echelon` objects: row bases sorted by strictly
increasing pivot column.

All sparse-vector and lattice arithmetic of the package lives in this
module; the other modules call it rather than update, reduce or quotient
vectors themselves.  The kernel is small: `axpy` updates a sparse vector,
`Echelon.add` grows a lattice and `Echelon._walk` reduces against one,
`split_echelon` splits a stacked lattice, `quotient_in` presents one
lattice modulo a sublattice, `lattice_torsion` reads the torsion of a
quotient of Z^n from the echelon rows whose pivot is not +-1, through the
transform-free `smith_normal_form`, `GF2Echelon.add` tracks a rank
modulo 2, and `coreduce` pairs columns with rows on unit entries, with
no arithmetic, for the slice stream and the cellular complex alike.
`echelon_from_rows` keeps the rows that raise the rank modulo 2,
adds them exactly (`replay`), then reads its rows again and adds
one exactly only when `_certificate` cannot prove it redundant by one
exact remainder, packed: small ints side by side in one Python int, in
lanes too wide to carry into each other.  Each of its passes reduces a
row by one table lookup per coordinate (`GF2Echelon.tails`, the
certificate's presigned packed rows), reading the tuples of `SignedRows`
as they are, so a dict is made only for an exact add.  A
homology takes each boundary as the (source, nrows, ncols) triple of
`chains.block` and checks d o d = 0 once, on the rank-many rows of the
image echelon it builds anyway: `subquotient_homology` applies d_out to
them (`apply_columns`), `subquotient_presentation` expresses them in the
whole integer kernel of d_out.
"""

from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from itertools import repeat
from operator import getitem

from .budget import checkpoint


# ---------------------------------------------------------------------------
# sparse vectors and echelonized lattice bases
# ---------------------------------------------------------------------------

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


def axpy(dst, a, src):
    """dst += a * src on sparse vectors, in place; zero entries are
    dropped."""
    for k, v in src.items():
        w = dst.get(k, 0) + a * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def apply_columns(columns, vec):
    """M vec for the matrix M with the indexable sparse `columns`: the sum
    of a * columns[j] over the entries a at j of the sparse `vec`."""
    out = {}
    for j, a in vec.items():
        axpy(out, a, columns[j])
    return out


def merge(pairs):
    """The sparse vector of (index, coefficient) pairs: the coefficients
    of a repeated index add up, and the index -1 stands for no entry."""
    vec = {}
    for k, s in pairs:
        if k >= 0:
            w = vec.get(k, 0) + s
            if w:
                vec[k] = w
            else:
                del vec[k]
    return vec


class SignedRows:
    """A source of rows held as tuples of indices, slot t of each carrying
    the coefficient signs[t] = +-1 (`merge`): `read()` returns a fresh
    iterator of the tuples, a call one of their sparse dicts, which every
    reader of a source takes.  `echelon_from_rows` reads the tuples."""

    __slots__ = ("read", "signs")

    def __init__(self, read, signs):
        self.read = read
        self.signs = signs

    def __call__(self):
        return map(merge, map(zip, self.read(), repeat(self.signs)))


class Echelon:
    """Basis of a sublattice of Z^ncols in row-echelon form.

    Rows are sparse dicts; the pivot of each row is its smallest column
    index, and pivot columns strictly increase down the basis.  `add`
    grows the lattice by one vector, keeping the echelon invariant via
    gcd row operations (unimodular on the span); it checks the time budget
    once per vector and after each gcd step, so every loop that builds a
    lattice stops within one vector of the deadline.
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
        checkpoint()
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
                axpy(vec, -(b // a), row)
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

    def _walk(self, vec, coeffs):
        """Reduce a copy of `vec` down the basis while each leading entry
        is a multiple of the pivot in its column, recording the multiples
        in `coeffs` (a dict keyed by row position) unless it is None.
        Returns the remainder, which is empty iff `vec` is in the lattice."""
        vec = dict(vec)
        rows, pivots = self.rows, self.pivots
        while vec:
            j = min(vec)
            pos = bisect_left(pivots, j)
            if pos == len(pivots) or pivots[pos] != j:
                break
            row = rows[pos]
            q, r = divmod(vec[j], row[j])
            if r:
                break
            if coeffs is not None:
                coeffs[pos] = q
            axpy(vec, -q, row)
        return vec

    def reduce(self, vec):
        """Reduce a sparse vector against the basis as far as divisibility
        allows; the result is empty iff `vec` lies in the lattice."""
        return self._walk(vec, None)

    def contains(self, vec):
        return not self.reduce(vec)

    def express(self, vec):
        """Sparse coefficients {row position: multiple} writing `vec` over
        the basis rows, or None if the vector is not in the lattice."""
        coeffs = {}
        return None if self._walk(vec, coeffs) else coeffs

    def has_unit_pivots(self):
        """True when every pivot entry is +-1, in which case the lattice is
        a direct summand of Z^ncols and its cokernel is free."""
        for row, j in zip(self.rows, self.pivots):
            if row[j] not in (1, -1):
                return False
        return True


class _Tails(dict):
    """`GF2Echelon.tails`: a missing coordinate k reads 1 << k, unstored."""

    __slots__ = ()

    def __missing__(self, k):
        return 1 << k


class GF2Echelon:
    """Row space over GF(2), rows held as Python ints, bit i being
    coordinate i.

    Rows are kept fully reduced and keyed by their pivot, the lowest set
    bit: no row has another row's pivot bit set.  `tails[p]` is pivot p's
    row without its pivot bit, any other coordinate k reads 1 << k, and
    `tails[-1]` is 0.  A vector therefore reduces to the XOR of tails[k]
    over its odd coordinates k, whatever order the rows came in, which
    keeps sparse vectors cheap however long the basis grows.  Admitting a
    residue clears its pivot from the tails that have it; `holders` maps
    each non-pivot coordinate to the mask of the pivots whose tails have
    it, so those are found without a scan.
    """

    __slots__ = ("tails", "holders")

    def __init__(self):
        self.tails = _Tails({-1: 0})
        self.holders = {}

    @property
    def rank(self):
        return len(self.tails) - 1

    def add(self, pairs):
        """Add a sparse integer vector, as (index, coefficient) pairs
        (`merge`), reduced modulo 2, to the span; True iff the rank rose."""
        tails, rest = self.tails, 0
        for k, v in pairs:
            if v & 1:
                rest ^= tails[k]
        return self.admit(rest)

    def admit(self, rest):
        """Add `rest`, a residue (the XOR of tails[k] over the odd
        coordinates k of a vector), to the span; True iff it is not 0."""
        if not rest:
            return False
        low = rest & -rest
        pivot = low.bit_length() - 1
        tails, holders = self.tails, self.holders
        hit = holders.pop(pivot, 0)
        mask = hit
        while mask:
            bit = mask & -mask
            tails[bit.bit_length() - 1] ^= rest
            mask ^= bit
        # tails in `hit` toggle the other coordinates of `rest`, and the
        # new tail (mask bit `low`) takes them all
        others = tails[pivot] = rest ^ low
        while others:
            bit = others & -others
            k = bit.bit_length() - 1
            holders[k] = holders.get(k, 0) ^ hit ^ low
            others ^= bit
        return True


def replay(ech, rows):
    """Add the sparse `rows`, which it consumes, to `ech` exactly, shortest
    first, and rows of one length by decreasing last entry.  The order
    changes the basis, not the lattice nor its pivot columns and |pivots|,
    only the fill-in.  A short row spreads few entries into the rows it
    reduces later (the Markowitz choice of sparse elimination); the
    cellular boundaries, whose rows all have 2n entries, fill in least
    with the late-ending rows first (2,106 entries in the replayed d_3 of
    Q7's cells, against 7,338 in increasing order of the last entry)."""
    for r in sorted(rows, key=lambda r: (len(r), -max(r))):
        ech.add(r)


def echelon_from_rows(rows, ncols):
    """Echelonize sparse rows, which are not modified, given as a sequence
    or as a source that yields the same rows on every call; a one-shot
    iterator is listed once.

    Most rows of a boundary matrix add nothing to the lattice of the rows
    before them, so they are not all added exactly.  Pass 1 holds only the
    rows that raise the rank modulo 2 and the largest |v|_1, and adds those
    rows exactly (`replay`).  If every pivot of this replay is +-1, its
    lattice L' is saturated: an integer vector in its rational span has
    integer coordinates over the rows.  Reduced to row-echelon form R, a
    rational combination of the rows is fixed by its entries at the
    pivots, so a row v lies in L' iff the remainder v - sum over pivots j
    of v_j R_j / R_jj vanishes.  L' lies in the lattice of all rows, so
    pass 2 reads the rows again and adds exactly only those whose
    remainder is not 0 (`_certificate`); with a non-unit pivot, all of
    them.  Memory follows the rank, not the row count.

    The remainders are evaluated packed: one Python int per reduced row,
    a lane per non-pivot coordinate.  A lane holds v_c - sum_j v_j R_jc /
    R_jj, at most |v|_1 * max|R| in absolute value; lanes that wide cannot
    carry into each other, so the packed remainder is 0 iff every lane is:
    the lowest nonzero lane s, at lane k, leaves s * 2^(width * k) modulo
    2^(width * (k + 1)), which is not 0.

    Each pass reduces a row by one lookup per coordinate: pass 1 XORs
    `GF2Echelon.tails` over its odd coordinates, pass 2 sums `_certificate`
    entries times its coefficients.  Of `SignedRows` they read the tuples
    as they are, since both are linear and the index -1 looks up 0: pass 1
    XORs every slot (each sign is odd), pass 2 looks slot t up in the
    table or its negation, by its sign, in one C-level chain.  A row
    becomes a dict only when it is added exactly.
    """
    if isinstance(rows, SignedRows):
        read, signs = rows.read, rows.signs
        size = len  # every sign is +-1, so |v|_1 is at most the slot count

        def exact(r):
            return merge(zip(r, signs))

        def pick(r):
            rest = 0
            for k in r:  # every sign is odd
                rest ^= tails[k]
            return admit(rest)
    else:
        if not callable(rows) and not isinstance(rows, Sequence):
            rows = list(rows)
        read = rows if callable(rows) else rows.__iter__
        signs, exact = None, dict

        def size(r):
            return sum(map(abs, r.values()))

        def pick(r):
            return add(r.items())
    gf2, picked, norm = GF2Echelon(), [], 0
    tails, admit, add = gf2.tails, gf2.admit, gf2.add
    for i, r in enumerate(read()):
        if not i & 63:
            checkpoint()
        norm = max(norm, size(r))
        if pick(r):
            picked.append(exact(r))
    ech = Echelon(ncols)
    replay(ech, picked)
    del gf2, tails, admit, add, picked  # pass 2 holds nothing of pass 1
    table = _certificate(ech, norm) if ech.has_unit_pivots() else {}
    table[-1] = 0  # the empty slot of a signed row
    if signs is None:
        def remainder(r):
            acc = 0
            for k, v in r.items():
                acc += v * table[k]
            return acc
    else:
        negated = {k: -v for k, v in table.items()}
        slots = [table if s > 0 else negated for s in signs]

        def remainder(r):
            return sum(map(getitem, slots, r))
    for i, r in enumerate(read()):
        if not i & 63:
            checkpoint()
        try:
            if not remainder(r):
                continue
        except KeyError:  # a coordinate outside the table: not certified
            pass
        ech.add(exact(r))
    return ech


def _certificate(ech, norm):
    """Bring `ech`, whose pivots are all +-1, to reduced row-echelon form
    R in place, and return the table whose entries over a row v with
    |v|_1 <= norm sum to its packed remainder v - sum over pivots j of
    v_j R_j (see `echelon_from_rows`): a non-pivot coordinate's own lane,
    and at a pivot j the packed -R_j times the pivot's sign, the
    coefficient being v_j / R_jj."""
    basis, pivots = ech.rows, ech.pivots
    where = {j: k for k, j in enumerate(pivots)}
    # bottom up: a subtracted row is already reduced, so it clears its own
    # pivot and touches only non-pivot columns
    for k in range(len(basis) - 1, -1, -1):
        row = basis[k]
        for j in [j for j in row if j in where and j != pivots[k]]:
            unit = basis[where[j]]
            axpy(row, -row[j] * unit[j], unit)
    lane = {j: i for i, j in enumerate(sorted(
        {j for row in basis for j in row if j not in where}))}
    # a lane holds v_c - sum_j v_j R_jc / R_jj, and max|R| >= 1 covers v_c
    big = max((abs(v) for row in basis for v in row.values()), default=0)
    width = (norm * big).bit_length()
    table = {j: 1 << width * i for j, i in lane.items()}
    for row, j in zip(basis, pivots):
        table[j] = -row[j] * sum(v << width * lane[i]
                                 for i, v in row.items() if i in lane)
    return table


def coreduce(columns, rest):
    """Pair sparse columns with rows on unit entries, yielding each paired
    key (coreduction, Mrozek & Batko, Discrete Comput. Geom. 41, 2009).

    `columns` yields (key, column) pairs; `rest`, a set of rows, is
    consumed.  A column whose entries on `rest` are one +-1 pairs with
    that row, which leaves `rest`.  A column with more entries there waits
    on each, counting those left, and is retried once one is left, the
    retries queued first in, first out (a stack strands whole dimensions
    of relabeled hypercubes' cells).  A pair is elimination on a unit
    pivot with no correction term on the rows left.  The clock is read
    once per 64 columns, and a caller that stops taking keys stops them."""
    waiting, queue = {}, deque()
    for pulled, (key, col) in enumerate(columns, 1):
        if not pulled & 63:
            checkpoint()
        queue.append([0, key, col])  # [rows left, key, column]
        while queue:
            entry = queue.popleft()
            rows = rest.intersection(entry[2])
            if len(rows) > 1:  # only a column just pulled: it waits
                entry[0] = len(rows)
                for i in rows:
                    waiting.setdefault(i, []).append(entry)
            elif rows and entry[2][(i := rows.pop())] in (1, -1):
                rest.remove(i)
                yield entry[1]
                for other in waiting.pop(i, ()):
                    other[0] -= 1
                    if other[0] == 1:
                        queue.append(other)


def split_echelon(columns, top, bottom):
    """Echelonize vectors of Z^(top+bottom) and split off the zero-top part.

    `columns` yields pairs (top_part, bottom_part) of sparse dicts.  The
    return value is (full, zero_top) where `full` is the echelon of the
    stacked vectors and `zero_top` is the Echelon over Z^bottom spanned by
    the bottom parts of lattice elements whose top part vanishes.

    This one primitive computes kernels and preimages (top = M e_j,
    bottom = e_j), relative cycles (top = the boundary's part outside a
    filtration level, bottom = e_j), boundary images of relative cycles
    (top = proj dx, bottom = dx), and lattice intersections.
    """
    full = Echelon(top + bottom)
    for t, b in columns:
        vec = dict(t)
        for k, v in b.items():
            vec[k + top] = v
        full.add(vec)
    # the rows pivoting at or past `top` already echelonize the zero-top part
    zero_top = Echelon(bottom)
    at = bisect_left(full.pivots, top)
    zero_top.rows = [{k - top: v for k, v in row.items()}
                     for row in full.rows[at:]]
    zero_top.pivots = [piv - top for piv in full.pivots[at:]]
    return full, zero_top


def kernel_echelon(columns, nrows, ncols):
    """Kernel lattice {x : M x = 0} of the matrix with the given sparse
    columns (`ncols` of them, entries indexed below `nrows`), read once."""
    cols = columns() if callable(columns) else columns
    _, ker = split_echelon(((col, {j: 1}) for j, col in enumerate(cols)),
                           nrows, ncols)
    return ker


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows):
    """Invariant factors d1 | d2 | ... of the lattice spanned by the sparse
    `rows` (not modified), in increasing order, units included.

    No transforms are kept.  Each pivot is an entry of minimal absolute
    value, which limits entry growth.  Row operations clear the pivot
    column with `axpy`; column operations clear the pivot row and touch
    only the rows that meet the pivot column.  A nonzero remainder is the
    next, smaller pivot.  A cleared pivot that does not divide every entry
    left has a row that breaks divisibility folded into its own row, and
    goes again.  The time budget is checked once per pivot.
    """
    def size(entry):
        return abs(entry[0][entry[1]])

    rows = [dict(r) for r in rows if r]
    factors = []
    while rows:
        checkpoint()
        p, j = min(((r, k) for r in rows for k in r), key=size)
        while True:
            a = p[j]
            for r in rows:
                if r is not p and j in r:
                    axpy(r, -(r[j] // a), p)
            meet = [r for r in rows if j in r]
            for k in [k for k in p if k != j]:
                q = p[k] // a
                if q:
                    # column k -= q * column j
                    for r in meet:
                        w = r.get(k, 0) - q * r[j]
                        if w:
                            r[k] = w
                        else:
                            r.pop(k, None)
            rest = [(r, j) for r in meet if r is not p]
            rest += [(p, k) for k in p if k != j]
            if rest:
                p, j = min(rest, key=size)
                continue
            bad = next((r for r in rows if any(v % a for v in r.values())),
                       None)
            if bad is None:
                break
            axpy(p, 1, bad)
        factors.append(abs(a))
        rows = [r for r in rows if r and r is not p]
    return factors


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def lattice_preimage(columns, ncols, target):
    """Echelon basis of {x in Z^ncols : M x in L(target)} for the matrix M
    given by sparse `columns` over Z^(target.ncols)."""
    cols = [(col, {j: 1}) for j, col in enumerate(columns)]
    cols += [(dict(row), {}) for row in target.rows]
    _, pre = split_echelon(cols, target.ncols, ncols)
    return pre


def lattice_torsion(ech):
    """Invariant-factor torsion of Z^ncols / L(ech); empty without a Smith
    form when every pivot is +-1.

    The rows with a +-1 pivot span a direct summand U, so Z^ncols / U is
    free on the columns that are not their pivots.  Each other row is
    reduced modulo U onto those columns, unit pivots in increasing column
    order (a unit row has no entry left of its pivot, so a cleared column
    stays clear), and only these few rows reach `smith_normal_form`."""
    if ech.has_unit_pivots():
        return ()
    units, rest = [], []
    for row, j in zip(ech.rows, ech.pivots):
        if row[j] in (1, -1):
            units.append((j, row))
        else:
            rest.append(dict(row))
    for j, unit in units:
        for vec in rest:
            c = vec.get(j)
            if c:
                axpy(vec, -c * unit[j], unit)
    return tuple(f for f in smith_normal_form(rest) if f != 1)


def quotient_in(top, sub_rows, what):
    """L(top) / L(sub_rows) as a group presented on top's basis rows.

    Returns (group, rels) with rels the rows of `sub_rows` written in the
    basis of `top`; raises ContractViolation(what) when a row escapes
    L(top)."""
    rels = []
    for row in sub_rows:
        coeffs = top.express(row)
        if coeffs is None:
            raise ContractViolation(what)
        rels.append(coeffs)
    return AbelianGroup(top.rank, echelon_from_rows(rels, top.rank)), rels


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
        self.torsion = lattice_torsion(relations)

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

    def __str__(self):
        return group_str(self.free_rank, self.torsion)

    def __repr__(self):
        return f"AbelianGroup({self})"


def group_str(rank, torsion):
    """The group Z^rank + Z/t1 + ... written out, "0" when trivial."""
    parts = [] if not rank else ["Z"] if rank == 1 else [f"Z^{rank}"]
    return " + ".join(parts + [f"Z/{t}" for t in torsion]) or "0"


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
        """Image of an element, a sparse coefficient vector."""
        return apply_columns(self.columns, vec)

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


def kernel_of(f):
    """Kernel of a GroupMap, as an abstract AbelianGroup."""
    ker = lattice_preimage(f.columns, f.source.ngens, f.target.relations)
    return quotient_in(ker, f.source.relations.rows,
                       "source relations must lie in the kernel")[0]


def image_lattice(f):
    """Lattice im(f) + relations(target) inside Z^target."""
    return echelon_from_rows(f.columns + f.target.relations.rows,
                             f.target.ngens)


def image_of(f):
    """Image of a GroupMap, as an abstract AbelianGroup."""
    return quotient_in(image_lattice(f), f.target.relations.rows,
                       "target relations must lie in the image lattice")[0]


def cokernel_of(f):
    return AbelianGroup(f.target.ngens, echelon_from_rows(
        f.target.relations.rows + f.columns, f.target.ngens))


def is_surjective(f):
    lat = image_lattice(f)
    return lat.rank == f.target.ngens and lat.has_unit_pivots()


def homology_at(f_in, f_out):
    """ker(f_out)/im(f_in) for composable GroupMaps A --f_in--> B --f_out--> C."""
    if f_in.target.ngens != f_out.source.ngens:
        raise ValueError("maps are not composable")
    ker = lattice_preimage(f_out.columns, f_out.source.ngens,
                           f_out.target.relations)
    return quotient_in(ker, image_lattice(f_in).rows,
                       "image does not lie in the kernel (f_out o f_in != 0)")[0]


def quotient_group(ambient_rank, relations):
    """Z^ambient_rank modulo the span of `relations` (an Echelon, or an
    iterable of sparse rows)."""
    return AbelianGroup(ambient_rank, relations)


def subquotient_homology(d_in, d_out):
    """Homology ker(d_out)/im(d_in) of composable integer matrices, each a
    (sparse_columns, nrows, ncols) triple; `d_in` enters the middle degree
    and `d_out` leaves it.  d_in is read by the image builder alone and
    d_out once.  Requires d_out o d_in = 0 and checks it on the image
    echelon's rows, which span the lattice of d_in's columns.

    The group is classified from ranks: the free rank is the middle
    dimension less the ranks of d_out and d_in, and the torsion is that
    of the middle group modulo the image lattice (`lattice_torsion`).
    `subquotient_presentation` gives the same group with generators."""
    if d_in[1] != d_out[2]:
        raise ValueError("boundary matrices are not composable")
    in_cols, mid, _ = d_in
    out_cols, out_rows, _ = d_out
    img = echelon_from_rows(in_cols, mid)
    out = list(out_cols() if callable(out_cols) else out_cols)
    if any(apply_columns(out, row) for row in img.rows):
        raise ContractViolation("boundary of a boundary is nonzero")
    out_rank = echelon_from_rows(out, out_rows).rank
    return AbelianGroup.from_invariants(mid - out_rank - img.rank,
                                        lattice_torsion(img))


def subquotient_presentation(d_in, d_out):
    """As subquotient_homology, but returns (group, kernel, relation_rows):
    the group's generators are the kernel basis rows of d_out (an Echelon)
    and relation_rows is the image lattice written in those coordinates.
    The kernel is the whole integer kernel and `express` is exact, so an
    image row outside it is exactly a failure of d_out o d_in = 0."""
    if d_in[1] != d_out[2]:
        raise ValueError("boundary matrices are not composable")
    in_cols, mid, _ = d_in
    ker = kernel_echelon(*d_out)
    group, rels = quotient_in(ker, echelon_from_rows(in_cols, mid).rows,
                              "image does not lie in the kernel")
    return group, ker, rels
