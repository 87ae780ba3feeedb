"""Normalized singular chain complexes of a graph and the degree filtration.

The normalized complex has the nondegenerate singular n-cubes as its
degree-n basis; boundaries of basis cubes drop degenerate faces, which
realizes the quotient by the degenerate subcomplex.  Each basis cube
carries its degree (largest injective iterated-face dimension), so the
filtration subcomplexes and their quotients are basis restrictions.

A complex is stored in flat arrays, built one chunk of cubes at a time:
each basis is one int array of corners, each boundary a row array, an
int8 coefficient array and an array of column ends, and each degree list
an int8 array.  `Packed` hides the format: indexing or iterating it gives
a corner tuple or a fresh sparse column ({row: coeff} dict), which
`zlinalg` takes as it is; nothing here densifies them.  Every module
reads a boundary one way, `block`: the full complex, the filtration
levels F_k C (`filtered_homology`), the degree slices of `spectral` and
the CW complex all take the block of d_n on the cubes at chosen positions,
each column restricted to chosen rows only while it is read.  d o d = 0
is checked where the homology is taken (`zlinalg.subquotient_homology`).
"""

from array import array
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import sub

from .budget import DimensionBudgetError
from .cubes import cube_degree, cube_dim, face_getters, singular_cubes
from .zlinalg import subquotient_homology, subquotient_presentation


# items packed per chunk: a chunk of tuples or dicts is alive at a time
CHUNK = 4096


class Packed(Sequence):
    """A sequence of corner tuples (width 2^n) or of sparse columns (no
    width) in flat arrays: item i is keys[ends[i]:ends[i + 1]], paired
    with values[ends[i]:ends[i + 1]] in a column.  Indexing and iterating
    build a fresh tuple or dict per item; `extend` appends items.  Corners
    and rows are C ints and coefficients int8: a boundary coefficient of an
    n-cube is at most 2n in absolute value."""

    __slots__ = ("keys", "values", "ends")

    def __init__(self, width=None, items=()):
        self.keys = array("i")
        # fixed-width items need no stored ends, a range indexes like one
        self.values = None if width else array("b")
        self.ends = range(0, 1, width) if width else array("q", [0])
        self.extend(items)

    def extend(self, items):
        # an array converts a list faster than it extends by an iterator
        items = iter(items)
        while chunk := list(islice(items, CHUNK)):
            self.keys.fromlist(list(chain.from_iterable(chunk)))
            if self.values is None:
                self.ends = range(0, len(self.keys) + 1, self.ends.step)
            else:
                self.values.fromlist(
                    list(chain.from_iterable(map(dict.values, chunk))))
                self.ends.fromlist(list(accumulate(
                    map(len, chunk), initial=self.ends[-1]))[1:])

    def __len__(self):
        return len(self.ends) - 1

    def __getitem__(self, i):
        ends = self.ends
        if i < 0:
            i += len(ends) - 1
            if i < 0:
                raise IndexError("Packed index out of range")
        lo, hi = ends[i], ends[i + 1]
        if self.values is None:
            return tuple(self.keys[lo:hi])
        return dict(zip(self.keys[lo:hi], self.values[lo:hi]))

    def select(self, picked, remap):
        """The columns at the positions `picked`, each restricted to the
        rows in `remap` and keyed by remap[row]: one dict per column."""
        keys, values, ends = self.keys, self.values, self.ends
        return ({remap[r]: v for r, v in zip(keys[ends[i]:ends[i + 1]],
                                             values[ends[i]:ends[i + 1]])
                 if r in remap} for i in picked)

    def __iter__(self):
        # one shared iterator over the flat arrays, cut by the item lengths
        if self.values is None:
            return zip(*[iter(self.keys)] * self.ends.step)
        lengths = map(sub, islice(self.ends, 1, None), self.ends)
        return map(dict, map(islice, repeat(zip(self.keys, self.values)),
                             lengths))


class BasedComplex:
    """Chain complex with an explicit labeled basis in each degree.

    basis[n]     corner tuples, in order (a `Packed`)
    degrees[n]   cube degree of each basis element (an int8 array)
    columns[n]   sparse boundary columns into degree n-1 (n >= 1, a `Packed`)
    """

    __slots__ = ("max_dim", "basis", "degrees", "columns")

    def __init__(self, max_dim, basis, degrees, columns):
        self.max_dim = max_dim
        self.basis = basis
        self.degrees = degrees
        self.columns = columns

    def dim(self, n):
        """Rank of the degree-n chain group (0 outside the built range)."""
        if 0 <= n <= self.max_dim:
            return len(self.basis[n])
        return 0

    def require(self, n, what="operation"):
        if n > self.max_dim:
            raise DimensionBudgetError(n, self.max_dim, what)


@lru_cache(maxsize=None)
def _signed_faces(n):
    """(getter, sign) per face of an n-cube: face (i, side) sits in slot
    t = 2(i-1) + side of `face_getters(n)`, with sign (-1)^(i+side)."""
    return tuple((get, -1 if t & 1 == (t >> 1) & 1 else 1)
                 for t, get in enumerate(face_getters(n)))


def _boundary_column(corners, n, index_below):
    col = {}
    for get, sign in _signed_faces(n):
        j = index_below.get(get(corners))
        if j is not None:
            w = col.get(j, 0) + sign
            if w:
                col[j] = w
            else:
                del col[j]
    return col


def normalized_complex(g, max_dim):
    """Normalized singular chains of g through dimension max_dim.

    The dimension budget is explicit: basis sizes grow super-exponentially
    with dimension and the caller must choose the cutoff.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    basis = []
    degrees = []
    columns = [[]]
    for n in range(max_dim + 1):
        cubes, degs, cols = Packed(1 << n), array("b"), Packed()
        below = {c: i for i, c in enumerate(basis[n - 1])} if n else None
        stream = singular_cubes(g, n, "nondegenerate")
        # one chunk of corner tuples and column dicts alive at a time
        while chunk := list(islice(stream, CHUNK)):
            cubes.extend(chunk)
            degs.fromlist(list(map(cube_degree, chunk)))
            if n:
                cols.extend(_boundary_column(c, n, below) for c in chunk)
        basis.append(cubes)
        degrees.append(degs)
        if n:
            columns.append(cols)
    return BasedComplex(max_dim, basis, degrees, columns)


def block(c, n, cols=None, rows=None):
    """(source, nrows, ncols) of d_n on the n-cubes at the increasing
    positions `cols`, each column restricted while it is read to the
    (n-1)-cubes at the increasing positions `rows` and keyed by its
    position there; None selects every cube, and d_0 is the zero map.  The
    source is one `zlinalg.echelon_from_rows` takes: the stored columns
    when nothing is selected, else a callable that reads them again.  c is
    a `BasedComplex` or a `cwcomplex.CwCubeComplex`; rows are selected on a
    `BasedComplex` only, whose packed columns restrict themselves
    (`Packed.select`)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n, f"the boundary of dimension {n}")
    ncols = c.dim(n) if cols is None else len(cols)
    if n == 0:
        return [{}] * ncols, 0, ncols
    stored = c.columns[n]
    picked = range(ncols) if cols is None else cols
    if rows is None:
        source = (stored if cols is None
                  else lambda: map(stored.__getitem__, picked))
        return source, c.dim(n - 1), ncols
    remap = {old: new for new, old in enumerate(rows)}
    return (lambda: stored.select(picked, remap)), len(rows), ncols


def _slice_positions(c, n, k):
    """Positions in c.basis[n] of the cubes of degree exactly k."""
    return [i for i, d in enumerate(c.degrees[n]) if d == k]


def _restrict(c, keep):
    """Subcomplex on the selected basis positions.

    keep[n] is an increasing list of positions into c.basis[n]; the kept
    boundary entries are reindexed.  Faces of kept cubes that fall outside
    the selection are dropped, which is exactly the subcomplex boundary
    when the selection is closed under faces, and the quotient boundary
    when it is a degree slice.
    """
    basis = [Packed(1 << n, map(c.basis[n].__getitem__, sel))
             for n, sel in enumerate(keep)]
    degrees = [array("b", map(c.degrees[n].__getitem__, sel))
               for n, sel in enumerate(keep)]
    columns = [[]] + [Packed(items=block(c, n, keep[n], keep[n - 1])[0]())
                      for n in range(1, c.max_dim + 1)]
    return BasedComplex(c.max_dim, basis, degrees, columns)


def _filtration_positions(c, k, top):
    """Positions in c.basis[n], n = 0..top, of the cubes of degree at
    most k."""
    if k < 0:
        raise ValueError("filtration index must be non-negative")
    return [[i for i, d in enumerate(c.degrees[n]) if d <= k]
            for n in range(top + 1)]


def degree_subcomplex(c, k):
    """Chains spanned by cubes of degree at most k (a subcomplex, since
    faces never raise degree)."""
    return _restrict(c, _filtration_positions(c, k, c.max_dim))


def degree_quotient_complex(c, k):
    """Degree-k slice of the filtration: basis cubes of degree exactly k,
    boundary keeping only degree-k faces."""
    if k < 0:
        raise ValueError("filtration index must be non-negative")
    return _restrict(c, [_slice_positions(c, n, k)
                         for n in range(c.max_dim + 1)])


def homology(c, n):
    """H_n of the complex; requires boundaries through degree n+1."""
    return subquotient_homology(block(c, n + 1), block(c, n))


def homology_presentation(c, n):
    """(group, kernel basis, image-in-kernel rows) at degree n."""
    return subquotient_presentation(block(c, n + 1), block(c, n))


def filtered_homology(c, k, n):
    """H_n of F_k C, the chains of degree at most k, read off c by
    position: faces never raise degree, so every kept column lies on the
    kept rows, and nothing is copied (`degree_subcomplex` copies)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n + 1, f"homology in degree {n}")
    keep = _filtration_positions(c, k, n + 1)
    # block(c, 0, ...) ignores its rows, so keep[-1] is harmless at n = 0
    return subquotient_homology(block(c, n + 1, keep[n + 1], keep[n]),
                                block(c, n, keep[n], keep[n - 1]))


def flip_prism(corners, i):
    """Prism witnessing that a cube and its i-th reflection are homologous.

    For an n-cube sigma this is the (n+1)-cube rho with
      rho(..., t_i = 0, ...) = sigma on the remaining coordinates, and
      rho(..., t_i = 1, ...) = sigma with coordinate i pinned to 0;
    its boundary is (-1)^i (sigma + sigma o T_i) up to faces of lower
    degree, which the tests verify by expansion.
    """
    n = cube_dim(corners)
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range 1..{n}")
    low_mask = (1 << (i - 1)) - 1
    out = []
    for b in range(1 << (n + 1)):
        low = b & low_mask
        if b & (1 << (i - 1)):
            # drop coordinate i+1, pin coordinate i to 0
            high = b >> (i + 1)
            src = low | (high << i)
        else:
            # drop coordinate i
            high = b >> i
            src = low | (high << (i - 1))
        out.append(corners[src])
    return tuple(out)


# ---------------------------------------------------------------------------
# dump format (for cross-implementation diffing)
# ---------------------------------------------------------------------------

def dump_complex(c):
    """One line per basis cube, then one line per boundary entry:

        cube <dim> <degree> <corner_0> ... <corner_{2^n-1}>
        bnd <dim> <row> <col> <coeff>
    """
    lines = []
    for n in range(c.max_dim + 1):
        for corners, deg in zip(c.basis[n], c.degrees[n]):
            lines.append(f"cube {n} {deg} " + " ".join(map(str, corners)))
    for n in range(1, c.max_dim + 1):
        for j, col in enumerate(c.columns[n]):
            for i in sorted(col):
                lines.append(f"bnd {n} {i} {j} {col[i]}")
    return "\n".join(lines) + "\n"
