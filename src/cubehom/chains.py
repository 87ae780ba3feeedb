"""Normalized singular chain complexes of a graph and the degree filtration.

The normalized complex has the nondegenerate singular n-cubes as its
degree-n basis; boundaries of basis cubes drop degenerate faces, which
realizes the quotient by the degenerate subcomplex.  Each basis cube
carries its degree (largest injective iterated-face dimension), so the
filtration subcomplexes and their quotients are basis restrictions.

A complex is stored in flat arrays, built one chunk of cubes at a time:
each basis is one int array of corners, each boundary one int array of
face positions, 2n per n-cube with -1 for a degenerate face and a fixed
sign per slot (`face_signs`), and each degree list an int8 array.
`Packed` hides the format: indexing or iterating it gives
a corner tuple or a fresh sparse column ({row: coeff} dict), which
`zlinalg` takes as it is; nothing here densifies them.  Every module
reads a boundary one way, `block`: the full complex, the filtration
levels F_k C (`filtered_homology`), the degree slices of `spectral` and
the CW complex all take the block of d_n on the cubes at chosen positions,
each column restricted to chosen rows only while it is read, by mapping
its face positions through one position list.  The image builder reads
the positions themselves, and makes a dict of a column only to add it
exactly.  d o d = 0 is checked where the homology is taken
(`zlinalg.subquotient_homology`).
"""

from array import array
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, islice, repeat

from .budget import DimensionBudgetError
from .cubes import cube_degree, cube_dim, face_getters, singular_cubes
from .zlinalg import SignedRows, merge, subquotient_homology, subquotient_presentation


# items packed per chunk: a chunk of tuples is alive at a time
CHUNK = 4096


class Packed(Sequence):
    """A sequence of int tuples of one width in a flat array of C ints:
    item i is keys[width * i:width * (i + 1)].  With `signs`, an item is a
    row of signed positions that indexing and iterating merge into a fresh
    sparse column ({row: coeff} dict, `zlinalg.merge`); else they build a
    fresh tuple.  `extend` appends tuples."""

    __slots__ = ("keys", "width", "signs")

    def __init__(self, width, items=(), signs=None):
        self.keys = array("i")
        self.width = width
        self.signs = signs
        self.extend(items)

    def extend(self, items):
        # an array converts a list faster than it extends by an iterator
        items = iter(items)
        while chunk := list(islice(items, CHUNK)):
            self.keys.fromlist(list(chain.from_iterable(chunk)))

    def __len__(self):
        return len(self.keys) // self.width

    def __getitem__(self, i):
        if not -len(self) <= i < len(self):
            raise IndexError("Packed index out of range")
        item = tuple(self.flat([i % len(self)]))
        return item if self.signs is None else merge(zip(item, self.signs))

    def __iter__(self):
        # one shared iterator over the flat array, cut by the width
        items = zip(*[self.flat()] * self.width)
        return (items if self.signs is None
                else map(merge, map(zip, items, repeat(self.signs))))

    def flat(self, picked=None):
        """One iterator of the ints of the items at `picked` (None: all)."""
        keys, w = self.keys, self.width
        if picked is None:
            return iter(keys)
        return chain.from_iterable(keys[w * i:w * i + w] for i in picked)


class BasedComplex:
    """Chain complex with an explicit labeled basis in each degree.

    basis[n]     corner tuples, in order (a `Packed`)
    degrees[n]   cube degree of each basis element (an int8 array)
    columns[n]   sparse boundary columns into degree n-1 (n >= 1), a
                 `Packed` of `face_positions` with `face_signs(n)`
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
def face_signs(n):
    """The sign (-1)^(i+side) of face (i, side) of an n-cube, in its slot
    t = 2(i-1) + side of `face_getters(n)`."""
    return tuple(-1 if t & 1 == (t >> 1) & 1 else 1 for t in range(2 * n))


def face_positions(cubes, n, index):
    """Per n-cube of the sequence `cubes`, the tuple of the positions in
    `index` ({(n-1)-cube: position}) of its faces `face_getters(n)`, -1
    for a face not in it (a degenerate one), each slot t weighed by
    face_signs(n)[t]."""
    return zip(*[map(index.get, map(get, cubes), repeat(-1))
                 for get in face_getters(n)])


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
        cubes, degs = Packed(1 << n), array("b")
        cols = Packed(2 * n, signs=face_signs(n))
        below = {c: i for i, c in enumerate(basis[n - 1])} if n else None
        stream = singular_cubes(g, n, "nondegenerate")
        # one chunk of corner and face tuples alive at a time
        while chunk := list(islice(stream, CHUNK)):
            cubes.extend(chunk)
            degs.fromlist(list(map(cube_degree, chunk)))
            if n:
                cols.extend(face_positions(chunk, n, below))
        basis.append(cubes)
        degrees.append(degs)
        if n:
            columns.append(cols)
    return BasedComplex(max_dim, basis, degrees, columns)


def block(c, n, cols=None, rows=None):
    """(source, nrows, ncols) of d_n on the n-cubes at the increasing
    positions `cols`, each column restricted to the (n-1)-cubes at the
    increasing positions `rows` and keyed by its position there, through
    one position list (-1 off `rows`); None selects every cube, and d_0 is
    the zero map.  The source is one `zlinalg.echelon_from_rows` takes: on
    a `BasedComplex` a `zlinalg.SignedRows` of the stored face positions,
    restricted while it is read; on a `cwcomplex.CwCubeComplex` a list of
    dict columns, the stored one when nothing is restricted."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n, f"the boundary of dimension {n}")
    ncols = c.dim(n) if cols is None else len(cols)
    if n == 0:
        return [{}] * ncols, 0, ncols
    nrows = c.dim(n - 1) if rows is None else len(rows)
    stored = c.columns[n]
    if rows is not None:
        # slot -1, the last, takes the faces off the rows and -1 itself
        remap = [-1] * (c.dim(n - 1) + 1)
        for new, old in enumerate(rows):
            remap[old] = new
    if not isinstance(stored, Packed):
        if cols is not None:
            stored = list(map(stored.__getitem__, cols))
        if rows is not None:
            stored = [merge(zip(map(remap.__getitem__, col), col.values()))
                      for col in stored]
        return stored, nrows, ncols

    def read():
        flat = stored.flat(cols)
        if rows is not None:
            flat = map(remap.__getitem__, flat)
        return zip(*[flat] * stored.width)
    return SignedRows(read, stored.signs), nrows, ncols


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
    columns = [[]] + [
        Packed(2 * n, block(c, n, keep[n], keep[n - 1])[0].read(),
               face_signs(n)) for n in range(1, c.max_dim + 1)]
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
