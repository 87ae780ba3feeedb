"""Normalized singular chain complexes of a graph and the degree filtration.

The normalized complex has the nondegenerate singular n-cubes as its
degree-n basis; boundaries of basis cubes drop degenerate faces, which
realizes the quotient by the degenerate subcomplex.  Each basis cube
carries its degree (largest injective iterated-face dimension), so the
filtration subcomplexes and their quotients are basis restrictions.

Boundary matrices are stored as sparse columns ({row: coeff} dicts) and
handed to `zlinalg` as they are; nothing here densifies them.  Copied
subcomplexes and the degree slices that `spectral` reads off a complex
read a column on a sub-basis one way, by position (`_restricted_columns`).
"""

from .budget import DimensionBudgetError
from .cubes import cube_degree, face_getters, singular_cubes
from .zlinalg import subquotient_homology, subquotient_presentation


class BasedComplex:
    """Chain complex with an explicit labeled basis in each degree.

    basis[n]     ordered tuple of corner sequences
    degrees[n]   cube degree of each basis element
    columns[n]   sparse boundary columns into degree n-1 (n >= 1)
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


def _boundary_column(corners, n, index_below):
    col = {}
    for t, get in enumerate(face_getters(n)):
        j = index_below.get(get(corners))
        if j is not None:
            # face (i, side) sits in slot t = 2(i-1) + side; sign (-1)^(i+side)
            w = col.get(j, 0) + (-1 if t & 1 == (t >> 1) & 1 else 1)
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
        cubes = tuple(singular_cubes(g, n, "nondegenerate"))
        basis.append(cubes)
        degrees.append([cube_degree(c) for c in cubes])
        if n >= 1:
            below = {c: i for i, c in enumerate(basis[n - 1])}
            columns.append([_boundary_column(c, n, below) for c in cubes])
    return BasedComplex(max_dim, basis, degrees, columns)


def _restricted_columns(c, n, cols, rows):
    """Source (see `zlinalg.echelon_from_rows`) of the boundary columns of
    the n-cubes at the positions `cols` of c.basis[n], each restricted
    while it is read to the (n-1)-cubes at the increasing positions `rows`
    and keyed by its position there."""
    remap = {old: new for new, old in enumerate(rows)}
    stored = c.columns[n]
    return lambda: ({remap[r]: v for r, v in stored[i].items() if r in remap}
                    for i in cols)


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
    basis = [tuple(c.basis[n][i] for i in sel) for n, sel in enumerate(keep)]
    degrees = [[c.degrees[n][i] for i in sel] for n, sel in enumerate(keep)]
    columns = [[]] + [list(_restricted_columns(c, n, keep[n], keep[n - 1])())
                      for n in range(1, c.max_dim + 1)]
    return BasedComplex(c.max_dim, basis, degrees, columns)


def degree_subcomplex(c, k):
    """Chains spanned by cubes of degree at most k (a subcomplex, since
    faces never raise degree)."""
    if k < 0:
        raise ValueError("filtration index must be non-negative")
    keep = [[i for i, d in enumerate(c.degrees[n]) if d <= k]
            for n in range(c.max_dim + 1)]
    return _restrict(c, keep)


def degree_quotient_complex(c, k):
    """Degree-k slice of the filtration: basis cubes of degree exactly k,
    boundary keeping only degree-k faces."""
    if k < 0:
        raise ValueError("filtration index must be non-negative")
    return _restrict(c, [_slice_positions(c, n, k)
                         for n in range(c.max_dim + 1)])


def _in_out(c, n):
    c.require(n, f"homology in degree {n}")
    c.require(n + 1, f"homology in degree {n}")
    d_in = (c.columns[n + 1], c.dim(n), c.dim(n + 1))
    if n >= 1:
        d_out = (c.columns[n], c.dim(n - 1), c.dim(n))
    else:
        d_out = ([{} for _ in range(c.dim(0))], 0, c.dim(0))
    return d_in, d_out


def homology(c, n):
    """H_n of the complex; requires boundaries through degree n+1."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return subquotient_homology(*_in_out(c, n))


def homology_presentation(c, n):
    """(group, kernel basis, image-in-kernel rows) at degree n."""
    d_in, d_out = _in_out(c, n)
    return subquotient_presentation(d_in, d_out)


def flip_prism(corners, i):
    """Prism witnessing that a cube and its i-th reflection are homologous.

    For an n-cube sigma this is the (n+1)-cube rho with
      rho(..., t_i = 0, ...) = sigma on the remaining coordinates, and
      rho(..., t_i = 1, ...) = sigma with coordinate i pinned to 0;
    its boundary is (-1)^i (sigma + sigma o T_i) up to faces of lower
    degree, which the tests verify by expansion.
    """
    n = (len(corners) - 1).bit_length()
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
