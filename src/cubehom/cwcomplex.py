"""The filled-cube CW complex of a graph.

One n-cell per cube subgraph (all cube subgraphs, induced or not), keyed
by its canonical parametrization, which also fixes its orientation.  Each
face of a cell's parametrization is injective, so
`canonical_parametrization` names the face's cell and gives the
incidence sign: the determinant of the signed permutation carrying the
face onto the cell's parametrization.

Cellular homology coreduces first (`zlinalg.coreduce`): every incidence
is +-1, so most cells leave in unit-pivot pairs before the exact route.

The chain map sending a cell to the class of its canonical
parametrization in the top slice homology compares cellular homology
with the degree-filtration world.
"""

from itertools import chain, islice

from .budget import DimensionBudgetError
from .chains import block, face_signs, normalized_complex
from .cubes import canonical_parametrization, face_getters, subgraph_levels
from .monophobic import is_quasimonophobic
from .spectral import _injective_cover, bottom_edge_group, edge_map
from .zlinalg import (
    AbelianGroup,
    ContractViolation,
    GroupMap,
    apply_columns,
    axpy,
    coreduce,
    echelon_from_rows,
    image_lattice,
    is_surjective,
    kernel_echelon,
    lattice_preimage,
    subquotient_homology,
)


class CwCubeComplex:
    """Cellular chain complex of the filled-cube CW complex, truncated at
    max_dim.  cells[n] lists the n-cells as CubeSubgraph values; columns[n]
    holds sparse boundary columns into dimension n-1."""

    __slots__ = ("max_dim", "cells", "columns")

    def __init__(self, max_dim, cells, columns):
        self.max_dim = max_dim
        self.cells = cells
        self.columns = columns

    def dim(self, n):
        if 0 <= n <= self.max_dim:
            return len(self.cells[n])
        return 0

    @property
    def euler_characteristic(self):
        return sum((-1) ** n * self.dim(n) for n in range(self.max_dim + 1))

    def require(self, n, what="operation"):
        if n > self.max_dim:
            raise DimensionBudgetError(n, self.max_dim, what)


def build_cw_complex(g, max_dim, levels=None):
    """Cells in every dimension up to max_dim with oriented boundaries.

    The boundary of a cell is the alternating sum of its face cells, each
    weighted by the determinant of the signed permutation relating the
    face of the cell's canonical parametrization to the face cell's.  The
    faces of an injective cube are distinct subgraphs, so no face cell
    repeats.  The cells come from one `subgraph_levels` stream, each level
    walked once, or from `levels`, a stream of the same cell lists.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    levels = subgraph_levels(g) if levels is None else levels
    cells = list(islice(levels, max_dim + 1))
    columns = [[]]
    for n in range(1, max_dim + 1):
        below = {q.rep: i for i, q in enumerate(cells[n - 1])}
        cols = []
        for q in cells[n]:
            col = {}
            for t, (get, sgn) in enumerate(zip(face_getters(n),
                                               face_signs(n))):
                face = get(q.rep)
                # a front face (t even) of a canonical parametrization is
                # canonical: its corner 0 and its neighbours are the cell's
                det, rep = (canonical_parametrization(face) if t & 1
                            else (1, face))
                col[below[rep]] = sgn * det
            cols.append(col)
        columns.append(cols)
    return CwCubeComplex(max_dim, cells, columns)


def cw_to_json(c):
    """Cell dump: every cell with its vertices, edges and representative
    corners, plus boundary triples, for cross-implementation diffing."""
    cells = []
    for n in range(c.max_dim + 1):
        for q in c.cells[n]:
            cells.append({
                "dim": n,
                "vertices": list(q.vertices),
                "edges": [list(e) for e in q.edges],
                "corners": list(q.rep),
            })
    boundary = []
    for n in range(1, c.max_dim + 1):
        for j, col in enumerate(c.columns[n]):
            for i in sorted(col):
                boundary.append({"dim": n, "row": i, "col": j,
                                 "coeff": col[i]})
    return {"cells": cells, "boundary": boundary}


def cw_homology(c, n):
    """Cellular homology in degree n; needs cells through n+1.

    For d = 1..n+1, `zlinalg.coreduce` pairs the d-cells, in index order,
    with the live (d-1)-cells, and `block` hands the cells left to the
    exact route.  At d = 1 a unit seed {v: 1} follows the edges for each
    vertex still live and drains its component: one seed per component,
    H_n(S) = H_n(S, seeds) for n >= 1, and H_0 gains Z^seeds."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n + 1, f"the boundary of dimension {n + 1}")
    keep, rest, seeds = [], set(range(c.dim(0))), 0
    for d in range(1, n + 2):
        # at d = 1, after the edges, a seed for each vertex still live
        units = ((None, {v: 1}) for v in range(c.dim(0)) if v in rest)
        paired = list(coreduce(chain(enumerate(c.columns[d]),
                                     units if d == 1 else ()), rest))
        seeds += paired.count(None)
        keep.append(sorted(rest))
        rest = set(range(c.dim(d))).difference(paired)
    keep.append(sorted(rest))
    h = subquotient_homology(block(c, n + 1, keep[n + 1], keep[n]),
                             block(c, n, keep[n], keep[n - 1] if n else None))
    return h if n else AbelianGroup.from_invariants(h.free_rank + seeds,
                                                    h.torsion)


def cycle_space(c, n):
    """Echelon basis of cellular n-cycles."""
    return kernel_echelon(*block(c, n))


def _rep_columns(cells, basis):
    """Send each cell to the generator of its canonical representative in
    the injective-cube `basis` of a slice group, or to 0 when the
    representative is not in it."""
    index = {cube: i for i, cube in enumerate(basis)}
    return [{index[q.rep]: 1} if q.rep in index else {} for q in cells]


class ComparisonMap:
    """The chain map from cellular n-chains onto the degree-n slice
    homology at dimension n, with its verification results.

    matrix          GroupMap from free cellular chains to the slice group
    chain_map_ok    True: the square against the slice differential
                    commutes, or the construction raises
    surjective      every injective n-cube class is hit
    kernel_rank     rank of the kernel lattice (0 means injective)
    kernel_basis    echelon rows of the kernel lattice over the cells
    """

    __slots__ = ("n", "matrix", "chain_map_ok", "surjective",
                 "kernel_rank", "kernel_basis")

    def __init__(self, n, matrix, surjective, kernel):
        self.n = n
        self.matrix = matrix
        self.chain_map_ok = True
        self.surjective = surjective
        self.kernel_rank = kernel.rank
        self.kernel_basis = kernel


def cell_to_degree_class(g, n):
    """Send each n-cell to the class of its canonical representative in
    the degree-n slice homology, and verify the comparison:

    (a) surjectivity: same-image injective cubes are homologous up to
        sign, so canonical representatives generate;
    (b) the chain-map square against the slice differential commutes;
    (c) the kernel lattice (trivial exactly when the map is one-to-one).
    """
    chain_complex = normalized_complex(g, n + 1)
    cw = build_cw_complex(g, n)
    here = bottom_edge_group(chain_complex, n)
    group, basis = here
    cols = _rep_columns(cw.cells[n], basis)
    matrix = GroupMap(AbelianGroup.free(cw.dim(n)), group, cols, check=False)

    # (a) surjectivity on presentations
    surjective = is_surjective(matrix)

    # (b) chain-map property against the slice differential and the
    # cellular boundary, as an exact identity on presentations
    if n >= 1:
        below = bottom_edge_group(chain_complex, n - 1)
        d1 = edge_map(chain_complex, n, here, below)
        below_group, below_basis = below
        cell_cols_below = _rep_columns(cw.cells[n - 1], below_basis)
        for col, cell_col in zip(cols, block(cw, n)[0]):
            diff = d1.apply(col)
            axpy(diff, -1, apply_columns(cell_cols_below, cell_col))
            if not below_group.relations.contains(diff):
                raise ContractViolation(
                    "cell map does not commute with the slice differential")

    # (c) kernel lattice of the induced map on the free cell group
    kernel = lattice_preimage(cols, cw.dim(n), group.relations)
    return ComparisonMap(n, matrix, surjective, kernel)


class GeometricClassResult:
    __slots__ = ("cw_class_nonzero", "inj_class_nonzero", "quasimonophobic")

    def __init__(self, cw_class_nonzero, inj_class_nonzero, quasimonophobic):
        self.cw_class_nonzero = cw_class_nonzero
        self.inj_class_nonzero = inj_class_nonzero
        self.quasimonophobic = quasimonophobic


def geometric_class_check(g, cycle, n):
    """Evaluate a cellular n-cycle in cellular homology and push it to the
    injective-homology class.

    `cycle` is a sparse {cell: coeff} vector over the n-cells.  Without
    n-quasimonophobicity the push-forward is still computed but the
    result flags that injectivity of the comparison is not guaranteed.
    """
    cw = build_cw_complex(g, n + 1)
    chain_complex = normalized_complex(g, n + 1)
    if apply_columns(block(cw, n)[0], cycle):
        raise ValueError("the given chain is not a cellular cycle")

    quasi = is_quasimonophobic(g, n)

    # nonzero in cellular homology: outside the boundary lattice
    boundaries = echelon_from_rows(*block(cw, n + 1)[:2])
    cw_nonzero = not boundaries.contains(cycle)

    # push to the slice group and test against boundaries-from-above plus
    # slice relations (the denominator of the injective homology at n)
    here = bottom_edge_group(chain_complex, n)
    cols = _rep_columns(cw.cells[n], here[1])
    img = apply_columns(cols, cycle)
    denom = image_lattice(_injective_cover(chain_complex, n, here))
    inj_nonzero = not denom.contains(img)
    return GeometricClassResult(cw_nonzero, inj_nonzero, quasi)
