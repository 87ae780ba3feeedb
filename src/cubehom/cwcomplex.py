"""The filled-cube CW complex of a graph.

One n-cell per cube subgraph (all cube subgraphs, induced or not); the
canonical parametrization of each cell fixes its orientation, and face
incidence signs come from the determinant of the signed permutation
relating the face to the face-cell's own canonical parametrization.

The chain map sending a cell to the class of its canonical
parametrization in the top slice homology compares cellular homology
with the degree-filtration world.
"""

from .budget import DimensionBudgetError
from .chains import normalized_complex
from .cubes import (
    cube_subgraphs,
    face_getters,
    image_subgraph,
    relating_automorphism,
)
from .monophobic import is_quasimonophobic
from .zlinalg import (
    AbelianGroup,
    ContractViolation,
    Echelon,
    GroupMap,
    IntMatrix,
    dense_to_sparse,
    image_lattice,
    lattice_preimage,
    subquotient_homology,
)


class CwCubeComplex:
    """Cellular chain complex of the filled-cube CW complex, truncated at
    max_dim.  cells[n] lists the n-cells as CubeSubgraph values; columns[n]
    holds sparse boundary columns into dimension n-1."""

    __slots__ = ("graph", "max_dim", "cells", "index", "columns")

    def __init__(self, graph, max_dim, cells, columns):
        self.graph = graph
        self.max_dim = max_dim
        self.cells = cells
        self.index = [{(q.vertices, q.edges): i for i, q in enumerate(cs)}
                      for cs in cells]
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

    def boundary_matrix(self, n):
        self.require(n)
        m = IntMatrix(self.dim(n - 1), self.dim(n))
        for j, col in enumerate(self.columns[n]):
            for i, v in col.items():
                m.data[i][j] = v
        return m


def build_cw_complex(g, max_dim, threads=1):
    """Cells in every dimension up to max_dim with oriented boundaries.

    The boundary of a cell is the alternating sum of its face cells, each
    weighted by the sign relating the face of the canonical representative
    to the face-cell's canonical representative.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    cells = []
    columns = [[]]
    for n in range(max_dim + 1):
        cells.append(cube_subgraphs(g, n, threads))
        if n == 0:
            continue
        below = {q.edges if n > 1 else q.vertices: i
                 for i, q in enumerate(cells[n - 1])}
        cols = []
        for q in cells[n]:
            col = {}
            for t, get in enumerate(face_getters(n)):
                f = get(q.rep)
                verts, edges = image_subgraph(f)
                pos = below[edges if n > 1 else verts]
                rep = cells[n - 1][pos].rep
                if n == 1:
                    eps = 1  # 0-cells have a unique parametrization
                else:
                    _, eps = relating_automorphism(rep, f)
                # face (i, side) sits in slot t = 2(i-1) + side
                sgn = -1 if t & 1 == (t >> 1) & 1 else 1
                w = col.get(pos, 0) + sgn * eps
                if w:
                    col[pos] = w
                else:
                    del col[pos]
            cols.append(col)
        columns.append(cols)
    return CwCubeComplex(g, max_dim, cells, columns)


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
    """Cellular homology in degree n; needs cells through n+1."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n + 1, f"cellular homology in degree {n}")
    d_in = (c.columns[n + 1], c.dim(n), c.dim(n + 1))
    if n >= 1:
        d_out = (c.columns[n], c.dim(n - 1), c.dim(n))
    else:
        d_out = ([{} for _ in range(c.dim(0))], 0, c.dim(0))
    return subquotient_homology(d_in, d_out)


def cycle_space(c, n):
    """Echelon basis of cellular n-cycles."""
    from .zlinalg import kernel_echelon

    c.require(n)
    if n == 0:
        ker = Echelon(c.dim(0))
        for j in range(c.dim(0)):
            ker.add({j: 1})
        return ker
    return kernel_echelon(c.columns[n], c.dim(n - 1), c.dim(n))


class ComparisonMap:
    """The chain map from cellular n-chains onto the degree-n slice
    homology at dimension n, with its verification results.

    matrix          GroupMap from free cellular chains to the slice group
    chain_map_ok    the square against the slice differential commutes
    surjective      every injective n-cube class is hit
    kernel_rank     rank of the kernel lattice (0 means injective)
    kernel_basis    echelon rows of the kernel lattice over the cells
    """

    __slots__ = ("n", "matrix", "chain_map_ok", "surjective",
                 "kernel_rank", "kernel_basis")

    def __init__(self, n, matrix, chain_map_ok, surjective, kernel):
        self.n = n
        self.matrix = matrix
        self.chain_map_ok = chain_map_ok
        self.surjective = surjective
        self.kernel_rank = kernel.rank
        self.kernel_basis = kernel

    @property
    def kernel_group(self):
        return AbelianGroup.free(self.kernel_rank)


def cell_to_degree_class(g, n, chain_complex=None, cw=None, threads=1):
    """Send each n-cell to the class of its canonical representative in
    the degree-n slice homology, and verify the comparison:

    (a) surjectivity: same-image injective cubes are homologous up to
        sign, so canonical representatives generate;
    (b) the chain-map square against the slice differential commutes;
    (c) the kernel lattice (trivial exactly when the map is one-to-one).
    """
    from .spectral import bottom_edge_group, edge_map

    if chain_complex is None:
        chain_complex = normalized_complex(g, n + 1, threads)
    if cw is None:
        cw = build_cw_complex(g, n, threads)
    chain_complex.require(n + 1, "the slice group at the cell dimension")
    here = bottom_edge_group(chain_complex, n)
    group, basis = here
    index = {cube: i for i, cube in enumerate(basis)}
    cols = []
    for q in cw.cells[n]:
        cols.append({index[q.rep]: 1} if q.rep in index else {})
    free_cells = AbelianGroup.free(cw.dim(n))
    matrix = GroupMap(free_cells, group, cols, check=False)

    # (a) surjectivity on presentations
    lat = image_lattice(matrix)
    surjective = lat.rank == group.ngens and lat.has_unit_pivots()

    # (b) chain-map property against the slice differential and the
    # cellular boundary, as an exact identity on presentations
    chain_map_ok = True
    if n >= 1:
        below = bottom_edge_group(chain_complex, n - 1)
        d1 = edge_map(chain_complex, n, source=here, target=below)
        below_group, below_basis = below
        below_index = {cube: i for i, cube in enumerate(below_basis)}
        cell_cols_below = []
        for q in cw.cells[n - 1]:
            cell_cols_below.append(
                {below_index[q.rep]: 1} if q.rep in below_index else {})
        for j in range(cw.dim(n)):
            via_top = d1.apply(cols[j])
            via_cell = {}
            for i, v in cw.columns[n][j].items():
                for ii, vv in cell_cols_below[i].items():
                    w = via_cell.get(ii, 0) + v * vv
                    if w:
                        via_cell[ii] = w
                    else:
                        del via_cell[ii]
            diff = dict(via_top)
            for ii, vv in via_cell.items():
                w = diff.get(ii, 0) - vv
                if w:
                    diff[ii] = w
                else:
                    diff.pop(ii, None)
            if not below_group.relations.contains(diff):
                chain_map_ok = False
                break
    if not chain_map_ok:
        raise ContractViolation(
            "cell map does not commute with the slice differential")

    # (c) kernel lattice of the induced map on the free cell group
    kernel = lattice_preimage(cols, cw.dim(n), group.relations)
    return ComparisonMap(n, matrix, chain_map_ok, surjective, kernel)


class GeometricClassResult:
    __slots__ = ("cw_class_nonzero", "inj_class_nonzero", "quasimonophobic")

    def __init__(self, cw_class_nonzero, inj_class_nonzero, quasimonophobic):
        self.cw_class_nonzero = cw_class_nonzero
        self.inj_class_nonzero = inj_class_nonzero
        self.quasimonophobic = quasimonophobic


def geometric_class_check(g, cycle, n, chain_complex=None, cw=None):
    """Evaluate a cellular n-cycle in cellular homology and push it to the
    injective-homology class.

    `cycle` is a coefficient vector over the n-cells.  Without
    n-quasimonophobicity the push-forward is still computed but the
    result flags that injectivity of the comparison is not guaranteed.
    """
    from .spectral import bottom_edge_group

    if cw is None:
        cw = build_cw_complex(g, n + 1)
    cw.require(n + 1, "cellular homology at the cycle dimension")
    if chain_complex is None:
        chain_complex = normalized_complex(g, n + 1)
    vec = dense_to_sparse(cycle) if not isinstance(cycle, dict) else dict(cycle)
    if n >= 1:
        bnd = {}
        for j, a in vec.items():
            for i, v in cw.columns[n][j].items():
                w = bnd.get(i, 0) + a * v
                if w:
                    bnd[i] = w
                else:
                    del bnd[i]
        if bnd:
            raise ValueError("the given chain is not a cellular cycle")

    quasi = is_quasimonophobic(g, n)

    # nonzero in cellular homology: outside the boundary lattice
    boundaries = Echelon(cw.dim(n))
    for col in cw.columns[n + 1]:
        boundaries.add(dict(col))
    cw_nonzero = not boundaries.contains(vec)

    # push to the slice group and test against boundaries-from-above plus
    # slice relations (the denominator of the injective homology at n)
    here = bottom_edge_group(chain_complex, n)
    group, basis = here
    index = {cube: i for i, cube in enumerate(basis)}
    img = {}
    for j, a in vec.items():
        rep = cw.cells[n][j].rep
        pos = index.get(rep)
        if pos is None:
            continue
        w = img.get(pos, 0) + a
        if w:
            img[pos] = w
        else:
            del img[pos]
    # boundaries from the slice above only enter through their image, so a
    # free cover of the injective (n+1)-cubes avoids dimension n+2 data
    from .spectral import _edge_columns

    basis_above = tuple(
        cube for cube, d in zip(chain_complex.basis[n + 1],
                                chain_complex.degrees[n + 1]) if d == n + 1)
    cols_up = _edge_columns(chain_complex, n + 1, basis_above, index) \
        if basis_above else []
    up = GroupMap(AbelianGroup.free(len(basis_above)), group, cols_up,
                  check=False)
    denom = image_lattice(up)
    inj_nonzero = not denom.contains(img)
    return GeometricClassResult(cw_nonzero, inj_nonzero, quasi)
