"""The spectral sequence of the degree filtration.

First-page entries are the homology groups of the degree slices of the
normalized complex; the page's differentials push a class through the
full boundary and project one degree step down.  Classes are represented
on kernel-basis vectors of the slice complexes, and the canonical lift of
such a representative already has boundary one filtration step down, so
the differential needs no correction term.

Higher pages and the limit are computed from lattices of relative cycles
inside the full chain groups, which scales to large top dimensions; the
two routes are cross-checked in the test suite.
"""

from .budget import checkpoint
from .chains import (
    degree_quotient_complex,
    homology,
    homology_presentation,
)
from .cubes import _worker_count, cube_degree, singular_cubes
from .zlinalg import (
    AbelianGroup,
    ContractViolation,
    Echelon,
    GroupMap,
    dense_to_sparse,
    echelon_from_rows,
    homology_at,
    invariant_factors,
    IntMatrix,
    quotient_group,
)


class SpectralPage:
    """One page of the spectral sequence.

    entries maps (p, q) to an AbelianGroup; differentials maps (p, q) to
    the GroupMap into (p - r, q + r - 1) when both endpoints are in range.
    """

    __slots__ = ("r", "entries", "differentials")

    def __init__(self, r, entries, differentials):
        self.r = r
        self.entries = entries
        self.differentials = differentials

    def entry(self, p, q):
        return self.entries.get((p, q), AbelianGroup.trivial())


class ConvergenceReport:
    """Graded pieces of the filtration on H_n versus the stabilized page."""

    __slots__ = ("n", "filtration_graded", "einf_entries", "match")

    def __init__(self, n, filtration_graded, einf_entries, match):
        self.n = n
        self.filtration_graded = filtration_graded
        self.einf_entries = einf_entries
        self.match = match


# ---------------------------------------------------------------------------
# E^1 page with differentials
# ---------------------------------------------------------------------------

class _Entry:
    __slots__ = ("quotient", "group", "kernel")

    def __init__(self, quotient, group, kernel):
        self.quotient = quotient
        self.group = group
        self.kernel = kernel


def _e1_entry(c, p, n):
    """Presentation of the degree-p slice homology at total degree n."""
    q = degree_quotient_complex(c, p)
    group, kernel, _ = homology_presentation(q, n)
    return _Entry(q, group, kernel)


def _d1_map(c, p, n, source, target):
    """Differential from the (p, n-p) entry to (p-1, n-p): push a kernel
    representative through the full boundary and keep the degree-(p-1)
    part."""
    cols = []
    src_basis = source.quotient.basis[n]
    tgt_index = target.quotient.index[n - 1]
    full_index = c.index[n]
    for kvec in source.kernel.rows:
        bnd = {}
        for jq, a in kvec.items():
            full_j = full_index[src_basis[jq]]
            for i, v in c.columns[n][full_j].items():
                w = bnd.get(i, 0) + a * v
                if w:
                    bnd[i] = w
                else:
                    del bnd[i]
        proj = {}
        for i, v in bnd.items():
            pos = tgt_index.get(c.basis[n - 1][i])
            if pos is not None:
                proj[pos] = v
        coeffs = target.kernel.express(proj)
        if coeffs is None:
            raise ContractViolation(
                "projected boundary is not a cycle in the target slice")
        cols.append(dense_to_sparse(coeffs))
    return GroupMap(source.group, target.group, cols)


def e1_page(c, max_total):
    """First page of the degree spectral sequence for all p + q <= max_total.

    Entries vanish outside 0 <= p <= p+q, so only that triangle is stored.
    Requires the complex through dimension max_total + 1.
    """
    if max_total < 0:
        raise ValueError("max_total must be non-negative")
    c.require(max_total + 1, "first page through this total degree")
    cache = {}
    for n in range(max_total + 1):
        for p in range(n + 1):
            cache[(p, n)] = _e1_entry(c, p, n)
    entries = {(p, n - p): e.group for (p, n), e in cache.items()}
    differentials = {}
    for (p, n), src in cache.items():
        if p >= 1 and (p - 1, n - 1) in cache:
            tgt = cache[(p - 1, n - 1)]
            differentials[(p, n - p)] = _d1_map(c, p, n, src, tgt)
    return SpectralPage(1, entries, differentials)


def page_to_json(page):
    entries = []
    for (p, q) in sorted(page.entries):
        g = page.entries[(p, q)]
        entries.append({"p": p, "q": q, "rank": g.free_rank,
                        "torsion": list(g.torsion)})
    diffs = []
    for (p, q) in sorted(page.differentials):
        f = page.differentials[(p, q)]
        rows = [[f.columns[j].get(i, 0) for j in range(f.source.ngens)]
                for i in range(f.target.ngens)]
        diffs.append({"from": [p, q], "to": [p - page.r, q + page.r - 1],
                      "matrix": rows})
    return {"r": page.r, "entries": entries, "differentials": diffs}


# ---------------------------------------------------------------------------
# the bottom edge and injective homology
# ---------------------------------------------------------------------------

def bottom_edge_group(c, p):
    """H of the degree-p slice at its lowest live dimension p, presented on
    the injective p-cubes (the slice has no chains below dimension p, so
    every chain is a cycle).

    Returns (group, basis) where basis lists the injective p-cubes in
    enumeration order.  When no injective p-cube exists the group is
    trivial and no dimension-(p+1) data is touched.
    """
    if p < 0:
        return AbelianGroup.trivial(), ()
    c.require(p, f"degree-{p} slice")
    basis = tuple(cube for cube, d in zip(c.basis[p], c.degrees[p]) if d == p)
    if not basis:
        return AbelianGroup.trivial(), ()
    c.require(p + 1, f"relations of the degree-{p} slice at dimension {p}")
    index = {cube: i for i, cube in enumerate(basis)}
    rels = Echelon(len(basis))
    for j, cube in enumerate(c.basis[p + 1]):
        if c.degrees[p + 1][j] != p:
            continue
        col = {}
        for i, v in c.columns[p + 1][j].items():
            pos = index.get(c.basis[p][i])
            if pos is not None:
                col[pos] = v
        rels.add(col)
    return AbelianGroup(len(basis), rels), basis


def _edge_columns(c, p, basis, target_index):
    """Boundary columns of injective p-cubes, restricted to injective
    (p-1)-cube rows."""
    cols = []
    for cube in basis:
        j = c.index[p][cube]
        col = {}
        for i, v in c.columns[p][j].items():
            pos = target_index.get(c.basis[p - 1][i])
            if pos is not None:
                col[pos] = v
        cols.append(col)
    return cols


def edge_map(c, p, source=None, target=None):
    """The differential H of slice p at dimension p -> slice p-1 at p-1."""
    if source is None:
        source = bottom_edge_group(c, p)
    if target is None:
        target = bottom_edge_group(c, p - 1)
    src_group, src_basis = source
    tgt_group, tgt_basis = target
    if src_group.is_trivial and src_group.ngens == 0:
        return GroupMap.zero(src_group, tgt_group)
    if p == 0 or tgt_group.ngens == 0:
        return GroupMap.zero(src_group, tgt_group)
    tgt_index = {cube: i for i, cube in enumerate(tgt_basis)}
    cols = _edge_columns(c, p, src_basis, tgt_index)
    return GroupMap(src_group, tgt_group, cols)


def injective_homology(c, n):
    """Homology of the bottom edge at position n.

    Only injective cubes (plus one dimension of degree-exact relations)
    enter the computation, which is what makes this variant so much
    cheaper than the full homology.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    here = bottom_edge_group(c, n)
    above = bottom_edge_group(c, n + 1)
    below = bottom_edge_group(c, n - 1) if n >= 1 else (AbelianGroup.trivial(), ())
    f_in = edge_map(c, n + 1, source=above, target=here)
    f_out = edge_map(c, n, source=here, target=below)
    return homology_at(f_in, f_out)


# ---------------------------------------------------------------------------
# higher pages via relative-cycle lattices
# ---------------------------------------------------------------------------

def _filtered_cycles(c, n, p, depth):
    """Lattice Z = {x in F_p C_n : boundary(x) in F_{p-depth} C_{n-1}},
    echelonized over the full C_n coordinates."""
    lat = Echelon(c.dim(n))
    if p < 0:
        return lat
    if n == 0:
        for j, d in enumerate(c.degrees[0]):
            if d <= p:
                lat.add({j: 1})
        return lat
    cut = p - depth
    degs = c.degrees[n - 1]
    stacked = Echelon(c.dim(n - 1) + c.dim(n))
    shift = c.dim(n - 1)
    for j, d in enumerate(c.degrees[n]):
        if d > p:
            continue
        vec = {i: v for i, v in c.columns[n][j].items() if degs[i] > cut}
        vec[shift + j] = 1
        stacked.add(vec)
        checkpoint()
    for row, piv in zip(stacked.rows, stacked.pivots):
        if piv >= shift:
            lat.add({k - shift: v for k, v in row.items()})
    return lat


def _boundary_image(c, n, p, depth):
    """Lattice {boundary(x) : x in F_p C_{n+1}, boundary(x) in F_{p-depth}},
    echelonized over C_n coordinates."""
    lat = Echelon(c.dim(n))
    if p < 0 or n + 1 > c.max_dim:
        return lat
    cut = p - depth
    degs = c.degrees[n]
    stacked = Echelon(2 * c.dim(n))
    shift = c.dim(n)
    for j, d in enumerate(c.degrees[n + 1]):
        if d > p:
            continue
        col = c.columns[n + 1][j]
        vec = {i: v for i, v in col.items() if degs[i] > cut}
        for i, v in col.items():
            vec[shift + i] = v
        stacked.add(vec)
        checkpoint()
    for row, piv in zip(stacked.rows, stacked.pivots):
        if piv >= shift:
            lat.add({k - shift: v for k, v in row.items()})
    return lat


def er_term(c, r, p, q):
    """E^r entry at (p, q), from the standard filtered-complex formula:
    relative cycles Z^r_{p,q} modulo Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2}.
    """
    if r < 1:
        raise ValueError("page index must be >= 1")
    n = p + q
    if n < 0 or p < 0:
        return AbelianGroup.trivial()
    c.require(n, f"E^{r} at ({p},{q})")
    c.require(n + 1, f"E^{r} at ({p},{q})")
    z_top = _filtered_cycles(c, n, p, r)
    sub = _filtered_cycles(c, n, p - 1, r - 1)
    bnd = _boundary_image(c, n, p + r - 1, r - 1)
    rels = []
    for lat in (sub, bnd):
        for row in lat.rows:
            coeffs = z_top.express(row)
            if coeffs is None:
                raise ContractViolation(
                    "denominator lattice escapes the relative cycles")
            rels.append(dense_to_sparse(coeffs))
    return quotient_group(z_top.rank, echelon_from_rows(rels, z_top.rank))


def einfinity_report(c, n):
    """Exact limit comparison at total degree n.

    The filtration on H_n is computed from images of the subcomplex
    homologies; the stabilized page entries are E^{n+2}, beyond which no
    differential can touch total degree n.  Pieces are reported for
    p = 0..n+1 (the top one is always zero and demonstrates stability).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    c.require(n + 1, f"limit page at total degree {n}")
    boundaries = Echelon(c.dim(n))
    if n + 1 <= c.max_dim:
        for col in c.columns[n + 1]:
            boundaries.add(dict(col))
    levels = []
    for p in range(-1, n + 2):
        if p < 0:
            lat = Echelon(c.dim(n))
            for row in boundaries.rows:
                lat.add(dict(row))
        elif p > n:
            # F_p C_n = C_n once p >= n, so the lattice stabilizes
            lat = levels[-1][1]
        else:
            # cycles on the nose inside F_p: cut the boundary below degree 0
            cycles = _filtered_cycles(c, n, p, p + 1)
            lat = Echelon(c.dim(n))
            for row in cycles.rows:
                lat.add(dict(row))
            for row in boundaries.rows:
                lat.add(dict(row))
        levels.append((p, lat))
    graded = []
    for (p_prev, prev), (p_cur, cur) in zip(levels, levels[1:]):
        rels = []
        for row in prev.rows:
            coeffs = cur.express(row)
            if coeffs is None:
                raise ContractViolation("filtration levels are not nested")
            rels.append(dense_to_sparse(coeffs))
        graded.append(quotient_group(cur.rank,
                                     echelon_from_rows(rels, cur.rank)))
    einf = [er_term(c, n + 2, p, n - p) for p in range(0, n + 2)]
    match = all(a.invariants() == b.invariants()
                for a, b in zip(graded, einf))
    return ConvergenceReport(n, graded, einf, match)


# ---------------------------------------------------------------------------
# the H_2 extension
# ---------------------------------------------------------------------------

def h2_exact_sequence(c):
    """The two graded pieces around H_2 and the extension consistency check.

    Returns (left, middle, right, exact) where left is the degree-1 piece
    (slice homology at (1,1) after the page-one differential), middle is
    H_2 itself, right is the piece at (2,0), and `exact` checks rank
    additivity plus torsion-order divisibility for the extension.
    """
    c.require(3, "the H_2 extension")
    left = er_term(c, 2, 1, 1)
    middle = homology(c, 2)
    here = bottom_edge_group(c, 2)
    below = bottom_edge_group(c, 1)
    f_out = edge_map(c, 2, source=here, target=below)
    # the dimension-3 injective cubes only matter through their boundary
    # image, so a free cover stands in for the slice group above
    basis3 = tuple(cube for cube, d in zip(c.basis[3], c.degrees[3]) if d == 3)
    free3 = AbelianGroup.free(len(basis3))
    idx2 = {cube: i for i, cube in enumerate(here[1])}
    cols = _edge_columns(c, 3, basis3, idx2) if basis3 else []
    f_in = GroupMap(free3, here[0], cols, check=False)
    right = homology_at(f_in, f_out)
    rank_ok = middle.free_rank == left.free_rank + right.free_rank
    tor_ok = (left.torsion_order * right.torsion_order) % middle.torsion_order == 0
    return left, middle, right, rank_ok and tor_ok


# ---------------------------------------------------------------------------
# streaming slice homology (large top dimensions)
# ---------------------------------------------------------------------------

def _slice_basis(g, k, n):
    return [cube for cube in singular_cubes(g, n, "nondegenerate")
            if cube_degree(cube) == k]


def _stream_chunk(args):
    """Worker: echelonize one corner-0 chunk of the boundary stream and
    ship only the reduced rows (the chunk's image lattice)."""
    g, k, n, here, first_corner = args
    from .chains import _boundary_column
    here_index = {cube: i for i, cube in enumerate(here)}
    ech = Echelon(len(here))
    for cube in singular_cubes(g, n + 1, "nondegenerate", first_corner):
        if cube_degree(cube) == k:
            ech.add(_boundary_column(cube, n + 1, here_index))
    return ech.rows


def quotient_homology(g, k, n, threads=1, early_stop=True):
    """H of the degree-k slice at dimension n, streaming dimension n+1.

    Builds the slice bases at n-1 and n, then folds the boundaries of
    degree-k nondegenerate (n+1)-cubes into an image echelon one cube at
    a time, never materializing the top chain group.  Intended for the
    regime where dimension n+1 is too large to hold; with threads > 1 the
    enumeration and degree filtering fan out over corner-0 chunks and
    only surviving boundary columns cross the pipe.

    When the image echelon reaches the rank of the cycle lattice with all
    pivots +-1 it is a saturated equal-rank sublattice of the cycles and
    therefore equals it, so the homology is zero and the rest of the
    stream is redundant; `early_stop` stops there.
    """
    if n < 0 or k < 0:
        raise ValueError("degree and slice index must be non-negative")
    from .chains import _boundary_column

    below = _slice_basis(g, k, n - 1) if n >= 1 else []
    below_index = {cube: i for i, cube in enumerate(below)}
    here = _slice_basis(g, k, n)
    here_index = {cube: i for i, cube in enumerate(here)}

    out_rank = Echelon(len(below))
    if n >= 1:
        for cube in here:
            out_rank.add(_boundary_column(cube, n, below_index))
    cycle_rank = len(here) - out_rank.rank

    img = Echelon(len(here))

    def saturated():
        return img.rank == cycle_rank and img.has_unit_pivots()

    if threads <= 1:
        since_check = 0
        for cube in singular_cubes(g, n + 1, "nondegenerate"):
            if cube_degree(cube) != k:
                continue
            img.add(_boundary_column(cube, n + 1, here_index))
            checkpoint()
            since_check += 1
            if early_stop and since_check >= 256:
                since_check = 0
                if saturated():
                    break
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=_worker_count(threads, g.n)) as pool:
            jobs = [(g, k, n, here, v) for v in range(g.n)]
            for chunk in pool.map(_stream_chunk, jobs):
                for col in chunk:
                    img.add(col)
                    checkpoint()
                if early_stop and saturated():
                    pool.shutdown(wait=False, cancel_futures=True)
                    break

    free = cycle_rank - img.rank
    if img.has_unit_pivots():
        torsion = ()
    else:
        facs = invariant_factors(
            IntMatrix.from_rows(img.basis_rows(), len(here)))
        torsion = tuple(f for f in facs if f != 1)
    return AbelianGroup.from_invariants(free, torsion)
