"""The spectral sequence of the degree filtration.

First-page entries are the homology groups of the degree slices of the
normalized complex, each slice read off the complex by the positions of
its cubes (`chains.block`), never copied: a column is restricted only
while it is read, so an entry holds rank-many rows, not the slice's
columns.  An entry reads its incoming boundary twice (the image builder)
and its outgoing one once (the kernel, in which d o d = 0 is checked by
expressing the image rows).  On the bottom edge E1[p, 0] every slice
chain is a cycle, so its groups and their d^1 are `bottom_edge_group` and
`edge_map`, with no kernel presented.  Above it the page's differentials
push a class through the full boundary and project one degree step down.
Classes are represented on kernel-basis vectors of the slice complexes,
and the canonical lift of such a representative already has boundary one
filtration step down, so the differential needs no correction term.

Higher pages and the limit are computed from lattices of relative cycles
inside the full chain groups, which scales to large top dimensions; the
two routes are cross-checked in the test suite.  One echelon over C_n
ordered by decreasing degree serves every filtration level of a lattice (the
boundaries at each cut, the relative cycles at each p): the rows pivoting
past the cubes of degree above the level span the part inside it.
"""

from bisect import bisect_left
from collections import deque
from functools import cache

from .budget import BudgetExhausted
from .chains import _slice_positions, block, face_positions, face_signs, homology
from .cubes import cube_degree, face_getters, singular_cubes
from .zlinalg import (
    AbelianGroup,
    ContractViolation,
    Echelon,
    GroupMap,
    apply_columns,
    coreduce,
    echelon_from_rows,
    homology_at,
    kernel_echelon,
    lattice_torsion,
    merge,
    quotient_in,
    subquotient_presentation,
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

def _d1_map(c, n, source, target):
    """Differential from the (p, n-p) entry to (p-1, n-p): push a kernel
    representative through the boundary and keep the degree-(p-1) part.
    source and target are (positions, group, kernel) triples."""
    src_sel, src_group, src_kernel = source
    tgt_sel, tgt_group, tgt_kernel = target
    d = list(block(c, n, src_sel, tgt_sel)[0]())
    cols = []
    for kvec in src_kernel.rows:
        coeffs = tgt_kernel.express(apply_columns(d, kvec))
        if coeffs is None:
            raise ContractViolation(
                "projected boundary is not a cycle in the target slice")
        cols.append(coeffs)
    return GroupMap(src_group, tgt_group, cols)


def e1_page(c, max_total):
    """First page of the degree spectral sequence for all p + q <= max_total.

    Entries vanish outside 0 <= p <= p+q, so only that triangle is stored.
    The bottom edge and its d^1 are `bottom_edge_group` and `edge_map`;
    above it each slice is read off c by position, never copied, and each
    column is restricted only while it is read.  Requires the complex
    through dimension max_total + 1.
    """
    if max_total < 0:
        raise ValueError("max_total must be non-negative")
    c.require(max_total + 1, "first page through this total degree")
    edge = [bottom_edge_group(c, p) for p in range(max_total + 1)]
    entries = {(p, 0): group for p, (group, _) in enumerate(edge)}
    differentials = {(p, 0): edge_map(c, p, edge[p], edge[p - 1])
                     for p in range(1, max_total + 1)}
    cache = {}
    for p in range(max_total):  # nothing lies above the edge at max_total
        sel = [_slice_positions(c, n, p) for n in range(max_total + 2)]
        for n in range(p + 1, max_total + 1):
            group, kernel, _ = subquotient_presentation(
                block(c, n + 1, sel[n + 1], sel[n]),
                block(c, n, sel[n], sel[n - 1]))
            entries[(p, n - p)] = group
            cache[(p, n)] = sel[n], group, kernel
            if p:
                differentials[(p, n - p)] = _d1_map(
                    c, n, cache[(p, n)], cache[(p - 1, n - 1)])
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
    """E1[p, 0], the homology of the degree-p slice at its lowest live
    dimension p.  The slice has no chains below dimension p, so every chain
    is a cycle: the group is Z^(injective p-cubes) modulo the boundaries of
    the degree-p (p+1)-cubes read on them.

    Returns (group, basis) where basis lists the injective p-cubes in
    enumeration order.  When no injective p-cube exists the group is
    trivial and no dimension-(p+1) data is touched.
    """
    if p < 0:
        return AbelianGroup.trivial(), ()
    c.require(p, f"degree-{p} slice")
    here = _slice_positions(c, p, p)
    if not here:
        return AbelianGroup.trivial(), ()
    c.require(p + 1, f"relations of the degree-{p} slice at dimension {p}")
    rels = block(c, p + 1, _slice_positions(c, p + 1, p), here)[0]
    return AbelianGroup(len(here), rels), tuple(c.basis[p][i] for i in here)


def _edge_cover(c, n):
    """Boundary columns of the injective n-cubes on the injective
    (n-1)-cubes, the generators of the bottom edge at n and n-1."""
    return list(block(c, n, _slice_positions(c, n, n),
                      _slice_positions(c, n - 1, n - 1))[0]())


def edge_map(c, p, source, target):
    """The differential H of slice p at dimension p -> slice p-1 at p-1,
    between the bottom_edge_group pairs `source` and `target`."""
    if p == 0:
        return GroupMap.zero(source[0], target[0])
    return GroupMap(source[0], target[0], _edge_cover(c, p))


def _injective_cover(c, n, target):
    """Map into the degree-n slice group `target` (a bottom_edge_group
    pair) from the free group on the injective (n+1)-cubes, each sent to
    its boundary.

    The degree-(n+1) slice group enters a homology at n only through its
    image, which this free cover shares, so its relations (dimension-(n+2)
    data) are never needed.
    """
    c.require(n + 1, f"boundaries into the degree-{n} slice")
    cols = _edge_cover(c, n + 1)
    return GroupMap(AbelianGroup.free(len(cols)), target[0], cols,
                    check=False)


def injective_homology(c, n):
    """Homology of the bottom edge at position n.

    Only injective cubes (plus one dimension of degree-exact relations)
    enter the computation, which is what makes this variant so much
    cheaper than the full homology.  The complex is needed only through
    dimension n+1: the injective (n+1)-cubes enter through their
    boundaries alone.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    here = bottom_edge_group(c, n)
    f_out = edge_map(c, n, here, bottom_edge_group(c, n - 1))
    return homology_at(_injective_cover(c, n, here), f_out)


# ---------------------------------------------------------------------------
# higher pages via relative-cycle lattices
# ---------------------------------------------------------------------------

def _degree_reader(degs, lattice):
    """Reader `read(p)` of the part inside F_p of `lattice`, an Echelon
    over C_n, whose degrees are `degs`; the one place the degree order lives.

    The rows are echelonized again over C_n ordered by decreasing degree
    (stable within a degree), coordinate i going to at[i], so F_p C_n is
    spanned by the coordinates from s = #{degree > p} on.  Pivots are
    smallest indices and increase down the rows, so a combination of rows
    vanishes below s only if each row pivoting below s has coefficient 0:
    the rows pivoting at s or later span the part inside F_p.  A read maps
    them back to C_n coordinates and echelonizes them again, once per p:
    the reader keeps each Echelon it returned, which no caller modifies."""
    order = sorted(range(len(degs)), key=degs.__getitem__, reverse=True)
    at = {i: k for k, i in enumerate(order)}
    ech = echelon_from_rows(
        ({at[i]: v for i, v in row.items()} for row in lattice.rows),
        len(degs))

    @cache
    def read(p):
        start = bisect_left(ech.pivots, sum(d > p for d in degs))
        return echelon_from_rows(
            ({order[k]: v for k, v in row.items()} for row in ech.rows[start:]),
            len(degs))
    return read


def _filtered_cycles(c, n, cut):
    """Reader `cycles(p)` of the lattices {x in F_p C_n : boundary(x) in
    F_cut C_{n-1}} off the kernel of the boundary's part above the cut
    (`_degree_reader`)."""
    degs = c.degrees[n - 1] if n else ()
    above = [i for i, d in enumerate(degs) if d > cut]
    return _degree_reader(c.degrees[n],
                          kernel_echelon(*block(c, n, rows=above)))


def _boundary_image(c, n, p):
    """Reader `image(cut)` of the lattices {boundary(x) : x in F_p C_{n+1},
    boundary(x) in F_cut C_n} off the echelon of the stored boundary
    columns of degree at most p (`_degree_reader`)."""
    kept = [i for i, d in enumerate(c.degrees[n + 1]) if d <= p]
    return _degree_reader(c.degrees[n], echelon_from_rows(
        *block(c, n + 1, kept)[:2]))


def er_term(c, r, p, q, image=None, cycles=None):
    """E^r entry at (p, q), from the standard filtered-complex formula:
    relative cycles Z^r_{p,q} modulo Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2}.
    `image` reads the boundaries of F_{p+r-1} C_{n+1} (`_boundary_image`)
    and `cycles` the relative cycles of C_n at the cut p - r, which both
    cycle lattices share (`_filtered_cycles`); each is built when not given.
    """
    if r < 1:
        raise ValueError("page index must be >= 1")
    n = p + q
    if n < 0 or p < 0:
        return AbelianGroup.trivial()
    c.require(n, f"E^{r} at ({p},{q})")
    c.require(n + 1, f"E^{r} at ({p},{q})")
    cycles = cycles or _filtered_cycles(c, n, p - r)
    bnd = (image or _boundary_image(c, n, p + r - 1))(p)
    return quotient_in(cycles(p), cycles(p - 1).rows + bnd.rows,
                       "denominator lattice escapes the relative cycles")[0]


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
    # a cube's degree is at most its dimension, so F_{p+n+1} C_{n+1} =
    # C_{n+1} for every E^{n+2} term below: its image is all the boundaries
    boundaries = echelon_from_rows(*block(c, n + 1)[:2])
    image = _degree_reader(c.degrees[n], boundaries)
    # every cut below degree 0 reads the cycles on the nose: the filtration
    # levels and all E^{n+2} terms, whose cuts p - n - 2 are negative
    cycles = _filtered_cycles(c, n, -1)
    levels = [boundaries] + [
        echelon_from_rows(cycles(p).rows + boundaries.rows, c.dim(n))
        for p in range(n + 1)]
    # F_p C_n = C_n once p >= n, so the lattice stabilizes
    levels.append(levels[-1])
    graded = [quotient_in(cur, prev.rows,
                          "filtration levels are not nested")[0]
              for prev, cur in zip(levels, levels[1:])]
    einf = [er_term(c, n + 2, p, n - p, image, cycles)
            for p in range(0, n + 2)]
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
    right = injective_homology(c, 2)
    rank_ok = middle.free_rank == left.free_rank + right.free_rank
    tor_ok = (left.torsion_order * right.torsion_order) % middle.torsion_order == 0
    return left, middle, right, rank_ok and tor_ok


# ---------------------------------------------------------------------------
# streaming slice homology (large top dimensions)
# ---------------------------------------------------------------------------

class _Progress:
    """How far a streamed slice homology got, for a budget stop's message:
    the phase and, past the slice bases, the rank reached (the pairs', then
    the exact image's) against the cycle rank."""

    __slots__ = ("phase", "pairs", "echelon", "cycle_rank", "pulled")

    def __init__(self):
        self.phase = "slice bases"
        self.pairs = self.pulled = 0
        self.echelon = self.cycle_rank = None

    def __str__(self):
        if self.cycle_rank is None:
            return f"in phase {self.phase}"
        rank = self.pairs if self.echelon is None else self.echelon.rank
        return (f"in phase {self.phase} at rank {rank:,} of cycle rank "
                f"{self.cycle_rank:,} after {self.pulled:,} candidates")


def _slice_basis(g, k, n):
    return [cube for cube in singular_cubes(g, n, "nondegenerate")
            if cube_degree(cube) == k]


def _pinned_first(g, n, front):
    """The nondegenerate (n+1)-cubes with front n-face `front`: first those
    whose first back corner 2^n stays on corner 0's vertex, then the rest.
    Two lexicographic walks, disjoint, so each coface comes once; the
    second starts when the first ends, so a front holds one walk at a time
    (the round robin keeps a stream per slice-basis cube)."""
    yield from singular_cubes(g, n + 1, "nondegenerate",
                              prefix=front + front[:1])
    yield from singular_cubes(g, n + 1, "nondegenerate", prefix=front,
                              avoid=[{len(front): front[0]}])


def _image_quotient(ncols, rest, columns, progress):
    """Cycles modulo the image, for an image spanned by streamed columns.

    The cycles are a saturated sublattice Z of Z^ncols containing every
    column of the iterator `columns`, and `rest`, a set of coordinates
    that it consumes, has |rest| = rank Z and the projection of Z onto it
    is injective.  `zlinalg.coreduce` pairs the columns with the rows of
    `rest`.  The paired columns are unit-triangular on their rows, so once
    `rest` is empty they project onto all of Z^(its rows), which holds the
    projection of Z; by injectivity they span Z and the group is 0.  With
    `rest` empty no column is pulled.  If the columns run dry first, every
    pulled one is added exactly once and the group read off the echelon.
    """
    cycle_rank, pulled = len(rest), []
    progress.phase = "pairing"
    if not rest:
        return AbelianGroup.trivial()

    def keyed():
        for col in columns:
            pulled.append(col)
            yield None, col
    for _ in coreduce(keyed(), rest):
        progress.pairs += 1
        if not rest:
            return AbelianGroup.trivial()
    progress.phase = "exact pass"
    img = progress.echelon = Echelon(ncols)
    for col in pulled:
        img.add(col)
    if img.rank > cycle_rank:
        raise ContractViolation("the image outranks the cycle lattice")
    return AbelianGroup.from_invariants(cycle_rank - img.rank,
                                        lattice_torsion(img))


def quotient_homology(g, k, n, threads=1):
    """H of the degree-k slice at dimension n, streaming dimension n+1.

    Builds the slice bases at n-1 and n and the rows R of the slice cubes
    whose boundaries do not raise the exact rank of the ones before them,
    |R| being the cycle rank, then streams the degree-k nondegenerate
    (n+1)-cubes, never materializing the top chain group.  Every such cube
    has exactly one front n-face (corners 0..2^n-1), so the stream splits
    by front face with no dedupe: one coface stream per slice-basis cube
    s, and then the cofaces of the other n-cubes of degree at most k (a
    cube's degree is at least its faces').  The stream of s
    (`_pinned_first`) yields first the cofaces whose first back corner
    stays on s's corner 0, then the others, each part in lexicographic
    order; the tail walks each other front's cofaces once.

    `_image_quotient` sees one column iterator: one degree-k column from
    each coface stream in turn, so the columns spread over the whole slice
    basis early, then the other cofaces.  It pairs columns with rows of R
    by set lookups and settles H = 0 once every row is paired; a stream
    that runs dry first is added exactly, each cube enumerated,
    degree-tested and added once.  Like every computation here it runs in
    the calling process; `threads` is accepted for the callers that pass
    it and ignored.

    A budget stop re-raises BudgetExhausted with the phase, the rank
    reached against the cycle rank and the candidates pulled.
    """
    if n < 0 or k < 0:
        raise ValueError("degree and slice index must be non-negative")
    progress = _Progress()
    try:
        below = _slice_basis(g, k, n - 1) if n >= 1 else []
        below_index = {cube: i for i, cube in enumerate(below)}
        here = _slice_basis(g, k, n)
        here_index = {cube: i for i, cube in enumerate(here)}
        out_rank, rest = Echelon(len(below)), set(range(len(here)))
        for i, faces in enumerate(face_positions(here, n, below_index)):
            rank = out_rank.rank  # no faces at n = 0: every cube stays
            out_rank.add(merge(zip(faces, face_signs(n))))
            if out_rank.rank > rank:
                rest.remove(i)
        progress.cycle_rank = len(rest)

        # one cube at a time, a list costs less than face_positions' maps
        getters, signs = face_getters(n + 1), face_signs(n + 1)

        def counting(cubes):
            for cube in cubes:
                progress.pulled += 1
                if cube_degree(cube) == k:
                    yield merge(zip([here_index.get(get(cube), -1)
                                     for get in getters], signs))

        def columns():
            # a stream that runs dry leaves the turn
            turn = deque(counting(_pinned_first(g, n, front))
                         for front in here)
            while turn:
                stream = turn.popleft()
                col = next(stream, None)
                if col is not None:
                    yield col
                    turn.append(stream)
            yield from counting(
                cube for front in singular_cubes(g, n, "all")
                if front not in here_index and cube_degree(front) <= k
                for cube in singular_cubes(g, n + 1, "nondegenerate",
                                           prefix=front))

        return _image_quotient(len(here), rest, columns(), progress)
    except BudgetExhausted as e:
        raise BudgetExhausted(f"slice homology stopped {progress}") from e
