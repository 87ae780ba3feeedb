"""Singular cubes in a graph and their combinatorics.

A singular n-cube sigma: I^n -> G is stored as a tuple of 2^n vertex ids;
the entry at index b is the image of the cube corner whose bitmask is b
(bit i-1 of b holds coordinate t_i).  Working on bare tuples keeps the
enumeration loops tight; `validate_cube` checks the graph-map condition
when structure matters.

Coordinates are 1-based in the public face operations, matching the usual
f_i^-/f_i^+ notation.

Faces and subcubes are read through per-dimension tables built once per
n: `face_getters(n)` and `subcube_getters(n)` hold one corner-index getter
per face and per subcube of an n-cube, which `face`, `iter_faces`,
`cube_degree`, the enumeration filters (bound once per enumeration) and
the boundary and witness loops index instead of redoing bit arithmetic.

Every enumeration is one `singular_cubes` stream in the calling process:
`chains.normalized_complex` lists it to store a basis, and the cube
subgraphs, the slice streams and the witness search consume it as it goes.
"""

from functools import lru_cache
from itertools import combinations, count, islice
from operator import itemgetter

from .budget import checkpoint

MINUS, PLUS = 0, 1


def cube_dim(corners):
    n = (len(corners) - 1).bit_length()
    if len(corners) != 1 << n:
        raise ValueError("corner sequence length must be a power of two")
    return n


def validate_cube(g, corners):
    """Raise unless every cube edge maps to an edge or a vertex of g."""
    n = cube_dim(corners)
    for b, v in enumerate(corners):
        if not 0 <= v < g.n:
            raise ValueError(f"corner {b} maps to unknown vertex {v}")
        for i in range(n):
            w = corners[b ^ (1 << i)]
            if w != v and w not in g.closed[v]:
                raise ValueError(
                    f"corners {b} and {b ^ (1 << i)} map to non-adjacent "
                    f"vertices {v}, {w}")


def is_graph_map(g, corners):
    try:
        validate_cube(g, corners)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def face_getters(n):
    """One getter per face of an n-cube, in (i, side) order 1-, 1+, 2-, ...

    Slot 2(i-1) + side maps a corner tuple to that face's corner tuple.
    """
    getters = []
    for i in range(1, n + 1):
        low = (1 << (i - 1)) - 1
        for side in (MINUS, PLUS):
            bit = side << (i - 1)
            idx = [(c & low) | bit | ((c >> (i - 1)) << i)
                   for c in range(1 << (n - 1))]
            if len(idx) == 1:
                # a bare itemgetter would return the corner, not a 1-tuple
                getters.append(lambda corners, k=idx[0]: (corners[k],))
            else:
                getters.append(itemgetter(*idx))
    return tuple(getters)


def face(corners, i, side):
    """Front (side=MINUS) or back (side=PLUS) i-face, 1 <= i <= n."""
    n = cube_dim(corners)
    if not 1 <= i <= n:
        raise ValueError(f"face index {i} out of range 1..{n}")
    if side not in (MINUS, PLUS):
        raise ValueError(f"face side {side!r} is neither MINUS nor PLUS")
    return face_getters(n)[2 * (i - 1) + side](corners)


def iter_faces(corners):
    """All 2n faces as (i, side, face_corners)."""
    for t, get in enumerate(face_getters(cube_dim(corners))):
        yield (t >> 1) + 1, t & 1, get(corners)


def is_degenerate(corners):
    """True iff the front and back i-faces coincide for some i."""
    return corners[-1] in _degenerate_ban(cube_dim(corners))(corners)


def is_injective(corners):
    return len(set(corners)) == len(corners)


@lru_cache(maxsize=None)
def subcube_getters(n):
    """(k, getters) for k = n down to 1: one getter per k-subcube of an
    n-cube, mapping a corner tuple to the subcube's 2^k corners.  A
    k-subcube frees k coordinates and fixes each other one to 0 or 1, so
    there are C(n, k) * 2^(n-k)."""
    levels = []
    for k in range(n, 0, -1):
        getters = []
        for free in combinations(range(n), k):
            mask = sum(1 << i for i in free)
            span = [s for s in range(1 << n) if s & mask == s]
            getters.extend(itemgetter(*[base | s for s in span])
                           for base in range(1 << n) if not base & mask)
        levels.append((k, tuple(getters)))
    return tuple(levels)


_degree_tables = {}  # corner count -> (n, levels worth trying per count)


def _degree_table(n):
    """(n, per distinct-corner count d, the (k, 2^k, getters) of the
    subcube levels with 2 <= k and 2^k <= d, largest k first)."""
    levels = [(k, 1 << k, getters) for k, getters in subcube_getters(n)]
    return n, tuple(tuple(levels[n + 1 - d.bit_length():-1])
                    for d in range(1 << n))


def cube_degree(corners):
    """Largest dimension of an injective iterated face.

    The cube counts as its own top-dimensional face, and 0-faces are
    single corners, so the result is between 0 and n.  An iterated face
    is a restriction to a subcube: a set of free coordinates plus a 0/1
    assignment of the fixed ones.

    A k-subcube with distinct corners needs 2^k distinct corners in the
    cube, so only the levels with 2^k at most the cube's count are tried,
    read from a table kept per corner count.  Two distinct corners are
    joined by a path of cube edges, one of which joins distinct corners,
    so such a cube has degree at least 1.
    """
    size = len(corners)
    try:
        n, levels = _degree_tables[size]
    except KeyError:
        n, levels = _degree_tables[size] = _degree_table(cube_dim(corners))
    distinct = len(set(corners))
    if distinct == size:
        return n
    for k, need, getters in levels[distinct]:
        for get in getters:
            if len(set(get(corners))) == need:
                return k
    return 0 if distinct == 1 else 1


def canonical_parametrization(corners):
    """(sign, sigma o g) for an injective cube sigma: sigma o g is the
    canonical parametrization of sigma's image, with corner 0 the least
    vertex and corners 1, 2, 4, ... increasing, and sign is the
    determinant of the signed permutation g of I^n.  It is the least
    parametrization, as the signed permutations act simply transitively
    on parametrizations.  g reflects the coordinates set in the least
    corner `base` and reorders the coordinates by the sort order of base's
    neighbours, so det g = (-1)^(inversions of that order + popcount(base)).
    """
    n = cube_dim(corners)
    base = corners.index(min(corners))
    order = sorted(range(n), key=lambda j: corners[base ^ (1 << j)])
    idx = [base]  # sigma's corner index of each canonical corner
    for j in order:
        idx += [b ^ (1 << j) for b in idx]
    odd = sum(a > b for a, b in combinations(order, 2)) + base.bit_count()
    return -1 if odd & 1 else 1, tuple(corners[b] for b in idx)


# ---------------------------------------------------------------------------
# enumeration of singular cubes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _degenerate_ban(n):
    """The vertices that the last corner 2^n - 1 must avoid for an n-cube
    to be nondegenerate, as a function of its corners.  Coordinate i's
    faces coincide iff corners b and b + 2^(i-1) agree for every b without
    bit i-1; when every such pair but the last corner's agrees, the last
    corner must differ from its partner 2^n - 1 - 2^(i-1).  The pairs are
    compared in turn, up to the first that differs."""
    last = (1 << n) - 1
    tests = tuple((tuple((b, b | bit) for b in range(last)
                         if not b & bit and b != last ^ bit), last ^ bit)
                  for bit in (1 << i for i in range(n)))

    def ban(corners):
        out = set()
        for pairs, j in tests:
            for a, b in pairs:
                if corners[a] != corners[b]:
                    break
            else:
                out.add(corners[j])
        return out
    return ban


def _avoid_table(avoid, size):
    """Per corner c, one (get, want, v) per pattern whose largest corner
    is c: the walk drops v there when get(corners) == want, that is when
    the pattern's earlier corners all match."""
    table = [[] for _ in range(size)]
    for pattern in avoid:
        if not pattern or not all(0 <= c < size for c in pattern):
            raise ValueError(f"avoid pattern {pattern!r} must name corners "
                             f"in 0..{size - 1}")
        *earlier, last = sorted(pattern)
        get = itemgetter(*earlier) if earlier else (lambda corners: ())
        table[last].append((get, get(pattern), pattern[last]))
    return table


@lru_cache(maxsize=None)
def _lower_neighbors(n):
    """Per corner b > 0 of an n-cube, (first, rest): its cube neighbors
    below it, the corners already assigned when the walk reaches b."""
    out = [None]
    for b in range(1, 1 << n):
        first, *rest = [b ^ (1 << j) for j in range(n) if b & (1 << j)]
        out.append((first, tuple(rest)))
    return tuple(out)


def singular_cubes(g, n, filt="all", prefix=None, avoid=()):
    """Yield cubes I^n -> g passing the filter, in lexicographic corner
    order.

    Depth-first assignment of corners in bitmask order; a corner's
    candidates are the intersection of the closed neighborhoods of its
    already-assigned cube neighbors.  A `prefix` pins corners
    0..len(prefix)-1 to the given vertices, which must themselves satisfy
    the graph-map condition, and yields only the cubes extending it:
    `prefix=(v,)` is the slice rooted at corner-0 image v, so the slices
    concatenated over all graph vertices reproduce the stream, and the
    corners of an n-cube as prefix give the (n+1)-cubes having it as
    front n-face (the cofaces of the witness search).

    `avoid` is a list of partial cubes, each a nonempty {corner: vertex}
    mapping, and the stream skips every cube that extends one of them:
    once a pattern's earlier corners all match, its vertex leaves the
    candidates of its largest corner, which prunes the whole subtree.  The
    rest of the stream is unchanged and in the same order.
    The filters are bans too: "injective" drops the used vertices from
    every candidate set, "nondegenerate" drops from the last corner's the
    vertices that would make two opposite faces equal (`_degenerate_ban`).
    The last corner takes no stack frame: its candidates are yielded in
    sorted order.  The clock (`checkpoint`) is read on the walk's first
    node and then on every 64th, so a stop lands within 64 nodes.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    size = 1 << n
    if prefix is not None and not 1 <= len(prefix) <= size:
        raise ValueError(f"a prefix of {n}-cubes has 1..{size} corners, "
                         f"not {len(prefix)}")
    inject = filt == "injective"
    nondeg = _degenerate_ban(n) if filt == "nondegenerate" else None
    if not (inject or nondeg or filt == "all"):
        raise ValueError(f"unknown filter {filt!r}")
    ban = _avoid_table(avoid, size) if avoid else None
    closed = g.closed
    lower = _lower_neighbors(n)
    last = size - 1
    corners = [0] * size
    # stack of candidate iterators, one per corner position below the last
    stack = [None] * last
    tick = 0
    for root in ([(v,) for v in range(g.n)] if prefix is None else (prefix,)):
        # pin all but the last prefix corner; the walk starts by placing
        # the last one, its only candidate
        k = len(root) - 1
        if inject:
            used = set(root[:k])
            if len(used) < k or root[k] in used:
                continue
        if ban and any(root[c] == w and get(root) == want
                       for c in range(k + 1) for get, want, w in ban[c]):
            continue
        if k == last:
            if not (nondeg and root[k] in nondeg(root)):
                yield tuple(root)
            continue
        corners[:k] = root[:k]
        b = k
        stack[k] = iter((root[k],))
        while b >= k:
            if not tick & 63:
                checkpoint()
            tick += 1
            for v in stack[b]:
                corners[b] = v
                first, rest = lower[b + 1]
                cand = closed[corners[first]]
                for cidx in rest:
                    cand = cand & closed[corners[cidx]]
                    if not cand:
                        break
                if ban:
                    for get, want, w in ban[b + 1]:
                        if w in cand and get(corners) == want:
                            cand = cand - {w}
                if nondeg and b + 1 == last and cand:
                    cand = cand - nondeg(corners)
                if inject and cand:
                    used.add(v)
                    cand = cand - used
                    if not cand:
                        used.discard(v)
                if not cand:
                    continue
                if b + 1 == last:
                    for w in sorted(cand):
                        corners[last] = w
                        yield tuple(corners)
                    if inject:
                        used.discard(v)
                    continue
                b += 1
                stack[b] = iter(sorted(cand))
                break
            else:
                b -= 1
                if inject and b >= k:
                    used.discard(corners[b])


# ---------------------------------------------------------------------------
# cube subgraphs
# ---------------------------------------------------------------------------

class CubeSubgraph:
    """A subgraph of g isomorphic to I^n, identified by its canonical
    parametrization `rep` (see `canonical_parametrization`), the
    lexicographically smallest of the 2^n * n! injective cubes whose image
    is this subgraph; `vertices` and `edges` are that image.
    """

    __slots__ = ("dim", "vertices", "edges", "rep")

    def __init__(self, dim, vertices, edges, rep):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.rep = tuple(rep)

    def __eq__(self, other):
        return isinstance(other, CubeSubgraph) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"CubeSubgraph(dim={self.dim}, vertices={self.vertices})"


def image_subgraph(corners):
    """Vertex set and edge set of the image of a singular cube: the
    vertices hit, plus the non-collapsed images of cube edges."""
    n = cube_dim(corners)
    vertices = tuple(sorted(set(corners)))
    edges = set()
    for b, v in enumerate(corners):
        for i in range(n):
            if not b & (1 << i):
                w = corners[b | (1 << i)]
                if v != w:
                    edges.add((v, w) if v < w else (w, v))
    return vertices, tuple(sorted(edges))


def cube_subgraphs(g, n):
    """All n-cube subgraphs, ordered by canonical parametrization: level n
    of `subgraph_levels`."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return next(islice(subgraph_levels(g), n, None))


def subgraph_levels(g):
    """Yield the lists of n-cube subgraphs for n = 0, 1, ..., in order:
    a canonical parametrization has a canonical front face along its last
    coordinate, so level n is the injective extensions c of level n-1's
    reps with every new corner above c[0] and c[2^(n-1)] > c[2^(n-2)].
    Each rep is walked from those first back corners v = c[2^(n-1)] only,
    one `prefix=rep + (v,)` walk per v in increasing order, so its
    extensions come out in order."""
    cells = [CubeSubgraph(0, (v,), (), (v,)) for v in range(g.n)]
    for n in count(1):
        yield cells
        half = 1 << (n - 1)
        cells = [CubeSubgraph(n, *image_subgraph(c), c)
                 for q in cells
                 for v in sorted(g.closed[q.rep[0]])
                 if v > q.rep[half >> 1] and v > q.rep[0] and v not in q.rep
                 for c in singular_cubes(g, n, "injective",
                                         prefix=q.rep + (v,))
                 if min(c[half:]) > c[0]]


def cubical_dimension(g):
    """Largest n for which an n-cube subgraph (equivalently, an injective
    singular n-cube) exists."""
    if g.n == 0:
        raise ValueError("the empty graph contains no cubes")
    n = 0
    while next(singular_cubes(g, n + 1, "injective"), None) is not None:
        n += 1
    return n
