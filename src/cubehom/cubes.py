"""Singular cubes in a graph and their combinatorics.

A singular n-cube sigma: I^n -> G is stored as a tuple of 2^n vertex ids;
the entry at index b is the image of the cube corner whose bitmask is b
(bit i-1 of b holds coordinate t_i).  Working on bare tuples keeps the
enumeration loops tight; `validate_cube` checks the graph-map condition
when structure matters.

Coordinates are 1-based in the public face/automorphism operations,
matching the usual f_i^-/f_i^+ notation.

Faces are read through per-dimension tables: `face_getters(n)` holds one
precomputed corner-index getter per face of an n-cube, built once per n,
and `face`, `iter_faces`, `is_degenerate` and the boundary and witness
loops elsewhere all index it instead of redoing the bit arithmetic.
"""

import os
from functools import lru_cache
from itertools import combinations, permutations
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
    return face_getters(n)[2 * (i - 1) + side](corners)


def iter_faces(corners):
    """All 2n faces as (i, side, face_corners)."""
    for t, get in enumerate(face_getters(cube_dim(corners))):
        yield (t >> 1) + 1, t & 1, get(corners)


def is_degenerate(corners):
    """True iff the front and back i-faces coincide for some i."""
    getters = face_getters(cube_dim(corners))
    return any(getters[t](corners) == getters[t + 1](corners)
               for t in range(0, len(getters), 2))


def is_injective(corners):
    return len(set(corners)) == len(corners)


def _restriction_injective(corners, free_bits, base):
    seen = set()
    idx = 0
    # iterate the subcube through a Gray-code walk over the free bits
    k = len(free_bits)
    v = corners[base]
    if k == 0:
        return True
    seen.add(v)
    gray_prev = 0
    for m in range(1, 1 << k):
        gray = m ^ (m >> 1)
        idx ^= free_bits[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        v = corners[base | idx]
        if v in seen:
            return False
        seen.add(v)
    return True


def cube_degree(corners):
    """Largest dimension of an injective iterated face.

    The cube counts as its own top-dimensional face, and 0-faces are
    single corners, so the result is between 0 and n.  An iterated face
    is a restriction to a subcube: a set of free coordinates plus a 0/1
    assignment of the fixed ones.
    """
    n = cube_dim(corners)
    if len(set(corners)) == len(corners):
        return n
    bits = [1 << i for i in range(n)]
    for k in range(n - 1, 0, -1):
        for free in combinations(range(n), k):
            free_bits = [bits[i] for i in free]
            fixed_bits = [bits[i] for i in range(n) if i not in free]
            for a in range(1 << (n - k)):
                base = 0
                for t, fb in enumerate(fixed_bits):
                    if a & (1 << t):
                        base |= fb
                if _restriction_injective(corners, free_bits, base):
                    return k
    return 0


# ---------------------------------------------------------------------------
# cube automorphisms (signed coordinate permutations)
# ---------------------------------------------------------------------------

class CubeAutomorphism:
    """Element of the n-cube symmetry group: a signed permutation.

    Output coordinate j (0-based) reads source coordinate src[j], flipped
    when flip[j] is set: g(t)_j = t_{src[j]} xor flip[j].
    """

    __slots__ = ("src", "flip")

    def __init__(self, src, flip):
        self.src = tuple(src)
        self.flip = tuple(flip)
        assert sorted(self.src) == list(range(len(self.src)))

    @property
    def n(self):
        return len(self.src)

    @classmethod
    def identity(cls, n):
        return cls(range(n), (0,) * n)

    @classmethod
    def reflection(cls, n, i):
        """T_i: reflect coordinate i (1-based)."""
        return cls(range(n), tuple(int(j == i - 1) for j in range(n)))

    @classmethod
    def swap(cls, n, i, j):
        """T_{i,j}: exchange coordinates i and j (1-based)."""
        src = list(range(n))
        src[i - 1], src[j - 1] = src[j - 1], src[i - 1]
        return cls(src, (0,) * n)

    def corner_map(self):
        """The induced bitmask permutation t -> g(t)."""
        n = self.n
        out = []
        for t in range(1 << n):
            m = 0
            for j in range(n):
                if ((t >> self.src[j]) & 1) ^ self.flip[j]:
                    m |= 1 << j
            out.append(m)
        return out

    def compose(self, other):
        """self o other: first apply other, then self."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        src = [other.src[self.src[j]] for j in range(self.n)]
        flip = [other.flip[self.src[j]] ^ self.flip[j] for j in range(self.n)]
        return CubeAutomorphism(src, flip)

    def inverse(self):
        src = [0] * self.n
        flip = [0] * self.n
        for j, s in enumerate(self.src):
            src[s] = j
            flip[s] = self.flip[j]
        return CubeAutomorphism(src, flip)

    @property
    def sign(self):
        """Determinant of the signed permutation matrix."""
        sgn = 1
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.src[j]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        for f in self.flip:
            if f:
                sgn = -sgn
        return sgn

    def __eq__(self, other):
        return (isinstance(other, CubeAutomorphism)
                and self.src == other.src and self.flip == other.flip)

    def __hash__(self):
        return hash((self.src, self.flip))

    def __repr__(self):
        return f"CubeAutomorphism(src={self.src}, flip={self.flip})"


def all_automorphisms(n):
    """The full symmetry group of I^n: all n! * 2^n signed permutations."""
    out = []
    for perm in permutations(range(n)):
        for mask in range(1 << n):
            flip = tuple((mask >> j) & 1 for j in range(n))
            out.append(CubeAutomorphism(perm, flip))
    return out


def apply_automorphism(corners, aut):
    """The composite sigma o g."""
    n = cube_dim(corners)
    if aut.n != n:
        raise ValueError("dimension mismatch")
    cmap = aut.corner_map()
    return tuple(corners[cmap[t]] for t in range(len(corners)))


def relating_automorphism(sigma, gamma):
    """The unique signed permutation g with gamma = sigma o g, plus its sign.

    Both cubes must be injective, of equal dimension, and parametrize the
    same cube subgraph.
    """
    n = cube_dim(sigma)
    if cube_dim(gamma) != n:
        raise ValueError("dimension mismatch")
    if not is_injective(sigma) or not is_injective(gamma):
        raise ValueError("relating automorphism requires injective cubes")
    pos = {v: b for b, v in enumerate(sigma)}
    try:
        cmap = [pos[v] for v in gamma]
    except KeyError:
        raise ValueError("cubes have different images")
    base = cmap[0]
    flip = tuple((base >> j) & 1 for j in range(n))
    src = [None] * n
    for i in range(n):
        d = cmap[1 << i] ^ base
        if d.bit_count() != 1:
            raise ValueError("cubes have different images")
        src[d.bit_length() - 1] = i
    if sorted(src) != list(range(n)):
        raise ValueError("cubes have different images")
    aut = CubeAutomorphism(src, flip)
    if apply_automorphism(sigma, aut) != tuple(gamma):
        raise ValueError("cubes have different images")
    return aut, aut.sign


# ---------------------------------------------------------------------------
# enumeration of singular cubes
# ---------------------------------------------------------------------------

def _passes(corners, filt):
    if filt == "all":
        return True
    if filt == "nondegenerate":
        return not is_degenerate(corners)
    if filt == "injective":
        return is_injective(corners)
    if isinstance(filt, tuple) and filt[0] == "degree":
        return cube_degree(corners) == filt[1]
    raise ValueError(f"unknown filter {filt!r}")


def singular_cubes(g, n, filt="all", first_corner=None):
    """Yield cubes I^n -> g passing the filter, in lexicographic corner
    order.

    Depth-first assignment of corners in bitmask order; a corner's
    candidates are the intersection of the closed neighborhoods of its
    already-assigned cube neighbors.  Restricting `first_corner` yields
    the slice of the enumeration rooted at that corner-0 image, so the
    slices concatenated over all graph vertices reproduce the stream.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if g.n == 0:
        return
    if n == 0:
        first = range(g.n) if first_corner is None else (first_corner,)
        for v in first:
            corners = (v,)
            if _passes(corners, filt):
                yield corners
        return

    inject = filt == "injective"
    size = 1 << n
    closed = g.closed
    # for each corner, the already-assigned neighbors (indices below it)
    lower = [[b ^ (1 << j) for j in range(n) if b & (1 << j)]
             for b in range(size)]
    corners = [0] * size
    used = set()
    first = range(g.n) if first_corner is None else (first_corner,)
    for v0 in first:
        corners[0] = v0
        used.clear()
        used.add(v0)
        # stack of candidate iterators, one per corner position
        stack = [None] * size
        b = 1
        stack[1] = iter(sorted(closed[v0] - used if inject else closed[v0]))
        while b >= 1:
            checkpoint()
            it = stack[b]
            advanced = False
            for v in it:
                corners[b] = v
                if b + 1 == size:
                    t = tuple(corners)
                    if inject:
                        yield t
                    elif _passes(t, filt):
                        yield t
                    continue
                cons = lower[b + 1]
                cand = closed[corners[cons[0]]]
                for cidx in cons[1:]:
                    cand = cand & closed[corners[cidx]]
                    if not cand:
                        break
                if inject and cand:
                    used.add(v)
                    cand = cand - used
                    if not cand:
                        used.discard(v)
                if cand:
                    b += 1
                    stack[b] = iter(sorted(cand))
                    advanced = True
                    break
            if not advanced:
                b -= 1
                if inject and b >= 1:
                    used.discard(corners[b])


def enumerate_singular_cubes(g, n, filt="all", threads=1):
    """Materialized enumeration, optionally parallel over corner-0 chunks.

    Worker processes each enumerate one corner-0 slice and apply the
    filter before returning, so only surviving cubes cross the pipe.
    Chunk results are concatenated in vertex order: the output is
    identical to the single-threaded stream.
    """
    if threads <= 1 or g.n <= 1 or n == 0:
        return list(singular_cubes(g, n, filt))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=_worker_count(threads, g.n)) as pool:
        chunks = pool.map(_enumerate_chunk,
                          [(g, n, filt, v) for v in range(g.n)])
        out = []
        for chunk in chunks:
            out.extend(chunk)
        return out


def _worker_count(threads, n_vertices):
    """Pool size: at most one worker per corner-0 slice and per CPU."""
    return min(threads, n_vertices, os.cpu_count() or 1)


def _enumerate_chunk(args):
    g, n, filt, v = args
    return list(singular_cubes(g, n, filt, first_corner=v))


# ---------------------------------------------------------------------------
# cube subgraphs
# ---------------------------------------------------------------------------

class CubeSubgraph:
    """A subgraph of g isomorphic to I^n, with a canonical parametrization.

    `rep` is the lexicographically smallest corner sequence among the
    2^n * n! injective cubes whose image is this subgraph.
    """

    __slots__ = ("dim", "vertices", "edges", "rep")

    def __init__(self, dim, vertices, edges, rep):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.rep = tuple(rep)

    def __eq__(self, other):
        return isinstance(other, CubeSubgraph) and self.edges == other.edges \
            and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.vertices, self.edges))

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


def cube_subgraphs(g, n, threads=1):
    """All n-cube subgraphs, ordered by canonical representative.

    Distinct subgraphs means distinct edge sets (distinct vertices for
    n = 0).  The lexicographic enumeration meets each subgraph first at
    its lexicographically minimal parametrization, which becomes the
    canonical representative.
    """
    seen = {}
    order = []
    for corners in enumerate_singular_cubes(g, n, "injective", threads):
        vertices, edges = image_subgraph(corners)
        key = (vertices, edges)
        if key not in seen:
            q = CubeSubgraph(n, vertices, edges, corners)
            seen[key] = q
            order.append(q)
    return order


def cubical_dimension(g, threads=1):
    """Largest n for which an n-cube subgraph (equivalently, an injective
    singular n-cube) exists."""
    if g.n == 0:
        raise ValueError("the empty graph contains no cubes")
    n = 0
    while True:
        found = False
        for _ in singular_cubes(g, n + 1, "injective"):
            found = True
            break
        if not found:
            return n
        n += 1
