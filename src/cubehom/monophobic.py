"""Rigidity and (quasi)monophobicity of cubes in a graph.

A cube subgraph is rigid when it is induced.  A rigid n-cube Q fails
monophobicity when some singular (n+1)-cube has exactly one face whose
image is Q; in the quasimonophobic variant only noninjective witnesses
count.  A graph is n-(quasi)monophobic when every n-cube subgraph is
rigid and passes; graphs with no n-cubes pass vacuously.

Witness search only needs candidates with one face equal to the
canonical parametrization of Q: any witness with some face supported by
Q can be carried onto one of that shape by a cube symmetry, and the
number of supported faces and injectivity are symmetry-invariant.  The
search runs through the shared extender `singular_cubes`, with Q's
parametrization pinned as the front (n+1)-face (corners 0..2^n - 1);
only the witness it returns is reindexed, by the coordinate shift that
makes that face the front 1-face, so emitted witnesses keep that shape.

The front face is Q, so a candidate is a witness iff no other face is
supported.  On rigid Q a face is supported iff it hits exactly Q's
vertices: such a face is injective, and its n * 2^(n-1) distinct edges
lie in the subgraph Q's vertices induce, which is Q.

Fold lemma: let q be Q's parametrization, the front (n+1)-face of a
candidate tau, and beta its back (n+1)-face, the corners 2^n + b of tau
as a function of b.  For i <= n, side face (i, s) of tau is supported iff
beta(b) = q(b ^ 2^(i-1)) for every corner b of q's (i, s)-face: beta
folds q across coordinate i on that face.  Proof: the face's front half
is q's (i, s)-face, so its back half must hit the opposite face's
2^(n-1) vertices exactly; beta(b) lies in the closed neighbourhood of
q(b), and q is induced, so the only closed neighbour of q(b) in the
opposite face is q(b ^ 2^(i-1)).  The 2n folds go to `singular_cubes` as
`avoid` patterns, which prune every candidate with a supported side
face and so only non-witnesses: the stream keeps its order and the first
witness is the same.  The back face needs its own test at each candidate
left, since it can be supported without a fold: in the 4-cube graph
with q = (0, 1, 2, 3), beta = (1, 3, 0, 2) is a quarter turn of q.

Local lemma, quasi mode: a rigid edge or square Q passes if no vertex
outside Q neighbours two corners of Q, and `check_cube` skips its walk.
Write N[v] for closed neighbourhoods and x_b = beta(b); a witness is a
noninjective candidate with no fold and an unsupported back face.
Edge q = (a, b): Q passes iff N[a] & N[b] = {a, b}.  A common neighbour
w gives the witness x = (w, w), whose other faces hit w.  Without one,
x0 = x1 is impossible off the folds x0 = b and x1 = a, so x0 = a or
x1 = b, and then x = q: N[a] & N[b] - {a} = {b}, and likewise.
Square q = (q0, q1, q2, q3), edges q0q1, q0q2, q1q3, q2q3: with (T)
N[a] & N[b] = {a, b} on each edge, Q passes iff (H) N[q0] & N[q3] =
{q1, q2} and N[q1] & N[q2] = {q0, q3}.  An outside w in N[q0] & N[q3]
gives the witness x = (q0, q0, q0, w), one in N[q1] & N[q2] gives
x = (q1, q1, w, q1): every other face hits w or two vertices.  Under (T)
and (H), which say that no outside vertex neighbours two corners, the
folds are (x0, x2) = (q1, q3), (x1, x3) = (q0, q2), (x0, x1) = (q2, q3)
and (x2, x3) = (q0, q1).  A repeat x_b = x_c outside Q would break (T)
or (H), so a noninjective candidate has some x_b in Q, and a symmetry
of the square (it keeps candidates, folds and supported faces) makes
x0 in {q0, q1, q2}.  x0 = q0 puts x1 in {q0, q1}, x2 in {q0, q2}:
x1 = q0 leaves x3 in {q1, q2}, q2 a fold and q1 forcing the fold
x2 = q0; (x1, x2) = (q1, q0) leaves the fold x3 = q1; (q1, q2) leaves
x = q.  x0 = q1 puts x2 in {q0, q3}, q3 a fold; x2 = q0 leaves x3 in
{q1, q2}, q1 a fold; x3 = q2 puts x1 in {q0, q3}, q0 a fold and q3 the
quarter turn (q1, q3, q0, q2).  x0 = q2 is x0 = q1 with q1, q2 swapped.
q and the quarter turn support the back face: no witness.  The walk
decides failing cubes, whose witness stays the first in walk order, and
squares with a triangle on an edge, which can pass or fail.
"""

from .budget import checkpoint
from .cubes import (
    cube_dim,
    cube_subgraphs,
    face_getters,
    image_subgraph,
    is_injective,
    singular_cubes,
    validate_cube,
)


class CubeCheck:
    """Verdict for one cube subgraph."""

    __slots__ = ("cube", "rigid", "passes", "witness")

    def __init__(self, cube, rigid, passes, witness):
        self.cube = cube
        self.rigid = rigid
        self.passes = passes
        self.witness = witness


class MonoReport:
    __slots__ = ("graph", "n", "mode", "checks", "overall")

    def __init__(self, graph, n, mode, checks):
        self.graph = graph
        self.n = n
        self.mode = mode
        self.checks = checks
        self.overall = all(c.rigid and c.passes for c in checks)


def is_rigid(g, q):
    """True iff the vertex set of q induces exactly q's edges in g."""
    verts = q.vertices
    edges = set(q.edges)
    for a in range(len(verts)):
        u = verts[a]
        for b in range(a + 1, len(verts)):
            v = verts[b]
            if (g.adjacent(u, v)) != ((u, v) in edges):
                return False
    return True


def supported_face_count(tau, q):
    """Number of faces of tau whose image subgraph equals q exactly.

    A face can only be supported by q when it hits exactly q's vertices,
    so the vertex set is compared first and the edge set is built only
    for the faces that pass.
    """
    n1 = cube_dim(tau)
    if n1 != q.dim + 1:
        raise ValueError(
            f"witness dimension {n1} does not match cube dimension {q.dim}")
    verts = set(q.vertices)
    target = (q.vertices, q.edges)
    count = 0
    for get in face_getters(n1):
        f = get(tau)
        if set(f) == verts and image_subgraph(f) == target:
            count += 1
    return count


def _is_quasi(mode):
    if mode not in ("monophobic", "quasimonophobic"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "quasimonophobic"


def _passes_locally(g, rep):
    """True if no vertex outside the rigid edge or square `rep` neighbours
    two of its corners, so that it passes in quasi mode (local lemma)."""
    checkpoint()
    outside = [g.closed[v].difference(rep) for v in rep]
    return sum(map(len, outside)) == len(set().union(*outside))


def check_cube(g, q, mode="quasimonophobic"):
    """(passes, witness) for one cube subgraph.

    A witness is a singular (n+1)-cube with exactly one face supported by
    q (noninjective in quasi mode); its existence means q fails.  Non-rigid
    cubes fail outright with no witness.
    """
    quasi = _is_quasi(mode)
    if not is_rigid(g, q):
        return False, None
    rep = q.rep
    if quasi and q.dim in (1, 2) and _passes_locally(g, rep):
        return True, None
    size = len(rep)
    verts = set(rep)
    # the folds: back corners that make side face (i, s) supported
    folds = [{size + b: rep[b ^ bit] for b in range(size) if b & bit == side}
             for bit in (1 << i for i in range(q.dim)) for side in (0, bit)]
    for tau in singular_cubes(g, q.dim + 1, prefix=rep, avoid=folds):
        if set(tau[size:]) != verts and not (quasi and is_injective(tau)):
            return False, tuple(tau[(t & 1) * size + (t >> 1)]
                                for t in range(2 * size))
    return True, None


def iter_checks(g, n, mode="quasimonophobic", subgraphs=None):
    """The verdicts of the n-cube subgraphs, one `CubeCheck` at a time;
    `subgraphs` is their list when the caller has walked it already."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    _is_quasi(mode)  # also when there is no cube to hand it to check_cube
    for q in cube_subgraphs(g, n) if subgraphs is None else subgraphs:
        # a rigid cube passes or has a witness; a non-rigid one neither
        passes, witness = check_cube(g, q, mode)
        yield CubeCheck(q, passes or witness is not None, passes, witness)


def check_graph(g, n, mode="quasimonophobic", subgraphs=None):
    """Check every n-cube subgraph (`subgraphs`, when the caller has
    walked them); vacuously true when there are none."""
    return MonoReport(g, n, mode, list(iter_checks(g, n, mode, subgraphs)))


def is_quasimonophobic(g, n):
    return check_graph(g, n, "quasimonophobic").overall


def is_monophobic(g, n):
    return check_graph(g, n, "monophobic").overall


def validate_witness(g, q, tau, mode):
    """Re-validate an emitted witness independently of the search."""
    validate_cube(g, tau)
    if _is_quasi(mode) and is_injective(tau):
        return False
    return supported_face_count(tau, q) == 1
