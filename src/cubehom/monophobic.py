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

Local lemma, quasi mode: a rigid n-cube Q passes if no vertex outside
Q neighbours two corners of Q, and `check_cube` skips its walk for n up
to LOCAL_MAX_DIM.  Proof, by reduction to the prism Q_{n+1} = Q_n x K_2
with front face Q_n and p_b the back copy of corner b: send q(b) to b,
and a candidate's back corner x_b to d if x_b = q(d) (d is b or a cube
neighbour of b, by rigidity) and to p_b if x_b is outside Q, where it
neighbours q(b) alone.  The map is injective on the candidate's
vertices, keeps its edges (an outside x_b next to some x_c = q(d)
forces d = b), and sends the faces that hit exactly Q's vertices to the
faces that hit exactly Q_n's.  So a noninjective witness for Q gives
one for the front face of Q_{n+1}, which passes for n <= LOCAL_MAX_DIM
by its walk (a test checks it).  In monophobic mode the prism's back
face is an injective witness, so the lemma is quasi only.  Failing cubes
are walked, so each emitted witness is still the first in walk order.
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

# the largest n for which a test walks the prism's front face (local lemma)
LOCAL_MAX_DIM = 4


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
    """True iff the vertex set of q induces exactly q's edges in g: each
    corner has its n cube neighbours in q, so q is induced iff no corner
    has more."""
    verts = set(q.vertices)
    return all(len(g.closed[v] & verts) == q.dim + 1 for v in verts)


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
    """True if no vertex outside the rigid cube `rep` neighbours two of
    its corners, so that it passes in quasi mode (local lemma)."""
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
    if quasi and q.dim <= LOCAL_MAX_DIM and _passes_locally(g, rep):
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
