"""Rigidity and (quasi)monophobicity of cubes in a graph.

A cube subgraph is rigid when it is induced.  A rigid n-cube Q fails
monophobicity when some singular (n+1)-cube has exactly one face whose
image is Q; in the quasimonophobic variant only noninjective witnesses
count.  A graph is n-(quasi)monophobic when every n-cube subgraph is
rigid and passes; graphs with no n-cubes pass vacuously.

Witness search only needs candidates whose front 1-face is the canonical
parametrization of Q: any witness with some face supported by Q can be
carried onto one of that shape by a cube symmetry, and the number of
supported faces is symmetry-invariant.
"""

from .budget import checkpoint
from .cubes import (
    cube_dim,
    cube_subgraphs,
    face_getters,
    image_subgraph,
    is_injective,
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


def _candidate_witnesses(g, rep, mode):
    """All singular (n+1)-cubes whose front 1-face is `rep`, in
    lexicographic top-face order; quasi mode skips injective ones.

    Top corners are chosen from the closed neighborhood of the bottom
    corner below them, pruned by adjacency inside the top face.
    """
    n = (len(rep) - 1).bit_length()
    size = 1 << n
    closed = g.closed
    tau = [0] * (2 * size)
    for c in range(size):
        tau[2 * c] = rep[c]
    # top-face neighbors with smaller index, for pruning
    lower = [[c ^ (1 << j) for j in range(n) if c & (1 << j)]
             for c in range(size)]

    def rec(c):
        checkpoint()
        if c == size:
            t = tuple(tau)
            if mode == "quasimonophobic" and is_injective(t):
                return
            yield t
            return
        cand = closed[tau[2 * c]]
        for c2 in lower[c]:
            cand = cand & closed[tau[2 * c2 + 1]]
            if not cand:
                return
        for v in sorted(cand):
            tau[2 * c + 1] = v
            yield from rec(c + 1)

    yield from rec(0)


def check_cube(g, q, mode="quasimonophobic"):
    """(passes, witness) for one rigid cube subgraph.

    A witness is a singular (n+1)-cube with exactly one face supported by
    q (noninjective in quasi mode); its existence means q fails.  Non-rigid
    cubes fail outright with no witness.
    """
    if mode not in ("monophobic", "quasimonophobic"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_rigid(g, q):
        return False, None
    for tau in _candidate_witnesses(g, q.rep, mode):
        if supported_face_count(tau, q) == 1:
            return False, tau
    return True, None


def check_graph(g, n, mode="quasimonophobic"):
    """Check every n-cube subgraph; vacuously true when there are none."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    checks = []
    for q in cube_subgraphs(g, n):
        rigid = is_rigid(g, q)
        if not rigid:
            checks.append(CubeCheck(q, False, False, None))
            continue
        passes, witness = check_cube(g, q, mode)
        checks.append(CubeCheck(q, True, passes, witness))
    return MonoReport(g, n, mode, checks)


def is_quasimonophobic(g, n):
    return check_graph(g, n, "quasimonophobic").overall


def is_monophobic(g, n):
    return check_graph(g, n, "monophobic").overall


def validate_witness(g, q, tau, mode):
    """Re-validate an emitted witness independently of the search."""
    from .cubes import validate_cube

    validate_cube(g, tau)
    if mode == "quasimonophobic" and is_injective(tau):
        return False
    return supported_face_count(tau, q) == 1
