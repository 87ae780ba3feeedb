"""Finite simple graphs: representation, generators, predicates, edge-list I/O.

Vertices are dense 0-based integers.  Graphs are immutable after
construction, so one graph may feed any number of computations.
"""

from .zlinalg import AbelianGroup


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency."""

    __slots__ = ("n", "nbrs", "closed")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.nbrs = tuple(tuple(sorted(s)) for s in adj)
        # closed neighborhoods as frozensets, the hot lookup in enumeration
        self.closed = tuple(frozenset(s | {v}) for v, s in enumerate(adj))

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.nbrs[u] if u < v]

    @property
    def edge_count(self):
        return sum(len(s) for s in self.nbrs) // 2

    def degree(self, v):
        return len(self.nbrs[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n \
            and self.nbrs == other.nbrs

    def __hash__(self):
        return hash((self.n, self.nbrs))

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.edge_count} edges)"


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------
# An optional "# vertices N" on the first non-blank line (nowhere else) pins
# the vertex count; other lines are "u v" pairs (whitespace separated), '#'
# starts a comment line.  Vertex ids must be non-negative; names are rejected.

def parse_edge_list(text):
    vertex_count = None
    first = None  # the first non-blank line, the only place for a header
    edges = []
    max_seen = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = first or line_no
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("vertices"):
                if line_no != first:
                    raise EdgeListError(
                        line_no, "header not on the first non-blank line")
                parts = body.split()
                if len(parts) != 2:
                    raise EdgeListError(line_no, "expected '# vertices N'")
                try:
                    vertex_count = int(parts[1])
                except ValueError:
                    raise EdgeListError(line_no, f"bad vertex count {parts[1]!r}")
                if vertex_count < 0:
                    raise EdgeListError(line_no, "negative vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise EdgeListError(line_no, "vertex ids must be non-negative")
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if vertex_count is not None and max(u, v) >= vertex_count:
            raise EdgeListError(line_no, f"edge mentions vertex {max(u, v)} "
                                f"but header pins vertex count to {vertex_count}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    return Graph(max_seen + 1 if vertex_count is None else vertex_count, edges)


def format_edge_list(g):
    lines = [f"# vertices {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def cycle_graph(n):
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError("a simple cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube_graph(n):
    """Discrete n-cube: vertices are bitmasks, edges flip one bit."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    edges = [(b, b | (1 << i))
             for b in range(1 << n) for i in range(n) if not b & (1 << i)]
    return Graph(1 << n, edges)


def complete_bipartite_graph(m, n):
    """K_{m,n}: part one is 0..m-1, part two is m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError("both parts must be nonempty")
    return Graph(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def greene_sphere(n):
    """2n-cycle on 0..2n-1 plus an apex adjacent to all odd vertices and a
    second apex adjacent to all even vertices.  Requires n >= 3."""
    if n < 3:
        raise ValueError("greene-sphere requires n >= 3")
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    u, v = 2 * n, 2 * n + 1
    edges += [(i, u) for i in range(1, 2 * n, 2)]
    edges += [(i, v) for i in range(0, 2 * n, 2)]
    return Graph(2 * n + 2, edges)


FAMILIES = {
    "cycle": (cycle_graph, 1),
    "hypercube": (hypercube_graph, 1),
    "complete-bipartite": (complete_bipartite_graph, 2),
    "greene-sphere": (greene_sphere, 1),
}


def generate(family, params):
    """Build a graph from a family tag and integer parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {sorted(FAMILIES)}")
    func, arity = FAMILIES[family]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), "
                         f"got {len(params)}")
    return func(*params)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_triangle_free(g):
    # a triangle's two smallest vertices form an edge; the third is larger
    for u in range(g.n):
        for v in g.nbrs[u]:
            if v <= u:
                continue
            if any(w in g.closed[v] for w in g.nbrs[u] if w > v):
                return False
    return True


def is_square_free(g):
    """True iff no 4-cycle exists as a subgraph: equivalently no two
    distinct vertices share two common neighbors."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = 0
            for w in g.nbrs[u]:
                if w != v and w != u and w in g.closed[v]:
                    common += 1
                    if common >= 2:
                        return False
    return True


def connected_components(g):
    """Vertex lists of components, each sorted, ordered by smallest vertex."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def circuit_rank(g):
    return g.edge_count - g.n + len(connected_components(g))


def graph_space_homology(g, max_dim=2):
    """Singular homology of the topological realization of the graph:
    Z^c in degree 0, Z^(E - V + c) in degree 1, zero above."""
    c = len(connected_components(g))
    out = [AbelianGroup.free(c), AbelianGroup.free(circuit_rank(g))]
    out += [AbelianGroup.trivial() for _ in range(max_dim - 1)]
    return out[:max_dim + 1]
