"""Trivalent fatgraphs, edge orientations and spin structures.

A fatgraph is a graph with a counter-clockwise cyclic order of half-edges at
every vertex; fattening it gives a punctured surface.  As in the paper, a
spin structure is a class of edge orientations modulo the reflections at
the vertices (each reversing the edges at one vertex), and its mod-2
quadratic form q on cycle vectors is read off the fatgraph's own turns and
arrows.  A flip acts on orientations by the paper's local rule: every arrow
keeps its tail half-edge and one leaf of the quadrilateral reverses.

Conventions.  Half-edges are integers; sigma is the ccw successor at a
vertex, partner the edge involution.  A cycle vector (a mod-2 edge vector
of even degree at every vertex) splits into vertex-disjoint closed walks.
A walk enters a vertex at h_in and leaves it at h_out, which is sigma(h_in)
(a sigma-turn) or sigma^2(h_in), then walks the edge of h_out from h_out to
its partner: along the arrow when h_out is the edge's tail, else against.

The rule.  q(x) = sum over the walks of x of
(1 + #sigma-turns + #edges walked against their arrow), mod 2.

This is the count of Cimasoni and Reshetikhin ("Dimers on surface graphs
and spin structures. I", CMP 2007) on the fattened surface, with its
special Kasteleyn orientation and canonical dimer, reduced to the fatgraph:
hugging the boundary, a walk's corner arcs disagree with the Kasteleyn
orientation and its dimer segments agree, each transit puts two dimers on
its left, and a long side disagrees exactly when its edge is walked against
the arrow.  The tests keep that skinny-surface count as the rule's oracle.

A boundary cycle walks h -> partner(sigma(h)), traversing the edge of
sigma(h) and turning sigma at every vertex, so its q is 1 plus the number
of its edges walked along their arrow: the puncture is Ramond (q = 1)
exactly when that number is even, and Neveu-Schwarz otherwise.
"""

import collections
import itertools
import numbers

import numpy as np


def _partitions(groups, n):
    """Whether the half-edges of groups are 0..n-1, each once; False also
    when they do not sort (a half-edge that is not a number)."""
    try:
        return sorted(h for g in groups for h in g) == list(range(n))
    except TypeError:
        return False


def _partition_fault(groups, n, where, member):
    """Why the half-edges of groups do not partition 0..n-1: the first
    half-edge that is not an integer (named with `member` and its group),
    or else the first held other than once, or else one outside the
    range."""
    for k, g in enumerate(groups):
        for h in g:
            if not isinstance(h, numbers.Integral):
                return "half-edge %r %s %d %r is not an integer" % (h, member, k, g)
    count = collections.Counter(h for g in groups for h in g)
    for h in range(n):
        if count[h] != 1:
            return "half-edge %d appears %d times in the %s, not once" % (h, count[h], where)
    extra = sorted(set(count) - set(range(n)), key=repr)
    return "half-edge %r in the %s is not in 0..%d" % (extra[0], where, n - 1)


class Fatgraph:
    """Immutable trivalent fatgraph: ccw vertex triples plus edge pairing."""

    __slots__ = ("vertices", "edges", "_vertex_of", "_edge_of", "_sigma", "_partner")

    def __init__(self, vertices, edges):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.edges = tuple(tuple(e) for e in edges)
        n = 2 * len(self.edges)
        for i, v in enumerate(self.vertices):
            if len(v) != 3:
                raise ValueError("vertex %d has %d half-edges, not 3" % (i, len(v)))
        if not _partitions(self.vertices, n):
            raise ValueError(_partition_fault(self.vertices, n, "vertex triples", "at vertex"))
        for j, e in enumerate(self.edges):
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError("edge %d is %r, not a pair of two distinct half-edges" % (j, e))
        if not _partitions(self.edges, n):
            raise ValueError(_partition_fault(self.edges, n, "edges", "of edge"))
        self._vertex_of = {}
        self._sigma = {}
        for i, v in enumerate(self.vertices):
            for k, h in enumerate(v):
                self._vertex_of[h] = i
                self._sigma[h] = v[(k + 1) % 3]
        self._edge_of = {}
        self._partner = {}
        for j, (h1, h2) in enumerate(self.edges):
            self._edge_of[h1] = self._edge_of[h2] = j
            self._partner[h1] = h2
            self._partner[h2] = h1

    def _rewired(self, u, tri_u, w, tri_w):
        """The fatgraph with new ccw triples (tuples) at vertices u and w,
        and the same edges.

        The check is local: the two new triples must hold exactly the six
        half-edges the two old ones held, so the half-edge partition stays
        whole.  The edge tables are shared with this graph and never
        written; the vertex and sigma tables are copied and only the six
        half-edges are rewritten."""
        old = self.vertices[u] + self.vertices[w]
        if u == w or len(tri_u) != 3 or len(tri_w) != 3 or sorted(tri_u + tri_w) != sorted(old):
            raise ValueError(
                "new triples %r at vertex %d and %r at vertex %d do not hold the "
                "half-edges %r of the old ones" % (tri_u, u, tri_w, w, old)
            )
        out = Fatgraph.__new__(Fatgraph)
        vertices = list(self.vertices)
        vertices[u], vertices[w] = tri_u, tri_w
        out.vertices = tuple(vertices)
        out.edges, out._edge_of, out._partner = self.edges, self._edge_of, self._partner
        out._vertex_of, out._sigma = dict(self._vertex_of), dict(self._sigma)
        for i, tri in ((u, tri_u), (w, tri_w)):
            for k in range(3):
                out._vertex_of[tri[k]] = i
                out._sigma[tri[k]] = tri[(k + 1) % 3]
        return out

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    def sigma(self, h):
        return self._sigma[h]

    def sigma_inv(self, h):
        return self._sigma[self._sigma[h]]

    def partner(self, h):
        return self._partner[h]

    def vertex_of(self, h):
        return self._vertex_of[h]

    def edge_of(self, h):
        return self._edge_of[h]

    def is_loop(self, e):
        h1, h2 = self.edges[e]
        return self._vertex_of[h1] == self._vertex_of[h2]

    def boundary_orbits(self):
        """Boundary cycles as half-edge orbits of h -> partner(sigma(h))."""
        seen, orbits = set(), []
        for h0 in range(2 * self.num_edges):
            if h0 in seen:
                continue
            orbit, h = [], h0
            while h not in seen:
                seen.add(h)
                orbit.append(h)
                h = self._partner[self._sigma[h]]
            orbits.append(tuple(orbit))
        return orbits

    @property
    def punctures(self):
        return len(self.boundary_orbits())

    @property
    def genus(self):
        chi = self.num_vertices - self.num_edges
        return (2 - self.punctures - chi) // 2

    def incidence_row(self, v):
        """Mod-2 edge vector flipped by the fatgraph reflection at v."""
        row = np.zeros(self.num_edges, dtype=np.uint8)
        for h in self.vertices[v]:
            row[self._edge_of[h]] ^= 1
        return row

    def puncture_vector(self, orbit):
        """Mod-2 edge class of a boundary cycle (odd-traversal edges)."""
        vec = np.zeros(self.num_edges, dtype=np.uint8)
        for h in orbit:
            vec[self._edge_of[h]] ^= 1
        return vec

    def spanning_tree(self):
        """Edge indices of a BFS spanning tree (smallest ids first)."""
        root = 0
        seen_v = {root}
        tree = []
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for h in self.vertices[v]:
                    w = self._vertex_of[self._partner[h]]
                    if w not in seen_v:
                        seen_v.add(w)
                        tree.append(self._edge_of[h])
                        nxt.append(w)
            frontier = nxt
        return sorted(tree)

    def cycle_basis(self):
        """Fundamental-cycle edge vectors, one per non-tree edge."""
        tree = set(self.spanning_tree())
        adj = {v: [] for v in range(self.num_vertices)}
        for j in sorted(tree):
            h1, h2 = self.edges[j]
            adj[self._vertex_of[h1]].append((self._vertex_of[h2], j))
            adj[self._vertex_of[h2]].append((self._vertex_of[h1], j))
        basis = []
        for j in range(self.num_edges):
            if j in tree:
                continue
            vec = np.zeros(self.num_edges, dtype=np.uint8)
            vec[j] = 1
            h1, h2 = self.edges[j]
            a, b = self._vertex_of[h1], self._vertex_of[h2]
            for j2 in self._tree_path(adj, a, b):
                vec[j2] ^= 1
            basis.append(vec)
        return basis

    def _tree_path(self, adj, a, b):
        prev = {a: None}
        frontier = [a]
        while frontier and b not in prev:
            nxt = []
            for v in frontier:
                for w, j in adj[v]:
                    if w not in prev:
                        prev[w] = (v, j)
                        nxt.append(w)
            frontier = nxt
        path = []
        v = b
        while prev[v] is not None:
            v, j = prev[v]
            path.append(j)
        return path


def theta_graph():
    """Two vertices joined by three edges; spine of the once-punctured torus."""
    return Fatgraph([(0, 2, 4), (1, 3, 5)], [(0, 1), (2, 3), (4, 5)])


def dumbbell_graph():
    """Two loops joined by a bar; spine of the thrice-punctured sphere."""
    return Fatgraph([(0, 2, 3), (1, 4, 5)], [(0, 1), (2, 3), (4, 5)])


def four_puncture_spine():
    """Planar chain: loop, bar, double edge, bar, loop; four boundary cycles."""
    return Fatgraph(
        [(0, 2, 3), (1, 4, 6), (5, 7, 8), (9, 10, 11)],
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
    )


def genus_two_spine():
    """Trivalent spine with V=6, E=9 and a single boundary cycle."""
    return Fatgraph(
        [(0, 2, 4), (6, 8, 10), (12, 14, 16), (1, 7, 13), (3, 9, 15), (5, 17, 11)],
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15), (16, 17)],
    )


class Orientation:
    """Edge orientation: the designated tail half-edge per edge."""

    __slots__ = ("graph", "tails")

    def __init__(self, graph, tails):
        self.graph = graph
        tails, edges = tuple(tails), graph.edges
        if len(tails) != len(edges):
            raise ValueError("%d tails given for the %d edges of the graph" % (len(tails), len(edges)))
        for j, t in enumerate(tails):
            if t not in edges[j]:
                raise ValueError("tail %r does not belong to edge %d" % (t, j))
        self.tails = tails

    @classmethod
    def from_bits(cls, graph, bits):
        return cls(graph, tuple(graph.edges[j][b] for j, b in enumerate(bits)))

    @property
    def bits(self):
        return tuple(
            0 if t == self.graph.edges[j][0] else 1 for j, t in enumerate(self.tails)
        )

    def tail(self, e):
        return self.tails[e]

    def head(self, e):
        return self.graph.partner(self.tails[e])

    def flip_edges(self, edge_set):
        tails = list(self.tails)
        for j in edge_set:
            tails[j] = self.graph.partner(tails[j])
        return Orientation(self.graph, tails)

    def reflect(self, v):
        """Reverse every edge incident on v (loops reverse twice)."""
        tails = list(self.tails)
        for h in self.graph.vertices[v]:
            j = self.graph.edge_of(h)
            tails[j] = self.graph.partner(tails[j])
        return Orientation(self.graph, tails)

    def __eq__(self, other):
        return self.graph is other.graph and self.tails == other.tails

    def __hash__(self):
        return hash(self.tails)


def gf2_solve(rows, target):
    """Write target as a sum of rows over GF(2).

    Each row is reduced against the rows kept before it and kept when
    anything is left; its lowest nonzero column is its pivot, and the pivots
    of the kept rows are the leading columns of the whole span.  Returns
    (combo, rest, pivots): combo is a 0/1 vector over the rows, supported on
    the kept ones, and rest, target plus the combo's rows, is zero at every
    pivot.  Target lies in the span exactly when rest is zero.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    rest = np.asarray(target, dtype=np.uint8).copy()
    kept = []
    for i, row in enumerate(rows):
        combo = np.zeros(len(rows), dtype=np.uint8)
        combo[i] = 1
        for b, bc, p in kept:
            if row[p]:
                row = row ^ b
                combo ^= bc
        if row.any():
            kept.append((row, combo, int(np.argmax(row))))
    combo = np.zeros(len(rows), dtype=np.uint8)
    for b, bc, p in kept:
        if rest[p]:
            rest ^= b
            combo ^= bc
    return combo, rest, [p for _, _, p in kept]


def _reflection_rows(graph):
    return [graph.incidence_row(v) for v in range(graph.num_vertices)]


def orientation_class(orientation):
    """Canonical representative of the reflection class: lexicographically
    least bit-vector in the coset of the reflection span, the one vanishing
    at every pivot of the span."""
    graph = orientation.graph
    _, rest, _ = gf2_solve(_reflection_rows(graph), orientation.bits)
    return Orientation.from_bits(graph, tuple(int(x) for x in rest))


def orientation_classes(graph):
    """All reflection classes, as canonical representatives in increasing
    bit order: every bit-vector vanishing at the pivots of the reflection
    span, with any bits on the other E - V + 1 edges."""
    _, _, pivots = gf2_solve(_reflection_rows(graph), np.zeros(graph.num_edges))
    free = [j for j in range(graph.num_edges) if j not in pivots]
    out = []
    for choice in itertools.product((0, 1), repeat=len(free)):
        bits = [0] * graph.num_edges
        for j, b in zip(free, choice):
            bits[j] = b
        out.append(Orientation.from_bits(graph, bits))
    return out


# -- the quadratic form ---------------------------------------------------------


def _cycle_vector(graph, vec):
    """vec as a 0/1 uint8 array over the graph's edges; a ValueError names
    a shape other than (E,) or the first edge whose entry is not 0 or 1."""
    arr = np.asarray(vec)
    if arr.shape != (graph.num_edges,):
        raise ValueError(
            "cycle vector has shape %s, not (%d,) for the fatgraph's edges"
            % (arr.shape, graph.num_edges)
        )
    bad = np.flatnonzero((arr != 0) & (arr != 1))
    if bad.size:
        j = int(bad[0])
        raise ValueError("cycle vector has entry %r at edge %d, not 0 or 1" % (arr[j].item(), j))
    return arr.astype(np.uint8)


def _cycle_components(graph, vec):
    """Split an even-degree edge vector into its vertex-disjoint closed
    walks, each a list of transits (h_in, h_out): the walk enters a vertex
    at h_in and leaves it at h_out, then walks the edge of h_out from h_out
    to its partner."""
    support = set(np.flatnonzero(vec).tolist())
    for v, tri in enumerate(graph.vertices):
        deg = sum(1 for h in tri if graph.edge_of(h) in support)
        if deg not in (0, 2):
            raise ValueError(
                "edge vector is not a mod-2 cycle: vertex %d has degree %d in it, not 0 or 2"
                % (v, deg)
            )
    unused, comps = set(support), []
    while unused:
        start = h = graph.edges[min(unused)][0]
        comp = []
        while True:
            unused.discard(graph.edge_of(h))
            arrive = graph.partner(h)
            h = next(
                k
                for k in graph.vertices[graph.vertex_of(arrive)]
                if k != arrive and graph.edge_of(k) in support
            )
            comp.append((arrive, h))
            if h == start:
                break
        comps.append(comp)
    return comps


class QuadraticForm:
    """Mod-2 quadratic form of an oriented fatgraph on cycle vectors, read
    off the walks' turns and arrows (see the module docstring)."""

    def __init__(self, graph, orientation):
        self.graph = graph
        self.orientation = orientation
        self.basis = graph.cycle_basis()

    def value(self, vec):
        """q(vec): per closed walk, 1 + its sigma-turns + its edges walked
        against their arrow, summed mod 2."""
        g, tails = self.graph, self.orientation.tails
        total = 0
        for walk in _cycle_components(g, _cycle_vector(g, vec)):
            total += 1
            for h_in, h_out in walk:
                total += (h_out == g.sigma(h_in)) + (tails[g.edge_of(h_out)] != h_out)
        return total % 2

    def basis_values(self):
        return tuple(self.value(b) for b in self.basis)


def spin_class(graph, orientation):
    """Spin-structure identifier: q on the fundamental-cycle basis."""
    return QuadraticForm(graph, orientation).basis_values()


def puncture_types(graph, orientation):
    """NS/R label per boundary cycle: q of the puncture class, 0 = NS."""
    q = QuadraticForm(graph, orientation)
    out = []
    for orbit in graph.boundary_orbits():
        out.append("R" if q.value(graph.puncture_vector(orbit)) else "NS")
    return out


# -- the flip and its orientation rule ----------------------------------------


class FlipResult:
    """Flipped fatgraph with evolved orientation and a homology transport."""

    __slots__ = ("graph", "orientation", "edge", "_locals")

    def __init__(self, graph, orientation, edge, locals_):
        self.graph = graph
        self.orientation = orientation
        self.edge = edge
        self._locals = locals_

    def transport(self, vec):
        """Push a pre-flip cycle vector across the flip."""
        return _transport_vec(self.graph, self._locals, self.edge, vec)


def _transport_vec(graph, locals_, e, vec):
    """Rewrite a cycle vector for the flipped graph (shared edge indices).

    A strand crossing the old edge keeps crossing the new one exactly when
    its ends sit northwest-southeast or southwest-northeast; a strand
    turning a corner at either old endpoint picks up the new edge.
    """
    h_eu, h_nw, h_sw, h_ew, h_se, h_ne = locals_
    vec = _cycle_vector(graph, vec)
    nw, sw = graph.edge_of(h_nw), graph.edge_of(h_sw)
    se, ne = graph.edge_of(h_se), graph.edge_of(h_ne)
    new_bit = 0
    if vec[e]:
        if nw == sw or se == ne:
            # a loop leaf fills both corners, leaving no room for the edge
            raise AssertionError("cycle cannot cross edge %d beside a loop leaf" % e)
        new_bit = 1 if bool(vec[nw]) == bool(vec[se]) else 0
    else:
        if _corner_passage(vec, nw, sw):
            new_bit ^= 1
        if _corner_passage(vec, se, ne):
            new_bit ^= 1
    vec[e] = new_bit
    return vec


def _corner_passage(vec, leaf1, leaf2):
    if leaf1 == leaf2:
        # loop leaf: using the loop means threading both corners
        return bool(vec[leaf1])
    return bool(vec[leaf1]) and bool(vec[leaf2])


def flip(graph, e, orientation):
    """Flip a non-loop edge and evolve the orientation with the spin class.

    The paper's local rule: on the flipped graph every arrow keeps its tail
    half-edge, the new diagonal keeping the tail half of the old edge, and
    one arrow reverses, that of leaf c, the edge of sigma^2(tail of e) on
    the old graph (the leaf labelled c in the quadrilateral of
    `decorated._quad_labels`).  The new quadratic form then agrees with the
    old one on every cycle pushed across by `FlipResult.transport`.  The
    orientation is returned as the rule gives it, not as the canonical
    representative of its class, so a flip costs O(E).

    The flipped graph is the old one with its two end vertices rewired: the
    edges, and every other vertex, are unchanged, so the whole graph is not
    checked again; only the six half-edges of the two vertices are.
    """
    num_edges = graph.num_edges
    if not 0 <= e < num_edges:
        raise ValueError("edge %r is not in 0..%d" % (e, num_edges - 1))
    if len(orientation.tails) != num_edges:
        raise ValueError(
            "orientation has %d edges, the fatgraph %d" % (len(orientation.tails), num_edges)
        )
    if graph.is_loop(e):
        raise ValueError("cannot flip loop edge %d" % e)
    h_eu, h_ew = graph.edges[e]
    u, w = graph.vertex_of(h_eu), graph.vertex_of(h_ew)
    h_nw, h_sw = graph.sigma(h_eu), graph.sigma(graph.sigma(h_eu))
    h_se, h_ne = graph.sigma(h_ew), graph.sigma(graph.sigma(h_ew))

    # t keeps u's id with ccw (e, ne, nw), b gets (e, sw, se)
    new_graph = graph._rewired(u, (h_eu, h_ne, h_nw), w, (h_ew, h_sw, h_se))

    tails = list(orientation.tails)
    leaf_c = graph.edge_of(graph.sigma(graph.sigma(tails[e])))
    tails[leaf_c] = graph.partner(tails[leaf_c])
    new_or = Orientation(new_graph, tails)
    return FlipResult(new_graph, new_or, e, (h_eu, h_nw, h_sw, h_ew, h_se, h_ne))


# -- isomorphism ---------------------------------------------------------------


def is_isomorphic(g1, g2):
    """Fatgraph isomorphism via rooted propagation over all root images."""
    n1, n2 = 2 * g1.num_edges, 2 * g2.num_edges
    if n1 != n2 or g1.num_vertices != g2.num_vertices:
        return False
    start = 0
    for image in range(n2):
        phi = {start: image}
        stack = [start]
        ok = True
        while stack and ok:
            h = stack.pop()
            for f, nh in ((g1.sigma, g2.sigma), (g1.partner, g2.partner)):
                a, b = f(h), nh(phi[h])
                if a in phi:
                    if phi[a] != b:
                        ok = False
                        break
                else:
                    phi[a] = b
                    stack.append(a)
        if ok and len(phi) == n1 and len(set(phi.values())) == n1:
            return True
    return False


# -- serialization -------------------------------------------------------------


def write_fatgraph(graph, orientation=None):
    lines = ["fatgraph v1"]
    for i, v in enumerate(graph.vertices):
        lines.append("v%d: %s" % (i, " ".join("h%d" % h for h in v)))
    for j, e in enumerate(graph.edges):
        lines.append("e%d: h%d h%d" % (j, e[0], e[1]))
    if orientation is not None:
        parts = []
        for j in range(graph.num_edges):
            parts.append("e%d h%d" % (j, orientation.tail(j)))
        lines.append("orient: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def parse_fatgraph(text):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "fatgraph v1":
        raise ValueError("missing fatgraph v1 header")
    verts, edges, orient_tokens = {}, {}, None
    for ln in lines[1:]:
        if ln.startswith("orient:"):
            orient_tokens = ln[len("orient:"):].split()
            continue
        head, _, rest = ln.partition(":")
        ids = rest.split()
        if head.startswith("v"):
            verts[int(head[1:])] = [_half_id(t) for t in ids]
        elif head.startswith("e"):
            edges[int(head[1:])] = tuple(_half_id(t) for t in ids)
        else:
            raise ValueError("unrecognized line %r" % ln)
    vlist = [verts[i] for i in range(len(verts))]
    elist = [edges[j] for j in range(len(edges))]
    graph = Fatgraph(vlist, elist)
    orientation = None
    if orient_tokens is not None:
        if len(orient_tokens) != 2 * graph.num_edges:
            raise ValueError("orient block must list every edge")
        tails = [None] * graph.num_edges
        for a, b in zip(orient_tokens[::2], orient_tokens[1::2]):
            if not a.startswith("e"):
                raise ValueError("bad orient token %r" % a)
            tails[int(a[1:])] = _half_id(b)
        orientation = Orientation(graph, tails)
    return graph, orientation


def _half_id(tok):
    if not tok.startswith("h"):
        raise ValueError("bad half-edge token %r" % tok)
    return int(tok[1:])
