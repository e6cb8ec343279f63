"""Trivalent fatgraphs, edge orientations and spin structures.

A fatgraph is a graph with a counter-clockwise cyclic order of half-edges at
every vertex; fattening it gives a punctured surface.  As in the paper, a
spin structure is a class of edge orientations modulo the reflections at
the vertices (each reversing the edges at one vertex), and its mod-2
quadratic form q on cycle vectors is read off the fatgraph's own turns and
arrows.  A flip acts on orientations by the paper's local rule: every arrow
keeps its tail half-edge and one leaf of the quadrilateral reverses.

Conventions.  Half-edges are the ints 0..2E-1, and every per-half-edge
table of a `Fatgraph` is a sequence indexed by half-edge; sigma is the ccw
successor at a vertex, partner the edge involution.  A cycle vector (a
mod-2 edge vector of even degree at every vertex) splits into
vertex-disjoint closed walks.
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

import numpy as np


def _is_int(x):
    """Whether x is an integer (a numpy one too) other than a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _partitions(groups, n):
    """Whether the half-edges of groups are the ints 0..n-1, each once; a
    float or a bool equal to an int in range is not one of them."""
    halves = [h for g in groups for h in g]
    return all(_is_int(h) for h in halves) and sorted(halves) == list(range(n))


def _partition_fault(groups, n, where, member):
    """Why the half-edges of groups do not partition 0..n-1: the first
    half-edge that is not an integer (named with `member` and its group),
    or else the first held other than once, or else one outside the
    range."""
    for k, g in enumerate(groups):
        for h in g:
            if not _is_int(h):
                return "half-edge %r %s %d %r is not an integer" % (h, member, k, g)
    count = collections.Counter(h for g in groups for h in g)
    for h in range(n):
        if count[h] != 1:
            return "half-edge %d appears %d times in the %s, not once" % (h, count[h], where)
    extra = sorted(set(count) - set(range(n)), key=repr)
    return "half-edge %r in the %s is not in 0..%d" % (extra[0], where, n - 1)


def _require_index(name, value, count):
    """Reject a value that is not an int (a bool is not), or not in
    0..count - 1, naming it."""
    if not _is_int(value):
        raise ValueError("%s must be an int, got %r" % (name, value))
    if not 0 <= value < count:
        raise ValueError("%s must be in 0..%d, got %r" % (name, count - 1, value))


class Fatgraph:
    """Immutable trivalent fatgraph: ccw vertex triples plus edge pairing.

    The half-edges are the ints 0..2E-1, so its four half-edge tables are
    flat sequences indexed by half-edge: `_vertex_of` and `_sigma` (lists,
    read off the vertex triples) and `_edge_of` and `_partner` (tuples, read
    off the edges).  A flip (`_rewired`) copies the two vertex tables and
    rewrites six entries of each; it shares the edge tables, like `edges`
    itself, with the graph it came from, and nothing ever writes them."""

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
        vertex_of, sigma = [0] * n, [0] * n
        for i, v in enumerate(self.vertices):
            for k, h in enumerate(v):
                vertex_of[h] = i
                sigma[h] = v[(k + 1) % 3]
        edge_of, partner = [0] * n, [0] * n
        for j, (h1, h2) in enumerate(self.edges):
            edge_of[h1] = edge_of[h2] = j
            partner[h1], partner[h2] = h2, h1
        self._vertex_of, self._sigma = vertex_of, sigma
        self._edge_of, self._partner = tuple(edge_of), tuple(partner)

    def _rewired(self, u, tri_u, w, tri_w):
        """The fatgraph with new ccw triples (tuples) at vertices u and w,
        and the same edges.

        The check is local: the two new triples must hold exactly the six
        half-edges the two old ones held, so the half-edge partition stays
        whole.  The edge tables are shared with this graph; the vertex and
        sigma tables are copied by slicing and only the six half-edges are
        rewritten."""
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
        out._vertex_of = vertex_of = self._vertex_of[:]
        out._sigma = sigma = self._sigma[:]
        a, b, c = tri_u
        vertex_of[a] = vertex_of[b] = vertex_of[c] = u
        sigma[a], sigma[b], sigma[c] = b, c, a
        a, b, c = tri_w
        vertex_of[a] = vertex_of[b] = vertex_of[c] = w
        sigma[a], sigma[b], sigma[c] = b, c, a
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
        """Genus of the fattened surface; raises ValueError, as
        `spanning_tree` does, when the graph is not connected."""
        self.spanning_tree()
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

    def spanning_tree(self, root=0):
        """Breadth-first spanning tree from root, trying each vertex's
        half-edges in ccw order: a dict from each vertex, in the order
        reached, to the half-edge at its parent through which it was
        reached (None at the root).  Raises ValueError naming the first
        vertex not reached when the graph is not connected, and naming a
        root that is not an int vertex index."""
        if not _is_int(root) or not 0 <= root < self.num_vertices:
            raise ValueError("root must be a vertex in 0..%d, got %r" % (self.num_vertices - 1, root))
        tree, order = {root: None}, [root]
        for v in order:
            for h in self.vertices[v]:
                w = self._vertex_of[self._partner[h]]
                if w not in tree:
                    tree[w] = h
                    order.append(w)
        if len(tree) != self.num_vertices:
            missing = min(set(range(self.num_vertices)) - set(tree))
            raise ValueError(
                "fatgraph is not connected: vertex %d is not reached from vertex %d" % (missing, root)
            )
        return tree

    def fundamental_cycle(self, tree, j):
        """Mod-2 edge vector of the cycle edge j closes in a spanning tree
        (`spanning_tree`): edge j plus the tree paths from its two ends to
        the root.  Zero for a tree edge."""
        vec = np.zeros(self.num_edges, dtype=np.uint8)
        vec[j] = 1
        for h in self.edges[j]:
            h_up = tree[self._vertex_of[h]]
            while h_up is not None:
                vec[self._edge_of[h_up]] ^= 1
                h_up = tree[self._vertex_of[h_up]]
        return vec

    def cycle_basis(self):
        """Fundamental-cycle edge vectors of the spanning tree from vertex
        0, one per non-tree edge, in edge order.  Raises ValueError when the
        graph is not connected."""
        tree = self.spanning_tree()
        tree_edges = {self._edge_of[h] for h in tree.values() if h is not None}
        return [self.fundamental_cycle(tree, j) for j in range(self.num_edges) if j not in tree_edges]


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
    def _unchecked(cls, graph, tails):
        """An orientation from a tuple of tails known to lie on the graph's
        edges, one per edge in order, built without checking them."""
        out = cls.__new__(cls)
        out.graph, out.tails = graph, tails
        return out

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
        if not isinstance(other, Orientation):
            return NotImplemented
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
    off the walks' turns and arrows (see the module docstring).  Rejects an
    orientation with another number of edges, or whose tail of an edge is
    not one of that edge's half-edges, naming the first such edge."""

    def __init__(self, graph, orientation):
        tails, edges = orientation.tails, graph.edges
        if len(tails) != len(edges):
            raise ValueError("orientation has %d edges, the fatgraph %d" % (len(tails), len(edges)))
        for j, t in enumerate(tails):
            if t not in edges[j]:
                raise ValueError("orientation's tail %r is not a half-edge of edge %d of the fatgraph" % (t, j))
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


def _edge_mismatch(other, edges):
    """The ValueError for an orientation whose graph has the edges other
    where the fatgraph has edges (as many), naming the first that differs."""
    j = next(j for j in range(len(edges)) if other[j] != edges[j])
    return ValueError(
        "orientation is of another fatgraph: its edge %d is %r, the fatgraph's %r" % (j, other[j], edges[j])
    )


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

    The flipped graph is the old one with its two end vertices rewired
    (`Fatgraph._rewired`): it copies the vertex and sigma tables and
    rewrites the six half-edges of the two vertices, which are all it
    checks, and shares the edges and the edge and partner tables with the
    old graph.  The orientation must be one of a graph whose edges are, or
    equal, the fatgraph's, which along a walk of flips is an identity test
    on the shared edges; a ValueError names the first edge that differs.
    Its tails then lie on the fatgraph's edges, and the rule's one partner
    swap keeps each on its edge, so the new orientation is built without
    checking its tails again.
    """
    edges = graph.edges
    num_edges = len(edges)
    _require_index("edge", e, num_edges)
    tails = orientation.tails
    if len(tails) != num_edges:
        raise ValueError("orientation has %d edges, the fatgraph %d" % (len(tails), num_edges))
    other = orientation.graph.edges
    if other is not edges and other != edges:
        raise _edge_mismatch(other, edges)
    vertex_of, sigma = graph._vertex_of, graph._sigma
    h_eu, h_ew = edges[e]
    u, w = vertex_of[h_eu], vertex_of[h_ew]
    if u == w:
        raise ValueError("cannot flip loop edge %d" % e)
    h_nw = sigma[h_eu]
    h_sw = sigma[h_nw]
    h_se = sigma[h_ew]
    h_ne = sigma[h_se]

    # t keeps u's id with ccw (e, ne, nw), b gets (e, sw, se)
    new_graph = graph._rewired(u, (h_eu, h_ne, h_nw), w, (h_ew, h_sw, h_se))

    tails = list(tails)
    leaf_c = graph._edge_of[sigma[sigma[tails[e]]]]
    tails[leaf_c] = graph._partner[tails[leaf_c]]
    new_or = Orientation._unchecked(new_graph, tuple(tails))
    return FlipResult(new_graph, new_or, e, (h_eu, h_nw, h_sw, h_ew, h_se, h_ne))


# -- isomorphism ---------------------------------------------------------------


def is_isomorphic(g1, g2):
    """Fatgraph isomorphism via rooted propagation over all root images.
    Raises ValueError, as `spanning_tree` does, when either graph is not
    connected: the propagation reaches one component only."""
    g1.spanning_tree()
    g2.spanning_tree()
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
    """Read `write_fatgraph`'s format.  The lines vK and eK are numbered
    0..count - 1, each number once, in any order; a ValueError quotes the
    first line that is not."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "fatgraph v1":
        raise ValueError("missing fatgraph v1 header")
    groups, orient_line = {"v": [], "e": []}, None
    for ln in lines[1:]:
        if ln.startswith("orient:"):
            orient_line = ln
            continue
        head, _, rest = ln.partition(":")
        if head[:1] not in groups:
            raise ValueError("unrecognized line %r" % ln)
        groups[head[0]].append((ln, head, rest.split()))
    vlist, elist = ([None] * len(groups[k]) for k in "ve")
    for k, slots in (("v", vlist), ("e", elist)):
        for ln, head, ids in groups[k]:
            _put_indexed(slots, ln, head, k, [_half_id(t, ln) for t in ids])
    graph = Fatgraph(vlist, elist)
    orientation = None
    if orient_line is not None:
        tokens = orient_line[len("orient:"):].split()
        if len(tokens) != 2 * graph.num_edges:
            raise ValueError("orient block must list every edge")
        tails = [None] * graph.num_edges
        for a, b in zip(tokens[::2], tokens[1::2]):
            _put_indexed(tails, orient_line, a, "e", _half_id(b, orient_line))
        orientation = Orientation(graph, tails)
    return graph, orientation


def _put_indexed(slots, line, token, prefix, value):
    """Store value in slots at the number in token, which must be prefix
    and then an int in 0..len(slots) - 1, not taken before; a ValueError
    quotes the line of a text format otherwise."""
    digits = token[len(prefix):]
    if not (token.startswith(prefix) and digits.isdecimal() and int(digits) < len(slots)):
        raise ValueError("%r in line %r is not in %s0..%s%d" % (token, line, prefix, prefix, len(slots) - 1))
    if slots[int(digits)] is not None:
        raise ValueError("line %r repeats %s" % (line, token))
    slots[int(digits)] = value


def _half_id(tok, line):
    """The number K of a half-edge token hK; a ValueError quotes the line
    of a text format otherwise."""
    if not (tok.startswith("h") and tok[1:].isdecimal()):
        raise ValueError("bad half-edge token %r in line %r" % (tok, line))
    return int(tok[1:])
