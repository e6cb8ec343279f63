"""Trivalent fatgraphs, edge orientations and spin structures.

A fatgraph is a graph with a counter-clockwise cyclic order of half-edges at
every vertex.  Fattening each trivalent vertex to a hexagon and each edge to
a rectangle produces a compact "skinny" surface whose one-skeleton carries
the combinatorics of spin structures: an edge orientation induces a special
Kasteleyn orientation, a fixed canonical dimer turns it into a quadratic
form on mod-2 homology, and flips act on orientation classes by a local
rule recovered here by brute force over the local window.

Conventions.  Half-edges are integers; sigma is the ccw successor at a
vertex, partner the edge involution.  The skinny one-skeleton has CW points
P_L(h), P_R(h) per half-edge; each half-edge contributes one bold segment
s(h) = {P_L(h), P_R(h)} (the canonical dimer), each vertex corner one
boundary arc a(h): P_L(h) -> P_R(sigma(h)), each edge two boundary long
sides long(h) = {P_R(h), P_L(partner(h))}.  The special Kasteleyn
orientation directs segments P_R -> P_L, corner arcs P_R(sigma(h)) ->
P_L(h), and long sides parallel to the edge orientation.
"""

import itertools

import numpy as np


class Fatgraph:
    """Immutable trivalent fatgraph: ccw vertex triples plus edge pairing."""

    __slots__ = ("vertices", "edges", "_vertex_of", "_edge_of", "_sigma", "_partner")

    def __init__(self, vertices, edges):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.edges = tuple(tuple(e) for e in edges)
        n = 2 * len(self.edges)
        seen = []
        for v in self.vertices:
            if len(v) != 3:
                raise ValueError("fatgraph is not trivalent")
            seen.extend(v)
        if sorted(seen) != list(range(n)):
            raise ValueError("half-edges must partition 0..2E-1 across vertices")
        pair_seen = sorted(h for e in self.edges for h in e)
        if pair_seen != list(range(n)) or any(len(e) != 2 or e[0] == e[1] for e in self.edges):
            raise ValueError("edges must be an involution without fixed points")
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
        for h0 in sorted(self._vertex_of):
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
        tails = tuple(tails)
        for j, t in enumerate(tails):
            if t not in graph.edges[j]:
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

    def xor_cochain(self, cochain_bits):
        return self.flip_edges([j for j, b in enumerate(cochain_bits) if b])

    def __eq__(self, other):
        return self.graph is other.graph and self.tails == other.tails

    def __hash__(self):
        return hash(self.tails)


def gf2_solve(rows, target, mask=None):
    """Write target as a sum of rows over GF(2), comparing only the columns
    where mask is set (every column by default).

    Each row is reduced against the rows kept before it and kept when
    anything is left; its lowest nonzero column is its pivot, and the pivots
    of the kept rows are the leading columns of the whole span.  Returns
    (combo, rest, pivots): combo is a 0/1 vector over the rows, supported on
    the kept ones, and rest, target plus the combo's rows, is zero at every
    pivot.  Target lies in the span exactly when rest is zero.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    rest = np.asarray(target, dtype=np.uint8).copy()
    if mask is not None:
        keep = np.asarray(mask, dtype=np.uint8)
        rows = rows & keep
        rest &= keep
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


# -- the skinny surface -------------------------------------------------------


def _pl(h):
    return ("L", h)


def _pr(h):
    return ("R", h)


class SkinnyGraph:
    """CW one-skeleton of the fattened surface: segments, corner arcs and
    long sides, with ccw orders at points and face boundaries."""

    def __init__(self, graph):
        self.graph = graph
        self.segments = [("s", h) for h in sorted(graph._vertex_of)]
        self.arcs = [("a", h) for h in sorted(graph._vertex_of)]
        self.longs = [("l", h) for h in sorted(graph._vertex_of)]
        self.ends = {}
        for key in self.segments:
            h = key[1]
            self.ends[key] = (_pl(h), _pr(h))
        for key in self.arcs:
            h = key[1]
            self.ends[key] = (_pl(h), _pr(graph.sigma(h)))
        for key in self.longs:
            h = key[1]
            self.ends[key] = (_pr(h), _pl(graph.partner(h)))

    # counter-clockwise cyclic order of the three edges at a CW point
    def ccw_at(self, p):
        side, h = p
        g = self.graph
        if side == "L":
            return (("a", h), ("s", h), ("l", g.partner(h)))
        return (("l", h), ("s", h), ("a", g.sigma_inv(h)))

    def dimer_at(self, p):
        return ("s", p[1])

    def hexagon_boundary(self, v):
        """Directed boundary steps of H_v: (edge key, forward flag)."""
        steps = []
        for h in self.graph.vertices[v]:
            steps.append((("s", h), False))
            steps.append((("a", h), True))
        return steps

    def rectangle_boundary(self, e):
        h1, h2 = self.graph.edges[e]
        return [
            (("s", h1), True),
            (("l", h1), True),
            (("s", h2), True),
            (("l", h2), True),
        ]

    def faces(self):
        out = [self.hexagon_boundary(v) for v in range(self.graph.num_vertices)]
        out += [self.rectangle_boundary(e) for e in range(self.graph.num_edges)]
        return out

    def kasteleyn(self, orientation):
        """Special Kasteleyn orientation: directed (src, dst) per CW edge."""
        g = self.graph
        k = {}
        for key in self.segments:
            h = key[1]
            k[key] = (_pr(h), _pl(h))
        for key in self.arcs:
            h = key[1]
            k[key] = (_pr(g.sigma(h)), _pl(h))
        for key in self.longs:
            h = key[1]
            a, b = self.ends[key]
            if orientation.tail(g.edge_of(h)) == h:
                k[key] = (a, b)
            else:
                k[key] = (b, a)
        return k

    def kasteleyn_reflect(self, k, p):
        """Reverse every CW edge incident on the point p."""
        out = dict(k)
        for key, (a, b) in k.items():
            if a == p or b == p:
                out[key] = (b, a)
        return out

    def kasteleyn_defects(self, k):
        """Faces where the disagreement count is even (Kasteleyn failures)."""
        bad = []
        for face in self.faces():
            n = 0
            for key, fwd in face:
                a, b = self.ends[key]
                direction = (a, b) if fwd else (b, a)
                if k[key] != direction:
                    n += 1
            if n % 2 == 0:
                bad.append(face)
        return bad

    # -- curves -----------------------------------------------------------

    def step_ends(self, step):
        key, fwd = step
        a, b = self.ends[key]
        return (a, b) if fwd else (b, a)

    def check_closed(self, curve):
        for s1, s2 in zip(curve, curve[1:] + curve[:1]):
            if self.step_ends(s1)[1] != self.step_ends(s2)[0]:
                raise ValueError("curve is not a closed edge-path")

    def disagreement_count(self, curve, k):
        n = 0
        for step in curve:
            key = step[0]
            if self.step_ends(step) != k[key]:
                n += 1
        return n

    def left_dimer_count(self, curve):
        """Dimers sticking out to the left of the directed closed curve."""
        count = 0
        for s_in, s_out in zip(curve, curve[1:] + curve[:1]):
            p = self.step_ends(s_in)[1]
            d = self.dimer_at(p)
            if s_in[0] == d or s_out[0] == d:
                continue
            order = self.ccw_at(p)
            i = order.index(s_out[0])
            if order[(i + 1) % 3] == d and order[(i + 2) % 3] == s_in[0]:
                count += 1
        return count

    def realize_cycle(self, vec):
        """Closed curves in the one-skeleton realizing a mod-2 edge vector.

        The vector must have even degree at every vertex; each component is
        rendered hugging the boundary: corner arcs for one-step turns, a
        single segment crossing for two-step turns, long sides along edges.
        """
        g = self.graph
        comps = _cycle_components(g, vec)
        curves = []
        for comp in comps:
            steps = []
            for h_in, h_out in comp:
                steps.append((("a", h_in), True))
                if h_out == g.sigma(g.sigma(h_in)):
                    mid = g.sigma(h_in)
                    steps.append((("s", mid), False))
                    steps.append((("a", mid), True))
                elif h_out != g.sigma(h_in):
                    raise ValueError("inconsistent transit")
                steps.append((("l", h_out), True))
            curves.append(steps)
            self.check_closed(steps)
        return curves


def _cycle_components(graph, vec):
    """Decompose an even-degree edge vector into vertex transit cycles."""
    support = {j for j in range(graph.num_edges) if vec[j]}
    for v in range(graph.num_vertices):
        deg = sum(1 for h in graph.vertices[v] if graph.edge_of(h) in support)
        if deg not in (0, 2):
            raise ValueError("edge vector is not a mod-2 cycle")
    unused = set(support)
    comps = []
    while unused:
        j0 = min(unused)
        h = graph.edges[j0][0]
        comp = []
        while True:
            arrive = graph.partner(h)
            unused.discard(graph.edge_of(h))
            outs = [
                k
                for k in graph.vertices[graph.vertex_of(arrive)]
                if k != arrive and graph.edge_of(k) in support
            ]
            h_out = outs[0]
            comp.append((arrive, h_out))
            h = h_out
            if h == graph.edges[j0][0]:
                break
        comps.append(comp)
    return comps


def intersection_mod2(graph, x, y):
    """Mod-2 homology intersection of two cycle vectors on the fatgraph.

    All crossings happen along maximal shared chains; a chain contributes
    when the two cycles leave it on opposite sides, judged by the ccw order
    at its two end vertices.
    """
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    shared = x & y
    if not shared.any():
        return 0
    ends = {}
    for v in range(graph.num_vertices):
        hs = [h for h in graph.vertices[v] if shared[graph.edge_of(h)]]
        if len(hs) == 1:
            c = hs[0]
            a = next(
                h for h in graph.vertices[v] if h != c and x[graph.edge_of(h)]
            )
            b = next(
                h for h in graph.vertices[v] if h != c and y[graph.edge_of(h)]
            )
            order = graph.vertices[v]
            i = order.index(c)
            side = 1 if (order[(i + 1) % 3], order[(i + 2) % 3]) == (a, b) else 0
            ends[c] = side
    total = 0
    seen = set()
    for c0 in sorted(ends):
        if c0 in seen:
            continue
        seen.add(c0)
        # walk the shared chain from c0 to its far end
        h = c0
        while True:
            far = graph.partner(h)
            if far in ends:
                seen.add(far)
                total += 1 if ends[c0] == ends[far] else 0
                break
            v = graph.vertex_of(far)
            h = next(
                k
                for k in graph.vertices[v]
                if k != far and shared[graph.edge_of(k)]
            )
        # closed shared chains never reach here; they have no ends
    return total % 2


class QuadraticForm:
    """Mod-2 quadratic form of an oriented fatgraph, evaluated on cycle
    vectors through the canonical dimer on the skinny surface."""

    def __init__(self, graph, orientation):
        self.graph = graph
        self.orientation = orientation
        self.skinny = SkinnyGraph(graph)
        self.kasteleyn = self.skinny.kasteleyn(orientation)
        bad = self.skinny.kasteleyn_defects(self.kasteleyn)
        if bad:
            raise AssertionError("special orientation failed the face parity check")
        self.basis = graph.cycle_basis()

    def value_of_curves(self, curves, pairwise=0):
        total = pairwise
        for c in curves:
            self.skinny.check_closed(c)
            n = self.skinny.disagreement_count(c, self.kasteleyn)
            ell = self.skinny.left_dimer_count(c)
            total += 1 + n + ell
        return total % 2

    def value(self, vec):
        vec = np.asarray(vec, dtype=np.uint8)
        if not vec.any():
            return 0
        curves = self.skinny.realize_cycle(vec)
        # components of one even-degree vector are vertex-disjoint
        return self.value_of_curves(curves)

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

_PRE_SIGMA = {"EU": "NW", "NW": "SW", "SW": "EU", "EW": "SE", "SE": "NE", "NE": "EW"}
_POST_SIGMA = {"ET": "NE", "NE": "NW", "NW": "ET", "EB": "SW", "SW": "SE", "SE": "EB"}
_LEAVES = ("NW", "SW", "SE", "NE")


class _LocalWindow:
    """Flip neighborhood of the skinny surface with port stubs on the four
    leaf edges, enough to evaluate the six arc contributions."""

    def __init__(self, sigma, interior):
        self.sigma = sigma
        self.sigma_inv = {v: k for k, v in sigma.items()}
        self.interior = interior  # pair of interior half-edge tags
        self.ends = {}
        for h in sigma:
            self.ends[("s", h)] = (("L", h), ("R", h))
            self.ends[("a", h)] = (("L", h), ("R", sigma[h]))
        e1, e2 = interior
        self.ends[("l", e1)] = (("R", e1), ("L", e2))
        self.ends[("l", e2)] = (("R", e2), ("L", e1))
        for x in _LEAVES:
            self.ends[("out", x)] = (("R", x), ("Q", x, "out"))
            self.ends[("in", x)] = (("Q", x, "in"), ("L", x))

    def ccw_at(self, p):
        side, h = p
        if side == "L":
            third = ("in", h) if h in _LEAVES else ("l", self.partner_long(h))
            return (("a", h), ("s", h), third)
        third = ("out", h) if h in _LEAVES else ("l", h)
        return (third, ("s", h), ("a", self.sigma_inv[h]))

    def partner_long(self, h):
        e1, e2 = self.interior
        return e2 if h == e1 else e1

    def kasteleyn(self, edge_dir, leaf_in):
        """edge_dir: tail tag of the interior edge; leaf_in: tag -> bool."""
        k = {}
        for h in self.sigma:
            k[("s", h)] = (("R", h), ("L", h))
            k[("a", h)] = (("R", self.sigma[h]), ("L", h))
        e1, e2 = self.interior
        tail = edge_dir
        other = e2 if tail == e1 else e1
        k[("l", tail)] = (("R", tail), ("L", other))
        k[("l", other)] = (("L", tail), ("R", other))
        for x in _LEAVES:
            if leaf_in[x]:
                k[("out", x)] = (("Q", x, "out"), ("R", x))
                k[("in", x)] = (("Q", x, "in"), ("L", x))
            else:
                k[("out", x)] = (("R", x), ("Q", x, "out"))
                k[("in", x)] = (("L", x), ("Q", x, "in"))
        return k

    def step_ends(self, step):
        key, fwd = step
        a, b = self.ends[key]
        return (a, b) if fwd else (b, a)

    def contribution(self, path, k):
        """(disagreements + left dimers) mod 2 along an open arc."""
        n = 0
        for step in path:
            if self.step_ends(step) != k[step[0]]:
                n += 1
        ell = 0
        for s_in, s_out in zip(path, path[1:]):
            p = self.step_ends(s_in)[1]
            d = ("s", p[1])
            if s_in[0] == d or s_out[0] == d:
                continue
            order = self.ccw_at(p)
            i = order.index(s_out[0])
            if order[(i + 1) % 3] == d and order[(i + 2) % 3] == s_in[0]:
                ell += 1
        return (n + ell) % 2

    def transit(self, h_in, h_out):
        """Steps across one hexagon from P_L(h_in) to P_R(h_out)."""
        steps = [(("a", h_in), True)]
        if h_out == self.sigma[self.sigma[h_in]]:
            mid = self.sigma[h_in]
            steps.append((("s", mid), False))
            steps.append((("a", mid), True))
        elif h_out != self.sigma[h_in]:
            raise ValueError("impossible transit")
        return steps

    def arc(self, ports):
        """Directed arc entering at the first port and leaving at the last,
        passing the interior edge whenever the ports sit at both vertices."""
        first, last = ports
        path = [(("in", first), True)]
        here = first
        e1, e2 = self.interior
        same_vertex = self.vertex_tag(first) == self.vertex_tag(last)
        if same_vertex:
            path += self.transit(first, last)
        else:
            mine = e1 if self.vertex_tag(first) == self.vertex_tag(e1) else e2
            theirs = e2 if mine == e1 else e1
            path += self.transit(first, mine)
            path.append((("l", mine), True))
            path += self.transit(theirs, last)
        path.append((("out", last), True))
        return path

    def vertex_tag(self, h):
        # vertices are the orbits of sigma
        e1, e2 = self.interior
        orbit = {e1}
        x = self.sigma[e1]
        while x != e1:
            orbit.add(x)
            x = self.sigma[x]
        return 0 if h in orbit else 1


_ARC_PORTS = [
    ("NW", "SW"),
    ("SE", "NE"),
    ("NE", "NW"),
    ("SW", "SE"),
    ("NW", "SE"),
    ("SW", "NE"),
]


def window_solutions(e_tag, leaf_bits):
    """Post-flip orientations of the five local edges preserving all six
    arc contributions, for a given pre-flip state.

    e_tag is "EU" or "EW" (tail vertex of the interior edge); leaf_bits
    gives inward flags in NW, SW, SE, NE order.  Solutions are (tail tag,
    inward flags) pairs in a fixed deterministic order.
    """
    pre = _LocalWindow(_PRE_SIGMA, ("EU", "EW"))
    post = _LocalWindow(_POST_SIGMA, ("ET", "EB"))
    leaf_in = dict(zip(_LEAVES, leaf_bits))
    k_pre = pre.kasteleyn(e_tag, leaf_in)
    goal = [pre.contribution(pre.arc(p), k_pre) for p in _ARC_PORTS]
    solutions = []
    for tail in ("ET", "EB"):
        for cand in itertools.product((True, False), repeat=4):
            li = dict(zip(_LEAVES, cand))
            k_post = post.kasteleyn(tail, li)
            got = [post.contribution(post.arc(p), k_post) for p in _ARC_PORTS]
            if got == goal:
                solutions.append((tail, cand))
    return solutions


def _window_reflect_top(sol):
    # reflection at the top vertex: reverses the new edge, NW and NE
    tail, (nw, sw, se, ne) = sol
    return ("EB" if tail == "ET" else "ET", (not nw, sw, se, not ne))


def _window_reflect_bottom(sol):
    tail, (nw, sw, se, ne) = sol
    return ("EB" if tail == "ET" else "ET", (nw, not sw, not se, ne))


def flip_rule_oracle():
    """Brute-force the orientation evolution for every pre-flip state.

    Each state must have exactly four solutions forming one orbit of the
    reflections at the two new vertices, i.e. a single well-defined
    orientation class.  The table stores all four, canonical first (NW
    inward and the new edge directed upward).
    """
    table = {}
    for e_tag in ("EU", "EW"):
        for bits in itertools.product((True, False), repeat=4):
            sols = window_solutions(e_tag, bits)
            if len(sols) != 4:
                raise AssertionError(
                    "flip case %r has %d solutions" % ((e_tag, bits), len(sols))
                )
            orbit = set(sols)
            for s in sols:
                if _window_reflect_top(s) not in orbit:
                    raise AssertionError("solutions not closed under reflection")
                if _window_reflect_bottom(s) not in orbit:
                    raise AssertionError("solutions not closed under reflection")
            canon = [s for s in sols if s[1][0] and s[0] == "ET"]
            if len(canon) != 1:
                raise AssertionError("no canonical representative in %r" % (sols,))
            rest = sorted(s for s in sols if s != canon[0])
            table[(e_tag, bits)] = tuple(canon + rest)
    return table


_FLIP_TABLE = None


def _flip_table():
    global _FLIP_TABLE
    if _FLIP_TABLE is None:
        _FLIP_TABLE = flip_rule_oracle()
    return _FLIP_TABLE


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
    vec = np.asarray(vec, dtype=np.uint8).copy()
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

    When the four leaves of the quadrilateral are distinct edges, the window
    state of the five local edges is looked up in the flip-rule table and
    its canonical solution (NW inward, new edge directed upward) is written
    onto them; every other edge keeps its direction.  When leaves coincide
    as edges the window rule does not apply, and the class is solved from
    the defining property instead: the new form must agree with the old one
    on the transported cycle basis.  Reversing the edges of a mod-2 cochain
    c changes the form on a cycle x by c.x, so starting from the old arrows
    on the new graph one GF(2) system on the transported basis gives c; the
    canonical representative of the result is returned.
    """
    if graph.is_loop(e):
        raise ValueError("cannot flip loop edge %d" % e)
    h_eu, h_ew = graph.edges[e]
    u, w = graph.vertex_of(h_eu), graph.vertex_of(h_ew)
    h_nw, h_sw = graph.sigma(h_eu), graph.sigma(graph.sigma(h_eu))
    h_se, h_ne = graph.sigma(h_ew), graph.sigma(graph.sigma(h_ew))
    leaf_halves = (h_nw, h_sw, h_se, h_ne)

    e_tag = "EU" if orientation.tail(e) == h_eu else "EW"
    bits = tuple(
        orientation.tail(graph.edge_of(h)) == graph.partner(h) for h in leaf_halves
    )

    # rebuild the graph: t keeps u's id with ccw (e, ne, nw), b gets (e, sw, se)
    vertices = [list(v) for v in graph.vertices]
    vertices[u] = [h_eu, h_ne, h_nw]
    vertices[w] = [h_ew, h_sw, h_se]
    new_graph = Fatgraph(vertices, graph.edges)

    locals_ = (h_eu, h_nw, h_sw, h_ew, h_se, h_ne)
    local_edges = {e} | {graph.edge_of(h) for h in leaf_halves}
    if len(local_edges) == 5:
        tail_tag, leaf_in = _flip_table()[(e_tag, bits)][0]
        tails = list(orientation.tails)
        tails[e] = h_eu if tail_tag == "ET" else h_ew
        for h, inward in zip(leaf_halves, leaf_in):
            tails[graph.edge_of(h)] = graph.partner(h) if inward else h
        new_or = Orientation(new_graph, tails)
        return FlipResult(new_graph, new_or, e, locals_)

    # leaves of the quadrilateral coincide as edges: solve the defining
    # property q_new(transport(b)) = q_old(b) on the cycle basis b
    q_old = QuadraticForm(graph, orientation)
    want = q_old.basis_values()
    moved = [_transport_vec(graph, locals_, e, b) for b in q_old.basis]
    start = Orientation(new_graph, orientation.tails)
    q_start = QuadraticForm(new_graph, start)
    rhs = [w ^ q_start.value(x) for w, x in zip(want, moved)]
    # rows are edges: sum of c_j * (moved_i)_j over j must equal rhs_i
    c, _, pivots = gf2_solve(np.array(moved).T, rhs)
    if len(pivots) != len(moved):
        raise AssertionError(
            "flip of edge %d: transported cycles have rank %d, not %d"
            % (e, len(pivots), len(moved))
        )
    new_or = orientation_class(start.xor_cochain(c))
    q_new = QuadraticForm(new_graph, new_or)
    if tuple(q_new.value(x) for x in moved) != want:
        raise AssertionError(
            "flip of edge %d: solved class breaks the transported form" % e
        )
    return FlipResult(new_graph, new_or, e, locals_)


# -- duality -------------------------------------------------------------------


class DualTriangulation:
    """Ideal triangulation dual to a trivalent fatgraph: one triangle per
    vertex (sides in ccw order dual to the half-edges), one arc per edge,
    arcs directed from the face left of the oriented edge to the right."""

    __slots__ = ("triangles", "arc_faces", "num_arcs")

    def __init__(self, triangles, arc_faces, num_arcs):
        self.triangles = tuple(tuple(t) for t in triangles)
        self.arc_faces = tuple(arc_faces)
        self.num_arcs = num_arcs

    def to_fatgraph(self):
        edges = {}
        verts = []
        for t in self.triangles:
            tri = []
            for arc, slot in t:
                h = 2 * arc + slot
                tri.append(h)
            verts.append(tri)
        pairs = [(2 * j, 2 * j + 1) for j in range(self.num_arcs)]
        return Fatgraph(verts, pairs)


def dual_triangulation(graph, orientation):
    orbits = graph.boundary_orbits()
    face_of = {}
    for i, orbit in enumerate(orbits):
        for h in orbit:
            face_of[h] = i
    triangles = []
    for v in range(graph.num_vertices):
        tri = []
        for h in graph.vertices[v]:
            j = graph.edge_of(h)
            slot = 0 if h == graph.edges[j][0] else 1
            tri.append((j, slot))
        triangles.append(tri)
    arc_faces = []
    for j in range(graph.num_edges):
        t = orientation.tail(j)
        arc_faces.append((face_of[t], face_of[graph.partner(t)]))
    return DualTriangulation(triangles, arc_faces, graph.num_edges)


def exchange_arc(tri, j, orientation_after):
    """Diagonal exchange along arc j: merge the two triangles sharing it
    and split the resulting square the other way.  Arc directions are
    recomputed from the supplied post-exchange edge orientation."""
    spots = {}
    for i, t in enumerate(tri.triangles):
        for side in t:
            if side[0] == j:
                spots[side[1]] = i
    if len(spots) != 2 or spots[0] == spots[1]:
        raise ValueError("arc must bound two distinct triangles")
    i1, i2 = spots[0], spots[1]

    def rotated(t):
        k = next(i for i, (a, _) in enumerate(t) if a == j)
        return t[k:] + t[:k]

    t1, t2 = rotated(tri.triangles[i1]), rotated(tri.triangles[i2])
    triangles = list(tri.triangles)
    triangles[i1] = (t1[0], t2[2], t1[1])
    triangles[i2] = (t2[0], t1[2], t2[1])
    out = DualTriangulation(triangles, tri.arc_faces, tri.num_arcs)
    graph = out.to_fatgraph()
    return dual_triangulation(graph, Orientation(graph, orientation_after.tails))


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
