"""Fatgraph combinatorics, quadratic forms, flips; the skinny-surface count
of the quadratic form, its Kasteleyn orientation, the mod-2 intersection
form and the dual triangulation, kept here as oracles."""

import collections
import itertools

import numpy as np
import pytest

from superteich import fatgraph_spin as fg


SPINES = {
    "theta": fg.theta_graph,
    "dumbbell": fg.dumbbell_graph,
    "four_puncture": fg.four_puncture_spine,
    "genus_two": fg.genus_two_spine,
}


def flippable(graph):
    return [e for e in range(graph.num_edges) if not graph.is_loop(e)]


def random_fatgraph(rng, num_vertices):
    """Connected trivalent fatgraph: half-edges dealt to vertices and paired
    at random, drawn again until connected (loops and multi-edges allowed)."""
    n = 3 * num_vertices
    while True:
        deal = [int(h) for h in rng.permutation(n)]
        pairs = [int(h) for h in rng.permutation(n)]
        g = fg.Fatgraph(
            [deal[3 * i : 3 * i + 3] for i in range(num_vertices)],
            [sorted(pairs[2 * j : 2 * j + 2]) for j in range(n // 2)],
        )
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for h in g.vertices[v]:
                w = g.vertex_of(g.partner(h))
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == num_vertices:
            return g


def random_graphs(seed, num_vertices, count):
    rng = np.random.default_rng(seed)
    return [random_fatgraph(rng, num_vertices) for _ in range(count)]


SPINES_AND_RANDOM = [
    pytest.param(lambda: [make() for make in SPINES.values()], id="spines"),
    pytest.param(lambda: random_graphs(4, 4, 6), id="random-V4"),
    pytest.param(lambda: random_graphs(6, 6, 4), id="random-V6"),
]


def coinciding_leaves(graph, e):
    """Whether two leaves of the quadrilateral around e are one edge."""
    local = {e}
    for h in graph.edges[e]:
        local.add(graph.edge_of(graph.sigma(h)))
        local.add(graph.edge_of(graph.sigma(graph.sigma(h))))
    return len(local) < 5


def search_flip_class(graph, om, res):
    """Every class of the flipped graph whose form matches the old one on
    the transported cycle basis, found by trying them all."""
    q = fg.QuadraticForm(graph, om)
    want = [q.value(b) for b in q.basis]
    moved = [res.transport(b) for b in q.basis]
    matches = []
    for cand in fg.orientation_classes(res.graph):
        qq = fg.QuadraticForm(res.graph, cand)
        if [qq.value(x) for x in moved] == want:
            matches.append(cand)
    return matches


def solved_flip_class(graph, om, res):
    """Class of the flipped orientation solved from the defining property
    q_new(transport(b)) = q_old(b) on the cycle basis b, without the rule.

    Reversing the edges of a mod-2 cochain c changes the form on a cycle x
    by c.x, so starting from the old arrows on the new graph, one GF(2)
    system on the transported basis gives c."""
    q_old = fg.QuadraticForm(graph, om)
    want = q_old.basis_values()
    moved = [res.transport(b) for b in q_old.basis]
    start = fg.Orientation(res.graph, om.tails)
    q_start = fg.QuadraticForm(res.graph, start)
    rhs = [w ^ q_start.value(x) for w, x in zip(want, moved)]
    # rows are edges: sum of c_j * (moved_i)_j over j must equal rhs_i
    c, _, pivots = fg.gf2_solve(np.array(moved).T, rhs)
    assert len(pivots) == len(moved)
    solved = fg.orientation_class(start.flip_edges(np.flatnonzero(c)))
    q_new = fg.QuadraticForm(res.graph, solved)
    assert tuple(q_new.value(x) for x in moved) == want
    return solved


# -- the skinny-surface oracle --------------------------------------------------
#
# The count of Cimasoni and Reshetikhin ("Dimers on surface graphs and spin
# structures. I", CMP 2007) on the fattened surface, which `fg.QuadraticForm`
# reduces to a rule over the fatgraph's turns and arrows.
#
# Conventions.  The skinny one-skeleton has CW points P_L(h), P_R(h) per
# half-edge; each half-edge contributes one bold segment s(h) = {P_L(h),
# P_R(h)} (the canonical dimer), each vertex corner one boundary arc a(h):
# P_L(h) -> P_R(sigma(h)), each edge two boundary long sides long(h) =
# {P_R(h), P_L(partner(h))}.  The special Kasteleyn orientation directs
# segments P_R -> P_L, corner arcs P_R(sigma(h)) -> P_L(h), and long sides
# parallel to the edge orientation.


def _pl(h):
    return ("L", h)


def _pr(h):
    return ("R", h)


class SkinnyGraph:
    """CW one-skeleton of the fattened surface: segments, corner arcs and
    long sides, with ccw orders at points and face boundaries."""

    def __init__(self, graph):
        self.graph = graph
        halves = range(2 * graph.num_edges)
        self.segments = [("s", h) for h in halves]
        self.arcs = [("a", h) for h in halves]
        self.longs = [("l", h) for h in halves]
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

        Each closed walk of the vector is rendered hugging the boundary:
        corner arcs for one-step turns, a single segment crossing for
        two-step turns, long sides along edges.
        """
        g = self.graph
        curves = []
        for comp in fg._cycle_components(g, vec):
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
        return curves


class SkinnyForm:
    """The quadratic form counted on the skinny surface: per closed curve,
    1 + its disagreements with the Kasteleyn orientation + the dimers on
    its left, mod 2.  The Kasteleyn face parity is checked on construction."""

    def __init__(self, graph, orientation):
        self.skinny = SkinnyGraph(graph)
        self.kasteleyn = self.skinny.kasteleyn(orientation)
        if self.skinny.kasteleyn_defects(self.kasteleyn):
            raise AssertionError("special orientation failed the face parity check")

    def value_of_curves(self, curves):
        total = 0
        for c in curves:
            self.skinny.check_closed(c)
            n = self.skinny.disagreement_count(c, self.kasteleyn)
            ell = self.skinny.left_dimer_count(c)
            total += 1 + n + ell
        return total % 2

    def value(self, vec):
        return self.value_of_curves(self.skinny.realize_cycle(np.asarray(vec, dtype=np.uint8)))


# -- the mod-2 intersection form ------------------------------------------------


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


# -- the dual triangulation -----------------------------------------------------


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
        verts = []
        for t in self.triangles:
            tri = []
            for arc, slot in t:
                h = 2 * arc + slot
                tri.append(h)
            verts.append(tri)
        pairs = [(2 * j, 2 * j + 1) for j in range(self.num_arcs)]
        return fg.Fatgraph(verts, pairs)


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
    return dual_triangulation(graph, fg.Orientation(graph, orientation_after.tails))


# -- the brute-force window oracle ---------------------------------------------
#
# The flip neighbourhood of the skinny surface, cut down to the six arcs that
# cross the quadrilateral, with port stubs on the four leaves.  For every
# pre-flip state it finds, by trying all 32, the post-flip states of the five
# local edges that keep each arc's contribution to the quadratic form; the
# tests hold the rule in `fg.flip` against it.

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


def rule_in_window(e_tag, leaf_bits):
    """The post-flip window state (tail tag, inward flags) that `fg.flip`
    writes for a pre-flip state, read off edge 0 of the genus-two spine,
    whose four leaves are distinct edges."""
    g = fg.genus_two_spine()
    h_eu, h_ew = g.edges[0]
    leaves = (g.sigma(h_eu), g.sigma_inv(h_eu), g.sigma(h_ew), g.sigma_inv(h_ew))
    assert len({g.edge_of(h) for h in leaves} | {0}) == 5
    tails = [pair[0] for pair in g.edges]
    tails[0] = h_eu if e_tag == "EU" else h_ew
    for h, inward in zip(leaves, leaf_bits):
        tails[g.edge_of(h)] = g.partner(h) if inward else h
    out = fg.flip(g, 0, fg.Orientation(g, tails)).orientation
    tail = "ET" if out.tail(0) == h_eu else "EB"
    return tail, tuple(out.tail(g.edge_of(h)) == g.partner(h) for h in leaves)


class TestFatgraph:
    def test_spine_invariants(self):
        expected = {
            "theta": (2, 3, 1, 1),
            "dumbbell": (2, 3, 0, 3),
            "four_puncture": (4, 6, 0, 4),
            "genus_two": (6, 9, 2, 1),
        }
        for name, make in SPINES.items():
            g = make()
            v, e, genus, punctures = expected[name]
            assert g.num_vertices == v
            assert g.num_edges == e
            assert g.genus == genus
            assert g.punctures == punctures

    def test_theta_boundary_is_one_hexagonal_orbit(self):
        g = fg.theta_graph()
        orbits = g.boundary_orbits()
        assert len(orbits) == 1
        assert len(orbits[0]) == 6

    def test_sigma_and_partner(self):
        g = fg.theta_graph()
        assert g.sigma(0) == 2 and g.sigma(2) == 4 and g.sigma(4) == 0
        assert g.partner(0) == 1 and g.vertex_of(3) == 1 and g.edge_of(5) == 2

    def test_rejects_non_trivalent(self):
        with pytest.raises(ValueError, match="^vertex 0 has 2 half-edges, not 3$"):
            fg.Fatgraph([(0, 1), (2, 3)], [(0, 2), (1, 3)])

    def test_rejects_bad_involution(self):
        with pytest.raises(ValueError, match=r"^edge 0 is \(0, 0\), not a pair of two distinct"):
            fg.Fatgraph([(0, 1, 2), (3, 4, 5)], [(0, 0), (1, 2), (3, 4)])

    def test_rejects_missing_half_edge(self):
        with pytest.raises(ValueError, match="^half-edge 5 appears 0 times in the vertex triples"):
            fg.Fatgraph([(0, 1, 2), (3, 4, 6)], [(0, 3), (1, 4), (2, 6)])

    def test_rejects_repeated_half_edge(self):
        with pytest.raises(ValueError, match="^half-edge 1 appears 2 times in the edges"):
            fg.Fatgraph([(0, 1, 2), (3, 4, 5)], [(0, 1), (1, 2), (3, 4)])

    def test_rejects_half_edge_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^half-edge 'a' at vertex 0 \(0, 1, 'a'\) is not an integer$"):
            fg.Fatgraph([(0, 1, "a")], [(0, 1)])
        with pytest.raises(ValueError, match=r"^half-edge None of edge 1 \(None, 5\) is not an integer$"):
            fg.Fatgraph([(0, 1, 2), (3, 4, 5)], [(0, 3), (None, 5), (1, 4)])

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ([(0, 2, 4), (1.0, 3, 5)], [(0, 1), (2, 3), (4, 5)], r"1\.0 at vertex 1 \(1\.0, 3, 5\)"),
            ([(0, 2, 4), (True, 3, 5)], [(0, 1), (2, 3), (4, 5)], r"True at vertex 1 \(True, 3, 5\)"),
            ([(0, 2, 4), (1, 3, 5)], [(0, 1), (2.0, 3), (4, 5)], r"2\.0 of edge 1 \(2\.0, 3\)"),
            ([(0, 2, 4), (1, 3, 5)], [(0, 1), (2, 3), (4, True)], r"True of edge 2 \(4, True\)"),
        ],
        ids=["float-at-vertex", "bool-at-vertex", "float-of-edge", "bool-of-edge"],
    )
    def test_rejects_a_float_or_bool_equal_to_a_half_edge(self, vertices, edges, message):
        with pytest.raises(ValueError, match=r"^half-edge %s is not an integer$" % message):
            fg.Fatgraph(vertices, edges)

    def test_accepts_numpy_integer_half_edges(self):
        g = fg.Fatgraph(
            [tuple(np.int64(h) for h in v) for v in fg.theta_graph().vertices],
            [tuple(np.int64(h) for h in e) for e in fg.theta_graph().edges],
        )
        assert lookups(g) == lookups(fg.theta_graph())

    def test_rejects_half_edge_out_of_range(self):
        with pytest.raises(ValueError, match=r"^half-edge 10 in the vertex triples is not in 0\.\.9$"):
            fg.Fatgraph(
                [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)],
                [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
            )

    def test_cycle_basis_has_even_degrees(self):
        for make in SPINES.values():
            g = make()
            basis = g.cycle_basis()
            assert len(basis) == g.num_edges - g.num_vertices + 1
            for vec in basis:
                for v in range(g.num_vertices):
                    deg = sum(int(vec[g.edge_of(h)]) for h in g.vertices[v])
                    assert deg in (0, 2)

    @pytest.mark.parametrize("graphs", SPINES_AND_RANDOM)
    def test_spanning_tree_from_every_root(self, graphs):
        """The tree reaches each vertex once, level by level, through a
        half-edge of a vertex reached before it.  The fundamental cycle of
        a tree edge is zero; that of any other edge j is a cycle made of j
        and tree edges."""
        for g in graphs():
            for root in range(g.num_vertices):
                tree = g.spanning_tree(root)
                order = list(tree)
                assert sorted(order) == list(range(g.num_vertices))
                assert order[0] == root and tree[root] is None
                depth = {root: 0}
                for v in order[1:]:
                    u = g.vertex_of(tree[v])
                    assert order.index(u) < order.index(v)
                    assert g.vertex_of(g.partner(tree[v])) == v
                    depth[v] = depth[u] + 1
                assert [depth[v] for v in order] == sorted(depth.values())
                tree_edges = {g.edge_of(h) for v, h in tree.items() if v != root}
                assert len(tree_edges) == g.num_vertices - 1
                for j in range(g.num_edges):
                    vec = g.fundamental_cycle(tree, j)
                    if j in tree_edges:
                        assert not vec.any()
                        continue
                    assert vec[j] == 1
                    assert set(np.flatnonzero(vec).tolist()) <= tree_edges | {j}
                    for v in range(g.num_vertices):
                        assert sum(int(vec[g.edge_of(h)]) for h in g.vertices[v]) in (0, 2)

    @pytest.mark.parametrize("root", [-1, 2, True, 0.0])
    def test_spanning_tree_rejects_a_root_that_is_not_a_vertex(self, root):
        with pytest.raises(ValueError, match=r"^root must be a vertex in 0\.\.1, got %s$" % root):
            fg.theta_graph().spanning_tree(root)


class TestOrientation:
    def test_bits_round_trip(self):
        g = fg.theta_graph()
        om = fg.Orientation.from_bits(g, (0, 1, 0))
        assert om.bits == (0, 1, 0)
        assert om.tail(1) == 3 and om.head(1) == 2

    @pytest.mark.parametrize("tails", [(0, 2, 4), tuple(range(0, 20, 2))])
    def test_rejects_tails_not_one_per_edge(self, tails):
        with pytest.raises(ValueError, match="^%d tails given for the 9 edges of the graph$" % len(tails)):
            fg.Orientation(fg.genus_two_spine(), tails)

    def test_compares_unequal_to_what_is_not_an_orientation(self):
        om = fg.Orientation.from_bits(fg.theta_graph(), (0, 1, 0))
        assert om != None  # noqa: E711
        assert om != 3 and not om == 3
        assert om in [None, om] and None not in [om]

    def test_reflection_reverses_incident_edges(self):
        g = fg.dumbbell_graph()
        om = fg.Orientation.from_bits(g, (0, 0, 0))
        r = om.reflect(0)
        # bar reversed once, loop at vertex 0 reversed twice, far loop untouched
        assert r.bits == (1, 0, 0)

    def test_class_counts_match_formula(self):
        for make in SPINES.values():
            g = make()
            classes = fg.orientation_classes(g)
            assert len(classes) == 2 ** (g.num_edges - g.num_vertices + 1)

    @pytest.mark.parametrize("graphs", SPINES_AND_RANDOM)
    def test_classes_match_brute_force_cosets(self, graphs):
        for g in graphs():
            span = {(0,) * g.num_edges}
            for v in range(g.num_vertices):
                row = tuple(int(x) for x in g.incidence_row(v))
                span |= {tuple(a ^ b for a, b in zip(s, row)) for s in span}
            least = {
                min(tuple(a ^ b for a, b in zip(raw, s)) for s in span)
                for raw in itertools.product((0, 1), repeat=g.num_edges)
            }
            assert [om.bits for om in fg.orientation_classes(g)] == sorted(least)

    def test_gf2_solve_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = (int(x) for x in rng.integers(1, 6, size=2))
            rows = rng.integers(0, 2, size=(n, m)).astype(np.uint8)
            target = rng.integers(0, 2, size=m).astype(np.uint8)
            combo, rest, pivots = fg.gf2_solve(rows, target)
            sums = {
                tuple(np.array(x, dtype=np.uint8) @ rows % 2)
                for x in itertools.product((0, 1), repeat=n)
            }
            assert len(pivots) == len(set(pivots)) and 2 ** len(pivots) == len(sums)
            assert not rest[pivots].any()
            assert np.array_equal((combo @ rows + target + rest) % 2, np.zeros(m))
            assert (not rest.any()) == (tuple(target) in sums)

    def test_canonical_form_is_reflection_invariant_and_minimal(self):
        g = fg.theta_graph()
        for raw in itertools.product((0, 1), repeat=3):
            om = fg.Orientation.from_bits(g, raw)
            can = fg.orientation_class(om)
            for v in range(g.num_vertices):
                assert fg.orientation_class(om.reflect(v)).bits == can.bits
            # the canonical bits are the least element of the whole coset
            coset = set()
            for flips in itertools.product((0, 1), repeat=g.num_vertices):
                cur = om
                for v, f in enumerate(flips):
                    if f:
                        cur = cur.reflect(v)
                coset.add(cur.bits)
            assert can.bits == min(coset)
            assert fg.orientation_class(can).bits == can.bits


class TestSkinny:
    def test_theta_cell_counts(self):
        sk = SkinnyGraph(fg.theta_graph())
        assert len(sk.segments) == 6  # two per edge
        assert len(sk.arcs) == 6
        assert len(sk.longs) == 6
        assert len(sk.faces()) == 5  # 2 hexagons + 3 rectangles
        points = {p for key in sk.ends for p in sk.ends[key]}
        assert len(points) == 12

    def test_faces_are_closed_paths(self):
        for make in SPINES.values():
            sk = SkinnyGraph(make())
            for face in sk.faces():
                sk.check_closed(face)

    def test_every_point_has_one_dimer(self):
        sk = SkinnyGraph(fg.four_puncture_spine())
        for key in sk.segments + sk.arcs + sk.longs:
            for p in sk.ends[key]:
                order = sk.ccw_at(p)
                assert key in order
                assert sum(1 for k in order if k[0] == "s") == 1

    def test_kasteleyn_face_parity_all_spines(self):
        for make in SPINES.values():
            g = make()
            sk = SkinnyGraph(g)
            for om in fg.orientation_classes(g):
                assert sk.kasteleyn_defects(sk.kasteleyn(om)) == []

    def test_defect_detector_catches_a_broken_segment(self):
        g = fg.theta_graph()
        sk = SkinnyGraph(g)
        k = sk.kasteleyn(fg.orientation_classes(g)[0])
        key = sk.segments[0]
        k[key] = (k[key][1], k[key][0])
        assert len(sk.kasteleyn_defects(k)) == 2  # its hexagon and rectangle

    def test_fatgraph_reflection_is_six_point_reflections(self):
        g = fg.theta_graph()
        sk = SkinnyGraph(g)
        om = fg.orientation_classes(g)[1]
        k = sk.kasteleyn(om)
        for h in g.vertices[0]:
            for p in (("L", h), ("R", h)):
                k = sk.kasteleyn_reflect(k, p)
        assert k == sk.kasteleyn(om.reflect(0))

    def test_disagreement_cochain_lives_on_long_sides(self):
        g = fg.dumbbell_graph()
        sk = SkinnyGraph(g)
        om1 = fg.Orientation.from_bits(g, (0, 0, 1))
        om2 = fg.Orientation.from_bits(g, (1, 0, 0))
        k1, k2 = sk.kasteleyn(om1), sk.kasteleyn(om2)
        assert all(k1[key] == k2[key] for key in sk.segments)
        assert all(k1[key] == k2[key] for key in sk.arcs)
        for j in range(g.num_edges):
            differ = om1.tails[j] != om2.tails[j]
            for h in g.edges[j]:
                assert (k1[("l", h)] != k2[("l", h)]) == differ


class TestQuadraticForm:
    def test_face_boundaries_are_even(self):
        for make in (fg.theta_graph, fg.four_puncture_spine):
            g = make()
            om = fg.orientation_classes(g)[0]
            q = SkinnyForm(g, om)
            sk = q.skinny
            for v in range(g.num_vertices):
                assert q.value_of_curves([sk.hexagon_boundary(v)]) == 0
            for e in range(g.num_edges):
                assert q.value_of_curves([sk.rectangle_boundary(e)]) == 0

    def test_orientation_of_another_graph_size_rejected(self):
        g, theta = fg.genus_two_spine(), fg.theta_graph()
        om = fg.Orientation.from_bits(theta, [0, 0, 0])
        with pytest.raises(ValueError, match="^orientation has 3 edges, the fatgraph 9$"):
            fg.QuadraticForm(g, om)

    def test_orientation_with_a_foreign_tail_rejected(self):
        """A theta orientation on a graph of three edges paired otherwise:
        edge 0 = (0, 3) holds theta's tail 0, edge 1 = (1, 4) not its tail 2."""
        g = fg.Fatgraph([(0, 1, 2), (3, 4, 5)], [(0, 3), (1, 4), (2, 5)])
        om = fg.Orientation.from_bits(fg.theta_graph(), [0, 0, 0])
        with pytest.raises(ValueError, match="^orientation's tail 2 is not a half-edge of edge 1 of the fatgraph$"):
            fg.QuadraticForm(g, om)

    def test_zero_class_is_even(self):
        g = fg.theta_graph()
        q = fg.QuadraticForm(g, fg.orientation_classes(g)[0])
        assert q.value(np.zeros(3, dtype=np.uint8)) == 0

    @pytest.mark.parametrize(
        "name, genus, counts", [("theta", 1, {3: 3, 1: 1}), ("genus_two", 2, {10: 10, 6: 6})]
    )
    def test_zero_counts_are_arf_counts(self, name, genus, counts):
        """On a spine with one puncture the span of the cycle basis is H1
        of the closed surface, where a quadratic form of Arf invariant 0
        has 2^(2g-1) + 2^(g-1) zeros and one of Arf invariant 1 has
        2^(2g-1) - 2^(g-1) (Johnson 1980): counted for each class."""
        g = SPINES[name]()
        assert (g.genus, g.punctures) == (genus, 1)
        basis = g.cycle_basis()
        choices = itertools.product((0, 1), repeat=len(basis))
        span = [sum(c * b for c, b in zip(choice, basis)) % 2 for choice in choices]
        found = collections.Counter()
        for om in fg.orientation_classes(g):
            q = fg.QuadraticForm(g, om)
            zeros = sum(1 - q.value(v) for v in span)
            assert zeros in (2 ** (2 * genus - 1) + 2 ** (genus - 1), 2 ** (2 * genus - 1) - 2 ** (genus - 1))
            found[zeros] += 1
        assert found == counts

    def test_theta_classes_give_four_distinct_forms(self):
        g = fg.theta_graph()
        idents = {fg.spin_class(g, om) for om in fg.orientation_classes(g)}
        assert len(idents) == 4
        assert idents == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_identifier_constant_on_a_class(self):
        g = fg.theta_graph()
        for raw in itertools.product((0, 1), repeat=3):
            om = fg.Orientation.from_bits(g, raw)
            assert fg.spin_class(g, om) == fg.spin_class(g, om.reflect(0))
            assert fg.spin_class(g, om) == fg.spin_class(g, om.reflect(1))

    def test_quadratic_relation_on_all_basis_pairs(self):
        for make in (fg.theta_graph, fg.four_puncture_spine):
            g = make()
            basis = g.cycle_basis()
            for om in fg.orientation_classes(g):
                q = fg.QuadraticForm(g, om)
                for a, b in itertools.combinations(basis, 2):
                    lhs = q.value(a ^ b)
                    rhs = (q.value(a) + q.value(b) + intersection_mod2(g, a, b)) % 2
                    assert lhs == rhs

    def test_theta_arf_counts(self):
        g = fg.theta_graph()
        a, b = g.cycle_basis()
        assert intersection_mod2(g, a, b) == 1
        arfs = []
        for om in fg.orientation_classes(g):
            q = fg.QuadraticForm(g, om)
            arfs.append(q.value(a) & q.value(b))
        assert sorted(arfs) == [0, 0, 0, 1]

    def test_self_intersection_vanishes(self):
        g = fg.genus_two_spine()
        for vec in g.cycle_basis():
            assert intersection_mod2(g, vec, vec) == 0

    def test_value_independent_of_representative(self):
        # the skinny boundary curve and the canonical realization of the
        # puncture class are different edge-paths in the same class
        for make in SPINES.values():
            g = make()
            for om in fg.orientation_classes(g):
                q, skinny = fg.QuadraticForm(g, om), SkinnyForm(g, om)
                for orbit in g.boundary_orbits():
                    curve = []
                    for h in orbit:
                        curve.append((("a", h), True))
                        curve.append((("l", g.sigma(h)), True))
                    assert skinny.value_of_curves([curve]) == q.value(g.puncture_vector(orbit))

    def test_open_curves_rejected(self):
        g = fg.theta_graph()
        q = SkinnyForm(g, fg.orientation_classes(g)[0])
        curve = q.skinny.realize_cycle(g.cycle_basis()[0])[0]
        hexagon = q.skinny.hexagon_boundary(0)
        for bad in (curve[:-1], curve[1:], hexagon[:3] + hexagon[4:]):
            with pytest.raises(ValueError, match="not a closed edge-path"):
                q.value_of_curves([bad])
            with pytest.raises(ValueError, match="not a closed edge-path"):
                q.value_of_curves([hexagon, bad])

    def test_value_independent_of_direction(self):
        g = fg.theta_graph()
        om = fg.orientation_classes(g)[2]
        q = SkinnyForm(g, om)
        for vec in g.cycle_basis():
            curve = q.skinny.realize_cycle(vec)[0]
            reversed_curve = [(key, not fwd) for key, fwd in reversed(curve)]
            assert q.value_of_curves([curve]) == q.value_of_curves([reversed_curve])

    def test_torsor_free_and_transitive(self):
        g = fg.theta_graph()
        classes = fg.orientation_classes(g)
        ids = {om.bits: fg.spin_class(g, om) for om in classes}
        for eta in itertools.product((0, 1), repeat=3):
            image = [fg.spin_class(g, om.flip_edges(np.flatnonzero(eta))) for om in classes]
            assert len(set(image)) == 4
        for om1 in classes:
            for om2 in classes:
                hits = [
                    eta
                    for eta in itertools.product((0, 1), repeat=3)
                    if fg.spin_class(g, om1.flip_edges(np.flatnonzero(eta))) == ids[om2.bits]
                ]
                assert len(hits) == 2  # cochains over a class: 2^(V-1)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_reversing_an_edge_adds_its_bit(self, name):
        # the fact the flip's GF(2) solve rests on: q changes on x by c.x
        g = SPINES[name]()
        for om in fg.orientation_classes(g):
            q = fg.QuadraticForm(g, om)
            for j in range(g.num_edges):
                qj = fg.QuadraticForm(g, om.flip_edges([j]))
                for x in q.basis:
                    assert qj.value(x) == q.value(x) ^ x[j]

    def test_ramond_count_is_even(self):
        for make in SPINES.values():
            g = make()
            for om in fg.orientation_classes(g):
                types = fg.puncture_types(g, om)
                assert len(types) == g.punctures
                assert types.count("R") % 2 == 0

    def test_dumbbell_sees_ramond_punctures(self):
        g = fg.dumbbell_graph()
        counts = {
            fg.puncture_types(g, om).count("R") for om in fg.orientation_classes(g)
        }
        assert 2 in counts


def oracle_cases(graphs, seed):
    """(graph, orientation, vectors) for every orientation class of each
    graph: the cycle basis, every puncture vector and eight random sums of
    basis vectors."""
    rng = np.random.default_rng(seed)
    for g in graphs:
        basis = np.array(g.cycle_basis())
        punctures = [g.puncture_vector(o) for o in g.boundary_orbits()]
        for om in fg.orientation_classes(g):
            sums = rng.integers(0, 2, size=(8, len(basis))) @ basis % 2
            yield g, om, list(basis) + punctures + list(sums)


ORACLE_GRAPHS = [
    pytest.param(lambda: [make() for make in SPINES.values()], id="spines"),
    pytest.param(lambda: random_graphs(44, 4, 6), id="random-V4"),
    pytest.param(lambda: random_graphs(46, 6, 4), id="random-V6"),
    pytest.param(lambda: random_graphs(48, 8, 3), id="random-V8"),
]


class TestTurnRule:
    """`QuadraticForm.value` reads q off the fatgraph's turns and arrows;
    the skinny-surface count is its oracle."""

    @pytest.mark.parametrize("graphs", ORACLE_GRAPHS)
    def test_rule_matches_the_skinny_oracle(self, graphs):
        odd = 0
        for g, om, vectors in oracle_cases(graphs(), seed=13):
            q, skinny = fg.QuadraticForm(g, om), SkinnyForm(g, om)
            for x in vectors:
                assert q.value(x) == skinny.value(x)
                odd += int(x.sum()) % 2
        # sigma- and sigma^2-turns, or arrows along and against, differ in
        # parity only on cycles of odd length
        assert odd >= 10

    @pytest.mark.parametrize("graphs", SPINES_AND_RANDOM)
    def test_ramond_exactly_when_evenly_many_edges_run_along_their_arrow(self, graphs):
        # a boundary orbit walks h -> partner(sigma h) over the edge of sigma h
        seen = set()
        for g in graphs():
            for om in fg.orientation_classes(g):
                types = fg.puncture_types(g, om)
                for orbit, kind in zip(g.boundary_orbits(), types):
                    along = sum(om.tail(g.edge_of(g.sigma(h))) == g.sigma(h) for h in orbit)
                    assert kind == ("R" if along % 2 == 0 else "NS")
                    seen.add(kind)
        assert seen == {"R", "NS"}

    @pytest.mark.parametrize(
        "vec, message",
        [
            ([1, 1, 0, 1, 1], r"^cycle vector has shape \(5,\), not \(3,\)"),
            ([1, 1], r"^cycle vector has shape \(2,\), not \(3,\)"),
            ([[1, 1, 0]], r"^cycle vector has shape \(1, 3\), not \(3,\)"),
            ([2, 2, 0], r"^cycle vector has entry 2 at edge 0, not 0 or 1$"),
            ([1, -1, 0], r"^cycle vector has entry -1 at edge 1, not 0 or 1$"),
            ([1, 0.5, 1], r"^cycle vector has entry 0.5 at edge 1, not 0 or 1$"),
        ],
    )
    def test_value_rejects_malformed_vectors(self, vec, message):
        g = fg.theta_graph()
        q = fg.QuadraticForm(g, fg.orientation_classes(g)[0])
        with pytest.raises(ValueError, match=message):
            q.value(vec)

    def test_value_accepts_bools_and_wider_integers(self):
        g = fg.theta_graph()
        q = fg.QuadraticForm(g, fg.orientation_classes(g)[1])
        want = q.value(np.array([1, 1, 0], dtype=np.uint8))
        assert q.value([True, True, False]) == want
        assert q.value(np.array([1, 1, 0], dtype=np.int64)) == want

    @pytest.mark.parametrize(
        "make, vec, vertex, degree",
        [
            (fg.theta_graph, [1, 0, 0], 0, 1),
            (fg.theta_graph, [1, 1, 1], 0, 3),
            (fg.genus_two_spine, [0, 0, 0, 1, 0, 0, 0, 0, 0], 1, 1),
        ],
    )
    def test_value_names_the_vertex_of_odd_degree(self, make, vec, vertex, degree):
        g = make()
        q = fg.QuadraticForm(g, fg.orientation_classes(g)[0])
        with pytest.raises(
            ValueError,
            match="^edge vector is not a mod-2 cycle: vertex %d has degree %d in it, not 0 or 2$"
            % (vertex, degree),
        ):
            q.value(vec)

    def test_transport_rejects_entries_outside_zero_one(self):
        g = fg.genus_two_spine()
        res = fg.flip(g, 0, fg.Orientation.from_bits(g, [0] * g.num_edges))
        with pytest.raises(ValueError, match="^cycle vector has entry 3 at edge 4, not 0 or 1$"):
            res.transport([1, 0, 1, 0, 3, 0, 0, 0, 0])


class TestFlipRule:
    def test_oracle_solutions_form_one_reflection_orbit(self):
        for e_tag in ("EU", "EW"):
            for bits in itertools.product((True, False), repeat=4):
                sols = window_solutions(e_tag, bits)
                assert len(sols) == 4
                orbit = set(sols)
                for s in sols:
                    assert _window_reflect_top(s) in orbit
                    assert _window_reflect_bottom(s) in orbit

    def test_oracle_rule_in_canonical_gauge(self):
        # with NW inward and the edge at the top vertex, only SW reverses
        table = flip_rule_oracle()
        for (e_tag, bits), sols in table.items():
            if e_tag != "EU" or not bits[0]:
                continue
            tail, out = sols[0]
            assert tail == "ET"
            assert out == (bits[0], not bits[1], bits[2], bits[3])

    def test_rule_is_a_window_solution(self):
        for e_tag in ("EU", "EW"):
            for bits in itertools.product((True, False), repeat=4):
                assert rule_in_window(e_tag, bits) in window_solutions(e_tag, bits)

    @pytest.mark.parametrize("graphs", SPINES_AND_RANDOM)
    def test_flip_keeps_every_tail_but_leaf_c(self, graphs):
        rng = np.random.default_rng(5)
        for g in graphs():
            om = fg.Orientation.from_bits(g, rng.integers(0, 2, size=g.num_edges))
            for e in flippable(g):
                res = fg.flip(g, e, om)
                leaf_c = g.edge_of(g.sigma(g.sigma(om.tail(e))))
                moved = [j for j in range(g.num_edges) if res.orientation.tails[j] != om.tails[j]]
                assert moved == [leaf_c]
                assert res.orientation.tail(leaf_c) == om.head(leaf_c)

    @pytest.mark.parametrize("num_vertices, count", [(4, 30), (6, 20), (8, 10)])
    def test_rule_matches_the_gf2_solve(self, num_vertices, count):
        rng = np.random.default_rng(20 + num_vertices)
        coinciding = 0
        for g in random_graphs(30 + num_vertices, num_vertices, count):
            om = fg.Orientation.from_bits(g, rng.integers(0, 2, size=g.num_edges))
            for e in flippable(g):
                res = fg.flip(g, e, om)
                solved = solved_flip_class(g, om, res)
                assert fg.orientation_class(res.orientation).bits == solved.bits
                coinciding += coinciding_leaves(g, e)
        assert coinciding >= count

    def test_flip_preserves_spin_identifiers(self):
        for name in ("theta", "dumbbell", "four_puncture"):
            g = SPINES[name]()
            basis = g.cycle_basis()
            for om in fg.orientation_classes(g):
                q = fg.QuadraticForm(g, om)
                before = [q.value(b) for b in basis]
                for e in flippable(g):
                    res = fg.flip(g, e, om)
                    q2 = fg.QuadraticForm(res.graph, res.orientation)
                    after = [q2.value(res.transport(b)) for b in basis]
                    assert before == after

    def test_flip_preserves_spin_identifiers_genus_two(self):
        g = fg.genus_two_spine()
        basis = g.cycle_basis()
        for om in fg.orientation_classes(g)[:4]:
            q = fg.QuadraticForm(g, om)
            before = [q.value(b) for b in basis]
            for e in flippable(g):
                res = fg.flip(g, e, om)
                q2 = fg.QuadraticForm(res.graph, res.orientation)
                assert before == [q2.value(res.transport(b)) for b in basis]

    def test_generic_flip_matches_defining_property(self):
        g = fg.genus_two_spine()
        om = fg.orientation_classes(g)[5]
        for e in flippable(g)[:4]:
            res = fg.flip(g, e, om)
            matches = search_flip_class(g, om, res)
            assert len(matches) == 1
            assert fg.orientation_class(res.orientation).bits == matches[0].bits

    @pytest.mark.parametrize("num_vertices, count", [(4, 40), (6, 30)])
    def test_coinciding_leaves_match_the_class_search(self, num_vertices, count):
        rng = np.random.default_rng(10 + num_vertices)
        hits = 0
        for g in random_graphs(num_vertices, num_vertices, count):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=g.num_edges))
            om = fg.Orientation.from_bits(g, bits)
            for e in flippable(g):
                if not coinciding_leaves(g, e):
                    continue
                hits += 1
                res = fg.flip(g, e, om)
                matches = search_flip_class(g, om, res)
                assert len(matches) == 1
                assert fg.orientation_class(res.orientation).bits == matches[0].bits
        assert hits >= count

    def test_long_walk_keeps_the_form(self):
        # V=8, E=12: far past what trying all 2^E orientations allows
        rng = np.random.default_rng(8)
        g = random_fatgraph(rng, 8)
        om = fg.Orientation.from_bits(g, rng.integers(0, 2, size=g.num_edges))
        shape = (g.genus, g.punctures)
        for _ in range(20):
            e = int(rng.choice(flippable(g)))
            res = fg.flip(g, e, om)
            q, q2 = fg.QuadraticForm(g, om), fg.QuadraticForm(res.graph, res.orientation)
            assert [q.value(b) for b in q.basis] == [q2.value(res.transport(b)) for b in q.basis]
            g, om = res.graph, res.orientation
            assert (g.genus, g.punctures) == shape

    def test_double_flip_is_isomorphic_with_stable_form(self):
        g = fg.theta_graph()
        basis = g.cycle_basis()
        for om in fg.orientation_classes(g):
            r1 = fg.flip(g, 0, om)
            r2 = fg.flip(r1.graph, 0, r1.orientation)
            assert fg.is_isomorphic(g, r2.graph)
            q0 = fg.QuadraticForm(g, om)
            q2 = fg.QuadraticForm(r2.graph, r2.orientation)
            moved = [r2.transport(r1.transport(b)) for b in basis]
            assert [q0.value(b) for b in basis] == [q2.value(x) for x in moved]

    def test_transported_vectors_stay_cycles(self):
        g = fg.four_puncture_spine()
        om = fg.orientation_classes(g)[0]
        for e in flippable(g):
            res = fg.flip(g, e, om)
            for vec in g.cycle_basis():
                out = res.transport(vec)
                for v in range(res.graph.num_vertices):
                    deg = sum(int(out[res.graph.edge_of(h)]) for h in res.graph.vertices[v])
                    assert deg in (0, 2)

    def test_loop_flip_rejected(self):
        g = fg.dumbbell_graph()
        om = fg.orientation_classes(g)[0]
        with pytest.raises(ValueError, match="loop edge 1$"):
            fg.flip(g, 1, om)

    @pytest.mark.parametrize("e", [-1, 9])
    def test_flip_rejects_edge_out_of_range(self, e):
        g = fg.genus_two_spine()
        om = fg.Orientation.from_bits(g, [0] * g.num_edges)
        with pytest.raises(ValueError, match=r"^edge must be in 0\.\.8, got %d$" % e):
            fg.flip(g, e, om)

    def test_flip_rejects_orientation_of_another_graph_size(self):
        g, theta = fg.genus_two_spine(), fg.theta_graph()
        om = fg.Orientation.from_bits(theta, [0] * theta.num_edges)
        with pytest.raises(ValueError, match="^orientation has 3 edges, the fatgraph 9$"):
            fg.flip(g, 0, om)

    def test_flip_rejects_orientation_of_a_graph_with_other_edges(self):
        g = fg.theta_graph()
        other = fg.Fatgraph(g.vertices, [(0, 1), (2, 5), (3, 4)])
        om = fg.Orientation.from_bits(other, (0, 0, 0))
        with pytest.raises(
            ValueError,
            match=r"^orientation is of another fatgraph: its edge 1 is \(2, 5\), the fatgraph's \(2, 3\)$",
        ):
            fg.flip(g, 0, om)

    def test_flip_accepts_orientation_of_another_graph_with_equal_edges(self):
        theta, dumbbell = fg.theta_graph(), fg.dumbbell_graph()
        assert theta.edges == dumbbell.edges and theta.edges is not dumbbell.edges
        for bits in itertools.product((0, 1), repeat=3):
            res = fg.flip(theta, 0, fg.Orientation.from_bits(dumbbell, bits))
            own = fg.flip(theta, 0, fg.Orientation.from_bits(theta, bits))
            assert res.orientation.graph is res.graph
            assert res.orientation.tails == own.orientation.tails
            assert res.graph.vertices == own.graph.vertices

    def test_transport_rejects_vector_of_wrong_length(self):
        g = fg.genus_two_spine()
        res = fg.flip(g, 0, fg.Orientation.from_bits(g, [0] * g.num_edges))
        with pytest.raises(ValueError, match=r"^cycle vector has shape \(3,\), not \(9,\)"):
            res.transport([1, 0, 1])

    def test_flip_result_graph_shape(self):
        g = fg.theta_graph()
        res = fg.flip(g, 1, fg.orientation_classes(g)[0])
        assert res.graph.num_edges == 3
        assert res.graph.num_vertices == 2
        assert res.graph.genus == 1 and res.graph.punctures == 1


def lookups(graph):
    """Every per-half-edge and per-edge lookup of the graph, as plain data."""
    halves = range(2 * graph.num_edges)
    return (
        [graph.sigma(h) for h in halves],
        [graph.sigma_inv(h) for h in halves],
        [graph.partner(h) for h in halves],
        [graph.vertex_of(h) for h in halves],
        [graph.edge_of(h) for h in halves],
        [graph.is_loop(j) for j in range(graph.num_edges)],
        graph.boundary_orbits(),
        [tuple(int(x) for x in vec) for vec in graph.cycle_basis()],
    )


class TestRewiring:
    """`flip` builds its graph by rewiring two vertices of the old one, with
    the edge tables shared; it must agree with a fully checked rebuild and
    leave the old graph as it was."""

    @pytest.mark.parametrize("num_vertices, seed", [(6, 61), (8, 81)])
    def test_walk_matches_a_checked_rebuild(self, num_vertices, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            g = random_fatgraph(rng, num_vertices)
            om = fg.Orientation.from_bits(g, rng.integers(0, 2, size=g.num_edges))
            for _ in range(20):
                before = lookups(g)
                res = fg.flip(g, int(rng.choice(flippable(g))), om)
                rebuilt = fg.Fatgraph(res.graph.vertices, res.graph.edges)
                assert lookups(res.graph) == lookups(rebuilt)
                assert lookups(g) == before
                g, om = res.graph, res.orientation

    @pytest.mark.parametrize("num_vertices", [4, 6, 8])
    def test_walk_tables_match_the_checked_constructors(self, num_vertices):
        """Along seeded walks of 30 flips, the rewired graph's four
        half-edge tables equal those the checked constructor builds, the
        flip's orientation equals the checked one on the same tails and
        differs from the old one at leaf c alone, and the edges are shared."""
        rng = np.random.default_rng(400 + num_vertices)
        for _ in range(3):
            g = random_fatgraph(rng, num_vertices)
            om = fg.Orientation.from_bits(g, rng.integers(0, 2, size=g.num_edges))
            for _ in range(30):
                e = int(rng.choice(flippable(g)))
                res = fg.flip(g, e, om)
                rebuilt = fg.Fatgraph(res.graph.vertices, res.graph.edges)
                for table in ("_vertex_of", "_sigma", "_edge_of", "_partner"):
                    assert getattr(res.graph, table) == getattr(rebuilt, table), table
                assert res.orientation == fg.Orientation(res.graph, res.orientation.tails)
                tails = list(om.tails)
                leaf_c = g.edge_of(g.sigma_inv(om.tail(e)))
                tails[leaf_c] = g.partner(tails[leaf_c])
                assert res.orientation.tails == tuple(tails)
                assert res.graph.edges is g.edges
                g, om = res.graph, res.orientation

    def test_rejects_triples_without_the_old_half_edges(self):
        g = fg.genus_two_spine()
        # vertices 0 and 3 hold half-edges 0, 2, 4 and 1, 7, 13
        for tri_u, tri_w in [
            ((0, 2, 4), (1, 7, 5)),
            ((0, 2, 4), (1, 7, 7)),
            ((0, 2), (4, 1, 7, 13)),
        ]:
            with pytest.raises(ValueError, match="at vertex 0 and .* at vertex 3 do not hold"):
                g._rewired(0, tri_u, 3, tri_w)
        with pytest.raises(ValueError, match="at vertex 0 and .* at vertex 0 do not hold"):
            g._rewired(0, (0, 2, 4), 0, (4, 2, 0))
        assert g._rewired(0, (4, 2, 0), 3, (13, 7, 1)).vertices[0] == (4, 2, 0)


class TestDual:
    def test_theta_dual_counts(self):
        g = fg.theta_graph()
        tri = dual_triangulation(g, fg.orientation_classes(g)[0])
        assert len(tri.triangles) == 2
        assert tri.num_arcs == 3

    def test_dual_of_dual_is_isomorphic(self):
        for make in SPINES.values():
            g = make()
            tri = dual_triangulation(g, fg.orientation_classes(g)[0])
            assert fg.is_isomorphic(g, tri.to_fatgraph())

    def test_arc_direction_follows_edge_orientation(self):
        g = fg.dumbbell_graph()
        om = fg.orientation_classes(g)[0]
        tri1 = dual_triangulation(g, om)
        tri2 = dual_triangulation(g, om.flip_edges([0]))
        assert tri1.arc_faces[0] == tuple(reversed(tri2.arc_faces[0]))

    def test_flip_commutes_with_dualization(self):
        for name, e in (("theta", 1), ("four_puncture", 2)):
            g = SPINES[name]()
            om = fg.orientation_classes(g)[1]
            tri = dual_triangulation(g, om)
            res = fg.flip(g, e, om)
            after = dual_triangulation(res.graph, res.orientation)
            exchanged = exchange_arc(tri, e, res.orientation)
            assert after.triangles == exchanged.triangles
            assert after.arc_faces == exchanged.arc_faces

    def test_exchange_rejects_doubled_arc(self):
        g = fg.dumbbell_graph()
        tri = dual_triangulation(g, fg.orientation_classes(g)[0])
        with pytest.raises(ValueError):
            exchange_arc(tri, 1, fg.orientation_classes(g)[0])


class TestIsomorphism:
    def test_distinguishes_spines(self):
        assert not fg.is_isomorphic(fg.theta_graph(), fg.dumbbell_graph())
        assert fg.is_isomorphic(fg.theta_graph(), fg.theta_graph())

    def test_relabeled_graph_is_isomorphic(self):
        g = fg.four_puncture_spine()
        perm = {h: (h + 2) % 12 for h in range(12)}
        verts = [tuple(perm[h] for h in v) for v in g.vertices]
        edges = [tuple(perm[h] for h in e) for e in g.edges]
        assert fg.is_isomorphic(g, fg.Fatgraph(verts, edges))


class TestSerialization:
    def test_round_trip_with_orientation(self):
        g = fg.genus_two_spine()
        for om in fg.orientation_classes(g)[:3]:
            text = fg.write_fatgraph(g, om)
            g2, om2 = fg.parse_fatgraph(text)
            assert g2.vertices == g.vertices
            assert g2.edges == g.edges
            assert om2.tails == om.tails

    def test_round_trip_without_orientation(self):
        g = fg.dumbbell_graph()
        g2, om2 = fg.parse_fatgraph(fg.write_fatgraph(g))
        assert g2.vertices == g.vertices and om2 is None

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            fg.parse_fatgraph("v0: h0 h1 h2\n")

    def test_rejects_an_unrecognized_line_quoting_it(self):
        text = "fatgraph v1\nv0: h0 h2 h4\nv1: h1 h3 h5\nx0: h0 h1\ne1: h2 h3\ne2: h4 h5\n"
        with pytest.raises(ValueError, match="^unrecognized line 'x0: h0 h1'$"):
            fg.parse_fatgraph(text)

    def test_rejects_bad_tokens(self):
        text = "fatgraph v1\nv0: h0 h2 h4\nv1: h1 h3 h5\ne0: h0 x1\ne1: h2 h3\ne2: h4 h5\n"
        with pytest.raises(ValueError):
            fg.parse_fatgraph(text)

    def test_rejects_incomplete_orient(self):
        g = fg.theta_graph()
        text = fg.write_fatgraph(g, fg.orientation_classes(g)[0])
        text = text.replace("orient: e0 h0 e1 h2 e2 h4", "orient: e0 h0")
        with pytest.raises(ValueError):
            fg.parse_fatgraph(text)

    def test_orient_tail_must_belong_to_edge(self):
        g = fg.theta_graph()
        with pytest.raises(ValueError):
            fg.Orientation(g, (0, 2, 2))
