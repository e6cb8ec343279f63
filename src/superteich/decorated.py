"""Decorated coordinate charts on a trivalent fatgraph: even lambda-length
per edge, odd mu-invariant per vertex (the dual triangle), an edge
orientation tracking the odd sign sheet, and a global sign gauge bit.

The module implements the super Ptolemy flip on charts, the recursive
light-cone lift of a chart (one breadth-first level at a time), holonomy
representations built from a fundamental domain, and the even two-form with
its flip-invariance checker (graded chain-rule pullback)."""

import collections

import numpy as np

from . import _kernels
from . import fatgraph_spin as fg
from . import superlinalg as sl
from .grassmann import (
    DEFAULT_RANK,
    GrassmannNumber,
    common_rank,
    format_grassmann,
    grassmann,
    odd_derivative,
    parse_grassmann,
)
from .minkowski import (
    ElementError,
    SuperVector,
    _far_spinor,
    _square,
    act,
    mu_invariant,
    normalize_triple,
    pairing,
    ptolemy_even,
    ptolemy_odd,
)

EQ_TOL = 1e-9

# finite-difference step for even partial derivatives, relative to the body
FD_STEP = 1e-6

ROOT2 = float(np.sqrt(2.0))


def _even_coord(x, rank, what):
    x = grassmann(x, rank)
    if not x.is_even():
        raise ValueError("%s must be Grassmann even" % what)
    if x.body <= 0:
        raise ValueError("%s needs a positive body, got %g" % (what, x.body))
    return x


def _odd_coord(x, rank, what):
    x = grassmann(x, rank)
    if not x.is_odd():
        raise ValueError("%s must be Grassmann odd" % what)
    return x


class DecoratedCoords:
    """A decorated chart: lambdas per edge, mus per vertex, an Orientation
    and a sign gauge in {+1, -1}."""

    __slots__ = ("graph", "lambdas", "mus", "orientation", "gauge", "rank")

    def __init__(self, graph, lambdas, mus, orientation, gauge=1, rank=None):
        if len(lambdas) != graph.num_edges:
            raise ValueError("need one lambda-length per edge")
        if len(mus) != graph.num_vertices:
            raise ValueError("need one mu-invariant per vertex")
        if orientation.graph is not graph and orientation.graph.vertices != graph.vertices:
            raise ValueError("orientation belongs to a different fatgraph")
        if gauge not in (1, -1):
            raise ValueError("gauge must be +1 or -1")
        rank = common_rank(list(lambdas) + list(mus), rank)
        self.graph = graph
        self.lambdas = tuple(
            _even_coord(x, rank, "lambda[%d]" % j) for j, x in enumerate(lambdas)
        )
        self.mus = tuple(_odd_coord(x, rank, "mu[%d]" % v) for v, x in enumerate(mus))
        self.orientation = orientation
        self.gauge = gauge
        self.rank = rank

    def replace(self, lambdas=None, mus=None, orientation=None, gauge=None):
        return DecoratedCoords(
            self.graph,
            self.lambdas if lambdas is None else lambdas,
            self.mus if mus is None else mus,
            self.orientation if orientation is None else orientation,
            self.gauge if gauge is None else gauge,
            rank=self.rank,
        )

    def flip_gauge(self):
        return self.replace(gauge=-self.gauge)

    def reflect_vertex(self, v):
        """Resign the chart at one vertex: reverse its incident edges and
        negate its mu-invariant.  A pure gauge move."""
        mus = list(self.mus)
        mus[v] = -mus[v]
        return self.replace(mus=mus, orientation=self.orientation.reflect(v))

    def isclose(self, other, tol=EQ_TOL):
        if self.graph.vertices != other.graph.vertices or self.graph.edges != other.graph.edges:
            return False
        if self.orientation.tails != other.orientation.tails or self.gauge != other.gauge:
            return False
        return all(a.isclose(b, tol) for a, b in zip(self.lambdas, other.lambdas)) and all(
            a.isclose(b, tol) for a, b in zip(self.mus, other.mus)
        )


def standard_chart(graph, orientation=None, odd="generators", rank=DEFAULT_RANK):
    """Unit lambda-lengths with mus either distinct generators or zero."""
    if orientation is None:
        orientation = fg.Orientation.from_bits(graph, (0,) * graph.num_edges)
    one = GrassmannNumber.scalar(1.0, rank)
    if odd == "generators":
        if graph.num_vertices > rank:
            raise ValueError("rank too small for one generator per vertex")
        mus = [GrassmannNumber.generator(v + 1, rank) for v in range(graph.num_vertices)]
    elif odd == "zero":
        mus = [GrassmannNumber(rank) for _ in range(graph.num_vertices)]
    else:
        raise ValueError("odd must be 'generators' or 'zero'")
    return DecoratedCoords(graph, [one] * graph.num_edges, mus, orientation, 1, rank=rank)


# -- gauge classes -------------------------------------------------------------


def _reflection_solution(graph, target_bits):
    """Vertex set whose reflections reverse exactly the target edges,
    normalized to exclude vertex 0 (reflecting every vertex reverses
    nothing)."""
    rows = [graph.incidence_row(v) for v in range(graph.num_vertices)]
    combo, rest, _ = fg.gf2_solve(rows, target_bits)
    if rest.any():
        raise ValueError("orientations differ by more than vertex reflections")
    if combo[0]:
        combo ^= 1
    return [v for v in range(graph.num_vertices) if combo[v]]


def canonical_gauge(coords):
    """Deterministic representative of the gauge class: canonical
    orientation representative, gauge bit +1, and the first significant mu
    coefficient made positive.  Gauge-equivalent charts map to equal charts."""
    graph = coords.graph
    can = fg.orientation_class(coords.orientation)
    delta_bits = tuple(
        a ^ b for a, b in zip(coords.orientation.bits, can.bits)
    )
    flips = _reflection_solution(graph, delta_bits)
    mus = list(coords.mus)
    for v in flips:
        mus[v] = -mus[v]
    if coords.gauge < 0:
        mus = [-m for m in mus]
    scale = max([1.0] + [m.max_abs() for m in mus])
    thresh = EQ_TOL * scale
    sign = 1.0
    for m in mus:
        lead = 0.0
        for c in m.coeffs:
            if abs(c) > thresh:
                lead = c
                break
        if lead:
            sign = 1.0 if lead > 0 else -1.0
            break
    if sign < 0:
        mus = [-m for m in mus]
    return coords.replace(mus=mus, orientation=can, gauge=1)


def gauge_equal(x, y, tol=EQ_TOL):
    """Whether two charts agree up to vertex reflections and global sign."""
    cx, cy = canonical_gauge(x), canonical_gauge(y)
    return cx.isclose(cy, tol)


# -- the super Ptolemy flip ----------------------------------------------------


def _quad_labels(coords, e):
    """Quadrilateral data around a non-loop edge: the triangle carrying theta
    sits at the head of the oriented edge, the sigma one at its tail.  (b, a)
    are the lambda-lengths counterclockwise after the head half, (d, c) after
    the tail half.  Returns (a, b, c, d, theta_vertex, sigma_vertex)."""
    graph = coords.graph
    om = coords.orientation
    h_theta = om.head(e)
    h_sigma = om.tail(e)
    lam = coords.lambdas
    b = lam[graph.edge_of(graph.sigma(h_theta))]
    a = lam[graph.edge_of(graph.sigma(graph.sigma(h_theta)))]
    d = lam[graph.edge_of(graph.sigma(h_sigma))]
    c = lam[graph.edge_of(graph.sigma(graph.sigma(h_sigma)))]
    return a, b, c, d, graph.vertex_of(h_theta), graph.vertex_of(h_sigma)


def _nu_mu_vertices(graph, om, e, res, v_theta, v_sigma):
    """Post-flip vertices carrying the two new odd invariants: the nu
    triangle is the one keeping the halves that carried b and c."""
    b_half = graph.sigma(om.head(e))
    c_half = graph.sigma(graph.sigma(om.tail(e)))
    v_nu = res.graph.vertex_of(b_half)
    if res.graph.vertex_of(c_half) != v_nu:
        raise AssertionError("flip split the quadrilateral inconsistently")
    v_mu = v_theta if v_nu == v_sigma else v_sigma
    return v_nu, v_mu


def _flip_once(coords, e):
    """One flip, no gauge canonicalization.  The transformed values are worn
    plain by the orientation of `fg.flip`, the paper's rule: every arrow
    keeps its tail half (the new diagonal points at the triangle that
    carries nu) and the arrow of leaf c, the edge of sigma^2(tail of e),
    reverses.  That is the orientation of the paper's flip figure, so the
    new mu-invariants are worn as they come, with no vertex reflection."""
    graph = coords.graph
    a, b, c, d, v_theta, v_sigma = _quad_labels(coords, e)
    lam_e = coords.lambdas[e]
    theta = coords.mus[v_theta]
    sigma = coords.mus[v_sigma]
    chi = a * c * (b * d).inverse()
    f = ptolemy_even(a, b, c, d, lam_e, sigma, theta)
    nu, mu_new = ptolemy_odd(sigma, theta, chi)
    res = fg.flip(graph, e, coords.orientation)
    v_nu, v_mu = _nu_mu_vertices(graph, coords.orientation, e, res, v_theta, v_sigma)
    lambdas = list(coords.lambdas)
    lambdas[e] = f
    mus = list(coords.mus)
    mus[v_nu] = nu
    mus[v_mu] = mu_new
    return DecoratedCoords(
        res.graph, lambdas, mus, res.orientation, coords.gauge, rank=coords.rank
    )


def flip_coords(coords, e):
    """Super Ptolemy transformation on the chart at edge e: new diagonal
    lambda-length, new mu-invariants on the two adjacent vertices, flipped
    fatgraph with evolved orientation.  Returns the canonical gauge."""
    graph = coords.graph
    if graph.is_loop(e):
        raise ValueError("edge %d is a loop and cannot be flipped" % e)
    base = canonical_gauge(coords)
    return canonical_gauge(_flip_once(base, e))


# -- bipartite colorings -------------------------------------------------------


def delta_coloring(graph, base_vertex=0):
    """Alternating triangle signs: +1 at the base, flipping across every
    edge.  Raises when the fatgraph is not bipartite."""
    colors = [0] * graph.num_vertices
    colors[base_vertex] = 1
    queue = collections.deque([base_vertex])
    while queue:
        v = queue.popleft()
        for h in graph.vertices[v]:
            w = graph.vertex_of(graph.partner(h))
            if colors[w] == 0:
                colors[w] = -colors[v]
                queue.append(w)
            elif colors[w] != -colors[v]:
                raise ValueError(
                    "fatgraph is not bipartite (edge %d); flip to a bipartite "
                    "spine first" % graph.edge_of(h)
                )
    return colors


def _is_bipartite(graph):
    try:
        delta_coloring(graph)
    except ValueError:
        return False
    return True


def bipartite_flip_path(graph, max_flips=4):
    """Breadth-first search for a flip sequence (edge indices) making the
    fatgraph bipartite.  Raises when the cap is hit, reporting the deepest
    sequences tried."""
    if _is_bipartite(graph):
        return []
    om = fg.Orientation.from_bits(graph, (0,) * graph.num_edges)
    start = (graph, om)
    frontier = [(start, [])]
    seen = {tuple(sorted(tuple(v) for v in graph.vertices))}
    for _ in range(max_flips):
        nxt = []
        for (g, o), path in frontier:
            for e in range(g.num_edges):
                if g.is_loop(e):
                    continue
                res = fg.flip(g, e, o)
                key = tuple(sorted(tuple(v) for v in res.graph.vertices))
                if key in seen:
                    continue
                seen.add(key)
                trail = path + [e]
                if _is_bipartite(res.graph):
                    return trail
                nxt.append(((res.graph, res.orientation), trail))
        frontier = nxt
    partial = frontier[0][1] if frontier else []
    raise ValueError(
        "no bipartite spine within %d flips (deepest attempt %r)" % (max_flips, partial)
    )


# -- the recursive light-cone lift ---------------------------------------------


class LiftedTriangle:
    """One triangle of the lifted triangulation: its fatgraph vertex, the
    three point ids (corner k opposite the k-th half-edge, clockwise),
    the alternating sign delta, and the parent triangle index (-1 for the
    base)."""

    __slots__ = ("vertex", "corners", "delta", "parent")

    def __init__(self, vertex, corners, delta, parent):
        self.vertex = vertex
        self.corners = tuple(corners)
        self.delta = delta
        self.parent = parent


class LiftedTriangulation:
    """A finite portion of the universal-cover triangulation carried into
    the special light cone."""

    def __init__(self, coords, points, triangles, base_vertex, base_side):
        self.coords = coords
        self.points = points
        self.triangles = triangles
        self.base_vertex = base_vertex
        self.base_side = base_side

    def sides(self):
        """(edge index, point id, point id) for every triangle side."""
        graph = self.coords.graph
        out = []
        for tri in self.triangles:
            hs = graph.vertices[tri.vertex]
            for k in range(3):
                i, j = tri.corners[(k + 1) % 3], tri.corners[(k + 2) % 3]
                out.append((graph.edge_of(hs[k]), i, j))
        return out

    def pairing_residual(self):
        """Worst coefficient gap between sqrt(pairing) and the edge lambda."""
        worst = 0.0
        for e, i, j in self.sides():
            lam = pairing(self.points[i], self.points[j]).sqrt()
            worst = max(worst, (lam - self.coords.lambdas[e]).max_abs())
        return worst

    def mu_residual(self):
        """Worst gap between each triangle's recomputed mu-invariant and
        the assigned vertex coordinate, up to overall sign."""
        worst = 0.0
        for tri in self.triangles:
            # corners are stored clockwise; mu is defined on positive triples
            a, c, b = (self.points[i] for i in tri.corners)
            rep, _ = mu_invariant(a, b, c)
            target = self.coords.mus[tri.vertex]
            gap = min((rep - target).max_abs(), (rep + target).max_abs())
            worst = max(worst, gap)
        return worst


# The side factors of a lift, one row per (vertex, slot), row 3 v + j:
# factors is the (3, 3V, 2**rank) array (alpha, beta, kappa), squares holds
# k^2 and roots k, and deltas is the coloring they were made with.
_SideFactors = collections.namedtuple("_SideFactors", "deltas factors squares roots")


def _side_factors(coords, deltas):
    """The side factors of every (vertex, slot) of the chart.  Crossing
    into the triangle of vertex v over the edge of its slot j, with lam_e
    that edge's lambda-length and lam_d, lam_c those of slots j + 1 and
    j + 2, the new point's spinor is d = alpha c - beta a + kappa n
    (`minkowski._far_spinor`), with alpha = lam_d / lam_e,
    beta = lam_c / lam_e, kappa = k mu_v gauge delta_v and
    k^2 = sqrt2 lam_c lam_d / lam_e.  They depend on the chart and the
    delta coloring alone, so a lift makes them once: one inverse series
    over the E lambdas, one sqrt series over the 3V values k^2, and three
    products."""
    graph = coords.graph
    rank = coords.rank
    lam = np.stack([x.coeffs for x in coords.lambdas])
    edges = np.array([[graph.edge_of(h) for h in hs] for hs in graph.vertices])
    e, d, c = edges.reshape(-1), edges[:, [1, 2, 0]].reshape(-1), edges[:, [2, 0, 1]].reshape(-1)
    inv = GrassmannNumber.wrap(rank, lam).inverse().coeffs
    factors = np.empty((3, e.size, 1 << rank))
    factors[:2] = _kernels.multiply_coeffs(lam[[d, c]], inv[e], rank)
    squares = ROOT2 * _kernels.multiply_coeffs(factors[1], lam[d], rank)
    roots = GrassmannNumber.wrap(rank, squares).sqrt().coeffs
    signs = coords.gauge * np.asarray(deltas, dtype=float)
    sigma = np.stack([m.coeffs * sign for m, sign in zip(coords.mus, signs)])
    factors[2] = _kernels.multiply_coeffs(roots, sigma.repeat(3, axis=0), rank)
    return _SideFactors(deltas, factors, squares, roots)


def _base_triangle(coords, factors, v, side):
    """Standard-position points of the base triangle with the fermion at
    the corner opposite halves[side], and their spinors in closed form:
    (0, sqrt r, 0), (sqrt t, sqrt t, sqrt t m) and (sqrt s, 0, 0), each
    signed as `minkowski._spinor` signs it, as (3, 2**rank) arrays.  r, s
    and t, and their roots, are k^2 and k of v's slots side + 1, side + 2
    and side (`_side_factors`)."""
    rank = coords.rank
    r, s, t = (factors.squares[3 * v + (side + j) % 3] for j in (1, 2, 0))
    root_r, root_s, root_t = (factors.roots[3 * v + (side + j) % 3] for j in (1, 2, 0))
    m = coords.mus[v].coeffs * float(coords.gauge)
    root_tm, tm = _kernels.multiply_coeffs(np.stack([root_t, t]), m, rank)
    zero = np.zeros(1 << rank)
    pts, spinors = [None] * 3, [None] * 3
    pts[side] = SuperVector.wrap(rank, np.stack([t, t, t, tm, tm]))
    spinors[side] = np.stack([root_t, root_t, root_tm])
    pts[(side + 1) % 3] = SuperVector.wrap(rank, np.stack([zero, r, zero, zero, zero]))
    spinors[(side + 1) % 3] = np.stack([zero, root_r, zero])
    pts[(side + 2) % 3] = SuperVector.wrap(rank, np.stack([s, zero, zero, zero, zero]))
    spinors[(side + 2) % 3] = np.stack([root_s, zero, zero])
    return pts, spinors


def _attach_level(coords, factors, points, spinors, triangles, jobs):
    """Grow the lift across side k of triangle tri_idx for every (tri_idx, k)
    in jobs, all at once, by one `minkowski._far_spinor` call: the spinors
    of the sides' corners travel as two (3, B, 2**rank) arrays, and the
    side factors (`_side_factors`) of the slots crossed into are gathered
    by index.  spinors holds the spinor of each point, as a (3, 2**rank)
    array signed as `minkowski._spinor` signs it.  Appends the points,
    their spinors and the triangles in the order of jobs and returns the
    new triangle indices."""
    graph = coords.graph
    side_a, side_c, slots, made = [], [], [], []
    for tri_idx, k in jobs:
        tri = triangles[tri_idx]
        cs = tri.corners
        h = graph.vertices[tri.vertex][k]
        h2 = graph.partner(h)
        v2 = graph.vertex_of(h2)
        j0 = graph.vertices[v2].index(h2)
        delta2 = -tri.delta
        if factors.deltas[v2] != delta2:
            raise ValueError("delta coloring is inconsistent across edge %d" % graph.edge_of(h))
        side_a.append(spinors[cs[(k + 1) % 3]])
        side_c.append(spinors[cs[(k + 2) % 3]])
        slots.append(3 * v2 + j0)
        corners = [0, 0, 0]
        corners[j0] = len(points) + len(made)
        corners[(j0 + 1) % 3] = cs[(k + 2) % 3]
        corners[(j0 + 2) % 3] = cs[(k + 1) % 3]
        made.append(LiftedTriangle(v2, corners, delta2, tri_idx))
    try:
        d = _far_spinor(
            np.stack(side_a, axis=1), np.stack(side_c, axis=1), factors.factors[:, slots], coords.rank
        )
    except ElementError as err:
        tri_idx, k = jobs[err.element]
        raise ValueError(
            "cannot attach across side %d of lifted triangle %d (graph vertex %d): %s"
            % (k, tri_idx, triangles[tri_idx].vertex, err.reason)
        ) from err
    spinors.extend(d.swapaxes(0, 1))
    points.extend(SuperVector.wrap(coords.rank, c) for c in _square(d, coords.rank).coeffs)
    triangles.extend(made)
    return range(len(triangles) - len(made), len(triangles))


def _require_index(name, value, count):
    """Reject a value that is not an int (a bool is not), or not in
    0..count - 1, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an int, got %r" % (name, value))
    if not 0 <= value < count:
        raise ValueError("%s must be in 0..%d, got %r" % (name, count - 1, value))


def lift(coords, depth, base_vertex=0, base_side=0):
    """Recursive light-cone lift: base triangle in standard position, then
    breadth-first attachment out to the given combinatorial depth, feeding
    each new triangle its delta-modified mu-invariant.

    The lift carries one spinor per point, and never takes the square root
    of a point it built: the base triangle's spinors are closed forms in
    its r, s and t, and each new point is the square of the spinor that
    `minkowski._far_spinor` returns, which is carried to the next level.
    The side factors alpha, beta and kappa of that spinor depend only on
    the chart, so they are made once per lift for every (vertex, slot)
    (`_side_factors`), and r, s, t and their roots are among them.  The
    triangles of one breadth-first level depend only on their parents, so
    each level is attached at once (see `_attach_level`), as a handful of
    products of whole (3, B, 2**rank) spinor stacks, with no group
    element; the points and triangles come out in the order of attaching
    them one by one, parent by parent and side by side.  The spinors are
    not stored on the points, so a check of the lift
    (`LiftedTriangulation.mu_residual`) works each one out from its point.

    Rejects a depth that is not an int or is below 1, and a base vertex or
    side (0, 1 or 2) that is not an index of the chart, naming the value."""
    graph = coords.graph
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)):
        raise ValueError("depth must be an int, got %r" % (depth,))
    if depth < 1:
        raise ValueError("depth must be at least 1, got %d" % depth)
    _require_index("base_vertex", base_vertex, graph.num_vertices)
    _require_index("base_side", base_side, 3)
    factors = _side_factors(coords, delta_coloring(graph, base_vertex))
    points, spinors = _base_triangle(coords, factors, base_vertex, base_side)
    triangles = [LiftedTriangle(base_vertex, (0, 1, 2), 1, -1)]
    frontier = [(0, None)]
    for _ in range(depth):
        jobs = [(t, k) for t, parent_side in frontier for k in range(3) if k != parent_side]
        frontier = []
        for (tri_idx, k), new_idx in zip(jobs, _attach_level(coords, factors, points, spinors, triangles, jobs)):
            h2 = graph.partner(graph.vertices[triangles[tri_idx].vertex][k])
            frontier.append((new_idx, graph.vertices[triangles[new_idx].vertex].index(h2)))
    return LiftedTriangulation(coords, points, triangles, base_vertex, base_side)


# -- holonomy representations --------------------------------------------------


class FundamentalDomain:
    """Tree-of-triangles domain: one triangle per fatgraph vertex glued
    along a spanning tree, one pairing generator per leftover edge."""

    __slots__ = ("base_vertex", "tree_edges", "generators", "parents")

    def __init__(self, base_vertex, tree_edges, generators, parents):
        self.base_vertex = base_vertex
        self.tree_edges = tuple(tree_edges)
        self.generators = tuple(generators)
        self.parents = parents


def fundamental_domain(graph, base_vertex=0):
    """Breadth-first spanning tree rooted at the base vertex; parents maps
    each vertex to (parent vertex, connecting edge)."""
    parents = {base_vertex: (None, None)}
    tree = []
    queue = collections.deque([base_vertex])
    while queue:
        v = queue.popleft()
        for h in graph.vertices[v]:
            w = graph.vertex_of(graph.partner(h))
            if w not in parents:
                parents[w] = (v, graph.edge_of(h))
                tree.append(graph.edge_of(h))
                queue.append(w)
    if len(parents) != graph.num_vertices:
        raise ValueError("fatgraph is not connected")
    generators = [j for j in range(graph.num_edges) if j not in set(tree)]
    return FundamentalDomain(base_vertex, tree, generators, parents)


def _tree_path_vector(graph, domain, v1, v2):
    """Mod-2 edge vector of the spanning-tree path between two vertices."""
    vec = np.zeros(graph.num_edges, dtype=np.uint8)

    def walk_up(v):
        path = []
        while domain.parents[v][0] is not None:
            path.append(v)
            v = domain.parents[v][0]
        return path, v

    up1, _ = walk_up(v1)
    up2, _ = walk_up(v2)
    for v in up1:
        vec[domain.parents[v][1]] ^= 1
    for v in up2:
        vec[domain.parents[v][1]] ^= 1
    return vec


def _normalize_slot(points, triangles, tri_idx, k):
    """Frame carrying a lifted triangle to standard position with the
    fermion opposite its k-th half-edge; returns (frame, invariants)."""
    cs = triangles[tri_idx].corners
    g, r, s, t, phi = normalize_triple(points[cs[(k + 1) % 3]], points[cs[k]], points[cs[(k + 2) % 3]])
    return g, (r, s, t, phi)


class SuperRep:
    """Holonomy built from edge pairings of a fundamental domain: one group
    element per non-tree edge, plus the lifted domain for diagnostics."""

    def __init__(self, coords, domain, elements, raw_elements, q_values, lifted, extras):
        self.coords = coords
        self.domain = domain
        self.elements = elements
        self.raw_elements = raw_elements
        self.q_values = q_values
        self.lifted = lifted
        self.extras = extras

    def generators(self):
        return [self.elements[j] for j in self.domain.generators]

    def equivariance_residual(self):
        """Worst pointwise gap of act(pairing, corner) against the matched
        corner of the paired triangle, over all generators (undressed
        pairings; the spin dressing twists odd signs only)."""
        worst = 0.0
        for j in self.domain.generators:
            g = self.raw_elements[j]
            t1, t2 = self.extras[j]
            tri1 = self.lifted.triangles[t1]
            tri2 = self.lifted.triangles[t2]
            for k in range(3):
                lhs = act(g, self.lifted.points[tri1.corners[k]])
                rhs = self.lifted.points[tri2.corners[k]]
                worst = max(worst, lhs.max_coeff_diff(rhs))
        return worst

    def puncture_word(self, orbit):
        """Holonomy of a boundary cycle: generator crossings composed in
        orbit order (tree crossings stay inside the domain)."""
        graph = self.coords.graph
        word = sl.identity(self.coords.rank)
        for h in orbit:
            j = graph.edge_of(h)
            if j not in self.elements:
                continue
            g = self.elements[j]
            if h == graph.edges[j][0]:
                g = sl.inverse_osp(g)
            word = sl.smul(word, g)
        return word

    def puncture_traces(self):
        out = []
        for orbit in self.coords.graph.boundary_orbits():
            w = self.puncture_word(orbit)
            tr = sl.bosonic_reduction(w)
            out.append(float(tr[0, 0] + tr[1, 1]))
        return out


def _bosonic_trace_body(g):
    m = sl.bosonic_reduction(g)
    return float(m[0, 0] + m[1, 1])


def build_rep(coords, domain=None, tol=EQ_TOL):
    """Representation from a fundamental domain: lift the domain triangles,
    pair each non-tree edge by frames normalized at the shared side, and
    resolve the odd sign sheet so each pairing's bosonic trace sign is
    negative exactly on even quadratic-form classes."""
    graph = coords.graph
    if domain is None:
        domain = fundamental_domain(graph)
    factors = _side_factors(coords, delta_coloring(graph, domain.base_vertex))
    points, spinors = _base_triangle(coords, factors, domain.base_vertex, 0)
    triangles = [LiftedTriangle(domain.base_vertex, (0, 1, 2), 1, -1)]
    tri_of_vertex = {domain.base_vertex: 0}
    order = sorted(
        (v for v in range(graph.num_vertices) if v != domain.base_vertex),
        key=lambda v: _tree_depth(domain, v),
    )
    for v in order:
        pv, edge = domain.parents[v]
        tri_idx = tri_of_vertex[pv]
        hs = graph.vertices[pv]
        k = next(
            i for i, h in enumerate(hs)
            if graph.edge_of(h) == edge and graph.vertex_of(graph.partner(h)) == v
        )
        (tri_of_vertex[v],) = _attach_level(coords, factors, points, spinors, triangles, [(tri_idx, k)])
    lifted = LiftedTriangulation(coords, points, triangles, domain.base_vertex, 0)
    form = fg.QuadraticForm(graph, coords.orientation)
    elements, raw_elements, q_values, extras = {}, {}, {}, {}
    for j in domain.generators:
        h1, h2 = graph.edges[j]
        v1 = graph.vertex_of(h1)
        v2 = graph.vertex_of(h2)
        t1 = tri_of_vertex[v1]
        k1 = graph.vertices[v1].index(h1)
        k2 = graph.vertices[v2].index(h2)
        (t2,) = _attach_level(coords, factors, points, spinors, triangles, [(tri_of_vertex[v2], k2)])
        g1, inv1 = _normalize_slot(points, triangles, t1, k1)
        g2, inv2 = _normalize_slot(points, triangles, t2, k1)
        for x, y in zip(inv1, inv2):
            if (x - y).max_abs() > 1e-6:
                raise ValueError(
                    "paired triangles disagree in standard position (edge %d)" % j
                )
        raw = sl.smul(g1, sl.inverse_osp(g2))
        vec = _tree_path_vector(graph, domain, v1, v2)
        vec[j] ^= 1
        qv = int(form.value(vec))
        tb = _bosonic_trace_body(raw)
        if abs(tb) <= tol:
            raise ValueError(
                "pairing trace body %.3g at edge %d is too close to zero to "
                "resolve the sign sheet" % (tb, j)
            )
        want_negative = qv == 0
        if (tb > 0) == want_negative:
            dressed = sl.smul_many(g1, sl.fermionic_reflection(coords.rank), sl.inverse_osp(g2))
        else:
            dressed = raw
        elements[j] = dressed
        raw_elements[j] = raw
        q_values[j] = qv
        extras[j] = (t1, t2)
    return SuperRep(coords, domain, elements, raw_elements, q_values, lifted, extras)


def _tree_depth(domain, v):
    d = 0
    while domain.parents[v][0] is not None:
        v = domain.parents[v][0]
        d += 1
    return d


# -- the invariant two-form ----------------------------------------------------

# basis differential keys: ("l", j) for lambda edges (form-odd),
# ("m", v) for mu vertices (form-even); extra kinds for scratch charts
_FORM_ODD = {"l": 1, "x": 1, "m": 0, "o": 0}


def _form_parity(key):
    return _FORM_ODD[key[0]]


def _coeff_parity(c, tol=1e-12):
    if c.is_zero(tol):
        return None
    p = c.parity(1e-7)
    if p == "mixed":
        raise ValueError("graded form coefficients must be homogeneous")
    return 1 if p == "odd" else 0


class OneForm:
    """Sum of coeff * d(coordinate), coefficients stored left."""

    def __init__(self, rank, terms=None):
        self.rank = rank
        self.terms = dict(terms or {})

    def add(self, key, coeff):
        if key in self.terms:
            self.terms[key] = self.terms[key] + coeff
        else:
            self.terms[key] = coeff


class SuperTwoForm:
    """Normal-ordered graded two-form: coefficients over key pairs with
    key1 <= key2; equal keys survive only for form-even differentials."""

    def __init__(self, rank):
        self.rank = rank
        self.terms = {}

    def add(self, k1, k2, coeff):
        p1, p2 = _form_parity(k1), _form_parity(k2)
        if k2 < k1:
            k1, k2 = k2, k1
            if p1 & p2:
                coeff = -coeff
        if k1 == k2 and p1:
            return
        if (k1, k2) in self.terms:
            self.terms[(k1, k2)] = self.terms[(k1, k2)] + coeff
        else:
            self.terms[(k1, k2)] = coeff

    def add_scaled(self, other, scale):
        for (k1, k2), c in other.terms.items():
            self.add(k1, k2, scale * c)

    def coefficient(self, k1, k2):
        if k2 < k1:
            raise ValueError("coefficients are stored normal-ordered")
        c = self.terms.get((k1, k2))
        return c if c is not None else GrassmannNumber(self.rank)

    def max_gap(self, other):
        """(worst coefficient difference, offending key pair label)."""
        keys = set(self.terms) | set(other.terms)
        worst, label = 0.0, ""
        zero = GrassmannNumber(self.rank)
        for k in sorted(keys):
            gap = (self.terms.get(k, zero) - other.terms.get(k, zero)).max_abs()
            if gap > worst:
                worst, label = gap, _pair_label(k)
        return worst, label

    def drop_generators(self, mask):
        """Zero every coefficient term touching the given generator mask."""
        for c in self.terms.values():
            idx = np.nonzero(c.coeffs)[0]
            for m in idx:
                if m & mask:
                    c.coeffs[m] = 0.0


def _pair_label(pair):
    (a, i), (b, j) = pair
    return "d%s%d*d%s%d" % (a, i, b, j)


def wedge(f, g):
    """Graded product of one-forms; differentials of even coordinates
    anticommute, of odd coordinates commute."""
    out = SuperTwoForm(f.rank)
    for k1, c1 in f.terms.items():
        p1 = _form_parity(k1)
        for k2, c2 in g.terms.items():
            pc = _coeff_parity(c2)
            if pc is None:
                continue
            coeff = c1 * c2
            if pc & p1:
                coeff = -coeff
            out.add(k1, k2, coeff)
    return out


def _dlog(key, value, rank):
    return OneForm(rank, {key: value.inverse()})


def two_form(coords):
    """Even two-form of the chart: per vertex, the cyclic sum of
    d log(lambda) wedges in clockwise half-edge order minus the square of
    the vertex's mu differential."""
    graph = coords.graph
    rank = coords.rank
    out = SuperTwoForm(rank)
    one = GrassmannNumber.scalar(1.0, rank)
    for v in range(graph.num_vertices):
        hs = graph.vertices[v]
        clockwise = (hs[0], hs[2], hs[1])
        logs = [
            _dlog(("l", graph.edge_of(h)), coords.lambdas[graph.edge_of(h)], rank)
            for h in clockwise
        ]
        for i in range(3):
            out.add_scaled(wedge(logs[i], logs[(i + 1) % 3]), one)
        out.add(("m", v), ("m", v), -one)
    return out


# -- pullback through the flip -------------------------------------------------


def _promote_odd(coords):
    """Replace zero mus by fresh generators so odd partials can be read off
    exactly; returns (promoted coords, per-vertex (index, scale), promo mask)."""
    rank = coords.rank
    used = 0
    for x in list(coords.lambdas) + list(coords.mus):
        for m in np.nonzero(x.coeffs)[0]:
            used |= int(m)
    slots = []
    mus = list(coords.mus)
    promo_mask = 0
    free = [i for i in range(1, rank + 1) if not (used >> (i - 1)) & 1]
    for v, m in enumerate(mus):
        if m.is_zero():
            if not free:
                raise ValueError("rank %d has no spare generator to probe mu[%d]" % (rank, v))
            i = free.pop(0)
            mus[v] = GrassmannNumber.generator(i, rank)
            promo_mask |= 1 << (i - 1)
            slots.append((i, 1.0))
        else:
            nz = np.nonzero(m.coeffs)[0]
            if len(nz) != 1 or bin(int(nz[0])).count("1") != 1:
                raise ValueError(
                    "pullback probing needs single-generator mus (mu[%d] is not)" % v
                )
            i = int(nz[0]).bit_length()
            _require_unshared(coords, v, i)
            slots.append((i, float(m.coeffs[nz[0]])))
    return coords.replace(mus=mus), slots, promo_mask


def _require_unshared(coords, v, i):
    """Raise unless generator i, the one of mu[v], appears in no lambda and
    in no other mu: the odd partials read off by differentiating in it would
    otherwise differentiate those coordinates too."""
    holds = ((np.arange(1 << coords.rank) >> (i - 1)) & 1).astype(bool)
    for j, lam in enumerate(coords.lambdas):
        if np.any(lam.coeffs[holds]):
            raise ValueError(
                "pullback probing needs mu[%d]'s generator g%d to appear in no other "
                "coordinate, but the lambda of edge %d uses it" % (v, i, j)
            )
    for w, mu in enumerate(coords.mus):
        if w != v and np.any(mu.coeffs[holds]):
            raise ValueError(
                "pullback probing needs mu[%d]'s generator g%d to appear in no other "
                "coordinate, but mu[%d] uses it" % (v, i, w)
            )


def _flip_outputs(coords, e):
    """All chart coordinates after the flip, keyed for the form basis."""
    res = flip_coords(coords, e)
    out = {("l", j): res.lambdas[j] for j in range(res.graph.num_edges)}
    out.update({("m", v): res.mus[v] for v in range(res.graph.num_vertices)})
    return out, res


def _chart_differentials(evaluate, coords, slots):
    """One-form differential of every output of `evaluate` with respect to
    the chart coordinates: central finite differences on lambda bodies,
    exact left derivatives on mu generators."""
    rank = coords.rank
    base = evaluate(coords)
    forms = {key: OneForm(rank) for key in base}
    for j in range(coords.graph.num_edges):
        h = FD_STEP * max(1.0, abs(coords.lambdas[j].body))
        lam_hi = list(coords.lambdas)
        lam_hi[j] = lam_hi[j] + h
        lam_lo = list(coords.lambdas)
        lam_lo[j] = lam_lo[j] - h
        hi = evaluate(coords.replace(lambdas=lam_hi))
        lo = evaluate(coords.replace(lambdas=lam_lo))
        for key in base:
            part = (hi[key] - lo[key]) * (0.5 / h)
            _add_partial(forms[key], ("l", j), part)
    for v, (gen, scale) in enumerate(slots):
        for key in base:
            part = odd_derivative(base[key], gen) * (1.0 / scale)
            _add_partial(forms[key], ("m", v), part)
    return base, forms


def _add_partial(form, key, part):
    p = _coeff_parity(part, 1e-11)
    if p is None:
        return
    if p & _form_parity(key):
        part = -part
    form.add(key, part)


def pullback_check(coords, e, details=False):
    """Max coefficient gap between the chart two-form and the flipped
    chart's two-form pulled back through flip_coords by the graded chain
    rule.  With details=True also returns the offending pair label.  The
    two-form holds each mu only through d(mu)^2, so the gap cannot see the
    sign of any mu and is no evidence for a mu-sign law."""
    work = canonical_gauge(coords)
    work, slots, promo_mask = _promote_odd(work)
    _, flipped = _flip_outputs(work, e)
    omega_after = two_form(flipped)

    def evaluate(pt):
        outs, _ = _flip_outputs(pt, e)
        return outs

    _, forms = _chart_differentials(evaluate, work, slots)
    pulled = SuperTwoForm(work.rank)
    one = GrassmannNumber.scalar(1.0, work.rank)
    for (k1, k2), c in omega_after.terms.items():
        pulled.add_scaled(wedge(forms[k1], forms[k2]), c)
    omega_before = two_form(work)
    diff = SuperTwoForm(work.rank)
    diff.add_scaled(omega_before, one)
    diff.add_scaled(pulled, -one)
    diff.drop_generators(promo_mask)
    worst, label = diff.max_gap(SuperTwoForm(work.rank))
    if details:
        return worst, label
    return worst


def ptolemy_form_identity(sigma, theta, chi, rank=None):
    """Max residual coefficient of the odd-flip form identity: the squares
    of the new mu differentials minus the old ones minus the cross term
    d(theta*sigma) d(chi) / ((1+chi) sqrt(chi))."""
    rank = common_rank((sigma, theta, chi), rank)
    sigma, theta, chi = (grassmann(x, rank) for x in (sigma, theta, chi))
    if chi.body <= 0:
        raise ValueError("chi needs a positive body")

    def read_gen(m, what):
        nz = np.nonzero(m.coeffs)[0]
        if len(nz) != 1 or bin(int(nz[0])).count("1") != 1:
            raise ValueError("%s must be a single-generator odd value" % what)
        return int(nz[0]).bit_length(), float(m.coeffs[nz[0]])

    g_s, s_s = read_gen(sigma, "sigma")
    g_t, s_t = read_gen(theta, "theta")

    def evaluate(s, t, x):
        mu, nu = ptolemy_odd(s, t, x)
        return {
            ("o", 0): s,
            ("o", 1): t,
            ("o", 2): mu,
            ("o", 3): nu,
            ("o", 4): t * s,
            ("x", 0): x,
        }

    base = evaluate(sigma, theta, chi)
    forms = {key: OneForm(rank) for key in base}
    h = FD_STEP * max(1.0, abs(chi.body))
    hi = evaluate(sigma, theta, chi + h)
    lo = evaluate(sigma, theta, chi - h)
    for key in base:
        _add_partial(forms[key], ("x", 0), (hi[key] - lo[key]) * (0.5 / h))
    for key in base:
        _add_partial(forms[key], ("o", 0), odd_derivative(base[key], g_s) * (1.0 / s_s))
        _add_partial(forms[key], ("o", 1), odd_derivative(base[key], g_t) * (1.0 / s_t))
    total = SuperTwoForm(rank)
    one = GrassmannNumber.scalar(1.0, rank)
    total.add_scaled(wedge(forms[("o", 2)], forms[("o", 2)]), one)
    total.add_scaled(wedge(forms[("o", 3)], forms[("o", 3)]), one)
    total.add_scaled(wedge(forms[("o", 0)], forms[("o", 0)]), -one)
    total.add_scaled(wedge(forms[("o", 1)], forms[("o", 1)]), -one)
    coef = ((one + chi) * chi.sqrt()).inverse()
    total.add_scaled(wedge(forms[("o", 4)], forms[("x", 0)]), -coef)
    worst, _ = total.max_gap(SuperTwoForm(rank))
    return worst


# -- serialization -------------------------------------------------------------


def write_coords(coords):
    lines = ["coords v1"]
    lines.append(fg.write_fatgraph(coords.graph, coords.orientation).strip())
    for j, lam in enumerate(coords.lambdas):
        lines.append("lambda e%d %s" % (j, format_grassmann(lam)))
    for v, m in enumerate(coords.mus):
        lines.append("mu v%d %s" % (v, format_grassmann(m)))
    lines.append("gauge %s" % ("+" if coords.gauge > 0 else "-"))
    return "\n".join(lines) + "\n"


def parse_coords(text, rank=DEFAULT_RANK):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "coords v1":
        raise ValueError("missing coords v1 header")
    graph_lines, rest = [], []
    for ln in lines[1:]:
        if ln.startswith(("fatgraph", "v", "e", "orient")) and not ln.startswith(
            ("lambda", "mu", "gauge")
        ):
            graph_lines.append(ln)
        else:
            rest.append(ln)
    graph, orientation = fg.parse_fatgraph("\n".join(graph_lines))
    if orientation is None:
        raise ValueError("coords file needs an orient: block")
    lambdas = [None] * graph.num_edges
    mus = [None] * graph.num_vertices
    gauge = None
    for ln in rest:
        if ln.startswith("lambda "):
            _, name, val = ln.split(None, 2)
            lambdas[int(name[1:])] = parse_grassmann(val, rank)
        elif ln.startswith("mu "):
            _, name, val = ln.split(None, 2)
            mus[int(name[1:])] = parse_grassmann(val, rank)
        elif ln.startswith("gauge "):
            parts = ln.split()
            if len(parts) != 2 or parts[1] not in ("+", "-"):
                raise ValueError("gauge must be + or -, in line %r" % ln)
            gauge = 1 if parts[1] == "+" else -1
        else:
            raise ValueError("unrecognized line %r" % ln)
    if any(x is None for x in lambdas):
        raise ValueError("missing lambda line")
    if any(x is None for x in mus):
        raise ValueError("missing mu line")
    if gauge is None:
        raise ValueError("missing gauge line")
    return DecoratedCoords(graph, lambdas, mus, orientation, gauge, rank=rank)
