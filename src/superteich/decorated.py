"""Decorated coordinate charts on a trivalent fatgraph: even lambda-length
per edge, odd mu-invariant per vertex (the dual triangle), an edge
orientation tracking the odd sign sheet, and a global sign gauge bit.

The module implements the super Ptolemy flip on charts, the recursive
light-cone lift of a chart (one breadth-first level at a time, its fermion
signs read off the orientation), holonomy representations as products of
two elementary frames along a fundamental domain, and the even two-form
with its flip-invariance checker.

The two-form is one integer matrix read off the fatgraph (`two_form`): in
the coordinates (log lambda, mu) its coefficients are constant.  A flip
changes three coordinates, from at most seven inputs, so its Jacobian is
the identity outside the quadrilateral's block, and the check
J^T Omega' J = Omega, with graded signs, runs on that block alone
(`pullback_check`).  The block's partials are exact, from one stacked
evaluation of the Ptolemy formulas with each coordinate moved along a
nilpotent direction on two extra generators (`_jacobian`)."""

import collections
import functools
import re

import numpy as np

from . import _kernels
from . import fatgraph_spin as fg
from . import superlinalg as sl
from .grassmann import (
    GrassmannNumber,
    _popcount,
    canonicalize_sign,
    common_rank,
    format_grassmann,
    grassmann,
    odd_derivative,
    parse_grassmann,
    stack,
)
from .minkowski import (
    ElementError,
    SuperVector,
    _far_spinor,
    _ptolemy_even,
    _square,
    mu_invariant,
    pairing,
    ptolemy_odd,
)

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
    and a sign gauge in {+1, -1}.  The orientation's graph must be the
    chart's, or have equal vertices and equal edges: the signs of the lift
    and of the representation are read off its arrows.  A ValueError names
    the first edge that differs."""

    __slots__ = ("graph", "lambdas", "mus", "orientation", "gauge", "rank")

    def __init__(self, graph, lambdas, mus, orientation, gauge=1, rank=None):
        if len(lambdas) != graph.num_edges:
            raise ValueError("need one lambda-length per edge: %d for %d edges" % (len(lambdas), graph.num_edges))
        if len(mus) != graph.num_vertices:
            raise ValueError("need one mu-invariant per vertex: %d for %d vertices" % (len(mus), graph.num_vertices))
        other = orientation.graph
        if other is not graph:
            if other.vertices != graph.vertices:
                raise ValueError("orientation belongs to a different fatgraph")
            if other.edges != graph.edges:
                raise fg._edge_mismatch(other.edges, graph.edges)
        if gauge not in (1, -1):
            raise ValueError("gauge must be +1 or -1, got %r" % (gauge,))
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

    def isclose(self, other):
        """Same fatgraph, orientation and gauge, and every lambda and mu
        within `grassmann.EQ_TOL` coefficientwise."""
        if self.graph.vertices != other.graph.vertices or self.graph.edges != other.graph.edges:
            return False
        if self.orientation.tails != other.orientation.tails or self.gauge != other.gauge:
            return False
        return all(a.isclose(b) for a, b in zip(self.lambdas, other.lambdas)) and all(
            a.isclose(b) for a, b in zip(self.mus, other.mus)
        )


def standard_chart(graph, orientation=None, *, rank):
    """Unit lambda-lengths, and mu_v the generator v + 1."""
    if orientation is None:
        orientation = fg.Orientation.from_bits(graph, (0,) * graph.num_edges)
    one = GrassmannNumber.scalar(1.0, rank)
    if graph.num_vertices > rank:
        raise ValueError("rank too small for one generator per vertex")
    mus = [GrassmannNumber.generator(v + 1, rank) for v in range(graph.num_vertices)]
    return DecoratedCoords(graph, [one] * graph.num_edges, mus, orientation)


# -- gauge classes -------------------------------------------------------------


def canonical_gauge(coords):
    """Deterministic representative of the gauge class (vertex reflections
    and the global sign).  One `fg.gf2_solve` over the reflection rows gives
    the canonical orientation, `orientation_class`'s (the rest), and the
    vertices whose reflections reach it (the combo); then
    `canonicalize_sign` of the stacked mus makes the first significant mu
    coefficient positive, and the gauge bit is +1.  Gauge-equivalent charts
    map to equal charts (within `grassmann.EQ_TOL` where every mu is below
    it)."""
    graph = coords.graph
    combo, rest, _ = fg.gf2_solve(fg._reflection_rows(graph), coords.orientation.bits)
    mus = [-m if flip else m for m, flip in zip(coords.mus, combo)]
    _, sign = canonicalize_sign(stack(mus))
    if sign < 0:
        mus = [-m for m in mus]
    orientation = fg.Orientation.from_bits(graph, tuple(int(x) for x in rest))
    return coords.replace(mus=mus, orientation=orientation, gauge=1)


def gauge_equal(x, y):
    """Whether two charts agree up to vertex reflections and global sign,
    within `grassmann.EQ_TOL` (`DecoratedCoords.isclose` of their canonical
    gauges)."""
    return canonical_gauge(x).isclose(canonical_gauge(y))


# -- the super Ptolemy flip ----------------------------------------------------


def _quad_labels(coords, e):
    """Quadrilateral data around a non-loop edge: the triangle carrying theta
    sits at the head of the oriented edge, the sigma one at its tail.  (b, a)
    are the edges counterclockwise after the head half, (d, c) after the
    tail half.  Returns ((a, b, c, d, e), theta_vertex, sigma_vertex)."""
    graph = coords.graph
    om = coords.orientation
    h_theta = om.head(e)
    h_sigma = om.tail(e)
    b = graph.edge_of(graph.sigma(h_theta))
    a = graph.edge_of(graph.sigma(graph.sigma(h_theta)))
    d = graph.edge_of(graph.sigma(h_sigma))
    c = graph.edge_of(graph.sigma(graph.sigma(h_sigma)))
    return (a, b, c, d, e), graph.vertex_of(h_theta), graph.vertex_of(h_sigma)


def _cross_ratio(a, b, c, d):
    """The cross-ratio chi = a c / (b d) of an edge's quadrilateral, from
    the lambda-lengths of `_quad_labels`'s edges; the same from either end
    of the edge.  Each may be a stack."""
    return a * c * (b * d).inverse()


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
    new mu-invariants are worn as they come, with no vertex reflection.
    `fg.flip` comes first, so an edge that is not an int index of the
    chart, or is a loop, is rejected, named, before any Grassmann work."""
    graph = coords.graph
    res = fg.flip(graph, e, coords.orientation)
    edges, v_theta, v_sigma = _quad_labels(coords, e)
    lam = [coords.lambdas[j] for j in edges]
    f, nu, mu_new = _ptolemy(*lam, coords.mus[v_sigma], coords.mus[v_theta])
    v_nu, v_mu = _nu_mu_vertices(graph, coords.orientation, e, res, v_theta, v_sigma)
    lambdas = list(coords.lambdas)
    lambdas[e] = f
    mus = list(coords.mus)
    mus[v_nu] = nu
    mus[v_mu] = mu_new
    return DecoratedCoords(res.graph, lambdas, mus, res.orientation, coords.gauge)


def flip_coords(coords, e):
    """Super Ptolemy transformation on the chart at edge e: new diagonal
    lambda-length, new mu-invariants on the two adjacent vertices, flipped
    fatgraph with evolved orientation, in the canonical gauge.

    The chart is flipped as it is (`_flip_once`) and canonicalized once,
    on the way out: the flip respects gauge classes, so a vertex
    reflection or the global sign of the input changes the output by a
    gauge move only, and canonical gauge takes it away."""
    return canonical_gauge(_flip_once(coords, e))


# -- the recursive light-cone lift ---------------------------------------------


class LiftedTriangle:
    """One triangle of the lifted triangulation: its fatgraph vertex, the
    three point ids (corner k opposite the k-th half-edge, clockwise), the
    entry slot (the half-edge it was reached through; the base's is the
    lift's base side), the sign its kappa was put with (`lift`; +1 at the
    base), and the parent triangle index (-1 for the base)."""

    __slots__ = ("vertex", "corners", "entry", "sign", "parent")

    def __init__(self, vertex, corners, entry, sign, parent):
        self.vertex = vertex
        self.corners = tuple(corners)
        self.entry = entry
        self.sign = sign
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
        the assigned vertex coordinate, up to overall sign: the mu of a
        bare triple is fixed only up to its spinors' signs
        (`minkowski.mu_invariant`).  The signs are pinned by comparing the
        lift with `build_rep`'s frame product instead."""
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
# k^2 and roots k.
_SideFactors = collections.namedtuple("_SideFactors", "factors squares roots")


def _side_factors(coords):
    """The side factors of every (vertex, slot) of the chart.  Crossing
    into the triangle of vertex v over the edge of its slot j, with lam_e
    that edge's lambda-length and lam_d, lam_c those of slots j + 1 and
    j + 2, the new point's spinor is d = alpha c - beta a + s kappa n
    (`minkowski._far_spinor`), with alpha = lam_d / lam_e,
    beta = lam_c / lam_e, kappa = k mu_v gauge, k^2 = sqrt2 lam_c lam_d /
    lam_e, and s the sign of the crossing (`lift`), which `_attach_level`
    puts on the gathered kappa.  They depend on the chart alone, so a lift
    makes them once: one inverse series over the E lambdas, one sqrt
    series over the 3V values k^2, and three products."""
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
    sigma = np.stack([m.coeffs for m in coords.mus]) * float(coords.gauge)
    factors[2] = _kernels.multiply_coeffs(roots, sigma.repeat(3, axis=0), rank)
    return _SideFactors(factors, squares, roots)


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
    by index, with each kappa times the sign of its crossing (`lift`).
    spinors holds the spinor of each point, as a (3, 2**rank) array signed
    as `minkowski._spinor` signs it.  Appends the points, their spinors
    and the triangles in the order of jobs and returns the new triangle
    indices."""
    graph = coords.graph
    tails = coords.orientation.tails
    side_a, side_c, slots, signs, made = [], [], [], [], []
    for tri_idx, k in jobs:
        tri = triangles[tri_idx]
        cs = tri.corners
        h = graph.vertices[tri.vertex][k]
        h2 = graph.partner(h)
        v2 = graph.vertex_of(h2)
        j0 = graph.vertices[v2].index(h2)
        # s = s_tau eps(h) tau_k (`lift`)
        eps = 1 if tails[graph.edge_of(h)] == h else -1
        turned = k != tri.entry if tri.parent < 0 else k == (tri.entry + 1) % 3
        sign = tri.sign * eps * (-1 if turned else 1)
        side_a.append(spinors[cs[(k + 1) % 3]])
        side_c.append(spinors[cs[(k + 2) % 3]])
        slots.append(3 * v2 + j0)
        signs.append(sign)
        corners = [0, 0, 0]
        corners[j0] = len(points) + len(made)
        corners[(j0 + 1) % 3] = cs[(k + 2) % 3]
        corners[(j0 + 2) % 3] = cs[(k + 1) % 3]
        made.append(LiftedTriangle(v2, corners, j0, sign, tri_idx))
    # fancy indexing copies, so the signs leave the side factors as they are
    level = factors.factors[:, slots]
    level[2] *= np.array(signs, dtype=float)[:, None]
    try:
        d = _far_spinor(np.stack(side_a, axis=1), np.stack(side_c, axis=1), level, coords.rank)
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


def lift(coords, depth, base_vertex=0, base_side=0):
    """Recursive light-cone lift: base triangle in standard position at
    base_side, then breadth-first attachment out to the given
    combinatorial depth.  The triangle put across half-edge h, slot k of
    triangle tau (entry slot e, sign s_tau), gets kappa (`_side_factors`)
    times its sign

        s = s_tau eps(h) tau_k,

    with eps(h) = -1 where h is its edge's head, as in `_crossing`, and
    tau_k = -1 where k = e + 1 (mod 3); at the base, s = +1 and tau_k = -1
    where k != e.  So each lifted triangle is act(F, .) of its standard
    points at its entry slot, F its path frame in `build_rep`'s terms: the
    identity at the base, `_turn` to the slot crossed, then `_crossing`.

    Derivation.  Let sigma be the sign of c's spinor on `_far_spinor`'s
    sheet against c0 F, its standard spinor c0 = (sqrt s, 0, 0) times the
    frame, whose odd-odd body is +1, as in every turn and crossing.  Then
    a's is sigma a0 F, a0 = (0, sqrt r, 0), as omega(a, c) has a negative
    body, n is (0, 0, 1) F, and d = sigma (alpha c0 - beta a0 + sigma kappa
    (0, 0, 1)) F.  From standard position the far triangle has the frame
    E_h where kappa carries eps(h), and R E_h (R the fermionic reflection)
    where it carries -eps(h); so the sign is eps(h) sigma.  At k = e + 1,
    c is corner e, and (1, 0, 0) T = -(1, 1, m) negates its frame spinor
    (T = `_turn`); at k = e + 2, c is corner e + 1, and
    (1, 0, 0) T^2 = (0, 1, 0) keeps it.  Corner e + 1 of
    a triangle put with s is its parent's c, and E_h's first row is
    (1/x, 0, 0) with x = eps(h) sqrt(chi), so its sigma is s.  The new
    corner e lies beyond the entry side, with no cut of the sheet between
    it and corner e + 1: the one cut is the base's fermion corner
    (x1 = x2, y > 0), which the sheet takes from that side.  So corner e
    has sigma = s too.  In the base (F = I) sigma is +1 at c = s(1,0,0)
    and at the fermion corner, but -1 at a = r(0,1,0), which the sheet
    negates: corners e and e + 1 straddle the cut.

    The lift carries one spinor per point, and never takes the square root
    of a point it built: the base triangle's spinors are closed forms in
    its r, s and t, and each new point is the square of the spinor that
    `minkowski._far_spinor` returns, which is carried to the next level.
    The side factors alpha, beta and kappa depend only on the chart, so
    they are made once per lift for every (vertex, slot), and r, s, t and
    their roots are among them.  The triangles of one breadth-first level
    depend only on their parents, so each level is attached at once (see
    `_attach_level`), as a handful of products of whole (3, B, 2**rank)
    spinor stacks, with no group element; the points and triangles come
    out in the order of attaching them one by one, parent by parent and
    side by side.  The spinors are not stored on the points, so a check of
    the lift (`LiftedTriangulation.mu_residual`) works each one out from
    its point.

    Rejects a depth that is not an int or is below 1, a base vertex or
    side (0, 1 or 2) that is not an index of the chart, naming the value,
    and a fatgraph that is not connected, naming a vertex not reached."""
    graph = coords.graph
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)):
        raise ValueError("depth must be an int, got %r" % (depth,))
    if depth < 1:
        raise ValueError("depth must be at least 1, got %d" % depth)
    fg._require_index("base_side", base_side, 3)
    fg._require_index("base_vertex", base_vertex, graph.num_vertices)
    # a lift of one component of a disconnected fatgraph is no lift of it
    graph.spanning_tree(base_vertex)
    factors = _side_factors(coords)
    points, spinors = _base_triangle(coords, factors, base_vertex, base_side)
    triangles = [LiftedTriangle(base_vertex, (0, 1, 2), base_side, 1, -1)]
    frontier = [0]
    for _ in range(depth):
        jobs = [(t, k) for t in frontier for k in range(3) if t == 0 or k != triangles[t].entry]
        frontier = _attach_level(coords, factors, points, spinors, triangles, jobs)
    return LiftedTriangulation(coords, points, triangles, base_vertex, base_side)


# -- holonomy representations --------------------------------------------------


class FundamentalDomain:
    """Tree-of-triangles domain: one triangle per fatgraph vertex glued
    along the spanning tree from the base vertex, one pairing generator per
    leftover edge, of the fatgraph graph.  tree is
    `Fatgraph.spanning_tree(base_vertex)`: each vertex, in the order
    reached, mapped to the half-edge at its parent through which it was
    reached (None at the base)."""

    __slots__ = ("graph", "base_vertex", "tree", "generators")

    def __init__(self, graph, base_vertex, tree, generators):
        self.graph = graph
        self.base_vertex = base_vertex
        self.tree = tree
        self.generators = tuple(generators)


def fundamental_domain(graph, base_vertex=0):
    """The domain of the breadth-first spanning tree from the base vertex;
    its generators are the non-tree edges, in edge order.  Rejects a base
    vertex that is not one of the fatgraph's vertices, and a fatgraph that
    is not connected."""
    fg._require_index("base_vertex", base_vertex, graph.num_vertices)
    tree = graph.spanning_tree(base_vertex)
    tree_edges = {graph.edge_of(h) for h in tree.values() if h is not None}
    generators = [j for j in range(graph.num_edges) if j not in tree_edges]
    return FundamentalDomain(graph, base_vertex, tree, generators)


def _turn(coords, v, steps):
    """Frame of v's triangle in standard position at slot k + steps, steps
    1 or 2, in its standard position at slot k: T_v for one sigma-turn,
    T_v^-1 for two, with m = mu_v gauge.  T_v is R times the frame
    (`minkowski._spinor_frame`) of the next slot's standard spinors, R the
    fermionic reflection, so phi = m on every slot and T_v^3 = I."""
    m = coords.mus[v] * float(coords.gauge)
    if steps == 1:
        return sl.SuperMatrix([[-1, -1, -m], [1, 0, 0], [m, 0, 1]], coords.rank)
    return sl.SuperMatrix([[0, 1, 0], [-1, -1, -m], [0, -m, 1]], coords.rank)


def _crossing(coords, h):
    """Frame of the triangle across the edge of half-edge h, at its
    partner's slot, in that of h's triangle at h's slot:

        E_h = (0, -x, 0 / 1/x, 0, 0 / 0, 0, 1),  x = eps sqrt(chi),

    with chi the edge's cross-ratio (`_cross_ratio`), and eps = -1 where h
    is the edge's head (the crossing runs against the arrow): this sign is
    where the spin structure enters.  From h's triangle in standard
    position, E_h is the frame of the triangle `lift` puts across the side,
    with kappa times eps.  E_partner(h) E_h = I."""
    e = coords.graph.edge_of(h)
    chi = _cross_ratio(*(coords.lambdas[j] for j in _quad_labels(coords, e)[0][:4]))
    eps = -1.0 if h == coords.orientation.head(e) else 1.0
    # chi^(-1/2) gives 1/x, and x = chi chi^(-1/2), from one series
    x_inv = chi.rsqrt() * eps
    return sl.SuperMatrix([[0, -(chi * x_inv), 0], [x_inv, 0, 0], [0, 0, 1]], coords.rank)


class SuperRep:
    """Holonomy of a chart from a fundamental domain.  frames[h] is the
    frame of the triangle of h's vertex in standard position at h's slot
    (the fermion at the corner opposite h): act(frames[h], P) carries each
    standard point P to the domain.  elements holds one group element per
    generator edge."""

    def __init__(self, coords, domain, frames, elements):
        self.coords = coords
        self.domain = domain
        self.frames = frames
        self.elements = elements

    def generators(self):
        return [self.elements[j] for j in self.domain.generators]

    def _letters(self, arrivals):
        """Generator crossings, in order, of a closed walk (a boundary orbit,
        say) given by the half-edges it arrives at; tree crossings add none."""
        graph = self.coords.graph
        for h in arrivals:
            j = graph.edge_of(h)
            if j in self.elements:
                yield sl.inverse_osp(self.elements[j]) if h == graph.edges[j][0] else self.elements[j]

    def word(self, arrivals):
        """Holonomy of a closed walk: its generator crossings composed."""
        return functools.reduce(sl.smul, self._letters(arrivals), sl.identity(self.coords.rank))

    def puncture_traces(self):
        """Body of the trace of each puncture's `word`, from the real 2x2
        bodies of its crossings alone: the body is a ring homomorphism."""
        return [
            float(np.trace(functools.reduce(np.matmul, map(sl.bosonic_reduction, self._letters(orbit)), np.eye(2))))
            for orbit in self.coords.graph.boundary_orbits()
        ]


def build_rep(coords, domain=None):
    """Representation from a fundamental domain, as a product of the two
    elementary frames read off the chart, `_turn` and `_crossing`.

    The base triangle's frame is the identity at slot 0.  A tree child
    reached through h gets E_h times its parent's frame at h's slot, at the
    slot of partner(h); a frame at another slot of the same triangle is the
    turn to it times that one.  Generator edge j = (h1, h2) is
    frames[h1]^-1 E_h2 frames[h2]: it carries v1's triangle onto its copy
    across h2.  The spin structure enters through the signs of the
    crossings alone.  Rejects a domain made for another fatgraph, naming
    the two."""
    graph = coords.graph
    if domain is None:
        domain = fundamental_domain(graph)
    if (domain.graph.vertices, domain.graph.edges) != (graph.vertices, graph.edges):
        sizes = tuple((x.num_vertices, x.num_edges) for x in (domain.graph, graph))
        raise ValueError("fundamental domain is of another fatgraph, (V, E) = %r, than the chart's %r" % sizes)
    frames = [None] * (2 * graph.num_edges)
    for v, h in domain.tree.items():
        hs = graph.vertices[v]
        if h is None:
            k, frame = 0, sl.identity(coords.rank)
        else:
            k, frame = hs.index(graph.partner(h)), sl.smul(_crossing(coords, h), frames[h])
        frames[hs[k]] = frame
        for steps in (1, 2):
            frames[hs[(k + steps) % 3]] = sl.smul(_turn(coords, v, steps), frame)
    elements = {}
    for j in domain.generators:
        h1, h2 = graph.edges[j]
        elements[j] = sl.smul_many(sl.inverse_osp(frames[h1]), _crossing(coords, h2), frames[h2])
    return SuperRep(coords, domain, frames, elements)


# -- the invariant two-form ----------------------------------------------------


def two_form(graph):
    """The even two-form as its integer matrix Omega over the coordinates
    (log lambda_0, ..., log lambda_{E-1}, mu_0, ..., mu_{V-1}): for each
    pair (i, j) of edges consecutive in the clockwise order (h0, h2, h1) at
    a vertex, Omega_ij += 1 and Omega_ji -= 1; Omega is -1 on the mu
    diagonal and 0 between the lambda and mu blocks.  This is the form

        sum_v (d log a ^ d log b + cyclic) - sum_v d mu_v d mu_v,

    whose coefficients in these coordinates are constant, so it is read
    off the fatgraph alone.  In the chart's own differentials the
    coefficient of d lambda_i ^ d lambda_j (i < j) is
    Omega_ij / (lambda_i lambda_j), and that of d mu_v d mu_v is -1."""
    num_edges = graph.num_edges
    omega = np.zeros((num_edges + graph.num_vertices,) * 2, dtype=np.int64)
    for v, hs in enumerate(graph.vertices):
        clockwise = [graph.edge_of(h) for h in (hs[0], hs[2], hs[1])]
        for i, j in zip(clockwise, clockwise[1:] + clockwise[:1]):
            omega[i, j] += 1
            omega[j, i] -= 1
        omega[num_edges + v, num_edges + v] = -1
    return omega


def _involution(c, rank):
    """The grade involution of a coefficient array: its odd part negated."""
    return np.where(_popcount(rank) & 1, -c, c)


def _jacobian(evaluate, args, coords, even):
    """Exact partials of evaluate's outputs along n coordinates, from one
    stacked evaluation at rank r + 2 (r the rank of args), where generators
    r + 1 and r + 2 appear nowhere.  Argument s of evaluate is coordinate
    coords[s], and coordinate i moves in stack element i: an even one
    (even[i]) as a log, x -> x (1 + eta) with eta = g_{r+1} g_{r+2}, an odd
    one as x -> x + g with g = g_{r+1}.  As eta^2 = g^2 = 0, an output
    becomes y + (dy / d log x) eta, read off the eta block
    coeffs[3 << r:], or y + g dy/dx, with the left derivative in g.

    Returns the outputs at rank r, an (outputs, 2**r) array, and the
    (outputs, n, 2**r) Jacobian with its coefficients on the left,
    dy = sum_i jac[:, i] du_i, u_i = log x_i for an even coordinate and x_i
    for an odd one: a partial along an even coordinate goes through the
    grade involution, as du_i anticommutes with odd elements."""
    rank = args[0].rank
    x = np.zeros((len(args), len(even), 4 << rank))
    for s, (arg, i) in enumerate(zip(args, coords)):
        x[s, :, : 1 << rank] = arg.coeffs
        if even[i]:
            x[s, i, 3 << rank :] = arg.coeffs
        else:
            x[s, i, 1 << rank] = 1.0
    y = np.stack([out.coeffs for out in evaluate(*(GrassmannNumber.wrap(rank + 2, c) for c in x))])
    odd = odd_derivative(GrassmannNumber.wrap(rank + 2, y), rank + 1).coeffs[..., : 1 << rank]
    return y[:, 0, : 1 << rank], np.where(even[:, None], _involution(y[..., 3 << rank :], rank), odd)


def _pullback_gap(jac, after, before, even, scales):
    """The pullback of the form `after` through jac minus the form
    `before`, as the normal-ordered coefficients of the inputs' plain
    differentials: an (n, n, 2**r) array, zero below the diagonal, whose
    entry (a, b), a <= b, is the coefficient of dx_a dx_b.

    jac (m, n, 2**r) is `_jacobian`'s, in the inputs' coordinates u_a.
    after (m, m) and before (n, n) are integer forms,
    sum_{k <= l} form[k, l] du_k du_l, read on and above the diagonal.
    Differentials of even inputs (even, n booleans) anticommute and square
    to zero; those of odd inputs commute.  scales (n, 2**r) holds the
    factors dx_a = du_a / scales[a]: x_a's inverse for an even input, 1 for
    an odd one.

    Moving du_a past a coefficient c puts c through the grade involution g
    where u_a is even, so before ordering, du_a du_b has the coefficient
    sum_k jac[k, a] (upper(after) g(jac))[k, b] at an even u_a, and the same
    without g at an odd one.  The pair (b, a), b > a, then moves to (a, b),
    negated where both inputs are even."""
    n = len(even)
    rank = jac.shape[-1].bit_length() - 1
    # right[s, k, b]: the rows of upper(after) times jac, through g for s = 1
    right = np.einsum("kl,slbc->skbc", np.triu(after).astype(float), np.stack([jac, _involution(jac, rank)]))
    right = right[even.astype(int)].swapaxes(0, 1)
    # rows of plain numbers (the coordinates passed through) scale their
    # right factors; the others multiply them
    plain = ~jac[..., 1:].any(axis=(1, 2))
    unordered = np.einsum("ka,kabc->abc", jac[plain, :, 0], right[plain]) + _kernels.multiply_coeffs(
        jac[~plain, :, None], right[~plain], rank
    ).sum(axis=0)
    moved = unordered.swapaxes(0, 1) * np.where(even[:, None] & even, -1.0, 1.0)[..., None]
    gap = np.where(np.triu(np.ones((n, n), bool), 1)[..., None], unordered + moved, 0.0)
    odd = np.flatnonzero(~even)
    gap[odd, odd] = unordered[odd, odd]
    gap[..., 0] -= np.triu(before)
    return _kernels.multiply_coeffs(gap, _kernels.multiply_coeffs(scales[:, None], scales, rank), rank)


def _ptolemy(a, b, c, d, lam_e, sigma, theta):
    """The flip's new values (f, nu, mu) from its seven inputs, each of
    which may be a stack: ac and bd are formed once, for the cross-ratio
    (as `_cross_ratio` forms it) and for `minkowski.ptolemy_even`."""
    ac, bd = a * c, b * d
    nu, mu = ptolemy_odd(sigma, theta, ac * bd.inverse())
    return _ptolemy_even(ac, bd, lam_e, sigma, theta), nu, mu


def pullback_check(coords, e, details=False):
    """Max coefficient gap between the chart's two-form and the flipped
    chart's, pulled back through the flip: J^T Omega' J = Omega, with
    graded signs, where Omega and Omega' are the integer matrices of
    `two_form` before and after the flip and J the flip's Jacobian in the
    coordinates (log lambda, mu).  With details=True also returns the
    offending pair, as in "dl3*dm1".

    The flip changes three coordinates, f, nu and mu', and they depend on
    at most seven inputs, a, b, c, d, lambda_e, sigma and theta.  Outside
    the rows and columns of the quadrilateral's edges and its two vertices
    J is the identity and Omega' is Omega, so the gap there is zero, and
    only that block is checked.  Its partials are exact, from one stacked
    evaluation of the Ptolemy formulas with each coordinate of the block
    moved along a nilpotent direction (`_jacobian`), so any chart can be
    checked, whatever generators its lambdas and mus share.  The gap is
    given in the chart's own differentials, as coefficients of
    d lambda ^ d lambda, d lambda d mu and d mu d mu.  The form holds each
    mu only through d mu^2, so the gap cannot see the sign of any mu, and
    is no evidence for a mu-sign law."""
    graph = coords.graph
    res = fg.flip(graph, e, coords.orientation)
    edges, v_theta, v_sigma = _quad_labels(coords, e)
    v_nu, v_mu = _nu_mu_vertices(graph, coords.orientation, e, res, v_theta, v_sigma)
    num_edges = graph.num_edges
    block = sorted(set(edges)) + sorted(num_edges + v for v in (v_theta, v_sigma))
    even = np.array([k < num_edges for k in block])
    slots = [block.index(k) for k in edges + (num_edges + v_sigma, num_edges + v_theta)]
    lambdas = [coords.lambdas[j] for j in edges]
    values, parts = _jacobian(_ptolemy, lambdas + [coords.mus[v_sigma], coords.mus[v_theta]], slots, even)
    rank = coords.rank
    jac = np.zeros((len(block),) * 2 + (1 << rank,))
    jac[range(len(block)), range(len(block)), 0] = 1.0
    # d log f = df / f
    f_inv = GrassmannNumber.wrap(rank, values[0]).inverse()
    jac[block.index(e)] = _kernels.multiply_coeffs(f_inv.coeffs, parts[0], rank)
    jac[block.index(num_edges + v_nu)] = parts[1]
    jac[block.index(num_edges + v_mu)] = parts[2]
    scales = np.zeros_like(jac[0])
    scales[even] = stack([coords.lambdas[k] for k in block if k < num_edges]).inverse().coeffs
    scales[~even, 0] = 1.0
    after, before = (two_form(g)[np.ix_(block, block)] for g in (res.graph, graph))
    gap = np.abs(_pullback_gap(jac, after, before, even, scales)).max(axis=-1)
    a, b = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[a, b])
    if not details:
        return worst
    names = ["d%s%d" % (("l", k) if k < num_edges else ("m", k - num_edges)) for k in block]
    return worst, names[a] + "*" + names[b] if worst > 0 else ""


def ptolemy_form_identity(sigma, theta, chi):
    """Max residual coefficient of the odd-flip form identity

        d mu^2 + d nu^2 - d sigma^2 - d theta^2
            - d(theta sigma) d chi / ((1 + chi) sqrt(chi)) = 0,

    (nu, mu) = `ptolemy_odd`(sigma, theta, chi), in the plain differentials
    of sigma, theta and chi.  It is `_pullback_gap`'s integer form over
    (nu, mu, sigma, theta, theta sigma, w), with dw = d chi /
    ((1 + chi) sqrt(chi)) entered as its Jacobian row, and the partials
    are exact (`_jacobian`).  sigma and theta are any odd values, chi any
    even one with a positive body."""
    rank = common_rank((sigma, theta, chi))
    sigma = _odd_coord(sigma, rank, "sigma")
    theta = _odd_coord(theta, rank, "theta")
    chi = _even_coord(chi, rank, "chi")
    even = np.array([False, False, True])
    _, parts = _jacobian(lambda s, t, c: (*ptolemy_odd(s, t, c), t * s), [sigma, theta, chi], [0, 1, 2], even)
    jac = np.zeros((6, 3, 1 << rank))
    jac[[0, 1, 4]] = parts
    jac[2, 0, 0] = jac[3, 1, 0] = 1.0
    # dw / d log chi = sqrt(chi) / (1 + chi)
    jac[5, 2] = (chi.sqrt() * (1 + chi).inverse()).coeffs
    form = np.diag([1, 1, -1, -1, 0, 0])
    form[4, 5] = -1
    scales = np.zeros((3, 1 << rank))
    scales[:2, 0] = 1.0
    scales[2] = chi.inverse().coeffs
    return float(np.abs(_pullback_gap(jac, form, np.zeros((3, 3), int), even, scales)).max())


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


def parse_coords(text, rank):
    """Read `write_coords`'s format.  The fatgraph lines (the `fatgraph v1`
    header, `orient:`, and lines headed vK: or eK:, K an integer) go to
    `fg.parse_fatgraph`; any other line that is not a lambda, mu or gauge
    line is rejected as unrecognized, quoted."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "coords v1":
        raise ValueError("missing coords v1 header, got %r" % (lines[0] if lines else ""))
    graph_lines, rest = [], []
    for ln in lines[1:]:
        if ln == "fatgraph v1" or ln.startswith("orient:") or re.fullmatch(r"[ve]-?\d+", ln.partition(":")[0]):
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
        if ln.startswith(("lambda ", "mu ")):
            parts = ln.split(None, 2)
            if len(parts) != 3:
                raise ValueError("line %r needs a name and a value" % ln)
            slots, prefix = (lambdas, "e") if parts[0] == "lambda" else (mus, "v")
            fg._put_indexed(slots, ln, parts[1], prefix, parse_grassmann(parts[2], rank))
        elif ln.startswith("gauge "):
            parts = ln.split()
            if len(parts) != 2 or parts[1] not in ("+", "-"):
                raise ValueError("gauge must be + or -, in line %r" % ln)
            gauge = 1 if parts[1] == "+" else -1
        else:
            raise ValueError("unrecognized line %r" % ln)
    for slots, name, prefix in ((lambdas, "lambda", "e"), (mus, "mu", "v")):
        if None in slots:
            raise ValueError("missing %s line for %s%d" % (name, prefix, slots.index(None)))
    if gauge is None:
        raise ValueError("missing gauge line")
    return DecoratedCoords(graph, lambdas, mus, orientation, gauge)
