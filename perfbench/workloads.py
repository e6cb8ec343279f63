"""The benchmark's three workloads: inputs made from a seed, the timed
operation (op) and the check of every op's outputs.

Each check compares the op's outputs with a separate computation done in
`refalgebra`, or with a property the construction must have; none compares
with stored outputs.  A check raises `CheckFailed` naming what disagreed.

Library functions are always called through their module (`dc.lift`,
`mk.mu_invariant`, `fg.flip`), so that the traced mode can wrap them.
"""

import collections
import math

import numpy as np

from superteich import decorated as dc
from superteich import fatgraph_spin as fg
from superteich import minkowski as mk
from superteich.grassmann import GrassmannNumber

import refalgebra as ra

ROOT2 = math.sqrt(2.0)

# relative tolerance: a gap is judged against the size of the values compared
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require_close(what, x, y):
    """Coefficientwise |x - y| within REL_TOL of the larger of the two."""
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    gap = float(np.abs(x - y).max())
    if gap > REL_TOL * scale:
        raise CheckFailed("%s: gap %.3g at scale %.3g" % (what, gap, scale))


def _require_close_up_to_sign(what, x, y):
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    gap = min(float(np.abs(x - y).max()), float(np.abs(x + y).max()))
    if gap > REL_TOL * scale:
        raise CheckFailed("%s: gap %.3g (up to sign) at scale %.3g" % (what, gap, scale))


# -- random Grassmann inputs ---------------------------------------------------


def _masks(rank, popcounts):
    idx = np.arange(1 << rank)
    return idx[np.isin(np.bitwise_count(idx), popcounts)]


def _element(rng, rank, body, popcounts, terms, scale):
    """body plus `terms` distinct monomials drawn from the given generator
    counts, with N(0, scale) coefficients."""
    coeffs = np.zeros(1 << rank)
    coeffs[0] = body
    if terms:
        pool = _masks(rank, popcounts)
        for m in rng.choice(pool, size=terms, replace=False):
            coeffs[m] = rng.normal(0.0, scale)
    return GrassmannNumber(rank, coeffs)


def _even(rng, rank, body, terms, scale=0.15):
    return _element(rng, rank, body, (2, 4), terms, scale)


def _odd(rng, rank, terms, scale=0.5):
    return _element(rng, rank, 0.0, (1, 3), terms, scale)


# -- lift: decorated.lift of random charts on the bipartite spines ----------


LIFT_RANK = 8
LIFT_DEPTH = 2


def lift_inputs(rng, count):
    """Charts at rank 8, alternating theta and genus two: each lambda a positive body plus at most one even
    soul term, each mu one or two odd monomials; random orientation, gauge,
    base vertex and base side."""
    out = []
    for k in range(count):
        graph = fg.theta_graph() if k % 2 == 0 else fg.genus_two_spine()
        lambdas = [
            _even(rng, LIFT_RANK, float(rng.uniform(0.7, 1.6)), int(rng.integers(0, 2)))
            for _ in range(graph.num_edges)
        ]
        mus = [
            _odd(rng, LIFT_RANK, int(rng.integers(1, 3)))
            for _ in range(graph.num_vertices)
        ]
        bits = tuple(int(b) for b in rng.integers(0, 2, size=graph.num_edges))
        chart = dc.DecoratedCoords(
            graph,
            lambdas,
            mus,
            fg.Orientation.from_bits(graph, bits),
            gauge=int(rng.choice([1, -1])),
            rank=LIFT_RANK,
        )
        base = (int(rng.integers(0, graph.num_vertices)), int(rng.integers(0, 3)))
        out.append((chart, base))
    return out


def lift_op(inp):
    chart, (base_vertex, base_side) = inp
    return dc.lift(chart, LIFT_DEPTH, base_vertex, base_side)


def _point(p):
    return tuple(v.coeffs for v in p.components())


def _body_orientation(p, q, r):
    return float(np.linalg.det(np.array([[x[0] for x in pt[:3]] for pt in (p, q, r)])))


def check_lift(inp, lifted):
    """Every side's lambda squared equals the pairing of its two corners;
    every lifted point has zero self-pairing and zero fermion label; the
    odd invariant of every lifted triangle, taken in positive order, is
    plus or minus the chart's mu at its vertex."""
    chart, _ = inp
    graph = chart.graph
    want = 1 + 3 * (2**LIFT_DEPTH - 1)
    if len(lifted.triangles) != want:
        raise CheckFailed("lift has %d triangles, expected %d" % (len(lifted.triangles), want))
    pts = [_point(p) for p in lifted.points]
    for n, p in enumerate(pts):
        scale = max(1.0, max(float(np.abs(x).max()) for x in p))
        _require_close("<P%d,P%d>" % (n, n), ra.pairing(p, p) / scale**2, 0.0 * p[0])
        _require_close("fermion label of P%d" % n, ra.fermion_residual(p) / scale**2, 0.0 * p[0])
        if min(p[0][0], p[1][0]) < -REL_TOL * scale:
            raise CheckFailed("P%d has a negative x1 or x2 body" % n)
    for t, tri in enumerate(lifted.triangles):
        halves = graph.vertices[tri.vertex]
        for k in range(3):
            # corner k sits opposite the k-th half-edge
            i, j = tri.corners[(k + 1) % 3], tri.corners[(k + 2) % 3]
            lam = chart.lambdas[graph.edge_of(halves[k])].coeffs
            _require_close(
                "triangle %d side %d: lambda^2 vs <P%d,P%d>" % (t, k, i, j),
                ra.mul(lam, lam),
                ra.pairing(pts[i], pts[j]),
            )
        p, q, r = (pts[i] for i in tri.corners)
        if _body_orientation(p, q, r) < 0:
            q, r = r, q
        _require_close_up_to_sign(
            "triangle %d: mu of the lifted corners vs mu[%d]" % (t, tri.vertex),
            ra.triple_mu(p, q, r),
            chart.mus[tri.vertex].coeffs,
        )


# -- ptolemy: the super Ptolemy flip against the lifted quadrilateral -------


PTOLEMY_RANK = 12


def ptolemy_inputs(rng, count):
    """Quadrilaterals (a, b, c, d, e, sigma, theta) at rank 12: lambdas with
    two even soul terms each, sigma and theta with three odd monomials."""
    out = []
    for _ in range(count):
        lams = [
            _even(rng, PTOLEMY_RANK, float(rng.uniform(0.6, 1.8)), 2) for _ in range(5)
        ]
        odds = [_odd(rng, PTOLEMY_RANK, 3, scale=0.4) for _ in range(2)]
        out.append(tuple(lams + odds))
    return out


def ptolemy_op(quad):
    """The flip two ways: the super Ptolemy formulas, and the geometry of the
    quadrilateral with the near triangle (A, B, C) in standard position and
    the far point D from the basic calculation."""
    a, b, c, d, e, sigma, theta = quad
    f = mk.ptolemy_even(a, b, c, d, e, sigma, theta)
    chi = a * c * (b * d).inverse()
    nu, mu = mk.ptolemy_odd(sigma, theta, chi)
    rank = a.rank
    zero = GrassmannNumber(rank)
    r = ROOT2 * e * a * b.inverse()
    s = ROOT2 * b * e * a.inverse()
    t = ROOT2 * a * b * e.inverse()
    pa = mk.SuperVector(zero, r, zero, zero, zero, rank=rank)
    pb = mk.SuperVector(t, t, t, t * theta, t * theta, rank=rank)
    pc = mk.SuperVector(s, zero, zero, zero, zero, rank=rank)
    pd = mk.basic_calculation(a, b, c, d, e, sigma)
    mu_abd, _ = mk.mu_invariant(pa, pb, pd)
    mu_bcd, _ = mk.mu_invariant(pb, pc, pd)
    return {"f": f, "nu": nu, "mu": mu, "D": pd, "mu_abd": mu_abd, "mu_bcd": mu_bcd}


def check_ptolemy(quad, out):
    """f^2 = <B,D>, with B rebuilt here; D pairs with A and C to d^2 and
    c^2; the mu-invariants of (A,B,D) and (B,C,D) are plus or minus the
    flip's mu and nu; flipping back, ptolemy_odd(mu, nu, 1/chi), returns
    (sigma, -theta)."""
    a, b, c, d, e, sigma, theta = (x.coeffs for x in quad)
    rank = quad[0].rank
    zero = np.zeros(1 << rank)
    t = ROOT2 * ra.mul(ra.mul(a, b), ra.inverse(e))
    pb = (t, t, t, ra.mul(t, theta), ra.mul(t, theta))
    r = ROOT2 * ra.mul(ra.mul(e, a), ra.inverse(b))
    s = ROOT2 * ra.mul(ra.mul(b, e), ra.inverse(a))
    pa = (zero, r, zero, zero, zero)
    pc = (s, zero, zero, zero, zero)
    pd = _point(out["D"])
    f = out["f"].coeffs
    _require_close("f^2 vs <B,D>", ra.mul(f, f), ra.pairing(pb, pd))
    _require_close("<A,D> vs d^2", ra.pairing(pa, pd), ra.mul(d, d))
    _require_close("<C,D> vs c^2", ra.pairing(pc, pd), ra.mul(c, c))
    _require_close_up_to_sign("mu(A,B,D) vs mu", out["mu_abd"].coeffs, out["mu"].coeffs)
    _require_close_up_to_sign("mu(B,C,D) vs nu", out["mu_bcd"].coeffs, out["nu"].coeffs)
    chi = ra.mul(ra.mul(a, c), ra.inverse(ra.mul(b, d)))
    back_sigma, back_theta = mk.ptolemy_odd(
        out["mu"], out["nu"], GrassmannNumber(rank, ra.inverse(chi))
    )
    _require_close("flip back: sigma", back_sigma.coeffs, sigma)
    _require_close("flip back: -theta", back_theta.coeffs, -theta)


# -- spin: random flip walks on random trivalent fatgraphs ------------------


SPIN_VERTICES = 6
WALK_LENGTH = 20
# (genus, punctures) of the surfaces with V=6, E=9: 2g + n = 5
SPIN_SURFACES = ((0, 5), (1, 3), (2, 1))


def _is_connected(graph):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for h in graph.vertices[v]:
            w = graph.vertex_of(graph.partner(h))
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.num_vertices


def random_fatgraph(rng, num_vertices=SPIN_VERTICES):
    """Connected trivalent fatgraph with num_vertices vertices: half-edges
    dealt to vertices in a random cyclic order and paired at random, drawn
    again until connected.  Loops and multiple edges are allowed."""
    n = 3 * num_vertices
    while True:
        deal = [int(h) for h in rng.permutation(n)]
        pairs = [int(h) for h in rng.permutation(n)]
        graph = fg.Fatgraph(
            [deal[3 * i : 3 * i + 3] for i in range(num_vertices)],
            [sorted(pairs[2 * j : 2 * j + 2]) for j in range(n // 2)],
        )
        if _is_connected(graph):
            return graph


def spin_inputs(rng, count):
    """Walks of WALK_LENGTH flips: a random fatgraph (V=6, E=9), a random
    starting orientation, and one uniform draw per flip that picks the
    flipped edge among the non-loop edges of the current graph.

    Flips keep the surface, and walk cost depends strongly on it (genus 0
    with five punctures has the most coinciding quadrilateral leaves), so
    the walks rotate through the three surfaces V=6, E=9 can carry; each
    graph is drawn again until it lies on the surface of its turn.  Any
    prefix of the list then holds them in equal shares."""
    out = []
    for k in range(count):
        surface = SPIN_SURFACES[k % len(SPIN_SURFACES)]
        graph = random_fatgraph(rng)
        while (graph.genus, graph.punctures) != surface:
            graph = random_fatgraph(rng)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=graph.num_edges))
        picks = tuple(float(u) for u in rng.random(WALK_LENGTH))
        out.append((graph, fg.Orientation.from_bits(graph, bits), picks))
    return out


def spin_op(walk):
    graph, orientation, picks = walk
    steps = []
    for u in picks:
        edges = [e for e in range(graph.num_edges) if not graph.is_loop(e)]
        res = fg.flip(graph, edges[int(u * len(edges))], orientation)
        steps.append(res)
        graph, orientation = res.graph, res.orientation
    return steps


def _ramond_count(form):
    graph = form.graph
    return sum(int(form.value(graph.puncture_vector(o))) for o in graph.boundary_orbits())


def _shape(graph):
    return (graph.num_vertices, graph.num_edges, graph.genus, graph.punctures)


def check_spin(walk, steps):
    """After every flip the new quadratic form, on the transported cycle
    basis, equals the old one; the number of Ramond punctures, V, E, the
    genus and the number of punctures are unchanged."""
    graph, orientation, _ = walk
    if len(steps) != WALK_LENGTH:
        raise CheckFailed("walk made %d flips, expected %d" % (len(steps), WALK_LENGTH))
    old = fg.QuadraticForm(graph, orientation)
    shape, ramond = _shape(graph), _ramond_count(old)
    for n, res in enumerate(steps):
        new = fg.QuadraticForm(res.graph, res.orientation)
        for cycle in old.graph.cycle_basis():
            if new.value(res.transport(cycle)) != old.value(cycle):
                raise CheckFailed(
                    "flip %d (edge %d): quadratic form changed on cycle %s"
                    % (n, res.edge, "".join(map(str, cycle)))
                )
        if _shape(res.graph) != shape:
            raise CheckFailed("flip %d changed (V, E, genus, punctures)" % n)
        if _ramond_count(new) != ramond:
            raise CheckFailed("flip %d changed the number of Ramond punctures" % n)
        old = new


Workload = collections.namedtuple("Workload", "make_inputs op check")

WORKLOADS = {
    "lift": Workload(lift_inputs, lift_op, check_lift),
    "ptolemy": Workload(ptolemy_inputs, ptolemy_op, check_ptolemy),
    "spin": Workload(spin_inputs, spin_op, check_spin),
}
