"""Decorated charts: the coords text format, the gauge, the light-cone lift
and the super Ptolemy flip."""

import itertools

import numpy as np
import pytest

from superteich import _kernels
from superteich import decorated as dc
from superteich import fatgraph_spin as fg
from superteich import minkowski as mk
from superteich import superlinalg as sl
from superteich.grassmann import GrassmannNumber, random_element
from test_minkowski import count_calls

RANK = 8

SPINES = {
    "theta": fg.theta_graph,
    "dumbbell": fg.dumbbell_graph,
    "four_puncture": fg.four_puncture_spine,
    "genus_two": fg.genus_two_spine,
}


class TestCoordsText:
    @pytest.mark.parametrize("name", sorted(SPINES))
    @pytest.mark.parametrize("gauge", [1, -1])
    def test_round_trip_keeps_gauge(self, name, gauge):
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        if gauge != chart.gauge:
            chart = chart.flip_gauge()
        back = dc.parse_coords(dc.write_coords(chart), RANK)
        assert back.gauge == gauge
        assert back.isclose(chart)

    @pytest.mark.parametrize("token", ["+-", "-+", "++", "", "+ -", "1", "plus"])
    def test_bad_gauge_rejected_naming_the_line(self, token):
        text = dc.write_coords(dc.standard_chart(fg.theta_graph(), rank=RANK))
        bad_line = ("gauge " + token).strip()
        text = text.replace("gauge +", bad_line)
        with pytest.raises(ValueError) as err:
            dc.parse_coords(text, RANK)
        assert repr(bad_line) in str(err.value)


def attach_one(coords, deltas, points, triangles, tri_idx, k):
    """Oracle: grow the lift across side k of triangle tri_idx alone, with
    unbatched calls; returns the new triangle index."""
    graph = coords.graph
    tri = triangles[tri_idx]
    hs = graph.vertices[tri.vertex]
    cs = tri.corners
    h = hs[k]
    pa = points[cs[(k + 1) % 3]]
    pb = points[cs[k]]
    pc = points[cs[(k + 2) % 3]]
    g, _, _, _, _ = mk.normalize_triple(pa, pb, pc)
    lam = coords.lambdas
    a = lam[graph.edge_of(hs[(k + 2) % 3])]
    b = lam[graph.edge_of(hs[(k + 1) % 3])]
    e = lam[graph.edge_of(h)]
    h2 = graph.partner(h)
    v2 = graph.vertex_of(h2)
    hs2 = graph.vertices[v2]
    j0 = hs2.index(h2)
    c = lam[graph.edge_of(hs2[(j0 + 2) % 3])]
    d = lam[graph.edge_of(hs2[(j0 + 1) % 3])]
    delta2 = -tri.delta
    assert deltas[v2] == delta2
    sigma = coords.mus[v2] * float(coords.gauge * delta2)
    d_std = mk.basic_calculation(a, b, c, d, e, sigma, rank=coords.rank)
    points.append(mk.act(sl.inverse_osp(g), d_std))
    corners = [0, 0, 0]
    corners[j0] = len(points) - 1
    corners[(j0 + 1) % 3] = cs[(k + 2) % 3]
    corners[(j0 + 2) % 3] = cs[(k + 1) % 3]
    triangles.append(dc.LiftedTriangle(v2, corners, delta2, tri_idx))
    return len(triangles) - 1


def lift_one_by_one(coords, depth, base_vertex=0, base_side=0):
    """Oracle: the breadth-first lift, one triangle at a time."""
    graph = coords.graph
    deltas = dc.delta_coloring(graph, base_vertex)
    points, _ = dc._base_triangle(coords, dc._side_factors(coords, deltas), base_vertex, base_side)
    triangles = [dc.LiftedTriangle(base_vertex, (0, 1, 2), 1, -1)]
    frontier = [(0, None)]
    for _ in range(depth):
        nxt = []
        for tri_idx, parent_side in frontier:
            for k in range(3):
                if k == parent_side:
                    continue
                new_idx = attach_one(coords, deltas, points, triangles, tri_idx, k)
                h2 = graph.partner(graph.vertices[triangles[tri_idx].vertex][k])
                nxt.append((new_idx, graph.vertices[triangles[new_idx].vertex].index(h2)))
        frontier = nxt
    return points, triangles


def random_chart(r, graph, bodies=(0.7, 1.6)):
    """Rank-8 chart: lambdas with a body uniform in bodies and at most one
    even soul term, mus of one or two odd monomials, random orientation and
    gauge."""
    lambdas = [
        random_element(r, RANK, parity="even", terms=int(r.integers(0, 2)), scale=0.15,
                       body=float(r.uniform(*bodies)))
        for _ in range(graph.num_edges)
    ]
    mus = [random_element(r, RANK, parity="odd", terms=int(r.integers(1, 3)), scale=0.5)
           for _ in range(graph.num_vertices)]
    bits = [int(b) for b in r.integers(0, 2, graph.num_edges)]
    return dc.DecoratedCoords(
        graph, lambdas, mus, fg.Orientation.from_bits(graph, bits),
        gauge=int(r.choice([1, -1])), rank=RANK,
    )


def spinors_of(points):
    """Each point's spinor as a (3, 2**rank) array, worked out from the
    point by `minkowski._spinor`."""
    return [np.stack([x.coeffs for x in mk._spinor(p, "first", 1e-9)]) for p in points]


def assert_same_lift(lifted, oracle, lift_scale=False):
    """The lift equals the oracle's: the same triangles, and each point
    within 1e-12 of its own scale, or with lift_scale of the largest
    coefficient of the whole oracle lift."""
    points, triangles = oracle
    assert [(t.vertex, t.corners, t.delta, t.parent) for t in lifted.triangles] == [
        (t.vertex, t.corners, t.delta, t.parent) for t in triangles
    ]
    assert len(lifted.points) == len(points)
    whole = max(1.0, max(float(np.abs(q.coeffs).max()) for q in points))
    for p, q in zip(lifted.points, points):
        scale = whole if lift_scale else max(1.0, float(np.abs(q.coeffs).max()))
        assert p.max_coeff_diff(q) <= 1e-12 * scale


class TestLift:
    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lift_reproduces_lambda_and_mu(self, name, depth):
        lifted = dc.lift(dc.standard_chart(SPINES[name](), rank=RANK), depth, 0, 0)
        assert len(lifted.triangles) == 1 + 3 * (2**depth - 1)
        assert lifted.pairing_residual() <= 1e-9
        assert lifted.mu_residual() <= 1e-9

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_level_at_a_time_matches_one_by_one(self, name, depth):
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        for base in ((0, 0), (1, 2)):
            assert_same_lift(dc.lift(chart, depth, *base), lift_one_by_one(chart, depth, *base))

    def test_a_bad_triangle_of_a_level_is_named(self):
        """A level with triangles 1 and 2 as parents, where only triangle 2
        has a dependent side (its new corner given the spinor of the next
        corner): the error names triangle 2 and the side, not the position
        within the level."""
        chart = dc.standard_chart(SPINES["theta"](), rank=RANK)
        lifted = dc.lift(chart, 1)
        points, triangles = list(lifted.points), list(lifted.triangles)
        spinors = spinors_of(points)
        (new_corner,) = set(triangles[2].corners) - set(triangles[0].corners)
        cs = triangles[2].corners
        j = cs.index(new_corner)
        spinors[new_corner] = spinors[cs[(j + 1) % 3]]
        jobs = [(t, k) for t in (1, 2) for k in range(3)]
        factors = dc._side_factors(chart, dc.delta_coloring(chart.graph, 0))
        message = (
            r"^cannot attach across side %d of lifted triangle 2 \(graph vertex %d\): "
            r"first and third points of triple are linearly dependent" % ((j + 2) % 3, triangles[2].vertex)
        )
        with pytest.raises(ValueError, match=message):
            dc._attach_level(chart, factors, points, spinors, triangles, jobs)
        # the same six jobs attach with the points' own spinors
        made = dc._attach_level(
            chart, factors, list(lifted.points), spinors_of(lifted.points), list(lifted.triangles), jobs
        )
        assert len(made) == 6

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_level_at_a_time_matches_one_by_one_on_random_charts(self, name):
        r = np.random.default_rng(31)
        for _ in range(4):
            chart = random_chart(r, SPINES[name]())
            base = (int(r.integers(0, chart.graph.num_vertices)), int(r.integers(0, 3)))
            assert_same_lift(dc.lift(chart, 2, *base), lift_one_by_one(chart, 2, *base))


    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_depth_three_matches_one_by_one_from_every_slot_on_wide_lambdas(self, name):
        """The side factors against the one-by-one oracle: lambda bodies in
        [0.4, 2.5], three levels, every base slot.  The oracle carries each
        point back from standard position with a group element built from
        its parent triple, so its rounding is set by the largest point of
        the lift (points reach 3.5e3 here), and the gap is measured at that
        scale."""
        r = np.random.default_rng(35)
        graph = SPINES[name]()
        for base in itertools.product(range(graph.num_vertices), range(3)):
            chart = random_chart(r, graph, bodies=(0.4, 2.5))
            assert_same_lift(dc.lift(chart, 3, *base), lift_one_by_one(chart, 3, *base), lift_scale=True)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 0, -1), r"^base_side must be in 0\.\.2, got -1$"),
            ((1, 0, 3), r"^base_side must be in 0\.\.2, got 3$"),
            ((1, 0, True), r"^base_side must be an int, got True$"),
            ((1, -1, 0), r"^base_vertex must be in 0\.\.1, got -1$"),
            ((1, 2, 0), r"^base_vertex must be in 0\.\.1, got 2$"),
            ((1, True, 0), r"^base_vertex must be an int, got True$"),
            ((1, 0.0, 0), r"^base_vertex must be an int, got 0\.0$"),
            ((2.0, 0, 0), r"^depth must be an int, got 2\.0$"),
            ((True, 0, 0), r"^depth must be an int, got True$"),
            ((0, 0, 0), r"^depth must be at least 1, got 0$"),
        ],
    )
    def test_malformed_depth_or_base_is_rejected_naming_the_value(self, args, message):
        chart = dc.standard_chart(SPINES["theta"](), rank=RANK)
        with pytest.raises(ValueError, match=message):
            dc.lift(chart, *args)

    def test_numpy_integers_are_accepted(self):
        chart = dc.standard_chart(SPINES["theta"](), rank=RANK)
        lifted = dc.lift(chart, np.int64(1), np.int64(1), np.int64(2))
        assert_same_lift(lifted, lift_one_by_one(chart, 1, 1, 2))

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_depth_two_lift_makes_at_most_36_products(self, name, monkeypatch):
        """A lift level is a few whole-stack products and the side factors
        are made once per lift: a depth-2 lift makes at most 36 products."""
        calls = []
        inner = _kernels.multiply_coeffs

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(_kernels, "multiply_coeffs", counted)
        lifted = dc.lift(random_chart(np.random.default_rng(36), SPINES[name]()), 2)
        assert len(lifted.triangles) == 10
        assert len(calls) <= 36, "products in a depth-2 lift: %d" % len(calls)


class TestCarriedSpinors:
    """The lift carries one spinor per point and takes no square root of a
    point it built."""

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_lift_finds_no_spinor_of_a_point(self, name, monkeypatch):
        calls = count_calls(monkeypatch, "_spinor")
        r = np.random.default_rng(33)
        lifted = dc.lift(random_chart(r, SPINES[name]()), 2)
        assert len(lifted.triangles) == 10
        assert not calls, "_spinor calls in a depth-2 lift: %d" % len(calls)

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_carried_spinors_are_the_points_own(self, name):
        """Each carried spinor, base triangle included, equals the spinor
        `_spinor` works out from its point, sign and all, over three levels
        of random charts from every base slot."""
        r = np.random.default_rng(34)
        graph = SPINES[name]()
        for base in itertools.product(range(graph.num_vertices), range(3)):
            chart = random_chart(r, graph)
            factors = dc._side_factors(chart, dc.delta_coloring(graph, base[0]))
            points, spinors = dc._base_triangle(chart, factors, *base)
            triangles = [dc.LiftedTriangle(base[0], (0, 1, 2), 1, -1)]
            jobs = [(0, k) for k in range(3)]
            for _ in range(3):
                made = dc._attach_level(chart, factors, points, spinors, triangles, jobs)
                jobs = [(t, k) for t in made for k in range(3)][:12]
            assert len(spinors) == len(points)
            for carried, own, p in zip(spinors, spinors_of(points), points):
                scale = max(1.0, float(np.abs(p.coeffs).max()))
                assert np.abs(carried - own).max() <= 1e-12 * scale


class TestGauge:
    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_canonical_gauge_ignores_reflections_and_sign(self, name):
        g = SPINES[name]()
        bits = tuple(j % 2 for j in range(g.num_edges))
        chart = dc.standard_chart(g, fg.Orientation.from_bits(g, bits), rank=RANK)
        can = dc.canonical_gauge(chart)
        assert dc.canonical_gauge(chart.flip_gauge()).isclose(can)
        for v in range(g.num_vertices):
            moved = chart.reflect_vertex(v)
            assert dc.canonical_gauge(moved).isclose(can)
            assert dc.canonical_gauge(moved.flip_gauge()).isclose(can)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_reflection_solution_reproduces_reachable_targets(self, name):
        g = SPINES[name]()
        rows = [g.incidence_row(v) for v in range(g.num_vertices)]
        for flips in itertools.product((0, 1), repeat=g.num_vertices):
            target = sum((r for r, f in zip(rows, flips) if f), np.zeros_like(rows[0])) % 2
            sol = dc._reflection_solution(g, target)
            assert 0 not in sol
            got = sum((rows[v] for v in sol), np.zeros_like(rows[0])) % 2
            assert np.array_equal(got, target)
        # an edge on a cycle cannot be reversed alone
        on_cycle = int(np.argmax(g.cycle_basis()[0]))
        with pytest.raises(ValueError):
            dc._reflection_solution(g, np.eye(g.num_edges, dtype=np.uint8)[on_cycle])


    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_gauge_equal_up_to_reflections_and_sign(self, name):
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        assert dc.gauge_equal(chart, chart.flip_gauge())
        for v in range(chart.graph.num_vertices):
            assert dc.gauge_equal(chart, chart.reflect_vertex(v))
        # one mu negated with its edges kept is no gauge move
        mus = list(chart.mus)
        mus[0] = -mus[0]
        assert not dc.gauge_equal(chart, chart.replace(mus=mus))


class TestBipartiteFlipPath:
    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_path_makes_the_spine_bipartite(self, name):
        g = SPINES[name]()
        path = dc.bipartite_flip_path(g)
        # theta and genus two are bipartite already; the other two are not
        if name in ("theta", "genus_two"):
            assert path == []
        else:
            assert path
            with pytest.raises(ValueError, match="not bipartite"):
                dc.delta_coloring(g)
        om = fg.Orientation.from_bits(g, (0,) * g.num_edges)
        for e in path:
            res = fg.flip(g, e, om)
            g, om = res.graph, res.orientation
        dc.delta_coloring(g)

    def test_no_path_within_the_cap_raises(self):
        with pytest.raises(ValueError, match="no bipartite spine within 0 flips"):
            dc.bipartite_flip_path(fg.dumbbell_graph(), max_flips=0)


ORIENTATIONS = {
    "zeros": lambda g: fg.Orientation.from_bits(g, (0,) * g.num_edges),
    "alternating": lambda g: fg.Orientation.from_bits(g, [j % 2 for j in range(g.num_edges)]),
}


class TestFlipCoords:
    @pytest.mark.parametrize("orient", sorted(ORIENTATIONS))
    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_flip_keeps_the_spin_class(self, name, orient):
        g = SPINES[name]()
        chart = dc.standard_chart(g, ORIENTATIONS[orient](g), rank=RANK)
        q = fg.QuadraticForm(g, chart.orientation)
        for e in range(g.num_edges):
            if g.is_loop(e):
                continue
            out = dc.flip_coords(chart, e)
            res = fg.flip(g, e, chart.orientation)
            assert out.graph.vertices == res.graph.vertices
            q_out = fg.QuadraticForm(out.graph, out.orientation)
            assert [q_out.value(res.transport(b)) for b in q.basis] == list(q.basis_values())

    @pytest.mark.parametrize("orient", sorted(ORIENTATIONS))
    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_two_form_pulls_back(self, name, orient):
        g = SPINES[name]()
        chart = dc.standard_chart(g, ORIENTATIONS[orient](g), rank=RANK)
        for e in range(g.num_edges):
            if not g.is_loop(e):
                assert dc.pullback_check(chart, e) <= 1e-6, "edge %d" % e

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_pullback_rejects_a_generator_shared_with_a_lambda(self, name):
        """0.3 g1 g8 in lambda_0 shares g1 with mu[0]: differentiating in g1
        would also differentiate the lambda, and the gap read off would be
        wrong (0.60 on theta, 0.30 on genus two) instead of rejected."""
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        lambdas = list(chart.lambdas)
        lambdas[0] = lambdas[0] + GrassmannNumber.monomial([1, 8], 0.3, RANK)
        with pytest.raises(ValueError, match=r"mu\[0\]'s generator g1 .* lambda of edge 0 uses it"):
            dc.pullback_check(chart.replace(lambdas=lambdas), 0)
        # a soul on generators no mu uses is fine
        lambdas[0] = chart.lambdas[0] + GrassmannNumber.monomial([7, 8], 0.3, RANK)
        assert dc.pullback_check(chart.replace(lambdas=lambdas), 0) <= 1e-6

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_pullback_rejects_a_generator_shared_by_two_mus(self, name):
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        mus = list(chart.mus)
        mus[1] = GrassmannNumber.generator(1, RANK)
        with pytest.raises(ValueError, match=r"mu\[0\]'s generator g1 .* mu\[1\] uses it"):
            dc.pullback_check(chart.replace(mus=mus), 0)
