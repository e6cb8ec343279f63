"""Decorated charts: the coords text format, the gauge, the light-cone lift,
the super Ptolemy flip and the holonomy representation."""

import fractions
import itertools
import re

import numpy as np
import pytest

from superteich import _kernels
from superteich import decorated as dc
from superteich import fatgraph_spin as fg
from superteich import minkowski as mk
from superteich import superlinalg as sl
from superteich.grassmann import GrassmannNumber, random_element
from test_fatgraph_spin import flippable, random_fatgraph, random_graphs
from test_minkowski import count_calls, normalize_triple_chain

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

    THETA = dc.write_coords(dc.standard_chart(fg.theta_graph(), rank=RANK))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("v1: h1 h3 h5", "v2: h1 h3 h5", "'v2' in line 'v2: h1 h3 h5' is not in v0..v1"),
            ("v1: h1 h3 h5", "v0: h1 h3 h5", "line 'v0: h1 h3 h5' repeats v0"),
            ("e2: h4 h5", "e-2: h4 h5", "'e-2' in line 'e-2: h4 h5' is not in e0..e2"),
            ("e0 h0 e1", "e0 h0 e7", "'e7' in line 'orient: e0 h0 e7 h2 e2 h4' is not in e0..e2"),
            ("lambda e2", "lambda e7", "'e7' in line 'lambda e7 1.0' is not in e0..e2"),
            ("lambda e2", "lambda e1", "line 'lambda e1 1.0' repeats e1"),
            ("mu v1", "mu v-1", "'v-1' in line 'mu v-1 1.0*g{2}' is not in v0..v1"),
            ("e0: h0 h1", "e0: h0 hx", "bad half-edge token 'hx' in line 'e0: h0 hx'"),
            ("v1: h1 h3 h5", "v1: h1 3 h5", "bad half-edge token '3' in line 'v1: h1 3 h5'"),
            ("e0 h0 e1", "e0 h-1 e1", "bad half-edge token 'h-1' in line 'orient: e0 h-1 e1 h2 e2 h4'"),
            ("lambda e2 1.0", "lambda e2", "line 'lambda e2' needs a name and a value"),
            ("mu v1 1.0*g{2}", "mu v1", "line 'mu v1' needs a name and a value"),
        ],
        ids=["vertex_gap", "vertex_twice", "negative_edge", "orient_edge", "lambda_edge", "lambda_twice",
             "negative_mu", "edge_half", "vertex_half", "orient_half", "lambda_value", "mu_value"],
    )
    def test_misnumbered_line_is_quoted(self, old, new, message):
        """A misnumbered line, a malformed half-edge token or a missing
        value is rejected with a ValueError that quotes the line."""
        assert old in self.THETA
        with pytest.raises(ValueError) as err:
            dc.parse_coords(self.THETA.replace(old, new), RANK)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("coords v1\n", "", "missing coords v1 header, got 'fatgraph v1'"),
            ("orient: e0 h0 e1 h2 e2 h4\n", "", "coords file needs an orient: block"),
            ("lambda e1 1.0\n", "", "missing lambda line for e1"),
            ("mu v0 1.0*g{1}\n", "", "missing mu line for v0"),
            ("gauge +\n", "", "missing gauge line"),
            ("gauge +\n", "gauge +\nzeta 3\n", "unrecognized line 'zeta 3'"),
            ("gauge +\n", "gauge +\nvalue 3\n", "unrecognized line 'value 3'"),
            ("gauge +\n", "gauge +\neta 1\n", "unrecognized line 'eta 1'"),
            ("gauge +\n", "gauge +\nlambd e0 1.0\n", "unrecognized line 'lambd e0 1.0'"),
            ("lambda e1 1.0", "lambda e1 1.0*g{1}", "lambda[1] must be Grassmann even"),
            ("lambda e1 1.0", "lambda e1 -0.5", "lambda[1] needs a positive body, got -0.5"),
            ("mu v1 1.0*g{2}", "mu v1 1.0*g{1,2}", "mu[1] must be Grassmann odd"),
        ],
        ids=["header", "orient", "lambda_missing", "mu_missing", "gauge_missing", "unrecognized",
             "value_line", "eta_line", "lambd_line",
             "lambda_odd", "lambda_body", "mu_even"],
    )
    def test_incomplete_or_bad_chart_is_named(self, old, new, message):
        """A missing line names the edge or vertex it should have given,
        and a bad value names its coordinate."""
        assert old in self.THETA
        with pytest.raises(ValueError) as err:
            dc.parse_coords(self.THETA.replace(old, new), RANK)
        assert str(err.value) == message


class TestChartRejections:
    def test_wrong_counts_and_gauge_are_named(self):
        theta = fg.theta_graph()
        chart = dc.standard_chart(theta, rank=RANK)
        om = chart.orientation
        with pytest.raises(ValueError, match=r"^need one lambda-length per edge: 2 for 3 edges$"):
            dc.DecoratedCoords(theta, chart.lambdas[:2], chart.mus, om)
        with pytest.raises(ValueError, match=r"^need one mu-invariant per vertex: 3 for 2 vertices$"):
            dc.DecoratedCoords(theta, chart.lambdas, chart.mus + chart.mus[:1], om)
        with pytest.raises(ValueError, match=r"^gauge must be \+1 or -1, got 0$"):
            chart.replace(gauge=0)

    def test_form_identity_names_the_argument_at_fault(self):
        """`_even_coord` and `_odd_coord` name the coordinate at fault."""
        g1, g2 = (GrassmannNumber.generator(i, RANK) for i in (1, 2))
        with pytest.raises(ValueError, match=r"^sigma must be Grassmann odd$"):
            dc.ptolemy_form_identity(g1 + 0.5, g2, 2.0)
        with pytest.raises(ValueError, match=r"^theta must be Grassmann odd$"):
            dc.ptolemy_form_identity(g1, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^chi must be Grassmann even$"):
            dc.ptolemy_form_identity(g1, g2, 1 + g1)
        with pytest.raises(ValueError, match=r"^chi needs a positive body, got 0$"):
            dc.ptolemy_form_identity(g1, g2, 0.0)


class TestChartOrientation:
    def test_orientation_of_other_edges_is_rejected_naming_the_edge(self):
        """Theta's vertices with its edges rewired: the arrows of theta's
        orientation would sit on other edges of the chart."""
        theta = fg.theta_graph()
        rewired = fg.Fatgraph(theta.vertices, [(0, 3), (2, 5), (4, 1)])
        om = fg.Orientation.from_bits(theta, (0, 0, 0))
        message = r"^orientation is of another fatgraph: its edge 0 is \(0, 1\), the fatgraph's \(0, 3\)$"
        with pytest.raises(ValueError, match=message):
            dc.standard_chart(rewired, orientation=om, rank=RANK)
        chart = dc.standard_chart(theta, rank=RANK)
        with pytest.raises(ValueError, match=r"its edge 0 is \(0, 3\), the fatgraph's \(0, 1\)$"):
            chart.replace(orientation=fg.Orientation.from_bits(rewired, (0, 0, 0)))

    def test_orientation_of_other_vertices_is_rejected(self):
        theta, two = fg.theta_graph(), fg.genus_two_spine()
        with pytest.raises(ValueError, match="^orientation belongs to a different fatgraph$"):
            dc.standard_chart(theta, orientation=fg.Orientation.from_bits(two, (0,) * two.num_edges), rank=RANK)

    def test_orientation_of_an_equal_graph_is_accepted(self):
        theta = fg.theta_graph()
        om = fg.Orientation.from_bits(fg.theta_graph(), (1, 0, 1))
        assert dc.standard_chart(theta, orientation=om, rank=RANK).orientation is om


def crossing_sign(coords, tri, k):
    """The sign of the triangle put across slot k of tri, by the rule of
    `lift`: tri's sign, times -1 where the crossing runs against the arrow,
    times -1 for one sigma-turn from tri's entry slot, or in the base for
    any turn."""
    graph = coords.graph
    h = graph.vertices[tri.vertex][k]
    eps = -1 if h == coords.orientation.head(graph.edge_of(h)) else 1
    turns = (k - tri.entry) % 3
    turned = turns != 0 if tri.parent < 0 else turns == 1
    return tri.sign * eps * (-1 if turned else 1)


def attach_one(coords, points, triangles, tri_idx, k):
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
    sign = crossing_sign(coords, tri, k)
    sigma = coords.mus[v2] * float(coords.gauge * sign)
    d_std = mk.basic_calculation(a, b, c, d, e, sigma)
    points.append(mk.act(sl.inverse_osp(g), d_std))
    corners = [0, 0, 0]
    corners[j0] = len(points) - 1
    corners[(j0 + 1) % 3] = cs[(k + 2) % 3]
    corners[(j0 + 2) % 3] = cs[(k + 1) % 3]
    triangles.append(dc.LiftedTriangle(v2, corners, j0, sign, tri_idx))
    return len(triangles) - 1


def lift_one_by_one(coords, depth, base_vertex=0, base_side=0):
    """Oracle: the breadth-first lift, one triangle at a time."""
    points, _ = dc._base_triangle(coords, dc._side_factors(coords), base_vertex, base_side)
    triangles = [dc.LiftedTriangle(base_vertex, (0, 1, 2), base_side, 1, -1)]
    frontier = [0]
    for _ in range(depth):
        frontier = [
            attach_one(coords, points, triangles, t, k)
            for t in frontier
            for k in range(3)
            if t == 0 or k != triangles[t].entry
        ]
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
    return [np.stack([x.coeffs for x in mk._spinor(p, "first")]) for p in points]


def assert_same_lift(lifted, oracle):
    """The lift equals the oracle's: the same triangles, and each point
    within 1e-12 of its own scale."""
    points, triangles = oracle
    assert [(t.vertex, t.corners, t.entry, t.sign, t.parent) for t in lifted.triangles] == [
        (t.vertex, t.corners, t.entry, t.sign, t.parent) for t in triangles
    ]
    assert len(lifted.points) == len(points)
    for p, q in zip(lifted.points, points):
        assert p.max_coeff_diff(q) <= 1e-12 * max(1.0, float(np.abs(q.coeffs).max()))


class TestLift:
    @pytest.mark.parametrize("name", sorted(SPINES))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lift_reproduces_lambda_and_mu(self, name, depth):
        lifted = dc.lift(dc.standard_chart(SPINES[name](), rank=RANK), depth, 0, 0)
        assert len(lifted.triangles) == 1 + 3 * (2**depth - 1)
        assert lifted.pairing_residual() <= 1e-9
        assert lifted.mu_residual() <= 1e-9

    @pytest.mark.parametrize("name", sorted(SPINES))
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
        factors = dc._side_factors(chart)
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

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_level_at_a_time_matches_one_by_one_on_random_charts(self, name):
        r = np.random.default_rng(31)
        for _ in range(4):
            chart = random_chart(r, SPINES[name]())
            base = (int(r.integers(0, chart.graph.num_vertices)), int(r.integers(0, 3)))
            assert_same_lift(dc.lift(chart, 2, *base), lift_one_by_one(chart, 2, *base))


    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_depth_three_matches_one_by_one_from_every_slot_on_wide_lambdas(self, name):
        """The side factors against the one-by-one oracle: lambda bodies in
        [0.4, 2.5], three levels, every base slot, with points up to 3.5e3.
        The oracle carries each point back from standard position by the
        inverse of its parent triple's spinor frame, so each point is
        compared at its own scale."""
        r = np.random.default_rng(35)
        graph = SPINES[name]()
        for base in itertools.product(range(graph.num_vertices), range(3)):
            chart = random_chart(r, graph, bodies=(0.4, 2.5))
            assert_same_lift(dc.lift(chart, 3, *base), lift_one_by_one(chart, 3, *base))

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

    @pytest.mark.parametrize("name", sorted(SPINES))
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

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_lift_finds_no_spinor_of_a_point(self, name, monkeypatch):
        calls = count_calls(monkeypatch, "_spinor")
        r = np.random.default_rng(33)
        lifted = dc.lift(random_chart(r, SPINES[name]()), 2)
        assert len(lifted.triangles) == 10
        assert not calls, "_spinor calls in a depth-2 lift: %d" % len(calls)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_carried_spinors_are_the_points_own(self, name):
        """Each carried spinor, base triangle included, equals the spinor
        `_spinor` works out from its point, sign and all, over three levels
        of random charts from every base slot."""
        r = np.random.default_rng(34)
        graph = SPINES[name]()
        for base in itertools.product(range(graph.num_vertices), range(3)):
            chart = random_chart(r, graph)
            factors = dc._side_factors(chart)
            points, spinors = dc._base_triangle(chart, factors, *base)
            triangles = [dc.LiftedTriangle(base[0], (0, 1, 2), base[1], 1, -1)]
            jobs = [(0, k) for k in range(3)]
            for _ in range(3):
                made = dc._attach_level(chart, factors, points, spinors, triangles, jobs)
                jobs = [(t, k) for t in made for k in range(3)][:12]
            assert len(spinors) == len(points)
            for carried, own, p in zip(spinors, spinors_of(points), points):
                scale = max(1.0, float(np.abs(p.coeffs).max()))
                assert np.abs(carried - own).max() <= 1e-12 * scale


class TestStandardPosition:
    """normalize_triple on the triangles of a lift, and the spinor frames of
    the spinors the lift carries."""

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_lift_triangles_match_the_chain(self, name):
        """Every slot of every triangle of a depth-3 lift with lambda bodies
        in [0.4, 2.5] (points up to about 1.4e3): the spinor frame agrees
        with the step-by-step standard position within 1e-11 of the
        triple's largest coefficient.  The chain acts on the points six
        times, and its rounding grows with them."""
        lifted = dc.lift(random_chart(np.random.default_rng(37), SPINES[name](), bodies=(0.4, 2.5)), 3)
        for tri in lifted.triangles:
            for k in range(3):
                trip = [lifted.points[tri.corners[(k + j) % 3]] for j in (1, 0, 2)]
                scale = max(1.0, max(float(np.abs(p.coeffs).max()) for p in trip))
                for x, y in zip(mk.normalize_triple(*trip), normalize_triple_chain(*trip)):
                    assert np.abs(x.coeffs - y.coeffs).max() <= 1e-11 * scale

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_frames_from_carried_spinors_are_normalize_triples(self, name):
        """`_spinor_frame` of the spinors the lift carries, at each slot
        k of each triangle on the corners k + 1, k and k + 2.  Its r, s and
        t are normalize_triple's on the points; so are g and phi, except
        that where the third point's x1 and x2 agree to rounding, the two
        may take c on opposite sheets (which of u, v is the pivot is then a
        coin toss), and the frame differs by the fermionic reflection."""
        chart = random_chart(np.random.default_rng(38), SPINES[name](), bodies=(0.4, 2.5))
        factors = dc._side_factors(chart)
        points, spinors = dc._base_triangle(chart, factors, 0, 0)
        triangles = [dc.LiftedTriangle(0, (0, 1, 2), 0, 1, -1)]
        # every side of every triangle, so that some attach back across
        # their parent's side, onto near copies of the base t-slot point
        jobs = [(0, k) for k in range(3)]
        for _ in range(3):
            jobs = [(t, k) for t in dc._attach_level(chart, factors, points, spinors, triangles, jobs) for k in range(3)]
        reflected = 0
        for tri in triangles:
            for k in range(3):
                carried = ([GrassmannNumber.wrap(RANK, x) for x in spinors[tri.corners[(k + j) % 3]]] for j in (1, 0, 2))
                g, rr, ss, tt, phi = mk._spinor_frame(*carried)
                trip = [points[tri.corners[(k + j) % 3]] for j in (1, 0, 2)]
                want = mk.normalize_triple(*trip)
                scale = max(1.0, max(float(np.abs(p.coeffs).max()) for p in trip))

                def close(x, y):
                    return np.abs(x.coeffs - y.coeffs).max() <= 1e-12 * scale

                assert all(close(x, y) for x, y in zip((rr, ss, tt), want[1:4]))
                if close(g, want[0]) and close(phi, want[4]):
                    continue
                c = trip[2]
                assert abs(c.x1.body - c.x2.body) <= 1e-12 * scale
                assert close(g, sl.smul(want[0], sl.fermionic_reflection(RANK))) and close(phi, -want[4])
                reflected += 1
        assert reflected <= 3, "reflected frames: %d" % reflected


class TestBaseVertex:
    """lift and fundamental_domain take a vertex of the fatgraph as the
    base, and name any other value."""

    BAD = [
        (-1, r"^base_vertex must be in 0\.\.1, got -1$"),
        (2, r"^base_vertex must be in 0\.\.1, got 2$"),
        (True, r"^base_vertex must be an int, got True$"),
        (0.0, r"^base_vertex must be an int, got 0\.0$"),
    ]

    @pytest.mark.parametrize("value, message", BAD)
    def test_lift_rejects_a_bad_base(self, value, message):
        with pytest.raises(ValueError, match=message):
            dc.lift(dc.standard_chart(fg.theta_graph(), rank=RANK), 1, value)

    @pytest.mark.parametrize("value, message", BAD)
    def test_fundamental_domain_rejects_a_bad_base(self, value, message):
        with pytest.raises(ValueError, match=message):
            dc.fundamental_domain(fg.theta_graph(), value)


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
    def test_canonical_gauge_is_invariant_over_every_reflection_subset(self, name):
        """Reflecting any set of vertices, with either gauge bit, leaves the
        canonical gauge unchanged, and its orientation is
        `orientation_class`'s representative."""
        g = SPINES[name]()
        chart = random_chart(np.random.default_rng(5), g)
        can = dc.canonical_gauge(chart)
        assert can.orientation.bits == fg.orientation_class(chart.orientation).bits
        assert can.gauge == 1
        for flips in itertools.product((0, 1), repeat=g.num_vertices):
            moved = chart
            for v in np.flatnonzero(flips):
                moved = moved.reflect_vertex(int(v))
            for x in (moved, moved.flip_gauge()):
                assert dc.canonical_gauge(x).isclose(can)

    def test_one_solve_per_canonical_gauge_and_one_gauge_pass_per_flip(self, monkeypatch):
        chart = random_chart(np.random.default_rng(6), fg.genus_two_spine())
        calls = []
        for module, name in ((fg, "gf2_solve"), (dc, "canonical_gauge")):
            inner = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=inner, _n=name: calls.append(_n) or _f(*a))
        dc.canonical_gauge(chart)
        assert calls == ["canonical_gauge", "gf2_solve"]
        calls.clear()
        dc.flip_coords(chart, 0)
        assert calls == ["canonical_gauge", "gf2_solve"]

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


# flips from the all-zero orientation that make dumbbell and four-puncture
# bipartite, a second spine of each for the representation tests
FLIPS = {"theta": [], "dumbbell": [0], "four_puncture": [0, 4], "genus_two": []}


def flipped_spine(name):
    """The spine after the flips of FLIPS."""
    g = SPINES[name]()
    om = fg.Orientation.from_bits(g, (0,) * g.num_edges)
    for e in FLIPS[name]:
        res = fg.flip(g, e, om)
        g, om = res.graph, res.orientation
    return g


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
        assert_pulls_back(dc.standard_chart(g, ORIENTATIONS[orient](g), rank=RANK))

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_flip_respects_gauge_classes(self, name):
        """A vertex reflection or the global sign of the input changes the
        flipped chart by a gauge move only, so `flip_coords`, which
        canonicalizes its output alone, gives the same chart."""
        g = SPINES[name]()
        r = np.random.default_rng(11)
        for _ in range(3):
            chart = random_chart(r, g)
            moves = [chart.flip_gauge()] + [chart.reflect_vertex(v) for v in range(g.num_vertices)]
            for e in range(g.num_edges):
                if g.is_loop(e):
                    continue
                want = dc.flip_coords(chart, e)
                for k, moved in enumerate(moves):
                    assert dc.flip_coords(moved, e).isclose(want), "edge %d, move %d" % (e, k)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_flip_forms_ac_and_bd_once(self, name, monkeypatch):
        """One `_flip_once` makes 11 products: ac and bd serve both the
        cross-ratio and the new lambda-length, which is
        `minkowski.ptolemy_even`'s bit for bit."""
        g = SPINES[name]()
        chart = random_chart(np.random.default_rng(5), g)
        calls = []
        inner = _kernels.multiply_coeffs
        monkeypatch.setattr(_kernels, "multiply_coeffs", lambda *args: calls.append(1) or inner(*args))
        for e in range(g.num_edges):
            if g.is_loop(e):
                continue
            calls.clear()
            out = dc._flip_once(chart, e)
            assert len(calls) == 11
            edges, v_theta, v_sigma = dc._quad_labels(chart, e)
            f = mk.ptolemy_even(*(chart.lambdas[j] for j in edges), chart.mus[v_sigma], chart.mus[v_theta])
            assert np.array_equal(out.lambdas[e].coeffs, f.coeffs)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_two_form_pulls_back_at_generic_lambda(self, name):
        """Lambdas uniform in [0.4, 2.5], so the cross-ratio chi is not 1."""
        for chart in rep_charts(SPINES[name](), seed=9, count=3):
            assert_pulls_back(chart)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_two_form_pulls_back_on_random_charts(self, name):
        """Lambdas with even souls, mus of one or two odd monomials that
        share generators with each other and with the lambdas, and a
        random orientation and gauge."""
        r = np.random.default_rng(25)
        for _ in range(3):
            assert_pulls_back(random_chart(r, SPINES[name](), bodies=(0.4, 2.5)))

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_exact_partials_match_central_differences(self, name):
        """`pullback_check`'s Jacobian block along the quadrilateral's
        lambdas (`_jacobian` of the Ptolemy formulas, in log lambda) agrees
        with central differences of `_flip_once`'s outputs in log lambda,
        whose own truncation error is near 1e-9."""
        chart = random_chart(np.random.default_rng(26), SPINES[name](), bodies=(0.4, 2.5))
        e = 1
        edges, v_theta, v_sigma = dc._quad_labels(chart, e)
        block = sorted(set(edges))
        even = np.array([True] * len(block) + [False, False])
        slots = [block.index(j) for j in edges] + [len(block), len(block) + 1]
        args = [chart.lambdas[j] for j in edges] + [chart.mus[v_sigma], chart.mus[v_theta]]
        _, jac = dc._jacobian(dc._ptolemy, args, slots, even)
        res = fg.flip(chart.graph, e, chart.orientation)
        v_nu, v_mu = dc._nu_mu_vertices(chart.graph, chart.orientation, e, res, v_theta, v_sigma)
        for i, j in enumerate(block):
            oracle = central_differences(chart, e, j)
            for k, out in enumerate(["l%d" % e, "m%d" % v_nu, "m%d" % v_mu]):
                # jac holds the partial through the grade involution
                want = GrassmannNumber.wrap(RANK, jac[k, i])
                want = want.even_part() - want.odd_part()
                assert (oracle[out] - want).max_abs() <= 1e-8 * max(1.0, want.max_abs()), (out, j)

    def test_details_name_the_offending_pair(self, monkeypatch):
        """A flip whose nu is off by 1e-3 sigma breaks the d sigma^2 term:
        details=True gives the same gap and names that pair."""
        chart = dc.standard_chart(fg.genus_two_spine(), rank=RANK)
        _, _, v_sigma = dc._quad_labels(chart, 4)
        ptolemy = dc._ptolemy

        def skewed(*args):
            f, nu, mu = ptolemy(*args)
            return f, nu + 1e-3 * args[5], mu

        monkeypatch.setattr(dc, "_ptolemy", skewed)
        worst, label = dc.pullback_check(chart, 4, details=True)
        assert worst == dc.pullback_check(chart, 4) > 1e-3
        assert label == "dm%d*dm%d" % (v_sigma, v_sigma)

    @pytest.mark.parametrize(
        "e, message",
        [(True, r"^edge must be an int, got True$"), (1.0, r"^edge must be an int, got 1\.0$"),
         (9, r"^edge must be in 0\.\.8, got 9$"), (-1, r"^edge must be in 0\.\.8, got -1$")],
    )
    @pytest.mark.parametrize(
        "call",
        [lambda x, e: fg.flip(x.graph, e, x.orientation), dc.flip_coords, dc.pullback_check],
        ids=["flip", "flip_coords", "pullback_check"],
    )
    def test_edge_is_checked_up_front(self, call, e, message):
        with pytest.raises(ValueError, match=message):
            call(dc.standard_chart(fg.genus_two_spine(), rank=RANK), e)

    @pytest.mark.parametrize(
        "graphs",
        [lambda: [fg.four_puncture_spine()], lambda: [fg.genus_two_spine()],
         lambda: random_graphs(31, 6, 3), lambda: random_graphs(32, 8, 3)],
        ids=["four_puncture", "genus_two", "random-V6", "random-V8"],
    )
    def test_flips_of_disjoint_edges_commute(self, graphs):
        """Flips of two non-loop edges with no common end vertex change
        disjoint quadrilateral centres, so either order gives the same
        chart (the edge indices survive a flip)."""
        r = np.random.default_rng(33)
        pairs = 0
        for g in graphs():
            chart = random_chart(r, g)
            ends = [{g.vertex_of(h) for h in g.edges[e]} for e in range(g.num_edges)]
            for e1, e2 in itertools.combinations(flippable(g), 2):
                if ends[e1] & ends[e2]:
                    continue
                pairs += 1
                one = dc.flip_coords(dc.flip_coords(chart, e1), e2)
                other = dc.flip_coords(dc.flip_coords(chart, e2), e1)
                assert one.isclose(other), (e1, e2)
        assert pairs

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_pullback_with_a_generator_shared_with_a_lambda(self, name):
        """0.3 g1 g8 in lambda_0 shares g1 with mu[0]; differentiating in g1
        itself would have differentiated the lambda too (a gap of 0.60 on
        theta, 0.30 on genus two), and the nilpotent direction does not."""
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        lambdas = list(chart.lambdas)
        lambdas[0] = lambdas[0] + GrassmannNumber.monomial([1, 8], 0.3, RANK)
        assert_pulls_back(chart.replace(lambdas=lambdas))

    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    def test_pullback_with_a_generator_shared_by_two_mus(self, name):
        chart = dc.standard_chart(SPINES[name](), rank=RANK)
        mus = list(chart.mus)
        mus[1] = GrassmannNumber.generator(1, RANK)
        assert_pulls_back(chart.replace(mus=mus))


def assert_pulls_back(chart):
    """`pullback_check` within 1e-12 of the chart two-form's largest
    coefficient in the chart's own differentials, souls included: the
    largest |Omega_ij (lambda_i lambda_j)^-1|, or 1, the d mu^2 term's."""
    omega = dc.two_form(chart.graph)
    inv = [x.inverse() for x in chart.lambdas]
    pairs = itertools.combinations(range(chart.graph.num_edges), 2)
    bound = 1e-12 * max([1.0] + [(inv[i] * inv[j] * float(omega[i, j])).max_abs() for i, j in pairs])
    for e in range(chart.graph.num_edges):
        if not chart.graph.is_loop(e):
            assert dc.pullback_check(chart, e) <= bound, "edge %d" % e


def central_differences(chart, e, j, step=1e-6):
    """Reference for the partials in log lambda_j of `_flip_once`'s new
    values at edge e, keyed "l<e>" and "m<v>": central differences with
    lambda_j scaled by exp(+-step)."""
    def flipped(t):
        lambdas = list(chart.lambdas)
        lambdas[j] = lambdas[j] * float(np.exp(t))
        out = dc._flip_once(chart.replace(lambdas=lambdas), e)
        return {"l%d" % e: out.lambdas[e], **{"m%d" % v: m for v, m in enumerate(out.mus)}}

    hi, lo = flipped(step), flipped(-step)
    return {key: (hi[key] - lo[key]) * (0.5 / step) for key in hi}


def rep_charts(graph, seed, count=12):
    """Rank-8 charts with lambdas uniform in [0.4, 2.5], mus the generators
    and random orientations."""
    r = np.random.default_rng(seed)
    for _ in range(count):
        om = fg.Orientation.from_bits(graph, [int(b) for b in r.integers(0, 2, graph.num_edges)])
        lambdas = [float(x) for x in r.uniform(0.4, 2.5, graph.num_edges)]
        yield dc.standard_chart(graph, om, rank=RANK).replace(lambdas=lambdas)


def generators_scale(rep):
    return max(g.scale() for g in rep.generators())


def supertrace(g):
    """a + d - f, the conjugacy invariant of `superlinalg.smul`'s product."""
    rows = g.rows
    return rows[0][0] + rows[1][1] - rows[2][2]


def closed_walk(r, graph, steps):
    """The arrivals of a random closed walk: steps random crossings from a
    random vertex, then back to it along the spanning tree rooted there."""
    start = int(r.integers(graph.num_vertices))
    v, arrivals = start, []
    for _ in range(steps):
        arrivals.append(graph.partner(graph.vertices[v][int(r.integers(3))]))
        v = graph.vertex_of(arrivals[-1])
    tree = graph.spanning_tree(start)
    while v != start:
        arrivals.append(tree[v])
        v = graph.vertex_of(tree[v])
    return arrivals


def world_triangle(chart, factors, h, frame):
    """Corners 0, 1 and 2 of the triangle of h's vertex in standard
    position at h's slot (`_base_triangle` with the chart's side factors,
    phi = mu gauge), carried by act(frame, .)."""
    graph = chart.graph
    v = graph.vertex_of(h)
    points, _ = dc._base_triangle(chart, factors, v, graph.vertices[v].index(h))
    return [mk.act(frame, p) for p in points]


REP_BASES = [(name, base) for name in sorted(SPINES) for base in range(flipped_spine(name).num_vertices)]

SHIPPED_BASES = [(name, base) for name in ("dumbbell", "four_puncture") for base in range(SPINES[name]().num_vertices)]


def assert_parabolic_and_split_by_spin(graph, base):
    """`assert_punctures_split` on the representations of `rep_charts`
    from the domain at base."""
    domain = dc.fundamental_domain(graph, base)
    for chart in rep_charts(graph, seed=7):
        assert_punctures_split(dc.build_rep(chart, domain))


def assert_punctures_split(rep):
    """Every puncture trace is +-2, and -2 exactly on the NS punctures of
    `puncture_types`, within 1e-12 of the generators' scale."""
    scale = generators_scale(rep)
    types = fg.puncture_types(rep.coords.graph, rep.coords.orientation)
    traces = rep.puncture_traces()
    assert len(traces) == len(types)
    for tr, kind in zip(traces, types):
        assert abs(abs(tr) - 2) <= 1e-12 * scale
        assert (tr < 0) == (kind == "NS"), (traces, types)


def integer_rank(rows):
    """Rank of an integer matrix, by exact elimination over the rationals."""
    m = [[fractions.Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                ratio = m[i][col] / m[rank][col]
                m[i] = [x - ratio * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def puncture_vectors(graph):
    """One row per puncture p: n_e(p), the number of half-edges of edge e
    in p's boundary orbit."""
    return [np.bincount([graph.edge_of(h) for h in orbit], minlength=graph.num_edges)
            for orbit in graph.boundary_orbits()]


HOROCYCLE_GRAPHS = [pytest.param(lambda: [make() for make in SPINES.values()], id="spines")] + [
    pytest.param(lambda v=v: random_graphs(27 + v, v, 10), id="random-V%d" % v) for v in (2, 4, 6, 8)
]


class TestHorocycleFibre:
    """The two-form is degenerate along the horocycle fibres: its lambda
    block has rank E - s, and rescaling the horocycle at a puncture p,
    lambda_e -> lambda_e t^(n_e(p) / 2), is in its kernel.  So the s
    puncture vectors span the kernel, and the form descends to the
    undecorated space.  All of it is exact integer arithmetic."""

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_matrix_blocks(self, name):
        """Antisymmetric on the lambda block, -1 on the mu diagonal and 0
        elsewhere."""
        g = SPINES[name]()
        omega = dc.two_form(g)
        num_edges = g.num_edges
        assert omega.dtype.kind == "i"
        assert (omega[:num_edges, :num_edges] == -omega[:num_edges, :num_edges].T).all()
        assert (omega[num_edges:, num_edges:] == -np.eye(g.num_vertices, dtype=int)).all()
        assert not omega[:num_edges, num_edges:].any() and not omega[num_edges:, :num_edges].any()

    @pytest.mark.parametrize("name, rank", [("theta", 2), ("dumbbell", 0), ("four_puncture", 2), ("genus_two", 8)])
    def test_lambda_block_rank_on_the_spines(self, name, rank):
        g = SPINES[name]()
        assert integer_rank(dc.two_form(g)[: g.num_edges, : g.num_edges]) == rank == g.num_edges - g.punctures

    @pytest.mark.parametrize("graphs", HOROCYCLE_GRAPHS)
    def test_puncture_vectors_span_the_kernel(self, graphs):
        for g in graphs():
            omega = dc.two_form(g)[: g.num_edges, : g.num_edges]
            vectors = puncture_vectors(g)
            assert integer_rank(omega) == g.num_edges - g.punctures
            assert integer_rank(vectors) == g.punctures
            for n in vectors:
                assert not (omega @ n).any()

    # the horocycle action itself, on charts and lifts (Penner, Decorated
    # Teichmueller Theory, ch. 2): rescaling the horocycle at puncture p by
    # t_p moves lambda_e to lambda_e prod_p t_p^(n_e(p) / 2) and leaves every
    # mu alone

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_mu_is_blind_to_rescaling_one_corner(self, name):
        """mu_invariant of each lifted triangle keeps its value and sign
        when one corner is scaled by 2 or 0.3: its numerator and
        sqrt(omega_ab omega_bc omega_ca) each scale by sqrt(t)."""
        chart = random_chart(np.random.default_rng(31), SPINES[name]())
        lifted = dc.lift(chart, 2)
        for tri in lifted.triangles:
            a, c, b = (lifted.points[i] for i in tri.corners)
            rep, sign = mk.mu_invariant(a, b, c)
            for k, t in itertools.product(range(3), (2.0, 0.3)):
                triple = [a, b, c]
                triple[k] = mk.SuperVector.wrap(RANK, triple[k].coeffs * t)
                moved, moved_sign = mk.mu_invariant(*triple)
                assert moved_sign == sign
                assert (moved - rep).max_abs() <= 1e-12, (tri.vertex, k, t)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_flip_commutes_with_rescaling(self, name):
        """At every puncture and every non-loop edge: rescale then flip
        equals flip then rescale, within EQ_TOL.  The boundary orbits are
        renumbered by the flip, so the puncture after it is the orbit that
        keeps a half-edge of another edge."""
        g = SPINES[name]()
        chart = random_chart(np.random.default_rng(7), g)
        orbits = g.boundary_orbits()
        for e in range(g.num_edges):
            if g.is_loop(e):
                continue
            flipped = dc.flip_coords(chart, e)
            after = flipped.graph.boundary_orbits()
            for p, orbit in enumerate(orbits):
                kept = {h for h in orbit if g.edge_of(h) != e}
                (q,) = [q for q, other in enumerate(after) if kept & set(other)]
                ts = np.where(np.arange(len(orbits)) == p, 1.7, 1.0)
                ts_after = np.where(np.arange(len(after)) == q, 1.7, 1.0)
                assert dc.flip_coords(rescaled(chart, ts), e).isclose(rescaled(flipped, ts_after)), (e, p)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_lift_of_the_rescaled_chart_is_the_rescaled_lift(self, name):
        """Each lifted point is scaled by the t of its puncture, the
        boundary orbit of the half-edge after the one its corner faces;
        every triangle holding the point names the same puncture."""
        g = SPINES[name]()
        chart = random_chart(np.random.default_rng(3), g)
        ts = np.array([1.7, 0.6, 2.3, 0.8])[: g.punctures]
        lifted, moved = dc.lift(chart, 2), dc.lift(rescaled(chart, ts), 2)
        where = {h: p for p, orbit in enumerate(g.boundary_orbits()) for h in orbit}
        puncture = {}
        for tri in lifted.triangles:
            hs = g.vertices[tri.vertex]
            for k, i in enumerate(tri.corners):
                assert puncture.setdefault(i, where[hs[(k + 1) % 3]]) == where[hs[(k + 1) % 3]]
        assert len(moved.points) == len(lifted.points) == len(puncture)
        for i, (p, q) in enumerate(zip(moved.points, lifted.points)):
            want = q.coeffs * ts[puncture[i]]
            assert np.abs(p.coeffs - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), i


def rescaled(chart, ts):
    """The chart with the horocycle at puncture p rescaled by ts[p]:
    lambda_e times prod_p ts[p]^(n_e(p) / 2), the mus as they are."""
    factors = np.prod(np.asarray(ts, float)[:, None] ** (np.array(puncture_vectors(chart.graph)) / 2.0), axis=0)
    return chart.replace(lambdas=[lam * float(f) for lam, f in zip(chart.lambdas, factors)])


class TestFrames:
    """The two elementary frames of `build_rep` in closed form: the turn
    T_v and the crossing E_h, against the spinor frames they stand for."""

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_turn_is_the_reflected_frame_of_the_next_slot(self, name):
        """_turn(v, steps) is R inverse_osp(g) of the standard spinors at
        slot k + steps (`_base_triangle` at slot k, read on the corners
        after, at and before that slot), R the fermionic reflection."""
        r = np.random.default_rng(14)
        graph = SPINES[name]()
        reflection = sl.fermionic_reflection(RANK)
        for chart in [random_chart(r, graph) for _ in range(2)]:
            factors = dc._side_factors(chart)
            for v, k, steps in itertools.product(range(graph.num_vertices), range(3), (1, 2)):
                _, spinors = dc._base_triangle(chart, factors, v, k)
                slot = (k + steps) % 3
                std = ([GrassmannNumber.wrap(RANK, x) for x in spinors[(slot + j) % 3]] for j in (1, 0, 2))
                frame = sl.smul(reflection, sl.inverse_osp(mk._spinor_frame(*std)[0]))
                assert frame.max_coeff_diff(dc._turn(chart, v, steps)) <= 1e-15 * frame.scale()

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_crossing_is_the_frame_of_the_far_triangle(self, name):
        """The triangle `_far_spinor` puts across the side of h from h's
        triangle in standard position has the frame E_h (at its partner's
        slot) where the crossing runs along the arrow, and R E_h where it
        runs against it."""
        r = np.random.default_rng(15)
        graph = SPINES[name]()
        reflection = sl.fermionic_reflection(RANK)
        for chart in [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]:
            factors = dc._side_factors(chart)
            for h in range(2 * graph.num_edges):
                v, h2 = graph.vertex_of(h), graph.partner(h)
                k, v2 = graph.vertices[v].index(h), graph.vertex_of(h2)
                _, spinors = dc._base_triangle(chart, factors, v, k)
                slot = 3 * v2 + graph.vertices[v2].index(h2)
                sa, sc = spinors[(k + 1) % 3], spinors[(k + 2) % 3]
                far = mk._far_spinor(sa[:, None], sc[:, None], factors.factors[:, [slot]], RANK)[:, 0]
                # the far triangle at its slot: corners after, at and before it
                sides = ([GrassmannNumber.wrap(RANK, x) for x in s] for s in (sc, far, sa))
                frame = sl.inverse_osp(mk._spinor_frame(*sides)[0])
                want = dc._crossing(chart, h)
                if h == chart.orientation.head(graph.edge_of(h)):
                    want = sl.smul(reflection, want)
                assert frame.max_coeff_diff(want) <= 1e-15 * want.scale()

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_exact_identities(self, name):
        """T_v^3 = I, T_v T_v^-1 = I and E_partner(h) E_h = I, each matrix
        in OSp(1|2)."""
        r = np.random.default_rng(16)
        graph = SPINES[name]()
        one = sl.identity(RANK)
        for chart in [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]:
            for v in range(graph.num_vertices):
                turn, back = dc._turn(chart, v, 1), dc._turn(chart, v, 2)
                assert sl.smul_many(turn, turn, turn).max_coeff_diff(one) <= 1e-15
                assert sl.smul(turn, back).max_coeff_diff(one) <= 1e-15
                assert max(sl.osp_residual(turn), sl.osp_residual(back)) <= 1e-12
            for h in range(2 * graph.num_edges):
                cross = dc._crossing(chart, h)
                assert sl.smul(dc._crossing(chart, graph.partner(h)), cross).max_coeff_diff(one) <= 1e-15
                assert sl.osp_residual(cross) <= 1e-12


class TestBuildRep:
    """build_rep on the four spines, from every base vertex, with bounds
    scaled by the largest generator or point."""

    @pytest.mark.parametrize("name, base", REP_BASES)
    def test_punctures_are_parabolic_and_split_by_spin(self, name, base):
        """On the spines after the flips of FLIPS."""
        assert_parabolic_and_split_by_spin(flipped_spine(name), base)

    @pytest.mark.parametrize("name, base", SHIPPED_BASES)
    def test_punctures_split_on_spines_that_are_not_bipartite(self, name, base):
        """The frame product needs no two-coloring of the triangles, so
        dumbbell and four-puncture, which have none as shipped, need no
        flips first."""
        graph = SPINES[name]()
        assert_parabolic_and_split_by_spin(graph, base)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_puncture_traces_are_the_bodies_of_the_words_traces(self, name):
        """puncture_traces multiplies real 2x2 bodies only; the body of the
        trace of each boundary orbit's whole Grassmann word agrees with it
        to 1e-12 of the larger of the generators' and the word's scale."""
        graph = SPINES[name]()
        r = np.random.default_rng(23)
        charts = list(rep_charts(graph, seed=23, count=2)) + [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]
        for chart in charts:
            rep = dc.build_rep(chart)
            traces = rep.puncture_traces()
            assert len(traces) == len(graph.boundary_orbits())
            for orbit, tr in zip(graph.boundary_orbits(), traces):
                word = rep.word(orbit)
                gap = abs(tr - np.trace(sl.bosonic_reduction(word)))
                assert gap <= 1e-12 * max(generators_scale(rep), word.scale()), (orbit, gap)

    @pytest.mark.parametrize(
        "name, shipped", [(name, False) for name in sorted(SPINES)] + [("dumbbell", True), ("four_puncture", True)]
    )
    def test_closed_walk_supertraces_are_conjugacy_invariants(self, name, shipped):
        """The supertrace of the word of a closed walk (`SuperRep.word`) is
        the same from every base vertex, after `flip_gauge` and after every
        `reflect_vertex`: these move the representation by a conjugation
        only.  The bound is 1e-12 of the larger of its body and the two
        words' largest entries, as a short walk with a trace near 2 can have
        large entries."""
        graph = SPINES[name]() if shipped else flipped_spine(name)
        r = np.random.default_rng(17)
        charts = list(rep_charts(graph, seed=17, count=2)) + [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]
        for chart in charts:
            walks = [closed_walk(r, graph, int(r.integers(1, 7))) for _ in range(12)]
            rep = dc.build_rep(chart)
            want = [rep.word(w) for w in walks]
            moved = [dc.build_rep(chart, dc.fundamental_domain(graph, b)) for b in range(1, graph.num_vertices)]
            moved.append(dc.build_rep(chart.flip_gauge()))
            moved.extend(dc.build_rep(chart.reflect_vertex(v)) for v in range(graph.num_vertices))
            for k, rep in enumerate(moved):
                for w, g in zip(walks, want):
                    moved_g, s = rep.word(w), supertrace(g)
                    gap = (supertrace(moved_g) - s).max_abs()
                    scale = max(abs(s.body), g.scale(), moved_g.scale())
                    assert gap <= 1e-12 * scale, "move %d, walk %r: %.3g" % (k, w, gap)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_frames_carry_the_domain_onto_the_light_cone(self, name):
        """The lift as an oracle: each frame carries its triangle's standard
        position to world points, and so does E_h2 frames[h2] for the copy
        of generator j = (h1, h2)'s triangle t1 across h2.  The three slots
        of a vertex give one triangle; the triangles on the two sides of
        each edge (a tree edge, or a generator's copy and the triangle at
        h2) share the corners of their common side; act(element_j, .)
        carries t1's corners onto its copy's; every side pairs to lambda^2,
        and every triangle's mu_invariant is +-mu_v.  Bounds are 1e-12 of
        the largest point."""
        graph = SPINES[name]()
        r = np.random.default_rng(18)
        charts = list(rep_charts(graph, seed=18, count=2)) + [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]
        for chart, base in itertools.product(charts, range(graph.num_vertices)):
            rep = dc.build_rep(chart, dc.fundamental_domain(graph, base))
            factors = dc._side_factors(chart)
            tris = [world_triangle(chart, factors, h, rep.frames[h]) for h in range(2 * graph.num_edges)]
            copies = {}
            for j in rep.domain.generators:
                h1, h2 = graph.edges[j]
                copies[j] = world_triangle(chart, factors, h1, sl.smul(dc._crossing(chart, h2), rep.frames[h2]))
            points = [p for tri in tris + list(copies.values()) for p in tri]
            scale = max(float(np.abs(p.coeffs).max()) for p in points)
            gaps = [p.max_coeff_diff(q) for hs in graph.vertices for h in hs[1:] for p, q in zip(tris[hs[0]], tris[h])]
            for j, (h1, h2) in enumerate(graph.edges):
                k1, k2 = (graph.vertices[graph.vertex_of(h)].index(h) for h in (h1, h2))
                near, far = copies.get(j, tris[h1]), tris[h2]
                gaps += [near[(k1 + 1) % 3].max_coeff_diff(far[(k2 + 2) % 3]),
                         near[(k1 + 2) % 3].max_coeff_diff(far[(k2 + 1) % 3])]
                if j in copies:
                    gaps += [mk.act(rep.elements[j], p).max_coeff_diff(q) for p, q in zip(tris[h1], copies[j])]
            assert max(gaps) <= 1e-12 * scale
            owners = [graph.vertex_of(h) for h in range(2 * graph.num_edges)]
            owners += [graph.vertex_of(graph.edges[j][0]) for j in copies]
            triangles = [dc.LiftedTriangle(v, (3 * i, 3 * i + 1, 3 * i + 2), 0, 1, -1) for i, v in enumerate(owners)]
            lifted = dc.LiftedTriangulation(chart, points, triangles, base, 0)
            assert lifted.pairing_residual() <= 1e-12 * scale
            assert lifted.mu_residual() <= 1e-12 * scale

    def test_builds_from_the_chart_alone(self, monkeypatch):
        """build_rep calls no lift, no quadratic form and no standard
        position; the counters do see a lift's calls."""
        calls = []
        names = [(dc, "_attach_level"), (dc, "lift"), (fg, "QuadraticForm")]
        # minkowski's names also in decorated, should it import them by name
        names += [(m, n) for m in (mk, dc) for n in ("normalize_triple", "_spinor_frame")]
        for module, name in names:
            inner = getattr(module, name, None)
            if inner is not None:
                monkeypatch.setattr(module, name, lambda *a, _f=inner, _n=name, **k: calls.append(_n) or _f(*a, **k))
        r = np.random.default_rng(19)
        for name in sorted(SPINES):
            graph = SPINES[name]()
            for base in range(graph.num_vertices):
                dc.build_rep(random_chart(r, graph), dc.fundamental_domain(graph, base))
        assert calls == []
        dc.lift(random_chart(r, fg.theta_graph()), 1)
        assert calls == ["lift", "_attach_level"]

    def test_domain_of_another_fatgraph_is_rejected(self):
        theta, two = fg.theta_graph(), fg.genus_two_spine()
        for chart_graph, domain_graph in ((two, theta), (theta, two)):
            sizes = [(x.num_vertices, x.num_edges) for x in (domain_graph, chart_graph)]
            message = "fundamental domain is of another fatgraph, (V, E) = %r, than the chart's %r" % tuple(sizes)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                dc.build_rep(dc.standard_chart(chart_graph, rank=RANK), dc.fundamental_domain(domain_graph))


def path_frames(lifted):
    """The frame of each lifted triangle at its entry slot, composed as
    `build_rep` composes frames: the identity at the base, and for a child,
    the crossing (`_crossing`) times its parent's frame turned to the slot
    crossed (`_turn`)."""
    chart = lifted.coords
    graph = chart.graph
    frames = []
    for tri in lifted.triangles:
        if tri.parent < 0:
            frames.append(sl.identity(RANK))
            continue
        parent = lifted.triangles[tri.parent]
        h = graph.partner(graph.vertices[tri.vertex][tri.entry])
        frame = frames[tri.parent]
        steps = (graph.vertices[parent.vertex].index(h) - parent.entry) % 3
        if steps:
            frame = sl.smul(dc._turn(chart, parent.vertex, steps), frame)
        frames.append(sl.smul(dc._crossing(chart, h), frame))
    return frames


def lifted_child(lifted, tri_idx, h):
    """Index of the triangle the lift put across half-edge h of triangle
    tri_idx."""
    graph = lifted.coords.graph
    (idx,) = [
        i for i, t in enumerate(lifted.triangles)
        if t.parent == tri_idx and graph.partner(graph.vertices[t.vertex][t.entry]) == h
    ]
    return idx


class TestSignedLift:
    """The lift is the frame product of `build_rep`, fermion signs and all.
    `LiftedTriangulation.mu_residual` compares each triangle's mu only up to
    sign, as the mu of a bare triple is fixed only up to its spinors' signs;
    these tests pin the sign of every lifted point."""

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_lift_is_the_frame_product(self, name):
        """From every base slot, at depth 3: each lifted point is act of its
        triangle's path frame on its standard point (`_base_triangle` at the
        entry slot), within 1e-12 of the largest point."""
        r = np.random.default_rng(23)
        graph = SPINES[name]()
        for base in itertools.product(range(graph.num_vertices), range(3)):
            chart = random_chart(r, graph, bodies=(0.4, 2.5))
            lifted = dc.lift(chart, 3, *base)
            factors = dc._side_factors(chart)
            scale = max(float(np.abs(p.coeffs).max()) for p in lifted.points)
            for tri, frame in zip(lifted.triangles, path_frames(lifted)):
                standard, _ = dc._base_triangle(chart, factors, tri.vertex, tri.entry)
                for corner, p in zip(tri.corners, standard):
                    gap = mk.act(frame, p).max_coeff_diff(lifted.points[corner])
                    assert gap <= 1e-12 * scale, (base, tri.vertex, tri.entry, gap)

    @pytest.mark.parametrize("name", sorted(SPINES))
    def test_generators_carry_lifted_triangles_onto_lifted_triangles(self, name):
        """rho-equivariance, from base (0, 0): for generator j = (h1, h2),
        act(element_j, .) carries the lifted corners of v1's tree triangle
        onto those of the triangle lifted across h2 from v2's, corner by
        corner, within 1e-12 of the largest point."""
        graph = SPINES[name]()
        domain = dc.fundamental_domain(graph, 0)
        r = np.random.default_rng(24)
        charts = list(rep_charts(graph, seed=24, count=2)) + [random_chart(r, graph, bodies=(0.4, 2.5)) for _ in range(2)]
        # deep enough to reach across every generator from the tree
        level = {}
        for v, h in domain.tree.items():
            level[v] = 0 if h is None else level[graph.vertex_of(h)] + 1
        for chart in charts:
            rep = dc.build_rep(chart, domain)
            lifted = dc.lift(chart, max(level.values()) + 1, 0, 0)
            tree = {}
            for v, h in domain.tree.items():
                tree[v] = 0 if h is None else lifted_child(lifted, tree[graph.vertex_of(h)], h)
            copies = {j: lifted_child(lifted, tree[graph.vertex_of(graph.edges[j][1])], graph.edges[j][1])
                      for j in domain.generators}
            scale = max(float(np.abs(p.coeffs).max()) for p in lifted.points)
            for j, copy in copies.items():
                near = lifted.triangles[tree[graph.vertex_of(graph.edges[j][0])]]
                far = lifted.triangles[copy]
                assert near.vertex == far.vertex
                for i, k in zip(near.corners, far.corners):
                    gap = mk.act(rep.elements[j], lifted.points[i]).max_coeff_diff(lifted.points[k])
                    assert gap <= 1e-12 * scale, (j, gap)


class TestThetaSharpCase:
    """On theta the body of the representation is Fuchsian for the
    once-punctured torus, so classical identities hold on the body traces
    x = tr A, y = tr B and z = tr AB of the two generators."""

    def test_fricke_markov_commutator_and_penner(self):
        r = np.random.default_rng(41)
        graph = fg.theta_graph()
        for i in range(40):
            chart = random_chart(r, graph, bodies=(0.4, 2.5))
            rep = dc.build_rep(chart, dc.fundamental_domain(graph, i % 2))
            a, b = rep.generators()
            x, y, z = (np.trace(sl.bosonic_reduction(g)) for g in (a, b, sl.smul(a, b)))
            size = x * x + y * y + z * z
            assert abs(size - x * y * z) <= 1e-14 * size
            commutator = sl.smul_many(a, b, sl.inverse_osp(a), sl.inverse_osp(b))
            assert abs(np.trace(sl.bosonic_reduction(commutator)) + 2) <= 1e-14 * size
            # Penner: |tr| of the generator of edge j is (sum of squared
            # lambdas) / (lambda of the tree edge * lambda_j)
            lam = [x.body for x in chart.lambdas]
            (h_tree,) = [h for h in rep.domain.tree.values() if h is not None]
            for j, tr in zip(rep.domain.generators, (x, y)):
                want = sum(v * v for v in lam) / (lam[graph.edge_of(h_tree)] * lam[j])
                assert abs(abs(tr) - want) <= 1e-13 * want


def generic_chart(num_vertices, seed=2):
    """The generic point on a one-puncture `random_fatgraph`, the first one
    drawn from the seed: rank V with mu_v = xi_{v+1}, so that no product of
    two mus vanishes by accident, lambdas with a body in [0.7, 1.6] and one
    even soul term, and a random orientation."""
    r = np.random.default_rng(seed)
    graph = random_fatgraph(r, num_vertices)
    while len(graph.boundary_orbits()) != 1:
        graph = random_fatgraph(r, num_vertices)
    lambdas = [
        random_element(r, num_vertices, parity="even", terms=1, scale=0.15, body=float(r.uniform(0.7, 1.6)))
        for _ in range(graph.num_edges)
    ]
    mus = [GrassmannNumber.generator(v + 1, num_vertices) for v in range(num_vertices)]
    bits = [int(b) for b in r.integers(0, 2, graph.num_edges)]
    return dc.DecoratedCoords(graph, lambdas, mus, fg.Orientation.from_bits(graph, bits), rank=num_vertices)


class TestGenericPointAtGenusThree:
    def test_flip_lift_rep_and_pullback(self):
        """On V = 10 at rank 10, in order: a flip keeps the spin class, the
        depth-2 lift of the flipped chart reproduces its lambdas and mus,
        its representation splits the puncture by spin, and its two-form
        pulls back through every non-loop edge."""
        chart = generic_chart(10)
        graph = chart.graph
        assert (graph.genus, len(graph.boundary_orbits()), chart.rank) == (3, 1, 10)
        e = flippable(graph)[0]
        q, res = fg.QuadraticForm(graph, chart.orientation), fg.flip(graph, e, chart.orientation)
        chart = dc.flip_coords(chart, e)
        q_out = fg.QuadraticForm(chart.graph, chart.orientation)
        assert [q_out.value(res.transport(b)) for b in q.basis] == list(q.basis_values())
        lifted = dc.lift(chart, 2)
        scale = max(float(np.abs(p.coeffs).max()) for p in lifted.points)
        assert lifted.pairing_residual() <= 1e-12 * scale
        assert lifted.mu_residual() <= 1e-12 * scale
        assert_punctures_split(dc.build_rep(chart))
        assert_pulls_back(chart)


def two_thetas():
    """Two theta components: vertices 0, 1 and 2, 3."""
    return fg.Fatgraph(
        [(0, 2, 4), (1, 3, 5), (6, 8, 10), (7, 9, 11)],
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
    )


class TestDisconnected:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.cycle_basis(),
            lambda g: g.spanning_tree(),
            lambda g: fg.QuadraticForm(g, fg.Orientation.from_bits(g, (0,) * g.num_edges)),
            lambda g: fg.spin_class(g, fg.Orientation.from_bits(g, (0,) * g.num_edges)),
            lambda g: dc.lift(dc.standard_chart(g, rank=RANK), 1),
            lambda g: dc.fundamental_domain(g),
            lambda g: g.genus,
            lambda g: fg.is_isomorphic(g, g),
        ],
        ids=["cycle_basis", "spanning_tree", "QuadraticForm", "spin_class", "lift", "fundamental_domain",
             "genus", "is_isomorphic"],
    )
    def test_rejected_naming_a_vertex_not_reached(self, call):
        with pytest.raises(ValueError, match=r"^fatgraph is not connected: vertex 2 is not reached from vertex 0$"):
            call(two_thetas())
