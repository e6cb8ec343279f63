"""Decorated charts: the coords text format, the gauge, the light-cone lift
and the super Ptolemy flip."""

import itertools

import numpy as np
import pytest

from superteich import decorated as dc
from superteich import fatgraph_spin as fg

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


class TestLift:
    @pytest.mark.parametrize("name", ["theta", "genus_two"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lift_reproduces_lambda_and_mu(self, name, depth):
        lifted = dc.lift(dc.standard_chart(SPINES[name](), rank=RANK), depth, 0, 0)
        assert len(lifted.triangles) == 1 + 3 * (2**depth - 1)
        assert lifted.pairing_residual() <= 1e-9
        assert lifted.mu_residual() <= 1e-9


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
