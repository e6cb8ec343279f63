"""Decorated charts: the coords text format and the light-cone lift."""

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
