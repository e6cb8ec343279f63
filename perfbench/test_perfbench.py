"""Tests of the benchmark itself: the reference arithmetic, the output
checks (each must reject a corrupted output), the seeded inputs and the
fatgraph generator.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import refalgebra as ra  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from superteich import fatgraph_spin as fg  # noqa: E402
from superteich import minkowski as mk  # noqa: E402
from superteich import superlinalg as sl  # noqa: E402
from superteich.grassmann import GrassmannNumber, random_element  # noqa: E402


def g(i, rank=4):
    return ra.generator(i, rank)


def one(rank=4):
    return ra.scalar(1.0, rank)


# -- reference arithmetic ------------------------------------------------------


class TestReferenceAlgebra:
    def test_generators_anticommute_and_square_to_zero(self):
        g12 = np.zeros(16)
        g12[0b0011] = 1.0
        assert np.array_equal(ra.mul(g(1), g(2)), g12)
        assert np.array_equal(ra.mul(g(2), g(1)), -g12)
        assert not ra.mul(g(3), g(3)).any()

    def test_known_products(self):
        # g2 g1 g3 = -g1 g2 g3; (1 + g1 g2)(1 - g1 g2) = 1
        g123 = np.zeros(16)
        g123[0b0111] = 1.0
        assert np.array_equal(ra.mul(ra.mul(g(2), g(1)), g(3)), -g123)
        n = ra.mul(g(1), g(2))
        assert np.array_equal(ra.mul(one() + n, one() - n), one())

    def test_inverse_and_sqrt(self):
        x = 2.0 * one() + 0.3 * ra.mul(g(1), g(2)) - 0.7 * ra.mul(g(3), g(4))
        assert np.abs(ra.mul(x, ra.inverse(x)) - one()).max() < 1e-15
        r = ra.sqrt(x)
        assert np.abs(ra.mul(r, r) - x).max() < 1e-15

    @pytest.mark.parametrize("rank", [3, 8, 12])
    def test_agrees_with_library_product(self, rank):
        rng = np.random.default_rng(rank)
        for _ in range(20):
            a = random_element(rng, rank, terms=6)
            b = random_element(rng, rank, terms=6)
            assert np.abs(ra.mul(a.coeffs, b.coeffs) - (a * b).coeffs).max() < 1e-13

    def test_proof_display_identity(self):
        # e^2 f^2 = (ac + bd)^2 + 2abcd (sqrt(chi) + 1/sqrt(chi)) sigma theta
        rank = 8
        a, b, c, d, e = 1.1, 0.9, 1.4, 0.8, 1.2
        sg = 0.25 * g(1, rank) + 0.06 * ra.mul(ra.mul(g(1, rank), g(2, rank)), g(3, rank))
        th = 0.2 * g(2, rank) + 0.05 * ra.mul(ra.mul(g(2, rank), g(3, rank)), g(4, rank))
        f = mk.ptolemy_even(
            a, b, c, d, e, GrassmannNumber(rank, sg), GrassmannNumber(rank, th)
        ).coeffs
        chi = a * c / (b * d)
        rhs = (a * c + b * d) ** 2 * ra.scalar(1.0, rank) + 2 * a * b * c * d * (
            np.sqrt(chi) + 1 / np.sqrt(chi)
        ) * ra.mul(sg, th)
        assert np.abs(e * e * ra.mul(f, f) - rhs).max() < 1e-12

    def test_pairing_of_standard_slots(self):
        rank = 4
        z = np.zeros(16)
        pa = (z, 1.3 * one(), z, z, z)
        pc = (0.8 * one(), z, z, z, z)
        assert np.allclose(ra.pairing(pa, pc), 0.5 * 1.3 * 0.8 * one())

    def test_triple_mu_in_standard_position_and_under_the_group(self):
        rank = 8
        rng = np.random.default_rng(5)
        phi = random_element(rng, rank, parity="odd", terms=3)
        t = random_element(rng, rank, parity="even", terms=2, scale=0.2, body=1.7)
        z = GrassmannNumber(rank)
        pa = mk.SuperVector(z, GrassmannNumber.scalar(1.3, rank), z, z, z)
        pb = mk.SuperVector(t, t, t, t * phi, t * phi)
        pc = mk.SuperVector(GrassmannNumber.scalar(0.8, rank), z, z, z, z)
        pts = [wl._point(p) for p in (pa, pb, pc)]
        assert np.abs(ra.triple_mu(*pts) - phi.coeffs).max() < 1e-12
        for _ in range(4):
            grp = sl.random_osp(rng, rank, blocks=3, odd_terms=3, scale=0.6)
            moved = [wl._point(mk.act(grp, p)) for p in (pa, pb, pc)]
            got = ra.triple_mu(*moved)
            assert min(np.abs(got - phi.coeffs).max(), np.abs(got + phi.coeffs).max()) < 1e-9
        with pytest.raises(ValueError):
            ra.triple_mu(pts[0], pts[2], pts[1])


# -- the checks reject corrupted outputs ---------------------------------------


@pytest.fixture(scope="module")
def lift_case():
    inp = wl.lift_inputs(np.random.default_rng(11), 1)[0]
    return inp, wl.lift_op(inp)


@pytest.fixture(scope="module")
def ptolemy_case():
    quad = wl.ptolemy_inputs(np.random.default_rng(12), 1)[0]
    return quad, wl.ptolemy_op(quad)


@pytest.fixture(scope="module")
def spin_case():
    walk = wl.spin_inputs(np.random.default_rng(13), 1)[0]
    return walk, wl.spin_op(walk)


def _with_point(lifted, k, point):
    out = copy.copy(lifted)
    out.points = list(lifted.points)
    out.points[k] = point
    return out


class TestLiftCheck:
    def test_accepts_the_lift(self, lift_case):
        wl.check_lift(*lift_case)

    def test_rejects_a_sign_flipped_point(self, lift_case):
        inp, lifted = lift_case
        with pytest.raises(wl.CheckFailed):
            wl.check_lift(inp, _with_point(lifted, 4, -lifted.points[4]))

    def test_rejects_a_nonzero_fermion_label(self, lift_case):
        inp, lifted = lift_case
        p = lifted.points[7]
        bent = mk.SuperVector(p.x1, p.x2, p.y, p.phi, p.theta + 1e-3 * GrassmannNumber.generator(8, 8))
        with pytest.raises(wl.CheckFailed):
            wl.check_lift(inp, _with_point(lifted, 7, bent))

    def test_rejects_a_wrong_mu(self, lift_case):
        (chart, base), lifted = lift_case
        mus = list(chart.mus)
        mus[1] = mus[1] + 1e-3 * GrassmannNumber.generator(8, 8)
        with pytest.raises(wl.CheckFailed, match="mu"):
            wl.check_lift((chart.replace(mus=mus), base), lifted)


class TestPtolemyCheck:
    def test_accepts_the_flip(self, ptolemy_case):
        wl.check_ptolemy(*ptolemy_case)

    def _f_with_correction(self, quad, sign):
        a, b, c, d, e, sigma, theta = quad
        chi = a * c * (b * d).inverse()
        corr = 1 + sign * (sigma * theta * chi.sqrt() * (1 + chi).inverse())
        return (a * c + b * d) * corr * e.inverse()

    def test_the_correction_term_is_what_the_check_sees(self, ptolemy_case):
        quad, out = ptolemy_case
        assert self._f_with_correction(quad, 1.0).isclose(out["f"], 1e-12)

    @pytest.mark.parametrize("sign", [0.0, -1.0])
    def test_rejects_a_wrong_correction_term(self, ptolemy_case, sign):
        quad, out = ptolemy_case
        bad = dict(out, f=self._f_with_correction(quad, sign))
        with pytest.raises(wl.CheckFailed, match="f\\^2"):
            wl.check_ptolemy(quad, bad)

    def test_rejects_swapped_odd_invariants(self, ptolemy_case):
        quad, out = ptolemy_case
        with pytest.raises(wl.CheckFailed):
            wl.check_ptolemy(quad, dict(out, mu=out["nu"], nu=out["mu"]))


class TestSpinCheck:
    def test_accepts_the_walk(self, spin_case):
        wl.check_spin(*spin_case)

    def test_rejects_a_flipped_orientation_bit(self, spin_case):
        walk, steps = spin_case
        last = steps[-1]
        # reverse an edge that lies on a cycle, so the form sees it
        edge = next(j for c in last.graph.cycle_basis() for j in np.flatnonzero(c))
        bad = copy.copy(last)
        bad.orientation = last.orientation.flip_edges([int(edge)])
        with pytest.raises(wl.CheckFailed, match="quadratic form"):
            wl.check_spin(walk, steps[:-1] + [bad])

    def test_rejects_a_short_walk(self, spin_case):
        walk, steps = spin_case
        with pytest.raises(wl.CheckFailed):
            wl.check_spin(walk, steps[:-1])


# -- inputs ----------------------------------------------------------------


def _fingerprint(value):
    """Nested plain-data form of an input, for exact comparison."""
    if isinstance(value, GrassmannNumber):
        return ("g", value.rank, tuple(value.coeffs))
    if isinstance(value, fg.Fatgraph):
        return ("graph", value.vertices, value.edges)
    if isinstance(value, fg.Orientation):
        return ("orientation", value.tails)
    if hasattr(value, "lambdas"):
        return ("chart", _fingerprint(value.graph), _fingerprint(value.lambdas),
                _fingerprint(value.mus), _fingerprint(value.orientation), value.gauge)
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    return value


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_equal_seeds_give_identical_inputs(name):
    make = wl.WORKLOADS[name].make_inputs
    first = _fingerprint(make(np.random.default_rng(7), 4))
    assert first == _fingerprint(make(np.random.default_rng(7), 4))
    assert first != _fingerprint(make(np.random.default_rng(8), 4))


def test_lift_inputs_have_the_stated_make_up():
    for chart, _ in wl.lift_inputs(np.random.default_rng(3), 8):
        assert chart.rank == wl.LIFT_RANK
        for lam in chart.lambdas:
            assert lam.body > 0 and np.count_nonzero(lam.coeffs[1:]) <= 1
        for mu in chart.mus:
            assert 1 <= np.count_nonzero(mu.coeffs) <= 2


def test_fatgraph_generator_gives_connected_trivalent_graphs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        graph = wl.random_fatgraph(rng)
        assert graph.num_vertices == 6 and graph.num_edges == 9
        assert all(len(v) == 3 for v in graph.vertices)
        assert sorted(h for v in graph.vertices for h in v) == list(range(18))
        seen, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for h in graph.vertices[v]:
                w = graph.vertex_of(graph.partner(h))
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        assert seen == set(range(6))


# -- the command ---------------------------------------------------------------


def test_benchmark_json_lists_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(wl.WORKLOADS, key=["lift", "ptolemy", "spin"].index)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[2] for k, v in run.PER_LAYER.items()
    }


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
