"""Smoke test of the traced benchmark: one op of each perfbench workload runs
under `perfbench/tracing.Tracer`, every layer that workload exercises records
at least one call, and the workload's own check passes.  A function renamed
or rebound past the tracer would otherwise read 0 in `--trace 1` runs.  The
layers a workload must not reach record no call: a traced `lift` op makes no
`smul`, `act`, `normalize_triple` or `basic_calculation` call, and a traced
`spin` op makes its 20 flips without building a `Fatgraph` through the
checked constructor.

The perfbench files are only read (imported without writing bytecode)."""

import os
import sys

import numpy as np
import pytest

from superteich import fatgraph_spin

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# layers with at least one call per op in a traced run of each workload
LAYERS = {
    "lift": ["kernel.product", "grassmann.series", "decorated.lift"],
    "ptolemy": [
        "kernel.product",
        "grassmann.series",
        "minkowski.mu_invariant",
        "minkowski.basic_calculation",
    ],
    "spin": ["fatgraph_spin.flip"],
}

# layers with no call at all: the lift puts each point from the spinors of
# its parent's side and builds no group element
SILENT = {
    "lift": [
        "superlinalg.smul",
        "minkowski.act",
        "minkowski.normalize_triple",
        "minkowski.basic_calculation",
    ],
}


@pytest.fixture(scope="module")
def bench():
    """The perfbench workloads and tracing modules."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return workloads, tracing


def first_input(bench, name):
    return bench[0].WORKLOADS[name].make_inputs(np.random.default_rng(1), 1)[0]


def traced_op(bench, name, inp):
    """(output, per-layer totals) of one traced op of the workload."""
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out, _ = tracer.run_op(0, workload.op, inp)
    finally:
        tracer.uninstall()
    return out, tracer.layer_totals()


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_traced_op_records_every_layer(bench, name):
    inp = first_input(bench, name)
    out, totals = traced_op(bench, name, inp)
    silent = [layer for layer in LAYERS[name] if totals[layer][0] == 0]
    assert not silent, "layers with no traced call: %s" % silent
    bench[0].WORKLOADS[name].check(inp, out)


@pytest.mark.parametrize("name", sorted(SILENT))
def test_traced_op_skips_the_silent_layers(bench, name):
    _, totals = traced_op(bench, name, first_input(bench, name))
    called = [layer for layer in SILENT[name] if totals[layer][0] != 0]
    assert not called, "layers with traced calls: %s" % called


def test_traced_spin_op_rewires_without_the_checked_constructor(bench, monkeypatch):
    inp = first_input(bench, "spin")
    inits = []
    checked_init = fatgraph_spin.Fatgraph.__init__

    def counted_init(self, *args, **kwargs):
        inits.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(fatgraph_spin.Fatgraph, "__init__", counted_init)
    _, totals = traced_op(bench, "spin", inp)
    assert totals["fatgraph_spin.flip"][0] == bench[0].WALK_LENGTH == 20
    assert not inits, "Fatgraph.__init__ calls in one spin op: %d" % len(inits)
