"""The batch axis: a stack computed at once equals its elements computed one
by one, through the product kernels, the series and the action.
(`minkowski._far_spinor` over a stack is tested in test_minkowski.py,
through its oracle `far_point`.)"""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superteich import _kernels
from superteich import minkowski as mk
from superteich import superlinalg as sl
from superteich.grassmann import GrassmannNumber, stack

RANK = 8
RANKS = (1, 8, 12)


def assert_close_to_scale(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


@st.composite
def element(draw, rank):
    """Coefficients of one element: zero, body-only, sparse or (rank <= 8)
    full fill."""
    n = 1 << rank
    fill = draw(st.sampled_from(("zero", "body", "sparse", "full") if rank <= 8 else ("zero", "body", "sparse")))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.zeros(n)
    if fill == "body":
        c[0] = r.uniform(0.5, 2.0)
    elif fill == "sparse":
        masks = r.choice(n, size=min(n, int(r.integers(1, 8))), replace=False)
        c[masks] = r.uniform(-1, 1, masks.size)
    elif fill == "full":
        c = r.uniform(-1, 1, n)
    return c


@st.composite
def batch(draw, rank, entries=()):
    """(B,) + entries stack of elements, B from 1 to 6."""
    size = draw(st.integers(1, 6))
    count = size * int(np.prod(entries, dtype=int))
    rows = [draw(element(rank)) for _ in range(count)]
    return np.array(rows).reshape((size,) + tuple(entries) + (1 << rank,))


# a stack's pairs come from the grid of all pairs up to _GRID_CELLS cells,
# and from the keyed join above it: each bound forces one path
CELL_BOUNDS = (1 << 30, 0)


def on_each_path(product, *args):
    """product(*args) with the grid, then with the join."""
    out = []
    with pytest.MonkeyPatch.context() as m:
        for bound in CELL_BOUNDS:
            m.setattr(_kernels, "_GRID_CELLS", bound)
            out.append(product(*args))
    return out


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_product_matches_elements(rank, data):
    """Bit for bit: a stack sums each element's pairs in the same order."""
    a = data.draw(batch(rank))
    b = np.array([data.draw(element(rank)) for _ in range(a.shape[0])])
    for got in on_each_path(_kernels.multiply_coeffs, a, b, rank):
        for k in range(a.shape[0]):
            assert np.array_equal(got[k], _kernels.multiply_coeffs(a[k], b[k], rank))
    # an unbatched operand multiplies every element
    for got in on_each_path(_kernels.multiply_coeffs, b[0], a, rank):
        for k in range(a.shape[0]):
            assert np.array_equal(got[k], _kernels.multiply_coeffs(b[0], a[k], rank))


# a full-fill entry makes 3 * 4**rank candidate pairs per inner index, so
# matrix stacks draw fewer examples
@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_smul_matches_elements(rank, data):
    g = data.draw(batch(rank, (3, 3)))
    h = np.array([data.draw(batch(rank, (3, 3)))[0] for _ in range(g.shape[0])])
    for got in on_each_path(_kernels.smul_coeffs, g, h, rank):
        for k in range(g.shape[0]):
            assert np.array_equal(got[k], _kernels.smul_coeffs(g[k], h[k], rank))


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_act_matches_elements(rank, data):
    g = sl.SuperMatrix.wrap(rank, data.draw(batch(rank, (3, 3))))
    size = g.coeffs.shape[0]
    v = mk.SuperVector.wrap(rank, np.array([data.draw(batch(rank, (5,)))[0] for _ in range(size)]))
    got = mk.act(g, v).coeffs
    for k in range(size):
        one = mk.act(sl.SuperMatrix.wrap(rank, g.coeffs[k]), mk.SuperVector.wrap(rank, v.coeffs[k]))
        assert_close_to_scale(got[k], one.coeffs)


def test_batch_crosses_the_pair_block(monkeypatch):
    """With a block size of 7 pairs, the candidate pairs of one key, and the
    keys of one batch, are cut across several blocks; so are the pairs of
    a product of two single elements.  The pairs come in one order on every
    path, so each result is bit for bit the one-block result."""
    r = np.random.default_rng(5)
    a = np.zeros((4, 1 << RANK))
    b = np.zeros((4, 1 << RANK))
    for row in (a, b):
        for k in range(4):
            masks = r.choice(1 << RANK, size=6, replace=False)
            row[k, masks] = r.uniform(-1, 1, 6)
    g, h = r.uniform(-1, 1, (2, 3, 3, 3, 16)) * (r.random((2, 3, 3, 3, 16)) < 0.4)
    want_ab = [_kernels.multiply_coeffs(a[k], b[k], RANK) for k in range(4)]
    want_gh = [_kernels.smul_coeffs(g[k], h[k], 4) for k in range(3)]
    monkeypatch.setattr(_kernels, "_MAX_PAIRS", 7)
    paths_ab = on_each_path(_kernels.multiply_coeffs, a, b, RANK)
    for got_ab, got_gh in zip(paths_ab, on_each_path(_kernels.smul_coeffs, g, h, 4)):
        for k in range(4):
            assert np.array_equal(got_ab[k], want_ab[k])
        for k in range(3):
            assert np.array_equal(got_gh[k], want_gh[k])
    # one element, one key: the all-pairs candidates go in blocks too
    for k in range(4):
        assert np.array_equal(_kernels.multiply_coeffs(a[k], b[k], RANK), want_ab[k])


def test_product_of_clashing_terms_is_float_zero():
    """Every pair shares generator 1, so no pair is formed: the product is
    float zeros of the broadcast shape on either path, not bincount's int
    zeros."""
    a = np.zeros((3, 1 << RANK))
    a[:, 0b11] = [1.0, -2.0, 0.5]
    b = np.zeros(1 << RANK)
    b[0b1] = 1.5
    g = np.zeros((2, 3, 3, 1 << RANK))
    g[:, :, 0, 0b1] = 1.0
    h = np.zeros((3, 3, 1 << RANK))
    h[0, :, 0b101] = 2.0
    got = on_each_path(_kernels.multiply_coeffs, a, b, RANK) + on_each_path(_kernels.smul_coeffs, g, h, RANK)
    got += [_kernels.multiply_coeffs(b, a[0], RANK), _kernels.smul_coeffs(g[0], h, RANK)]
    shapes = [a.shape] * 2 + [g.shape] * 2 + [b.shape, h.shape]
    for x, shape in zip(got, shapes):
        assert x.dtype == np.float64 and x.shape == shape and not x.any()


# -- Grassmann stacks ----------------------------------------------------------


def test_series_run_until_every_element_is_done():
    """The first element's soul squares to zero, the second's only vanishes
    at the fifth power: the stack's series must run on for the second."""
    shallow = GrassmannNumber.scalar(2.0, RANK) + GrassmannNumber.monomial([1, 2], 0.5, RANK)
    deep = GrassmannNumber.scalar(1.5, RANK)
    for k, c in enumerate((0.3, 0.4, 0.2, 0.1)):
        deep = deep + GrassmannNumber.monomial([2 * k + 1, 2 * k + 2], c, RANK)
    assert not (deep.soul() ** 4).is_zero(0.0)
    both = stack([shallow, deep])
    for name in ("inverse", "sqrt", "rsqrt"):
        got = getattr(both, name)().coeffs
        for k, x in enumerate((shallow, deep)):
            assert np.array_equal(got[k], getattr(x, name)().coeffs), (name, k)


def test_stack_body_and_broadcast():
    a = stack([GrassmannNumber.scalar(x, RANK) + GrassmannNumber.generator(1, RANK) for x in (1.0, 2.0, 3.0)])
    assert np.array_equal(a.body, [1.0, 2.0, 3.0])
    assert isinstance(GrassmannNumber.scalar(2.0, RANK).body, float)
    prod = a * GrassmannNumber.generator(2, RANK)
    for k in range(3):
        want = (GrassmannNumber.scalar(k + 1.0, RANK) + GrassmannNumber.generator(1, RANK)) * GrassmannNumber.generator(2, RANK)
        assert np.array_equal(prod.coeffs[k], want.coeffs)
    m = sl.diag(a, a.inverse())
    assert m.coeffs.shape == (3, 3, 3, 1 << RANK)
    assert np.array_equal(m[0, 0].coeffs, a.coeffs)


def test_stack_rejects_mixed_ranks():
    with pytest.raises(ValueError, match="rank mismatch"):
        stack([GrassmannNumber(4), GrassmannNumber(5)])
