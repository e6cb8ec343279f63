"""Coefficient-level kernels for Grassmann arithmetic.

The product of two elements stored as dense coefficient vectors (index =
generator-subset bitmask) is an XOR-convolution with a sign given by the
parity of the transposition count needed to interleave the two sorted
generator lists.  Operands are nearly empty in practice, so products visit
only pairs of nonzero coefficients, at every rank: `_pair_product` is that
one pair product.  It serves `multiply_coeffs`, the product of two
elements, and `smul_coeffs`, the product of two (3, 3, 2**rank) supermatrix
arrays as one signed contraction.

Both take an optional batch: leading axes in front of the coefficient axis
(of multiply_coeffs) or of the (3, 3) entry axes (of smul_coeffs), which
broadcast against each other.  A call is one pair product over the whole
stack: every term carries a key (its batch element, and for smul its inner
index k), and only terms with equal keys pair up.  A term's flat index is
key << rank | mask, so one mask test on the flat indices tests the keys as
well.  The pairs come in one of two ways, in the same row-major order, so
that either way sums each output coefficient in the same order:

- the grid of all pairs of terms, tested at once.  The product of two
  single elements (one key) takes it at any size, in bands of _MAX_PAIRS
  cells, and a keyed product (a stack, or any smul, keyed on k) up to
  _GRID_CELLS cells.  Small products are most of the calls, and the grid
  makes them in a handful of array operations.
- the join on the keys, for keyed products above _GRID_CELLS cells.  The
  grid grows as the product of the whole term counts, the join only as
  the sum over keys of each key's product: past the bound, measured as
  the crossover on stacked products of deep lifts, the grid's cells of
  unequal keys cost more than the join's set-up.
"""

import math

import numpy as np

_SIGNS = np.array([1.0, -1.0])
_MAX_PAIRS = 1 << 20
_GRID_CELLS = 4096
_sign_masks = {}

# [i, k, j]: sign of g[i, k] h[k, j] in the supermatrix product (rows and
# columns 0, 1 even, 2 odd), -1 on the k = 2 term of the 2x2 block and on
# the k < 2 terms of the (2, 2) corner
_EVEN_ROW = [[1, 1, 1], [1, 1, 1], [-1, -1, 1]]
_ODD_ROW = [[1, 1, -1], [1, 1, -1], [1, 1, 1]]
SMUL_SIGNS = np.array([_EVEN_ROW, _EVEN_ROW, _ODD_ROW], dtype=float)


def _sign_mask(rank):
    """Length-2**rank table: bit p of t[j] is the parity of the generators
    of j below p, so the pair (i, j) has sign (-1)**popcount(t[j] & i)."""
    t = _sign_masks.get(rank)
    if t is None:
        idx = np.arange(1 << rank, dtype=np.int64)
        t = np.zeros_like(idx)
        for p in range(rank):
            t |= (np.bitwise_count(idx & ((1 << p) - 1)).astype(np.int64) & 1) << p
        _sign_masks[rank] = t
    return t


def _grid_pairs(ia, ib, rank, keyed):
    """Blocks (r, c) of the pairs of term r of a and term c of b that meet,
    in row-major order; each block is a band of rows of at most _MAX_PAIRS
    cells of the grid of all pairs.  Terms are flat indices key << rank |
    mask, and two meet when their masks are disjoint and, if keyed, their
    keys are equal: i & (j | high bits) is then j's key, and nothing else."""
    if keyed:
        high = -1 << rank
        key, fence = ib & high, ib | high
    else:
        key, fence = 0, ib
    step = max(1, _MAX_PAIRS // ib.size)
    for lo in range(0, ia.size, step):
        r, c = ((ia[lo : lo + step, None] & fence) == key).nonzero()
        if lo:
            r += lo
        yield r, c


def _equal_key_pairs(ka, ma, kb, mb):
    """Blocks (r, c) of the pairs of term r of a and term c of b with equal
    keys, ka[r] == kb[c] (kb sorted), and disjoint masks, in row-major
    order; each block comes from at most _MAX_PAIRS candidates."""
    # the b terms with a's key are the run first[r] : first[r] + count[r]
    first = kb.searchsorted(ka)
    count = kb.searchsorted(ka, "right") - first
    end = count.cumsum()
    # a block's candidates are a flat list: p pairs term r of a, the one with
    # end[r] - count[r] <= p < end[r], with term p + shift[r] of b
    shift = (first - end + count).astype(np.int32)
    ma32, mb32 = ma.astype(np.int32), mb.astype(np.int32)
    lo = 0
    while lo < ma.size:
        base = end[lo] - count[lo]
        hi = max(lo + 1, int(end.searchsorted(base + _MAX_PAIRS, "right")))
        p, c = _disjoint(base, count[lo:hi], shift[lo:hi], ma32[lo:hi], mb32)
        yield end.searchsorted(p, "right"), c
        lo = hi


def _disjoint(base, reps, shift, ma, mb):
    """The candidates p = base, base + 1, ... of a block of a's terms (reps
    each, their b terms at p + shift) that pair disjoint masks, as (p, c).
    The candidates are most of the memory a product takes: they are int32,
    only c is held for all of them, and all are freed on return."""
    c = shift.repeat(reps)
    c += np.arange(base, base + c.size, dtype=np.int32)
    clash = ma.repeat(reps)
    clash &= mb[c]
    keep = (clash == 0).nonzero()[0]
    return keep + base, c[keep]


def _pair_product(ia, va, ib, vb, rank, keyed):
    """Products of the terms (flat indices ia, values va) with the terms
    (ib, vb); a flat index is key << rank | mask, ib is sorted, and keyed
    False means one key for all terms.

    Yields blocks (r, c, index, value): term r of a times term c of b is
    value at the flat index ia[r] ^ mask of ib[c], a's key and the product
    monomial.  Only terms of equal key meet, and pairs sharing a generator
    vanish and are left out.  Pairs come in row-major order, so sums over
    them run in the same order on either path: the grid of all pairs, or,
    for a keyed grid of more than _GRID_CELLS cells, the join on the keys."""
    mb = ib & ((1 << rank) - 1) if keyed else ib
    if keyed and ia.size * ib.size > _GRID_CELLS:
        blocks = _equal_key_pairs(ia >> rank, ia, ib >> rank, mb)
    else:
        blocks = _grid_pairs(ia, ib, rank, keyed)
    t = _sign_mask(rank)
    for r, c in blocks:
        if r.size:
            i, j = ia[r], mb[c]
            yield r, c, i ^ j, va[r] * vb[c] * _SIGNS[np.bitwise_count(t[j] & i) & 1]


def _accumulate(slots, weights, shape):
    """Array of the given shape holding at each flat slot the sum, in
    order, of the weights there (slots and weights: lists of blocks)."""
    if not slots:
        return np.zeros(shape)
    if len(slots) > 1:
        slots, weights = [np.concatenate(slots)], [np.concatenate(weights)]
    return np.bincount(slots[0], weights=weights[0], minlength=math.prod(shape)).reshape(shape)


def _terms(a):
    """Indices of the nonzero entries of a flat array (comparing first is
    several times faster than ndarray.nonzero on floats)."""
    return (a != 0).nonzero()[0]


def _broadcast(a, b):
    """a and b broadcast against each other (themselves when their shapes
    are equal already)."""
    if a.shape == b.shape:
        return a, b
    shape = np.broadcast_shapes(a.shape, b.shape)
    return np.broadcast_to(a, shape), np.broadcast_to(b, shape)


def multiply_coeffs(a, b, rank):
    """Grassmann product of dense coefficient arrays with 2**rank columns;
    leading (batch) axes broadcast, and each batch element is multiplied
    by its partner: the terms pair on the key (batch element).  With one
    element there is one key, and every pair of terms meets that shares no
    generator."""
    a, b = _broadcast(a, b)
    af, bf = (a, b) if a.ndim == 1 else (a.reshape(-1), b.reshape(-1))
    # flat term index: batch element << rank | mask
    ta, tb = _terms(af), _terms(bf)
    if not ta.size or not tb.size:
        return np.zeros(a.shape)
    # an operand whose every term is a body scales the other one
    elements = af.size >> rank
    if ta.size <= elements and ta.size == np.count_nonzero(a[..., 0]):
        return a[..., :1] * b
    if tb.size <= elements and tb.size == np.count_nonzero(b[..., 0]):
        return b[..., :1] * a
    slots, values = [], []
    for _, _, slot, value in _pair_product(ta, af[ta], tb, bf[tb], rank, elements > 1):
        slots.append(slot)
        values.append(value)
    return _accumulate(slots, values, a.shape)


def smul_coeffs(g, h, rank):
    """out[..., i, j] = sum_k SMUL_SIGNS[i, k, j] g[..., i, k] h[..., k, j]
    on (..., 3, 3, 2**rank) arrays whose batch axes broadcast: the terms of
    g and h pair on the key (batch element, inner index k), and all
    products land in out with one bincount."""
    g, h = _broadcast(g, h)
    shape, n = g.shape, g.shape[-1]
    g, h = g.reshape(-1), h.reshape(-1)
    tg, th = _terms(g), _terms(h)
    if not tg.size or not th.size:
        return np.zeros(shape)
    # flat term index: ((batch * 3 + row) * 3 + column) << rank | mask
    eg, eh = tg >> rank, th >> rank
    # g[b, i, k] keys on b * 3 + k, as does h[b, k, j], on eh // 3 (sorted)
    ig = (eg // 9 * 3 + eg % 3) << rank | (tg & (n - 1))
    ih = eh // 3 << rank | (th & (n - 1))
    slots, weights = [], []
    for r, c, index, value in _pair_product(ig, g[tg], ih, h[th], rank, True):
        e, j = eg[r], eh[c] % 3
        slots.append((e - e % 3 + j) * n + (index & (n - 1)))
        weights.append(value * SMUL_SIGNS[e % 9 // 3, e % 3, j])
    return _accumulate(slots, weights, shape)
