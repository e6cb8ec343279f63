"""Coefficient-level kernels for Grassmann arithmetic.

The product of two elements stored as dense coefficient vectors (index =
generator-subset bitmask) is an XOR-convolution with a sign given by the
parity of the transposition count needed to interleave the two sorted
generator lists.  Operands are nearly empty in practice, so products visit
only pairs of nonzero coefficients, at every rank.  Two functions make a
product, in straight-line code:

- `_pairs` finds which terms meet, as one (r, c) array pair in row-major
  order;
- `product` takes the terms (flat indices and values) of both operands,
  signs the pairs of `_pairs` and sums them into the dense result with one
  bincount.

`multiply_coeffs`, the product of two elements or stacks, takes one path
for every call: broadcast, find each operand's terms by one dense scan
(`terms`; b's only once a has turned out nonzero), then `product`, keyed
exactly when there is more than one element.  A body-only operand pairs
each term of the other with its body alone, sign +1, so it needs no path
of its own.  `GrassmannNumber._power_series` finds the terms of n once
per series and hands them to `product` at every step.  `smul_coeffs`,
the product of two (3, 3, 2**rank) supermatrix arrays as one signed
contraction, takes `_pairs` too, but sums each pair at its row and
column, which its matched indices (keyed on the inner index) do not
carry.

Both take an optional batch: leading axes in front of the coefficient axis
(of multiply_coeffs) or of the (3, 3) entry axes (of smul_coeffs), which
broadcast against each other.  A call is one pair product over the whole
stack: every term carries a key (its batch element, and for smul its inner
index k), and only terms with equal keys pair up.  A term's flat index is
key << rank | mask, so one mask test on the flat indices tests the keys as
well.  `_pairs` finds the pairs in one of three ways, all in the same
row-major order, so that each output coefficient sums in the same order on
every path:

- one masked test of the grid of all pairs of terms, up to _MAX_PAIRS
  cells, and for a keyed product (a stack, or any smul, keyed on k) up to
  _GRID_CELLS cells.  Small products are most of the calls, and the grid
  makes them in a handful of array operations.
- the same test in bands of at most _MAX_PAIRS cells, for a larger grid:
  a product of two single elements (one key) takes the grid at any size.
  The bands are concatenated.
- the join on the keys, for keyed products above _GRID_CELLS cells.  The
  grid grows as the product of the whole term counts, the join only as
  the sum over keys of each key's product: past the bound, measured as
  the crossover on stacked products of deep lifts, the grid's cells of
  unequal keys cost more than the join's set-up.
"""

import numpy as np

_SIGNS = np.array([1.0, -1.0])
_MAX_PAIRS = 1 << 20
_GRID_CELLS = 4096
_sign_tables_by_rank = {}

# [i, k, j]: sign of g[i, k] h[k, j] in the supermatrix product (rows and
# columns 0, 1 even, 2 odd), -1 on the k = 2 term of the 2x2 block and on
# the k < 2 terms of the (2, 2) corner
_EVEN_ROW = [[1, 1, 1], [1, 1, 1], [-1, -1, 1]]
_ODD_ROW = [[1, 1, -1], [1, 1, -1], [1, 1, 1]]
SMUL_SIGNS = np.array([_EVEN_ROW, _EVEN_ROW, _ODD_ROW], dtype=float)


def _sign_tables(rank):
    """Two length-2**rank tables: bit p of t[j] is the parity of the
    generators of j below p, and s[x] is (-1)**popcount(x), so the pair
    (i, j) has sign s[t[j] & i]."""
    tables = _sign_tables_by_rank.get(rank)
    if tables is None:
        idx = np.arange(1 << rank, dtype=np.int64)
        t = np.zeros_like(idx)
        for p in range(rank):
            t |= (np.bitwise_count(idx & ((1 << p) - 1)).astype(np.int64) & 1) << p
        tables = _sign_tables_by_rank[rank] = t, _SIGNS[np.bitwise_count(idx) & 1]
    return tables


def _pairs(ia, ib, rank, keyed):
    """(r, c): the pairs of term r of a and term c of b that meet, in
    row-major order.  Terms are flat indices key << rank | mask (ib sorted),
    and two meet when their masks are disjoint and, if keyed, their keys
    are equal: i & (j | high bits) is then j's key, and nothing else."""
    cells = ia.size * ib.size
    if keyed and cells > _GRID_CELLS:
        blocks = _equal_key_pairs(ia >> rank, ia, ib >> rank, ib & ((1 << rank) - 1))
    else:
        if keyed:
            high = -1 << rank
            key, fence = ib & high, ib | high
        else:
            key, fence = 0, ib
        if cells <= _MAX_PAIRS:
            return ((ia[:, None] & fence) == key).nonzero()
        blocks = _grid_bands(ia, fence, key)
    r, c = zip(*blocks)
    return np.concatenate(r), np.concatenate(c)


def _grid_bands(ia, fence, key):
    """Blocks (r, c) of the grid test of _pairs, in bands of rows of at most
    _MAX_PAIRS cells."""
    step = max(1, _MAX_PAIRS // fence.size)
    for lo in range(0, ia.size, step):
        r, c = ((ia[lo : lo + step, None] & fence) == key).nonzero()
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


def _signs(i, j, rank):
    """Sign of the product of the monomials i and j (disjoint masks): the
    parity of the transpositions that sort the generators of i before j's."""
    t, s = _sign_tables(rank)
    return s[t[j] & i]


def product(ia, va, ib, vb, rank, keyed, size):
    """Dense sum, over `size` flat slots, of the products of the terms (flat
    indices ia, values va) with the terms (ib, vb); a flat index is
    key << rank | mask, ib is sorted, and keyed False means one key for all
    terms.  Term r of a times term c of b lands at ia[r] ^ mask of ib[c],
    a's key and the product monomial; pairs sharing a generator vanish.
    Each slot sums its products in the row-major order of _pairs, with one
    bincount."""
    r, c = _pairs(ia, ib, rank, keyed)
    if not r.size:
        return np.zeros(size)
    i = ia[r]
    j = ib[c] & ((1 << rank) - 1) if keyed else ib[c]
    return np.bincount(i ^ j, weights=va[r] * vb[c] * _signs(i, j, rank), minlength=size)


def terms(a):
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
    by its partner: the terms pair on the key (batch element), keyed only
    when there is more than one element.  b is scanned for terms only once
    a has turned out nonzero."""
    a, b = _broadcast(a, b)
    af, bf = a.reshape(-1), b.reshape(-1)
    # flat term index: batch element << rank | mask
    ta = terms(af)
    tb = terms(bf) if ta.size else ta
    if not tb.size:
        return np.zeros(a.shape)
    return product(ta, af[ta], tb, bf[tb], rank, af.size > 1 << rank, af.size).reshape(a.shape)


def smul_coeffs(g, h, rank):
    """out[..., i, j] = sum_k SMUL_SIGNS[i, k, j] g[..., i, k] h[..., k, j]
    on (..., 3, 3, 2**rank) arrays whose batch axes broadcast: the terms of
    g and h pair on the key (batch element, inner index k), and all
    products land in out with one bincount."""
    g, h = _broadcast(g, h)
    shape, n = g.shape, g.shape[-1]
    g, h = g.reshape(-1), h.reshape(-1)
    tg = terms(g)
    th = terms(h) if tg.size else tg
    if not th.size:
        return np.zeros(shape)
    # flat term index: ((batch * 3 + row) * 3 + column) << rank | mask
    eg, eh = tg >> rank, th >> rank
    # g[b, i, k] keys on b * 3 + k, as does h[b, k, j], on eh // 3 (sorted)
    ig = (eg // 9 * 3 + eg % 3) << rank | (tg & (n - 1))
    ih = eh // 3 << rank | (th & (n - 1))
    r, c = _pairs(ig, ih, rank, True)
    if not r.size:
        return np.zeros(shape)
    e, j = eg[r], eh[c] % 3
    ma, mb = tg[r] & (n - 1), th[c] & (n - 1)
    weights = g[tg[r]] * h[th[c]] * _signs(ma, mb, rank) * SMUL_SIGNS[e % 9 // 3, e % 3, j]
    slots = (e - e % 3 + j) * n + (ma ^ mb)
    return np.bincount(slots, weights=weights, minlength=g.size).reshape(shape)
