"""Coefficient-level kernels for Grassmann arithmetic.

The product of two elements stored as dense coefficient vectors (index =
generator-subset bitmask) is an XOR-convolution with a sign given by the
parity of the transposition count needed to interleave the two sorted
generator lists.  Operands are nearly empty in practice, so products visit
only pairs of nonzero coefficients, at every rank: `_pair_product` is that
one pair product.  It serves `multiply_coeffs`, the product of two
elements, and `smul_coeffs`, the product of two (3, 3, 2**rank) supermatrix
arrays as one signed contraction.
"""

import numpy as np

_SIGNS = np.array([1.0, -1.0])
_MAX_PAIRS = 1 << 20
_sign_masks = {}

# [i, k, j]: sign of g[i, k] h[k, j] in the supermatrix product (rows and
# columns 0, 1 even, 2 odd), -1 on the k = 2 term of the 2x2 block and on
# the k < 2 terms of the (2, 2) corner
_EVEN_ROW = [[1, 1, 1], [1, 1, 1], [-1, -1, 1]]
_ODD_ROW = [[1, 1, -1], [1, 1, -1], [1, 1, 1]]
SMUL_SIGNS = np.array([_EVEN_ROW, _EVEN_ROW, _ODD_ROW], dtype=float)


def _sign_mask(rank):
    """Length-2**rank table: bit p of t[i] is the parity of the generators
    of i above p, so the pair (i, j) has sign (-1)**popcount(t[i] & j)."""
    t = _sign_masks.get(rank)
    if t is None:
        idx = np.arange(1 << rank, dtype=np.int64)
        t = np.zeros_like(idx)
        for p in range(rank):
            t |= (np.bitwise_count(idx >> (p + 1)).astype(np.int64) & 1) << p
        _sign_masks[rank] = t
    return t


def _pair_product(ma, va, mb, vb, rank):
    """Products of the terms (masks ma, values va) with the terms (mb, vb).

    Yields blocks (r, c, mask, value): term r of a times term c of b is
    value on the monomial mask; pairs sharing a generator vanish and are
    left out.  The candidate arrays grow as len(ma) * len(mb), gigabytes for
    a full rank-14 product, so a's terms go in blocks of _MAX_PAIRS."""
    t = _sign_mask(rank)
    step = max(1, _MAX_PAIRS // mb.size)
    for lo in range(0, ma.size, step):
        r, c = ((ma[lo : lo + step, None] & mb) == 0).nonzero()
        if r.size == 0:
            continue
        r += lo
        i, j = ma[r], mb[c]
        yield r, c, i ^ j, va[r] * vb[c] * _SIGNS[np.bitwise_count(t[i] & j) & 1]


def _terms(a):
    """Indices of the nonzero entries of a flat array (comparing first is
    several times faster than ndarray.nonzero on floats)."""
    return (a != 0).nonzero()[0]


def multiply_coeffs(a, b, rank):
    """Grassmann product of two dense coefficient vectors of length 2**rank."""
    ia = _terms(a)
    jb = _terms(b)
    if ia.size == 0 or jb.size == 0:
        return np.zeros(a.shape[0])
    # a body-only operand scales the other one
    if ia.size == 1 and ia[0] == 0:
        return a[0] * b
    if jb.size == 1 and jb[0] == 0:
        return b[0] * a
    out = np.zeros(a.shape[0])
    for _, _, mask, value in _pair_product(ia, a[ia], jb, b[jb], rank):
        out += np.bincount(mask, weights=value, minlength=a.shape[0])
    return out


def smul_coeffs(g, h, rank):
    """out[i, j] = sum_k SMUL_SIGNS[i, k, j] g[i, k] h[k, j] on (3, 3, 2**rank)
    arrays: the terms of g[:, k] and h[k] are paired per inner index k (which
    keeps the candidate arrays small), and all products land in out with
    one bincount."""
    n = g.shape[2]
    slots, weights = [], []
    for k in range(3):
        # flat term indices i n + a of g[:, k] and j n + b of h[k]
        gk, hk = g[:, k].reshape(-1), h[k].reshape(-1)
        tg, th = _terms(gk), _terms(hk)
        if tg.size == 0 or th.size == 0:
            continue
        for r, c, mask, value in _pair_product(tg & (n - 1), gk[tg], th & (n - 1), hk[th], rank):
            i, j = tg[r] >> rank, th[c] >> rank
            slots.append((3 * i + j) * n + mask)
            weights.append(value * SMUL_SIGNS[i, k, j])
    if not slots:
        return np.zeros(g.shape)
    out = np.bincount(np.concatenate(slots), weights=np.concatenate(weights), minlength=9 * n)
    return out.reshape(3, 3, n)
