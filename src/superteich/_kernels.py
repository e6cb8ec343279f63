"""Coefficient-level kernel for Grassmann arithmetic.

The product of two elements stored as dense coefficient vectors (index =
generator-subset bitmask) is an XOR-convolution with a sign given by the
parity of the transposition count needed to interleave the two sorted
generator lists.  Operands are nearly empty in practice, so the product
visits only pairs of nonzero coefficients, at every rank.
`multiply_coeffs` is the only entry point.
"""

import numpy as np

_SIGNS = np.array([1.0, -1.0])
_MAX_PAIRS = 1 << 20
_sign_masks = {}


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


def _pair_product(ia, jb, a, b, rank):
    """Product of the terms of a at ia with the terms of b at jb."""
    # pairs sharing a generator vanish
    r, c = ((ia[:, None] & jb) == 0).nonzero()
    if r.size == 0:
        return np.zeros(a.shape[0])  # bincount of nothing would come back as integers
    i, j = ia[r], jb[c]
    odd = np.bitwise_count(_sign_mask(rank)[i] & j) & 1
    return np.bincount(i ^ j, weights=a[i] * b[j] * _SIGNS[odd], minlength=a.shape[0])


def multiply_coeffs(a, b, rank):
    """Grassmann product of two dense coefficient vectors of length 2**rank."""
    ia = a.nonzero()[0]
    jb = b.nonzero()[0]
    if ia.size == 0 or jb.size == 0:
        return np.zeros(a.shape[0])
    # a body-only operand scales the other one
    if ia.size == 1 and ia[0] == 0:
        return a[0] * b
    if jb.size == 1 and jb[0] == 0:
        return b[0] * a
    # the pair arrays grow as nnz(a) * nnz(b), gigabytes for a full rank-14
    # product; take a's terms in blocks of about _MAX_PAIRS pairs
    step = max(1, _MAX_PAIRS // jb.size)
    if ia.size <= step:
        return _pair_product(ia, jb, a, b, rank)
    return sum(_pair_product(ia[k : k + step], jb, a, b, rank) for k in range(0, ia.size, step))
