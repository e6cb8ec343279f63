"""(2|1)x(2|1) supermatrices and the supergroup OSp(1|2).

Layout is fixed as rows (a b | alpha / c d | beta / gamma delta | f) with the
2x2 block and f even, the remaining entries odd, stored as one read-only
(3, 3, 2**rank) coefficient array, or (..., 3, 3, 2**rank) for a stack of
matrices: constructors, smul and the signed gathers broadcast over the
leading batch axes.  Products carry the signs of the super tensor
structure: smul is one sparse contraction, with the sign table
`_kernels.SMUL_SIGNS`.  The supertranspose is NOT an involution on odd
entries, st has order 4; it and inverse_osp only move and negate entries.

Membership: g is in OSp(1|2) when st(g) J g = J and sdet(g) = 1, where

    J = (0 1 0 / -1 0 0 / 0 0 -1)

and sdet uses the det(A + B D^-1 C) / det(D) convention (plus sign).
"""

import numpy as np

from . import _kernels
from .grassmann import (
    DEFAULT_RANK,
    EQ_TOL,
    GrassmannArray,
    GrassmannNumber,
    _popcount,
    common_rank,
    format_grassmann,
    grassmann,
    parse_grassmann,
    random_element,
    stack_entries,
)

# parity of each entry: the 2x2 block and f even, the rest odd
_SLOT_PARITY = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]])

# st(g)[i, j] = sign * g[j, i], as (source entry, sign) over the flat entries
_ST_SRC = [0, 3, 6, 1, 4, 7, 2, 5, 8]
_ST_SIGN = np.array([1, 1, 1, 1, 1, 1, -1, -1, 1.0])[:, None]
# J^-1 st(g) J = (d -b delta / -c a -gamma / -beta alpha f), J being a signed permutation
_INV_SRC = [4, 1, 7, 3, 0, 6, 5, 2, 8]
_INV_SIGN = np.array([1, -1, 1, -1, 1, -1, -1, 1, 1.0])[:, None]


def signed_gather(entries, src, sign):
    """entries[..., src, :] times sign, from a (..., E, n) array of flat
    entries to a new C-contiguous (..., 3, 3, n) array (the kernels read
    it flat, which would copy anything else)."""
    out = entries.take(src, axis=-2)
    out *= sign
    return out.reshape(entries.shape[:-2] + (3, 3, entries.shape[-1]))


def _flat(g):
    """The entries of g as a (..., 9, n) view."""
    return g.coeffs.reshape(g.coeffs.shape[:-3] + (9, -1))


class _Row:
    """Row i of a SuperMatrix: reads and writes go to the matrix."""

    __slots__ = ("_m", "_i")

    def __init__(self, m, i):
        self._m, self._i = m, i

    def __getitem__(self, j):
        return self._m[self._i, j]

    def __setitem__(self, j, value):
        self._m[self._i, j] = value

    def __iter__(self):
        return (self._m[self._i, j] for j in range(3))


class SuperMatrix(GrassmannArray):
    """3x3 matrix of GrassmannNumbers with the even|odd block layout, stored
    as one read-only (3, 3, 2**rank) coefficient array."""

    __slots__ = ()

    def __init__(self, rows, rank=None):
        flat = [e for row in rows for e in row]
        if len(flat) != 9:
            raise ValueError("SuperMatrix needs a 3x3 entry grid, got %d entries" % len(flat))
        rank, c = stack_entries(flat, rank)
        self._own(rank, c.reshape(c.shape[:-2] + (3, 3, -1)))

    __getitem__ = GrassmannArray._entry

    def __setitem__(self, ij, value):
        """Replace one entry; entries handed out before keep their values."""
        c = self.coeffs.copy()
        c[(Ellipsis, *ij, slice(None))] = stack_entries([value], self.rank)[1][..., 0, :]
        self._own(self.rank, c)

    @property
    def rows(self):
        return [_Row(self, i) for i in range(3)]

    def scale(self):
        return float(np.max(np.abs(self.coeffs)))

    def parity_violation(self):
        """Largest coefficient sitting in the wrong parity sector of any entry."""
        wrong = _SLOT_PARITY[:, :, None] != (_popcount(self.rank) & 1)
        return float(np.max(np.abs(self.coeffs), where=wrong, initial=0.0))

    def __str__(self):
        return format_supermatrix(self)

    def __repr__(self):
        return "SuperMatrix(\n%s\n)" % format_supermatrix(self)


def smul(g, h):
    """Signed product: odd rows of g pick up a sign against the odd column of h.

    With blocks g = (A B / C D), h = (A' B' / C' D') (D the 1x1 corner):
    out = (AA' - BC', AB' + BD' / CA' + DC', DD' - CB').
    """
    if g.rank != h.rank:
        raise ValueError("rank mismatch")
    return SuperMatrix.wrap(g.rank, _kernels.smul_coeffs(g.coeffs, h.coeffs, g.rank))


def smul_many(*gs):
    """Product g1 * g2 * ... (left to right)."""
    out = gs[0]
    for g in gs[1:]:
        out = smul(out, g)
    return out


def supertranspose(g):
    """(a c gamma / b d delta / -alpha -beta f)."""
    return SuperMatrix.wrap(g.rank, signed_gather(_flat(g), _ST_SRC, _ST_SIGN))


def sdet(g):
    """Superdeterminant with the det(A + B D^-1 C)/det(D) convention."""
    r = g.rows
    finv = r[2][2].inverse()
    m00 = r[0][0] + r[0][2] * finv * r[2][0]
    m01 = r[0][1] + r[0][2] * finv * r[2][1]
    m10 = r[1][0] + r[1][2] * finv * r[2][0]
    m11 = r[1][1] + r[1][2] * finv * r[2][1]
    return (m00 * m11 - m01 * m10) * finv


def j_matrix(rank=DEFAULT_RANK):
    return SuperMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, -1]], rank)


def j_inverse(rank=DEFAULT_RANK):
    return SuperMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]], rank)


def osp_residual(g):
    """Scale-free residual of the membership conditions (0 for exact members)."""
    rel = smul_many(supertranspose(g), j_matrix(g.rank), g)
    s = max(1.0, g.scale())
    worst = rel.max_coeff_diff(j_matrix(g.rank)) / (s * s)
    worst = max(worst, g.parity_violation() / s)
    if abs(g.coeffs[2, 2, 0]) < 1e-12:
        return max(worst, 1.0)
    worst = max(worst, (sdet(g) - 1).max_abs())
    return worst


def is_osp(g):
    """Membership, as `osp_residual` within EQ_TOL."""
    return osp_residual(g) <= EQ_TOL


def inverse_osp(g):
    """g^{-1} = J^{-1} st(g) J; valid for members."""
    return SuperMatrix.wrap(g.rank, signed_gather(_flat(g), _INV_SRC, _INV_SIGN))


def bosonic_reduction(g):
    """Bodies of the upper-left 2x2 block, as a numpy array (SL(2,R) for members)."""
    return g.coeffs[..., :2, :2, 0].copy()


# -- named elements ----------------------------------------------------------

def identity(rank=DEFAULT_RANK):
    return SuperMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], rank)


def fermionic_reflection(rank=DEFAULT_RANK):
    return SuperMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], rank)


def rotate90(rank=DEFAULT_RANK):
    return SuperMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], rank)


def diag(p, q, rank=None):
    """diag(p, q, 1); a member when pq = 1."""
    return SuperMatrix([[p, 0, 0], [0, q, 0], [0, 0, 1]], rank)


def sl2_embed(m, rank=DEFAULT_RANK):
    """Embed a real 2x2 matrix of determinant 1 into the bosonic subgroup."""
    return SuperMatrix([[m[0][0], m[0][1], 0], [m[1][0], m[1][1], 0], [0, 0, 1]], rank)


def lower_shear(c, rank=DEFAULT_RANK):
    return SuperMatrix([[1, 0, 0], [c, 1, 0], [0, 0, 1]], rank)


def upper_shear(b, rank=DEFAULT_RANK):
    return SuperMatrix([[1, b, 0], [0, 1, 0], [0, 0, 1]], rank)


def stabilizer(c, beta, theta, rank=None):
    """Two-parameter family (plus the fixed fermion theta) fixing e_theta.

    Rows: (1 + c theta beta, theta beta, -c theta /
           c, 1 + c theta beta, beta /
           beta + c^2 theta, c theta, 1 + c beta theta).
    """
    rank = common_rank((c, beta, theta), rank)
    c, beta, theta = (grassmann(v, rank) for v in (c, beta, theta))
    ctb = c * theta * beta
    return SuperMatrix(
        [
            [1 + ctb, theta * beta, -(c * theta)],
            [c, 1 + ctb, beta],
            [beta + c * c * theta, c * theta, 1 + c * beta * theta],
        ],
        rank,
    )


def random_osp(rng, rank=DEFAULT_RANK, blocks=2, odd_terms=2, scale=0.4):
    """Random member built by multiplying exact members (closure sampling)."""
    g = identity(rank)
    for _ in range(blocks):
        c = rng.normal(0.0, scale)
        beta = random_element(rng, rank, parity="odd", terms=odd_terms, scale=scale)
        b = rng.normal(0.0, scale)
        p = float(np.exp(rng.normal(0.0, scale)))
        k = int(rng.integers(0, 4))
        piece = smul_many(
            stabilizer(c, beta, GrassmannNumber(rank)),
            upper_shear(b, rank),
            diag(p, 1.0 / p, rank),
        )
        for _ in range(k):
            piece = smul(piece, rotate90(rank))
        g = smul(g, piece)
    return g


# -- serialization -----------------------------------------------------------

def format_supermatrix(g):
    return "\n".join(
        " | ".join(format_grassmann(g[i, j]) for j in range(3)) for i in range(3)
    )


def parse_supermatrix(text, rank=DEFAULT_RANK):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 3:
        raise ValueError("SuperMatrix text must have exactly 3 nonempty lines, got %d" % len(lines))
    rows = []
    for ln in lines:
        cells = ln.split("|")
        if len(cells) != 3:
            raise ValueError("SuperMatrix line %r has %d '|'-separated entries, not 3" % (ln, len(cells)))
        rows.append([parse_grassmann(cell, rank) for cell in cells])
    return SuperMatrix(rows, rank)
