"""Finite-rank Grassmann (exterior) algebra over the reals.

An element of the rank-N algebra is stored as a dense vector of 2**N real
coefficients, one per subset of the generators; bit k of the index encodes
generator k+1.  The empty subset's coefficient is the body, everything else
is the soul.  Odd generators anticommute and square to zero, so the soul is
nilpotent, and inverse, sqrt and rsqrt are one finite binomial series,
x**alpha for alpha = -1, 1/2 and -1/2.

All public arithmetic rejects mixed ranks instead of promoting.  Equality is
coefficientwise within EQ_TOL, because the downstream geometry forces
irrational coefficients like sqrt(2).  The package writes that tolerance
once, here: `==`, the parity tests and `canonicalize_sign` read it, and so
do `superlinalg.is_osp`, `minkowski.mu_invariant`, the chart comparisons
of `decorated` and the default degeneracy thresholds of `minkowski`.
`isclose` and `is_zero` default to it and take another value for a single
comparison.

A GrassmannNumber may also hold a stack of elements: leading (batch) axes in
front of the coefficient axis.  Arithmetic broadcasts over them, `body` is
then an array with the batch shape, and the series runs once for the
whole stack.  GrassmannArray types (supermatrices, points) take a batch
the same way, in front of their entry axes; `stack` builds one from a list.
"""

import re

import numpy as np

from . import _kernels

DEFAULT_RANK = 8

# the package's one coefficient tolerance (see the module docstring)
EQ_TOL = 1e-9

_popcounts = {}


def _popcount(rank):
    pc = _popcounts.get(rank)
    if pc is None:
        pc = np.bitwise_count(np.arange(1 << rank, dtype=np.int64)).astype(np.int64)
        _popcounts[rank] = pc
    return pc


def _generator_bit(i, rank):
    """The coefficient-index bit of generator i (1-based) at the given rank;
    an index outside 1..rank is rejected, named."""
    if not 1 <= i <= rank:
        raise ValueError("generator index %r out of range 1..%d" % (i, rank))
    return 1 << (i - 1)


class GrassmannNumber:
    """Element of the rank-N real Grassmann algebra."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank, coeffs=None):
        if not (isinstance(rank, (int, np.integer)) and rank >= 1):
            raise ValueError("rank must be a positive integer, got %r" % (rank,))
        self.rank = int(rank)
        n = 1 << self.rank
        if coeffs is None:
            self.coeffs = np.zeros(n)
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.ndim == 0 or c.shape[-1] != n:
                raise ValueError("coefficient vector must have length 2**rank = %d, got shape %r" % (n, c.shape))
            self.coeffs = c.copy()

    @classmethod
    def wrap(cls, rank, coeffs):
        """Element (or stack, for leading axes) over a float array with
        2**rank columns, taken without a copy."""
        g = cls.__new__(cls)
        g.rank = rank
        g.coeffs = coeffs
        return g

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value, rank=DEFAULT_RANK):
        g = GrassmannNumber(rank)
        g.coeffs[0] = float(value)
        return g

    @staticmethod
    def generator(i, rank=DEFAULT_RANK):
        """The i-th odd generator, 1-based."""
        g = GrassmannNumber(rank)
        g.coeffs[_generator_bit(i, rank)] = 1.0
        return g

    @staticmethod
    def monomial(indices, coeff=1.0, rank=DEFAULT_RANK):
        """coeff * product of generators with the given 1-based indices."""
        mask = 0
        for i in indices:
            bit = _generator_bit(i, rank)
            if mask & bit:
                raise ValueError("repeated generator index %d" % i)
            mask |= bit
        g = GrassmannNumber(rank)
        g.coeffs[mask] = float(coeff)
        return g

    # -- structure ---------------------------------------------------------

    @property
    def body(self):
        """The body: a float, or an array with the batch shape of a stack."""
        b = self.coeffs[..., 0]
        return float(b) if b.ndim == 0 else b

    def soul(self):
        g = GrassmannNumber(self.rank, self.coeffs)
        g.coeffs[..., 0] = 0.0
        return g

    def even_part(self):
        return GrassmannNumber.wrap(self.rank, np.where(_popcount(self.rank) & 1, 0.0, self.coeffs))

    def odd_part(self):
        return GrassmannNumber.wrap(self.rank, np.where(_popcount(self.rank) & 1, self.coeffs, 0.0))

    def parity(self):
        """'even', 'odd' or 'mixed', ignoring coefficients within EQ_TOL of
        zero; the zero element counts as even."""
        pc = _popcount(self.rank)
        has_even = np.any(np.abs(self.coeffs[..., (pc & 1) == 0]) > EQ_TOL)
        has_odd = np.any(np.abs(self.coeffs[..., (pc & 1) == 1]) > EQ_TOL)
        if has_even and has_odd:
            return "mixed"
        if has_odd:
            return "odd"
        return "even"

    def is_even(self):
        """Whether every odd coefficient is within EQ_TOL of zero."""
        return not np.any(np.abs(self.odd_part().coeffs) > EQ_TOL)

    def is_odd(self):
        """Whether every even coefficient is within EQ_TOL of zero."""
        return not np.any(np.abs(self.even_part().coeffs) > EQ_TOL)

    def extract_coefficient(self, indices):
        """Coefficient of the monomial on the given 1-based generator set."""
        mask = 0
        for i in indices:
            mask |= _generator_bit(i, self.rank)
        return float(self.coeffs[mask])

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol=EQ_TOL):
        return not np.any(np.abs(self.coeffs) > tol)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GrassmannNumber):
            if other.rank != self.rank:
                raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber.scalar(float(other), self.rank)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GrassmannNumber.wrap(self.rank, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GrassmannNumber.wrap(self.rank, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GrassmannNumber.wrap(self.rank, o.coeffs - self.coeffs)

    def __neg__(self):
        return GrassmannNumber.wrap(self.rank, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber.wrap(self.rank, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GrassmannNumber.wrap(
            self.rank, _kernels.multiply_coeffs(self.coeffs, o.coeffs, self.rank)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber.wrap(self.rank, self.coeffs * float(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = GrassmannNumber.scalar(1.0, self.rank)
        for _ in range(int(n)):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return bool(np.all(np.abs(self.coeffs - o.coeffs) <= EQ_TOL))

    __hash__ = None

    def isclose(self, other, tol=EQ_TOL):
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot compare with %r" % (other,))
        return bool(np.all(np.abs(self.coeffs - o.coeffs) <= tol))

    # -- powers: inverse, sqrt, rsqrt --------------------------------------

    def _power_series(self, alpha):
        """x**alpha = b**alpha sum_k C(alpha, k) n**k, for x = b (1 + n) with
        body b and nilpotent n, on the coefficient arrays.  The sum starts at
        the k = 1 term, so the first product is n n, grows in place, and
        stops at the first power of n that vanishes for every element of a
        stack; b**alpha must be real (the callers check the body).

        The terms of n are found once per series, and each power's terms
        by the one scan that tests it for zero: every step is one scan and
        one `_kernels.product` of the power's terms with n's, keyed on the
        batch element for a stack of more than one."""
        b = self.coeffs[..., :1]
        n = self.coeffs / b
        n[..., 0] = 0.0
        out = n * alpha
        out[..., 0] = 1.0
        flat = n.reshape(-1)
        tn = _kernels.terms(flat)
        vn, keyed = flat[tn], flat.size > 1 << self.rank
        term, tt, c = flat, tn, alpha
        for k in range(2, self.rank + 1):
            term = _kernels.product(tt, term[tt], tn, vn, self.rank, keyed, flat.size)
            tt = _kernels.terms(term)
            if not tt.size:
                break
            c *= (alpha - (k - 1)) / k  # C(alpha, k), recursively
            out += term.reshape(out.shape) * c
        out *= b**alpha
        return GrassmannNumber.wrap(self.rank, out)

    def _even_root_check(self, name):
        if not self.is_even():
            raise ValueError("%s requires an even element" % name)
        if np.any(self.coeffs[..., 0] <= 0.0):
            raise ValueError("%s requires positive body" % name)

    def inverse(self):
        if np.any(self.coeffs[..., 0] == 0.0):
            raise ZeroDivisionError("Grassmann element with zero body is not invertible")
        return self._power_series(-1.0)

    def sqrt(self):
        """Square root with positive body; requires an even element, body > 0."""
        self._even_root_check("sqrt")
        return self._power_series(0.5)

    def rsqrt(self):
        """1/sqrt(x) with positive body, in one series; the domain of sqrt."""
        self._even_root_check("rsqrt")
        return self._power_series(-0.5)

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return format_grassmann(self)

    def __repr__(self):
        return "GrassmannNumber(rank=%d, %s)" % (self.rank, format_grassmann(self))


class GrassmannArray:
    """Fixed-shape array of elements in one read-only float array `coeffs`
    (last axis: the 2**rank coefficients, before it the entry axes, and
    before those any batch axes); entries are read-only views."""

    __slots__ = ("rank", "coeffs")

    @classmethod
    def wrap(cls, rank, coeffs):
        """Instance over coeffs, taken without a copy and made read-only."""
        out = cls.__new__(cls)
        out._own(rank, coeffs)
        return out

    def _own(self, rank, coeffs):
        coeffs.flags.writeable = False
        self.rank = rank
        self.coeffs = coeffs

    def _entry(self, index):
        """Entry at index (an int or a tuple over the entry axes), over the
        whole batch."""
        if not isinstance(index, tuple):
            index = (index,)
        return GrassmannNumber.wrap(self.rank, self.coeffs[(Ellipsis, *index, slice(None))])

    def _other(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
        return other.coeffs

    def isclose(self, other, tol=EQ_TOL):
        return bool(np.all(np.abs(self.coeffs - self._other(other)) <= tol))

    def max_coeff_diff(self, other):
        return float(np.max(np.abs(self.coeffs - self._other(other))))


def stack_entries(values, rank=None):
    """(common_rank(values, rank), one coefficient row per value).

    A value is a GrassmannNumber, or a real number or array taken as a body;
    their batch shapes broadcast, and the rows sit on the axis in front of
    the coefficients."""
    rank = common_rank(values, rank)
    shapes = {v.coeffs.shape[:-1] if isinstance(v, GrassmannNumber) else np.shape(v) for v in values}
    batch = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    c = np.zeros(batch + (len(values), 1 << rank))
    for k, v in enumerate(values):
        if isinstance(v, GrassmannNumber):
            c[..., k, :] = v.coeffs
        else:
            c[..., k, 0] = v
    return rank, c


def stack(values):
    """Stack of elements, or of arrays of one type, of one rank: the list
    index is the new leading batch axis, and their own batch axes broadcast."""
    ranks = {v.rank for v in values}
    if len(ranks) > 1:
        raise ValueError("rank mismatch: %s" % sorted(ranks))
    coeffs = [v.coeffs for v in values]
    if len({c.shape for c in coeffs}) > 1:
        coeffs = np.broadcast_arrays(*coeffs)
    return type(values[0]).wrap(ranks.pop(), np.stack(coeffs))


def common_rank(values, rank=None):
    """The rank of the GrassmannNumbers among values, and of rank if given;
    DEFAULT_RANK when there is neither.  Mixed ranks raise ValueError."""
    ranks = {v.rank for v in values if isinstance(v, GrassmannNumber)}
    if rank is not None:
        ranks.add(rank)
    if len(ranks) > 1:
        raise ValueError("rank mismatch: %s" % sorted(ranks))
    return ranks.pop() if ranks else DEFAULT_RANK


def grassmann(value, rank=DEFAULT_RANK):
    """Coerce a real number or GrassmannNumber to a GrassmannNumber."""
    if isinstance(value, GrassmannNumber):
        return value
    return GrassmannNumber.scalar(float(value), rank)


def odd_derivative(a, i):
    """Left derivative with respect to generator i (1-based): each monomial
    containing g_i loses it, signed by the generators written before it.
    One signed gather over the coefficient axis, so a may be a stack."""
    bit = _generator_bit(i, a.rank)
    idx = np.arange(1 << a.rank)
    sign = np.where(idx & bit, 0.0, 1.0 - 2.0 * (_popcount(a.rank)[idx & (bit - 1)] & 1))
    # + 0.0 turns the -0.0 of -1.0 * 0.0 (no monomial lands there) and of
    # c * 0.0 (c < 0, a monomial without g_i) into 0.0
    return GrassmannNumber.wrap(a.rank, a.coeffs[..., idx | bit] * sign + 0.0)


def canonicalize_sign(a):
    """Canonical representative of {a, -a}: first significant coefficient in
    bitmask order made positive.  Returns (representative, sign) with
    a = sign * representative; sign is +1.0 for (near-)zero input.

    a may be a stack: its coefficients are read in `coeffs.flat` order
    (element by element, each in bitmask order), and one sign serves the
    whole stack.  A coefficient is significant above EQ_TOL times
    max(1, the largest coefficient of the whole stack), so that roundoff
    junk below real terms never decides the sign."""
    thresh = EQ_TOL * max(1.0, a.max_abs())
    first = np.flatnonzero(np.abs(a.coeffs) > thresh)
    if first.size and a.coeffs.flat[first[0]] < 0:
        return -a, -1.0
    return a, 1.0


# -- serialization ----------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[0-9.eE+-]+)\s*\*\s*)?g\{(?P<idx>[0-9,\s]*)\}\s*$"
)


def format_grassmann(a, precision=None):
    """`c` for the body, `c*g{i,j}` for soul terms, joined by ' + ' / ' - '.
    A stack is formatted element by element in batch order, in brackets
    that nest like its batch axes: `[c1, c2]`."""
    if a.coeffs.ndim > 1:
        rows = (format_grassmann(GrassmannNumber.wrap(a.rank, c), precision) for c in a.coeffs)
        return "[%s]" % ", ".join(rows)
    parts = []
    fmt = (lambda v: repr(float(v))) if precision is None else (lambda v: "%.*g" % (precision, v))
    for mask in range(1 << a.rank):
        c = a.coeffs[mask]
        if c == 0.0:
            continue
        if mask == 0:
            term = fmt(abs(c))
        else:
            idx = [str(k + 1) for k in range(a.rank) if mask >> k & 1]
            term = "%s*g{%s}" % (fmt(abs(c)), ",".join(idx))
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    if not parts:
        return "0"
    return " ".join(parts)


def parse_grassmann(text, rank=DEFAULT_RANK):
    g = GrassmannNumber(rank)
    s = text.strip()
    if not s:
        raise ValueError("empty Grassmann literal %r" % text)
    # split into signed terms; the lookbehind keeps exponents like 1e-05 intact
    pieces = re.split(r"(?<![eE])([+-])", s)
    terms = []
    if pieces[0].strip():
        terms.append((1.0, pieces[0].strip()))
    for k in range(1, len(pieces) - 1, 2):
        tok = pieces[k + 1].strip()
        if not tok:
            raise ValueError("dangling sign in %r" % text)
        terms.append((-1.0 if pieces[k] == "-" else 1.0, tok))
    for sign, t in terms:
        if "g{" not in t:
            g.coeffs[0] += sign * float(t)
            continue
        m = _TERM_RE.match(t)
        if m is None:
            raise ValueError("bad Grassmann term: %r" % t)
        coeff = float(m.group("coeff")) if m.group("coeff") else 1.0
        mask = 0
        idx = m.group("idx").strip()
        if idx:
            for tok in idx.split(","):
                bit = _generator_bit(int(tok), rank)
                if mask & bit:
                    raise ValueError("repeated generator index in %r" % t)
                mask |= bit
        g.coeffs[mask] += sign * coeff
    return g


# -- sampling ----------------------------------------------------------------

def random_element(rng, rank=DEFAULT_RANK, parity=None, terms=6, scale=1.0, body=None):
    """Random element for tests: `terms` monomials with N(0, scale) coefficients.

    parity: None for mixed, 'even'/'odd' to restrict subset cardinalities.
    body: if given, the empty-subset coefficient is forced to this value.
    """
    n = 1 << rank
    pc = _popcount(rank)
    if parity == "even":
        pool = np.nonzero((pc & 1) == 0)[0]
    elif parity == "odd":
        pool = np.nonzero((pc & 1) == 1)[0]
    else:
        pool = np.arange(n)
    g = GrassmannNumber(rank)
    take = min(terms, pool.size)
    for mask in rng.choice(pool, size=take, replace=False):
        g.coeffs[mask] = rng.normal(0.0, scale)
    if body is not None:
        g.coeffs[0] = body
    return g
