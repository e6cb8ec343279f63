"""Super Minkowski space R^{2,1|2} and its OSp(1|2) orbit theory.

A point is A = (x1, x2, y, phi, theta) with the pairing

    <A,A'> = (x1 x2' + x1' x2)/2 - y y' + phi theta' + phi' theta,

so <A,A> = x1 x2 - y^2 + 2 phi theta.  A point is stored as one read-only
(5, 2**rank) coefficient array.  The group acts through the matrix form
M_A = (x1 y phi / y x2 theta / -phi -theta 0) by A -> st(g) M_A g, two
signed contractions of coefficient arrays (`_kernels.smul_coeffs`, with the
sign table `_kernels.SMUL_SIGNS`).  This is a right action: acting by g
then h equals acting by g*h.

Light cone: <A,A> = 0 with non-negative x1, x2 bodies.  The fermion label
(odd, defined up to sign) separates orbits; the label-zero orbit of
(1,0,0,0,0) is the special light cone, home of all decorated lifts.
lambda-lengths are square roots of pairings.  The mu-invariant of a positive
triple is the phi of its standard position

    A -> r(0,1,0,0,0),  B -> t(1,1,1,phi,phi),  C -> s(1,0,0,0,0).

Every special light-cone point is the square (u^2, v^2, uv, u xi, v xi) of
a spinor (u, v, xi) of R^{2|1}, the defining representation of OSp(1|2),
with invariant form omega(s,t) = u v' - v u' + xi xi' and
<A,B> = omega(a,b)^2 / 2; act(g, A) squares the row spinor a g.
mu_invariant and `_far_spinor` read the spinors and build no group element;
normalize_triple's element is the inverse of the frame of the three
spinors (`_spinor_frame`), whose rows are the spinors of the standard
basis carried to the triple.
With n the unit odd direction omega-orthogonal to a and c, and
eta = omega(n, b),

    mu = eta omega(c,a) / sqrt(omega(a,b) omega(b,c) omega(c,a)),

fixed up to the signs of the spinors.  Multiplied out (n_u n_v =
xi_a xi_c / d_ac, xi^2 = 0), with d_st = u_s v_t - v_s u_t, this is the
closed form, the same for each cyclic rotation of (a, b, c),

    mu = (xi_a d_bc + xi_b d_ca + xi_c d_ab + 2 xi_a xi_b xi_c)
         / sqrt(omega(a,b) omega(b,c) omega(c,a)),

which mu_invariant evaluates, reporting the sign of the value for the
order of the points given.

Where the spinors come from: `_spinor` finds and checks the spinor of a
point once (one rsqrt series) and stores it on the point, so a later
read does no work.  A lift takes no square root of a point it built: it
carries the spinor of every point, and `_far_spinor` builds the spinor d
of the next point from the spinors of a side (a, c) and the side factors
alpha, beta, kappa, as d = alpha c - beta a + kappa n; `_square` squares
it.  Its sheet of spinor signs is cut at x1 = x2, y > 0, through the
fermion corner t(1,1,1,phi,phi) of a standard triangle
(`decorated.lift`).  Spinors travel as (3, ..., 2**rank) arrays (u, v,
xi), so that one product of two such stacks makes a row of every spinor
of a lift level at once: a level is a handful of whole-stack products,
and the side factors, which depend only on the chart, are computed once
per lift for every (vertex, slot) (see `decorated.lift`).

mu_invariant keeps one product per term, of single elements, on purpose.
Every product takes the kernel's one path, but a single element's terms
carry no key, so they pair by one grid test at any size; stacked, the
same rank-12 terms of the ptolemy benchmark are keyed, pass the grid
bound and take the join, and the workload ran at 0.66 times its speed.

normalize_triple and mu_invariant check a triple by one rule on the
omegas of its spinors (`_require_positive`).
pairing, act, triple_orientation and basic_calculation take stacks,
(..., 5, 2**rank) arrays of points; a failed check names the first failing
element of a stack ("triple 1 is not ...", an ElementError).  Every test
against a tolerance reads EQ_TOL as a module global at call time.
"""

import numpy as np

from . import _kernels
from .grassmann import (
    EQ_TOL,
    GrassmannArray,
    GrassmannNumber,
    canonicalize_sign,
    common_rank,
    grassmann,
    format_grassmann,
    parse_grassmann,
    random_element,
    stack_entries,
)
from . import superlinalg as sl


class SuperVector(GrassmannArray):
    """Point of R^{2,1|2}: three even and two odd Grassmann coordinates, the
    rows x1, x2, y, phi, theta of one read-only (5, 2**rank) array, and its
    spinor once `_spinor` has found it."""

    __slots__ = ("_spinor_memo",)

    def __init__(self, x1, x2, y, phi, theta, rank=None):
        self._own(*stack_entries((x1, x2, y, phi, theta), rank))

    x1 = property(lambda self: self._entry(0))
    x2 = property(lambda self: self._entry(1))
    y = property(lambda self: self._entry(2))
    phi = property(lambda self: self._entry(3))
    theta = property(lambda self: self._entry(4))

    def components(self):
        return tuple(self._entry(k) for k in range(5))

    def __neg__(self):
        return SuperVector.wrap(self.rank, -self.coeffs)

    def body3(self):
        """Bosonic body (x1, x2, y) as a numpy vector (..., 3)."""
        return self.coeffs[..., :3, 0].copy()

    def __str__(self):
        return format_supervector(self)

    def __repr__(self):
        return "SuperVector%s" % format_supervector(self)


def e_theta(theta):
    return SuperVector(1, 0, 0, 0, theta)


def e_zero(rank):
    return e_theta(GrassmannNumber(rank))


def pairing(a, b):
    if a.rank != b.rank:
        raise ValueError("rank mismatch: %d vs %d" % (a.rank, b.rank))
    return (
        (a.x1 * b.x2 + b.x1 * a.x2) * 0.5
        - a.y * b.y
        + a.phi * b.theta
        + b.phi * a.theta
    )


# M_A as (source row, sign) per flat entry; the corner's sign is 0
_FORM_SRC = [0, 2, 3, 2, 1, 4, 3, 4, 0]
_FORM_SIGN = np.array([1, 1, 1, 1, 1, 1, -1, -1, 0.0])[:, None]
# act reads x1, x2, phi, theta (and y, from two entries) off st(g) M_A g
_ACT_SRC = [0, 4, 1, 2, 5]


def _matrix_form(a):
    """The symmetric matrix presentation M_A."""
    return sl.SuperMatrix.wrap(a.rank, sl.signed_gather(a.coeffs, _FORM_SRC, _FORM_SIGN))


def act(g, a):
    """Right action st(g) M_a g (two signed contractions), read back off
    the matrix form."""
    if g.rank != a.rank:
        raise ValueError("rank mismatch: %d vs %d" % (g.rank, a.rank))
    m = _kernels.smul_coeffs(sl.supertranspose(g).coeffs, _matrix_form(a).coeffs, a.rank)
    m = _kernels.smul_coeffs(m, g.coeffs, a.rank)
    out = m.reshape(m.shape[:-3] + (9, -1)).take(_ACT_SRC, axis=-2)
    out[..., 2, :] = (m[..., 0, 1, :] + m[..., 1, 0, :]) * 0.5
    return SuperVector.wrap(a.rank, out)


def is_light_cone(a):
    """Whether <a,a> vanishes and the x1, x2 bodies are non-negative, each
    within EQ_TOL."""
    if pairing(a, a).max_abs() > EQ_TOL:
        return False
    return a.x1.body >= -EQ_TOL and a.x2.body >= -EQ_TOL


def fermion_label(a):
    """Odd orbit invariant of a light-cone point, canonical up to sign, read
    off x1 when its body is above EQ_TOL, otherwise off x2.

    Returns (representative, sign); the raw value is sign * representative.
    """
    # x1^(1/2) theta - y x1^(-1/2) phi = x1^(-1/2) (x1 theta - y phi)
    if a.x1.body > EQ_TOL:
        raw = a.x1.rsqrt() * (a.x1 * a.theta - a.y * a.phi)
    elif a.x2.body > EQ_TOL:
        raw = a.x2.rsqrt() * (a.x2 * a.phi - a.y * a.theta)
    else:
        raise ValueError("fermion label needs an invertible x1 or x2")
    return canonicalize_sign(raw)


# -- standard position from spinors --------------------------------------------


class ElementError(ValueError):
    """A check failed on one element of a stack: `element` is its flat batch
    index, and `reason` the message that element alone would have raised."""

    def __init__(self, message, element, reason):
        super().__init__(message)
        self.element = element
        self.reason = reason


def _reject(bad, noun, message, *values):
    """Raise ValueError(message % (name, values...)) if bad holds for any
    batch element.  name is the noun; for a stack it is followed by the
    index of the first bad element, at which the values are then read, and
    the error is an ElementError."""
    if not np.any(bad):
        return
    if np.ndim(bad) == 0:
        raise ValueError(message % ((noun,) + values))
    k = int(np.flatnonzero(bad)[0])
    values = tuple(np.ravel(v)[k] for v in values)
    raise ElementError(message % (("%s %d" % (noun, k),) + values), k, message % ((noun,) + values))


def triple_orientation(a, b, c):
    """Determinant of the bosonic bodies; positive for a positive triple
    (an array over the batch of stacked triples)."""
    det = np.linalg.det(np.stack([a.body3(), b.body3(), c.body3()], axis=-2))
    return float(det) if det.ndim == 0 else det


def normalize_triple(a, b, c):
    """Standard position of a positive triple (a, b, c) of special light-cone
    points.

    Returns (g, r, s, t, phi) with act(g,a) = r(0,1,0,0,0),
    act(g,b) = t(1,1,1,phi,phi), act(g,c) = s(1,0,0,0,0): the spinors of
    the three points (`_spinor`) and their frame (`_spinor_frame`), which
    checks the triple (`_require_positive`).  Deterministic, so the other
    lift of the same triple is obtained by the fermionic reflection.
    """
    sa, sb, sc = (_spinor(p, position) for p, position in zip((a, b, c), _POSITIONS))
    return _spinor_frame(sa, sb, sc)


def _spinor_frame(sa, sb, sc):
    """normalize_triple's (g, r, s, t, phi) from the spinors (u, v, xi) of
    the triple's points, each signed as `_spinor` signs it.

    On the sheet of `_far_spinor` (c is sc negated where its u body is
    below its v body; a is sa signed so that omega(a, c) has a negative
    body) with b signed so that omega(c, b) has a positive body, the
    standard position has the
    spinors a = (0, sqrt r, 0), b = sqrt t (1, 1, phi), c = (sqrt s, 0, 0).
    With w_xy = omega(x, y), which the group keeps, and n the unit odd
    direction omega-orthogonal to a and c, this gives

        t = w_cb w_ba / w_ca,  s = w_ca w_cb / w_ba,  r = w_ba w_ca / w_cb,
        phi = omega(n, b) / sqrt t,

    and the frame F with the rows c / sqrt s, a / sqrt r and
    (-n_u, -n_v, 1 + n_u n_v), which carries the standard spinors to a, b
    and c (act(F, P) squares the row spinor of P times F); g = F^-1.

    The triple is checked (`_require_positive`) before any sign is chosen.

    c's sheet is read off its spinor, and is cut where u = v (x1 = x2,
    y > 0): there c's sign is a coin toss of rounding, and may differ from
    a sheet read off the point's x1 < x2, which negates phi and multiplies
    g by the fermionic reflection."""
    c = _signed(sc, -1.0 if sc[0].body < sc[1].body else 1.0)
    w_ac, w_cb, w_ba = _omega(sa, c), _omega(c, sb), _omega(sb, sa)
    # omega is antisymmetric, and c's sign enters the volume twice
    _require_positive(-w_ba.body, -w_cb.body, -w_ac.body)
    sign_a, sign_b = -np.sign(w_ac.body), np.sign(w_cb.body)
    a, b = _signed(sa, sign_a), _signed(sb, sign_b)
    w_ca, w_cb, w_ba = w_ac * -sign_a, w_cb * sign_b, w_ba * (sign_a * sign_b)
    t = w_cb * w_ba * w_ca.inverse()
    s = w_ca * w_cb * w_ba.inverse()
    r = w_ba * w_ca * w_cb.inverse()
    n_u, n_v, n_w = _odd_direction(a, c, -w_ca)
    s_rsqrt, r_rsqrt = s.rsqrt(), r.rsqrt()
    frame = sl.SuperMatrix([[x * s_rsqrt for x in c], [x * r_rsqrt for x in a], [-n_u, -n_v, n_w]])
    return sl.inverse_osp(frame), r, s, t, _omega((n_u, n_v, n_w), b) * t.rsqrt()


def _require_positive(w_ab, w_bc, w_ca):
    """The one test of a triple (a, b, c), on the bodies of the omegas of
    its spinors: each above EQ_TOL in size, or its pair is dependent, and
    the volume w_ab w_bc w_ca above 0.  Each spinor appears twice in the
    volume, so no sign of one changes it; for exact squares it is
    `triple_orientation`, and on normalize_triple's sheet it is t w_ca^2,
    so it makes t, r and s positive.  A test accepts only values above its
    bound, so a NaN fails it."""
    for w, pair in zip((w_ab, w_bc, w_ca), ("first and second", "second and third", "first and third")):
        _reject(~np.greater(np.abs(w), EQ_TOL), "triple", pair + " points of %s are linearly dependent")
    volume = w_ab * w_bc * w_ca
    _reject(~np.greater(volume, 0.0), "triple", "%s is not positively oriented (body determinant %g)", volume)


def _signed(spinor, sign):
    return [x * sign for x in spinor]


_POSITIONS = ("first", "second", "third")

# rows (x_piv, x_other, odd_piv, odd_other) of a point: (x1, x2, phi, theta)
# on the u = sqrt(x1) branch, (x2, x1, theta, phi) on the v = sqrt(x2) branch
_PIVOT_ROWS = np.array([[0, 1, 3, 4], [1, 0, 4, 3]])


def _spinor(p, position):
    """Spinor (u, v, xi) of R^{2|1} whose square (u^2, v^2, uv, u xi, v xi)
    is the special light-cone point p, up to overall sign: u = sqrt(x1) when
    x1's body is at least x2's, otherwise v = sqrt(x2), chosen per element of
    a stack, so the body of this pivot is positive.

    A point's spinor is found and checked once (`_find_spinor`), then stored
    on p, read-only; a later call reads it back and checks nothing.  A point
    that fails a check stores nothing, so every call rejects it again."""
    found = getattr(p, "_spinor_memo", None)
    if found is None:
        found = _find_spinor(p, position)
        for x in found:
            x.coeffs.flags.writeable = False
        p._spinor_memo = found
    return found


def _find_spinor(p, position):
    """`_spinor`'s value, worked out from the point by one rsqrt series of
    the pivot.  Rejects p, named by its position in the triple, when its x1
    and x2 bodies are within EQ_TOL of zero, and unless it is that square
    within 1e-7 of its scale."""
    x1, x2 = p.x1.body, p.x2.body
    _reject(np.maximum(x1, x2) <= EQ_TOL, "triple", position + " point of %s has zero body")
    turn = np.asarray(x1 < x2)
    # one gather over the flattened stack picks each element's rows
    rows = p.coeffs.reshape(-1, p.coeffs.shape[-1])
    picked = rows[_PIVOT_ROWS[turn.astype(int)] + 5 * np.arange(turn.size).reshape(turn.shape + (1,))]
    x_piv, x_other, odd_piv, odd_other = (GrassmannNumber.wrap(p.rank, picked[..., k, :]) for k in range(4))
    piv_inv = x_piv.rsqrt()
    piv = x_piv * piv_inv
    other, xi = p.y * piv_inv, odd_piv * piv_inv
    gap = np.maximum(
        np.abs((other * other - x_other).coeffs).max(axis=-1),
        np.abs((other * xi - odd_other).coeffs).max(axis=-1),
    )
    scale = np.abs(p.coeffs).max(axis=(-2, -1))
    _reject(
        ~(gap <= 1e-7 * scale), "triple",
        position + " point of %s is not on the special light cone (gap %.3g at scale %.3g)", gap, scale,
    )
    u = GrassmannNumber.wrap(p.rank, np.where(turn[..., None], other.coeffs, piv.coeffs))
    v = GrassmannNumber.wrap(p.rank, np.where(turn[..., None], piv.coeffs, other.coeffs))
    return u, v, xi


# u u, v v, u v, u xi, v xi: the rows of a spinor's square
_SQUARE_LEFT = [0, 1, 0, 0, 1]
_SQUARE_RIGHT = [0, 1, 1, 2, 2]


def _square(d, rank):
    """The special light-cone points (u^2, v^2, uv, u xi, v xi) of a stack
    d of spinors (u, v, xi), a (3, B, 2**rank) array, made by one product
    as a (B, 5, 2**rank) point stack."""
    rows = d.swapaxes(0, 1)
    return SuperVector.wrap(rank, _kernels.multiply_coeffs(rows[:, _SQUARE_LEFT], rows[:, _SQUARE_RIGHT], rank))


def _omega(s, t):
    """The OSp(1|2)-invariant form u v' - v u' + xi xi' on spinors; the
    squares P, Q of s, t pair to <P,Q> = omega(s,t)^2 / 2."""
    return s[0] * t[1] - s[1] * t[0] + s[2] * t[2]


def _odd_direction(p, r, w):
    """Unit spinor n = (n_u, n_v, 1 + n_u n_v) of the odd direction
    omega-orthogonal to the spinors p and r, given w = omega(p, r), whose
    body must be invertible (n_u, n_v are odd)."""
    # u v' - v u' on p, r
    pair_inv = (w - p[2] * r[2]).inverse()
    n_u = (p[2] * r[0] - p[0] * r[2]) * pair_inv
    n_v = (p[2] * r[1] - p[1] * r[2]) * pair_inv
    # 1/sqrt(1 - 2 n_u n_v) = 1 + n_u n_v, as (n_u n_v)^2 = 0; the factor
    # leaves n_u and n_v, whose squares vanish
    return n_u, n_v, 1 + n_u * n_v


def _in_byte_order(xs):
    """The Grassmann numbers xs sorted by the bytes of their coefficients,
    and the sign of that permutation: an order fixed by their values, so
    that a cyclic relabeling of a triple leaves every bit of a sum or
    product over it."""
    order = sorted(range(len(xs)), key=lambda k: xs[k].coeffs.tobytes())
    inversions = sum(i > j for n, i in enumerate(order) for j in order[n + 1 :])
    return [xs[k] for k in order], -1.0 if inversions % 2 else 1.0


def mu_invariant(a, b, c):
    """Odd invariant of a positive triple, canonical up to the sign gauge,
    read off the spinors (u_s, v_s, xi_s) of the three points (`_spinor`).
    With d_st = u_s v_t - v_s u_t and omega_st = d_st + xi_s xi_t,

        mu = (xi_a d_bc + xi_b d_ca + xi_c d_ab + 2 xi_a xi_b xi_c)
             / sqrt(omega_ab omega_bc omega_ca).

    Derivation: the unit odd direction omega-orthogonal to spinors p and r
    is n = (n_u, n_v, 1 + n_u n_v), with n_u n_v = xi_p xi_r / d_pr, so
    eta = omega(n, q) = (xi_p d_rq + xi_q d_pr + xi_r d_qp + xi_p xi_r xi_q)
    / d_pr.  The value eta omega_rp / sqrt(omega_pq omega_qr omega_rp) is
    invariant under OSp(1|2) up to the signs of the spinors, and is the phi
    of the middle point in standard position; as xi_s^2 = 0, multiplying
    out gives the expression above for each of the three rotations (p,q,r)
    of (a, b, c).  No odd direction is needed.

    The three xi d terms are summed, and the three omega and three xi
    multiplied, in the byte order of their values (the xi product times the
    sign of that order), so cyclic relabelings return the identical value.
    The triple is checked as normalize_triple checks it
    (`_require_positive`, after `_spinor`'s checks of each point).

    Returns (representative, sign) with the value sign * representative.
    The value is normalize_triple's phi times the signs that put the three
    spinors on its sheet (`_spinor_frame`), so the two may differ in sign;
    reflecting all three points flips both.
    """
    spinors = [_spinor(p, pos) for p, pos in zip((a, b, c), _POSITIONS)]
    # d and omega over the pairs (a,b), (b,c), (c,a), which a cyclic
    # relabeling permutes
    pairs = [(spinors[k], spinors[(k + 1) % 3]) for k in range(3)]
    dets = [s[0] * t[1] - s[1] * t[0] for s, t in pairs]
    omegas = [d + s[2] * t[2] for d, (s, t) in zip(dets, pairs)]
    _require_positive(*(w.body for w in omegas))
    (w0, w1, w2), _ = _in_byte_order(omegas)
    root_inv = (w0 * w1 * w2).rsqrt()
    # xi of each point times d of the opposite pair
    (t0, t1, t2), _ = _in_byte_order([spinors[k][2] * dets[(k + 1) % 3] for k in range(3)])
    (x0, x1, x2), sign = _in_byte_order([sp[2] for sp in spinors])
    return canonicalize_sign((t0 + t1 + t2 + x0 * x1 * x2 * (2.0 * sign)) * root_inv)


# -- quadrilateral moves -------------------------------------------------------


def basic_calculation(a, b, c, d, e, sigma):
    """Fourth point of a quadrilateral from five lambda-lengths and the odd
    invariant sigma of the far triangle, in the frame where the near triangle
    sits in standard position.  `_far_spinor` gives its world-frame form:
    the spinor of the same point put across a side of any positive triple,
    with no group element."""
    rank = common_rank((a, b, c, d, e, sigma))
    a, b, c, d, e, sigma = (grassmann(v, rank) for v in (a, b, c, d, e, sigma))
    chi = a * c * (d * b).inverse()
    k = np.sqrt(2.0) * c * d * e.inverse()
    # chi^(-1/2) gives chi^(-1), chi^(1/2) and itself from one series
    r = chi.rsqrt()
    return SuperVector(
        k * (r * r),
        k * chi,
        -k,
        k * r * sigma,
        -(k * (chi * r) * sigma),
    )


# rows of the side's spinors a and c multiplied pairwise: a_u c_v, a_v c_u
# and a_xi c_xi, whose signed sum is omega(a, c), then a_xi c_u, a_xi c_v,
# a_u c_xi and a_v c_xi, the numerators of the odd direction of a and c
_SIDE_A = [0, 1, 2, 2, 2, 0, 1]
_SIDE_C = [1, 0, 2, 0, 1, 2, 2]


def _far_spinor(sa, sc, factors, rank):
    """The spinor of basic_calculation's point D put across the side (a, c)
    of a positive triple, in the triple's own frame, for a stack of sides:

        d = alpha c - beta a + kappa n,

    with the side factors alpha = lam_d / lam_e, beta = lam_c / lam_e and
    kappa = sqrt(sqrt2 lam_c lam_d / lam_e) sigma, where <C,D> = lam_c^2,
    <A,D> = lam_d^2, <C,A> = lam_e^2 and sigma is the odd invariant of the
    far triangle, and n the unit odd direction omega-orthogonal to a and c.

    sa and sc are the spinors of the corners, (3, ..., 2**rank) arrays of
    (u, v, xi) over a batch of sides (a lift level's is (3, B, 2**rank)),
    each signed as `_spinor` signs it (its pivot's body positive), and
    factors the array (alpha, beta, kappa) of the same shape.
    On normalize_triple's sheet, c is sc negated where its u body is below
    its v body, and a is sa signed so that omega(a, c) has a negative body;
    n depends on neither sign.  The sheet takes the sign with u > v, so it
    is continuous along the circle of spinor lines but at u = v, where
    x1 = x2 and y > 0, as at a standard triangle's fermion corner
    t(1,1,1,phi,phi): there it jumps, taking u = v > 0 from the side of
    u > v.  Each step is one product over the whole stack: omega(a, c)
    with the numerators of n, then (after one inverse series) n_u and n_v,
    n_u n_v, and d.  The positive triple itself is not checked here:
    a lift's triples are positive by construction.  Rejects a and c that
    are dependent within EQ_TOL, naming the first failing element.

    Returns d signed as `_spinor` signs it, so a lift can carry it to the
    next level (the sign leaves its square unchanged)."""
    c = sc * np.where(sc[0, ..., :1] < sc[1, ..., :1], -1.0, 1.0)
    q = _kernels.multiply_coeffs(sa[_SIDE_A], c[_SIDE_C], rank)
    # u v' - v u', the body of omega(a, c), as xi_a xi_c has none
    det = q[0] - q[1]
    _reject(~(np.abs(det[..., 0]) > EQ_TOL), "triple", "first and third points of %s are linearly dependent")
    n = np.empty_like(sc)
    numerators = np.stack([q[3] - q[5], q[4] - q[6]])
    n[:2] = _kernels.multiply_coeffs(numerators, GrassmannNumber.wrap(rank, det).inverse().coeffs, rank)
    # n = (n_u, n_v, 1 + n_u n_v), as in _odd_direction
    n[2] = _kernels.multiply_coeffs(n[0], n[1], rank)
    n[2, ..., 0] += 1.0
    terms = np.stack([c, sa * np.sign(det[..., :1]), n])
    d = _kernels.multiply_coeffs(factors[:, None], terms, rank).sum(axis=0)
    pivot = np.where(np.abs(d[0, ..., :1]) < np.abs(d[1, ..., :1]), d[1, ..., :1], d[0, ..., :1])
    return d * np.where(pivot < 0, -1.0, 1.0)


def ptolemy_even(a, b, c, d, e, sigma, theta):
    """Flipped-diagonal lambda-length f with the odd correction term,

        e f = ac + bd + sigma theta sqrt(ac bd),

    which is (ac + bd)(1 + sigma theta sqrt(chi) / (1 + chi)), chi = ac / bd,
    as sqrt(chi) / (1 + chi) = sqrt(ac bd) / (ac + bd) for positive bodies:
    six products and two series.  Every argument may be a stack."""
    rank = common_rank((a, b, c, d, e, sigma, theta))
    a, b, c, d, e, sigma, theta = (
        grassmann(v, rank) for v in (a, b, c, d, e, sigma, theta)
    )
    return _ptolemy_even(a * c, b * d, e, sigma, theta)


def _ptolemy_even(ac, bd, e, sigma, theta):
    """`ptolemy_even` from the products ac and bd, which a flip also needs
    for its cross-ratio: Grassmann numbers of one rank, or stacks."""
    return (ac + bd + sigma * theta * (ac * bd).sqrt()) * e.inverse()


def ptolemy_odd(sigma, theta, chi):
    """Odd invariants (nu, mu) of the two triangles after the flip.  Each
    argument may be a stack; a cross-ratio without a positive body, NaN
    included, is rejected, naming the first such element of a stack."""
    _reject(~np.greater(chi.body, 0), "cross-ratio", "%s must have positive body")
    rootchi = chi.sqrt()
    denom = (1 + chi).rsqrt()
    nu = (theta * rootchi + sigma) * denom
    mu = (sigma * rootchi - theta) * denom
    return nu, mu


# -- sampling ------------------------------------------------------------------


def _cone_params(rng):
    u = rng.normal(0.0, 1.0)
    v = rng.normal(0.0, 1.0)
    u += np.sign(u or 1.0) * 0.3
    v += np.sign(v or 1.0) * 0.3
    return u, v


def random_special_point(rng, rank, odd_terms=2):
    """Direct sample: bodies on the cone, odd part with vanishing label."""
    u, v = _cone_params(rng)
    phi = random_element(rng, rank, parity="odd", terms=odd_terms)
    return SuperVector(
        grassmann(u * u, rank), grassmann(v * v, rank), grassmann(u * v, rank),
        phi, (v / u) * phi,
    )


def random_light_cone_point(rng, rank, odd_terms=2):
    """Direct sample: odd parts free, x1 corrected to keep the point isotropic."""
    u, v = _cone_params(rng)
    rho = random_element(rng, rank, parity="odd", terms=odd_terms)
    lam = random_element(rng, rank, parity="odd", terms=odd_terms)
    x1 = u * u - 2.0 / (v * v) * (rho * lam)
    return SuperVector(x1, grassmann(v * v, rank), grassmann(u * v, rank), rho, lam)


# -- serialization ---------------------------------------------------------------


def format_supervector(a):
    return "(%s)" % ", ".join(format_grassmann(v) for v in a.components())


def _split_top_level(s):
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_supervector(text, rank):
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("SuperVector text must be parenthesized")
    parts = _split_top_level(s[1:-1])
    if len(parts) != 5:
        raise ValueError("SuperVector text must have 5 components")
    return SuperVector(*(parse_grassmann(p, rank) for p in parts))
