"""Reference Grassmann arithmetic for the benchmark's output checks.

Written apart from `superteich._kernels` and `superteich.grassmann` so that a
product kernel that is consistently wrong cannot confirm its own outputs.
Values are coefficient arrays of length 2**rank (bit k of an index is the
generator g_{k+1}, as in the library's storage); points of R^{2,1|2} are
5-tuples (x1, x2, y, phi, theta) of such arrays.

The product walks the nonzero pairs in plain Python and signs each term by
moving the generators of the right factor, one at a time, leftwards past the
larger generators of the left factor.
"""

import math

import numpy as np


def _reorder_sign(left, right):
    """Sign of g_left * g_right once written with increasing generators."""
    swaps = 0
    rest = right
    while rest:
        low = rest & -rest
        swaps += bin(left & ~((low << 1) - 1)).count("1")
        rest ^= low
    return -1.0 if swaps & 1 else 1.0


def mul(a, b):
    """Grassmann product of two coefficient arrays."""
    out = np.zeros(len(a))
    bj = [(int(j), float(b[j])) for j in np.flatnonzero(b)]
    for i in np.flatnonzero(a):
        i = int(i)
        ai = float(a[i])
        for j, bv in bj:
            if i & j == 0:
                out[i | j] += _reorder_sign(i, j) * ai * bv
    return out


def scalar(value, rank):
    out = np.zeros(1 << rank)
    out[0] = value
    return out


def generator(i, rank):
    """The odd generator g_i, 1-based."""
    out = np.zeros(1 << rank)
    out[1 << (i - 1)] = 1.0
    return out


def _soul_series(x, coefficients):
    """sum_k c_k n^k for n = soul(x)/body(x); stops once n^k vanishes."""
    body = float(x[0])
    n = x / body
    n[0] = 0.0
    out = scalar(1.0, len(x).bit_length() - 1)
    term = out.copy()
    for c in coefficients:
        term = mul(term, n)
        if not term.any():
            break
        out = out + c * term
    return out


def inverse(x):
    body = float(x[0])
    if body == 0.0:
        raise ZeroDivisionError("zero body")
    rank = len(x).bit_length() - 1
    return _soul_series(x, [(-1.0) ** k for k in range(1, rank + 1)]) / body


def sqrt(x):
    """Square root with positive body of an even element."""
    body = float(x[0])
    if body <= 0.0:
        raise ValueError("sqrt needs a positive body")
    rank = len(x).bit_length() - 1
    coefficients, c = [], 1.0
    for k in range(1, rank + 1):
        c *= (0.5 - (k - 1)) / k
        coefficients.append(c)
    return _soul_series(x, coefficients) * math.sqrt(body)


def pairing(p, q):
    """<P,Q> = (x1 x2' + x1' x2)/2 - y y' + phi theta' + phi' theta."""
    x1, x2, y, phi, theta = p
    u1, u2, v, psi, eta = q
    return (
        0.5 * (mul(x1, u2) + mul(u1, x2))
        - mul(y, v)
        + mul(phi, eta)
        + mul(psi, theta)
    )


def fermion_residual(p):
    """x1 theta - y phi (or x2 phi - y theta): the fermion label of a
    light-cone point times sqrt(x1) (or sqrt(x2)), zero exactly on the
    special light cone."""
    x1, x2, y, phi, theta = p
    if x1[0] >= x2[0]:
        return mul(x1, theta) - mul(y, phi)
    return mul(x2, phi) - mul(y, theta)


def spinor(p):
    """(u, v, xi) with p = (u^2, v^2, uv, u xi, v xi), up to overall sign.

    Every point of the special light cone is the square of such a spinor
    of R^{2|1}, the defining representation of OSp(1|2)."""
    x1, x2, y, phi, theta = p
    if x1[0] >= x2[0]:
        u = sqrt(x1)
        u_inv = inverse(u)
        return u, mul(y, u_inv), mul(phi, u_inv)
    v = sqrt(x2)
    v_inv = inverse(v)
    return mul(y, v_inv), v, mul(theta, v_inv)


def omega(s, t):
    """The OSp(1|2)-invariant form u v' - v u' + xi xi' on spinors;
    <P,Q> = omega(s,t)^2 / 2 for the squares P, Q of s, t."""
    return mul(s[0], t[1]) - mul(s[1], t[0]) + mul(s[2], t[2])


def triple_mu(p, q, r):
    """Odd invariant of a positive triple of special light-cone points, up
    to sign, from their spinors a, b, c.

    n = (n_u, n_v, 1) / sqrt(1 - 2 n_u n_v) is the unit vector of the odd
    direction that is omega-orthogonal to a and c (its entries n_u, n_v are
    odd, which turns the sign of their term in its square length), eta =
    omega(n, b) is the odd coordinate of b along it, and

        mu = eta omega(c,a) / sqrt(omega(a,b) omega(b,c) omega(c,a)).

    Each factor is invariant under OSp(1|2) up to the spinor signs.  In
    standard position (r(0,1,0,0,0), t(1,1,1,phi,phi), s(1,0,0,0,0)) the
    vector n is (0,0,1), eta = sqrt(t) phi and mu = phi."""
    a, b, c = spinor(p), spinor(q), spinor(r)
    rank = len(a[0]).bit_length() - 1
    det_inv = inverse(mul(a[0], c[1]) - mul(a[1], c[0]))
    n_u = mul(mul(a[2], c[0]) - mul(a[0], c[2]), det_inv)
    n_v = mul(mul(a[2], c[1]) - mul(a[1], c[2]), det_inv)
    norm = sqrt(scalar(1.0, rank) - 2.0 * mul(n_u, n_v))
    eta = mul(mul(n_u, b[1]) - mul(n_v, b[0]) + b[2], inverse(norm))
    wab, wbc, wca = omega(a, b), omega(b, c), omega(c, a)
    volume = mul(mul(wab, wbc), wca)
    if volume[0] <= 0.0:
        raise ValueError("triple is not positively oriented")
    return mul(mul(eta, wca), inverse(sqrt(volume)))
