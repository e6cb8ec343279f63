"""Super Minkowski points: pairing, action, standard position, Ptolemy moves."""

import numpy as np
import pytest

from superteich.grassmann import GrassmannNumber, canonicalize_sign, common_rank, grassmann, random_element, stack
from superteich import superlinalg as sl
from superteich import minkowski as mk
from test_grassmann import fourth_root

RANK = 8

ZERO = GrassmannNumber(RANK)
ONE = GrassmannNumber.scalar(1.0, RANK)
G1 = GrassmannNumber.generator(1, RANK)
G2 = GrassmannNumber.generator(2, RANK)
G3 = GrassmannNumber.generator(3, RANK)
G4 = GrassmannNumber.generator(4, RANK)


def rng(seed=7):
    return np.random.default_rng(seed)


def vec(x1, x2, y, phi=ZERO, theta=ZERO):
    return mk.SuperVector(
        grassmann(x1, RANK), grassmann(x2, RANK), grassmann(y, RANK),
        grassmann(phi, RANK), grassmann(theta, RANK),
    )


def r_slot(r):
    return vec(0.0, r, 0.0)


def s_slot(s):
    return vec(s, 0.0, 0.0)


def t_slot(t, phi):
    t = grassmann(t, RANK)
    return mk.SuperVector(t, t, t, t * phi, t * phi)


# standard triple (r-slot, t-slot, s-slot) is positively oriented
def standard_triple(r=1.3, s=0.8, t=1.7, phi=ZERO):
    return r_slot(r), t_slot(t, phi), s_slot(s)


class TestPairing:
    def test_basis_pair(self):
        assert mk.pairing(vec(1, 0, 0), vec(0, 1, 0)) == grassmann(0.5, RANK)

    def test_e_theta_isotropic(self):
        a = mk.e_theta(G1)
        assert mk.pairing(a, a).max_abs() < 1e-15

    def test_slot_pairing_is_half_product(self):
        r, s = 1.25, 0.6
        p = mk.pairing(r_slot(r), s_slot(s))
        assert abs(p.body - r * s / 2.0) < 1e-12 and p.soul().max_abs() == 0

    def test_symmetric(self):
        r = rng()
        a = mk.random_light_cone_point(r, RANK)
        b = mk.random_light_cone_point(r, RANK)
        assert mk.pairing(a, b).isclose(mk.pairing(b, a), 1e-12)

    def test_quadratic_form(self):
        a = vec(1.1, 0.4, 0.3, G1, G2)
        q = a.x1 * a.x2 - a.y * a.y + 2 * a.phi * a.theta
        assert mk.pairing(a, a).isclose(q, 1e-12)


class TestAction:
    def test_identity(self):
        a = vec(1.2, 0.3, -0.4, G1, G2)
        assert mk.act(sl.identity(RANK), a).isclose(a, 1e-15)

    def test_fermionic_reflection_flips_odd(self):
        a = vec(1.2, 0.3, -0.4, G1, G2)
        out = mk.act(sl.fermionic_reflection(RANK), a)
        assert out.isclose(vec(1.2, 0.3, -0.4, -G1, -G2), 1e-15)

    def test_pairing_invariance(self):
        r = rng(1)
        for _ in range(20):
            g = sl.random_osp(r, RANK, blocks=2)
            a = mk.random_light_cone_point(r, RANK)
            b = mk.random_special_point(r, RANK)
            lhs = mk.pairing(mk.act(g, a), mk.act(g, b))
            assert lhs.isclose(mk.pairing(a, b), 1e-9)

    def test_right_action_composition(self):
        r = rng(2)
        a = mk.random_light_cone_point(r, RANK)
        g = sl.random_osp(r, RANK, blocks=2)
        h = sl.random_osp(r, RANK, blocks=2)
        lhs = mk.act(h, mk.act(g, a))
        rhs = mk.act(sl.smul(g, h), a)
        assert lhs.max_coeff_diff(rhs) < 1e-12

    # expand act(g, e_theta) entrywise against the matrix coefficients
    def test_action_on_e_theta_componentwise(self):
        r = rng(3)
        g = sl.random_osp(r, RANK, blocks=2)
        (a, b, al), (c, d, be), (ga, de, f) = g.rows
        th = random_element(r, RANK, parity="odd", terms=2)
        out = mk.act(g, mk.e_theta(th))
        assert out.x1.isclose(a * a + 2 * ga * th * c, 1e-12)
        assert out.x2.isclose(b * b + 2 * de * th * d, 1e-12)
        assert out.y.isclose(a * b + ga * th * d - c * th * de, 1e-12)
        assert out.phi.isclose(a * al + ga * th * be + c * th * f, 1e-12)
        assert out.theta.isclose(b * al + de * th * be + d * th * f, 1e-12)

    def test_light_cone_preserved(self):
        r = rng(4)
        a = mk.random_light_cone_point(r, RANK)
        assert mk.is_light_cone(a)
        g = sl.random_osp(r, RANK, blocks=3)
        assert mk.is_light_cone(mk.act(g, a))


class TestFermionLabel:
    def test_e_theta_label(self):
        rep, sign = mk.fermion_label(mk.e_theta(0.7 * G1))
        assert (sign * rep).isclose(0.7 * G1, 1e-12)

    def test_special_orbit_label_zero(self):
        r = rng(5)
        for _ in range(10):
            g = sl.random_osp(r, RANK, blocks=2)
            rep, _ = mk.fermion_label(mk.act(g, mk.e_zero(RANK)))
            assert rep.max_abs() < 1e-10

    def test_label_orbit_invariant(self):
        r = rng(6)
        a = mk.random_light_cone_point(r, RANK)
        rep0, _ = mk.fermion_label(a)
        for _ in range(20):
            a = mk.act(sl.random_osp(r, RANK, blocks=1), a)
            rep, _ = mk.fermion_label(a)
            assert (rep - rep0).max_abs() < 1e-9

    def test_two_branches_agree(self):
        r = rng(7)
        a = mk.random_light_cone_point(r, RANK)
        raw1 = a.x1.sqrt() * a.theta - a.y * a.x1.sqrt().inverse() * a.phi
        raw2 = a.x2.sqrt() * a.phi - a.y * a.x2.sqrt().inverse() * a.theta
        assert min((raw1 - raw2).max_abs(), (raw1 + raw2).max_abs()) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            mk.fermion_label(vec(0, 0, 0, G1, G2))

    def test_x2_pivot_where_x1_has_no_body(self):
        """(-2 g1 g2, 1, 0, g1, g2) is on the light cone with a nilpotent
        x1, so its label is read off x2: phi - y theta = g1.  The same
        label comes off x1 once the group gives x1 a body."""
        a = vec(-2 * G1 * G2, 1, 0, G1, G2)
        assert mk.is_light_cone(a)
        rep, sign = mk.fermion_label(a)
        assert (sign * rep).isclose(G1, 1e-12)
        r = rng(8)
        for _ in range(5):
            moved = mk.act(sl.random_osp(r, RANK, blocks=2), a)
            assert moved.x1.body > 1e-3
            assert (mk.fermion_label(moved)[0] - rep).max_abs() < 1e-9


class TestRejections:
    def test_light_cone_test_fails_off_the_cone_and_below_it(self):
        assert not mk.is_light_cone(vec(1, 1, 0))
        assert not mk.is_light_cone(vec(1, 4, 2.5))
        # <a,a> = 1 - 1 = 0, but the bodies of x1 and x2 are negative
        assert not mk.is_light_cone(vec(-1, -1, 1))
        assert mk.is_light_cone(vec(1, 1, 1))

    def test_rank_mismatch_names_both_ranks(self):
        low = mk.SuperVector(1, 1, 1, 0, 0, rank=4)
        with pytest.raises(ValueError, match="^rank mismatch: 8 vs 4$"):
            mk.pairing(vec(1, 1, 1), low)
        with pytest.raises(ValueError, match="^rank mismatch: 4 vs 8$"):
            mk.act(sl.identity(4), vec(1, 1, 1))


# -- the step-by-step standard position: an oracle for the spinor frame -------


def gt(t, phi, psi, rank=None):
    """The normal-form transporter: maps t(1,1,1+phi psi, phi, psi) to e_theta.

    Rows: (0, -sqrt(t), 0 / 1/sqrt(t), sqrt(t)(1+phi psi), -psi / 0, sqrt(t) psi, 1).
    """
    rank = common_rank((t, phi, psi), rank)
    t, phi, psi = (grassmann(v, rank) for v in (t, phi, psi))
    r = t.rsqrt()
    rt = t * r
    return sl.SuperMatrix([[0, -rt, 0], [r, rt * (1 + phi * psi), -psi], [0, rt * psi, 1]], rank)


def normalize_point(a, tol=1e-9):
    """Group element g and odd theta with act(g, a) = (1,0,0,0,theta).

    Constructive: rotate x1/x2 if needed, shear y positive, equalize x1 = x2
    by a diagonal, finish with the t(1,1,1+phi psi,phi,psi) transporter.
    """
    rank = a.rank
    steps = []
    b = a
    if b.x1.body < b.x2.body:
        r = sl.rotate90(rank)
        steps.append(r)
        b = mk.act(r, b)
    mk._reject(b.x1.body <= tol, "light-cone point", "degenerate %s (zero body)")
    u = sl.upper_shear((1.0 + abs(b.y.body)) / b.x1.body, rank)
    steps.append(u)
    b = mk.act(u, b)
    p = fourth_root(b.x2 * b.x1.inverse())
    d = sl.diag(p, p.inverse())
    steps.append(d)
    b = mk.act(d, b)
    tinv = b.x1.inverse()
    steps.append(gt(b.x1, b.phi * tinv, b.theta * tinv))
    g = sl.smul_many(*steps)
    return g, mk.act(g, a).theta


def normalize_triple_chain(a, b, c):
    """normalize_triple as a chain of group elements, with its checks and
    messages: c to (1,0,0,0,0) by normalize_point, a onto the x2 axis by
    the stabilizer of c, then a diagonal equalizing the middle point's x1
    and x2, with the positive triple and the spinors of its points checked
    first.  Its tolerance is normalize_triple's, `minkowski.EQ_TOL`.
    Returns (g, r, s, t, phi) read off the acted points."""
    tol = mk.EQ_TOL
    det = mk.triple_orientation(a, b, c)
    mk._reject(det <= 1e-12, "triple", "%s is not positively oriented (body determinant %g)", det)
    for p, position in zip((a, b, c), mk._POSITIONS):
        mk._spinor(p, position)
    g1, _ = normalize_point(c, tol)
    a1 = mk.act(g1, a)
    mk._reject(abs(a1.x2.body) <= tol, "triple", "%s is not linearly independent")
    x2inv = a1.x2.inverse()
    g12 = sl.smul(g1, sl.stabilizer(-(a1.y * x2inv), -(x2inv * a1.theta), GrassmannNumber(a.rank)))
    b2 = mk.act(g12, b)
    mk._reject(
        (b2.x1.body <= tol) | (b2.x2.body <= tol),
        "triple", "middle point of %s degenerates under normalization",
    )
    p = fourth_root(b2.x2 * b2.x1.inverse())
    g = sl.smul(g12, sl.diag(p, p.inverse()))
    af, bf, cf = mk.act(g, a), mk.act(g, b), mk.act(g, c)
    mk._reject(bf.y.body <= 0, "triple", "%s is not positive (middle y-body %g)", bf.y.body)
    t = bf.x1
    return g, af.x2, cf.x1, t, bf.phi * t.inverse()


class TestNormalizePoint:
    def test_base_point(self):
        g, th = normalize_point(s_slot(1.0))
        assert th.max_abs() < 1e-12
        assert mk.act(g, s_slot(1.0)).isclose(mk.e_zero(RANK), 1e-12)

    # scale t = 1 leaves theta = psi - phi
    def test_unit_scale_transporter(self):
        a = mk.SuperVector(ONE, ONE, 1 + G1 * G2, G1, G2)
        assert mk.pairing(a, a).max_abs() < 1e-12
        _, th = normalize_point(a)
        assert th.isclose(G2 - G1, 1e-12)

    def test_random_special_points(self):
        r = rng(8)
        for _ in range(50):
            a = mk.random_special_point(r, RANK)
            g, th = normalize_point(a)
            assert th.max_abs() < 1e-9
            assert mk.act(g, a).max_coeff_diff(mk.e_theta(th)) < 1e-9

    def test_random_light_cone_points(self):
        r = rng(9)
        for _ in range(50):
            a = mk.random_light_cone_point(r, RANK)
            g, th = normalize_point(a)
            assert mk.act(g, a).max_coeff_diff(mk.e_theta(th)) < 1e-9

    def test_group_element_is_member(self):
        r = rng(10)
        g, _ = normalize_point(mk.random_light_cone_point(r, RANK))
        assert sl.is_osp(g)

    # normal form is unique up to the sign of theta
    def test_uniqueness_up_to_sign(self):
        r = rng(11)
        for _ in range(25):
            th = random_element(r, RANK, parity="odd", terms=2)
            g = sl.random_osp(r, RANK, blocks=2)
            _, tp = normalize_point(mk.act(g, mk.e_theta(th)))
            assert min((tp - th).max_abs(), (tp + th).max_abs()) < 1e-9

    def test_zero_body_rejected(self):
        with pytest.raises(ValueError):
            normalize_point(vec(0, 0, 0))


# the u of the middle spinor of the large "not_positive_at_scale" triple
B_LARGE = 100 + 5e-6


def rejected_triple(reason):
    """A triple normalize_triple rejects for the given reason, with the
    `minkowski.EQ_TOL` to reject it under: (a, b, c, tol)."""
    a, b, c = standard_triple(phi=G1)
    return {
        "negative": (c, b, a, 1e-9),
        # omega(c, a)^2 = r s = 1e-10
        "dependent": (r_slot(1e-5), b, s_slot(1e-5), 1e-9),
        # omega(c, b)^2 = s t = 1e-10, with every body above tol
        "degenerate": (a, t_slot(1e-3, G1), s_slot(1e-7), 1e-9),
        # spinors (1, 1), (1, y) and (1, -1) with y^2 = 1 + 5e-9: b's x2 is
        # 1e-8 below y^2, within the cone check's slack, which makes the
        # bodies' determinant positive while omega(b, a) = 1 - y is
        # negative; a tolerance below (1 - y)^2 lets it past the degeneracy
        # check
        "not_positive": (
            vec(1.0, 1.0, 1.0), vec(1.0, 1.0 - 5e-9, float(np.sqrt(1.0 + 5e-9))), vec(1.0, 1.0, -1.0), 1e-20,
        ),
        # spinors (100, 0), (100 + 5e-6, 100) and (100, 100), with b's x2
        # raised by 0.9e-7 of its scale, within the cone check's slack: the
        # bodies' determinant is 4e4, but omega(b, a) is negative, and at
        # this scale its ratio to omega(c, a) passes the degeneracy check
        "not_positive_at_scale": (
            vec(1e4, 0.0, 0.0), vec(B_LARGE**2, 1e4 + 0.9e-7 * B_LARGE**2, 100 * B_LARGE), vec(1e4, 1e4, 1e4), 1e-9,
        ),
        "zero_body": (vec(0.0, 0.0, -0.5), b, c, 1e-9),
        "off_cone": (a, b, vec(0.8, 0.0, 0.0, ZERO, 0.3 * G2), 1e-9),
    }[reason]


# normalize_triple's message for each reason it rejects a triple
TRIPLE_REJECTIONS = {
    "negative": r"triple is not positively oriented \(body determinant -",
    "dependent": "triple is not linearly independent",
    "degenerate": "middle point of triple degenerates under normalization",
    "not_positive": r"triple is not positive \(middle y-body -",
    "not_positive_at_scale": r"triple is not positive \(middle y-body -",
    "zero_body": "first point of triple has zero body",
    "off_cone": "third point of triple is not on the special light cone",
}


class TestNormalizeTriple:
    def test_standard_triple_fixed(self):
        a, b, c = standard_triple(phi=0.3 * G1)
        g, r, s, t, phi = mk.normalize_triple(a, b, c)
        assert abs(r.body - 1.3) < 1e-12 and abs(s.body - 0.8) < 1e-12
        assert abs(t.body - 1.7) < 1e-12
        assert phi.isclose(0.3 * G1, 1e-12)

    def test_slots_and_residuals(self):
        r0 = rng(14)
        a, b, c = standard_triple(phi=0.25 * G1 + 0.1 * G2 * G3 * G4)
        gmove = sl.random_osp(r0, RANK, blocks=3)
        a, b, c = mk.act(gmove, a), mk.act(gmove, b), mk.act(gmove, c)
        g, r, s, t, phi = mk.normalize_triple(a, b, c)
        assert mk.act(g, a).max_coeff_diff(
            mk.SuperVector(ZERO, r, ZERO, ZERO, ZERO)) < 1e-9
        assert mk.act(g, c).max_coeff_diff(
            mk.SuperVector(s, ZERO, ZERO, ZERO, ZERO)) < 1e-9
        assert mk.act(g, b).max_coeff_diff(
            mk.SuperVector(t, t, t, t * phi, t * phi)) < 1e-9

    # the normalization scales recover the lambda-lengths
    def test_scales_vs_lambda_lengths(self):
        r0 = rng(15)
        for _ in range(5):
            a, b, c = random_positive_triple(r0)
            g, r, s, t, phi = mk.normalize_triple(a, b, c)
            assert (r * t - 2 * mk.pairing(a, b)).max_abs() < 1e-10
            assert (t * s - 2 * mk.pairing(b, c)).max_abs() < 1e-10
            assert (r * s - 2 * mk.pairing(c, a)).max_abs() < 1e-10

    def test_reflection_flips_phi_only(self):
        r0 = rng(16)
        a, b, c = random_positive_triple(r0)
        g, r, s, t, phi = mk.normalize_triple(a, b, c)
        gr = sl.smul(g, sl.fermionic_reflection(RANK))
        out = mk.act(gr, b)
        assert out.max_coeff_diff(
            mk.SuperVector(t, t, t, -(t * phi), -(t * phi))) < 1e-9

    def test_negative_triple_rejected(self):
        a, b, c = standard_triple()
        with pytest.raises(ValueError):
            mk.normalize_triple(c, b, a)

    @pytest.mark.parametrize("reason", sorted(TRIPLE_REJECTIONS))
    def test_each_rejection_keeps_the_chains_message(self, reason, monkeypatch):
        """Each reason is named as the chain named it, and the chain rejects
        the same triple the same way.  The chain reads the middle point's
        y-body off the acted point, where it is the bodies' determinant
        over r s, so past the orientation check its positivity check is
        reached only through rounding; the frame reads it off the spinors,
        which may differ from the point by the cone check's slack.  That
        slack is relative, so at a large scale the frame rejects, at
        EQ_TOL, a triple that the chain normalizes."""
        *trip, tol = rejected_triple(reason)
        monkeypatch.setattr(mk, "EQ_TOL", tol)
        with pytest.raises(ValueError, match="^" + TRIPLE_REJECTIONS[reason]):
            mk.normalize_triple(*trip)
        if not reason.startswith("not_positive"):
            with pytest.raises(ValueError, match="^" + TRIPLE_REJECTIONS[reason]):
                normalize_triple_chain(*trip)

    def test_off_cone_middle_point_rejected(self):
        """A middle point t(1,1,1,phi,theta) with phi != theta is not the
        square of a spinor: it is named, not normalized."""
        a, _, c = standard_triple()
        t = grassmann(1.7, RANK)
        b = mk.SuperVector(t, t, t, t * G1, t * (G1 + 0.5 * G2))
        with pytest.raises(ValueError, match="^second point of triple is not on the special light cone"):
            mk.normalize_triple(a, b, c)


def random_positive_triple(r):
    """Random positive triple: move a standard one by a random member."""
    phi = random_element(r, RANK, parity="odd", terms=2)
    trip = standard_triple(
        r=float(np.exp(r.normal(0, 0.3))),
        s=float(np.exp(r.normal(0, 0.3))),
        t=float(np.exp(r.normal(0, 0.3))),
        phi=phi,
    )
    g = sl.random_osp(r, RANK, blocks=2)
    return tuple(mk.act(g, v) for v in trip)


def rotation_values(a, b, c):
    """Oracle for mu_invariant: the odd-direction value of mu for each of
    the cyclic rotations (a, b, c), (b, c, a) and (c, a, b).  For the
    rotation (p, q, r), n is the unit odd direction omega-orthogonal to the
    spinors p and r, eta = omega(n, q), and the value is
    eta omega(r, p) / sqrt(omega(p, q) omega(q, r) omega(r, p))."""
    spinors = [mk._spinor(p, pos) for p, pos in zip((a, b, c), mk._POSITIONS)]
    omegas = [mk._omega(spinors[k], spinors[(k + 1) % 3]) for k in range(3)]
    root_inv = (omegas[0] * omegas[1] * omegas[2]).sqrt().inverse()
    values = []
    for k in range(3):
        p, q, r = (spinors[(k + j) % 3] for j in range(3))
        w_rp = omegas[(k + 2) % 3]
        eta = mk._omega(mk._odd_direction(p, r, -w_rp), q)
        values.append(eta * w_rp * root_inv)
    return values


class TestMuInvariant:
    def test_standard_value(self):
        a, b, c = standard_triple(phi=G1)
        rep, sign = mk.mu_invariant(a, b, c)
        assert (sign * rep).isclose(G1, 1e-12)

    def test_cyclic_exact(self):
        r0 = rng(19)
        a, b, c = random_positive_triple(r0)
        r1, _ = mk.mu_invariant(a, b, c)
        r2, _ = mk.mu_invariant(b, c, a)
        r3, _ = mk.mu_invariant(c, a, b)
        assert np.array_equal(r1.coeffs, r2.coeffs)
        assert np.array_equal(r1.coeffs, r3.coeffs)

    @pytest.mark.parametrize("seed", [19, 24, 36])
    def test_matches_the_all_columns_sort(self, seed):
        """The closed form equals, to 1e-12 of its scale, the average of the
        sign-aligned oracle values of the three cyclic rotations, sorted on
        all 2**rank columns."""
        a, b, c = random_positive_triple(rng(seed))
        for trip in ((a, b, c), (b, c, a), (c, a, b)):
            reps = [canonicalize_sign(v)[0] for v in rotation_values(*trip)]
            reps.sort(key=lambda r: tuple(r.coeffs))
            want = (reps[0] + reps[1] + reps[2]) * (1.0 / 3.0)
            rep = mk.mu_invariant(*trip)[0]
            assert (rep - want).max_abs() <= 1e-12 * max(1.0, want.max_abs())

    def test_rejects_disagreeing_rotations(self, monkeypatch):
        """A formula error that parts the closed form from the odd-direction
        value of the rotation (a, b, c) is caught."""
        a, b, c = random_positive_triple(rng(25))
        real = mk._odd_direction

        def skewed(*args):
            n_u, n_v, n_w = real(*args)
            return n_u + 1e-6 * G1, n_v, n_w

        monkeypatch.setattr(mk, "_odd_direction", skewed)
        with pytest.raises(ValueError, match="^closed form of the triple's invariant disagrees"):
            mk.mu_invariant(a, b, c)

    def test_reflection_flips_sign(self):
        a, b, c = standard_triple(phi=G1)
        refl = lambda v: mk.SuperVector(v.x1, v.x2, v.y, -v.phi, -v.theta)
        rep, sign = mk.mu_invariant(a, b, c)
        rep2, sign2 = mk.mu_invariant(refl(a), refl(b), refl(c))
        assert (sign * rep + sign2 * rep2).max_abs() < 1e-12

    def test_group_invariance(self):
        r0 = rng(20)
        a, b, c = random_positive_triple(r0)
        rep, _ = mk.mu_invariant(a, b, c)
        g = sl.random_osp(r0, RANK, blocks=2)
        rep2, _ = mk.mu_invariant(mk.act(g, a), mk.act(g, b), mk.act(g, c))
        assert (rep - rep2).max_abs() < 1e-9


def _slot_quadrilateral(rank, lams, sigma, theta):
    """Points A, B, C, D of the super Ptolemy quadrilateral: (A, B, C) in
    standard position with fermion theta at B, and D from the basic
    calculation with fermion sigma."""
    a, b, c, d, e = (grassmann(x, rank) for x in lams)
    zero = GrassmannNumber(rank)
    r = np.sqrt(2) * e * a * b.inverse()
    s = np.sqrt(2) * b * e * a.inverse()
    t = np.sqrt(2) * a * b * e.inverse()
    pa = mk.SuperVector(zero, r, zero, zero, zero)
    pb = mk.SuperVector(t, t, t, t * theta, t * theta)
    pc = mk.SuperVector(s, zero, zero, zero, zero)
    return pa, pb, pc, mk.basic_calculation(a, b, c, d, e, sigma)


def _linear_odd(r, rank, terms):
    """Random combination of `terms` distinct generators: odd elements of
    degree one, whose products vanish only when they must."""
    out = GrassmannNumber(rank)
    for i in r.choice(rank, size=terms, replace=False):
        out = out + float(r.normal(0.0, 0.5)) * GrassmannNumber.generator(int(i) + 1, rank)
    return out


def _oracle_triples(rank):
    """Positive triples at the given rank: standard ones, the same moved by
    a bosonic and two odd one-parameter members, and the triangles (A, B, D)
    and (B, C, D) of super Ptolemy quadrilaterals."""
    r = np.random.default_rng(40 + rank)
    zero = GrassmannNumber(rank)
    trips = []
    for _ in range(4):
        phi = _linear_odd(r, rank, 3)
        r_, s_, t_ = (grassmann(float(np.exp(r.normal(0, 0.3))), rank) for _ in range(3))
        std = (
            mk.SuperVector(zero, r_, zero, zero, zero),
            mk.SuperVector(t_, t_, t_, t_ * phi, t_ * phi),
            mk.SuperVector(s_, zero, zero, zero, zero),
        )
        trips.append(std)
        g = sl.smul_many(
            sl.random_osp(r, rank, blocks=2, odd_terms=0),
            exp_odd_plus(_linear_odd(r, rank, 2)),
            exp_odd_minus(_linear_odd(r, rank, 2)),
        )
        trips.append(tuple(mk.act(g, v) for v in std))
    for _ in range(2):
        lams = [
            random_element(r, rank, parity="even", terms=2, scale=0.15, body=float(r.uniform(0.6, 1.8)))
            for _ in range(5)
        ]
        sigma, theta = (_linear_odd(r, rank, 3) for _ in range(2))
        pa, pb, pc, pd = _slot_quadrilateral(rank, lams, sigma, theta)
        trips += [(pa, pb, pd), (pb, pc, pd)]
    return trips


class TestMuInvariantOracle:
    """The spinor formula against the standard position built step by step
    (`normalize_triple_chain`), which reads no spinor."""

    @pytest.mark.parametrize("rank", [8, 12])
    def test_matches_normalize_triple(self, rank):
        trips = _oracle_triples(rank)
        # both spinor branches are taken: some points have x1 < x2, some not
        turned = [p.x1.body < p.x2.body for trip in trips for p in trip]
        assert any(turned) and not all(turned)
        for trip in trips:
            rep, _ = mk.mu_invariant(*trip)
            want, _ = canonicalize_sign(normalize_triple_chain(*trip)[4])
            scale = max(1.0, rep.max_abs(), want.max_abs())
            assert (rep - want).max_abs() <= 1e-9 * scale
            assert want.max_abs() > 0.1

    def test_sign_is_the_spinor_value_of_the_given_order(self):
        for trip in _oracle_triples(8):
            rep, sign = mk.mu_invariant(*trip)
            value = rotation_values(*trip)[0]
            assert (sign * rep - value).max_abs() <= 1e-12 * max(1.0, value.max_abs())

    def test_closed_form_is_every_rotation_value(self):
        """The closed form, sign included, equals each rotation's
        odd-direction value, on triples with all three xi nonzero too."""
        trips = _oracle_triples(8) + _oracle_triples(12) + [random_positive_triple(rng(s)) for s in range(20)]
        triple_term = 0.0
        for trip in trips:
            rep, sign = mk.mu_invariant(*trip)
            for value in rotation_values(*trip):
                assert (sign * rep - value).max_abs() <= 1e-12 * max(1.0, value.max_abs())
            xis = [mk._spinor(p, pos)[2] for p, pos in zip(trip, mk._POSITIONS)]
            triple_term = max(triple_term, (xis[0] * xis[1] * xis[2]).max_abs())
        assert triple_term > 1e-3


class TestSpinorFrame:
    """normalize_triple is the inverse of the frame of the triple's spinors:
    checked against the step-by-step standard position
    (`normalize_triple_chain`)."""

    @staticmethod
    def triples(rank):
        trips = _oracle_triples(rank)
        if rank == RANK:
            r = rng(17)
            trips += [random_positive_triple(r) for _ in range(20)]
        return trips

    @pytest.mark.parametrize("rank", [8, 12])
    def test_matches_the_chain(self, rank):
        trips = self.triples(rank)
        # c's spinor is taken on both sheets: some third points have x1 < x2
        turned = [c.x1.body < c.x2.body for _, _, c in trips]
        assert any(turned) and not all(turned)
        for trip in trips:
            got = mk.normalize_triple(*trip)
            want = normalize_triple_chain(*trip)
            scale = max(1.0, max(float(np.abs(p.coeffs).max()) for p in trip))
            for x, y in zip(got, want):
                assert np.abs(x.coeffs - y.coeffs).max() <= 1e-12 * scale
            assert want[4].max_abs() > 0.1

    @pytest.mark.parametrize("rank", [8, 12])
    def test_group_element_is_a_member(self, rank):
        for trip in self.triples(rank):
            assert sl.osp_residual(mk.normalize_triple(*trip)[0]) <= 1e-12

    def test_makes_no_act_or_smul_call(self, monkeypatch):
        trips = self.triples(RANK)[:6]
        calls = []

        def counting(owner, name):
            inner = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(mk, "act")
        counting(sl, "smul")
        counting(mk._kernels, "smul_coeffs")
        for trip in trips:
            mk.normalize_triple(*trip)
        assert not calls
        # the counters see the chain's calls
        normalize_triple_chain(*trips[0])
        assert {"act", "smul", "smul_coeffs"} <= set(calls)


class TestMuInvariantRejects:
    def test_off_cone_point(self):
        a, b, c = standard_triple(phi=G1)
        b = vec(1.7, 1.7, 1.5)
        assert mk.pairing(b, b).body > 0.1
        with pytest.raises(ValueError, match="^second point of triple is not on the special light cone"):
            mk.mu_invariant(a, b, c)

    def test_nonzero_fermion_label(self):
        a, b, _ = standard_triple(phi=G1)
        c = vec(0.8, 0.0, 0.0, ZERO, 0.3 * G2)
        assert mk.is_light_cone(c)
        assert mk.fermion_label(c)[0].max_abs() > 0.1
        with pytest.raises(ValueError, match="^third point of triple is not on the special light cone"):
            mk.mu_invariant(a, b, c)

    def test_zero_body_point(self):
        _, b, c = standard_triple(phi=G1)
        with pytest.raises(ValueError, match="^first point of triple has zero body"):
            mk.mu_invariant(vec(0.0, 0.0, 0.0), b, c)

    def test_dependent_first_and_third_points(self):
        _, b, _ = standard_triple(phi=G1)
        with pytest.raises(ValueError, match="^first and third points of triple are linearly dependent"):
            mk.mu_invariant(s_slot(1.3), b, s_slot(0.8))

    def test_negatively_oriented_triple(self):
        a, b, c = standard_triple(phi=G1)
        with pytest.raises(ValueError, match=r"^triple is not positively oriented \(body determinant -"):
            mk.mu_invariant(c, b, a)


def far_point(a, b, c, lam_c, lam_d, lam_e, sigma):
    """Oracle for `minkowski._far_spinor`: basic_calculation's point D
    across the side (a, c) of the positive triple (a, b, c), in the
    triple's own frame, with <C,D> = lam_c^2, <A,D> = lam_d^2 and
    <C,A> = lam_e^2.  It checks the orientation, finds the spinors of a and
    c with `_spinor`, computes the side factors alpha = lam_d / lam_e,
    beta = lam_c / lam_e and kappa = sqrt(sqrt2 lam_c lam_d / lam_e) sigma
    from the lambdas, and squares the spinor `_far_spinor` returns.  Takes
    stacks; a failed check names the first failing element."""
    det = mk.triple_orientation(a, b, c)
    mk._reject(det <= 1e-12, "triple", "%s is not positively oriented (body determinant %g)", det)
    sa, sc = (np.stack([x.coeffs for x in mk._spinor(p, pos)]) for p, pos in ((a, "first"), (c, "third")))
    e_inv = lam_e.inverse()
    alpha, beta = lam_d * e_inv, lam_c * e_inv
    kappa = (np.sqrt(2.0) * lam_c * lam_d * e_inv).sqrt() * sigma
    # the labels of one side may serve a stack of sides
    factors = np.stack(np.broadcast_arrays(alpha.coeffs, beta.coeffs, kappa.coeffs, sa[0])[:3])
    u, v, xi = (GrassmannNumber.wrap(a.rank, x) for x in mk._far_spinor(sa, sc, factors, a.rank))
    return mk.SuperVector(u * u, v * v, u * v, u * xi, v * xi, rank=a.rank)


def _far_point_labels(rank, r, lam_e):
    """far_point's labels (lam_c, lam_d, lam_e, sigma): lam_c and lam_d
    random with a positive body, sigma a random odd element."""
    lam_c, lam_d = (
        random_element(r, rank, parity="even", terms=2, scale=0.15, body=float(r.uniform(0.6, 1.8)))
        for _ in range(2)
    )
    return lam_c, lam_d, lam_e, _linear_odd(r, rank, 3)


def _stack_far_point(trips, labels):
    a, b, c = (stack(col) for col in zip(*trips))
    return far_point(a, b, c, *(stack(col) for col in zip(*labels)))


# far_point's message for a stack whose element 2 is bad in each way
STACK_REJECTIONS = {
    "negative": r"triple 2 is not positively oriented \(body determinant -",
    "zero_body": "first point of triple 2 has zero body",
    "off_cone": "third point of triple 2 is not on the special light cone",
    "dependent": "first and third points of triple 2 are linearly dependent",
}


class TestFarPoint:
    """far_point against the group-element path: the step-by-step standard
    position (`normalize_triple_chain`), basic_calculation there, and the
    inverse carrying the point back."""

    @pytest.mark.parametrize("rank", [8, 12])
    def test_matches_basic_calculation_carried_back(self, rank):
        r = np.random.default_rng(60 + rank)
        trips = _oracle_triples(rank)
        # both branches of the third point's spinor are taken
        turned = [c.x1.body < c.x2.body for _, _, c in trips]
        assert any(turned) and not all(turned)
        for a, b, c in trips:
            g, rr, ss, tt, _ = normalize_triple_chain(a, b, c)
            lam_a, lam_b, lam_e = ((x * y * 0.5).sqrt() for x, y in ((rr, tt), (tt, ss), (rr, ss)))
            lam_c, lam_d, lam_e, sigma = _far_point_labels(rank, r, lam_e)
            d_std = mk.basic_calculation(lam_a, lam_b, lam_c, lam_d, lam_e, sigma)
            want = mk.act(sl.inverse_osp(g), d_std)
            got = far_point(a, b, c, lam_c, lam_d, lam_e, sigma)
            assert got.max_coeff_diff(want) <= 1e-12 * max(1.0, float(np.abs(want.coeffs).max()))
            assert np.abs(want.coeffs[3:]).max() > 0.1

    def test_mixed_branch_stack_is_bit_identical(self):
        r = np.random.default_rng(61)
        trips = _oracle_triples(RANK)
        turned = [[p.x1.body < p.x2.body for p in (a, c)] for a, _, c in trips]
        assert all(any(col) and not all(col) for col in zip(*turned))
        labels = [_far_point_labels(RANK, r, mk.pairing(c, a).sqrt()) for a, _, c in trips]
        got = _stack_far_point(trips, labels)
        for k, (trip, lab) in enumerate(zip(trips, labels)):
            assert np.array_equal(got.coeffs[k], far_point(*trip, *lab).coeffs)

    @pytest.mark.parametrize("bad", sorted(STACK_REJECTIONS))
    def test_stack_names_the_first_bad_element(self, bad):
        """Elements 2 and 3 of the stack are bad; the error names element 2
        as an ElementError, whose reason is the error element 2 alone
        raises.  An exactly dependent pair is caught by the orientation
        check, so the dependent pair is dependent within tolerance."""
        r = np.random.default_rng(62)
        trips = [random_positive_triple(r) for _ in range(4)]
        a, b, c = standard_triple(phi=G1)
        wrong = {
            "negative": (c, b, a),
            "zero_body": (vec(0.0, 0.0, -0.5), b, c),
            "off_cone": (a, b, vec(0.8, 0.0, 0.0, ZERO, 0.3 * G2)),
            # spinors (0, 1, 0) and (-5e-10, 10, 0): omega's body is 5e-10
            "dependent": (vec(0.0, 1.0, 0.0), b, vec(2.5e-19, 100.0, -5e-9)),
        }[bad]
        trips[2] = trips[3] = wrong
        # every check is on the points, so lam_e need not fit them
        labels = [_far_point_labels(RANK, r, ONE) for _ in trips]
        with pytest.raises(mk.ElementError, match="^" + STACK_REJECTIONS[bad]) as err:
            _stack_far_point(trips, labels)
        assert err.value.element == 2
        with pytest.raises(ValueError) as alone:
            far_point(*wrong, *labels[2])
        assert str(alone.value) == err.value.reason
        assert not isinstance(alone.value, mk.ElementError)


def count_calls(monkeypatch, name):
    """Replace minkowski's function `name` by a wrapper that counts its
    calls; returns the list of the points it was called on."""
    calls = []
    inner = getattr(mk, name)

    def counted(p, *args):
        calls.append(p)
        return inner(p, *args)

    monkeypatch.setattr(mk, name, counted)
    return calls


def _ptolemy_points(seed):
    r = np.random.default_rng(seed)
    lams = [
        random_element(r, RANK, parity="even", terms=2, scale=0.15, body=float(r.uniform(0.6, 1.8)))
        for _ in range(5)
    ]
    sigma, theta = (_linear_odd(r, RANK, 3) for _ in range(2))
    return _slot_quadrilateral(RANK, lams, sigma, theta)


class TestSpinorMemo:
    """`_spinor` finds and checks a point's spinor once and stores it on the
    point; a point that fails a check is rejected on every call."""

    def test_ptolemy_pair_finds_each_spinor_once(self, monkeypatch):
        pa, pb, pc, pd = _ptolemy_points(70)
        fresh = [mk.SuperVector.wrap(RANK, p.coeffs.copy()) for p in (pa, pb, pc, pd)]
        found = count_calls(monkeypatch, "_find_spinor")
        got = [mk.mu_invariant(pa, pb, pd), mk.mu_invariant(pb, pc, pd)]
        # B and D are shared by the two triples: 4 roots, not 6
        assert len(found) == 4
        assert {id(p) for p in found} == {id(p) for p in (pa, pb, pc, pd)}
        # the stored spinors give the bits of spinors worked out afresh
        fa, fb, fc, fd = fresh
        want = [mk.mu_invariant(fa, fb, fd), mk.mu_invariant(fb, fc, fd)]
        for (rep, sign), (rep_w, sign_w) in zip(got, want):
            assert sign == sign_w and np.array_equal(rep.coeffs, rep_w.coeffs)

    def test_stored_spinor_is_read_only(self):
        p = t_slot(1.7, G1)
        first = mk._spinor(p, "first")
        assert all(x is y for x, y in zip(mk._spinor(p, "third"), first))
        assert all(not x.coeffs.flags.writeable for x in first)

    def test_memoized_read_makes_no_check(self, monkeypatch):
        # the square of the spinor (0.03, 0.02, 0), whose bodies are above
        # EQ_TOL but below 1e-2
        p = vec(9e-4, 4e-4, 6e-4)
        first = mk._spinor(p, "first")
        found = count_calls(monkeypatch, "_find_spinor")
        checks = count_calls(monkeypatch, "_reject")
        monkeypatch.setattr(mk, "EQ_TOL", 1e-2)
        assert mk._spinor(p, "third") is first
        assert not found and not checks
        with pytest.raises(ValueError, match="^first point of triple has zero body$"):
            mk._spinor(vec(9e-4, 4e-4, 6e-4), "first")

    def test_point_off_the_cone_is_rejected_on_every_call(self):
        p = vec(0.8, 0.0, 0.0, ZERO, 0.3 * G2)
        for position in ("first", "third"):
            with pytest.raises(ValueError, match="^%s point of triple is not on the special light cone" % position):
                mk._spinor(p, position)

    def test_point_with_zero_body_is_rejected_on_every_call(self):
        p = vec(0.0, 0.0, 0.0)
        for position in ("first", "third", "first"):
            with pytest.raises(ValueError, match="^%s point of triple has zero body$" % position):
                mk._spinor(p, position)
        assert getattr(p, "_spinor_memo", None) is None


def exp_odd_plus(alpha, rank=None):
    """One-parameter odd subgroup (1 0 alpha / 0 1 0 / 0 -alpha 1)."""
    return sl.SuperMatrix([[1, 0, alpha], [0, 1, 0], [0, -alpha, 1]], rank)


def exp_odd_minus(alpha, rank=None):
    """One-parameter odd subgroup (1 0 0 / 0 1 alpha / alpha 0 1)."""
    return sl.SuperMatrix([[1, 0, 0], [0, 1, alpha], [alpha, 0, 1]], rank)


def prime_element(phi, rank=None):
    """Order-3 element rotating a standard triple one slot, fixing phi."""
    return sl.SuperMatrix([[0, 1, 0], [-1, -1, -phi], [0, -phi, 1]], rank)


def prime_transform(r, s, t, phi):
    """Standard-position data after one prime rotation, with its group element."""
    return (s, t, r, phi), prime_element(phi)


def switch_transform(a, c, d, tol=1e-9):
    """Restandardize (a at (0,1..)-slot, c at (1,0..)-slot, d as computed)
    so that d becomes the middle point.

    Returns (g, s_hat, r_hat, t_hat, sigma) with act(g,a) = s_hat(1,0,0,0,0),
    act(g,c) = r_hat(0,1,0,0,0), act(g,d) = t_hat(1,1,1,sigma,sigma).
    """
    if d.x1.body <= tol or d.x2.body <= tol:
        raise ValueError("switch needs invertible x1, x2 on the new point")
    q = fourth_root(d.x1 * d.x2.inverse())
    g = sl.smul(sl.rotate90(a.rank), sl.diag(q, q.inverse()))
    ahat, chat, dhat = mk.act(g, a), mk.act(g, c), mk.act(g, d)
    t_hat = dhat.x1
    sigma = dhat.phi * t_hat.inverse()
    return g, ahat.x1, chat.x2, t_hat, sigma


class TestPrime:
    def test_member_and_order_three(self):
        phi = 0.3 * G1 + 0.07 * G1 * G2 * G3
        p = prime_element(phi)
        assert sl.osp_residual(p) <= 1e-12
        cube = sl.smul_many(p, p, p)
        assert cube.max_coeff_diff(sl.identity(RANK)) < 1e-10

    def test_bosonic_order_three(self):
        p = prime_element(ZERO)
        m = sl.bosonic_reduction(p)
        np.testing.assert_allclose(np.linalg.matrix_power(m, 3), np.eye(2), atol=1e-12)

    def test_rotates_standard_slots(self):
        phi = 0.25 * G1
        a, b, c = standard_triple(r=1.3, s=0.8, t=1.7, phi=phi)
        p = prime_element(phi)
        # r-slot point moves to the t-slot with the same scale, and so on
        assert mk.act(p, a).max_coeff_diff(t_slot(1.3, phi)) < 1e-12
        assert mk.act(p, b).max_coeff_diff(s_slot(1.7)) < 1e-12
        assert mk.act(p, c).max_coeff_diff(r_slot(0.8)) < 1e-12

    def test_transform_data(self):
        (r2, s2, t2, p2), el = prime_transform(1.3, 0.8, 1.7, G1)
        assert (r2, s2, t2) == (0.8, 1.7, 1.3)
        assert p2 is G1 and isinstance(el, sl.SuperMatrix)

    def test_triple_application_identity(self):
        phi = 0.2 * G2
        p = prime_element(phi)
        for v in standard_triple(phi=phi):
            out = mk.act(p, mk.act(p, mk.act(p, v)))
            assert out.max_coeff_diff(v) < 1e-10


class TestSwitch:
    def setup_method(self):
        self.ls = dict(a=1.1, b=0.9, c=1.4, d=0.8, e=1.2)
        self.sigma = 0.3 * G2 + 0.07 * G1 * G2 * G3
        a, b, c, d, e = (self.ls[k] for k in "abcde")
        self.A = r_slot(np.sqrt(2) * e * a / b)
        self.C = s_slot(np.sqrt(2) * b * e / a)
        self.D = mk.basic_calculation(a, b, c, d, e, self.sigma)

    def test_hat_scales_match_lambda_lengths(self):
        a, b, c, d, e = (self.ls[k] for k in "abcde")
        g, shat, rhat, that, sig = switch_transform(self.A, self.C, self.D)
        assert (rhat - np.sqrt(2) * e * c / d).max_abs() < 1e-10
        assert (shat - np.sqrt(2) * d * e / c).max_abs() < 1e-10
        assert (that - np.sqrt(2) * c * d / e).max_abs() < 1e-10

    def test_images_in_slots(self):
        g, shat, rhat, that, sig = switch_transform(self.A, self.C, self.D)
        assert mk.act(g, self.A).max_coeff_diff(
            mk.SuperVector(shat, ZERO, ZERO, ZERO, ZERO)) < 1e-12
        assert mk.act(g, self.C).max_coeff_diff(
            mk.SuperVector(ZERO, rhat, ZERO, ZERO, ZERO)) < 1e-12
        assert mk.act(g, self.D).max_coeff_diff(
            mk.SuperVector(that, that, that, that * sig, that * sig)) < 1e-12

    # sigma computed through either odd coordinate of D agrees
    def test_sigma_two_expressions(self):
        D = self.D
        _, _, _, _, sig = switch_transform(self.A, self.C, D)
        root = (D.x1 * D.x2).sqrt().inverse()
        via_theta = -(fourth_root(D.x1 * D.x2.inverse()) * D.theta) * root
        via_phi = fourth_root(D.x2 * D.x1.inverse()) * D.phi * root
        assert (via_theta - via_phi).max_abs() < 1e-12
        assert (sig - via_theta).max_abs() < 1e-12

    def test_bosonic_specialization(self):
        a, b, c, d, e = (self.ls[k] for k in "abcde")
        D0 = mk.basic_calculation(a, b, c, d, e, ZERO)
        g, shat, rhat, that, sig = switch_transform(self.A, self.C, D0)
        assert sig.max_abs() < 1e-14
        # plain even computation of the same rescaling
        x1, x2 = D0.x1.body, D0.x2.body
        assert abs(shat.body - np.sqrt(x1 / x2) * self.A.x2.body) < 1e-12
        assert abs(rhat.body - np.sqrt(x2 / x1) * self.C.x1.body) < 1e-12
        assert abs(that.body - np.sqrt(x1 * x2)) < 1e-12

    def test_zero_body_rejected(self):
        with pytest.raises(ValueError):
            switch_transform(self.A, self.C, r_slot(1.0))


def basic_calculation_by_three_series(a, b, c, d, e, sigma):
    """basic_calculation with chi^(-1), sqrt(chi) and sqrt(chi)^(-1) from
    three series, as first written."""
    chi = a * c * (d * b).inverse()
    k = np.sqrt(2.0) * c * d * e.inverse()
    rootchi = chi.sqrt()
    return mk.SuperVector(k * chi.inverse(), k * chi, -k, k * rootchi.inverse() * sigma, -(k * rootchi * sigma))


def draw_stack(r, rank, size, parity, **kw):
    """One random element (size None) or a stack of `size` of them; an
    even element gets a body drawn from [0.6, 1.8]."""

    def one():
        body = float(r.uniform(0.6, 1.8)) if parity == "even" else None
        return random_element(r, rank, parity=parity, terms=3, body=body, **kw)

    return one() if size is None else stack([one() for _ in range(size)])


class TestBasicCalculation:
    @pytest.mark.parametrize("size", [None, 4])
    @pytest.mark.parametrize("rank", [8, 12])
    def test_one_series_matches_three(self, rank, size):
        r = np.random.default_rng(60 + rank)
        for _ in range(5):
            lams = [draw_stack(r, rank, size, "even", scale=0.2) for _ in range(5)]
            sigma = draw_stack(r, rank, size, "odd", scale=0.4)
            want = basic_calculation_by_three_series(*lams, sigma)
            got = mk.basic_calculation(*lams, sigma)
            assert got.max_coeff_diff(want) <= 1e-12 * max(1.0, float(np.abs(want.coeffs).max()))

    def test_component_formulas(self):
        a, b, c, d, e = 1.1, 0.9, 1.4, 0.8, 1.2
        sg = 0.3 * G1
        chi = a * c / (b * d)
        k = np.sqrt(2) * c * d / e
        D = mk.basic_calculation(a, b, c, d, e, sg)
        assert abs(D.x1.body - k / chi) < 1e-12
        assert abs(D.x2.body - k * chi) < 1e-12
        assert abs(D.y.body + k) < 1e-12
        assert D.phi.isclose(k / np.sqrt(chi) * sg, 1e-12)
        assert D.theta.isclose(-k * np.sqrt(chi) * sg, 1e-12)

    def test_pairings_against_standard_slots(self):
        a, b, c, d, e = 1.1, 0.9, 1.4, 0.8, 1.2
        sg = 0.3 * G2 + 0.07 * G1 * G2 * G3
        D = mk.basic_calculation(a, b, c, d, e, sg)
        A = r_slot(np.sqrt(2) * e * a / b)
        C = s_slot(np.sqrt(2) * b * e / a)
        assert (mk.pairing(A, D) - d * d).max_abs() < 1e-12
        assert (mk.pairing(D, C) - c * c).max_abs() < 1e-12

    def test_on_special_light_cone(self):
        D = mk.basic_calculation(1.1, 0.9, 1.4, 0.8, 1.2, 0.3 * G1)
        assert mk.pairing(D, D).max_abs() < 1e-12
        rep, _ = mk.fermion_label(D)
        assert rep.max_abs() < 1e-12

    def test_all_ones(self):
        D = mk.basic_calculation(1, 1, 1, 1, 1, ZERO)
        root2 = np.sqrt(2)
        assert D.isclose(vec(root2, root2, -root2), 1e-12)


class TestPtolemyEven:
    def test_classical(self):
        a, b, c, d, e = 1.1, 0.9, 1.4, 0.8, 1.2
        f = mk.ptolemy_even(a, b, c, d, e, ZERO, ZERO)
        assert abs(f.body - (a * c + b * d) / e) < 1e-12
        assert f.soul().max_abs() == 0

    # chi = 4 collapses the correction factor to 1 + (2/5) sigma theta
    def test_chi_four(self):
        a, c = 2.0, 2.0
        b, d, e = 1.0, 1.0, 1.3
        f = mk.ptolemy_even(a, b, c, d, e, G1, G2)
        expect = grassmann(5.0, RANK) * (1 + 0.4 * (G1 * G2)) * grassmann(e, RANK).inverse()
        assert f.isclose(expect, 1e-12)

    def test_proof_display_identity(self):
        a, b, c, d, e = 1.1, 0.9, 1.4, 0.8, 1.2
        sg = 0.25 * G1 + 0.06 * G1 * G2 * G3
        th = 0.2 * G2 + 0.05 * G2 * G3 * G4
        chi = a * c / (b * d)
        f = mk.ptolemy_even(a, b, c, d, e, sg, th)
        lhs = e * e * (f * f)
        rhs = (a * c + b * d) ** 2 + 2 * a * b * c * d * (
            np.sqrt(chi) + 1 / np.sqrt(chi)) * (sg * th)
        assert (lhs - rhs).max_abs() < 1e-12

    # independent geometric path: lift the quadrilateral, measure the pairing
    def test_against_geometric_path(self):
        r0 = rng(21)
        for _ in range(25):
            a, b, c, d, e = (float(r0.uniform(0.5, 2.0)) for _ in range(5))
            sg = random_element(r0, RANK, parity="odd", terms=1)
            th = random_element(r0, RANK, parity="odd", terms=1)
            t = np.sqrt(2) * a * b / e
            B = mk.SuperVector(
                grassmann(t, RANK), grassmann(t, RANK), grassmann(t, RANK),
                t * th, t * th)
            D = mk.basic_calculation(a, b, c, d, e, sg)
            f = mk.ptolemy_even(a, b, c, d, e, sg, th)
            assert (f * f - mk.pairing(B, D)).max_abs() < 1e-8

    def test_factored_form_with_souls_and_stacks(self):
        """e f = ac + bd + sigma theta sqrt(ac bd) is
        (ac + bd)(1 + sigma theta sqrt(chi) / (1 + chi)), chi = ac / bd,
        also where the lambdas carry even souls; a stack of inputs gives
        each element's value."""
        r0 = rng(22)
        args = [[random_element(r0, RANK, parity="even", terms=2, scale=0.2, body=float(r0.uniform(0.5, 2.0)))
                 for _ in range(5)] + [random_element(r0, RANK, parity="odd", terms=2) for _ in range(2)]
                for _ in range(4)]
        stacked = mk.ptolemy_even(*(stack(col) for col in zip(*args)))
        for k, (a, b, c, d, e, sg, th) in enumerate(args):
            chi = a * c * (b * d).inverse()
            want = (a * c + b * d) * (1 + sg * th * chi.sqrt() * (1 + chi).inverse()) * e.inverse()
            assert (mk.ptolemy_even(a, b, c, d, e, sg, th) - want).max_abs() < 1e-12
            assert (GrassmannNumber.wrap(RANK, stacked.coeffs[k]) - want).max_abs() < 1e-12


class TestPtolemyOdd:
    def test_chi_one(self):
        nu, mu = mk.ptolemy_odd(G1, G2, ONE)
        root2 = np.sqrt(2)
        assert nu.isclose((G1 + G2) * (1 / root2), 1e-12)
        assert mu.isclose((G1 - G2) * (1 / root2), 1e-12)

    def test_nilpotent_outputs(self):
        chi = grassmann(2.5, RANK)
        nu, mu = mk.ptolemy_odd(G1, G2, chi)
        assert (nu * nu).max_abs() < 1e-15
        assert (mu * mu).max_abs() < 1e-15
        assert (nu * mu + mu * nu).max_abs() < 1e-15

    # flipping back (roles swapped, cross-ratio inverted) negates theta
    def test_double_flip_negates_theta(self):
        sg = 0.3 * G1 + 0.07 * G1 * G2 * G3
        th = 0.2 * G2 + 0.05 * G2 * G3 * G4
        chi = grassmann(1.54 / 0.72, RANK)
        nu, mu = mk.ptolemy_odd(sg, th, chi)
        sg2, th2 = mk.ptolemy_odd(mu, nu, chi.inverse())
        assert (sg2 - sg).max_abs() < 1e-12
        assert (th2 + th).max_abs() < 1e-12

    def test_bad_chi_rejected(self):
        with pytest.raises(ValueError, match="^cross-ratio must have positive body$"):
            mk.ptolemy_odd(G1, G2, grassmann(-1.0, RANK))

    def test_bad_chi_in_a_stack_is_named(self):
        chi = stack([grassmann(x, RANK) for x in (1.5, 0.7, -0.2, 0.0)])
        with pytest.raises(mk.ElementError, match="^cross-ratio 2 must have positive body$") as err:
            mk.ptolemy_odd(G1, G2, chi)
        assert err.value.element == 2
        assert err.value.reason == "cross-ratio must have positive body"


# -- projective models: the super half-plane and RP^{1|1}, for the tests -----


class ComplexGrassmann:
    """Complex number with Grassmann real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return ComplexGrassmann(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexGrassmann(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return ComplexGrassmann(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = (self.re * self.re + self.im * self.im).inverse()
        return ComplexGrassmann(self.re * n, -(self.im * n))

    def isclose(self, other, tol=1e-9):
        return self.re.isclose(other.re, tol) and self.im.isclose(other.im, tol)

    def __repr__(self):
        return "(%s) + i(%s)" % (self.re, self.im)


def superplane_map(a, tol=1e-9):
    """Hyperboloid point to the super upper half-plane.

    Returns (z_re, z_im, eta_re, eta_im) as GrassmannNumbers.
    """
    if a.x2.body <= tol:
        raise ValueError("superplane map needs positive-body x2")
    x2inv = a.x2.inverse()
    return (
        -(a.y * x2inv),
        (1 - a.phi * a.theta) * x2inv,
        a.theta * x2inv,
        a.theta * x2inv * a.y - a.phi,
    )


def superconformal(g, plane):
    """Action on the super half-plane matching act: feeding the same group
    element here and to act commutes with superplane_map.

    The point action is a right action through the matrix form, so the
    half-plane picture uses the mirrored entries (a, -c, .. / -b, d, .. /
    -alpha, beta, ..) of g in the fractional-linear formula.
    """
    rank = g.rank
    z_re, z_im, eta_re, eta_im = plane
    z = ComplexGrassmann(z_re, z_im)
    eta = ComplexGrassmann(eta_re, eta_im)
    (a0, b0, al), (c0, d0, be), (_, _, _) = g.rows
    a, b, c, d = a0, -c0, -b0, d0
    ga, de = -al, be

    def cg(x):
        return ComplexGrassmann(grassmann(x, rank), GrassmannNumber(rank))

    czd = cg(c) * z + cg(d)
    czdi = czd.inverse()
    gzd = cg(ga) * z + cg(de)
    z_new = (cg(a) * z + cg(b)) * czdi + eta * gzd * czdi * czdi
    eta_new = gzd * czdi + eta * cg(1 + 0.5 * (de * ga)) * czdi
    return z_new.re, z_new.im, eta_new.re, eta_new.im


def rp11_map(a, tol=1e-9):
    """Special light cone to RP^{1|1}: z = -y/x2, eta = theta/x2."""
    if abs(a.x2.body) <= tol:
        raise ValueError("rp11 map needs invertible x2")
    x2inv = a.x2.inverse()
    return -(a.y * x2inv), a.theta * x2inv


class TestSuperplane:
    def test_base_point(self):
        z_re, z_im, e_re, e_im = superplane_map(vec(1, 1, 0))
        assert z_re.max_abs() < 1e-15 and (z_im - 1).max_abs() < 1e-15
        assert e_re.max_abs() < 1e-15 and e_im.max_abs() < 1e-15

    def test_bosonic_upper_half_plane(self):
        r0 = rng(22)
        for _ in range(10):
            u = r0.normal(0, 1)
            p = np.exp(r0.normal(0, 0.5))
            # bosonic hyperboloid point
            h = vec((1 + u * u) / p, p, u)
            z_re, z_im, e_re, e_im = superplane_map(h)
            assert z_im.body > 0
            assert z_im.soul().max_abs() == 0 and e_re.max_abs() == 0

    def test_equivariance_sl2(self):
        r0 = rng(23)
        h = hyperboloid_point(r0)
        for m in ([[1, 0.7], [0, 1]], [[1, 0], [0.4, 1]], [[1.2, 0.5], [0.4, 1.0]]):
            m = np.array(m, dtype=float)
            m[1, 1] = (1 + m[0, 1] * m[1, 0]) / m[0, 0]
            g = sl.sl2_embed(m, RANK)
            direct = superplane_map(mk.act(g, h))
            mapped = superconformal(g, superplane_map(h))
            for x, y in zip(direct, mapped):
                assert (x - y).max_abs() < 1e-10

    def test_equivariance_odd_generators(self):
        r0 = rng(24)
        h = hyperboloid_point(r0)
        els = [
            sl.stabilizer(0.3, 0.2 * G1, ZERO),
            gt(grassmann(1.4, RANK), 0.1 * G1, 0.2 * G2),
            exp_odd_plus(0.3 * G1),
            exp_odd_minus(0.3 * G2),
            sl.random_osp(r0, RANK, blocks=2),
        ]
        for g in els:
            direct = superplane_map(mk.act(g, h))
            mapped = superconformal(g, superplane_map(h))
            for x, y in zip(direct, mapped):
                assert (x - y).max_abs() < 1e-10

    def test_zero_x2_rejected(self):
        with pytest.raises(ValueError):
            superplane_map(vec(1, 0, 0))


def hyperboloid_point(r):
    g = sl.random_osp(r, RANK, blocks=2)
    return mk.act(g, vec(1, 1, 0))


class TestRP11:
    def test_r_slot(self):
        z, eta = rp11_map(r_slot(1.0))
        assert z.max_abs() < 1e-15 and eta.max_abs() < 1e-15

    def test_e_zero_rejected(self):
        with pytest.raises(ValueError):
            rp11_map(mk.e_zero(RANK))

    # diagonal group element rescales the coordinate by the squared parameter
    def test_diag_scaling(self):
        a = mk.SuperVector(ONE, ONE, ONE, G1, G1)
        z0, _ = rp11_map(a)
        p = 1.3
        z1, _ = rp11_map(mk.act(sl.diag(p, 1 / p, RANK), a))
        assert (z1 - p * p * z0).max_abs() < 1e-12

    def test_odd_part(self):
        phi = 0.4 * G2
        z, eta = rp11_map(t_slot(1.7, phi))
        assert (z + 1).max_abs() < 1e-12
        assert eta.isclose(phi, 1e-12)


class TestSerialization:
    def test_round_trip(self):
        a = mk.SuperVector(1 + G1 * G2, grassmann(0.5, RANK), ZERO, G1, 0.25 * G2)
        text = mk.format_supervector(a)
        back = mk.parse_supervector(text, RANK)
        assert back.isclose(a, 1e-12)

    def test_known_form(self):
        assert mk.format_supervector(vec(1, 0, 0)) == "(1.0, 0, 0, 0, 0)"

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            mk.parse_supervector("1, 0, 0, 0, 0", RANK)
        with pytest.raises(ValueError):
            mk.parse_supervector("(1, 0, 0)", RANK)

