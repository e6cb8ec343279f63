"""Supermatrix product signs, OSp membership, named elements, serialization."""

import numpy as np
import pytest

from superteich import _kernels
from superteich.grassmann import GrassmannNumber, random_element
from superteich import decorated as dc
from superteich import minkowski as mk
from superteich import superlinalg as sl
from test_minkowski import draw_stack, exp_odd_minus, exp_odd_plus, gt, prime_element

RANK = 8


def rng():
    return np.random.default_rng(7)


def odd(r, terms=2):
    return random_element(r, RANK, parity="odd", terms=terms)


def even(r, body=None, terms=3):
    return random_element(r, RANK, parity="even", terms=terms, body=body)


def random_parity_matrix(r):
    """Random parity-structured 3x3 (not a group member)."""
    e = lambda: even(r, body=r.normal())
    o = lambda: odd(r)
    return sl.SuperMatrix([[e(), e(), o()], [e(), e(), o()], [o(), o(), e()]], RANK)


# entrywise transcription of the 3x3 signed product used to cross-check smul
def transcribed_product(g, h):
    (a1, b1, al1), (c1, d1, be1), (ga1, de1, f1) = g.rows
    (a2, b2, al2), (c2, d2, be2), (ga2, de2, f2) = h.rows
    return sl.SuperMatrix(
        [
            [a1 * a2 + b1 * c2 - al1 * ga2, a1 * b2 + b1 * d2 - al1 * de2, a1 * al2 + b1 * be2 + al1 * f2],
            [c1 * a2 + d1 * c2 - be1 * ga2, c1 * b2 + d1 * d2 - be1 * de2, c1 * al2 + d1 * be2 + be1 * f2],
            [ga1 * a2 + de1 * c2 + f1 * ga2, ga1 * b2 + de1 * d2 + f1 * de2, -ga1 * al2 - de1 * be2 + f1 * f2],
        ],
        g.rank,
    )


def transcribed_supertranspose(g):
    (a, b, al), (c, d, be), (ga, de, f) = g.rows
    return sl.SuperMatrix([[a, c, ga], [b, d, de], [-al, -be, f]], g.rank)


# entrywise transcription of the action st(g) M_A g, read off as act does
def transcribed_act(g, v):
    x1, x2, y, phi, theta = v.components()
    form = sl.SuperMatrix([[x1, y, phi], [y, x2, theta], [-phi, -theta, 0]], v.rank)
    m = transcribed_product(transcribed_product(transcribed_supertranspose(g), form), g)
    return mk.SuperVector(m[0, 0], m[1, 1], (m[0, 1] + m[1, 0]) * 0.5, m[0, 2], m[1, 2])


def entry(r, rank, kind):
    """One Grassmann entry of the given kind (any parity)."""
    if kind == "mixed":
        kind = ("zero", "body", "sparse")[r.integers(3)]
    if kind == "zero":
        return GrassmannNumber(rank)
    if kind == "body":
        return GrassmannNumber.scalar(r.normal(), rank)
    if kind == "sparse":
        return random_element(r, rank, terms=3, body=r.normal() if r.random() < 0.5 else None)
    return GrassmannNumber(rank, r.uniform(-1, 1, 1 << rank))


def entry_matrix(r, rank, kind):
    return sl.SuperMatrix([[entry(r, rank, kind) for _ in range(3)] for _ in range(3)], rank)


def assert_close_to_scale(got, want):
    assert got.max_coeff_diff(want) <= 1e-12 * max(1.0, float(np.abs(want.coeffs).max()))


# full fill only up to rank 8: the transcription's 27 products each visit
# 4**rank pairs
CONTRACTION_CASES = [
    (rank, kind)
    for rank in (1, 8, 12)
    for kind in ("zero", "body", "sparse", "mixed", "full")
    if kind != "full" or rank <= 8
]


@pytest.mark.parametrize("rank,kind", CONTRACTION_CASES)
def test_smul_matches_transcription(rank, kind):
    r = np.random.default_rng(rank)
    for _ in range(3):
        g, h = entry_matrix(r, rank, kind), entry_matrix(r, rank, kind)
        assert_close_to_scale(sl.smul(g, h), transcribed_product(g, h))


@pytest.mark.parametrize("rank,kind", CONTRACTION_CASES)
def test_act_matches_transcription(rank, kind):
    r = np.random.default_rng(rank + 100)
    for _ in range(3):
        g = entry_matrix(r, rank, kind)
        v = mk.SuperVector(*(entry(r, rank, kind) for _ in range(5)))
        assert_close_to_scale(mk.act(g, v), transcribed_act(g, v))


def test_contraction_above_pair_block_size():
    """Full-fill rank-9 matrices give 1536 * 1536 candidate pairs per inner
    index, above _MAX_PAIRS, so each pair product runs in several blocks."""
    r = np.random.default_rng(9)
    g, h = entry_matrix(r, 9, "full"), entry_matrix(r, 9, "full")
    assert (3 << 9) ** 2 > _kernels._MAX_PAIRS
    assert_close_to_scale(sl.smul(g, h), transcribed_product(g, h))


class TestProduct:
    def test_identity_is_neutral(self):
        r = rng()
        for _ in range(5):
            g = sl.random_osp(r, RANK)
            assert sl.smul(sl.identity(RANK), g).isclose(g, 1e-12)
            assert sl.smul(g, sl.identity(RANK)).isclose(g, 1e-12)

    def test_matches_entrywise_transcription(self):
        r = rng()
        for _ in range(10):
            g, h = random_parity_matrix(r), random_parity_matrix(r)
            assert sl.smul(g, h).isclose(transcribed_product(g, h), 1e-12)

    def test_reflection_is_involution(self):
        gr = sl.fermionic_reflection(RANK)
        assert sl.smul(gr, gr).isclose(sl.identity(RANK), 1e-15)

    def test_associative(self):
        r = rng()
        g, h, k = (random_parity_matrix(r) for _ in range(3))
        assert sl.smul(sl.smul(g, h), k).isclose(sl.smul(g, sl.smul(h, k)), 1e-10)


class TestSupertranspose:
    def test_identity(self):
        assert sl.supertranspose(sl.identity(RANK)).isclose(sl.identity(RANK))

    def test_layout(self):
        r = rng()
        g = random_parity_matrix(r)
        (a, b, al), (c, d, be), (ga, de, f) = g.rows
        st = sl.supertranspose(g)
        want = sl.SuperMatrix([[a, c, ga], [b, d, de], [-al, -be, f]], RANK)
        assert st.isclose(want, 0)

    def test_order_four(self):
        r = rng()
        g = sl.random_osp(r, RANK)
        st2 = sl.supertranspose(sl.supertranspose(g))
        assert not st2.isclose(g, 1e-12)  # odd entries flip sign
        st4 = sl.supertranspose(sl.supertranspose(st2))
        assert st4.isclose(g, 1e-15)

    def test_antihomomorphism(self):
        r = rng()
        for _ in range(5):
            g, h = sl.random_osp(r, RANK), sl.random_osp(r, RANK)
            lhs = sl.supertranspose(sl.smul(g, h))
            rhs = sl.smul(sl.supertranspose(h), sl.supertranspose(g))
            assert lhs.isclose(rhs, 1e-10)


class TestSdet:
    def test_identity(self):
        assert (sl.sdet(sl.identity(RANK)) - 1).is_zero(1e-15)

    def test_invariant_quadratic_form_matrix(self):
        # sdet of the symmetric-form matrix with the y -/+ c split equals
        # (x1 x2 - y^2 + 2 phi theta + c^2)/c
        r = rng()
        for c in (1.0, 0.5, 3.0):
            x1, x2, y = even(r, 1.2), even(r, 0.7), even(r, -0.4)
            phi, theta = odd(r), odd(r)
            m = sl.SuperMatrix(
                [[x1, y - c, phi], [y + c, x2, theta], [-phi, -theta, c]], RANK
            )
            rhs = (x1 * x2 - y * y + 2 * phi * theta + c * c) * (1.0 / c)
            assert (sl.sdet(m) - rhs).is_zero(1e-10)

    def test_multiplicative(self):
        r = rng()
        for _ in range(5):
            g, h = sl.random_osp(r, RANK), sl.random_osp(r, RANK)
            lhs = sl.sdet(sl.smul(g, h))
            assert (lhs - sl.sdet(g) * sl.sdet(h)).is_zero(1e-10)

    def test_zero_body_f_rejected(self):
        m = sl.SuperMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]], RANK)
        with pytest.raises(ZeroDivisionError):
            sl.sdet(m)


class TestMembership:
    def test_identity_and_named_elements(self):
        r = rng()
        assert sl.is_osp(sl.identity(RANK))
        assert sl.is_osp(sl.fermionic_reflection(RANK))
        assert sl.is_osp(sl.rotate90(RANK))
        assert sl.is_osp(sl.diag(2.0, 0.5, RANK))
        assert sl.is_osp(sl.stabilizer(r.normal(), odd(r), odd(r)))
        assert sl.is_osp(gt(1.8, odd(r), odd(r)))
        assert sl.is_osp(exp_odd_plus(odd(r)))
        assert sl.is_osp(exp_odd_minus(odd(r)))

    def test_perturbed_member_rejected(self):
        r = rng()
        g = sl.random_osp(r, RANK)
        g.rows[0][1] = g.rows[0][1] + 1e-3
        assert not sl.is_osp(g)
        assert sl.osp_residual(g) > 1e-5

    def test_parity_violation_rejected(self):
        g = sl.identity(RANK)
        g.rows[0][0] = g.rows[0][0] + GrassmannNumber.generator(1, RANK) * 1e-3
        assert not sl.is_osp(g)

    def test_closure(self):
        r = rng()
        for _ in range(10):
            g, h = sl.random_osp(r, RANK), sl.random_osp(r, RANK)
            assert sl.osp_residual(sl.smul(g, h)) < 1e-9

    def test_nontrivial_diag_rejected(self):
        assert not sl.is_osp(sl.diag(2.0, 1.0, RANK))


class TestInverse:
    def test_identity(self):
        assert sl.inverse_osp(sl.identity(RANK)).isclose(sl.identity(RANK))

    def test_reflection(self):
        gr = sl.fermionic_reflection(RANK)
        assert sl.inverse_osp(gr).isclose(gr, 1e-15)

    def test_round_trip(self):
        r = rng()
        for _ in range(8):
            g = sl.random_osp(r, RANK)
            gi = sl.inverse_osp(g)
            assert sl.smul(g, gi).isclose(sl.identity(RANK), 1e-10)
            assert sl.smul(gi, g).isclose(sl.identity(RANK), 1e-10)

    def test_equals_the_product_with_j(self):
        # the signed-permutation form against J^-1 st(g) J from entry products
        r = rng()
        for _ in range(5):
            g = random_parity_matrix(r)
            st = transcribed_supertranspose(g)
            want = transcribed_product(transcribed_product(sl.j_inverse(RANK), st), sl.j_matrix(RANK))
            assert sl.inverse_osp(g).isclose(want, 0)
            assert sl.supertranspose(g).isclose(st, 0)

    def test_j_relations(self):
        r = rng()
        J, Ji = sl.j_matrix(RANK), sl.j_inverse(RANK)
        assert sl.smul(J, Ji).isclose(sl.identity(RANK))
        # J^{-1} = -J except the corner entry
        mJ = sl.SuperMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]], RANK)
        assert Ji.isclose(mJ, 0)
        for _ in range(5):
            g = sl.random_osp(r, RANK)
            lhs = sl.smul_many(J, sl.inverse_osp(g), Ji)
            assert lhs.isclose(sl.supertranspose(g), 1e-10)


class TestBosonicReduction:
    def test_identity(self):
        np.testing.assert_allclose(sl.bosonic_reduction(sl.identity(RANK)), np.eye(2))

    def test_reflection_is_minus_identity(self):
        np.testing.assert_allclose(
            sl.bosonic_reduction(sl.fermionic_reflection(RANK)), -np.eye(2)
        )

    def test_determinant_one(self):
        r = rng()
        for _ in range(10):
            g = sl.random_osp(r, RANK)
            assert abs(np.linalg.det(sl.bosonic_reduction(g)) - 1) < 1e-9


class TestNamedElements:
    def test_gt_at_unit_params(self):
        want = sl.SuperMatrix([[0, -1, 0], [1, 1, 0], [0, 0, 1]], RANK)
        z = GrassmannNumber(RANK)
        assert gt(1.0, z, z).isclose(want, 1e-15)

    @pytest.mark.parametrize("size", [None, 4])
    @pytest.mark.parametrize("rank", [8, 12])
    def test_gt_one_series_matches_two(self, rank, size):
        """gt takes t^(-1/2) in one series; as first written, it took sqrt(t)
        and then its inverse."""
        r = np.random.default_rng(70 + rank)
        for _ in range(5):
            t = draw_stack(r, rank, size, "even", scale=0.2)
            phi, psi = (draw_stack(r, rank, size, "odd", scale=0.4) for _ in range(2))
            rt = t.sqrt()
            want = sl.SuperMatrix([[0, -rt, 0], [rt.inverse(), rt * (1 + phi * psi), -psi], [0, rt * psi, 1]], rank)
            assert_close_to_scale(gt(t, phi, psi), want)

    def test_diag_sdet_one(self):
        t = 2.7
        g = sl.diag(np.sqrt(t), 1 / np.sqrt(t), RANK)
        assert (sl.sdet(g) - 1).is_zero(1e-12)

    def test_stabilizer_family_closed_at_theta_zero(self):
        r = rng()
        z = GrassmannNumber(RANK)
        g1 = sl.stabilizer(r.normal(), odd(r), z)
        g2 = sl.stabilizer(r.normal(), odd(r), z)
        prod = sl.smul(g1, g2)
        # the product is again of the theta=0 stabilizer shape
        c, beta = prod.rows[1][0], prod.rows[1][2]
        assert prod.isclose(sl.stabilizer(c, beta, z), 1e-12)

    def test_sl2_embed(self):
        m = [[1.0, 2.0], [0.5, 2.0]]  # det 1
        assert sl.is_osp(sl.sl2_embed(m, RANK))
        assert sl.is_osp(sl.upper_shear(0.3, RANK))
        assert sl.is_osp(sl.lower_shear(-1.2, RANK))


class TestSerialization:
    def test_round_trip(self):
        r = rng()
        g = sl.random_osp(r, RANK)
        text = sl.format_supermatrix(g)
        back = sl.parse_supermatrix(text, RANK)
        assert back.isclose(g, 1e-12)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="^SuperMatrix text must have exactly 3 nonempty lines, got 2$"):
            sl.parse_supermatrix("1 | 0\n0 | 1", RANK)
        with pytest.raises(ValueError, match="^SuperMatrix text must have exactly 3 nonempty lines, got 1$"):
            sl.parse_supermatrix("1 | 0 | 0", RANK)

    def test_bad_cell_count_names_the_line(self):
        text = "1 | 0 | 0\n0 | 1\n0 | 0 | 1"
        with pytest.raises(ValueError, match=r"^SuperMatrix line '0 \| 1' has 2 '\|'-separated entries, not 3$"):
            sl.parse_supermatrix(text, RANK)

    def test_grid_check_counts_the_entries(self):
        with pytest.raises(ValueError, match="^SuperMatrix needs a 3x3 entry grid, got 8 entries$"):
            sl.SuperMatrix([[1, 0, 0], [0, 1, 0], [0, 0]], RANK)

    def test_rank_mismatch_names_both_ranks(self):
        """GrassmannArray comparisons reject another rank, naming both."""
        with pytest.raises(ValueError, match="^rank mismatch: 4 vs 5$"):
            sl.identity(4).isclose(sl.identity(5))
        with pytest.raises(ValueError, match="^rank mismatch: 5 vs 4$"):
            sl.identity(5).max_coeff_diff(sl.identity(4))


class TestStorage:
    def test_entry_writes_cannot_change_the_matrix(self):
        g = sl.random_osp(rng(), RANK)
        before = g.coeffs.copy()
        for e in (g[0, 1], g.rows[2][0]):
            with pytest.raises(ValueError):
                e.coeffs[0] += 1.0
        assert np.array_equal(g.coeffs, before)

    def test_entry_writes_cannot_change_the_vector(self):
        v = mk.SuperVector(1.0, 2.0, 0.5, GrassmannNumber.generator(1, RANK), 0.0)
        before = v.coeffs.copy()
        for e in (v.x1, v.theta, v.components()[3]):
            with pytest.raises(ValueError):
                e.coeffs[1] = 3.0
        assert np.array_equal(v.coeffs, before)

    def test_entries_keep_their_values_across_replacement(self):
        g = sl.identity(RANK)
        e = g[0, 0]
        g.rows[0][0] = e + 1.0
        assert e.body == 1.0 and g[0, 0].body == 2.0

    def test_construction_copies_its_entries(self):
        x = GrassmannNumber.scalar(2.0, RANK)
        g = sl.SuperMatrix([[x, 0, 0], [0, x, 0], [0, 0, 1]], RANK)
        v = mk.SuperVector(x, x, 0, 0, 0)
        x.coeffs[0] = 5.0
        assert g[0, 0].body == 2.0 and v.x2.body == 2.0

    def test_arithmetic_on_entries_gives_writable_values(self):
        e = sl.random_osp(rng(), RANK)[0, 0] * 2.0
        e.coeffs[0] = 1.0
        assert e.body == 1.0


def _rank_of(x):
    return x.rank


# constructor, default arguments (reals); each takes its rank from a
# Grassmann argument in any position
RANK_CONSTRUCTORS = {
    "SuperVector": (mk.SuperVector, (1.0, 0.5, 0.3, 0.0, 0.0)),
    "SuperMatrix": (lambda *e: sl.SuperMatrix([e[0:3], e[3:6], e[6:9]]), (1, 0, 0, 0, 1, 0, 0, 0, 1)),
    "diag": (sl.diag, (2.0, 0.5)),
    "stabilizer": (sl.stabilizer, (0.4, 0.0, 0.0)),
    "gt": (gt, (1.8, 0.0, 0.0)),
    "exp_odd_plus": (exp_odd_plus, (0.0,)),
    "exp_odd_minus": (exp_odd_minus, (0.0,)),
    "e_theta": (mk.e_theta, (0.0,)),
    "prime_element": (prime_element, (0.0,)),
    "basic_calculation": (mk.basic_calculation, (1.1, 0.9, 1.3, 0.8, 1.2, 0.0)),
    "ptolemy_even": (mk.ptolemy_even, (1.1, 0.9, 1.3, 0.8, 1.2, 0.0, 0.0)),
}
RANK_CASES = [
    (name, pos) for name, (_, args) in RANK_CONSTRUCTORS.items() for pos in range(len(args))
]


@pytest.mark.parametrize("name,pos", RANK_CASES)
def test_rank_taken_from_any_position(name, pos):
    make, args = RANK_CONSTRUCTORS[name]
    args = list(args)
    args[pos] = GrassmannNumber.scalar(args[pos], 11)
    assert _rank_of(make(*args)) == 11


@pytest.mark.parametrize("name", sorted(RANK_CONSTRUCTORS))
def test_no_rank_raises(name):
    """Real arguments only, and no rank: there is none to read off."""
    make, args = RANK_CONSTRUCTORS[name]
    with pytest.raises(ValueError, match="^no rank given, and no Grassmann value to read one off$"):
        make(*args)


# e_theta reads its rank off theta alone, so it has no second rank to clash
@pytest.mark.parametrize("name", sorted(set(RANK_CONSTRUCTORS) - {"e_theta"}))
def test_mixed_ranks_raise(name):
    make, args = RANK_CONSTRUCTORS[name]
    args = list(args)
    args[0] = GrassmannNumber.scalar(args[0], 11)
    if len(args) > 1:
        args[-1] = GrassmannNumber.scalar(args[-1], 9)
        with pytest.raises(ValueError):
            make(*args)
    else:
        with pytest.raises(ValueError):
            make(*args, rank=9)


def test_ptolemy_form_identity_ranks():
    # sigma, theta and chi are of order 1, so 1e-12 of scale is 1e-12
    g1, g2 = GrassmannNumber.generator(1, 11), GrassmannNumber.generator(2, 11)
    assert dc.ptolemy_form_identity(g1, g2, 1.3) < 1e-12
    assert dc.ptolemy_form_identity(g1, g2, GrassmannNumber.scalar(1.3, 11)) < 1e-12
    # sigma of two monomials, one of them sharing g2 with theta
    sigma = g1 + GrassmannNumber.monomial([2, 3, 4], 0.4, 11)
    assert dc.ptolemy_form_identity(sigma, g2, 1.3) < 1e-12
    with pytest.raises(ValueError):
        dc.ptolemy_form_identity(g1, GrassmannNumber.generator(2, 9), 1.3)
