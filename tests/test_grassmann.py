"""Grassmann algebra arithmetic: fixed values, algebra laws, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superteich import _kernels
from superteich.grassmann import (
    GrassmannNumber,
    canonicalize_sign,
    format_grassmann,
    odd_derivative,
    parse_grassmann,
    random_element,
    stack,
)

RANK = 6
N = 1 << RANK


def gen(i, rank=RANK):
    return GrassmannNumber.generator(i, rank)


def scal(x, rank=RANK):
    return GrassmannNumber.scalar(x, rank)


def fourth_root(a):
    """x**(1/4) with positive body, in one series; the domain of sqrt.  The
    library needs no fourth root: this one serves the step-by-step standard
    position (`test_minkowski.normalize_triple_chain`) and its tests."""
    a._even_root_check("fourth_root")
    return a._power_series(0.25)


# strategy: a handful of (mask, coeff) pairs, optionally parity-restricted
def _element(masks):
    @st.composite
    def build(draw):
        g = GrassmannNumber(RANK)
        pairs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(masks),
                    st.floats(-2, 2, allow_nan=False, allow_infinity=False, width=32),
                ),
                max_size=6,
            )
        )
        for mask, c in pairs:
            g.coeffs[mask] += c
        return g

    return build()


ALL_MASKS = list(range(N))
EVEN_MASKS = [m for m in ALL_MASKS if bin(m).count("1") % 2 == 0]
ODD_MASKS = [m for m in ALL_MASKS if bin(m).count("1") % 2 == 1]

any_element = _element(ALL_MASKS)
even_element = _element(EVEN_MASKS)
odd_element = _element(ODD_MASKS)


class TestFixedValues:
    def test_add_doubles_generator(self):
        assert (gen(1) + gen(1)).isclose(2 * gen(1))

    def test_add_cancels_soul(self):
        a = 1 + gen(1) * gen(2)
        b = 1 - gen(1) * gen(2)
        assert (a + b).isclose(scal(2))

    def test_generators_anticommute(self):
        t12 = gen(1) * gen(2)
        assert (gen(2) * gen(1)).isclose(-t12)
        assert t12.extract_coefficient([1, 2]) == 1.0

    def test_generator_squares_to_zero(self):
        assert (gen(1) * gen(1)).max_abs() == 0.0

    def test_product_of_conjugates_is_one(self):
        a = 1 + gen(1) * gen(2)
        assert (a * (1 - gen(1) * gen(2))).isclose(scal(1))

    def test_inverse_of_scalar(self):
        assert scal(2).inverse().isclose(scal(0.5))

    def test_inverse_of_unipotent(self):
        a = 1 + gen(1) * gen(2)
        assert a.inverse().isclose(1 - gen(1) * gen(2))
        assert (a * a.inverse()).isclose(scal(1))

    def test_inverse_with_scale(self):
        # t(1+pq) for t=3 inverts to (1/3)(1-pq)
        t = 3.0
        a = t * (1 + gen(3) * gen(4))
        assert a.inverse().isclose((1 - gen(3) * gen(4)) * (1 / t))
        assert (a * a.inverse()).isclose(scal(1))

    def test_sqrt_of_scalar(self):
        assert scal(4).sqrt().isclose(scal(2))

    def test_sqrt_of_even_element(self):
        a = 1 + 2 * gen(1) * gen(2)
        r = a.sqrt()
        assert r.isclose(1 + gen(1) * gen(2))
        assert (r * r).isclose(a)

    def test_parity_classification(self):
        assert scal(3).parity() == "even"
        assert gen(1).parity() == "odd"
        assert (1 + gen(1)).parity() == "mixed"
        assert GrassmannNumber(RANK).parity() == "even"

    def test_extract_coefficient(self):
        a = 2 * gen(1) * gen(2)
        assert a.extract_coefficient([1, 2]) == 2.0
        assert scal(5).extract_coefficient([]) == 5.0
        assert gen(1).extract_coefficient([2]) == 0.0

    def test_nilpotence_of_full_product(self):
        # any product of more than RANK odd generators vanishes identically
        prod = scal(1)
        for i in range(1, RANK + 1):
            prod = prod * gen(i)
        assert prod.max_abs() == 1.0  # top monomial survives
        assert (prod * gen(1)).max_abs() == 0.0


class TestErrors:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen(1, 4) + gen(1, 5)
        with pytest.raises(ValueError):
            gen(1, 4) * gen(1, 5)

    def test_zero_body_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            gen(1).inverse()

    def test_sqrt_domain(self):
        with pytest.raises(ValueError):
            scal(-1).sqrt()
        with pytest.raises(ValueError):
            gen(1).sqrt()
        with pytest.raises(ValueError):
            (1 + gen(1)).sqrt()

    @pytest.mark.parametrize("root", ["sqrt", "rsqrt", "fourth_root"])
    def test_root_domain(self, root):
        take = fourth_root if root == "fourth_root" else lambda x: getattr(x, root)()
        with pytest.raises(ValueError, match="^%s requires positive body$" % root):
            take(scal(-1))
        with pytest.raises(ValueError, match="^%s requires positive body$" % root):
            take(stack([scal(1), scal(0) + gen(1) * gen(2)]))
        with pytest.raises(ValueError, match="^%s requires an even element$" % root):
            take(1 + gen(1))

    def test_generator_index_range(self):
        with pytest.raises(ValueError, match=r"^generator index 0 out of range 1\.\.4$"):
            GrassmannNumber.generator(0, 4)
        with pytest.raises(ValueError, match=r"^generator index 5 out of range 1\.\.4$"):
            GrassmannNumber.generator(5, 4)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: GrassmannNumber(0), "rank must be a positive integer, got 0"),
            (lambda: GrassmannNumber(2.0), "rank must be a positive integer, got 2.0"),
            (lambda: GrassmannNumber(2, np.zeros(3)), "coefficient vector must have length 2**rank = 4, got shape (3,)"),
            (lambda: GrassmannNumber(2, 1.0), "coefficient vector must have length 2**rank = 4, got shape ()"),
            (lambda: GrassmannNumber.monomial([1, 7], rank=4), "generator index 7 out of range 1..4"),
            (lambda: GrassmannNumber.monomial([2, 1, 2], rank=4), "repeated generator index 2"),
            (lambda: gen(1).extract_coefficient([0]), "generator index 0 out of range 1..%d" % RANK),
            (lambda: parse_grassmann("g{%d}" % (RANK + 1), RANK), "generator index %d out of range 1..%d" % (RANK + 1, RANK)),
            (lambda: parse_grassmann("  ", RANK), "empty Grassmann literal '  '"),
        ],
        ids=["rank_zero", "rank_float", "length", "scalar_coeffs", "monomial_range",
             "monomial_repeat", "extract", "parse_range", "parse_empty"],
    )
    def test_rejection_names_the_value(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(any_element, any_element)
def test_body_is_linear(a, b):
    assert np.isclose((a + b).body, a.body + b.body, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(any_element, any_element, any_element)
def test_mul_associative_and_distributive(a, b, c):
    assert ((a * b) * c).isclose(a * (b * c), 1e-10)
    assert (a * (b + c)).isclose(a * b + a * c, 1e-10)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["even", "odd"]),
    st.sampled_from(["even", "odd"]),
    st.data(),
)
def test_graded_commutativity(pa, pb, data):
    a = data.draw(even_element if pa == "even" else odd_element)
    b = data.draw(even_element if pb == "even" else odd_element)
    sign = -1.0 if (pa == "odd" and pb == "odd") else 1.0
    assert (a * b).isclose(b * a * sign, 1e-10)


@settings(max_examples=100, deadline=None)
@given(even_element)
def test_inverse_round_trip(a):
    a.coeffs[0] = 1.0 + abs(a.coeffs[0])  # force an order-1 body
    assert (a * a.inverse()).isclose(GrassmannNumber.scalar(1, RANK), 1e-12)


@settings(max_examples=100, deadline=None)
@given(even_element)
def test_sqrt_round_trip(a):
    a.coeffs[0] = 1.0 + abs(a.coeffs[0])
    r = a.sqrt()
    assert (r * r).isclose(a, 1e-12)
    assert r.body > 0


@settings(max_examples=100, deadline=None)
@given(even_element)
def test_fourth_root_consistency(a):
    a.coeffs[0] = 1.0 + abs(a.coeffs[0])
    q = a.sqrt().sqrt()
    assert (q * q * q * q).isclose(a, 1e-11)


@settings(max_examples=100, deadline=None)
@given(any_element)
def test_serialization_round_trip(a):
    text = format_grassmann(a)
    back = parse_grassmann(text, RANK)
    assert back.isclose(a, 1e-12)


class TestSerialization:
    def test_known_forms(self):
        a = 0.5 + 2 * gen(1) * gen(2)
        assert format_grassmann(a) == "0.5 + 2.0*g{1,2}"
        assert parse_grassmann("0.5 + 2*g{1,2}", RANK).isclose(a)

    def test_zero(self):
        assert format_grassmann(GrassmannNumber(RANK)) == "0"
        assert parse_grassmann("0", RANK).is_zero()

    def test_leading_minus_and_bare_monomial(self):
        a = parse_grassmann("-g{1} + g{2,3}", RANK)
        assert a.isclose(-gen(1) + gen(2) * gen(3))

    def test_exponent_notation(self):
        a = parse_grassmann("1e-05 - 2E+00*g{1}", RANK)
        assert np.isclose(a.body, 1e-5)
        assert np.isclose(a.extract_coefficient([1]), -2.0)

    def test_bad_input_rejected(self):
        for bad in ["", "g{0}", "g{1,1}", "2**g{1}", "g{%d}" % (RANK + 1), "1 +"]:
            with pytest.raises(ValueError):
                parse_grassmann(bad, RANK)

    def test_stack_element_by_element(self):
        """A stack reads as its elements in batch order, in brackets that
        nest like the batch axes; str and repr agree with it."""
        a = 0.5 + 2 * gen(1) * gen(2)
        both = stack([a, -a])
        assert format_grassmann(both) == "[0.5 + 2.0*g{1,2}, -0.5 - 2.0*g{1,2}]"
        assert str(both) == format_grassmann(both)
        assert repr(both) == "GrassmannNumber(rank=%d, %s)" % (RANK, format_grassmann(both))
        nested = stack([both, stack([GrassmannNumber(RANK), gen(3)])])
        assert format_grassmann(nested, 3) == "[[0.5 + 2*g{1,2}, -0.5 - 2*g{1,2}], [0, 1*g{3}]]"


# -- the left derivative in an odd generator -----------------------------------


def _loop_odd_derivative(a, i):
    """Per-monomial loop: each monomial containing g_i loses it, signed by
    the generators written before it (one element)."""
    bit = 1 << (i - 1)
    out = GrassmannNumber(a.rank)
    for m in np.nonzero(a.coeffs)[0]:
        if m & bit:
            sign = -1.0 if bin(m & (bit - 1)).count("1") % 2 else 1.0
            out.coeffs[m ^ bit] += sign * a.coeffs[m]
    return out


@settings(max_examples=60, deadline=None)
@given(any_element, any_element, st.integers(1, RANK))
def test_odd_derivative_matches_loop(a, b, i):
    """Bit for bit, signed zeros included, on an element and on a stack."""
    assert odd_derivative(a, i).coeffs.tobytes() == _loop_odd_derivative(a, i).coeffs.tobytes()
    rows = odd_derivative(stack([a, b, -a]), i).coeffs
    for row, x in zip(rows, (a, b, -a)):
        assert row.tobytes() == _loop_odd_derivative(x, i).coeffs.tobytes()


def test_odd_derivative_rejects_a_generator_out_of_range():
    for i in (0, RANK + 1):
        with pytest.raises(ValueError, match=r"^generator index %d out of range 1\.\.%d$" % (i, RANK)):
            odd_derivative(gen(1), i)


def test_random_element_parity_restriction():
    rng = np.random.default_rng(3)
    for parity in ("even", "odd"):
        for _ in range(10):
            a = random_element(rng, rank=RANK, parity=parity)
            assert a.parity() in (parity, "even")  # zero draws classify as even
            assert (a.is_even() if parity == "even" else a.is_odd())


# -- the binomial series: inverse, sqrt, rsqrt, fourth_root ---------------------


def _series_inputs(rank):
    """Even elements with positive bodies and several soul terms, and one
    that is all body."""
    r = np.random.default_rng(rank)
    xs = [
        random_element(r, rank, parity="even", terms=8, scale=0.5, body=float(r.uniform(0.5, 2.0)))
        for _ in range(3)
    ]
    return xs + [scal(1.7, rank)]


def _assert_identity(got, want):
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * max(1.0, np.abs(want.coeffs).max())


@pytest.mark.parametrize("rank", [8, 12])
def test_series_identities_on_elements_and_stacks(rank):
    xs = _series_inputs(rank)
    # inverse takes any body but zero: a negative one, and odd terms too
    mixed = random_element(np.random.default_rng(rank + 1), rank, terms=8, scale=0.5, body=-1.3)
    one = scal(1.0, rank)
    for x in xs + [stack(xs)]:
        root, rinv = x.sqrt(), x.rsqrt()
        _assert_identity(root * root, x)
        _assert_identity(x * rinv * rinv, one)
        q = fourth_root(x)
        _assert_identity(q * q * q * q, x)
        assert np.all(root.body > 0) and np.all(rinv.body > 0) and np.all(q.body > 0)
    for x in xs + [mixed, stack(xs + [mixed])]:
        _assert_identity(x * x.inverse(), one)
    # the stack runs one series, each row bit for bit its element's
    both = stack(xs)
    for take in (GrassmannNumber.inverse, GrassmannNumber.sqrt, GrassmannNumber.rsqrt, fourth_root):
        rows = take(both).coeffs
        for k, x in enumerate(xs):
            assert np.array_equal(rows[k], take(x).coeffs)


def test_series_of_a_body_is_the_real_power():
    x = scal(2.0, 8)
    assert np.array_equal(x.inverse().coeffs, scal(0.5, 8).coeffs)
    assert np.array_equal(x.sqrt().coeffs, scal(np.sqrt(2.0), 8).coeffs)
    assert np.array_equal(x.rsqrt().coeffs, scal(2.0**-0.5, 8).coeffs)
    assert np.array_equal(fourth_root(x).coeffs, scal(2.0**0.25, 8).coeffs)


# -- the product kernel against a plain per-pair product ------------------------


def _reference_product(a, b, rank):
    """Sum over nonzero pairs (i, j) of disjoint generator sets; the sign
    counts the pairs (p in i, q in j) with p > q, the transpositions that
    sort the concatenated generator list."""
    out = np.zeros(1 << rank)
    js = np.nonzero(b)[0]
    for i in np.nonzero(a)[0]:
        jk = js[(js & i) == 0]
        swaps = np.zeros(jk.shape, dtype=np.int64)
        for q in range(rank):
            swaps += ((jk >> q) & 1) * bin(int(i) >> (q + 1)).count("1")
        out[i ^ jk] += a[i] * b[jk] * np.where(swaps & 1, -1.0, 1.0)
    return out


KERNEL_FILLS = ("zero", "body", "monomial", "sparse", "full")

nonzero_coeff = st.floats(0.125, 2, width=32).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@st.composite
def coeff_vector(draw, rank, fill):
    n = 1 << rank
    c = np.zeros(n)
    if fill == "body":
        c[0] = draw(nonzero_coeff)
    elif fill == "monomial":
        c[draw(st.integers(1, n - 1))] = draw(nonzero_coeff)
    elif fill == "sparse":
        masks = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12, unique=True))
        c[masks] = draw(st.lists(nonzero_coeff, min_size=len(masks), max_size=len(masks)))
    elif fill == "full":
        c = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, n)
    return c


def _assert_close(got, want):
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# the reference visits all 4**rank pairs of full operands, so Hypothesis
# draws full fill up to rank 10 only; test_kernel_full_fill_in_blocks
# covers rank 12
@pytest.mark.parametrize("rank", range(1, 15))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference(rank, data):
    fills = KERNEL_FILLS if rank <= 10 else KERNEL_FILLS[:-1]
    a = data.draw(coeff_vector(rank, data.draw(st.sampled_from(fills))))
    b = data.draw(coeff_vector(rank, data.draw(st.sampled_from(fills))))
    _assert_close(_kernels.multiply_coeffs(a, b, rank), _reference_product(a, b, rank))


def test_kernel_full_fill_in_blocks(monkeypatch):
    """At rank 12 a full-fill product has 4**12 pairs, above the kernel's
    block size, so its terms are taken in several blocks: bit for bit the
    product taken in one block, as the pairs come in one order."""
    rng = np.random.default_rng(12)
    a, b = rng.uniform(-1, 1, (2, 1 << 12))
    assert a.size * b.size > _kernels._MAX_PAIRS
    got = _kernels.multiply_coeffs(a, b, 12)
    _assert_close(got, _reference_product(a, b, 12))
    monkeypatch.setattr(_kernels, "_MAX_PAIRS", a.size * b.size)
    assert np.array_equal(got, _kernels.multiply_coeffs(a, b, 12))


def _count_calls(monkeypatch, name):
    """List that gets the size of the first argument of each call of
    `_kernels.<name>`."""
    calls = []
    inner = getattr(_kernels, name)

    def counted(*args):
        calls.append(args[0].size)
        return inner(*args)

    monkeypatch.setattr(_kernels, name, counted)
    return calls


def test_zero_first_operand_leaves_the_second_unscanned(monkeypatch):
    """A product whose first operand is zero scans it and returns zeros,
    for single elements, stacks and supermatrices alike."""
    rng = np.random.default_rng(4)
    b = rng.uniform(-1, 1, (3, N))
    g = rng.uniform(-1, 1, (3, 3, N))
    scans = _count_calls(monkeypatch, "terms")
    got = [
        _kernels.multiply_coeffs(np.zeros(N), b[0], RANK),
        _kernels.multiply_coeffs(np.zeros((3, N)), b, RANK),
        _kernels.multiply_coeffs(np.zeros(N), b, RANK),
        _kernels.smul_coeffs(np.zeros((3, 3, N)), g, RANK),
    ]
    assert scans == [N, 3 * N, 3 * N, 9 * N]
    for x, shape in zip(got, [(N,), (3, N), (3, N), (3, 3, N)]):
        assert x.dtype == np.float64 and x.shape == shape and not x.any()


def test_series_scans_n_once_and_each_power_once():
    """x = 2 + g1 g2 + g3 g4: n**2 is the last power of n that does not
    vanish, so the series makes two products and three scans (n, n**2 and
    the zero n**3), and no call of multiply_coeffs; a stack the same."""
    x = 2.0 + gen(1) * gen(2) + gen(3) * gen(4)
    for y in (x, stack([x, 3.0 + gen(5) * gen(6)])):
        with pytest.MonkeyPatch.context() as m:
            scans = _count_calls(m, "terms")
            products = _count_calls(m, "product")
            multiplies = _count_calls(m, "multiply_coeffs")
            y.inverse()
        assert scans == [y.coeffs.size] * 3
        assert len(products) == 2 and not multiplies


def test_generators_anticommute_at_rank_14():
    rank = 14
    zero = GrassmannNumber(rank)
    for i in range(1, rank + 1):
        assert (gen(i, rank) * gen(i, rank)).isclose(zero, 0.0)
        for j in range(i + 1, rank + 1):
            gij, gji = gen(i, rank) * gen(j, rank), gen(j, rank) * gen(i, rank)
            assert gij.isclose(-gji, 0.0)
            assert gij.extract_coefficient([i, j]) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    coeff_vector(12, "sparse"),
    coeff_vector(12, "sparse"),
    coeff_vector(12, "sparse"),
)
def test_kernel_associative_at_rank_12(a, b, c):
    ab_c = _kernels.multiply_coeffs(_kernels.multiply_coeffs(a, b, 12), c, 12)
    a_bc = _kernels.multiply_coeffs(a, _kernels.multiply_coeffs(b, c, 12), 12)
    _assert_close(ab_c, a_bc)


def _loop_canonicalize_sign(a, tol=1e-9):
    """Per-coefficient scan: the first coefficient above the threshold decides."""
    thresh = tol * max(1.0, a.max_abs())
    for c in a.coeffs.flat:
        if abs(c) > thresh:
            return (-a, -1.0) if c < 0 else (a, 1.0)
    return a, 1.0


def _terms_at_rank_12(terms):
    g = GrassmannNumber(12)
    for mask, c in terms:
        g.coeffs[mask] = c
    return g


SIGN_CASES = [
    [(1, -1e-12), (5, 2.0), (7, -3.0)],  # leading term below the threshold
    [(1, 1e-12), (5, -2.0), (7, 3.0)],
    [(3, -0.5), (9, 1.0), (2048, 1.0)],  # negative leading coefficient
    [(6, 0.25), (1 << 11, -4.0)],
    [(4095, -1.0)],
    [],  # the zero element
    [(2, 1e-11)],  # only roundoff junk: nothing is significant
]


@pytest.mark.parametrize("terms", SIGN_CASES)
def test_canonicalize_sign_matches_loop(terms):
    _assert_sign_matches_loop(_terms_at_rank_12(terms))


@pytest.mark.parametrize("terms", SIGN_CASES)
def test_canonicalize_sign_of_a_stack_reads_it_flat(terms):
    """A stack takes one sign, from its coefficients read in flat order:
    here zero, the element, then 0.5 g1."""
    _assert_sign_matches_loop(stack([GrassmannNumber(12), _terms_at_rank_12(terms), _terms_at_rank_12([(1, 0.5)])]))


def _assert_sign_matches_loop(a):
    rep, sign = canonicalize_sign(a)
    want_rep, want_sign = _loop_canonicalize_sign(a)
    assert sign == want_sign
    assert np.array_equal(rep.coeffs, want_rep.coeffs)
    assert np.array_equal(sign * rep.coeffs, a.coeffs)
