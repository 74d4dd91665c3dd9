"""Pochhammer conventions, certified infinite products, series arithmetic,
theta sums, the triple product, and the q-binomial identity."""

import sys
import threading
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchains.qalgebra import (
    Interval,
    PochTable,
    QSeries,
    jacobi_product,
    one_minus_product,
    poch_inf,
    poch_inf_lower,
    poch_table,
    q_binomial_check,
    theta_sum,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
big_integers = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**200), max_value=2**200),
)


# ---------------------------------------------------------------------------
# the ascending symbol (1-x)(1-x^2)...(1-x^n): the table at (x, 1/x)


def test_poch_std_empty_product():
    assert poch_table(F(1, 2), F(2))[0] == 1


def test_poch_std_direct_value():
    # (1 - 1/2)(1 - 1/4)
    assert poch_table(F(1, 2), F(2))[2] == F(3, 8)


def test_poch_std_series_expansion():
    # as a series in x, the symbol is a product of (1 - x^e) factors
    s = one_minus_product(range(1, 3), 4)
    assert list(s.coeffs) == [1, -1, -1, 1, 0]


def test_poch_std_negative_index_rejected():
    with pytest.raises(ValueError):
        poch_table(F(1, 2), F(2))[-1]


@settings(max_examples=25, deadline=None)
@given(x=rationals.filter(bool), n=st.integers(min_value=0, max_value=30))
def test_poch_std_recurrence(x, n):
    table = poch_table(x, 1 / x)
    assert table[n + 1] == table[n] * (1 - x ** (n + 1))


def test_poch_tables_past_the_recursion_limit():
    # (1/2; 1/2)_n = prod_{s<=n} (2^s - 1) / 2^(n(n+1)/2), already in lowest
    # terms; the index lies past the default recursion limit of 1000
    n = 1200
    num = 1
    for s in range(1, n + 1):
        num *= (1 << s) - 1
    expected = (num, 1 << (n * (n + 1) // 2))
    try:
        std = poch_table(F(1, 2), 1 / F(1, 2))[n]
        desc = poch_table(F(1, 2), F(2))[n]
    finally:
        poch_table.cache_clear()  # drop the ~70 MB table
    assert (std.numerator, std.denominator) == expected
    assert (desc.numerator, desc.denominator) == expected


def _desc_products(x, q):
    """The endless stream of prod_{r<n} (1 - x/q^r), n = 0, 1, ..."""
    value = F(1)
    for r in count():
        yield value
        value *= 1 - x / q**r


def test_poch_table_extended_from_many_threads():
    x, q = F(1, 3), F(2)
    table = PochTable(_desc_products(x, q))
    expected = [F(1)]
    for r in range(400):
        expected.append(expected[-1] * (1 - x / q**r))

    wrong = []

    def reader(k):
        try:
            wrong.extend(n for n in range(k, 401, 8) if table[n] != expected[n])
        except ValueError as exc:  # a raced read: stream entered twice, or slice < 0
            wrong.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert wrong == []
    assert [table[n] for n in range(401)] == expected


def test_poch_table_reads_its_stream_lazily():
    stream = count()
    table = PochTable(stream)
    assert table[5] == 5
    assert next(stream) == 6  # t[5] took exactly t[0..5] from the stream
    assert [table[n] for n in (3, 0, 5)] == [3, 0, 5]
    assert next(stream) == 7  # lower indices took nothing more


# ---------------------------------------------------------------------------
# the descending symbol (1-x)(1-x/q)...(1-x/q^(n-1))


def test_poch_desc_empty():
    assert poch_table(F(1, 2), F(2))[0] == 1


def test_poch_desc_direct_value():
    # (1 - 1/2)(1 - 1/4)
    assert poch_table(F(1, 2), F(2))[2] == F(3, 8)


def test_poch_desc_negative_index_flag():
    for n in (-1, -7):
        with pytest.raises(ValueError):
            poch_table(F(1, 3), F(2))[n]


@settings(max_examples=25, deadline=None)
@given(
    x=rationals,
    q=st.fractions(min_value="11/10", max_value=4, max_denominator=10),
    n=st.integers(min_value=1, max_value=30),
)
def test_poch_desc_recurrence(x, q, n):
    lhs = poch_table(x, q)[n]
    rhs = poch_table(x, q)[n - 1] * (1 - x / q ** (n - 1))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# poch_inf


def test_poch_inf_zero_argument_exact():
    iv = poch_inf(0, F(2), F(1, 10**6))
    assert iv.lo == iv.hi == 1


def test_poch_inf_certified_width_and_value():
    eps = F(1, 10**4)
    iv = poch_inf(F(1, 2), F(2), eps)
    assert iv.hi - iv.lo <= eps
    # bracket the product with a far partial product: P_200 is below the
    # value, P_200/(1 - tail) is above it
    partial = F(1)
    for r in range(1, 201):
        partial *= 1 - F(1, 2) / F(2) ** r
    assert iv.lo <= partial  # true value is above iv.lo and below partial+tail
    assert partial <= iv.hi
    assert abs(float((iv.lo + iv.hi) / 2) - 0.5776) < 1e-3


def test_poch_inf_partials_monotone():
    partial = F(1)
    prev = F(2)
    for r in range(1, 12):
        partial *= 1 - F(1, 2) / F(2) ** r
        assert partial < prev
        prev = partial


def test_poch_inf_domain_errors():
    with pytest.raises(ValueError):
        poch_inf(F(1, 2), F(1), F(1, 100))
    with pytest.raises(ValueError):
        poch_inf(F(5), F(2), F(1, 100))


def test_interval_arithmetic():
    a = Interval(F(1, 2), F(3, 4))
    assert a.scale(F(-2)).lo == -F(3, 2)
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


# ---------------------------------------------------------------------------
# series arithmetic


def test_series_shrink_to_smaller_order():
    a = QSeries([1, 2, 3], order=2)
    b = QSeries([1, 1, 1, 1, 1], order=4)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert a == QSeries([1, 2, 3, 9, 9], order=4)  # equality up to order 2


def test_series_variable_mismatch():
    with pytest.raises(ValueError, match="variable mismatch"):
        QSeries.one(3, "x") * QSeries.one(3, "y")


def test_series_y_conversions():
    s = QSeries([1, 0, 2], order=2, var="x")
    y = s.to_y()
    assert y.var == "y"
    assert [int(c) for c in y.coeffs] == [1, 0, 0, 0, 2, 0]


def test_series_json_roundtrip():
    s = QSeries([3, -2 * 10**30, 0], order=2)
    data = s.to_json()
    assert data["coeffs"] == ["3", str(-2 * 10**30), "0"]
    assert QSeries(data["coeffs"], order=data["order"], var=data["var"]) == s


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(big_integers, min_size=1, max_size=7),
    b=st.lists(big_integers, min_size=1, max_size=7),
    c=st.lists(big_integers, min_size=1, max_size=7),
)
def test_series_ring_laws(a, b, c):
    order = 6
    sa = QSeries(a[: order + 1], order=order)
    sb = QSeries(b[: order + 1], order=order)
    sc = QSeries(c[: order + 1], order=order)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


@settings(max_examples=30, deadline=None)
@given(a=st.lists(big_integers, min_size=1, max_size=7))
def test_series_coefficients_reduced(a):
    # integers given as ints, integral Fractions and "p/q" strings are
    # stored as plain ints, and so are the coefficients of a product
    given_as = [F(2 * c, 2) if n % 3 == 1 else f"{3 * c}/3" if n % 3 else c
                for n, c in enumerate(a)]
    s = QSeries(given_as, order=6) * QSeries(list(reversed(a)), order=6)
    assert QSeries(given_as).coeffs == tuple(a)
    assert all(type(c) is int for c in s.coeffs)


# small integers mixed with integers of up to about 200 bits, so products
# take both conv_trunc's array slots and its wide slots
mixed_lists = st.lists(big_integers, min_size=1, max_size=9)


def conv(fa, fb, order):
    out = [F(0)] * (order + 1)
    for i, x in enumerate(fa[: order + 1]):
        for j, y in enumerate(fb[: order + 1 - i]):
            out[i + j] += x * y
    return out


def assert_series(s, coeffs, order, var="x"):
    """s has the given coefficients, order and variable, stored as ints."""
    assert (s.order, s.var) == (order, var)
    assert all(type(c) is int for c in s.coeffs)
    assert list(s.coeffs) == coeffs


@settings(max_examples=60, deadline=None)
@given(
    fa=mixed_lists,
    fb=mixed_lists,
    c=big_integers,
    e=st.integers(min_value=1, max_value=9),
)
def test_series_ops_match_fraction_oracle(fa, fb, c, e):
    oa, ob = len(fa) - 1, len(fb) - 1
    n = min(oa, ob)
    sa, sb = QSeries(fa), QSeries(fb)
    assert_series(sa, fa, oa)
    assert_series(sa + sb, [fa[i] + fb[i] for i in range(n + 1)], n)
    assert_series(sa - sb, [fa[i] - fb[i] for i in range(n + 1)], n)
    assert_series(-sa, [-x for x in fa], oa)
    assert_series(sa * sb, conv(fa, fb, n), n)
    assert_series(sa + c, [fa[0] + c] + fa[1:], oa)
    assert_series(c - sa, [c - fa[0]] + [-x for x in fa[1:]], oa)
    assert_series(sa * c, [x * c for x in fa], oa)
    assert_series(c * sa, [x * c for x in fa], oa)
    assert_series(sa.shift(e), [F(0)] * e + fa, oa + e)
    assert_series(sa.truncate(oa // 2), fa[: oa // 2 + 1], oa // 2)
    one_minus = [F(1)] + [F(0)] * (e - 1) + [F(-1)]
    assert_series(sa.mul_one_minus_pow(e), conv(fa, one_minus, oa), oa)
    geom = [F(int(i % e == 0)) for i in range(oa + 1)]
    assert_series(sa.mul_geom_inv(e), conv(fa, geom, oa), oa)
    in_y = [F(0)] * (2 * oa + 2)
    in_y[::2] = fa
    assert_series(sa.to_y(), in_y, 2 * oa + 1, "y")
    first = next((i for i in range(n + 1) if fa[i] != fb[i]), None)
    assert sa.first_mismatch(sb) == first
    assert (sa == sb) == (first is None)


@settings(max_examples=60, deadline=None)
@given(
    fa=mixed_lists,
    extra=st.lists(big_integers, min_size=1, max_size=4),
    d=st.integers(min_value=2, max_value=10**6),
)
def test_series_equality_across_orders_and_denominators(fa, extra, d):
    s = QSeries(fa)
    longer = QSeries(fa + extra)
    assert s == longer and longer == s
    assert s.truncate(0) == longer
    assert s * d == QSeries([c * d for c in fa]) and d * s == s * d
    assert (s * d == s) == (not any(fa))
    bumped = QSeries(fa[:-1] + [fa[-1] + d])
    assert bumped != s and bumped != longer
    assert bumped.first_mismatch(longer) == len(fa) - 1
    assert s.to_y() != longer
    assert longer.truncate(len(fa) - 1).coeffs == s.coeffs


@pytest.mark.parametrize("bad", [F(1, 2), "1/3", "-7/2", 0.5, 2.0, None, "x", [1]])
def test_series_refuse_non_integer_coefficients_and_scalars(bad):
    with pytest.raises(ValueError):
        QSeries([1, bad])
    s = QSeries([1, 2, 3])
    for scalar in (bad, F(2), F(-1, 3)):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(s, op)(scalar) is NotImplemented
        with pytest.raises(TypeError):
            s * scalar
        with pytest.raises(TypeError):
            scalar - s


def test_euler_poch_and_geometric_inv():
    euler = one_minus_product(range(1, 3), 3)
    assert euler == QSeries([1, -1, -1, 1], order=3)
    assert QSeries.one(6).mul_geom_inv(2) == QSeries([1, 0, 1, 0, 1, 0, 1], order=6)
    assert one_minus_product([1, 2], 3) == euler


@settings(max_examples=60, deadline=None)
@given(
    exps=st.lists(st.integers(min_value=1, max_value=12), max_size=8),
    order=st.integers(min_value=0, max_value=9),
    var=st.sampled_from(["x", "y"]),
)
def test_one_minus_product_matches_fraction_oracle(exps, order, var):
    # repeated exponents and exponents above the order are both drawn
    expected = [F(1)] + [F(0)] * order
    for e in exps:
        expected = conv(expected, [F(1)] + [F(0)] * (e - 1) + [F(-1)], order)
    assert_series(one_minus_product(exps, order, var), expected, order, var)


# ---------------------------------------------------------------------------
# theta sums and the triple product


def test_theta_sum_enumerated():
    t = theta_sum(5, 1, 25)
    expected = {0: 1, 4: -1, 6: -1, 18: 1, 22: 1}
    assert {e: int(c) for e, c in enumerate(t.coeffs) if c} == expected


def test_theta_sum_constant_term():
    for a in (1, 2, 5):
        assert theta_sum(a, 0, 9).coeffs[0] == 1


def test_theta_equals_jacobi_instances():
    for a, b, order in ((5, 1, 200), (5, 3, 200), (7, 1, 150), (3, 1, 120)):
        assert theta_sum(a, b, order) == jacobi_product(b, a, order)


def test_jacobi_product_small_expansion():
    # direct expansion of (1-y)^2 (1-y^2) (1-y^3)^2 to order 3, cross-checked
    # against the theta side
    j = jacobi_product(0, 1, 3)
    assert [int(c) for c in j.coeffs] == [1, -2, 0, 0]
    assert j == theta_sum(1, 0, 3)


def test_jacobi_product_unit_constant():
    for v, w in ((0, 1), (1, 5), (2, 3)):
        assert jacobi_product(v, w, 30).coeffs[0] == 1


def test_theta_domain():
    with pytest.raises(ValueError):
        theta_sum(1, 1, 10)
    with pytest.raises(ValueError):
        jacobi_product(2, 2, 10)


# ---------------------------------------------------------------------------
# q-binomial theorem


def test_q_binomial_trivial_cases():
    assert q_binomial_check(0, F(1, 2))
    assert q_binomial_check(1, F(3, 7))
    assert q_binomial_check(0, 1)  # the empty (q)_0 = 1 does not vanish
    for n, q in ((1, 1), (2, -1)):  # (1 - q) and (1 - q^2) vanish
        with pytest.raises(ValueError, match="degenerate q"):
            q_binomial_check(n, q)


@pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(2, 5), F(0), F(-3, 4)])
def test_q_binomial_battery(q):
    for n in range(13):
        assert q_binomial_check(n, q), (n, q)


def test_q_binomial_exact_case():
    assert q_binomial_check(5, F(1, 3))


def test_q_binomial_at_q_zero():
    # every (0)_m is 1, and both sides are 1
    for n in range(7):
        assert q_binomial_check(n, 0), n


# ---------------------------------------------------------------------------
# the rounded lower bound of the infinite product


@settings(max_examples=80, deadline=None)
@given(
    q=st.fractions(min_value=F(11, 10), max_value=5, max_denominator=20),
    share=st.fractions(min_value=0, max_value=F(29, 30), max_denominator=30),
    eps_bits=st.integers(1, 30),
)
def test_poch_inf_lower_is_at_most_the_exact_lower_end(q, share, eps_bits):
    """On small cases the rounded bound is at most poch_inf(...).lo, and
    within a relative 2^-48 of it: every step loses at most 2^-63."""
    x, eps = share * q, F(1, 2**eps_bits)
    lo = poch_inf(x, q, eps).lo
    low = poch_inf_lower(x, q, eps)
    if lo <= 0:
        assert low == 0
    else:
        assert 0 < low <= lo
        assert (lo - low) / lo < F(1, 2**48)


def test_poch_inf_lower_edge_cases():
    assert poch_inf_lower(0, 2, F(1, 8)) == 1
    assert poch_inf(1, 2, 4).lo <= 0 and poch_inf_lower(1, 2, 4) == 0
    with pytest.raises(ValueError):
        poch_inf_lower(2, 2, F(1, 8))
    with pytest.raises(ValueError):
        poch_inf_lower(1, 2, 0)
