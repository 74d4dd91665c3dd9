"""The series kernels in qchains.qalgebra against direct oracles: schoolbook
convolution and exact Fraction arithmetic."""

import sys
from array import array
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchains import qalgebra
from qchains.qalgebra import QSeries

# the kernels are pure Python; the id keeps the test names stable
KERNELS = pytest.mark.parametrize("impl", [qalgebra], ids=["python"])

BIG = 2**200

ints = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-BIG, max_value=BIG),
)
coeff_lists = st.one_of(
    st.lists(ints, min_size=1, max_size=12),
    st.lists(st.just(0), min_size=1, max_size=12),
)
# above len(a)+len(b)-1 as often as below len(a)
orders = st.integers(min_value=0, max_value=30)


def naive_conv(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return out


@KERNELS
@settings(max_examples=150, deadline=None)
@given(a=coeff_lists, b=coeff_lists, order=orders)
@example(a=[BIG] * 7, b=[BIG] * 7, order=6)  # a slot at exactly the bound
@example(a=[BIG] * 7, b=[-BIG] * 7, order=12)
@example(a=[255], b=[1], order=0)  # bounds of whole bytes need the sign bit
@example(a=[BIG - 1, 1], b=[-1], order=3)
@example(a=[-1, 1] * 6, b=[1] * 12, order=30)
@example(a=[255, -256, 127, -128], b=[255, -256, 127, -128], order=6)
def test_conv_matches_naive(impl, a, b, order):
    assert impl.conv_trunc(a, b, order) == naive_conv(a, b, order)


def _sharp_lists(bound, sign):
    """(a, b) with max|a| * max|b| * min(len) == bound, whose convolution
    reaches +-bound: a holds L copies of bound / L for the largest divisor
    L <= 128 of bound, and b holds 200 entries of magnitude 1.  sign is
    "nonneg" (every entry >= 0), "neg" (the convolution reaches -bound) or
    "mixed" (b ends in -1 and the convolution reaches +bound)."""
    size = max(d for d in range(1, 129) if bound % d == 0)
    a = [bound // size] * size
    b = {"nonneg": [1] * 200, "neg": [-1] * 200, "mixed": [1] * 199 + [-1]}[sign]
    return a, b


@KERNELS
@pytest.mark.parametrize("sign", ["nonneg", "neg", "mixed"])
@pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
@pytest.mark.parametrize("width", range(1, 10))
def test_conv_at_every_slot_width(impl, width, offset, sign):
    # a bound of 2^(8w-1) - 1 fits a slot of w bytes; 2^(8w-1) needs w + 1
    a, b = _sharp_lists(2 ** (8 * width - 1) + offset, sign)
    for order in (len(a) + len(b) - 2, len(a) + len(b), 150):
        assert impl.conv_trunc(a, b, order) == naive_conv(a, b, order)
        assert impl.conv_trunc(b, a, order) == naive_conv(b, a, order)


def test_slot_codes_are_the_narrowest_wide_enough():
    # on a big-endian machine every slot is packed byte by byte
    if sys.byteorder != "little":
        assert qalgebra._SLOT_CODES == {}
        return
    assert sorted(qalgebra._SLOT_CODES) == list(range(1, 9))
    for width, (code, size) in qalgebra._SLOT_CODES.items():
        assert size == array(code).itemsize >= width
        assert not any(width <= array(c).itemsize < size for c in "bhilq")


long_lists = st.lists(ints, min_size=1, max_size=201)


@KERNELS
@settings(max_examples=60, deadline=None)
@given(a=long_lists, r=st.integers(min_value=1, max_value=40),
       order=st.integers(min_value=0, max_value=200))
@example(a=list(range(-100, 101)), r=7, order=200)
def test_geom_inv_mul_matches_conv(impl, a, r, order):
    geom = [1 if n % r == 0 else 0 for n in range(order + 1)]
    assert impl.geom_inv_mul(a, r, order) == naive_conv(a, geom, order)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12),
       offset=st.sampled_from([0, 1, 5]))
def test_mul_one_minus_pow_matches_fraction_oracle(coeffs, offset):
    # e = order, and e > order where the product is the series itself
    order = len(coeffs) - 1
    e = max(order + offset, 1)
    factor = [F(1)] + [F(0)] * (e - 1) + [F(-1)]
    expected = [
        sum(coeffs[i] * factor[n - i] for i in range(n + 1) if n - i < len(factor))
        for n in range(order + 1)
    ]
    assert QSeries(coeffs).mul_one_minus_pow(e).coeffs == tuple(expected)


def test_geom_inv_mul_rejects_bad_stride():
    with pytest.raises(ValueError):
        qalgebra.geom_inv_mul([1], 0, 3)


def chained(a, strides, order):
    out = list(a[: order + 1]) + [0] * (order + 1 - len(a))
    for r in strides:
        out = qalgebra.geom_inv_mul(out, r, order)
    return out


def partition_numbers(top):
    """p(0..top) by Euler's pentagonal recurrence."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * (p[n - g1] + (p[n - g2] if g2 <= n else 0))
            k += 1
        p[n] = total
    return p


@settings(max_examples=150, deadline=None)
@given(a=st.lists(ints, max_size=45),
       strides=st.lists(st.integers(min_value=1, max_value=45), unique=True,
                        max_size=12),
       order=st.integers(min_value=0, max_value=40))
@example(a=[BIG, -BIG, 1], strides=[], order=5)  # no strides
@example(a=[-1] * 9, strides=[3, 50], order=8)  # a stride above the order
@example(a=[-BIG, 7], strides=[1, 2], order=0)  # order 0
@example(a=[1, -1] * 20, strides=list(range(1, 13)), order=3)  # longer than order+1
@example(a=[-1], strides=[1, 2, 3], order=40)  # shorter than order+1
@example(a=[0, 0, 0], strides=[1], order=4)
def test_geom_inv_prod_matches_chained_geom_inv_mul(a, strides, order):
    assert qalgebra.geom_inv_prod(a, strides, order) == chained(a, strides, order)


@pytest.mark.parametrize("top", [1, 2, 50, 1000])
@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 200])
def test_geom_inv_prod_at_the_slot_bound(top, bits):
    # every stride 1..N on a single coefficient: the product is c p(n), the
    # largest a coefficient of this kernel can be
    p = partition_numbers(top)
    for c in (2**bits - 1, -(2**bits - 1)):
        got = qalgebra.geom_inv_prod([c], range(1, top + 1), top)
        assert got == [c * v for v in p]


def test_partition_bound_premise():
    # p(n) < exp(pi sqrt(2n/3)) < 2^(3.701 (isqrt(n) + 1)), the slot bound of
    # geom_inv_prod, checked on exact p(n)
    p = partition_numbers(1000)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190569292
    for n, v in enumerate(p):
        assert v < 2 ** (3701 * (isqrt(n) + 1) // 1000 + 1), n


@pytest.mark.parametrize("strides", [[1, 1], [2, 5, 2], [0], [3, -1], [-4]])
def test_geom_inv_prod_rejects_repeated_or_nonpositive_strides(strides):
    with pytest.raises(ValueError):
        qalgebra.geom_inv_prod([1, 2, 3], strides, 10)
