"""The series kernels in qchains.qalgebra against direct oracles: schoolbook
convolution and exact Fraction arithmetic."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchains import qalgebra

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


@KERNELS
@settings(max_examples=60, deadline=None)
@given(a=coeff_lists, r=st.integers(min_value=1, max_value=6), order=orders)
def test_geom_inv_mul_matches_conv(impl, a, r, order):
    geom = [1 if n % r == 0 else 0 for n in range(order + 1)]
    assert impl.geom_inv_mul(a, r, order) == naive_conv(a, geom, order)


def test_geom_inv_mul_rejects_bad_stride():
    with pytest.raises(ValueError):
        qalgebra.geom_inv_mul([1], 0, 3)
