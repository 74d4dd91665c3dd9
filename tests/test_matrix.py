"""The row-wise integer matrix layer (canonical rows, row-vector products,
powers) against plain-Fraction oracles, and the row generators and closed
forms against their entry formulas."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchains.fristedt import (
    FristedtParams,
    f_diag_rows,
    f_kernel,
    f_kernel_rows,
)
from qchains.glchain import (
    _columns,
    _common_den,
    _reduced,
    _times,
    diag_rows,
    kernel,
    kernel_rows,
    kr_closed,
    power_rows,
)
from qchains.partitions import MeasureParams
from qchains.qalgebra import poch_table

# ---------------------------------------------------------------------------
# The layer against a square of Fractions

# mixed denominators, negative entries and many exact zeros
_ENTRY = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)


@st.composite
def _lower(draw, size):
    """A size x size lower-triangular square of Fractions; some rows zero."""
    square = []
    for i in range(size):
        if draw(st.booleans()) and draw(st.booleans()):
            row = [F(0)] * (i + 1)
        else:
            row = draw(st.lists(_ENTRY, min_size=i + 1, max_size=i + 1))
        square.append(row + [F(0)] * (size - 1 - i))
    return square


@st.composite
def _pair(draw):
    size = draw(st.integers(1, 6))
    vec = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    return draw(_lower(size)), draw(_lower(size)), vec


def _oracle_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n)]
            for i in range(n)]


def _rows(square):
    """The canonical rows of a lower-triangular square of Fractions."""
    return [_reduced(*_common_den(row[:i + 1])) for i, row in enumerate(square)]


def _build(size, fn):
    """The canonical rows of the matrix with entries fn(i, j), j <= i < size."""
    return _rows([[fn(i, j) for j in range(i + 1)] for i in range(size)])


_SIZE_ONE = ([[F(-3, 4)]], [[F(0)]], [F(5, 6)])
_SIZE_TWO = (
    [[F(1, 2), F(0)], [F(-2, 3), F(0)]],
    [[F(0), F(0)], [F(7, 5), F(-1, 6)]],
    [F(0), F(-9, 4)],
)


@settings(max_examples=150, deadline=None)
@given(case=_pair())
@example(case=_SIZE_ONE)
@example(case=_SIZE_TWO)
def test_layer_matches_the_fraction_oracle(case):
    a, b, vec = case
    n = len(a)
    ra, rb = _rows(a), _rows(b)
    assert [[F(c, den) for c in row] + [F(0)] * (n - len(row))
            for row, den in ra] == a
    assert (ra == rb) == (a == b)
    halves = _rows([[x / 2 for x in row] for row in a])
    assert (halves == ra) == (not any(map(any, a)))

    # row i of A B is row i of A times B, over row i's denominator
    cols = _columns(rb)
    oracle = _oracle_matmul(a, b)
    for i, (row, den) in enumerate(ra):
        nums, d = _times(row, rb, cols)
        assert [F(c, den * d) for c in nums] == oracle[i][:i + 1]
        assert _reduced(nums, den * d) == _rows(oracle)[i]

    # a row vector of exact rationals, over one denominator, times B
    nums, den = _common_den(vec)
    prod, d = _times(nums, rb, cols)
    assert [F(c, den * d) for c in prod] == [
        sum((vec[k] * b[k][j] for k in range(n)), F(0)) for j in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(case=_pair(), r=st.integers(0, 4))
@example(case=_SIZE_TWO, r=3)
def test_power_entry_matches_the_fraction_oracle(case, r):
    a, _, _ = case
    n = len(a)
    powers = [[[F(int(i == j)) for j in range(n)] for i in range(n)]]
    for _ in range(r):
        powers.append(_oracle_matmul(powers[-1], a))
    rows = _rows(a)
    cols = _columns(rows)
    for i in range(n):
        got = [[F(c, den) for c in row] for row, den in power_rows(rows, cols, i, r)]
        assert got == [power[i][:i + 1] for power in powers[1:]], i


def test_rows_are_canonical():
    # equal rows from different spellings have equal ints
    assert _reduced([3, -18], 6) == ((1, -6), 2)
    assert _reduced([0, 0], 5) == ((0, 0), 1)
    # every generator row: gcd(den, *row) == 1 and den > 0
    rows = []
    # at u = 2/3, q = 2 row a of the kernel has a common factor 2^a
    for p in (MeasureParams(F(1, 2), F(2)), MeasureParams(F(2, 5), F(5, 2)),
              MeasureParams(F(2, 3), F(2))):
        rows += kernel_rows(12, p)
        rows += (pair for row in diag_rows(12, p) for pair in row[:3])
    for q in (F(1, 2), F(2, 5)):
        p = FristedtParams(q=q)
        rows += f_kernel_rows(12, p)
        rows += (pair for row in f_diag_rows(12, p) for pair in row[:3])
    assert len(rows) == 5 * 4 * 13
    for nums, den in rows:
        assert den > 0 and gcd(den, *nums) == 1, (nums, den)


# ---------------------------------------------------------------------------
# Row generators against the entry formulas

_GL_PARAMS = [
    MeasureParams(u=F(1, 2), q=F(2)),
    MeasureParams(u=F(1, 3), q=F(3)),
    MeasureParams(u=F(2, 5), q=F(5, 2)),
    MeasureParams(u=F(1), q=F(2)),
]
_GL_IDS = ["u=1/2,q=2", "u=1/3,q=3", "u=2/5,q=5/2", "u=1,q=2"]


@pytest.mark.parametrize("p", _GL_PARAMS, ids=_GL_IDS)
def test_gl_builds_match_the_entry_formulas(p):
    size = 13
    u, q = p.u, p.q

    def iq(n):
        return poch_table(1 / q, q)[n]

    def uq(n):
        return poch_table(u / q, q)[n]

    def a_inv(i, j):
        if i == 0:
            return F(1)
        d = i - j
        sign = -1 if d % 2 else 1
        return (sign * (1 - u / q ** (2 * i)) * uq(i + j - 1)
                / (q ** (d * (d - 1) // 2) * iq(d)))

    assert list(kernel_rows(size - 1, p)) == _build(size, lambda i, j: kernel(i, j, p))
    m, a, inv, c, e = zip(*diag_rows(size - 1, p))
    assert c == tuple(iq(i) * uq(i) for i in range(size))
    assert e == tuple(u**j / q ** (j * j) for j in range(size))
    assert list(m) == _build(size, lambda i, j: u**j / (q ** (j * j) * iq(i - j)))
    assert list(a) == _build(size, lambda i, j: 1 / (iq(i - j) * uq(i + j)))
    assert list(inv) == _build(size, a_inv)


@pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(2, 5)], ids=str)
def test_fristedt_builds_match_the_entry_formulas(q):
    size = 13
    p = FristedtParams(q=q)

    def iqs(n):
        return poch_table(1 / q, q)[n]

    def qs(n):
        return poch_table(q, 1 / q)[n]

    assert list(f_kernel_rows(size - 1, p)) == _build(
        size, lambda i, j: f_kernel(i, j, p)
    )
    m, a, inv, c, e = zip(*f_diag_rows(size - 1, p))
    assert c == tuple(qs(i) / q**i for i in range(size))
    assert e == tuple(q**i for i in range(size))
    assert list(m) == _build(size, lambda i, j: q**i)
    assert list(a) == _build(
        size,
        lambda i, j: (-1) ** (i - j) / (q ** ((i - j) * (i - j - 1) // 2) * iqs(i - j)),
    )
    assert list(inv) == _build(size, lambda i, j: 1 / iqs(i - j))


# ---------------------------------------------------------------------------
# The hoisted closed form against its spectral sum, term by term


def _kr_terms(l, j, r, p):
    """K^r(l, j) summed over n = j..l with every factor recomputed."""
    u, q = p.u, p.q

    def iq(n):
        return poch_table(1 / q, q)[n]

    def uq(n):
        return poch_table(u / q, q)[n]

    total = F(0)
    for n in range(j, l + 1):
        core = F(1) if n + j == 0 else (1 - u / q ** (2 * n)) * uq(n + j - 1)
        d = n - j
        den = q ** (r * n * n) * iq(l - n) * uq(l + n) * q ** (d * (d - 1) // 2) * iq(d)
        total += u ** (r * n) * core * (-1) ** d / den
    return iq(l) * uq(l) / (iq(j) * uq(j)) * total


@pytest.mark.parametrize("p", _GL_PARAMS, ids=_GL_IDS)
def test_kr_closed_matches_the_term_by_term_sum(p):
    for r in (1, 2, 5):
        for l in range(9):
            for j in range(l + 1):
                assert kr_closed(l, j, r, p) == _kr_terms(l, j, r, p), (l, j, r)
    assert kr_closed(0, 0, 1, p) == 1
