"""The exact-matrix layer on integer Pochhammer numerators against the
per-factor reduced-Fraction formulas, written out here: every Pochhammer
symbol below is a product of Fractions (1 - x/q^k), one reduced Fraction
per factor, with no qchains table read."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchains.fristedt import (
    FristedtParams,
    f_diag_rows,
    f_kernel,
    f_kernel_rows,
    f_kr_closed,
)
from qchains.glchain import (
    diag_rows,
    eigen_failures,
    first_col_unnormalized,
    kernel,
    kernel_rows,
    kr_closed,
)
from qchains.partitions import MeasureParams
from qchains.qalgebra import poch_ints


def _desc(x, q, top):
    """[prod_{k=1..n} (1 - x/q^k) for n = 0..top], a Fraction per factor."""
    out = [F(1)]
    for k in range(1, top + 1):
        out.append(out[-1] * (1 - x / q**k))
    return out


def _binom2(n):
    return n * (n - 1) // 2


class _GLOracle:
    """The kernel, first-column mass, diagonalization and K^r of the GL
    chain from the (1/q)_n and (u/q)_n products."""

    def __init__(self, p, top):
        self.u, self.q = p.u, p.q
        self.iq = _desc(F(1), p.q, top)
        self.uq = _desc(p.u, p.q, top)

    def kernel(self, a, b):
        if not 0 <= b <= a:
            return F(0)
        u, q, iq, uq = self.u, self.q, self.iq, self.uq
        return u**b * iq[a] * uq[a] / (q ** (b * b) * iq[a - b] * iq[b] * uq[b])

    def first_col(self, a):
        return self.u**a / (self.q ** (a * a) * self.iq[a] * self.uq[a])

    def eig(self, j):
        return self.u**j / self.q ** (j * j)

    def diag(self, name, i, j):
        """Entry (i, j) of C, M, A, A^-1 or E."""
        u, q, iq, uq = self.u, self.q, self.iq, self.uq
        if j > i or (name in ("c", "e") and i != j):
            return F(0)
        if name == "c":
            return iq[i] * uq[i]
        if name == "e":
            return self.eig(i)
        if name == "m":
            return self.eig(j) / iq[i - j]
        if name == "a":
            return 1 / (iq[i - j] * uq[i + j])
        if i == 0:
            return F(1)  # the extended entry
        d = i - j
        return ((1 - u / q ** (2 * i)) * (-1) ** d * uq[i + j - 1]
                / (q ** _binom2(d) * iq[d]))

    def power(self, l, j, r):
        """K^r(l, j) by the spectral sum: head(l, n, r) tail(n, j)."""
        u, q, iq, uq = self.u, self.q, self.iq, self.uq
        total = F(0)
        for n in range(j, l + 1):
            head = iq[l] * uq[l] / (iq[l - n] * uq[l + n]) * self.eig(n) ** r
            if n == 0:
                tail = F(1)
            else:
                d = n - j
                tail = ((1 - u / q ** (2 * n)) * uq[n + j - 1] * (-1) ** d
                        / (q ** _binom2(d) * iq[d] * iq[j] * uq[j]))
            total += head * tail
        return total


def _square(size, entry):
    return tuple(tuple(entry(i, j) for j in range(size)) for i in range(size))


def _entries(rows):
    """The square of entries of lower-triangular canonical rows."""
    rows = list(rows)
    return tuple(tuple(F(n, den) for n in nums) + (F(0),) * (len(rows) - len(nums))
                 for nums, den in rows)


def _check_diag_rows(rows, o, e_name):
    """The rows of M, A, A^-1, C and E (or D) against the oracle's entries,
    and K = C M C^-1 against its kernel."""
    rows = list(rows)
    size = len(rows)
    for k, name in enumerate(("m", "a", "a_inv")):
        square = _square(size, lambda i, j: o.diag(name, i, j))
        assert _entries(row[k] for row in rows) == square, name
    for k, name in ((3, "c"), (4, "e")):
        assert [row[k] for row in rows] == [o.diag(name, i, i) for i in range(size)], name
    assert eigen_failures(rows, e_name, o.kernel) == []


# q > 1 with small numerators and denominators; u in (0, 1]
_Q = st.fractions(min_value=F(8, 7), max_value=5, max_denominator=7)
_U = st.one_of(st.just(F(1)), st.fractions(min_value=0, max_value=1,
                                           max_denominator=9).filter(bool))
_GL = st.builds(MeasureParams, u=_U, q=_Q)
# always drawn: u = 1, and the non-integer q 5/2 and 7/5
_FIXED = [MeasureParams(F(1), F(2)), MeasureParams(F(1), F(5, 2)),
          MeasureParams(F(2, 5), F(5, 2)), MeasureParams(F(1, 3), F(7, 5)),
          MeasureParams(F(1), F(7, 5))]


def _with_fixed(**args):
    def add(test):
        for p in _FIXED:
            test = example(p=p, **args)(test)
        return test

    return add


@settings(max_examples=25, deadline=None)
@given(p=_GL)
@_with_fixed()
def test_gl_entries_equal_the_fraction_formulas(p):
    size = 13
    o = _GLOracle(p, 2 * size)
    for a in range(size):
        assert first_col_unnormalized(a, p) == o.first_col(a), a
        for b in range(-1, a + 2):
            assert kernel(a, b, p) == o.kernel(a, b), (a, b)
    assert _entries(kernel_rows(size - 1, p)) == _square(size, o.kernel)
    _check_diag_rows(diag_rows(size - 1, p), o, "E")


@settings(max_examples=25, deadline=None)
@given(p=_GL, l=st.integers(0, 20), r=st.integers(1, 6))
@_with_fixed(l=20, r=6)
@example(p=MeasureParams(F(1, 2), F(5, 2)), l=20, r=1)
@example(p=MeasureParams(F(1), F(2)), l=0, r=3)
def test_kr_closed_equals_the_fraction_spectral_sum(p, l, r):
    o = _GLOracle(p, 2 * l + 1)
    for j in range(l + 1):
        assert kr_closed(l, j, r, p) == o.power(l, j, r), j


class _FristedtOracle:
    def __init__(self, q, top):
        self.q = q
        self.qs = _desc(F(1), 1 / q, top)  # (q)_n
        self.iqs = _desc(F(1), q, top)  # (1/q)_n

    def kernel(self, a, b):
        if not 0 <= b <= a:
            return F(0)
        return self.q**b * self.qs[a] / self.qs[b]

    def diag(self, name, i, j):
        q, qs, iqs = self.q, self.qs, self.iqs
        if j > i or (name in ("c", "e") and i != j):
            return F(0)
        if name == "c":
            return qs[i] / q**i
        if name in ("m", "e"):
            return q**i
        d = i - j
        if name == "a":
            return (-1) ** d / (q ** _binom2(d) * iqs[d])
        return 1 / iqs[d]

    def power(self, l, j, r):
        q, qs, iqs = self.q, self.qs, self.iqs
        return (q**j * q ** (l * (r - 1)) * qs[l] * iqs[l - j + r - 1]
                / (qs[j] * iqs[l - j] * iqs[r - 1]))


@settings(max_examples=12, deadline=None)
@given(q=st.sampled_from([F(1, 2), F(2, 3), F(4, 5)]), l=st.integers(0, 20),
       r=st.integers(1, 6))
@example(q=F(4, 5), l=20, r=6)
@example(q=F(2, 3), l=0, r=1)
def test_fristedt_equals_the_fraction_formulas(q, l, r):
    p = FristedtParams(q)
    size = 13
    o = _FristedtOracle(q, l + r + size)
    for a in range(size):
        for b in range(-1, a + 2):
            assert f_kernel(a, b, p) == o.kernel(a, b), (a, b)
    assert _entries(f_kernel_rows(size - 1, p)) == _square(size, o.kernel)
    _check_diag_rows(f_diag_rows(size - 1, p), o, "D")
    for j in range(l + 1):
        assert f_kr_closed(l, j, r, p) == o.power(l, j, r), j


@settings(max_examples=40, deadline=None)
@given(x=_U, q=_Q, a=st.integers(0, 30), b=st.integers(0, 30))
@example(x=F(1), q=F(7, 5), a=30, b=11)
@example(x=F(2, 3), q=F(4), a=17, b=17)
@example(x=F(1), q=F(10, 9), a=25, b=0)
def test_integer_numerators_and_their_exact_quotients(x, q, a, b):
    b = min(a, b)
    n, ones = poch_ints(x, q), poch_ints(1, q)
    values = _desc(x, q, a)
    for k in (0, b, a):  # over the closed-form denominator x_d^k c^(k(k+1)/2)
        den = x.denominator**k * q.numerator ** (k * (k + 1) // 2)
        assert F(n[k], den) == values[k], k
    assert n[a] % n[b] == 0  # G(b+1..a)
    assert ones[a] % (ones[b] * ones[a - b]) == 0  # [a; b]
