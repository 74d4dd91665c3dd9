"""Geometric-weight chain: kernel, diagonalization, closed-form powers, the
limiting row law against an enumeration oracle, and conditional uniformity."""

import tracemalloc
from fractions import Fraction as F

import pytest

from qchains import fristedt
from qchains.fristedt import (
    FristedtParams,
    f_chain_mass,
    f_diag_rows,
    f_kernel,
    f_kernel_rows,
    f_kr_closed,
    f_sample_stream,
    first_row_unnormalized,
    row_law_limit,
    weight_normalizer,
)
from qchains.glchain import _columns, eigen_failures, power_rows
from qchains.partitions import enumerate_partitions
from qchains.qalgebra import QSeries, poch_table

Q12 = FristedtParams(q=F(1, 2))
Q13 = FristedtParams(q=F(1, 3))


def inv_euler_poch(n, order):
    """1/((1-x)(1-x^2)...(1-x^n)) to the given order: it counts the
    partitions with parts at most n."""
    s = QSeries.one(order)
    for r in range(1, n + 1):
        s = s.mul_geom_inv(r)
    return s


def test_params_validation():
    with pytest.raises(ValueError):
        FristedtParams(q=F(2))
    with pytest.raises(ValueError):
        FristedtParams(q=F(0))


def test_uniform_mass_normalization():
    # partition generating function gives the partial sums without
    # enumerating: sum_n p(n) q^n with p(n) from 1/prod(1-x^s)
    order = 64
    counts = inv_euler_poch(order, order)
    z = weight_normalizer(Q12, F(1, 10**14))
    total = F(0)
    prev = F(-1)
    for n in range(order + 1):
        total += int(counts.coeffs[n]) * Q12.q**n
        assert total > prev
        prev = total
    tol = F(1, 10**10)
    assert 1 - total * z.lo < tol
    assert total * z.hi < 1 + tol


def test_kernel_values_and_rows():
    assert f_kernel(0, 0, Q12) == 1
    for a in range(6):
        assert f_kernel(a, a, Q12) == Q12.q**a
    assert f_kernel(2, 3, Q12) == 0
    assert f_kernel(2, -1, Q12) == 0
    for p in (Q12, Q13):
        for a in range(41):
            assert sum(f_kernel(a, b, p) for b in range(a + 1)) == 1, a


def test_diagonalization_hand_expansions():
    rows = list(f_diag_rows(5, Q12))
    m, a, a_inv = ([[F(n, den) for n in nums] for nums, den in (row[k] for row in rows)]
                   for k in range(3))
    d = [row[4] for row in rows]
    q = Q12.q
    assert a[1][0] == -1 / (1 - 1 / q)
    assert a_inv[1][0] == 1 / (1 - 1 / q)
    assert a[1][0] * a_inv[0][0] + a[1][1] * a_inv[1][0] == 0  # (A A^-1)(1, 0)
    # (M A)(1, 0) and (A D)(1, 0)
    assert m[1][0] * a[0][0] + m[1][1] * a[1][0] == a[1][0] * d[0] == -1 / (1 - 1 / q)
    assert tuple(d) == tuple(q**j for j in range(6))


@pytest.mark.parametrize("p", [Q12, Q13], ids=["q=1/2", "q=1/3"])
def test_diagonalization_identities(p):
    # A A^-1 = I, M A = A D and K = C M C^-1 against f_kernel()
    rows = f_diag_rows(12, p)
    assert eigen_failures(rows, "D", lambda a, b: f_kernel(a, b, p)) == []


def test_kr_closed_reduces_to_kernel():
    for ll in range(9):
        for j in range(ll + 1):
            assert f_kr_closed(ll, j, 1, Q12) == f_kernel(ll, j, Q12)


def test_kr_closed_two_step_by_hand():
    got = f_kr_closed(3, 1, 2, Q12)
    direct = sum(f_kernel(3, m, Q12) * f_kernel(m, 1, Q12) for m in range(4))
    assert got == direct


def test_kr_closed_absorbing():
    for r in range(1, 9):
        assert f_kr_closed(0, 0, r, Q12) == 1


@pytest.mark.parametrize("p", [Q12, Q13], ids=["q=1/2", "q=1/3"])
def test_kr_closed_matches_matrix_powers(p):
    l_max, r_max = 10, 5
    rows = list(f_kernel_rows(l_max, p))
    cols = _columns(rows)
    for ll in range(l_max + 1):
        for r, (row, den) in enumerate(power_rows(rows, cols, ll, r_max), 1):
            for j in range(ll + 1):
                assert f_kr_closed(ll, j, r, p) == F(row[j], den), (ll, j, r)


def test_row_law_edge_case():
    iv = row_law_limit(1, 0, Q12, F(1, 10**10))
    z = weight_normalizer(Q12, F(1, 10**10))
    assert (iv.lo, iv.hi) == (z.lo, z.hi)


def test_row_law_sums_to_one():
    eps = F(1, 10**9)
    z = weight_normalizer(Q12, F(1, 10**14))
    for r in range(1, 5):
        total_lo = F(0)
        total_hi = F(0)
        # geometric tail: terms j > J bounded by hi * q^(rj) / ((q)_inf_lo (q)_{r-1})
        J = 200
        for j in range(J + 1):
            iv = row_law_limit(r, j, Q12, F(1, 10**14))
            total_lo += iv.lo
            total_hi += iv.hi
        tail_hi = (
            z.hi
            * Q12.q ** (r * (J + 1))
            / (1 - Q12.q**r)
            / (z.lo * poch_table(Q12.q, 1 / Q12.q)[r - 1])
        )
        assert total_lo <= 1 <= total_hi + tail_hi
        assert 1 - total_lo < eps


def test_row_law_against_enumeration():
    """Sum q^|lam| over enumerated partitions with lam_r = j, with a certified
    tail for sizes beyond the cap, must bracket the closed form."""
    cap = 40
    q = Q12.q
    z = weight_normalizer(Q12, F(1, 10**14))
    counts = inv_euler_poch(cap, cap)
    sums = {}
    partial = F(0)
    for n in range(cap + 1):
        for lam in enumerate_partitions(n):
            partial += q**n
            for r in (1, 2, 3):
                j = lam[r - 1] if r <= len(lam) else 0
                if j <= 3:
                    sums[r, j] = sums.get((r, j), F(0)) + q**n
    # total weight of all partitions is 1/(q)_inf; the cap tail bounds errors
    full = sum(int(counts.coeffs[n]) * q**n for n in range(cap + 1))
    tail = 1 / z.lo - full
    assert 0 < tail < F(1, 10**6)
    for r in (1, 2, 3):
        for j in range(4):
            iv = row_law_limit(r, j, Q12, F(1, 10**14))
            s = sums.get((r, j), F(0))
            enum_iv_lo = s * z.lo
            enum_iv_hi = (s + tail) * z.hi
            assert enum_iv_lo <= iv.hi and iv.lo <= enum_iv_hi, (r, j)


def test_row_law_square_decomposition():
    """Formal-series version of the enumeration oracle: partitions with
    lam_r = j are an r*j square plus a partition with < r rows and one with
    <= j columns."""
    order = 40
    counts = {}
    for n in range(order + 1):
        for lam in enumerate_partitions(n):
            for r in (1, 2, 3):
                j = lam[r - 1] if r <= len(lam) else 0
                counts.setdefault((r, j), [0] * (order + 1))[n] += 1
    for r in (1, 2, 3):
        for j in range(4):
            got = QSeries(counts.get((r, j), [0] * (order + 1)), order=order)
            rows = inv_euler_poch(r - 1, order)
            cols = inv_euler_poch(j, order)
            expect = (rows * cols).shift(r * j).truncate(order)
            # beyond order - r*j the shifted product is unknown; compare there
            assert got.truncate(expect.order) == expect, (r, j)


def test_chain_mass_is_geometric_and_transpose_invariant():
    for p in (Q12, Q13):
        for n in range(11):
            for lam in enumerate_partitions(n):
                assert f_chain_mass(lam, p) == p.q**n
                assert f_chain_mass(lam.conjugate(), p) == f_chain_mass(lam, p)


def test_first_row_matches_row_law():
    # lim_L K(L, a) = q^a (q)_inf / (q)_a equals the r = 1 row law
    for a in range(6):
        iv = row_law_limit(1, a, Q12, F(1, 10**10))
        ratio = first_row_unnormalized(a, Q12)
        z = weight_normalizer(Q12, F(1, 10**10))
        assert (iv.lo, iv.hi) == ((z.scale(ratio)).lo, (z.scale(ratio)).hi)


def test_sampler_determinism_and_rows():
    s1 = next(f_sample_stream(Q12, 11, 1))
    s2 = next(f_sample_stream(Q12, 11, 1))
    assert s1 == s2
    for s in f_sample_stream(Q12, 42, 200):
        rows = s.columns
        assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))
        assert s.partition.parts == rows
    data = s1.to_json(model="fristedt")
    assert data["model"] == "fristedt"


@pytest.mark.parametrize("q, most", [("4/5", 300_000), ("9/10", 1_500_000)])
def test_sampler_build_holds_no_table_of_weights(q, most):
    """A cold sampler build holds the first step's cut points and a few long
    integers, not the integers behind them: about 200 of up to 50k bits at
    q = 4/5 and 440 of up to 300k bits at q = 9/10, which peaked at 1.4
    and 19 MB."""
    fristedt._sampler.cache_clear()
    tracemalloc.start()
    try:
        fristedt._sampler(FristedtParams(q=F(q)), F(1, 2**20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most
