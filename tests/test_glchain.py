"""Kernel, first-column law, diagonalization, closed-form powers, chain mass,
and the exact sampler of the GL-measure chain."""

import inspect
import random
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate
from math import prod
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchains import fristedt, glchain
from qchains.glchain import (
    _columns,
    _reduced,
    _times,
    chain_mass,
    diag_rows,
    eigen_failures,
    first_col_law,
    first_col_unnormalized,
    kernel,
    kernel_rows,
    kr_closed,
    power_rows,
    sample_stream,
)
from qchains.partitions import (
    MeasureParams,
    Partition,
    enumerate_partitions,
    mass_v1,
)
from qchains.qalgebra import poch_inf, poch_table

P12 = MeasureParams(u=F(1, 2), q=F(2))
P13 = MeasureParams(u=F(1, 3), q=F(3))


def test_kernel_values():
    assert kernel(0, 0, P12) == 1
    assert kernel(1, 1, P12) == F(1, 4)  # u/q
    assert kernel(1, 0, P12) == F(3, 4)
    for a in range(7):
        assert kernel(a, 0, P12) == poch_table(F(1, 4), F(2))[a]  # (u/q)_a


def test_kernel_vanishes_off_support():
    assert kernel(3, 4, P12) == 0
    assert kernel(3, -1, P12) == 0
    with pytest.raises(ValueError):
        kernel(-1, 0, P12)


@pytest.mark.parametrize("p", [P12, P13], ids=["u=1/2,q=2", "u=1/3,q=3"])
def test_kernel_rows_sum_to_one(p):
    for a in range(41):
        assert sum(kernel(a, b, p) for b in range(a + 1)) == 1, a


def test_first_col_values():
    # P(0) is exactly the infinite product interval
    iv = first_col_law(0, P12, F(1, 10**8))
    ref = poch_inf(F(1, 2), F(2), F(1, 10**8))
    assert (iv.lo, iv.hi) == (ref.lo, ref.hi)
    # exact prefactor of P(1) at (1/2, 2) is 2/3
    assert first_col_unnormalized(1, P12) == F(2, 3)
    with pytest.raises(ValueError):
        first_col_law(0, MeasureParams(u=F(1), q=F(2)), F(1, 100))


def test_first_col_sums_to_one():
    z = poch_inf(P12.u, P12.q, F(1, 10**14))
    s = sum(first_col_unnormalized(a, P12) for a in range(31))
    tol = F(1, 10**10)
    assert 1 - s * z.lo < tol
    assert s * z.hi < 1 + tol


def test_second_proof_recursion():
    # sum_{b<=a} P(b) u^a / (P(a) q^(a^2) (1/q)_{a-b}) = 1, with P-ratios
    for p in (P12, P13):
        u, q = p.u, p.q
        for a in range(21):
            pa = first_col_unnormalized(a, p)
            total = sum(
                first_col_unnormalized(b, p)
                * u**a
                / (pa * q ** (a * a) * poch_table(1 / q, q)[a - b])
                for b in range(a + 1)
            )
            assert total == 1, a


def test_diagonalization_entries_and_eigenvalues():
    rows = list(diag_rows(6, P12))
    assert rows[0][2] == ((1,), 1)  # A^-1(0, 0)
    u, q = P12.u, P12.q
    eigenvalues = tuple(row[4] for row in rows)
    assert eigenvalues == tuple(u**j / q ** (j * j) for j in range(7))
    assert eigenvalues[0] == 1  # absorbing eigenvalue
    # M, A and A^-1 are lower triangular: row i holds entries 0..i only
    for i, row in enumerate(rows):
        assert [len(nums) for nums, _ in row[:3]] == [i + 1] * 3


@pytest.mark.parametrize("p", [P12, P13], ids=["u=1/2,q=2", "u=1/3,q=3"])
def test_diagonalization_identities(p):
    # A A^-1 = I, M A = A E and K = C M C^-1 against kernel()
    rows = diag_rows(14, p)
    assert eigen_failures(rows, "E", lambda a, b: kernel(a, b, p)) == []


def test_diagonalization_at_u_equal_one():
    p = MeasureParams(u=F(1), q=F(2))
    rows = list(diag_rows(8, p))
    assert rows[0][2] == ((1,), 1)  # limit value
    assert eigen_failures(rows, "E") == []


def _m_times_a(l_max, p):
    """The canonical rows of M A on 0..l_max."""
    rows = list(diag_rows(l_max, p))
    a = [row[1] for row in rows]
    cols = _columns(a)
    product = []
    for (m, m_den), *_ in rows:
        nums, d = _times(m, a, cols)
        product.append(_reduced(nums, m_den * d))
    return product


def test_truncation_commutes_with_products():
    # lower-triangular truncations multiply like the infinite matrices: the
    # top rows of a bigger product equal the smaller product
    small, big = 8, 14
    assert list(diag_rows(small, P12)) == list(diag_rows(big, P12))[:small + 1]
    assert _m_times_a(small, P12) == _m_times_a(big, P12)[:small + 1]


def test_kr_closed_absorbing_state():
    for r in range(1, 9):
        assert kr_closed(0, 0, r, P12) == 1


def test_kr_closed_r1_is_kernel():
    for ll in range(11):
        for j in range(ll + 1):
            assert kr_closed(ll, j, 1, P12) == kernel(ll, j, P12)


def test_kr_closed_past_the_recursion_limit():
    # reads (u/q)_1039 and (u/q)_1040
    try:
        assert kr_closed(520, 520, 1, P12) == kernel(520, 520, P12)
    finally:
        poch_table.cache_clear()  # drop the ~50 MB (u/q) table


def test_kr_closed_matches_matrix_powers():
    l_max, r_max = 12, 5
    rows = list(kernel_rows(l_max, P12))
    cols = _columns(rows)
    for ll in range(l_max + 1):
        for r, (row, den) in enumerate(power_rows(rows, cols, ll, r_max), 1):
            for j in range(ll + 1):
                assert kr_closed(ll, j, r, P12) == F(row[j], den), (ll, j, r)


def test_kr_closed_rows_and_absorption_monotone():
    for ll in range(13):
        prev = F(0)
        for r in range(1, 7):
            assert sum(kr_closed(ll, j, r, P12) for j in range(ll + 1)) == 1
            hit0 = kr_closed(ll, 0, r, P12)
            assert hit0 >= prev
            prev = hit0


def test_chain_mass_examples():
    assert chain_mass(Partition([]), P12) == 1
    lam = Partition([1])
    expected = first_col_unnormalized(1, P12) * kernel(1, 0, P12)
    assert chain_mass(lam, P12) == expected


@pytest.mark.parametrize("p", [P12, P13], ids=["u=1/2,q=2", "u=1/3,q=3"])
def test_chain_mass_proportional_to_measure(p):
    lams = [lam for n in range(9) for lam in enumerate_partitions(n)]
    base = lams[0]
    cb, wb = chain_mass(base, p), mass_v1(base, p)
    for lam in lams:
        assert chain_mass(lam, p) * wb == mass_v1(lam, p) * cb, lam


def test_markov_consistency_against_enumeration():
    """Conditional next-column laws from brute-force enumeration match the
    kernel within a certified truncation tail."""
    p = P12
    cap = 14
    z = poch_inf(p.u, p.q, F(1, 10**14))
    partial = F(0)
    num = {}
    den = {}
    for n in range(cap + 1):
        for lam in enumerate_partitions(n):
            w = mass_v1(lam, p)
            partial += w
            cols = lam.conjugate().parts
            for i in (1, 2, 3):
                a = cols[i - 1] if i <= len(cols) else 0
                b = cols[i] if i + 1 <= len(cols) else 0
                den[i, a] = den.get((i, a), F(0)) + w
                num[i, a, b] = num.get((i, a, b), F(0)) + w
    # total unnormalized mass is 1/Z; anything beyond the cap is the tail
    tail = 1 / z.lo - partial
    assert tail > 0
    for i in (1, 2, 3):
        for a in range(4):
            for b in range(a + 1):
                lo = num.get((i, a, b), F(0)) / (den[i, a] + tail)
                hi = (num.get((i, a, b), F(0)) + tail) / den[i, a]
                k = kernel(a, b, p)
                assert lo <= k <= hi, (i, a, b)


def test_sampler_determinism_and_shape():
    s1 = next(sample_stream(P12, 7, 1))
    s2 = next(sample_stream(P12, 7, 1))
    assert s1 == s2
    for s in sample_stream(P12, 99, 200):
        cols = s.columns
        assert all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))
        assert all(c > 0 for c in cols)
        assert s.partition.conjugate().parts == cols
    with pytest.raises(ValueError):
        next(sample_stream(MeasureParams(u=F(1), q=F(2)), 1, 1))


def test_sampler_stream_distinct_from_single():
    singles = [next(sample_stream(P12, 5, 1)).columns for _ in range(3)]
    assert singles[0] == singles[1] == singles[2]
    chain = [s.columns for s in sample_stream(P12, 5, 3)]
    assert chain[0] == singles[0]


@pytest.mark.parametrize(
    "module, draw",
    [
        (glchain, lambda k: next(sample_stream(MeasureParams(u=F(1, k), q=F(2)), 0, 1))),
        (fristedt, lambda k: next(fristedt.f_sample_stream(fristedt.FristedtParams(q=F(1, k)),
                                                           0, 1))),
    ],
    ids=["gl", "fristedt"],
)
def test_sampler_cache_is_bounded(module, draw):
    maxsize = module._sampler.cache_info().maxsize
    assert maxsize == glchain._SAMPLERS
    for k in range(2, maxsize + 6):
        draw(k)
    assert module._sampler.cache_info().currsize <= maxsize


def _cdf_by_fractions(weights, v):
    """The inverse-CDF definition: the first i with v/2^128 < (w_0+...+w_i)/T."""
    total = sum(weights, F(0))
    acc = F(0)
    for i, w in enumerate(weights):
        acc += w
        if F(v, 2**128) < acc / total:
            return i
    return len(weights) - 1


_WEIGHTS = st.lists(
    st.fractions(min_value=0, max_value=9, max_denominator=12), min_size=1, max_size=10
).filter(any)


def _cuts(nums):
    """The cut points of a list of integers proportional to the weights."""
    return glchain._cut_points(lambda: nums)


@settings(max_examples=120, deadline=None)
@given(weights=_WEIGHTS, data=st.data())
@example(weights=[F(1), F(1), F(2)], data=None)  # thresholds 1/4, 1/2, 1
@example(weights=[F(0), F(1), F(0), F(1), F(0)], data=None)  # zero weights
def test_cdf_pick_matches_fraction_definition(weights, data):
    """Integer prefix sums pick exactly as the Fraction thresholds, also for zero
    weights and for v exactly on, just below and just above a threshold, and
    at any common scale of the integers."""
    nums = glchain._common_den(weights)[0]
    scales = (1, 3**40 + 1, 3**150 + 1)  # the last takes the leading-bits route
    cdfs = [_cuts([w * scale for w in nums]) for scale in scales]
    total = sum(weights, F(0))
    candidates = {0, 2**128 - 1}
    acc = F(0)
    for w in weights:
        acc += w
        on = acc / total * 2**128
        base = on.numerator // on.denominator
        candidates |= {v for v in (base - 1, base, base + 1) if 0 <= v < 2**128}
    if data is not None:
        candidates.add(data.draw(st.integers(0, 2**128 - 1)))
    for v in sorted(candidates):
        want = _cdf_by_fractions(weights, v)
        assert [bisect_right(cuts, v) for cuts in cdfs] == [want] * 3, v


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_cuts_next_to_an_integer_take_the_full_division(offset):
    """P_0 2^128 / T = 3 + offset 2^-128 with T = 2^300: the leading bits
    only bound it to within 2^-63, so the cut must come from the full
    division: 3 on the integer or just below it, 4 just above."""
    first = 3 * 2**172 + offset
    cuts = _cuts([first, 2**300 - first])
    assert cuts == [4 if offset > 0 else 3, 2**128]
    assert [bisect_right(cuts, v) for v in (2, 3, 4)] == [0, 1 if offset <= 0 else 0, 1]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_ratio_cuts_next_to_an_integer_take_the_exact_pass(monkeypatch, offset):
    """Weights (3M + offset, 2^128 M - 3M - offset - 1, 1) with M = 3^172
    total 2^128 M, so P_0 2^128 / T = 3 + offset / M, within 2^-272 of 3.
    Given by their ratios, they are rebuilt times the reduced denominator
    of w_0/w_1, about 2^400, so the sums are long, their leading 192 bits
    leave that cut open, and the exact second pass makes it: 3 on the
    integer or just below it, 4 just above."""
    m = 3**172
    w = [3 * m + offset, 2**128 * m - 3 * m - offset - 1, 1]
    cut, exact = glchain._cut, []

    def spy(p, k, t, shift):
        exact.append(shift == 0 and t.bit_length() > 192)
        return cut(p, k, t, shift)

    monkeypatch.setattr(glchain, "_cut", spy)
    cuts = glchain._ratio_cuts(2, lambda b: F(w[b - 1], w[b]))
    assert cuts == [4 if offset > 0 else 3, 2**128, 2**128]
    assert any(exact)


@settings(max_examples=100, deadline=None)
@given(nums=st.lists(st.integers(0, 2**400), min_size=1, max_size=8).filter(any))
def test_cuts_are_the_ceilings_of_the_scaled_prefix_sums(nums):
    total = sum(nums)
    want = [-(-(acc << 128) // total) for acc in accumulate(nums)]
    assert _cuts(list(nums)) == want


def test_cdf_exact_thresholds():
    cuts = _cuts([1, 1, 2])
    values = (0, 2**126 - 1, 2**126, 2**127, 2**128 - 1)
    assert [bisect_right(cuts, v) for v in values] == [0, 0, 1, 2, 2]
    cuts = _cuts([0, 1, 0, 2])
    assert [bisect_right(cuts, v) for v in (0, 2**128 // 3, 2**128 // 3 + 1)] == [1, 1, 3]


@pytest.mark.parametrize(
    "sampler, p",
    [(glchain._sampler, P12), (glchain._sampler, MeasureParams(u=F(9, 10), q=F(5, 4))),
     (fristedt._sampler, fristedt.FristedtParams(q=F(4, 5)))],
    ids=["gl-1/2-2", "gl-9/10-5/4", "fristedt-4/5"],
)
def test_no_cut_is_wider_than_129_bits(sampler, p):
    """The first step and every row that 200 draws build keep one cut per
    state, the last being 2^128, however long the weights' integers are."""
    chain = sampler(p, F(1, 2**20))
    rng = random.Random(1)
    for _ in range(200):
        chain.path(rng)
    tables = [chain.first, *chain.rows.values()]
    assert len(tables) > 2
    for keys, cuts in tables:
        assert len(cuts) == len(keys)
        assert cuts[-1] == 2**128
        assert max(c.bit_length() for c in cuts) <= 129


def test_near_one_sampler_builds_quickly():
    """u = 99/100, q = 101/100: the support cap's lower bound of
    (1/q)_inf (u/q)_inf is rounded, not an exact product of ~1900 factors
    of growing size, so three draws take seconds, not minutes."""
    p = MeasureParams(u=F(99, 100), q=F(101, 100))
    t0 = perf_counter()
    draws = list(sample_stream(p, 0, 3))
    assert perf_counter() - t0 < 10
    for s in draws:
        assert s.partition == Partition(s.columns).conjugate()


def _ratio_ints(top, ratio):
    """Integers w_0..w_top proportional to a positive f(0..top), from the
    exact ratios ratio(b) = f(b-1)/f(b): w_top is the product of the ratios'
    denominators, and going down w_(b-1) = w_b ratio(b) exactly."""
    ratios = [ratio(b) for b in range(1, top + 1)]
    w = prod(r.denominator for r in ratios)
    out = [w]
    for r in reversed(ratios):
        w = w * r.numerator // r.denominator
        out.append(w)
    return out[::-1]


def _law_ints(cuts, ratio):
    """The integers of a law, rebuilt from its ratios; they are the ones the
    sampler's cut points come from, since each cut is theirs:
    ceil(P_i 2^128 / T) by full division, P_i the prefix sums and T the
    total."""
    ints = _ratio_ints(len(cuts) - 1, ratio)
    total = sum(ints)
    assert cuts == [-(-(acc << 128) // total) for acc in accumulate(ints)]
    return ints


def _proportional(ints, weights, picks):
    """ints[b] / ints[0] == weights[b] / weights[0] for b in picks, compared
    by cross-multiplying, since a gcd of integers this long is slow."""
    w0 = weights[0]
    return len(ints) == len(weights) and all(
        ints[b] * w0.numerator * weights[b].denominator
        == ints[0] * weights[b].numerator * w0.denominator
        for b in picks
    )


@pytest.mark.parametrize(
    "sampler, p, first, step",
    [
        *[(glchain._sampler, MeasureParams(u=F(u), q=F(q)), first_col_unnormalized,
           kernel) for u, q in [("1/2", "2"), ("1/3", "3"), ("9/10", "5/4")]],
        *[(fristedt._sampler, fristedt.FristedtParams(q=F(q)),
           fristedt.first_row_unnormalized, fristedt.f_kernel)
          for q in ("1/2", "4/5", "9/10")],
    ],
    ids=["gl-1/2-2", "gl-1/3-3", "gl-9/10-5/4", "fristedt-1/2", "fristedt-4/5",
         "fristedt-9/10"],
)
def test_ratio_built_integers_are_proportional_to_the_weights(sampler, p, first, step):
    """The first-step integers are proportional to first(b), and the integers
    of each row s < 30 to step(s, b), b <= s.  The first step is checked at
    every b < 30, every 8th b and the top (some 450 states of 300k bits at
    q = 9/10); the integers are built from the top down, so a wrong ratio
    shows between two checked states.  The sampler's cut points of the
    first step and of each of those rows are the full-division ones of
    these integers."""
    chain = sampler(p, F(1, 2**20))
    ratio, step_ratio, _ = inspect.unwrap(sampler)(p, F(1, 2**20))
    ints = _law_ints(chain.first[1], ratio)
    top = len(ints) - 1
    picks = sorted({*range(min(30, top + 1)), *range(0, top, 8), top})
    assert _proportional(ints, [first(b, p) for b in range(top + 1)], picks)
    for s in range(30):
        keys, cuts = chain.row(s)
        assert list(keys) == list(range(s + 1))
        nums = _law_ints(cuts, lambda b: step_ratio(s, b))
        assert _proportional(nums, [step(s, b, p) for b in keys], keys), s


def test_sample_json():
    s = next(sample_stream(P12, 3, 1))
    data = s.to_json(model="gl")
    assert set(data) == {"model", "seed", "columns", "partition"}
    assert data["seed"] == 3
