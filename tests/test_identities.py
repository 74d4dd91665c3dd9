"""Sum and product sides, the absorption-limit pipeline, and Bailey pairs."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from math import isqrt

import pytest

from qchains import identities
from qchains.glchain import build_diagonalization
from qchains.identities import (
    AGSpec,
    BaileyPair,
    absorption_limit_series,
    ag_product,
    ag_sum,
    bailey_check,
    bailey_pair_from_alpha,
    bailey_step,
    unit_bailey_pair,
)
from qchains.partitions import MeasureParams, enumerate_partitions
from qchains.qalgebra import (
    QSeries,
    conv_trunc,
    jacobi_product,
    one_minus_product,
    poch_table,
    theta_sum,
)

P12 = MeasureParams(u=F(1, 2), q=F(2))


def defining_sums(pair):
    """For a pair at (u, q), with no matrix: the relation's beta from alpha,
    and the step's alpha' and beta' from alpha and beta, read off the
    Pochhammer tables term by term."""
    u, q = pair.params.u, pair.params.q
    iq, uq = poch_table(1 / q, q), poch_table(u / q, q)
    ls = range(len(pair.alpha))
    beta = tuple(
        sum(pair.alpha[r] / (iq[ll - r] * uq[ll + r]) for r in range(ll + 1))
        for ll in ls
    )
    alpha_next = tuple(u**ll / q ** (ll * ll) * pair.alpha[ll] for ll in ls)
    beta_next = tuple(
        sum(u**r / (q ** (r * r) * iq[ll - r]) * pair.beta[r] for r in range(ll + 1))
        for ll in ls
    )
    return beta, alpha_next, beta_next


def count_gap2(n, min_part=1):
    """Partitions of n with consecutive parts differing by at least 2."""
    hits = 0
    for lam in enumerate_partitions(n):
        parts = lam.parts
        if parts and parts[-1] < min_part:
            continue
        if all(parts[i] - parts[i + 1] >= 2 for i in range(len(parts) - 1)):
            hits += 1
    return hits


def count_residues(n, residues, modulus):
    hits = 0
    for lam in enumerate_partitions(n):
        if all(p % modulus in residues for p in lam.parts):
            hits += 1
    return hits


def test_agspec_validation():
    with pytest.raises(ValueError):
        AGSpec(1, 1, 10)
    with pytest.raises(ValueError):
        AGSpec(3, 0, 10)
    with pytest.raises(ValueError):
        AGSpec(3, 4, 10)


def test_ag_sum_counts_gap_partitions():
    s = ag_sum(AGSpec(2, 2, 12))
    assert [int(c) for c in s.coeffs[:5]] == [1, 1, 1, 1, 2]
    for n in range(13):
        assert int(s.coeffs[n]) == count_gap2(n), n
    s1 = ag_sum(AGSpec(2, 1, 12))
    assert s1.coeffs[1] == 0
    for n in range(13):
        assert int(s1.coeffs[n]) == count_gap2(n, min_part=2), n


def test_ag_sum_order_zero():
    for k in (2, 3, 5):
        s = ag_sum(AGSpec(k, k, 0))
        assert list(s.coeffs) == [1]


def gordon_stats(n):
    """(f_1, max_j f_j + f_{j+1}) for every partition of n, f_j being the
    multiplicity of part j."""
    stats = []
    for lam in enumerate_partitions(n):
        f = Counter(lam.parts)
        stats.append((f[1], max((f[j] + f[j + 1] for j in f), default=0)))
    return stats


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ag_sides_count_gordon_partitions(k):
    # Gordon's theorem: both sides count the partitions of n with at most
    # i - 1 ones and f_j + f_{j+1} <= k - 1 for every j
    order = 24
    stats = [gordon_stats(n) for n in range(order + 1)]
    for i in range(1, k + 1):
        want = [
            sum(f1 <= i - 1 and pair <= k - 1 for f1, pair in by_n) for by_n in stats
        ]
        spec = AGSpec(k, i, order)
        assert list(ag_sum(spec).coeffs) == want, i
        assert list(ag_product(spec).coeffs) == want, i


@pytest.mark.parametrize("k", [6, 7])
def test_ag_sum_at_small_orders_for_large_k(k):
    # k - 1 exceeds isqrt(order) + 1, so every tail ends in zeros; only
    # f_1 <= i - 1 binds at these orders
    rows = {1: [1, 0, 1, 1], 2: [1, 1, 1, 2], 3: [1, 1, 2, 2]}
    for i in range(1, k + 1):
        for order in range(4):
            s = ag_sum(AGSpec(k, i, order))
            assert s.order == order
            assert list(s.coeffs) == rows.get(i, [1, 1, 2, 3])[: order + 1]


def test_ag_sum_products_per_level(monkeypatch):
    # k = 2 truncates and shifts only.  Level j takes the N with j N^2 <=
    # order and makes at most one product per pair M < N; at level k - 2 the
    # product is the Euler pair of (M, N - M), made once per order for all i.
    order = 160
    products = []

    def counted(a, b, n):
        products.append(n)
        return conv_trunc(a, b, n)

    monkeypatch.setattr(identities, "conv_trunc", counted)
    for k in (2, 3, 4):
        identities._euler_pair.cache_clear()  # warm pairs would count 0
        identities._euler_inverses.cache_clear()
        products.clear()
        for i in range(1, k + 1):
            ag_sum(AGSpec(k, i, order))
        tops = [isqrt(order // j) for j in range(1, k - 1)]  # largest N, levels 1..k-2
        per_call = sum(n * (n + 1) // 2 for n in tops[:-1])
        pairs = sum(n // 2 + 1 for n in range(1, tops[-1] + 1)) if tops else 0
        assert len(products) <= k * per_call + pairs, k
        assert (len(products) > 0) == (k >= 3), k


def test_ag_product_counts_residue_partitions():
    pr = ag_product(AGSpec(2, 2, 12))
    for n in range(13):
        assert int(pr.coeffs[n]) == count_residues(n, {1, 4}, 5), n
    pr1 = ag_product(AGSpec(2, 1, 12))
    assert pr1.coeffs[1] == 0
    for n in range(13):
        assert int(pr1.coeffs[n]) == count_residues(n, {2, 3}, 5), n
    assert pr.coeffs[0] == 1


def test_verify_ag_rogers_ramanujan():
    for spec in (AGSpec(2, 2, 60), AGSpec(2, 1, 60)):
        assert ag_sum(spec).first_mismatch(ag_product(spec)) is None


def test_verify_ag_engine_case():
    spec = AGSpec(3, 2, 40)
    assert ag_sum(spec).first_mismatch(ag_product(spec)) is None


def test_verify_ag_reports_first_mismatch():
    spec = AGSpec(2, 2, 10)
    lhs = ag_sum(spec)
    rhs = ag_product(spec)
    # the sides agree; a fabricated mismatch is located correctly
    diffs = [e for e in range(11) if lhs.coeffs[e] != rhs.coeffs[e]]
    assert diffs == []


def test_absorption_constant_term():
    for r in (1, 2, 3, 5):
        for delta in (0, 1):
            assert absorption_limit_series(r, delta, 8).coeffs[0] == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_absorption_equals_weighted_sum_side(k):
    order = 60
    flat = absorption_limit_series(k, 0, order)
    euler = one_minus_product(range(1, order + 1), order)
    assert flat == euler * ag_sum(AGSpec(k, k, order))
    tilted = absorption_limit_series(k, 1, order)
    shifted = one_minus_product(range(2, order + 1), order)
    assert tilted == shifted * ag_sum(AGSpec(k, 1, order))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_absorption_theta_route(k):
    order = 50
    in_y = absorption_limit_series(k, 0, order).to_y()
    assert in_y == theta_sum(2 * k + 1, 1, 2 * order)
    assert theta_sum(2 * k + 1, 1, 2 * order) == jacobi_product(1, 2 * k + 1, 2 * order)


def test_absorption_parameter_validation():
    with pytest.raises(ValueError):
        absorption_limit_series(0, 0, 10)
    with pytest.raises(ValueError):
        absorption_limit_series(2, 2, 10)


# ---------------------------------------------------------------------------
# Bailey pairs


def test_unit_pair_is_bailey():
    pair = unit_bailey_pair(P12, 15)
    assert bailey_check(pair)
    assert pair.beta[0] == 1 and all(b == 0 for b in pair.beta[1:])


def test_standard_vector_pairs():
    d = build_diagonalization(9, P12)
    for j in range(10):
        alpha = tuple(F(1) if r == j else F(0) for r in range(10))
        beta = tuple(d.a.entry(ll, j) for ll in range(10))
        assert bailey_check(BaileyPair(alpha=alpha, beta=beta, params=P12))


def test_perturbed_pair_fails():
    pair = unit_bailey_pair(P12, 8)
    beta = list(pair.beta)
    beta[3] += 1
    assert not bailey_check(BaileyPair(alpha=pair.alpha, beta=tuple(beta), params=P12))


def test_step_requires_valid_pair():
    bad = BaileyPair(alpha=(F(1), F(1)), beta=(F(1), F(1)), params=P12)
    with pytest.raises(ValueError, match="Bailey"):
        bailey_step(bad)


def test_step_preserves_pair_and_fixes_alpha0():
    pair = unit_bailey_pair(P12, 15)
    stepped = bailey_step(pair)
    assert bailey_check(stepped)
    assert stepped.alpha[0] == pair.alpha[0]


def test_step_twice_is_squared_matrices():
    l_max = 10
    d = build_diagonalization(l_max, P12)
    pair = unit_bailey_pair(P12, l_max)
    twice = bailey_step(bailey_step(pair))
    e2 = d.e @ d.e
    m2 = d.m @ d.m
    assert twice.alpha == e2.mul_vector(pair.alpha)
    assert twice.beta == m2.mul_vector(pair.beta)


def test_step_random_pairs_and_eigenvector_identity():
    l_max = 15
    d = build_diagonalization(l_max, P12)
    rng = random.Random(20240901)
    for _ in range(50):
        alpha = [F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(l_max + 1)]
        pair = bailey_pair_from_alpha(alpha, P12)
        assert bailey_check(pair)
        stepped = bailey_step(pair)
        assert bailey_check(stepped)
        # beta' = M beta = A alpha' entrywise
        assert stepped.beta == d.m.mul_vector(pair.beta)
        assert stepped.beta == d.a.mul_vector(stepped.alpha)
        # and against the defining sums, which share no code with the matrices
        beta, alpha_next, beta_next = defining_sums(pair)
        assert pair.beta == beta
        assert (stepped.alpha, stepped.beta) == (alpha_next, beta_next)
        assert stepped.beta == defining_sums(stepped)[0]


def test_bailey_json():
    pair = unit_bailey_pair(P12, 3)
    data = pair.to_json()
    assert data["beta"] == ["1", "0", "0", "0"]
    assert data["u"] == "1/2" and data["q"] == "2"


def test_euler_pairs_are_products_of_two_inverses():
    # every pair ag_sum can read, to exactly its truncation
    order = 90
    inv = identities._euler_inverses(order)
    for n in range(len(inv)):
        for a in range(n // 2 + 1):
            limit = order - n * n - a * a
            if limit < 0:
                break
            pair = identities._euler_pair(order, a, n - a)
            assert pair == tuple(conv_trunc(inv[a], inv[n - a], limit)), (a, n)


def test_ag_sum_is_the_same_with_cold_and_warm_caches():
    specs = [AGSpec(k, i, 40) for k in range(2, 6) for i in range(1, k + 1)]

    def clear():
        identities._euler_inverses.cache_clear()
        identities._euler_pair.cache_clear()

    clear()
    cold = [ag_sum(s).coeffs for s in specs]
    clear()
    for order in (12, 60):  # warm at other orders first
        for s in specs:
            ag_sum(AGSpec(s.k, s.i, order))
    assert [ag_sum(s).coeffs for s in specs] == cold
    assert [ag_sum(s).coeffs for s in specs] == cold  # warm at this order
    assert identities._euler_pair.cache_info().hits > 0


@pytest.mark.parametrize("order", [0, 1, 17, 90])
def test_euler_inverse_rows_stop_where_ag_sum_stops_reading(order):
    # row m counts the partitions into parts <= m, to order - m^2 only
    rows = identities._euler_inverses(order)
    assert len(rows) == isqrt(order) + 2
    counts = [1] + [0] * order  # parts <= 0: only the empty partition
    for m, row in enumerate(rows):
        for n in range(m, order + 1) if m else ():
            counts[n] += counts[n - m]  # a largest part of m, or none
        assert row == tuple(counts[: max(order - m * m, 0) + 1]), m


@pytest.mark.parametrize("i", [1, 2])
def test_rogers_ramanujan_sum_side_keeps_no_euler_table(i):
    identities._euler_inverses.cache_clear()
    identities._euler_pair.cache_clear()
    tracemalloc.start()
    try:
        ag_sum(AGSpec(2, i, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert identities._euler_inverses.cache_info().currsize == 0
    assert identities._euler_pair.cache_info().currsize == 0
    assert peak < 500_000  # a table of all 33 rows to order 1000 peaks at 1.44 MB
