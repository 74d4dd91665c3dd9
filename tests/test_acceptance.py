"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances and ranges are pinned here; everything not stated as an
interval or a standard-error band is an exact rational or integer equality.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they print.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction as F

from qchains.fristedt import (
    FristedtParams,
    f_chain_mass,
    f_kernel,
    f_kernel_rows,
    f_kr_closed,
    f_sample_stream,
    row_law_limit,
    weight_normalizer,
)
from qchains.glchain import (
    _columns,
    _reduced,
    _times,
    chain_mass,
    diag_rows,
    eigen_failures,
    first_col_unnormalized,
    kernel,
    kernel_rows,
    kr_closed,
    sample_stream,
)
from qchains.identities import (
    AGSpec,
    absorption_limit_series,
    ag_product,
    ag_sum,
    bailey_check,
    bailey_pair_from_alpha,
    bailey_step,
    unit_bailey_pair,
)
from qchains.partitions import (
    MeasureParams,
    Partition,
    enumerate_partitions,
    mass_v1,
    mass_v2,
)
from qchains.qalgebra import (
    QSeries,
    jacobi_product,
    one_minus_product,
    poch_inf,
    poch_table,
    q_binomial_check,
    theta_sum,
)
from qchains.quiver import (
    PartitionTuple,
    Quiver,
    QuiverParams,
    quiver_chain_mass,
    quiver_first_cols,
    quiver_kernel,
    quiver_m_entry,
    tuple_weight,
)

P12 = MeasureParams(u=F(1, 2), q=F(2))
P13 = MeasureParams(u=F(1, 3), q=F(3))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} PASS {desc}", flush=True)


def powers(rows, r_max):
    """Yield r and the canonical rows of K^r, r = 1..r_max, for the matrix K
    of canonical rows: row l of K^r is row l of K^(r-1) times K."""
    cols = _columns(rows)
    power = [((0,) * ll + (1,), 1) for ll in range(len(rows))]
    for r in range(1, r_max + 1):
        power = [_reduced(nums, den * d)
                 for (row, den) in power for nums, d in [_times(row, rows, cols)]]
        yield r, power


def times_vector(rows, vec):
    """The matrix of canonical rows times a column vector, in Fractions."""
    return tuple(sum((F(n, den) * v for n, v in zip(nums, vec)), F(0))
                 for nums, den in rows)


def test_c01_rogers_ramanujan_order_60():
    with criterion(1, "Rogers-Ramanujan identities, exact to x^60, < 5 s"):
        t0 = time.monotonic()
        for spec in (AGSpec(2, 2, 60), AGSpec(2, 1, 60)):
            assert ag_sum(spec).first_mismatch(ag_product(spec)) is None
        # spot value: x^4 coefficient of the first identity is 2
        # (partitions of 4 into parts = 1,4 mod 5: 4 and 1+1+1+1)
        assert ag_sum(AGSpec(2, 2, 60)).coeffs[4] == 2
        assert ag_product(AGSpec(2, 2, 60)).coeffs[4] == 2
        assert time.monotonic() - t0 < 5


def test_c02_andrews_gordon_battery():
    with criterion(2, "Andrews-Gordon for k=2..5, all i, to x^40, < 60 s"):
        t0 = time.monotonic()
        for k in (2, 3, 4, 5):
            for i in range(1, k + 1):
                spec = AGSpec(k, i, 40)
                assert ag_sum(spec).first_mismatch(ag_product(spec)) is None, (k, i)
        assert time.monotonic() - t0 < 60


def test_c03_probabilistic_pipeline():
    with criterion(3, "absorption-limit series = weighted sum sides = theta"):
        order = 60
        for k in (2, 3, 4):
            flat = absorption_limit_series(k, 0, order)
            assert flat == one_minus_product(range(1, order + 1), order) * ag_sum(
                AGSpec(k, k, order)
            ), k
            tilted = absorption_limit_series(k, 1, order)
            assert tilted == one_minus_product(range(2, order + 1), order) * ag_sum(
                AGSpec(k, 1, order)
            ), k
            in_y = flat.to_y()
            assert in_y == theta_sum(2 * k + 1, 1, 2 * order), k
            assert theta_sum(2 * k + 1, 1, 2 * order) == jacobi_product(
                1, 2 * k + 1, 2 * order
            ), k


def test_c04_diagonalization_identities():
    with criterion(4, "A*Ainv=I, M*A=A*E, K=CMC^-1 at three parameter sets, < 10 s"):
        t0 = time.monotonic()
        for u, q in ((F(1, 2), F(2)), (F(1, 3), F(3)), (F(2, 5), F(5, 2))):
            p = MeasureParams(u=u, q=q)
            rows = diag_rows(30, p)
            failures = eigen_failures(rows, "E", lambda a, b: kernel(a, b, p))
            assert failures == [], (u, q)
        assert time.monotonic() - t0 < 10


def test_c05_closed_form_powers():
    with criterion(5, "closed-form K^r equals exact matrix powers, L<=20, r<=8"):
        l_max = 20
        for r, power in powers(list(kernel_rows(l_max, P12)), 8):
            for ll, (row, den) in enumerate(power):
                for j in range(ll + 1):
                    assert kr_closed(ll, j, r, P12) == F(row[j], den), (ll, j, r)


def test_c06_chain_equals_measure():
    with criterion(6, "chain mass proportional to measure mass, v1=v2, size<=10"):
        for p in (P12, P13):
            lams = [lam for n in range(11) for lam in enumerate_partitions(n)]
            base = lams[0]
            cb, wb = chain_mass(base, p), mass_v1(base, p)
            for lam in lams:
                assert mass_v1(lam, p) == mass_v2(lam, p), lam
                assert chain_mass(lam, p) * wb == mass_v1(lam, p) * cb, lam


def test_c07_kernel_stochasticity():
    with criterion(7, "kernel rows sum to 1 exactly, a <= 40, both chains"):
        fq = FristedtParams(q=F(1, 2))
        for a in range(41):
            assert sum(kernel(a, b, P12) for b in range(a + 1)) == 1, a
            assert sum(f_kernel(a, b, fq) for b in range(a + 1)) == 1, a


def test_c08_fristedt_suite():
    with criterion(8, "row chain: powers, uniformity, row law, transpose, q-binomial"):
        for q in (F(1, 2), F(1, 3)):
            p = FristedtParams(q=q)
            for r, power in powers(list(f_kernel_rows(20, p)), 8):
                for ll, (row, den) in enumerate(power):
                    for j in range(ll + 1):
                        assert f_kr_closed(ll, j, r, p) == F(row[j], den)
        p = FristedtParams(q=F(1, 2))
        for n in range(11):
            for lam in enumerate_partitions(n):
                assert f_chain_mass(lam, p) == p.q**n
                assert f_chain_mass(lam.conjugate(), p) == f_chain_mass(lam, p)
        # row law vs enumeration with certified tails
        cap = 40
        z = weight_normalizer(p, F(1, 10**14))
        counts = QSeries.one(cap)  # 1/(x)_cap: the partition counts to x^cap
        for r in range(1, cap + 1):
            counts = counts.mul_geom_inv(r)
        sums = {}
        for n in range(cap + 1):
            for lam in enumerate_partitions(n):
                for r in (1, 2, 3):
                    j = lam[r - 1] if r <= len(lam) else 0
                    if j <= 3:
                        sums[r, j] = sums.get((r, j), F(0)) + p.q**n
        full = sum(int(counts.coeffs[n]) * p.q**n for n in range(cap + 1))
        tail = 1 / z.lo - full
        assert 0 < tail < F(1, 10**6)
        for r in (1, 2, 3):
            for j in range(4):
                iv = row_law_limit(r, j, p, F(1, 10**14))
                s = sums.get((r, j), F(0))
                assert s * z.lo <= iv.hi and iv.lo <= (s + tail) * z.hi, (r, j)
        for n in range(13):
            for q in (F(1, 2), F(1, 3), F(2, 5)):
                assert q_binomial_check(n, q), (n, q)


def relation_beta(pair):
    """beta_L = sum_{r<=L} alpha_r / ((1/q)_{L-r} (u/q)_{L+r}), from the
    Pochhammer tables alone."""
    u, q = pair.params.u, pair.params.q
    iq, uq = poch_table(1 / q, q), poch_table(u / q, q)
    return tuple(
        sum(pair.alpha[r] / (iq[ll - r] * uq[ll + r]) for r in range(ll + 1))
        for ll in range(len(pair.alpha))
    )


def test_c09_bailey_battery():
    with criterion(9, "Bailey step closure for unit pair and 50 random pairs"):
        import random

        l_max = 15
        rows = list(diag_rows(l_max, P12))
        m, a = [row[0] for row in rows], [row[1] for row in rows]
        pairs = [unit_bailey_pair(P12, l_max)]
        rng = random.Random(424242)
        for _ in range(50):
            alpha = [
                F(rng.randint(-99, 99), rng.randint(1, 25))
                for _ in range(l_max + 1)
            ]
            pairs.append(bailey_pair_from_alpha(alpha, P12))
        for pair in pairs:
            assert bailey_check(pair)
            stepped = bailey_step(pair)
            assert bailey_check(stepped)
            assert stepped.beta == times_vector(m, pair.beta)
            assert stepped.beta == times_vector(a, stepped.alpha)
            # the defining sums, evaluated without the matrix layer
            assert pair.beta == relation_beta(pair)
            assert stepped.beta == relation_beta(stepped)


def test_c10_quiver_consistency():
    with criterion(10, "quiver: point reduction, K=CMC^-1, row sums, chain mass"):
        point = Quiver(n=1, f=((0,),))
        point_params = QuiverParams(q=F(2), u=(F(1, 2),))
        for n in range(11):
            for lam in enumerate_partitions(n):
                got = tuple_weight(PartitionTuple((lam,)), point, point_params)
                assert got == mass_v1(lam, P12), lam
        jordan = Quiver(n=1, f=((1,),))
        jordan_params = QuiverParams(q=F(2), u=(F(1, 4),))
        a2 = Quiver.from_edges(2, [(1, 2, 1)])
        a2_params = QuiverParams(q=F(2), u=(F(1, 4), F(1, 4)))
        setups = [(a2, a2_params), (jordan, jordan_params)]
        tol = F(1, 10**6)
        for g, gp in setups:
            vectors = [
                a
                for a in itertools.product(range(5), repeat=g.n)
                if sum(a) <= 4
            ]
            for a in vectors:
                pa = quiver_first_cols(a, g, gp)
                support = list(itertools.product(*(range(v + 1) for v in a)))
                total = F(0)
                for b in support:
                    got = quiver_kernel(a, b, g, gp)
                    factored = (
                        quiver_m_entry(a, b, g, gp)
                        * quiver_first_cols(b, g, gp)
                        / pa
                    )
                    assert got == factored, (a, b)
                    total += got
                if sum(a):
                    assert abs(total - 1) < tol, a
            tuples = []
            for s in range(7):
                sizes = itertools.product(range(s + 1), repeat=g.n)
                for split in sizes:
                    if sum(split) != s:
                        continue
                    for combo in itertools.product(
                        *(enumerate_partitions(v) for v in split)
                    ):
                        tuples.append(PartitionTuple(combo))
            base = tuples[0]
            cb = quiver_chain_mass(base, g, gp)
            wb = tuple_weight(base, g, gp)
            for t in tuples:
                lhs = quiver_chain_mass(t, g, gp) * wb
                rhs = tuple_weight(t, g, gp) * cb
                assert lhs == rhs, t


def test_c11_sampler_statistics():
    with criterion(11, "10^5 samples per chain match exact laws to 4 SE, < 30 s"):
        t0 = time.monotonic()
        runs = 100_000
        counts = {}
        for s in sample_stream(P12, 20240515, runs):
            a = s.columns[0] if s.columns else 0
            counts[a] = counts.get(a, 0) + 1
        iv = poch_inf(P12.u, P12.q, F(1, 10**12))
        z = float((iv.lo + iv.hi) / 2)
        for a in range(6):
            p_exact = float(first_col_unnormalized(a, P12)) * z
            se = (p_exact * (1 - p_exact) / runs) ** 0.5
            assert abs(counts.get(a, 0) / runs - p_exact) <= 4 * se, a
        fq = FristedtParams(q=F(1, 2))
        empty = sum(
            1 for s in f_sample_stream(fq, 909090, runs) if not s.columns
        )
        iv = weight_normalizer(fq, F(1, 10**12))
        p_empty = float((iv.lo + iv.hi) / 2)
        se = (p_empty * (1 - p_empty) / runs) ** 0.5
        assert abs(empty / runs - p_empty) <= 4 * se
        assert time.monotonic() - t0 < 30
