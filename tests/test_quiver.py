"""Graph-indexed partition tuples: weights, truncated normalizer, the
componentwise chain, and its factorization."""

import hashlib
import itertools
import json
import math
import random
import sys
import threading
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchains.fristedt import FristedtParams, f_sample_stream
from qchains.glchain import _SAMPLERS, first_col_unnormalized, kernel
from qchains.glchain import sample_stream as gl_sample_stream
from qchains.partitions import MeasureParams, Partition, enumerate_partitions, mass_v1
from qchains.qalgebra import poch_inf, poch_table
from qchains.quiver import (
    ConvergenceError,
    PartitionTuple,
    Quiver,
    QuiverParams,
    load_quiver,
    normalizer,
    pairing,
    quiver_chain_mass,
    quiver_first_cols,
    quiver_kernel,
    quiver_m_entry,
    quiver_sample_stream,
    tuple_weight,
)
from qchains.quiver import _masses, _MassTable, _sampler

POINT = Quiver(n=1, f=((0,),))
POINT_PARAMS = QuiverParams(q=F(2), u=(F(1, 2),))
JORDAN = Quiver(n=1, f=((1,),))
JORDAN_PARAMS = QuiverParams(q=F(2), u=(F(1, 4),))
A2 = Quiver.from_edges(2, [(1, 2, 1)])
A2_PARAMS = QuiverParams(q=F(2), u=(F(1, 4), F(1, 4)))
# a loop, a double edge and a simple edge
THREE = Quiver.from_edges(3, [(1, 1, 1), (1, 2, 2), (2, 3, 1)])
THREE_PARAMS = QuiverParams(q=F(2), u=(F(1, 8), F(1, 8), F(1, 8)))
A3 = Quiver.from_edges(3, [(1, 2, 1), (2, 3, 1)])
A3_PARAMS = QuiverParams(q=F(2), u=(F(1, 4), F(1, 4), F(1, 4)))


def all_tuples(n_components, total):
    """All partition tuples with the given total size."""
    if n_components == 1:
        return [PartitionTuple((lam,)) for lam in enumerate_partitions(total)]
    out = []
    for s1 in range(total + 1):
        for lam in enumerate_partitions(s1):
            for rest in all_tuples(n_components - 1, total - s1):
                out.append(PartitionTuple((lam,) + rest.components))
    return out


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(n=2, f=((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        Quiver(n=2, f=((0, -1), (-1, 0)))
    with pytest.raises(ValueError):
        QuiverParams(q=F(1, 2), u=(F(1, 4),))
    with pytest.raises(ValueError):
        QuiverParams(q=F(2), u=(F(1),))


def test_disconnected_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Quiver(n=2, f=((0, 0), (0, 0)))
    assert any("not connected" in str(w.message) for w in caught)


def test_pairing_examples():
    assert pairing(Partition([]), Partition([3, 1])) == 0
    assert pairing(Partition([1]), Partition([1])) == 1
    assert pairing(Partition([2, 1]), Partition([2, 1])) == 5


def test_tuple_weight_empty():
    assert tuple_weight(PartitionTuple((Partition([]),)), POINT, POINT_PARAMS) == 1


def test_single_point_reduces_to_measure():
    mp = MeasureParams(u=F(1, 2), q=F(2))
    for n in range(11):
        for lam in enumerate_partitions(n):
            got = tuple_weight(PartitionTuple((lam,)), POINT, POINT_PARAMS)
            assert got == mass_v1(lam, mp), lam


def test_jordan_loop_weight():
    w = tuple_weight(PartitionTuple((Partition([1]),)), JORDAN, JORDAN_PARAMS)
    assert w == F(1, 4) / (1 - F(1, 2))


def test_normalizer_single_point_matches_product():
    res = normalizer(POINT, POINT_PARAMS, size_cap=30, eps=F(1, 10**8))
    assert not res.certified
    iv = poch_inf(F(1, 2), F(2), F(1, 10**10))
    inv = 1 / res.value
    assert iv.lo - F(1, 10**7) <= inv <= iv.hi + F(1, 10**7)


def test_normalizer_small_u_near_one():
    tiny = Quiver(n=1, f=((0,),))
    p = QuiverParams(q=F(2), u=(F(1, 1000),))
    res = normalizer(tiny, p, size_cap=12, eps=F(1, 10**6))
    assert abs(res.value - 1) < F(1, 500)


def test_normalizer_cauchy_failure():
    with pytest.raises(ConvergenceError):
        normalizer(A2, A2_PARAMS, size_cap=8, eps=F(1, 10**30))


def test_normalizer_a2_cauchy_by_size_20():
    res = normalizer(A2, A2_PARAMS, size_cap=20, eps=F(1, 10**8))
    assert res.last_increment < F(1, 10**8)


def test_first_cols_empty_state():
    assert quiver_first_cols((0,), POINT, POINT_PARAMS, size_cap=10) == 1
    assert quiver_first_cols((0, 0), A2, A2_PARAMS, size_cap=10) == 1


def test_first_cols_single_point_matches_chain_law():
    cap = 26
    mp = MeasureParams(u=F(1, 2), q=F(2))
    p0 = quiver_first_cols((0,), POINT, POINT_PARAMS, cap)
    for a in range(1, 5):
        got = quiver_first_cols((a,), POINT, POINT_PARAMS, cap) / p0
        expect = first_col_unnormalized(a, mp) / first_col_unnormalized(0, mp)
        assert abs(got - expect) < F(1, 10**6), a


def test_first_cols_jordan_geometric():
    cap = 40
    got = quiver_first_cols((1,), JORDAN, JORDAN_PARAMS, cap) / quiver_first_cols(
        (0,), JORDAN, JORDAN_PARAMS, cap
    )
    u = JORDAN_PARAMS.u[0]
    expect = u / ((1 - u) * (1 - F(1, 2)))
    assert abs(got - expect) < F(1, 10**9)


def test_first_cols_jordan_exact_ratio():
    got = quiver_first_cols((1,), JORDAN, JORDAN_PARAMS) / quiver_first_cols(
        (0,), JORDAN, JORDAN_PARAMS
    )
    assert got == F(2, 3)  # u / ((1 - u)(1 - 1/q)) at u = 1/4, q = 2


def test_first_cols_single_point_equals_chain_law_exactly():
    mp = MeasureParams(u=F(1, 2), q=F(2))
    p0 = quiver_first_cols((0,), POINT, POINT_PARAMS)
    for a in range(8):
        got = quiver_first_cols((a,), POINT, POINT_PARAMS) / p0
        assert got == first_col_unnormalized(a, mp) / first_col_unnormalized(0, mp)


@pytest.mark.parametrize(
    "g,p", [(A2, A2_PARAMS), (JORDAN, JORDAN_PARAMS)], ids=["a2", "jordan"]
)
def test_first_cols_bound_the_truncated_tuple_sums(g, p):
    """Tuples of total size <= cap with first column a are part of P(a), and
    for a != 0 never all of it: the exact mass exceeds every truncated sum."""
    cap = 6
    brute = {}
    for size in range(cap + 1):
        for t in all_tuples(g.n, size):
            a = tuple(len(lam) for lam in t)
            brute[a] = brute.get(a, F(0)) + tuple_weight(t, g, p)
    assert set(brute) == {a for a in itertools.product(range(cap + 1), repeat=g.n)
                          if sum(a) <= cap}
    assert brute.pop((0,) * g.n) == quiver_first_cols((0,) * g.n, g, p, cap) == 1
    for a, partial in brute.items():
        assert 0 < partial < quiver_first_cols(a, g, p, cap), a


def test_normalizer_sums_the_first_column_masses():
    cap = 12
    res = normalizer(A2, A2_PARAMS, size_cap=cap, eps=F(1, 10**6))
    masses = [
        quiver_first_cols(a, A2, A2_PARAMS, cap)
        for a in itertools.product(range(cap + 1), repeat=2)
        if sum(a) <= cap
    ]
    assert res.value == sum(masses)
    assert quiver_first_cols((cap + 1, 0), A2, A2_PARAMS, cap) == 0


# one loop of multiplicity 2: M(a, a) = q^(a^2) U^a reaches 1 at a = 1
DIVERGENT = Quiver(n=1, f=((2,),))
DIVERGENT_PARAMS = QuiverParams(q=F(2), u=(F(1, 2),))


def test_divergent_mass_raises_convergence_error():
    with pytest.raises(ConvergenceError, match=r"a = \(1,\)"):
        quiver_first_cols((1,), DIVERGENT, DIVERGENT_PARAMS, 4)
    with pytest.raises(ConvergenceError, match=r"a = \(1,\)"):
        normalizer(DIVERGENT, DIVERGENT_PARAMS, size_cap=4, eps=F(1, 2))
    for seed in (0, 1):  # a failed check is not cached: every call raises
        with pytest.raises(ConvergenceError, match=r"a = \(1,\)"):
            next(quiver_sample_stream(DIVERGENT, DIVERGENT_PARAMS, seed, 1, size_cap=4,
                                      eps=F(1, 2)))
    # no draw, so no sampler and no check
    assert list(quiver_sample_stream(DIVERGENT, DIVERGENT_PARAMS, 0, 0, 4, F(1, 2))) == []
    assert quiver_first_cols((0,), DIVERGENT, DIVERGENT_PARAMS, 4) == 1


def box_sum_masses(g, p, cap):
    """(mass, level_sums, totals) through level cap by the defining
    recursion P(a) = m(a) S(a) / (1 - m(a)), with S(a) summed over the
    whole box b <= a, b != a: the oracle of the table's axis passes."""
    iq = poch_table(1 / p.q, p.q)
    mass, level_sums, totals = {(0,) * g.n: F(1)}, [F(1)], [F(1)]
    for k in range(1, cap + 1):
        level = F(0)
        for a in itertools.product(range(k + 1), repeat=g.n):
            if sum(a) != k:
                continue
            m = quiver_m_entry(a, a, g, p)
            if m >= 1:
                raise ConvergenceError(f"M(a, a) = {m} >= 1 at a = {a}: P(a) diverges")
            box = itertools.product(*(range(v + 1) for v in a))
            s = sum(mass[b] / math.prod(iq[x - y] for x, y in zip(a, b))
                    for b in box if b != a)
            mass[a] = m * s / (1 - m)
            level += mass[a]
        level_sums.append(level)
        totals.append(totals[-1] + level)
    return mass, level_sums, totals


@pytest.mark.parametrize(
    "g,p,cap",
    [(A2, A2_PARAMS, 20), (JORDAN, JORDAN_PARAMS, 24), (A3, A3_PARAMS, 12),
     (THREE, THREE_PARAMS, 8)],
    ids=["a2", "jordan", "a3", "three"],
)
def test_axis_passes_equal_the_box_sums(g, p, cap):
    table = _MassTable(g, p).grow(cap)
    mass, level_sums, totals = box_sum_masses(g, p, cap)
    assert table.mass == mass
    assert table.level_sums == level_sums
    assert table.totals == totals


def test_axis_passes_diverge_where_the_box_sums_do():
    # M(a, a) = 2^(2 a_1 a_2 - a_2^2 - 3|a|) first reaches 1 at a = (6, 3, 0)
    with pytest.raises(ConvergenceError) as oracle:
        box_sum_masses(THREE, THREE_PARAMS, 9)
    with pytest.raises(ConvergenceError) as table:
        _MassTable(THREE, THREE_PARAMS).grow(9)
    assert str(table.value) == str(oracle.value)
    assert "a = (6, 3, 0)" in str(table.value)


def test_mass_tables_are_bounded():
    assert _masses.cache_info().maxsize == _SAMPLERS


def test_mass_table_grown_from_many_threads():
    expected = _MassTable(A2, A2_PARAMS).grow(12)
    table = _MassTable(A2, A2_PARAMS)

    def reader(k):
        for level in range(k, 13, 4):
            table.grow(level)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k % 4,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert table.level_sums == expected.level_sums
    assert table.totals == expected.totals
    assert table.mass == expected.mass


def test_kernel_absorbing_and_support():
    assert quiver_kernel((0, 0), (0, 0), A2, A2_PARAMS, 10) == 1
    assert quiver_kernel((1, 1), (2, 0), A2, A2_PARAMS, 10) == 0
    assert quiver_m_entry((1,), (2,), POINT, POINT_PARAMS) == 0


def test_kernel_single_point_matches_glchain():
    cap = 26
    mp = MeasureParams(u=F(1, 2), q=F(2))
    for a in range(6):
        for b in range(a + 1):
            got = quiver_kernel((a,), (b,), POINT, POINT_PARAMS, cap)
            assert abs(got - kernel(a, b, mp)) < F(1, 10**6), (a, b)


@pytest.mark.parametrize(
    "g,p,cap",
    [(A2, A2_PARAMS, 20), (JORDAN, JORDAN_PARAMS, 24)],
    ids=["a2", "jordan"],
)
def test_kernel_rows_near_stochastic(g, p, cap):
    vectors = [
        a
        for a in itertools.product(range(5), repeat=g.n)
        if 0 < sum(a) <= 4
    ]
    for a in vectors:
        support = itertools.product(*(range(v + 1) for v in a))
        total = sum(quiver_kernel(a, b, g, p, cap) for b in support)
        assert abs(total - 1) < F(1, 10**6), a


@pytest.mark.parametrize(
    "g,p,cap",
    [(A2, A2_PARAMS, 20), (JORDAN, JORDAN_PARAMS, 24), (THREE, THREE_PARAMS, 4)],
    ids=["a2", "jordan", "three"],
)
def test_kernel_rows_exactly_stochastic(g, p, cap):
    for a in itertools.product(range(5), repeat=g.n):
        if 0 < sum(a) <= 4:
            support = itertools.product(*(range(v + 1) for v in a))
            assert sum(quiver_kernel(a, b, g, p, cap) for b in support) == 1, a


@pytest.mark.parametrize(
    "g,p",
    [(A2, A2_PARAMS), (JORDAN, JORDAN_PARAMS), (THREE, THREE_PARAMS)],
    ids=["a2", "jordan", "three"],
)
def test_chain_mass_cross_ratios_exact(g, p):
    cap = 16
    tuples = [t for s in range(7) for t in all_tuples(g.n, s)]
    base = tuples[0]
    cb = quiver_chain_mass(base, g, p, cap)
    wb = tuple_weight(base, g, p)
    for t in tuples:
        assert quiver_chain_mass(t, g, p, cap) * wb == tuple_weight(t, g, p) * cb, t


def test_sample_determinism_and_columns():
    s1, s2 = (next(quiver_sample_stream(A2, A2_PARAMS, 5, 1, size_cap=16))
              for _ in range(2))
    assert s1 == s2
    assert len(s1.partition) == 2
    # draw i of a stream is the one-draw stream at seed + i, with its path
    stream = list(quiver_sample_stream(A2, A2_PARAMS, 3, 4, size_cap=16))
    assert [s.seed for s in stream] == [3, 4, 5, 6]
    assert stream[2] == s1
    sampler = _sampler(A2, A2_PARAMS, 16, F(1, 10**8))
    assert [s.columns for s in stream] == [
        sampler.path(random.Random(seed)) for seed in range(3, 7)]


def test_sample_surfaces_nonconvergence():
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            next(quiver_sample_stream(A2, A2_PARAMS, 5, 1, size_cap=8, eps=F(1, 10**30)))


GL_PARAMS = MeasureParams(u=F(1, 2), q=F(2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), q=st.sampled_from([F(1, 2), F(4, 5)]))
def test_draws_equal_the_validating_builds(seed, q):
    """The streams build each drawn Partition without checks; the public
    constructor, with every check, builds the same partitions."""
    for s in gl_sample_stream(GL_PARAMS, seed, 30):
        assert s.partition == Partition(s.columns).conjugate()
        assert Partition(s.partition.parts) == s.partition
    for s in f_sample_stream(FristedtParams(q), seed, 30):
        assert s.partition == Partition(s.columns)
    eps = F(1, 10**8)
    path = _sampler(A2, A2_PARAMS, 20, eps).path(random.Random(seed))
    old = tuple(Partition([state[i] for state in path if state[i] > 0]).conjugate()
                for i in range(A2.n))
    got = next(quiver_sample_stream(A2, A2_PARAMS, seed, 1, 20, eps)).partition.components
    assert got == old
    assert all(Partition(c.parts) == c for c in got)


def test_a2_stream_pinned():
    """Seeds 0..199 of the README's A2 quiver at the CLI's size cap, as the
    JSON lines `qchains sample --model quiver --count 200` prints."""
    g, p = load_quiver({"n": 2, "edges": [[1, 2, 1]], "U": ["1/4", "1/4"], "q": "2"})
    lines = "".join(
        json.dumps(
            {"model": "quiver", "seed": s.seed, "partitions": s.partition.to_json()},
            sort_keys=True,
        )
        + "\n"
        for s in quiver_sample_stream(g, p, 0, 200, 20)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "11f5634ed16df46e60f98874730f6bf90edfaa71560407b8c0832a723c2a6e2b"
    )


def test_sample_single_point_matches_gl_statistics():
    """Empirical first-column law of the one-vertex quiver chain agrees with
    the GL chain within 4 standard errors."""
    mp = MeasureParams(u=F(1, 2), q=F(2))
    runs = 4000
    quiver_counts = {}
    for s in quiver_sample_stream(POINT, POINT_PARAMS, 10_000, runs, size_cap=20):
        lam = s.partition.components[0]
        a = len(lam)
        quiver_counts[a] = quiver_counts.get(a, 0) + 1
    gl_counts = {}
    for s in gl_sample_stream(mp, 77, runs):
        a = len(s.partition)
        gl_counts[a] = gl_counts.get(a, 0) + 1
    z = poch_inf(F(1, 2), F(2), F(1, 10**10))
    for a in range(3):
        p_exact = float(first_col_unnormalized(a, mp)) * float((z.lo + z.hi) / 2)
        se = (p_exact * (1 - p_exact) / runs) ** 0.5
        assert abs(quiver_counts.get(a, 0) / runs - p_exact) < 4 * se, a
        assert abs(gl_counts.get(a, 0) / runs - p_exact) < 4 * se, a


def test_load_quiver_roundtrip(tmp_path):
    data = {"n": 2, "edges": [[1, 2, 1]], "U": ["1/4", "1/4"], "q": "2"}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(data))
    g, p = load_quiver(str(path))
    assert g == A2
    assert p == A2_PARAMS
    with pytest.raises(ValueError):
        load_quiver({"n": 2, "edges": [[1, 3, 1]], "U": ["1/4", "1/4"], "q": "2"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # edgeless quiver also warns
        with pytest.raises(ValueError):
            load_quiver({"n": 2, "edges": [], "U": ["1/4"], "q": "2"})
