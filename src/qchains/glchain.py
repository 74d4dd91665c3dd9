"""Absorbing Markov chain on column lengths generating the GL measure.

All Pochhammer symbols here are the descending convention, (x/q)_n =
(1-x/q)...(1-x/q^n).  The kernel, the diagonalization and the closed-form
powers take them as integer numerators over closed-form denominators (_ints),
so a matrix row is built from integer products and exact quotients and
reduced once.  A matrix is never held as an object: kernel_rows and
diag_rows yield it one canonical row at a time.  The rows of K^r
(power_rows) and of the products that the eigen checks compare
(eigen_failures) are each one row-vector product, _times.  A term whose
index would go negative vanishes, and the formulas test that range
explicitly (the matrices are built on their lower triangle only), except
for the single analytic-extension entry noted in diag_rows.

State 0 is absorbing; a trajectory started from the first-column law and
run until absorption spells out the column heights of a random partition.
"""

import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul

from qchains.partitions import MeasureParams, Partition, _conjugate_parts, _partition
from qchains.qalgebra import (
    Interval,
    as_fraction,
    poch_inf,
    poch_inf_lower,
    poch_ints,
)

TAIL_BITS = 64  # first-step support cap: certified tail below 2**-TAIL_BITS

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Exact lower-triangular matrices, one row at a time
#
# A matrix on the states 0..l_max is the list (or generator) of its rows,
# row i its canonical (numerators, denominator): the integer numerators of
# entries 0..i over one positive denominator den, with gcd(den, *row) == 1,
# so equal rows have equal integers.  Entries above the diagonal are zero.


def _reduced(row, den):
    """(row, den) with both divided by gcd(den, *row), row as a tuple."""
    g = gcd(den, *row)
    if g != 1:
        return tuple(c // g for c in row), den // g
    return tuple(row), den


def _columns(rows):
    """cols[j] = [n_jj, n_j+1,j, ...]: the numerators of column j of rows
    from the diagonal down."""
    return [[row[j] for row, _ in rows[j:]] for j in range(len(rows))]


def _times(vec, rows, cols):
    """(nums, d): the integer row vector vec times the matrix of rows, whose
    _columns are cols, is nums / d on columns 0..len(vec)-1.

    (v M)(j) = sum_k v_k n_kj / d_k, so d is the lcm of the row denominators
    d_k that vec uses, and each term is an integer product of v_k d / d_k
    and an entry of column j, which cols holds from the diagonal down."""
    dens = [den for _, den in rows[:len(vec)]]
    d = lcm(*(dk for v, dk in zip(vec, dens) if v))
    xs = [v * (d // dk) if v else 0 for v, dk in zip(vec, dens)]
    return [sum(map(mul, xs[j:], col)) for j, col in enumerate(cols[:len(vec)])], d


def power_rows(rows, cols, i, r_max):
    """Yield row i of M^r as (numerators, denominator) for r = 1..r_max, M
    the lower-triangular matrix of rows and cols its _columns: each row is
    the one before times M (_times).  The rows are not reduced, since their
    entries grow to the padding's size anyway."""
    vec, vden = [0] * i + [1], 1  # row i of the identity, columns 0..i
    for _ in range(r_max):
        vec, d = _times(vec, rows, cols)
        vden *= d
        yield vec, vden


def eigen_failures(rows, e_name, kernel=None):
    """Labels of the failed checks of a diagonalization read row by row from
    rows, a model's row generator (diag_rows), with E written as e_name;
    with the entry oracle kernel(a, b), K = C M C^-1 is checked too.

    Only A is held, as its rows and by columns.  Row i of X A, for X = M and
    A^-1, is the row-vector product of row i of X and A (_times), and each
    identity is compared on cross-multiplied integers, so no product is
    reduced:
    - A^-1 A = I, which on a square triangular truncation is A A^-1 = I;
    - M A = A E, where A E is row i of A scaled by the diagonal of E;
    - K(i,j) = M(i,j) C(i,i) / C(j,j) against kernel(i, j).
    A label's check stops at its first failed row.
    """
    eigen = f"M*A=A*{e_name}"
    labels = ["A*Ainv", eigen] + (["K=CMC^-1"] if kernel else [])
    failed = set()
    a_rows, cols, cs, es = [], [], [], []
    for i, ((m, m_den), (a, a_den), (a_inv, inv_den), ci, ei) in enumerate(rows):
        a_rows.append((a, a_den))
        for col, v in zip(cols, a):
            col.append(v)
        cols.append([a[i]])
        cs.append(ci)
        es.append(ei)
        if "A*Ainv" not in failed:
            nums, d = _times(a_inv, a_rows, cols)
            if nums != [0] * i + [inv_den * d]:
                failed.add("A*Ainv")
        if eigen not in failed:
            nums, d = _times(m, a_rows, cols)
            den = m_den * d
            if any(n * a_den * ej.denominator != aj * ej.numerator * den
                   for n, aj, ej in zip(nums, a, es)):
                failed.add(eigen)
        if kernel and "K=CMC^-1" not in failed:
            den = m_den * ci.denominator
            for j, (mj, cj) in enumerate(zip(m, cs)):
                kij = kernel(i, j)
                if (mj * ci.numerator * cj.denominator * kij.denominator
                        != kij.numerator * den * cj.numerator):
                    failed.add("K=CMC^-1")
                    break
    return [label for label in labels if label in failed]


def _common_den(values):
    """(nums, den): the exact rationals values as nums[k] / den, den their lcm."""
    values = [as_fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _dot(xs, ys) -> Fraction:
    """sum_k xs[k] ys[k] over exact rationals: the products' numerators over
    the lcm of their denominators, reduced once."""
    nums, dens = [], []
    for x, y in zip(xs, ys):
        nums.append(x.numerator * y.numerator)
        dens.append(x.denominator * y.denominator)
    den = lcm(*dens)
    return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)


# ---------------------------------------------------------------------------
# Kernel, first-column law, diagonalization, closed-form powers


_PARAMS = 16  # parameter sets whose integer tables are looked up by p


@lru_cache(maxsize=_PARAMS)
def _ints(p: MeasureParams):
    """(un, ud, c, d, I, U) for u = un/ud, q = c/d: (1/q)_n = I_n / c^(n(n+1)/2)
    and (u/q)_n = U_n / (ud^n c^(n(n+1)/2)), with I_n = f_1 ... f_n, f_k =
    c^k - d^k and U_n = g_1 ... g_n, g_k = ud c^k - un d^k.  Keyed by the
    record, whose hash is kept, so a lookup hashes no Fraction."""
    u, q = p.u, p.q
    return (u.numerator, u.denominator, q.numerator, q.denominator,
            poch_ints(1, q), poch_ints(u, q))


def kernel(a: int, b: int, p: MeasureParams) -> Fraction:
    """One-step transition probability from column height a to b,
    [a; b] G(b+1..a) un^b d^(b^2) c^binom(a-b,2) / (ud^a c^(a^2)) with the
    exact quotients [a; b] = I_a / (I_b I_(a-b)) and G(b+1..a) = U_a / U_b.

    Vanishes outside 0 <= b <= a, where (1/q)_{a-b} or (1/q)_b would have a
    negative index.
    """
    if a < 0:
        raise ValueError("state must be >= 0")
    if not 0 <= b <= a:
        return _ZERO
    un, ud, c, d, iq, uq = _ints(p)
    num = iq[a] // (iq[b] * iq[a - b]) * (uq[a] // uq[b]) * un**b * d ** (b * b)
    return Fraction(num * c ** ((a - b) * (a - b - 1) // 2), ud**a * c ** (a * a))


def first_col_unnormalized(a: int, p: MeasureParams) -> Fraction:
    """First-column mass without the infinite-product prefactor:

        u^a / (q^(a^2) (1/q)_a (u/q)_a) = un^a d^(a^2) c^a / (I_a U_a)
    """
    if a < 0:
        raise ValueError("state must be >= 0")
    un, _, c, d, iq, uq = _ints(p)
    return Fraction(un**a * d ** (a * a) * c**a, iq[a] * uq[a])


def first_col_law(a: int, p: MeasureParams, eps) -> Interval:
    """P(first column = a): the exact ratio times the certified (u/q)_inf."""
    if p.u == 1:
        raise ValueError("u = 1 is not a probability measure; use u < 1")
    return poch_inf(p.u, p.q, eps).scale(first_col_unnormalized(a, p))


def diag_rows(l_max: int, p: MeasureParams):
    """Yield row i = 0..l_max of the factorization K = C M C^-1 with
    M A = A E as (M_i, A_i, A^-1_i, C(i,i), E(i,i)): each matrix row its
    canonical (numerators, denominator), each diagonal entry a Fraction.

    C(i,i) = (1/q)_i (u/q)_i
    M(i,j) = u^j / (q^(j^2) (1/q)_{i-j})
    A(i,j) = 1 / ((1/q)_{i-j} (u/q)_{i+j})
    A^-1(i,j) = (1-u/q^(2i)) (-1)^(i-j) (u/q)_{i+j-1}
                / (q^binom(i-j,2) (1/q)_{i-j})
    E(j,j) = u^j / q^(j^2)

    C and E are diagonal and M, A, A^-1 lower triangular, so truncation
    commutes with every product in the identities.  Entries above the
    diagonal vanish: there (1/q)_{i-j} has a negative index.  The (0,0)
    entry of A^-1 takes (u/q)_{-1} = 1/(1-u) by the analytic extension, so
    (1-u)(u/q)_{-1} = 1; at u = 1 the same entry is its limit, 1.

    Row i of M is over ud^i c^(i^2) I_i, of A over I_i U_{2i} and of A^-1
    over ud^(2i) c^(2i^2 + i) I_i, with numerators from P_j = I_i / I_{i-j}
    = f_i ... f_{i-j+1} and S_j = U_{2i} / U_{i+j} (see _ints); each row is
    reduced once.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    un, ud, c, d, iq, uq = _ints(p)
    size = l_max + 1
    f = [c**k - d**k for k in range(size)]
    g = [ud * c**k - un * d**k for k in range(2 * size)]
    for i in range(size):
        pre = list(accumulate(f[i:0:-1], mul, initial=1))  # P_j
        suf = list(accumulate(g[2 * i:i:-1], mul, initial=1))[::-1]  # S_j
        m = [un**j * d ** (j * j) * ud ** (i - j) * pj
             * c ** (i * i - j * j + (i - j) * (i - j + 1) // 2)
             for j, pj in enumerate(pre)]
        a = [ud ** (i + j) * c ** (i * i + i + j * j) * pj * sj
             for j, (pj, sj) in enumerate(zip(pre, suf))]
        if i:
            a_inv = [(-1) ** (i - j) * g[2 * i] * uq[i + j - 1] * ud ** (i - j)
                     * d ** ((i - j) * (i - j - 1) // 2) * pj
                     * c ** (i - j + i * (2 * i - 1) - (i + j) * (i + j - 1) // 2)
                     for j, pj in enumerate(pre)]
            inv_den = ud ** (2 * i) * c ** (2 * i * i + i) * iq[i]
        else:
            a_inv, inv_den = [1], 1  # the extended entry
        yield (_reduced(m, ud**i * c ** (i * i) * iq[i]),
               _reduced(a, iq[i] * uq[2 * i]),
               _reduced(a_inv, inv_den),
               Fraction(iq[i] * uq[i], ud**i * c ** (i * i + i)),
               Fraction(un**i * d ** (i * i), ud**i * c ** (i * i)))


def kernel_rows(l_max: int, p: MeasureParams):
    """Yield row a = 0..l_max of the kernel as its canonical (numerators,
    denominator), from the numerators over ud^a c^(a^2) (kernel()): from row
    a-1 to row a, [a; b] gains f_a / f_(a-b), G(b+1..a) gains g_a and
    c^binom(a-b,2) gains c^(a-b-1), so each numerator is the one above it
    times small integers, an exact division.  Only the unreduced row above
    is kept."""
    un, ud, c, d, _, _ = _ints(p)
    cs = [c**k for k in range(l_max + 1)]
    f = [ck - d**k for k, ck in enumerate(cs)]
    row = []
    for a in range(l_max + 1):
        step = f[a] * (ud * cs[a] - un * d**a)
        row = ([n * (step * cs[a - b - 1]) // f[a - b] for b, n in enumerate(row)]
               + [un**a * d ** (a * a)])
        yield _reduced(row, ud**a * c ** (a * a))


def kr_closed(l: int, j: int, r: int, p: MeasureParams) -> Fraction:
    """Closed form for the r-step transition probability K^r(l, j).

    The spectral expansion K^r = C A E^r A^-1 C^-1 over eigenvalue indices
    n = j..l (terms outside that range vanish, as a Pochhammer index there
    is negative) is, in the integers of _ints,

        [l; j] G(j+1..l) sum_n (-1)^(n-j) (cd)^binom(n-j,2) g_{2n} [l-j; n-j]
                               E_n^r / G(n+j..l+n)

    with E_n = u^n / q^(n^2).  The n = j = 0 term is exactly 1, by the
    extension that sets A^-1(0,0); the others are summed as integers over
    G(lo..2l) (ud^l c^(l^2))^r, lo = max(2j, 1), and the entry is reduced once.
    """
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    if r < 1:
        raise ValueError("need r >= 1")
    un, ud, c, d, iq, uq = _ints(p)
    span, lo, first = l - j, max(2 * j, 1), max(j, 1)
    f = [c**k - d**k for k in range(span + 1)]
    g = [ud * c**k - un * d**k for k in range(2 * l + 1)]
    # G(l+n+1..2l) for n = first..l
    suf = list(accumulate(g[2 * l:l + first:-1], mul, initial=1))[::-1]
    total, binom, pre = 0, 1, 1  # pre = G(lo..n+j-1)
    for n in range(j, l + 1):
        m = n - j
        if m:
            binom = binom * f[span - m + 1] // f[m]  # [l-j; m]
        if n:
            e = (un**n * d ** (n * n) * ud ** (l - n) * c ** (l * l - n * n)) ** r
            total += ((-1) ** m * g[2 * n] * binom * (c * d) ** (m * (m - 1) // 2) * e
                      * pre * suf[n - first])
            pre *= g[n + j]
    den = prod(g[lo:]) * (ud**l * c ** (l * l)) ** r
    num = iq[l] // (iq[j] * iq[span]) * (uq[l] // uq[j]) * total
    return Fraction(num + den if j == 0 else num, den)


def _path_mass(states, first, step, absorbing) -> Fraction:
    """first(s_1) step(s_1, s_2) ... step(s_n, absorbing) for the path
    states s_1..s_n (a tuple), without the normalizer; the empty path's
    mass is first(absorbing)."""
    mass = first(states[0] if states else absorbing)
    for prev, nxt in zip(states, states[1:] + (absorbing,)):
        mass *= step(prev, nxt)
    return mass


def chain_mass(lam: Partition, p: MeasureParams) -> Fraction:
    """Chain probability of spelling out lam, without the (u/q)_inf prefactor:

        P(lam'_1) K(lam'_1, lam'_2) ... K(lam'_len, 0)
    """
    return _path_mass(lam.conjugate().parts, lambda a: first_col_unnormalized(a, p),
                      lambda a, b: kernel(a, b, p), 0)


# ---------------------------------------------------------------------------
# Sampling


class ChainSample(namedtuple("ChainSample", "seed columns partition")):
    """One absorbed trajectory (seed, columns, partition): the positive chain
    states and the partition.

    For this chain the states are column heights; the Fristedt chain stores
    row lengths in the same slot, and the quiver chain its part-count
    vectors, with a PartitionTuple as the partition.
    """

    __slots__ = ()

    def to_json(self, model="gl") -> dict:
        return {
            "model": model,
            "seed": self.seed,
            "columns": list(self.columns),
            "partition": list(self.partition.parts),
        }


_HEAD_BITS = 192  # leading bits of a sum that a cut point is first made from


def _cut(p, k, t, shift):
    """The cut ceil(P 2^128 / T) of a prefix sum P of weights with total T,
    from p = P >> k and t = T >> shift, k <= shift, or None when these bits
    do not decide it.

    At shift = 0 they are P and T, and the cut is the full division.  Else
    P 2^128 / T lies between p 2^(128+k) / ((t+1) 2^shift) and
    (p+1) 2^(128+k) / (t 2^shift) (p itself at k = 0, where P = p), and at
    most 2^128, as P <= T.  With p and t of _HEAD_BITS bits the two ends
    are less than 2^-62 apart, so when their ceilings agree, the upper one
    taken at most 2^128, that is the cut.  They disagree about once in
    2^62, and whenever P 2^128 / T is an integer below 2^128.
    """
    if not shift:
        return -((-p << 128) // t)
    e = shift - k
    low = -((-p << 128) // ((t + 1) << e))
    high = -((-(p + (k > 0)) << 128) // (t << e))
    return low if low == min(high, 1 << 128) else None


def _cut_points(weights) -> list:
    """Inverse-CDF cut points c_0..c_top of integers w_0..w_top proportional
    to the weights, which weights() yields in that order.

    With P_i the prefix sums and T the total, c_i = ceil(P_i 2^128 / T).
    For an integer V, V/2^128 < P_i/T holds exactly when V < c_i, so
    bisect_right(cuts, V) is the first i with V/2^128 < P_i/T.  The last
    cut is 2^128, so every V < 2^128 picks a state, and no cut is wider
    than 129 bits however long the weights are.

    The total is known only at the end, so one pass keeps the leading
    _HEAD_BITS bits of each prefix sum, and c_i comes from them and the
    total's (_cut).  A cut they leave open is made by a second pass of
    weights(), from the exact sums.  So a pass holds the running sum and
    the current weight, and no list of long integers.
    """
    heads, acc = [], 0
    for w in weights():
        acc += w
        k = max(0, acc.bit_length() - _HEAD_BITS)
        heads.append((acc >> k, k))
    shift = max(0, acc.bit_length() - _HEAD_BITS)
    t = acc >> shift
    cuts = [_cut(p, k, t, shift) for p, k in heads]
    if None in cuts:
        total, acc = acc, 0
        for i, w in enumerate(weights()):
            acc += w
            if cuts[i] is None:
                cuts[i] = _cut(acc, 0, total, 0)
    return cuts


def _ratio_cuts(top: int, ratio) -> list:
    """The cut points (_cut_points) of a positive f(0..top), from the exact
    ratios ratio(b) = f(b-1)/f(b), b = 1..top.

    The integers are w_0, the product of the ratios' numerators, and going
    up w_b = w_(b-1) / ratio(b), an exact integer division since w_(b-1)
    holds the numerators of ratio(b..top).  They are made one at a time,
    and once more if a cut needs the exact sums.
    """
    ratios = [ratio(b) for b in range(1, top + 1)]

    def weights():
        w = prod(r.numerator for r in ratios)
        yield w
        for r in ratios:
            w = w * r.denominator // r.numerator
            yield w

    return _cut_points(weights)


_STREAM_MEMO = 1024  # distinct paths whose sample one stream keeps


class ChainSampler:
    """Inverse-CDF driver of one absorbing chain.

    A path draws its first state from the first-step law, given as keys and
    their cut points (_cut_points), then steps with row(state) -> (keys,
    cut points) until the absorbing state.  Every row built is kept: states
    only decrease, so the table is bounded by the first-step support, and
    it holds cut points of at most 129 bits, not the weights' integers.
    """

    __slots__ = ("first", "row", "absorbing", "rows")

    def __init__(self, keys, cuts, row, absorbing):
        self.first = (tuple(keys), cuts)
        self.row = row
        self.absorbing = absorbing
        self.rows = {}

    def path(self, rng) -> tuple:
        """The states visited before absorption; one 128-bit draw per step."""
        draw = rng.getrandbits
        rows = self.rows
        keys, cuts = self.first
        states = []
        while True:
            state = keys[bisect_right(cuts, draw(128))]
            if state == self.absorbing:
                return tuple(states)
            states.append(state)
            table = rows.get(state)
            if table is None:
                row_keys, cuts = self.row(state)
                table = rows[state] = (tuple(row_keys), cuts)
            keys, cuts = table

    def stream(self, seed: int, count: int, parts):
        """Yield count ChainSamples of one seeded stream, with the partition
        parts(path) of each path; a path is decreasing and positive.

        Within the stream a sample depends only on its path, so the samples
        of the first _STREAM_MEMO distinct paths are kept and yielded again
        when their path recurs; any later path is built anew each time.
        """
        rng = random.Random(seed)
        memo = {}
        for _ in range(count):
            path = self.path(rng)
            s = memo.get(path)
            if s is None:
                s = ChainSample(seed, path, _partition(parts(path)))
                if len(memo) < _STREAM_MEMO:
                    memo[path] = s
            yield s


_SAMPLERS = 16  # per-parameter samplers kept by each model


def row_chain(describe):
    """Decorator: describe(p, eps) -> (ratio, step_ratio, tail) becomes a
    bounded cache of ChainSamplers keyed by (p, eps).

    The chain on row (or column) lengths starts at b with weight first(b),
    steps from s to b <= s with probability step(s, b) and is absorbed at 0;
    all these weights are positive.  The model gives them by their small
    exact ratios ratio(b) = first(b-1)/first(b) and
    step_ratio(s, b) = step(s, b-1)/step(s, b), and the cut points of the
    first step and of each row come straight from those ratios
    (_ratio_cuts).  The first step is cut to 0..A, A the least state whose
    certified tail(A), a bound on the relative first-step mass above A, is
    below 2**-TAIL_BITS.
    """

    @lru_cache(maxsize=_SAMPLERS)
    @wraps(describe)
    def sampler(p, eps) -> ChainSampler:
        ratio, step_ratio, tail = describe(p, eps)
        bound = Fraction(1, 2**TAIL_BITS)
        top = 0
        while tail(top) >= bound:
            top += 1

        def row(s):
            return range(s + 1), _ratio_cuts(s, lambda b: step_ratio(s, b))

        return ChainSampler(range(top + 1), _ratio_cuts(top, ratio), row, 0)

    return sampler


@row_chain
def _sampler(p: MeasureParams, eps: Fraction):
    """The column chain, with first(b) = first_col_unnormalized(b) and
    step(s, b) = kernel(s, b) = first(b) (1/q)_s (u/q)_s / (1/q)_{s-b}."""
    u, q = p.u, p.q
    # a rounded lower bound of (1/q)_inf (u/q)_inf: the exact products need
    # thousands of factors of growing size when u and q are near 1
    lo = poch_inf_lower(1, q, eps) * poch_inf_lower(u, q, eps)
    if lo <= 0:
        raise ValueError("eps too large to certify the support cap")

    def ratio(b):
        return q ** (2 * b - 1) * (1 - q**-b) * (1 - u * q**-b) / u

    return (
        ratio,
        lambda s, b: ratio(b) / (1 - q ** (b - s - 1)),
        # sum_{b>a} u^b q^(-b^2) <= u^(a+1) q^(-(a+1)^2) / (1 - u/q)
        lambda a: u ** (a + 1) / q ** ((a + 1) * (a + 1)) / (1 - u / q) / lo,
    )


def sample_stream(p: MeasureParams, seed: int, count: int, eps=Fraction(1, 2**20)):
    """Yield count samples from a single seeded stream."""
    if p.u >= 1:
        raise ValueError("sampling needs u < 1")
    if count <= 0:
        return  # no draw, so no support cap to certify
    # the path is the column heights; the partition is their conjugate
    yield from _sampler(p, eps).stream(seed, count, _conjugate_parts)


__all__ = [
    "ChainSample",
    "chain_mass",
    "diag_rows",
    "eigen_failures",
    "first_col_law",
    "first_col_unnormalized",
    "kernel",
    "kernel_rows",
    "kr_closed",
    "power_rows",
    "sample_stream",
]
