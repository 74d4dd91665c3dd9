"""Absorbing Markov chain on column lengths generating the GL measure.

All Pochhammer symbols here are the descending convention, read from the
(1/q)_n and (u/q)_n tables; a term whose index would go negative vanishes,
and the formulas test that range explicitly (the matrices are built on their
lower triangle only), except for the single analytic-extension entry noted
in build_diagonalization.

State 0 is absorbing; a trajectory started from the first-column law and
run until absorption spells out the column heights of a random partition.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from qchains.partitions import MeasureParams, Partition, _conjugate_parts, _partition
from qchains.qalgebra import Interval, as_fraction, poch_inf, poch_table

TAIL_BITS = 64  # first-step support cap: certified tail below 2**-TAIL_BITS

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _tables(p: MeasureParams):
    """The (1/q)_n and (u/q)_n tables of the descending convention."""
    return poch_table(1 / p.q, p.q), poch_table(p.u / p.q, p.q)


# ---------------------------------------------------------------------------
# Exact matrices on a truncation


class TruncatedMatrix:
    """A lower-triangular matrix of exact rationals on the states 0..size-1.

    Row i is stored as integer numerators rows[i] = (n_i0, ..., n_ii) over
    one positive denominator dens[i], kept canonical as QSeries keeps its
    coefficients: gcd(dens[i], *rows[i]) == 1, so equal matrices have equal
    rows and dens.  Entries above the diagonal are zero by construction.
    Products, matrix-vector products and equality run on these ints; the
    entries appear as Fractions only at the edges: entry(), power_entry(),
    the mul_vector() result, entry_rows() and the entries view.
    """

    __slots__ = ("rows", "dens", "size", "_cols", "_entries")

    def __init__(self, entries):
        """From a square of exact rationals that vanish above the diagonal."""
        square = [[Fraction(e) for e in row] for row in entries]
        size = len(square)
        if any(len(row) != size for row in square):
            raise ValueError("matrix must be square")
        if any(row[j] for i, row in enumerate(square) for j in range(i + 1, size)):
            raise ValueError("matrix must be lower triangular")
        self._set(*_int_rows(row[: i + 1] for i, row in enumerate(square)))

    def _set(self, rows, dens):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "dens", tuple(dens))
        object.__setattr__(self, "size", len(self.rows))
        object.__setattr__(self, "_cols", None)
        object.__setattr__(self, "_entries", None)

    @classmethod
    def _make(cls, rows, dens):
        """The matrix with entries rows[i][j] / dens[i], dens > 0; each row
        is reduced to the canonical form."""
        out_rows, out_dens = [], []
        for row, den in zip(rows, dens):
            g = gcd(den, *row)
            if g != 1:
                den //= g
                row = [c // g for c in row]
            out_rows.append(tuple(row))
            out_dens.append(den)
        self = object.__new__(cls)
        self._set(out_rows, out_dens)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedMatrix is immutable")

    @classmethod
    def identity(cls, size):
        return cls.diagonal([1] * size)

    @classmethod
    def diagonal(cls, values):
        values = [Fraction(v) for v in values]
        self = object.__new__(cls)
        self._set(
            [(0,) * i + (v.numerator,) for i, v in enumerate(values)],
            [v.denominator for v in values],
        )
        return self

    @classmethod
    def build(cls, size, fn):
        """The matrix with entries fn(i, j) for 0 <= j <= i < size."""
        self = object.__new__(cls)
        self._set(*_int_rows([fn(i, j) for j in range(i + 1)] for i in range(size)))
        return self

    def _columns(self):
        """cols[j] = (n_jj, n_j+1,j, ..., n_size-1,j): the numerators of
        column j from the diagonal down."""
        if self._cols is None:
            rows = self.rows
            cols = tuple(
                tuple(rows[k][j] for k in range(j, self.size))
                for j in range(self.size)
            )
            object.__setattr__(self, "_cols", cols)
        return self._cols

    def entry(self, i, j) -> Fraction:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("entry outside the truncation")
        if j > i:
            return _ZERO
        return Fraction(self.rows[i][j], self.dens[i])

    @property
    def entries(self):
        """The full square of entries as Fractions, built on first use."""
        if self._entries is None:
            n = self.size
            square = tuple(
                tuple(Fraction(c, den) for c in row) + (_ZERO,) * (n - 1 - i)
                for i, (row, den) in enumerate(zip(self.rows, self.dens))
            )
            object.__setattr__(self, "_entries", square)
        return self._entries

    def __matmul__(self, other):
        if not isinstance(other, TruncatedMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        # (AB)(i,j) = sum_{k=j..i} a_ik b_kj / (da_i db_k): over the lcm D_i
        # of db_0..db_i each term is an integer product
        cols = other._columns()
        bdens = other.dens
        rows, dens = [], []
        d_i = 1
        for i, (arow, aden) in enumerate(zip(self.rows, self.dens)):
            d_i = lcm(d_i, bdens[i])
            scaled = [a * (d_i // d) if a else 0 for a, d in zip(arow, bdens)]
            rows.append([sum(map(mul, scaled[j:], cols[j])) for j in range(i + 1)])
            dens.append(aden * d_i)
        return TruncatedMatrix._make(rows, dens)

    def mul_vector(self, vec):
        """self @ vec for a column vector of exact rationals."""
        if len(vec) != self.size:
            raise ValueError("size mismatch")
        nums, den = _common_den(vec)
        return tuple(
            Fraction(sum(map(mul, row, nums)), d * den)
            for row, d in zip(self.rows, self.dens)
        )

    def power_entry(self, i, j, r) -> Fraction:
        """Entry (i, j) of self**r (r >= 0), from row i of the power built by
        r row-vector products on the ints."""
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("entry outside the truncation")
        if r < 0:
            raise ValueError("negative matrix power")
        if j > i:
            return _ZERO
        cols = self._columns()
        dens = self.dens
        # row i of the identity, columns 0..i; the vector is not reduced
        # between steps, since its entries grow to the padding's size anyway
        vec, vden = [0] * i + [1], 1
        for _ in range(r):
            # (v M)(m) = sum_{k=m..i} v_k n_km / d_k, over the lcm of the d_k
            d = lcm(*(dk for v, dk in zip(vec, dens) if v))
            scaled = [v * (d // dk) if v else 0 for v, dk in zip(vec, dens)]
            vec = [sum(map(mul, scaled[m:], cols[m])) for m in range(i + 1)]
            vden *= d
        return Fraction(vec[j], vden)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedMatrix)
            and self.dens == other.dens
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"TruncatedMatrix(size={self.size})"

    def entry_rows(self):
        """Yield each row of the full square as its entries' "p/q" strings,
        converting one row at a time."""
        n = self.size
        for i, (row, den) in enumerate(zip(self.rows, self.dens)):
            yield [str(Fraction(c, den)) for c in row] + ["0"] * (n - 1 - i)


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


def _int_rows(rows):
    """Canonical (rows, dens) of rows of exact rationals: each row over the
    lcm of its reduced denominators."""
    pairs = [_common_den(row) for row in rows]
    return [tuple(nums) for nums, _ in pairs], [den for _, den in pairs]


@dataclass(frozen=True)
class Diagonalization:
    """The factorization K = C M C^-1 with M A = A E, on a truncation.

    c and e are diagonal; m, a, a_inv are lower triangular, so truncation
    commutes with every product appearing in the identities.
    """

    c: TruncatedMatrix
    m: TruncatedMatrix
    a: TruncatedMatrix
    a_inv: TruncatedMatrix
    e: TruncatedMatrix
    params: MeasureParams

    @property
    def size(self):
        return self.c.size

    @property
    def eigenvalues(self):
        return tuple(self.e.entry(j, j) for j in range(self.size))

    def kernel_matrix(self) -> TruncatedMatrix:
        """K = C M C^-1, computed entrywise from the diagonal C."""
        cd = [self.c.entry(i, i) for i in range(self.size)]
        return TruncatedMatrix.build(
            self.size, lambda i, j: cd[i] * self.m.entry(i, j) / cd[j]
        )


# ---------------------------------------------------------------------------
# Kernel, first-column law, diagonalization, closed-form powers


def kernel(a: int, b: int, p: MeasureParams) -> Fraction:
    """One-step transition probability from column height a to b.

    Vanishes outside 0 <= b <= a, where (1/q)_{a-b} or (1/q)_b would have a
    negative index.
    """
    if a < 0:
        raise ValueError("state must be >= 0")
    if not 0 <= b <= a:
        return _ZERO
    u, q = p.u, p.q
    iq, uq = _tables(p)
    return u**b * iq[a] * uq[a] / (q ** (b * b) * iq[a - b] * iq[b] * uq[b])


def first_col_unnormalized(a: int, p: MeasureParams) -> Fraction:
    """First-column mass without the infinite-product prefactor:

        u^a / (q^(a^2) (1/q)_a (u/q)_a)
    """
    if a < 0:
        raise ValueError("state must be >= 0")
    iq, uq = _tables(p)
    return p.u**a / (p.q ** (a * a) * iq[a] * uq[a])


def first_col_law(a: int, p: MeasureParams, eps) -> Interval:
    """P(first column = a): the exact ratio times the certified (u/q)_inf."""
    if p.u == 1:
        raise ValueError("u = 1 is not a probability measure; use u < 1")
    return poch_inf(p.u, p.q, eps).scale(first_col_unnormalized(a, p))


def _eigenvalues(p: MeasureParams, size: int) -> list:
    """E(j,j) = u^j / q^(j^2) for j = 0..size-1."""
    u, q = p.u, p.q
    return [u**j / q ** (j * j) for j in range(size)]


def build_diagonalization(l_max: int, p: MeasureParams) -> Diagonalization:
    """Exact diagonalization data on states 0..l_max.

    C(i,i) = (1/q)_i (u/q)_i
    M(i,j) = u^j / (q^(j^2) (1/q)_{i-j})
    A(i,j) = 1 / ((1/q)_{i-j} (u/q)_{i+j})
    A^-1(i,j) = (1-u/q^(2i)) (-1)^(i-j) (u/q)_{i+j-1}
                / (q^binom(i-j,2) (1/q)_{i-j})
    E(j,j) = u^j / q^(j^2)

    Each entry is a product of per-index factors computed once: M is a
    Toeplitz factor in i-j times E, A a Toeplitz times a Hankel (i+j)
    factor, and A^-1 a row factor times a Hankel and a Toeplitz factor.
    Entries above the diagonal vanish: there (1/q)_{i-j} has a negative
    index.  The (0,0) entry of A^-1 takes (u/q)_{-1} = 1/(1-u) by the
    analytic extension, so (1-u)(u/q)_{-1} = 1; at u = 1 the same entry is
    its limit, 1.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    u, q = p.u, p.q
    iq, uq = _tables(p)
    size = l_max + 1
    e = _eigenvalues(p, size)
    t = [1 / iq[d] for d in range(size)]
    h = [1 / uq[s] for s in range(2 * size - 1)]
    g = [(-1 if d % 2 else 1) / (q ** (d * (d - 1) // 2) * iq[d]) for d in range(size)]
    w = [1 - u / q ** (2 * i) for i in range(size)]  # row factor of A^-1
    return Diagonalization(
        c=TruncatedMatrix.diagonal(iq[i] * uq[i] for i in range(size)),
        m=TruncatedMatrix.build(size, lambda i, j: t[i - j] * e[j]),
        a=TruncatedMatrix.build(size, lambda i, j: t[i - j] * h[i + j]),
        a_inv=TruncatedMatrix.build(  # row 0 is the extended entry 1
            size, lambda i, j: w[i] * uq[i + j - 1] * g[i - j] if i else _ONE
        ),
        e=TruncatedMatrix.diagonal(e),
        params=p,
    )


def kernel_matrix(l_max: int, p: MeasureParams) -> TruncatedMatrix:
    """The kernel on states 0..l_max, built as C T E C^-1 with the Toeplitz
    T(i,j) = 1/(1/q)_{i-j} (the factors of kernel())."""
    iq, uq = _tables(p)
    size = l_max + 1
    c = [iq[i] * uq[i] for i in range(size)]
    t = [1 / iq[d] for d in range(size)]
    f = [ej / cj for ej, cj in zip(_eigenvalues(p, size), c)]
    return TruncatedMatrix.build(size, lambda i, j: c[i] * t[i - j] * f[j])


_CLOSED_PARAMS = 4  # parameter sets whose factors kr_closed keeps
_CLOSED_FACTORS = 2048  # factors of each kind kept per parameter set


@lru_cache(maxsize=_CLOSED_PARAMS)
def _closed_factors(p: MeasureParams):
    """(head, tail): the two factor kinds of kr_closed at p, each a bounded
    cache keyed by integers only, so a lookup hashes no Fraction.

    head(l, n, r) = C(l) A(l,n) E(n)^r, the factor of the n-th term free of j;
    tail(n, j) = A^-1(n,j) / C(j), the factor of the n-th term free of l, r.
    """
    u, q = p.u, p.q
    iq, uq = _tables(p)

    @lru_cache(maxsize=_CLOSED_FACTORS)
    def head(l: int, n: int, r: int) -> Fraction:
        return iq[l] * uq[l] / (iq[l - n] * uq[l + n]) * (u**n / q ** (n * n)) ** r

    @lru_cache(maxsize=_CLOSED_FACTORS)
    def tail(n: int, j: int) -> Fraction:
        if n == 0:
            return _ONE  # (1 - u/q^0) (u/q)_{-1} via the extension; 1 at u = 1
        d = n - j
        core = (1 - u / q ** (2 * n)) * uq[n + j - 1]
        sign = -1 if d % 2 else 1
        return sign * core / (q ** (d * (d - 1) // 2) * iq[d] * iq[j] * uq[j])

    return head, tail


def kr_closed(l: int, j: int, r: int, p: MeasureParams) -> Fraction:
    """Closed form for the r-step transition probability K^r(l, j).

    Sums the spectral expansion K^r = C A E^r A^-1 C^-1 over eigenvalue
    indices n = j..l; terms outside that range vanish (a Pochhammer index
    there is negative), and the n = j = 0 term uses the same extension as
    A^-1(0,0).  Each term is a factor free of j times a factor free of l
    and r; both are kept in bounded per-parameter caches, and the terms are
    summed as integers over the lcm of their denominators.
    """
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    if r < 1:
        raise ValueError("need r >= 1")
    head, tail = _closed_factors(p)
    terms = range(j, l + 1)
    return _dot([head(l, n, r) for n in terms], [tail(n, j) for n in terms])


def chain_mass(lam: Partition, p: MeasureParams) -> Fraction:
    """Chain probability of spelling out lam, without the (u/q)_inf prefactor:

        P(lam'_1) K(lam'_1, lam'_2) ... K(lam'_len, 0)
    """
    cols = lam.conjugate().parts
    if not cols:
        return _ONE  # unnormalized P(0)
    mass = first_col_unnormalized(cols[0], p)
    for prev, nxt in zip(cols, cols[1:] + (0,)):
        mass *= kernel(prev, nxt, p)
    return mass


# ---------------------------------------------------------------------------
# Sampling


class ChainSample(NamedTuple):
    """One absorbed trajectory: the positive chain states and the partition.

    For this chain the states are column heights; the Fristedt chain stores
    row lengths in the same slot.
    """

    seed: int
    columns: tuple
    partition: Partition

    def to_json(self, model="gl") -> dict:
        return {
            "model": model,
            "seed": self.seed,
            "columns": list(self.columns),
            "partition": list(self.partition.parts),
        }


class _Cdf:
    """Exact inverse-CDF table over integer prefix sums.

    It takes a list of integers proportional to the weights, at any common
    scale, and turns that list into its prefix sums P_i in place.  With T
    the total, pick(V) is the first i with V/2^128 < P_i/T, compared as
    V T < P_i 2^128 without any reduction, so the scale never changes a draw.
    """

    __slots__ = ("bounds", "total")

    def __init__(self, nums: list):
        acc = 0
        for i, w in enumerate(nums):
            acc += w
            nums[i] = acc << 128
        self.bounds = nums
        self.total = acc

    def pick(self, v: int) -> int:
        return min(bisect_right(self.bounds, v * self.total), len(self.bounds) - 1)


class ChainSampler:
    """Inverse-CDF driver of one absorbing chain.

    A path draws its first state from the first-step law, given as keys and
    integers proportional to their weights, then steps with
    row(state) -> (keys, integers) until the absorbing state.  Every row CDF
    built is kept: states only decrease, so the table is bounded by the
    first-step support.
    """

    __slots__ = ("first", "row", "absorbing", "rows")

    def __init__(self, keys, nums, row, absorbing):
        self.first = (tuple(keys), _Cdf(nums))
        self.row = row
        self.absorbing = absorbing
        self.rows = {}

    def path(self, rng) -> tuple:
        """The states visited before absorption; one 128-bit draw per step."""
        keys, cdf = self.first
        states = []
        while True:
            state = keys[cdf.pick(rng.getrandbits(128))]
            if state == self.absorbing:
                return tuple(states)
            states.append(state)
            table = self.rows.get(state)
            if table is None:
                row_keys, nums = self.row(state)
                table = self.rows[state] = (tuple(row_keys), _Cdf(nums))
            keys, cdf = table


_SAMPLERS = 16  # per-parameter samplers kept by each model


def _ratio_ints(top: int, ratio) -> list:
    """Integers w_0..w_top proportional to a positive f(0..top), from the
    exact ratios ratio(b) = f(b-1)/f(b), b = 1..top.

    w_top is the product of the ratios' denominators; going down, w_b holds
    the denominators of ratio(1..b), so each step w_{b-1} = w_b ratio(b) is
    an exact integer division.
    """
    ratios = [ratio(b) for b in range(1, top + 1)]
    w = prod(r.denominator for r in ratios)
    out = [w]
    for r in reversed(ratios):
        w = w * r.numerator // r.denominator
        out.append(w)
    out.reverse()
    return out


def row_chain(describe):
    """Decorator: describe(p, eps) -> (ratio, step_ratio, tail) becomes a
    bounded cache of ChainSamplers keyed by (p, eps).

    The chain on row (or column) lengths starts at b with weight first(b),
    steps from s to b <= s with probability step(s, b) and is absorbed at 0;
    all these weights are positive.  The model gives them by their small
    exact ratios ratio(b) = first(b-1)/first(b) and
    step_ratio(s, b) = step(s, b-1)/step(s, b), and the first step and each
    row are integers built from the top state down (_ratio_ints).  The first
    step is cut to 0..A, A the least state whose certified tail(A), a bound
    on the relative first-step mass above A, is below 2**-TAIL_BITS.
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
            return range(s + 1), _ratio_ints(s, lambda b: step_ratio(s, b))

        return ChainSampler(range(top + 1), _ratio_ints(top, ratio), row, 0)

    return sampler


@row_chain
def _sampler(p: MeasureParams, eps: Fraction):
    """The column chain, with first(b) = first_col_unnormalized(b) and
    step(s, b) = kernel(s, b) = first(b) (1/q)_s (u/q)_s / (1/q)_{s-b}."""
    u, q = p.u, p.q
    lo = poch_inf(1, q, eps).lo * poch_inf(u, q, eps).lo
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


def sample(p: MeasureParams, seed: int, eps=Fraction(1, 2**20)) -> ChainSample:
    """Draw one partition from the chain: the first item of the seed's stream."""
    return next(sample_stream(p, seed, 1, eps))


def sample_stream(p: MeasureParams, seed: int, count: int, eps=Fraction(1, 2**20)):
    """Yield count samples from a single seeded stream."""
    if p.u >= 1:
        raise ValueError("sampling needs u < 1")
    if count <= 0:
        return  # no draw, so no support cap to certify
    chain = _sampler(p, eps)
    rng = random.Random(seed)
    for _ in range(count):
        cols = chain.path(rng)  # decreasing and positive: a partition
        yield ChainSample(seed, cols, _partition(_conjugate_parts(cols)))


__all__ = [
    "ChainSample",
    "Diagonalization",
    "TruncatedMatrix",
    "build_diagonalization",
    "chain_mass",
    "first_col_law",
    "first_col_unnormalized",
    "kernel",
    "kernel_matrix",
    "kr_closed",
    "sample",
    "sample_stream",
]
