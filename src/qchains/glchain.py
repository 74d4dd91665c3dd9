"""Absorbing Markov chain on column lengths generating the GL measure.

All Pochhammer symbols here are the descending convention, read from the
(1/q)_n and (u/q)_n tables; a term whose index would go negative vanishes,
and the formulas test that range explicitly, except for the single
analytic-extension entry noted in build_diagonalization.

State 0 is absorbing; a trajectory started from the first-column law and
run until absorption spells out the column heights of a random partition.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from qchains.partitions import MeasureParams, Partition
from qchains.qalgebra import Interval, poch_inf, poch_table

TAIL_BITS = 64  # first-step support cap: certified tail below 2**-TAIL_BITS

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _tables(p: MeasureParams):
    """The (1/q)_n and (u/q)_n tables of the descending convention."""
    return poch_table(1 / p.q, p.q), poch_table(p.u / p.q, p.q)


# ---------------------------------------------------------------------------
# Exact matrices on a truncation


class TruncatedMatrix:
    """A square matrix of exact rationals on the state truncation 0..size-1."""

    __slots__ = ("entries", "size")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(e) for e in row) for row in entries)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedMatrix is immutable")

    @classmethod
    def identity(cls, size):
        return cls(
            [[_ONE if i == j else _ZERO for j in range(size)] for i in range(size)]
        )

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        size = len(values)
        return cls(
            [
                [values[i] if i == j else _ZERO for j in range(size)]
                for i in range(size)
            ]
        )

    @classmethod
    def build(cls, size, fn):
        return cls([[fn(i, j) for j in range(size)] for i in range(size)])

    def entry(self, i, j) -> Fraction:
        return self.entries[i][j]

    @property
    def is_lower_triangular(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    @property
    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )

    def __matmul__(self, other):
        if not isinstance(other, TruncatedMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        out = []
        for i in range(n):
            arow = self.entries[i]
            orow = [_ZERO] * n
            for k in range(n):
                a = arow[k]
                if a == 0:
                    continue
                brow = other.entries[k]
                for j in range(n):
                    b = brow[j]
                    if b != 0:
                        orow[j] += a * b
            out.append(orow)
        return TruncatedMatrix(out)

    def matpow(self, r: int):
        if r < 0:
            raise ValueError("negative matrix power")
        out = TruncatedMatrix.identity(self.size)
        for _ in range(r):
            out = out @ self
        return out

    def mul_vector(self, vec):
        if len(vec) != self.size:
            raise ValueError("size mismatch")
        return tuple(
            sum((row[j] * vec[j] for j in range(self.size)), _ZERO)
            for row in self.entries
        )

    def __eq__(self, other):
        return isinstance(other, TruncatedMatrix) and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"TruncatedMatrix(size={self.size})"

    def to_json(self, params=None, model="gl", name=None) -> dict:
        out = {
            "size": self.size,
            "model": model,
            "entries": [str(e) for row in self.entries for e in row],
        }
        if name:
            out["name"] = name
        if params is not None:
            out["params"] = params
        return out


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


def build_diagonalization(l_max: int, p: MeasureParams) -> Diagonalization:
    """Exact diagonalization data on states 0..l_max.

    C(i,i) = (1/q)_i (u/q)_i
    M(i,j) = u^j / (q^(j^2) (1/q)_{i-j})
    A(i,j) = 1 / ((1/q)_{i-j} (u/q)_{i+j})
    A^-1(i,j) = (1-u/q^(2i)) (-1)^(i-j) (u/q)_{i+j-1}
                / (q^binom(i-j,2) (1/q)_{i-j})
    E(j,j) = u^j / q^(j^2)

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

    c = TruncatedMatrix.diagonal(iq[i] * uq[i] for i in range(size))
    e = TruncatedMatrix.diagonal(u**j / q ** (j * j) for j in range(size))

    def m_entry(i, j):
        if i < j:
            return _ZERO
        return u**j / (q ** (j * j) * iq[i - j])

    def a_entry(i, j):
        if i < j:
            return _ZERO
        return 1 / (iq[i - j] * uq[i + j])

    def ainv_entry(i, j):
        if i < j:
            return _ZERO
        if i == 0 and j == 0:
            return _ONE  # (1 - u) * (u/q)_{-1}, extended; limit 1 at u = 1
        d = i - j
        core = (1 - u / q ** (2 * i)) * uq[i + j - 1]
        sign = -1 if d % 2 else 1
        return sign * core / (q ** (d * (d - 1) // 2) * iq[d])

    return Diagonalization(
        c=c,
        m=TruncatedMatrix.build(size, m_entry),
        a=TruncatedMatrix.build(size, a_entry),
        a_inv=TruncatedMatrix.build(size, ainv_entry),
        e=e,
        params=p,
    )


def kernel_matrix(l_max: int, p: MeasureParams) -> TruncatedMatrix:
    return TruncatedMatrix.build(l_max + 1, lambda i, j: kernel(i, j, p))


def kr_closed(l: int, j: int, r: int, p: MeasureParams) -> Fraction:
    """Closed form for the r-step transition probability K^r(l, j).

    Sums the spectral expansion over eigenvalue indices n = j..l; terms
    outside that range vanish (a Pochhammer index there is negative), and
    the n = j = 0 term uses the same extension as A^-1(0,0).
    """
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    if r < 1:
        raise ValueError("need r >= 1")
    u, q = p.u, p.q
    iq, uq = _tables(p)
    pref = iq[l] * uq[l] / (iq[j] * uq[j])
    total = _ZERO
    for n in range(j, l + 1):
        if n + j == 0:
            core = _ONE  # (1 - u/q^0) (u/q)_{-1} via the extension; 1 at u = 1
        else:
            core = (1 - u / q ** (2 * n)) * uq[n + j - 1]
        d = n - j
        sign = -1 if d % 2 else 1
        num = u ** (r * n) * core * sign
        den = (
            q ** (r * n * n)
            * iq[l - n]
            * uq[l + n]
            * q ** (d * (d - 1) // 2)
            * iq[d]
        )
        total += num / den
    return pref * total


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


@dataclass(frozen=True)
class ChainSample:
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

    With the weights over one common denominator, P_i are the prefix sums of
    their numerators and T the total; pick(V) is the first i with
    V/2^128 < P_i/T, compared as V T < P_i 2^128 without any reduction.
    """

    __slots__ = ("bounds", "total")

    def __init__(self, weights):
        den = lcm(*(w.denominator for w in weights))
        acc = 0
        self.bounds = []
        for w in weights:
            acc += w.numerator * (den // w.denominator)
            self.bounds.append(acc << 128)
        self.total = acc

    def pick(self, v: int) -> int:
        return min(bisect_right(self.bounds, v * self.total), len(self.bounds) - 1)


class ChainSampler:
    """Inverse-CDF driver of one absorbing chain.

    A path draws its first state from the first-step law (keys, weights),
    then steps with row(state) -> (keys, weights) until the absorbing state.
    Every row CDF built is kept: states only decrease, so the table is
    bounded by the first-step support.
    """

    __slots__ = ("first", "row", "absorbing", "rows")

    def __init__(self, keys, weights, row, absorbing):
        self.first = (tuple(keys), _Cdf(weights))
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
                row_keys, weights = self.row(state)
                table = self.rows[state] = (tuple(row_keys), _Cdf(weights))
            keys, cdf = table


_SAMPLERS = 16  # per-parameter samplers kept by each model


@lru_cache(maxsize=_SAMPLERS)
def _sampler(p: MeasureParams, eps: Fraction) -> ChainSampler:
    """The column chain, its first step on 0..A, A minimal with certified
    tail below 2**-TAIL_BITS."""
    u, q = p.u, p.q
    lo = poch_inf(1, q, eps).lo * poch_inf(u, q, eps).lo
    if lo <= 0:
        raise ValueError("eps too large to certify the support cap")
    bound = Fraction(1, 2**TAIL_BITS)
    a = 0
    while True:
        # sum_{b>a} u^b q^(-b^2) <= u^(a+1) q^(-(a+1)^2) / (1 - u/q)
        tail = u ** (a + 1) / q ** ((a + 1) * (a + 1)) / (1 - u / q) / lo
        if tail < bound:
            break
        a += 1

    def row(s):
        return range(s + 1), [kernel(s, b, p) for b in range(s + 1)]

    weights = [first_col_unnormalized(b, p) for b in range(a + 1)]
    return ChainSampler(range(a + 1), weights, row, 0)


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
        cols = chain.path(rng)
        yield ChainSample(
            seed=seed, columns=cols, partition=Partition(cols).conjugate()
        )


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
