"""Absorbing Markov chain on column lengths generating the GL measure.

All Pochhammer symbols here are the descending convention, (x/q)_n =
(1-x/q)...(1-x/q^n).  The kernel, the diagonalization and the closed-form
powers take them as integer numerators over closed-form denominators (_ints),
so a matrix row is built from integer products and exact quotients and
reduced once.  A term whose index would go negative vanishes, and the
formulas test that range explicitly (the matrices are built on their lower
triangle only), except for the single analytic-extension entry noted in
build_diagonalization.

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
from qchains.record import Frozen, Record, _set

TAIL_BITS = 64  # first-step support cap: certified tail below 2**-TAIL_BITS

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact matrices on a truncation


class TruncatedMatrix(Frozen):
    """A lower-triangular matrix of exact rationals on the states 0..size-1.

    Row i is stored as integer numerators rows[i] = (n_i0, ..., n_ii) over
    one positive denominator dens[i], kept canonical: gcd(dens[i], *rows[i])
    == 1, so equal matrices have equal rows and dens.  Entries above the
    diagonal are zero by construction.
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
        self._fill(*_int_rows(row[: i + 1] for i, row in enumerate(square)))

    def _fill(self, rows, dens):
        _set(self, "rows", tuple(rows))
        _set(self, "dens", tuple(dens))
        _set(self, "size", len(self.rows))
        _set(self, "_cols", None)
        _set(self, "_entries", None)

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
        self._fill(out_rows, out_dens)
        return self

    def __reduce__(self):
        return TruncatedMatrix._make, (self.rows, self.dens)

    @classmethod
    def identity(cls, size):
        return cls.diagonal([1] * size)

    @classmethod
    def diagonal(cls, values):
        values = [Fraction(v) for v in values]
        return cls._make([(0,) * i + (v.numerator,) for i, v in enumerate(values)],
                         [v.denominator for v in values])

    @classmethod
    def build(cls, size, fn):
        """The matrix with entries fn(i, j) for 0 <= j <= i < size."""
        return cls._make(*_int_rows([fn(i, j) for j in range(i + 1)] for i in range(size)))

    def _columns(self):
        """cols[j] = (n_jj, n_j+1,j, ..., n_size-1,j): the numerators of
        column j from the diagonal down."""
        if self._cols is None:
            rows = self.rows
            cols = tuple(
                tuple(rows[k][j] for k in range(j, self.size))
                for j in range(self.size)
            )
            _set(self, "_cols", cols)
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
            _set(self, "_entries", square)
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


class Diagonalization(Record):
    """The factorization K = C M C^-1 with M A = A E, on a truncation.

    c and e are diagonal; m, a, a_inv are lower triangular, so truncation
    commutes with every product appearing in the identities.
    """

    __slots__ = ("c", "m", "a", "a_inv", "e", "params")

    def __init__(self, c: TruncatedMatrix, m: TruncatedMatrix, a: TruncatedMatrix,
                 a_inv: TruncatedMatrix, e: TruncatedMatrix, params: MeasureParams):
        _set(self, "c", c)
        _set(self, "m", m)
        _set(self, "a", a)
        _set(self, "a_inv", a_inv)
        _set(self, "e", e)
        _set(self, "params", params)

    @property
    def size(self):
        return self.c.size

    def kernel_matrix(self) -> TruncatedMatrix:
        """K = C M C^-1: M(i,j) C(i,i)/C(j,j) = M(i,j) rho_{j+1} ... rho_i with
        rho_k = C(k,k)/C(k-1,k-1), so row i of M times integers over its
        denominator times pre[i], the denominators of rho_1 .. rho_i."""
        c = [self.c.entry(k, k) for k in range(self.size)]
        rho = [None] + [ck / c[k - 1] for k, ck in enumerate(c) if k]
        pre = list(accumulate((r.denominator for r in rho[1:]), mul, initial=1))
        rows = []
        for i, row in enumerate(self.m.rows):
            nums, up = [0] * (i + 1), 1  # up: the numerators of rho_{j+1} .. rho_i
            for j in range(i, -1, -1):
                nums[j] = row[j] * up * pre[j]
                if j:
                    up *= rho[j].numerator
            rows.append(nums)
        dens = [d * pre[i] for i, d in enumerate(self.m.dens)]
        return TruncatedMatrix._make(rows, dens)


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

    Row i of M is over ud^i c^(i^2) I_i, of A over I_i U_{2i} and of A^-1
    over ud^(2i) c^(2i^2 + i) I_i, with numerators from P_j = I_i / I_{i-j}
    = f_i ... f_{i-j+1} and S_j = U_{2i} / U_{i+j} (see _ints).
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    un, ud, c, d, iq, uq = _ints(p)
    size = l_max + 1
    f = [c**k - d**k for k in range(size)]
    g = [ud * c**k - un * d**k for k in range(2 * size)]
    m, a, a_inv = [], [], [[1]]  # row 0 of A^-1 is the extended entry
    for i in range(size):
        pre = list(accumulate(f[i:0:-1], mul, initial=1))  # P_j
        suf = list(accumulate(g[2 * i:i:-1], mul, initial=1))[::-1]  # S_j
        m.append([un**j * d ** (j * j) * ud ** (i - j) * pj
                  * c ** (i * i - j * j + (i - j) * (i - j + 1) // 2)
                  for j, pj in enumerate(pre)])
        a.append([ud ** (i + j) * c ** (i * i + i + j * j) * pj * sj
                  for j, (pj, sj) in enumerate(zip(pre, suf))])
        if i:
            a_inv.append([(-1) ** (i - j) * g[2 * i] * uq[i + j - 1] * ud ** (i - j)
                          * d ** ((i - j) * (i - j - 1) // 2) * pj
                          * c ** (i - j + i * (2 * i - 1) - (i + j) * (i + j - 1) // 2)
                          for j, pj in enumerate(pre)])
    rows = range(size)
    return Diagonalization(
        c=TruncatedMatrix._make([[0] * i + [iq[i] * uq[i]] for i in rows],
                                [ud**i * c ** (i * i + i) for i in rows]),
        m=TruncatedMatrix._make(m, [ud**i * c ** (i * i) * iq[i] for i in rows]),
        a=TruncatedMatrix._make(a, [iq[i] * uq[2 * i] for i in rows]),
        a_inv=TruncatedMatrix._make(a_inv, [ud ** (2 * i) * c ** (2 * i * i + i) * iq[i]
                                            if i else 1 for i in rows]),
        e=TruncatedMatrix._make([[0] * i + [un**i * d ** (i * i)] for i in rows],
                                [ud**i * c ** (i * i) for i in rows]),
        params=p,
    )


def kernel_matrix(l_max: int, p: MeasureParams) -> TruncatedMatrix:
    """The kernel on states 0..l_max, by rows over ud^a c^(a^2) (kernel()):
    from row a-1 to row a, [a; b] gains f_a / f_(a-b), G(b+1..a) gains g_a
    and c^binom(a-b,2) gains c^(a-b-1), so each numerator is the one above
    it times small integers, an exact division."""
    un, ud, c, d, _, _ = _ints(p)
    size = l_max + 1
    cs = [c**k for k in range(size)]
    f = [ck - d**k for k, ck in enumerate(cs)]
    rows = [[]]
    for a in range(size):
        step = f[a] * (ud * cs[a] - un * d**a)
        rows.append([n * (step * cs[a - b - 1]) // f[a - b]
                     for b, n in enumerate(rows[-1])] + [un**a * d ** (a * a)])
    return TruncatedMatrix._make(rows[1:], [ud**a * c ** (a * a) for a in range(size)])


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


class ChainSample(namedtuple("ChainSample", "seed columns partition")):
    """One absorbed trajectory (seed, columns, partition): the positive chain
    states and the partition.

    For this chain the states are column heights; the Fristedt chain stores
    row lengths in the same slot.
    """

    __slots__ = ()

    def to_json(self, model="gl") -> dict:
        return {
            "model": model,
            "seed": self.seed,
            "columns": list(self.columns),
            "partition": list(self.partition.parts),
        }


def _cuts(nums: list) -> list:
    """Inverse-CDF cut points of integers proportional to the weights, at any
    common scale; the list is overwritten with them and returned.

    With P_i the prefix sums and T the total, c_i = ceil(P_i 2^128 / T).
    For an integer V, V/2^128 < P_i/T holds exactly when V < c_i, so
    bisect_right(cuts, V) is the first i with V/2^128 < P_i/T.  The last
    cut is 2^128, so every V < 2^128 picks a state, and no cut is wider
    than 129 bits however long the weights are.

    A long total is not divided into: with a and b the sums' leading bits
    from bit k up (b of 192 bits), P_i 2^128 / T lies strictly between
    a 2^128 / (b+1) and (a+1) 2^128 / b, less than 2^-62 apart, so when
    their ceilings agree that is c_i.  Otherwise, about once in 2^62 or
    when c_i is hit exactly, c_i is the full division.
    """
    total = sum(nums)
    k = max(0, total.bit_length() - 192)
    b = total >> k
    acc = 0
    for i, w in enumerate(nums):
        acc += w
        if k:
            a = acc >> k
            cut = -((-a << 128) // (b + 1))
            if cut == -((-(a + 1) << 128) // b):
                nums[i] = cut
                continue
        nums[i] = -((-acc << 128) // total)
    return nums


_STREAM_MEMO = 1024  # distinct paths whose sample one stream keeps


class ChainSampler:
    """Inverse-CDF driver of one absorbing chain.

    A path draws its first state from the first-step law, given as keys and
    integers proportional to their weights, then steps with
    row(state) -> (keys, integers) until the absorbing state.  Each law is
    kept as its keys and cut points (_cuts).  Every row built is kept:
    states only decrease, so the table is bounded by the first-step support.
    """

    __slots__ = ("first", "row", "absorbing", "rows")

    def __init__(self, keys, nums, row, absorbing):
        self.first = (tuple(keys), _cuts(nums))
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
                row_keys, nums = self.row(state)
                table = rows[state] = (tuple(row_keys), _cuts(nums))
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
    "Diagonalization",
    "TruncatedMatrix",
    "build_diagonalization",
    "chain_mass",
    "first_col_law",
    "first_col_unnormalized",
    "kernel",
    "kernel_matrix",
    "kr_closed",
    "sample_stream",
]
