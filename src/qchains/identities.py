"""Sum/product sides of the Rogers-Ramanujan and Andrews-Gordon identities,
the absorption-limit series that proves them probabilistically, and Bailey
pairs with the Bailey step.

The series here are formal in x with integer coefficients; the chain
parameters enter through the substitution u = x^delta, x = 1/q (delta is 0
or 1; those are the only two values the pipeline needs).  Bailey pairs are
finite rational sequences, related and stepped by the chain's matrices.

The Andrews-Gordon sum side reads the Euler inverses 1/(x)_m of one order,
each row m only to order - m^2 (_inverse_rows).  At k = 2 it reads each row
once, in order, so it streams them and keeps none.  At k >= 3 two bounded
caches serve it: the rows of one order as a table (_euler_inverses), and
their pair products 1/((x)_a (x)_b) (_euler_pair), keyed by (order, a, b)
with a <= b and kept only as far as ag_sum reads them.  Every identity of one
order, at every k >= 3 and i, shares them, so each row is made and each pair
multiplied once per order.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt
from operator import add, mul

from qchains.glchain import _common_den, diag_rows
from qchains.partitions import MeasureParams
from qchains.qalgebra import QSeries, conv_trunc, geom_inv_mul, geom_inv_prod
from qchains.record import Record, _set


class AGSpec(Record):
    """One identity instance: modulus family k, residue index i, order."""

    __slots__ = ("k", "i", "order")

    def __init__(self, k: int, i: int, order: int):
        if k < 2:
            raise ValueError("k must be >= 2")
        if not 1 <= i <= k:
            raise ValueError("i must satisfy 1 <= i <= k")
        if order < 0:
            raise ValueError("order must be >= 0")
        _set(self, "k", k)
        _set(self, "i", i)
        _set(self, "order", order)


def _inverse_rows(order: int):
    """Yield the integer coefficients of 1/((1-x)...(1-x^m)) for m = 0..isqrt(order)+1,
    row m to max(order - m^2, 0): ag_sum shifts row m by at least m^2 (see
    ag_sum and _euler_pair), so it never reads further."""
    row = (1,) + (0,) * order
    yield row
    for m in range(1, isqrt(order) + 2):
        row = tuple(geom_inv_mul(row, m, max(order - m * m, 0)))
        yield row


@lru_cache(maxsize=8)
def _euler_inverses(order: int) -> tuple:
    """The rows of _inverse_rows(order) as one table, for the readers that
    need them at random (ag_sum at k >= 3 and _euler_pair)."""
    return tuple(_inverse_rows(order))


_PAIRS = 512  # Euler-pair products kept, over all orders


@lru_cache(maxsize=_PAIRS)
def _euler_pair(order: int, a: int, b: int) -> tuple:
    """The integer coefficients of 1/((x)_a (x)_b) for a <= b, to
    order - (a+b)^2 - a^2: ag_sum reads the pair of (M, N - M) at a shift of
    at least N^2 + M^2, so never past that."""
    inv = _euler_inverses(order)
    return tuple(conv_trunc(inv[a], inv[b], order - (a + b) ** 2 - a * a))


def ag_sum(spec: AGSpec) -> QSeries:
    """Sum side: over tails N_1 >= ... >= N_{k-1} >= N_k = 0, with (x)_n ascending,

        x^(N_1^2+...+N_{k-1}^2 + N_i+...+N_{k-1}) / prod_j (x)_{N_j - N_{j+1}},

    nested like Horner's rule: with e_j(N) = N^2 + [j >= i] N, G_{k-1}(N) =
    x^e_{k-1}(N)/(x)_N, G_j(N) = x^e_j(N) sum_{M<=N} G_{j+1}(M)/(x)_{N-M} and
    the sum is sum_N G_1(N).  Summands are truncated before their products.
    Every term is an integer series, so the sums run on integer lists.  At
    level k-2 the products are 1/((x)_M (x)_(N-M)), the same for every i
    and k at one order, so they come from the _euler_pair cache.  Level k-1
    reads row N of the Euler inverses to order - e_(k-1)(N), and a lower
    level reads row N - M to at most order - N^2 - M^2."""
    k, i, order = spec.k, spec.i, spec.order
    inv = _euler_inverses(order) if k > 2 else None  # k = 2 reads each row once
    acc = [0] * (order + 1)
    inner = []  # (e, body) with G_{j+1}(M) = x^e body, body to order - e
    for j in range(k - 1, 0, -1):
        level = []
        for n, row in enumerate(_inverse_rows(order) if inv is None else inv):
            expo = n * n + (n if j >= i else 0)
            if expo + (j - 1) * n * n > order:
                break  # positions 1..j-1 each hold at least n
            rest = order - expo
            if j == k - 1:
                term = row[: rest + 1]
            else:
                term = [0] * (rest + 1)
                for m, (low, g) in enumerate(inner[: n + 1]):
                    if low > rest:
                        break
                    if m < n:  # g = G_(j+1)(M) / x^low, times 1/(x)_(n-m)
                        g = (_euler_pair(order, *sorted((m, n - m))) if j == k - 2
                             else conv_trunc(g, inv[n - m], rest - low))
                    term[low:] = map(add, term[low:], g)  # g may run past rest
            if j == 1:
                acc[expo:] = map(add, acc[expo:], term)
            else:
                level.append((expo, term))
        inner = level
    return QSeries._make(acc, order, "x")


def ag_product(spec: AGSpec) -> QSeries:
    """Product side: prod 1/(1-x^r) over r >= 1 with r, +-i not congruent
    to 0 mod 2k+1."""
    k, i, order = spec.k, spec.i, spec.order
    modulus = 2 * k + 1
    skip = {0, i % modulus, (-i) % modulus}
    strides = [r for r in range(1, order + 1) if r % modulus not in skip]
    return QSeries._make(geom_inv_prod([1], strides, order), order, "x")


def absorption_limit_series(r: int, delta: int, order: int) -> QSeries:
    """Large-start limit of the r-step absorption probability, as a series.

    With u = x^delta (delta in {0, 1}) the limit of the r-step closed form
    into the absorbing state is

        sum_{n>=0} (-1)^n x^(r n^2 + delta r n + binom(n,2)) (1 - x^(delta+2n))
                   prod_{s=1}^{n-1} (1 - x^(delta+s)) / prod_{s=1}^{n} (1-x^s)

    with the n = 0 term equal to 1: for delta = 1 the defining expression
    evaluates to 1 directly, for delta = 0 it is the u -> 1 limit.

    The Euler inverses 1/prod_{s<=n}(1-x^s) are ag_sum's rows
    (_inverse_rows): row n reaches order - n^2, past term n's order - expo.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    acc = QSeries.one(order)
    num = QSeries.one(order)  # prod_{s<=n-1}(1-x^(delta+s))
    for n, inv in enumerate(islice(_inverse_rows(order), 1, None), 1):
        expo = r * n * n + delta * r * n + n * (n - 1) // 2
        if expo > order:
            break
        if n >= 2:
            num = num.mul_one_minus_pow(delta + n - 1)
        reduced = order - expo
        term = QSeries._make(conv_trunc(num.coeffs, inv, reduced), reduced, "x")
        term = term.mul_one_minus_pow(delta + 2 * n)
        if n % 2:
            term = -term
        acc = acc + term.shift(expo)
    return acc


# ---------------------------------------------------------------------------
# Bailey pairs


class BaileyPair(Record):
    """Finite sequences (alpha, beta) at fixed (u, q) tied by

        beta_L = sum_{r=0}^{L} alpha_r / ((1/q)_{L-r} (u/q)_{L+r})

    for all L up to the common length (beta = A alpha).  bailey_check tests the
    relation; bailey_step maps a pair to a new pair (this closure is the lemma).
    """

    __slots__ = ("alpha", "beta", "params")

    def __init__(self, alpha: tuple, beta: tuple, params: MeasureParams):
        alpha = tuple(Fraction(a) for a in alpha)
        beta = tuple(Fraction(b) for b in beta)
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have equal length")
        if not alpha:
            raise ValueError("sequences must be nonempty")
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "params", params)

    @property
    def l_max(self) -> int:
        return len(self.alpha) - 1

    def to_json(self) -> dict:
        return {
            "u": str(self.params.u),
            "q": str(self.params.q),
            "l_max": self.l_max,
            "alpha": [str(a) for a in self.alpha],
            "beta": [str(b) for b in self.beta],
        }


@lru_cache(maxsize=4)
def _diagonalization(p: MeasureParams, l_max: int) -> tuple:
    """The rows of M, A, A^-1, C and E (glchain.diag_rows) for the pairs of
    length l_max + 1 at p; cached here, so no other check's rows stay alive."""
    return tuple(diag_rows(l_max, p))


def _mul_vector(rows, vec) -> tuple:
    """The lower-triangular matrix of canonical rows times the column vector
    vec of exact rationals, first put over one denominator."""
    nums, den = _common_den(vec)
    return tuple(Fraction(sum(map(mul, row, nums)), d * den) for row, d in rows)


def bailey_pair_from_alpha(alpha, p: MeasureParams) -> BaileyPair:
    """The unique Bailey pair with the given alpha: beta = A alpha."""
    alpha = tuple(Fraction(a) for a in alpha)
    a = [row[1] for row in _diagonalization(p, len(alpha) - 1)]
    return BaileyPair(alpha=alpha, beta=_mul_vector(a, alpha), params=p)


def unit_bailey_pair(p: MeasureParams, l_max: int) -> BaileyPair:
    """The pair with beta = (1, 0, 0, ...); alpha is column 0 of the inverse
    eigenvector matrix."""
    alpha = tuple(Fraction(a_inv[0], den)
                  for _, _, (a_inv, den), _, _ in _diagonalization(p, l_max))
    beta = (Fraction(1),) + (Fraction(0),) * l_max
    return BaileyPair(alpha=alpha, beta=beta, params=p)


def bailey_check(pair: BaileyPair) -> bool:
    """True iff beta = A alpha holds exactly for every L <= l_max."""
    a = [row[1] for row in _diagonalization(pair.params, pair.l_max)]
    return pair.beta == _mul_vector(a, pair.alpha)


def bailey_step(pair: BaileyPair) -> BaileyPair:
    """One Bailey-lemma step:

        alpha'_L = u^L / q^(L^2) alpha_L
        beta'_L  = sum_{r<=L} u^r / (q^(r^2) (1/q)_{L-r}) beta_r

    The input must be a Bailey pair; the output then is one (in matrix form
    alpha' = E alpha and beta' = M beta with M A = A E).
    """
    if not bailey_check(pair):
        raise ValueError("input does not satisfy the Bailey pair relation")
    return _bailey_step(pair)


def _bailey_step(pair: BaileyPair) -> BaileyPair:
    """bailey_step without its input check, for a pair already checked."""
    rows = _diagonalization(pair.params, pair.l_max)
    alpha = tuple(row[4] * a for row, a in zip(rows, pair.alpha))
    beta = _mul_vector([row[0] for row in rows], pair.beta)
    return BaileyPair(alpha, beta, pair.params)


__all__ = [
    "AGSpec",
    "BaileyPair",
    "absorption_limit_series",
    "ag_product",
    "ag_sum",
    "bailey_check",
    "bailey_pair_from_alpha",
    "bailey_step",
    "unit_bailey_pair",
]
