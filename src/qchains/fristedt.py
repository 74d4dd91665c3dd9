"""Row-length Markov chain for the geometric-weight measure on partitions.

Here 0 < q < 1 and every Pochhammer symbol is the ascending convention:
(q)_n = (1-q)...(1-q^n), and (1/q)_n means the same product evaluated at
1/q, i.e. prod_{s<=n} (1 - q^(-s)).  Conditioning the measure on a fixed
size gives the uniform measure on partitions of that size.
"""

from fractions import Fraction

from qchains.glchain import ChainSample, Diagonalization, TruncatedMatrix, row_chain
from qchains.partitions import Partition
from qchains.qalgebra import Interval, as_fraction, poch_inf, poch_table
from qchains.record import Record, _set

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FristedtParams(Record):
    """The geometric weight: 0 < q < 1."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        q = as_fraction(q)
        if not 0 < q < 1:
            raise ValueError("q must satisfy 0 < q < 1")
        _set(self, "q", q)


def uniform_mass(lam: Partition, p: FristedtParams) -> Fraction:
    """Unnormalized mass q^|lam|; partitions of equal size are equally likely."""
    return p.q**lam.size


def _tables(q: Fraction):
    """The tables of (q)_n and of (1/q)_n = prod_{s<=n} (1 - q^(-s))."""
    return poch_table(q, 1 / q), poch_table(1 / q, q)


def weight_normalizer(p: FristedtParams, eps) -> Interval:
    """Certified interval for prod_{i>=1} (1 - q^i)."""
    return poch_inf(1, 1 / p.q, eps)


def f_kernel(a: int, b: int, p: FristedtParams) -> Fraction:
    """Row-length transition probability  q^b (q)_a / (q)_b  for 0 <= b <= a."""
    if a < 0:
        raise ValueError("state must be >= 0")
    if b < 0 or b > a:
        return _ZERO
    q = p.q
    qs, _ = _tables(q)
    return q**b * qs[a] / qs[b]


def f_diagonalization(l_max: int, p: FristedtParams) -> Diagonalization:
    """Exact diagonalization on states 0..l_max:

    C(i,i) = (q)_i / q^i
    M(i,j) = q^i for i >= j, else 0
    D(i,i) = q^i
    A(i,j) = (-1)^(i-j) / (q^binom(i-j,2) (1/q)_{i-j})
    A^-1(i,j) = 1 / (1/q)_{i-j}

    D is stored in the slot the GL chain uses for its eigenvalue matrix.
    M is q^i on the lower triangle and A, A^-1 are Toeplitz, so each is
    built from per-index factors computed once.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    q = p.q
    qs, iqs = _tables(q)
    size = l_max + 1
    powers = [q**i for i in range(size)]
    a = [(-1 if k % 2 else 1) / (q ** (k * (k - 1) // 2) * iqs[k]) for k in range(size)]
    a_inv = [1 / iqs[k] for k in range(size)]
    return Diagonalization(
        c=TruncatedMatrix.diagonal(qs[i] / powers[i] for i in range(size)),
        m=TruncatedMatrix.build(size, lambda i, j: powers[i]),
        a=TruncatedMatrix.build(size, lambda i, j: a[i - j]),
        a_inv=TruncatedMatrix.build(size, lambda i, j: a_inv[i - j]),
        e=TruncatedMatrix.diagonal(powers),
        params=p,
    )


def f_kernel_matrix(l_max: int, p: FristedtParams) -> TruncatedMatrix:
    """The kernel on states 0..l_max, built as (q)_a times q^b / (q)_b (the
    factors of f_kernel())."""
    q = p.q
    qs, _ = _tables(q)
    size = l_max + 1
    f = [q**b / qs[b] for b in range(size)]
    return TruncatedMatrix.build(size, lambda a, b: qs[a] * f[b])


def f_kr_closed(l: int, j: int, r: int, p: FristedtParams) -> Fraction:
    """Closed form for the r-step transition probability:

        q^j q^(l(r-1)) (q)_l (1/q)_{l-j+r-1} / ((q)_j (1/q)_{l-j} (1/q)_{r-1})
    """
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    if r < 1:
        raise ValueError("need r >= 1")
    q = p.q
    qs, iqs = _tables(q)
    num = q**j * q ** (l * (r - 1)) * qs[l] * iqs[l - j + r - 1]
    den = qs[j] * iqs[l - j] * iqs[r - 1]
    return num / den


def row_law_limit(r: int, j: int, p: FristedtParams, eps) -> Interval:
    """Probability that the r-th row has size j:  (q)_inf q^(rj) / ((q)_j (q)_{r-1})."""
    if r < 1 or j < 0:
        raise ValueError("need r >= 1 and j >= 0")
    q = p.q
    qs, _ = _tables(q)
    ratio = q ** (r * j) / (qs[j] * qs[r - 1])
    return weight_normalizer(p, eps).scale(ratio)


def first_row_unnormalized(a: int, p: FristedtParams) -> Fraction:
    """Large-start limit of the kernel into a, without (q)_inf:  q^a / (q)_a."""
    if a < 0:
        raise ValueError("state must be >= 0")
    qs, _ = _tables(p.q)
    return p.q**a / qs[a]


def f_chain_mass(lam: Partition, p: FristedtParams) -> Fraction:
    """Chain probability of spelling out the rows of lam, without (q)_inf.

    Telescopes to q^|lam| exactly, which is the conditional-uniformity fact.
    """
    rows = lam.parts
    if not rows:
        return _ONE
    mass = first_row_unnormalized(rows[0], p)
    for prev, nxt in zip(rows, rows[1:] + (0,)):
        mass *= f_kernel(prev, nxt, p)
    return mass


# ---------------------------------------------------------------------------
# Sampling


@row_chain
def _sampler(p: FristedtParams, eps: Fraction):
    """The row chain, with first(b) = first_row_unnormalized(b) = q^b/(q)_b.

    Row s is step(s, b) = f_kernel(s, b) = (q)_s first(b), so it has the
    first step's ratios, and its integers are those of the first step on
    0..s divided by their common factor.
    """
    q = p.q
    z = weight_normalizer(p, eps)
    if z.lo <= 0:
        raise ValueError("eps too large to certify the support cap")

    def ratio(b):
        return (1 - q**b) / q

    return (
        ratio,
        lambda s, b: ratio(b),
        # sum_{b>a} q^b (q)_inf/(q)_b <= (hi/lo) q^(a+1)/(1-q)
        lambda a: z.hi / z.lo * q ** (a + 1) / (1 - q),
    )


def f_sample(p: FristedtParams, seed: int, eps=Fraction(1, 2**20)) -> ChainSample:
    """Draw one partition: the first item of the seed's stream."""
    return next(f_sample_stream(p, seed, 1, eps))


def f_sample_stream(p: FristedtParams, seed: int, count: int, eps=Fraction(1, 2**20)):
    """Yield count samples from a single seeded stream; the chain states are
    row lengths, and each sampled partition is the state sequence itself."""
    if count <= 0:
        return  # no draw, so no support cap to certify
    yield from _sampler(p, eps).stream(seed, count, tuple)


__all__ = [
    "FristedtParams",
    "f_chain_mass",
    "f_diagonalization",
    "f_kernel",
    "f_kernel_matrix",
    "f_kr_closed",
    "f_sample",
    "f_sample_stream",
    "first_row_unnormalized",
    "row_law_limit",
    "uniform_mass",
    "weight_normalizer",
]
