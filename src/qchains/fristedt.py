"""Row-length Markov chain for the geometric-weight measure on partitions.

Here 0 < q < 1 and every Pochhammer symbol is the ascending convention:
(q)_n = (1-q)...(1-q^n), and (1/q)_n means the same product evaluated at
1/q, i.e. prod_{s<=n} (1 - q^(-s)).  With q = c/d both are one integer
J_n = (d - c)(d^2 - c^2)...(d^n - c^n) over a power of d or of c (_ints),
which is how the kernel, the diagonalization and the closed-form powers
read them; the matrices are yielded one canonical row at a time, as in
qchains.glchain.  Conditioning the measure on a fixed size gives the uniform
measure on partitions of that size.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from qchains.glchain import _PARAMS, _path_mass, _reduced, row_chain
from qchains.partitions import Partition
from qchains.qalgebra import Interval, as_fraction, poch_inf, poch_ints, poch_table
from qchains.record import Record, _set

_ZERO = Fraction(0)


class FristedtParams(Record):
    """The geometric weight: 0 < q < 1."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        q = as_fraction(q)
        if not 0 < q < 1:
            raise ValueError("q must satisfy 0 < q < 1")
        _set(self, "q", q)


@lru_cache(maxsize=_PARAMS)
def _ints(p: FristedtParams):
    """(c, d, J) for q = c/d in lowest terms, with (q)_n = J_n / d^(n(n+1)/2)
    and (1/q)_n = (-1)^n J_n / c^(n(n+1)/2): J_n = h_1 ... h_n, h_k = d^k - c^k.
    Keyed by the record, whose hash is kept."""
    return p.q.numerator, p.q.denominator, poch_ints(1, 1 / p.q)


def weight_normalizer(p: FristedtParams, eps) -> Interval:
    """Certified interval for prod_{i>=1} (1 - q^i)."""
    return poch_inf(1, 1 / p.q, eps)


def f_kernel(a: int, b: int, p: FristedtParams) -> Fraction:
    """Row-length transition probability  q^b (q)_a / (q)_b  for 0 <= b <= a,
    that is c^b d^binom(b,2) (J_a / J_b) / d^binom(a+1,2)."""
    if a < 0:
        raise ValueError("state must be >= 0")
    if b < 0 or b > a:
        return _ZERO
    c, d, js = _ints(p)
    num = c**b * d ** (b * (b - 1) // 2) * (js[a] // js[b])
    return Fraction(num, d ** (a * (a + 1) // 2))


def f_diag_rows(l_max: int, p: FristedtParams):
    """Yield row i = 0..l_max of the factorization K = C M C^-1 with
    M A = A D as (M_i, A_i, A^-1_i, C(i,i), D(i,i)), in the layout of
    glchain.diag_rows (D takes the slot of the GL chain's E):

    C(i,i) = (q)_i / q^i = J_i / (c^i d^binom(i,2))
    M(i,j) = q^i for i >= j, else 0
    D(i,i) = q^i
    A(i,j) = (-1)^(i-j) / (q^binom(i-j,2) (1/q)_{i-j})
           = d^binom(i-j,2) c^(i-j) / J_{i-j}
    A^-1(i,j) = 1 / (1/q)_{i-j} = (-1)^(i-j) c^binom(i-j+1,2) / J_{i-j}

    Rows i of A and A^-1 are over J_i, with J_i / J_{i-j} = h_i ...
    h_{i-j+1}; each row is reduced once."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    c, d, js = _ints(p)
    h = [d**k - c**k for k in range(l_max + 1)]
    for i in range(l_max + 1):
        pre = list(accumulate(h[i:0:-1], mul, initial=1))  # J_i / J_{i-j}
        a = [d ** ((i - j) * (i - j - 1) // 2) * c ** (i - j) * pj
             for j, pj in enumerate(pre)]
        a_inv = [(-1) ** (i - j) * c ** ((i - j) * (i - j + 1) // 2) * pj
                 for j, pj in enumerate(pre)]
        yield (_reduced([c**i] * (i + 1), d**i), _reduced(a, js[i]),
               _reduced(a_inv, js[i]), Fraction(js[i], c**i * d ** (i * (i - 1) // 2)),
               Fraction(c**i, d**i))


def f_kernel_rows(l_max: int, p: FristedtParams):
    """Yield row a = 0..l_max of the kernel as its canonical (numerators,
    denominator), the numerators over d^binom(a+1,2) (f_kernel()): each
    numerator is the one above it times h_a.  The row is canonical as
    built, since its first numerator J_a is prime to d."""
    c, d, _ = _ints(p)
    row = ()
    for a in range(l_max + 1):
        row = tuple(n * (d**a - c**a) for n in row) + (c**a * d ** (a * (a - 1) // 2),)
        yield row, d ** (a * (a + 1) // 2)


def f_kr_closed(l: int, j: int, r: int, p: FristedtParams) -> Fraction:
    """Closed form for the r-step transition probability:

        q^j q^(l(r-1)) (q)_l (1/q)_{l-j+r-1} / ((q)_j (1/q)_{l-j} (1/q)_{r-1})

    that is c^(jr) (J_l / J_j) [l-j+r-1; l-j] over
    d^(j + l(r-1) + binom(l+1,2) - binom(j+1,2)), [n; k] = J_n / (J_k J_(n-k)).
    """
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    if r < 1:
        raise ValueError("need r >= 1")
    c, d, js = _ints(p)
    binom = js[l - j + r - 1] // (js[l - j] * js[r - 1])
    num = c ** (j * r) * (js[l] // js[j]) * binom
    return Fraction(num, d ** (j + l * (r - 1) + (l * (l + 1) - j * (j + 1)) // 2))


def row_law_limit(r: int, j: int, p: FristedtParams, eps) -> Interval:
    """Probability that the r-th row has size j:  (q)_inf q^(rj) / ((q)_j (q)_{r-1})."""
    if r < 1 or j < 0:
        raise ValueError("need r >= 1 and j >= 0")
    q = p.q
    qs = poch_table(q, 1 / q)
    ratio = q ** (r * j) / (qs[j] * qs[r - 1])
    return weight_normalizer(p, eps).scale(ratio)


def first_row_unnormalized(a: int, p: FristedtParams) -> Fraction:
    """Large-start limit of the kernel into a, without (q)_inf:  q^a / (q)_a,
    from the Fraction table (c^a d^binom(a,2) / J_a needs a gcd of long ints)."""
    if a < 0:
        raise ValueError("state must be >= 0")
    q = p.q
    return q**a / poch_table(q, 1 / q)[a]


def f_chain_mass(lam: Partition, p: FristedtParams) -> Fraction:
    """Chain probability of spelling out the rows of lam, without (q)_inf.

    Telescopes to q^|lam| exactly, which is the conditional-uniformity fact.
    """
    return _path_mass(lam.parts, lambda a: first_row_unnormalized(a, p),
                      lambda a, b: f_kernel(a, b, p), 0)


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


def f_sample_stream(p: FristedtParams, seed: int, count: int, eps=Fraction(1, 2**20)):
    """Yield count samples from a single seeded stream; the chain states are
    row lengths, and each sampled partition is the state sequence itself."""
    if count <= 0:
        return  # no draw, so no support cap to certify
    yield from _sampler(p, eps).stream(seed, count, tuple)


__all__ = [
    "FristedtParams",
    "f_chain_mass",
    "f_diag_rows",
    "f_kernel",
    "f_kernel_rows",
    "f_kr_closed",
    "f_sample_stream",
    "first_row_unnormalized",
    "row_law_limit",
    "weight_normalizer",
]
