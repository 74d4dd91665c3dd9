"""Integer partitions, bounded enumeration, and the GL-conjugacy measure.

The measure on all partitions is evaluated here by its two finite formulas
(mass_v1, mass_v2); both return the mass *without* the infinite-product
prefactor, which is irrational in general and only available as a certified
interval (measure_normalizer).
"""

from fractions import Fraction
from operator import lt

from qchains.qalgebra import Interval, as_fraction, poch_inf, poch_table
from qchains.record import Record, _set

ENUMERATION_CAP = 40


class Partition(Record):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(int, parts))
        # weakly decreasing with a positive last part; the first offending
        # part names the error
        if parts and (parts[-1] <= 0 or any(map(lt, parts, parts[1:]))):
            for i, p in enumerate(parts):
                if p <= 0:
                    raise ValueError("parts must be positive")
                if i and parts[i - 1] < p:
                    raise ValueError("parts must be weakly decreasing")
        _set(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), 0 beyond the last row."""
        if i < 1:
            raise ValueError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Column lengths of the diagram: lambda'_j = #{i : lambda_i >= j}."""
        return _partition(_conjugate_parts(self.parts))

    def multiplicities(self) -> dict:
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def n_stat(self) -> int:
        """sum_i (i-1) * lambda_i."""
        return sum(i * p for i, p in enumerate(self.parts))


def _partition(parts: tuple) -> Partition:
    """The Partition of a tuple of ints that is weakly decreasing and
    positive by construction, built without the checks of Partition()."""
    lam = object.__new__(Partition)
    _set(lam, "parts", parts)
    return lam


def _conjugate_parts(parts) -> tuple:
    """The conjugate of weakly decreasing parts >= 0, lambda'_j =
    #{i : lambda_i >= j}, weakly decreasing and positive; zero parts add
    nothing.  From the smallest part up, lambda'_j = i for lambda_{i+1} < j
    <= lambda_i (lambda_{len+1} = 0): O(len + lambda_1) steps."""
    cols = []
    for i in range(len(parts), 0, -1):
        cols += [i] * (parts[i - 1] - len(cols))
    return tuple(cols)


def _partitions_of(n: int):
    """Yield the part tuples of n in decreasing lexicographic order: each
    next one lowers the last part above 1 by one and refills the rest of n
    greedily with parts no larger than it."""
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        rest = 0
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        top = parts.pop() - 1
        full, left = divmod(rest + 1, top)
        parts += [top] * (1 + full) + ([left] if left else [])


def enumerate_partitions(n: int) -> list:
    """All partitions of n, in decreasing lexicographic order of part lists."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    return [Partition(parts) for parts in _partitions_of(n)]


class MeasureParams(Record):
    """Parameters (u, q) of the measure: q > 1, 0 < u <= 1, u/q < 1.

    u = 1 is allowed (the identity-verification limit); normalization claims
    are only made for u < 1.
    """

    __slots__ = ("u", "q")

    def __init__(self, u: Fraction, q: Fraction):
        u, q = as_fraction(u), as_fraction(q)
        if q <= 1:
            raise ValueError("q must be > 1")
        if not 0 < u <= 1:
            raise ValueError("u must satisfy 0 < u <= 1")
        if u / q >= 1:
            raise ValueError("u/q must be < 1")
        _set(self, "u", u)
        _set(self, "q", q)


def gl_order(m: int, q) -> Fraction:
    """Order of the general linear group of degree m: prod_{i<m} (q^m - q^i)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    q = as_fraction(q)
    qm = q**m
    out = Fraction(1)
    for i in range(m):
        out *= qm - q**i
    return out


def mass_v1(lam: Partition, p: MeasureParams) -> Fraction:
    """Unnormalized mass  u^|lam| / (q^(sum lam'_i^2) prod_i (1/q)_{m_i})."""
    conj = lam.conjugate()
    sq = sum(c * c for c in conj.parts)
    denom = p.q**sq
    iq = poch_table(1 / p.q, p.q)
    for m in lam.multiplicities().values():
        denom *= iq[m]
    return p.u**lam.size / denom


def mass_v2(lam: Partition, p: MeasureParams) -> Fraction:
    """Unnormalized mass via multiplicities and GL orders:

    u^|lam| / (q^(2[sum_{h<i} h m_h m_i + (1/2) sum_i (i-1) m_i^2])
               * prod_i |GL(m_i, q)|)
    """
    mults = lam.multiplicities()
    sizes = sorted(mults)
    expo = 0
    for a, h in enumerate(sizes):
        for i in sizes[a + 1 :]:
            expo += 2 * h * mults[h] * mults[i]
        expo += (h - 1) * mults[h] ** 2
    denom = p.q**expo
    for h in sizes:
        denom *= gl_order(mults[h], p.q)
    return p.u**lam.size / denom


def measure_normalizer(p: MeasureParams, eps) -> Interval:
    """Certified interval for the prefactor prod_{r>=1} (1 - u/q^r)."""
    return poch_inf(p.u, p.q, eps)


__all__ = [
    "ENUMERATION_CAP",
    "MeasureParams",
    "Partition",
    "enumerate_partitions",
    "gl_order",
    "mass_v1",
    "mass_v2",
    "measure_normalizer",
]
