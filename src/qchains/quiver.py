"""Multivariate partition measures attached to a graph with multiplicities,
and the componentwise column chain that generates them.

The weight of an n-tuple of partitions is

    prod_{i<=j} q^(f_ij <lam(i),lam(j)>) prod_i U_i^|lam(i)|
        / (prod_i q^(<lam(i),lam(i)>) b_{lam(i)})

with <lam,mu> the inner product of conjugate parts and b_lam the product of
(1/q)_{m_i}.  The normalizer has no closed form here; it is computed by
truncated summation with a Cauchy stopping rule and is explicitly *not*
certified.  Every exact statement downstream is phrased with weight or
first-column ratios in which the truncated sums cancel.
"""

import json
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from qchains.glchain import _SAMPLERS, ChainSampler
from qchains.partitions import Partition, enumerate_partitions
from qchains.qalgebra import as_fraction, poch_table

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConvergenceError(RuntimeError):
    """Truncated summation failed its Cauchy criterion."""


@dataclass(frozen=True)
class Quiver:
    """n vertices with symmetric edge multiplicities; loops on the diagonal."""

    n: int
    f: tuple  # n x n symmetric tuple-of-tuples of nonnegative ints

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        f = tuple(tuple(int(e) for e in row) for row in self.f)
        if len(f) != self.n or any(len(r) != self.n for r in f):
            raise ValueError("multiplicity table must be n x n")
        for i in range(self.n):
            for j in range(self.n):
                if f[i][j] < 0:
                    raise ValueError("multiplicities must be >= 0")
                if f[i][j] != f[j][i]:
                    raise ValueError("multiplicity table must be symmetric")
        object.__setattr__(self, "f", f)
        if self.n > 1 and not self._connected():
            warnings.warn("quiver is not connected", stacklevel=3)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Quiver":
        """Build from 1-indexed (i, j, multiplicity) triples; i = j is a loop."""
        f = [[0] * n for _ in range(n)]
        for i, j, mult in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("vertex index out of range")
            f[i - 1][j - 1] += mult
            if i != j:
                f[j - 1][i - 1] += mult
        return cls(n=n, f=tuple(tuple(row) for row in f))

    def _connected(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in range(self.n):
                if w not in seen and self.f[v][w] > 0:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class QuiverParams:
    """q > 1 and one weight U_i in (0, 1) per vertex.

    Smallness of the U_i for actual convergence is the caller's problem;
    the truncated sums report their own Cauchy behaviour.
    """

    q: Fraction
    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        object.__setattr__(self, "u", tuple(as_fraction(v) for v in self.u))
        if self.q <= 1:
            raise ValueError("q must be > 1")
        for v in self.u:
            if not 0 < v < 1:
                raise ValueError("each U_i must satisfy 0 < U_i < 1")


@dataclass(frozen=True)
class PartitionTuple:
    """One partition per vertex."""

    components: tuple

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in self.components
        )
        object.__setattr__(self, "components", comps)

    @property
    def total_size(self) -> int:
        return sum(c.size for c in self.components)

    def part_counts(self) -> tuple:
        return tuple(len(c) for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def to_json(self) -> list:
        return [list(c.parts) for c in self.components]


def load_quiver(source):
    """Read {"n", "edges", "U", "q"} from a dict or a JSON file path.

    Vertices in the edge list are 1-indexed; loops are entries with i = j.
    Returns (Quiver, QuiverParams).
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    g = Quiver.from_edges(int(data["n"]), data["edges"])
    p = QuiverParams(q=Fraction(data["q"]), u=tuple(Fraction(v) for v in data["U"]))
    if len(p.u) != g.n:
        raise ValueError("need one U value per vertex")
    return g, p


# ---------------------------------------------------------------------------
# Weights


@lru_cache(maxsize=None)
def _conj_parts(parts: tuple) -> tuple:
    return Partition(parts).conjugate().parts


def pairing(lam: Partition, mu: Partition) -> int:
    """sum_i lam'_i mu'_i over the conjugate part sequences."""
    a = _conj_parts(lam.parts)
    b = _conj_parts(mu.parts)
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def _component_factor(parts: tuple, vertex: int, loops: int, p: QuiverParams):
    """U_i^|lam| q^((f_ii - 1) <lam,lam>) / b_lam for one component."""
    lam = Partition(parts)
    iq = poch_table(1 / p.q, p.q)
    b_lam = _ONE
    for m in lam.multiplicities().values():
        b_lam *= iq[m]
    return p.u[vertex] ** lam.size * p.q ** ((loops - 1) * pairing(lam, lam)) / b_lam


def tuple_weight(t: PartitionTuple, g: Quiver, p: QuiverParams) -> Fraction:
    """Unnormalized weight of an n-tuple of partitions."""
    if len(t) != g.n:
        raise ValueError("tuple length must match the number of vertices")
    w = _ONE
    comps = t.components
    for i, lam in enumerate(comps):
        w *= _component_factor(lam.parts, i, g.f[i][i], p)
        for j in range(i + 1, g.n):
            fij = g.f[i][j]
            if fij:
                w *= p.q ** (fij * pairing(lam, comps[j]))
    return w


# ---------------------------------------------------------------------------
# Truncated sums: normalizer and first-column masses


@lru_cache(maxsize=_SAMPLERS)  # one scan per sampler
def _weight_scan(g: Quiver, p: QuiverParams, size_cap: int):
    """One pass over all tuples of total size <= size_cap.

    Returns (per_size, buckets): per-size weight increments, and total
    weight per part-count vector.
    """
    per_size = [_ZERO] * (size_cap + 1)
    buckets = {}
    n = g.n

    def rec(idx, budget, chosen, w):
        if idx == n:
            t = sum(lam.size for lam in chosen)
            per_size[t] += w
            key = tuple(len(lam) for lam in chosen)
            buckets[key] = buckets.get(key, _ZERO) + w
            return
        for size in range(budget + 1):
            for lam in enumerate_partitions(size, cap=size):
                wn = w * _component_factor(lam.parts, idx, g.f[idx][idx], p)
                for j in range(idx):
                    fij = g.f[j][idx]
                    if fij:
                        wn *= p.q ** (fij * pairing(chosen[j], lam))
                rec(idx + 1, budget - size, chosen + (lam,), wn)

    rec(0, size_cap, (), _ONE)
    return tuple(per_size), buckets


@dataclass(frozen=True)
class TruncatedSum:
    """A truncated-summation value with its Cauchy diagnostics.

    certified is always False: the stopping rule is empirical, with no
    proved tail bound for general multiplicity tables.
    """

    value: Fraction
    size_cap: int
    last_increment: Fraction
    certified: bool = False


def normalizer(g: Quiver, p: QuiverParams, size_cap: int = 20, eps=Fraction(1, 10**8)):
    """Truncated total weight, with a Cauchy check on the last increments."""
    per_size, _ = _weight_scan(g, p, size_cap)
    last = max(per_size[-3:]) if size_cap >= 2 else per_size[-1]
    if last >= as_fraction(eps):
        raise ConvergenceError(
            f"per-size increments not below {eps} by size {size_cap}"
        )
    return TruncatedSum(
        value=sum(per_size, _ZERO), size_cap=size_cap, last_increment=last
    )


def quiver_first_cols(a, g: Quiver, p: QuiverParams, size_cap: int = 20) -> Fraction:
    """Truncated unnormalized mass of tuples whose components have exactly
    a_1, ..., a_n parts."""
    a = tuple(int(v) for v in a)
    if len(a) != g.n:
        raise ValueError("vector length must match the number of vertices")
    if any(v < 0 for v in a):
        raise ValueError("part counts must be >= 0")
    _, buckets = _weight_scan(g, p, size_cap)
    return buckets.get(a, _ZERO)


def quiver_m_entry(a, b, g: Quiver, p: QuiverParams) -> Fraction:
    """The conjugated-kernel entry

        prod_{i<=j} q^(f_ij a_i a_j) prod_i U_i^(a_i) / (q^(a_i^2) (1/q)_{a_i-b_i})

    which vanishes unless b <= a componentwise."""
    if any(bv > av or bv < 0 for av, bv in zip(a, b)):
        return _ZERO
    q = p.q
    iq = poch_table(1 / q, q)
    expo = 0
    for i in range(g.n):
        for j in range(i, g.n):
            expo += g.f[i][j] * a[i] * a[j]
    w = q**expo
    for i in range(g.n):
        w *= p.u[i] ** a[i] / (q ** (a[i] * a[i]) * iq[a[i] - b[i]])
    return w


def quiver_kernel(a, b, g: Quiver, p: QuiverParams, size_cap: int = 20) -> Fraction:
    """One-step transition probability between part-count vectors,
    exact up to the truncation entering through the mass ratio P(b)/P(a)."""
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    m = quiver_m_entry(a, b, g, p)
    if m == 0:
        return _ZERO
    pa = quiver_first_cols(a, g, p, size_cap)
    pb = quiver_first_cols(b, g, p, size_cap)
    if pa == 0:
        raise ValueError("state mass vanished at this truncation; raise size_cap")
    return m * pb / pa


def quiver_chain_mass(
    t: PartitionTuple, g: Quiver, p: QuiverParams, size_cap: int = 20
) -> Fraction:
    """First-column mass times kernel steps down the columns of the tuple.

    The mass ratios telescope, so the truncated sums cancel exactly.
    """
    cols = [_conj_parts(c.parts) for c in t.components]
    depth = max((len(c) for c in cols), default=0)

    def level(k):
        return tuple(c[k] if k < len(c) else 0 for c in cols)

    if depth == 0:
        return quiver_first_cols((0,) * g.n, g, p, size_cap)
    mass = quiver_first_cols(level(0), g, p, size_cap)
    for k in range(depth):
        mass *= quiver_kernel(level(k), level(k + 1), g, p, size_cap)
    return mass


# ---------------------------------------------------------------------------
# Sampling


@lru_cache(maxsize=_SAMPLERS)
def _sampler(g: Quiver, p: QuiverParams, size_cap: int) -> ChainSampler:
    """The componentwise chain, its first step on the truncated first-column
    masses; each kernel row sums to 1 within the truncation error and is
    renormalized."""
    _, buckets = _weight_scan(g, p, size_cap)
    keys = sorted(buckets)

    def row(a):
        support = tuple(iter_product(*(range(v + 1) for v in a)))
        return support, [quiver_kernel(a, b, g, p, size_cap) for b in support]

    return ChainSampler(keys, [buckets[k] for k in keys], row, (0,) * g.n)


def quiver_sample(
    g: Quiver,
    p: QuiverParams,
    seed: int,
    size_cap: int = 20,
    eps=Fraction(1, 10**8),
) -> PartitionTuple:
    """Draw one n-tuple: first-column vector from the truncated masses, then
    kernel steps until the all-zero vector.  Deterministic per seed."""
    normalizer(g, p, size_cap, eps)  # surfaces non-convergence early
    path = _sampler(g, p, size_cap).path(random.Random(seed))
    return PartitionTuple(
        tuple(
            Partition([state[i] for state in path if state[i] > 0]).conjugate()
            for i in range(g.n)
        )
    )


__all__ = [
    "ConvergenceError",
    "PartitionTuple",
    "Quiver",
    "QuiverParams",
    "TruncatedSum",
    "load_quiver",
    "normalizer",
    "pairing",
    "quiver_chain_mass",
    "quiver_first_cols",
    "quiver_kernel",
    "quiver_m_entry",
    "quiver_sample",
    "tuple_weight",
]
