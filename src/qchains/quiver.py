"""Multivariate partition measures attached to a graph with multiplicities,
and the componentwise column chain that generates them.

The weight of an n-tuple of partitions is

    prod_{i<=j} q^(f_ij <lam(i),lam(j)>) prod_i U_i^|lam(i)|
        / (prod_i q^(<lam(i),lam(i)>) b_{lam(i)})

with <lam,mu> the inner product of conjugate parts and b_lam the product of
(1/q)_{m_i}.  The first-column masses are exact: kernel rows sum to 1, which
is a triangular recursion for them.  Only the normalizer, a sum over all
first columns, has no closed form here; it is truncated by total part count
with a Cauchy stopping rule and is explicitly *not* certified.  The chain's
sample stream (quiver_sample_stream) runs on the glchain.ChainSampler driver.
"""

import json
import random
import threading
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from itertools import product as iter_product
from math import prod

from qchains.glchain import (
    _SAMPLERS,
    ChainSample,
    ChainSampler,
    _common_den,
    _cut_points,
    _dot,
    _path_mass,
)
from qchains.partitions import Partition, _conjugate_parts, _partition
from qchains.qalgebra import as_fraction, poch_table
from qchains.record import Record, _set

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConvergenceError(RuntimeError):
    """A mass diverges, or a truncated sum failed its Cauchy criterion."""


class Quiver(Record):
    """n vertices with symmetric edge multiplicities; loops on the diagonal.

    f is the n x n symmetric tuple-of-tuples of nonnegative ints.
    """

    __slots__ = ("n", "f")

    def __init__(self, n: int, f: tuple):
        if n < 1:
            raise ValueError("need at least one vertex")
        f = tuple(tuple(int(e) for e in row) for row in f)
        if len(f) != n or any(len(r) != n for r in f):
            raise ValueError("multiplicity table must be n x n")
        for i in range(n):
            for j in range(n):
                if f[i][j] < 0:
                    raise ValueError("multiplicities must be >= 0")
                if f[i][j] != f[j][i]:
                    raise ValueError("multiplicity table must be symmetric")
        _set(self, "n", n)
        _set(self, "f", f)
        if n > 1 and not self._connected():
            warnings.warn("quiver is not connected", stacklevel=2)

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


class QuiverParams(Record):
    """q > 1 and one weight U_i in (0, 1) per vertex.

    Smallness of the U_i for actual convergence is the caller's problem;
    the truncated sums report their own Cauchy behaviour.
    """

    __slots__ = ("q", "u")

    def __init__(self, q: Fraction, u: tuple):
        q = as_fraction(q)
        u = tuple(as_fraction(v) for v in u)
        if q <= 1:
            raise ValueError("q must be > 1")
        for v in u:
            if not 0 < v < 1:
                raise ValueError("each U_i must satisfy 0 < U_i < 1")
        _set(self, "q", q)
        _set(self, "u", u)


class PartitionTuple(Record):
    """One partition per vertex."""

    __slots__ = ("components",)

    def __init__(self, components: tuple):
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        _set(self, "components", comps)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def to_json(self) -> list:
        return [list(c.parts) for c in self.components]


def load_quiver(source):
    """Read {"n", "edges", "U", "q"} from a dict or a JSON file path.

    Vertices in the edge list are 1-indexed; loops are entries with i = j.
    n and the (i, j, multiplicity) triples must be integers, and q and the
    list U (one value per vertex) integers or "p/q" strings, as the CLI
    flags take them: a JSON float names a binary fraction, not the decimal
    written.  Any other value raises ValueError.
    Returns (Quiver, QuiverParams).
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("the top level must be an object")
    n, edges, us, q = data["n"], data["edges"], data["U"], data["q"]
    if type(n) is not int:
        raise ValueError(f'"n" must be an integer, not {n!r}')
    if not isinstance(edges, list):
        raise ValueError(f'"edges" must be a list, not {edges!r}')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and all(type(v) is int for v in e)):
            raise ValueError(f"an edge must be 3 integers [i, j, multiplicity], not {e!r}")
    if not isinstance(us, list) or len(us) != n:
        raise ValueError("need one U value per vertex")
    for v in us + [q]:
        if type(v) is not int and not isinstance(v, str):
            raise ValueError(f'U and q must be integers or "p/q" strings, not {v!r}')
    return Quiver.from_edges(n, edges), QuiverParams(q=q, u=us)


# ---------------------------------------------------------------------------
# Weights


def pairing(lam: Partition, mu: Partition) -> int:
    """sum_i lam'_i mu'_i over the conjugate part sequences."""
    return sum(x * y for x, y in zip(lam.conjugate(), mu.conjugate()))


def _component_factor(lam: Partition, vertex: int, loops: int, p: QuiverParams):
    """U_i^|lam| q^((f_ii - 1) <lam,lam>) / b_lam for one component."""
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
        w *= _component_factor(lam, i, g.f[i][i], p)
        for j in range(i + 1, g.n):
            fij = g.f[i][j]
            if fij:
                w *= p.q ** (fij * pairing(lam, comps[j]))
    return w


# ---------------------------------------------------------------------------
# First-column masses and the truncated normalizer


class _MassTable:
    """Exact unnormalized first-column masses P(a) of one (g, p), grown one
    level k = |a| at a time up to the largest level read.

    Kernel rows sum to 1 and M(a, b) = m(a) / prod_i (1/q)_{a_i-b_i} for b <= a,
    m(a) = M(a, a).  So P(0) = 1 and P(a) = m(a) S(a) / (1 - m(a)), where
    S(a) = sum_{b <= a, b != a} P(b) / prod_i (1/q)_{a_i-b_i}.

    The kernel is one factor t(d) = 1/(1/q)_d per axis, so S takes n one-axis
    passes instead of a sum over the box.  With G_0 = P and G_j(a) the sum of
    P(b) t(a_1 - b_1) ... t(a_j - b_j) over b <= a that agree with a past
    axis j, H_j = G_j - P has H_0 = 0 and

        H_j(a) = H_{j-1}(a) + sum_{c < a_j} t(a_j - c) G_{j-1}(a with a_j = c),

    whose points all lie at lower levels; S(a) = H_n(a).  partial[a] keeps
    G_0(a), ..., G_{n-1}(a), so a state costs |a| terms.
    """

    def __init__(self, g: Quiver, p: QuiverParams):
        self.g, self.p = g, p
        zero = (0,) * g.n
        self.mass = {zero: _ONE}
        self.partial = {zero: (_ONE,) * g.n}
        self.level_sums = [_ONE]
        self.totals = [_ONE]  # totals[k] = sum(level_sums[: k + 1])
        self._lock = threading.Lock()  # tables are shared

    def grow(self, k: int) -> "_MassTable":
        """Complete the table through level k."""
        with self._lock:
            for level in range(len(self.level_sums), k + 1):
                self._add_level(level)
        return self

    def _add_level(self, k: int):
        g, p, mass, partial = self.g, self.p, self.mass, self.partial
        iq = poch_table(1 / p.q, p.q)
        t = [1 / iq[d] for d in range(k + 1)]
        level_sum = _ZERO
        for a in _level(g.n, k):
            m = quiver_m_entry(a, a, g, p)
            if m >= 1:
                raise ConvergenceError(f"M(a, a) = {m} >= 1 at a = {a}: P(a) diverges")
            h, hs = _ZERO, []
            for j, top in enumerate(a):
                head, tail = a[:j], a[j + 1 :]
                if top:  # t(top), ..., t(1) against c = 0, ..., top - 1
                    h += _dot(t[top:0:-1],
                              [partial[head + (c,) + tail][j] for c in range(top)])
                hs.append(h)
            mass[a] = pa = m * h / (1 - m)
            partial[a] = (pa, *(pa + x for x in hs[:-1]))
            level_sum += pa
        self.level_sums.append(level_sum)
        self.totals.append(self.totals[-1] + level_sum)


def _level(n: int, k: int):
    """The vectors a of n entries >= 0 with |a| = k, in lexicographic order:
    the entries are the gaps between n - 1 bars placed among k + n - 1 slots."""
    for bars in combinations(range(k + n - 1), n - 1):
        edges = (-1, *bars, k + n - 1)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


_masses = lru_cache(maxsize=_SAMPLERS)(_MassTable)  # one table per (g, p)


class TruncatedSum(Record):
    """A truncated-summation value with its Cauchy diagnostics.

    certified is always False: the stopping rule is empirical, with no
    proved tail bound for general multiplicity tables.
    """

    __slots__ = ("value", "size_cap", "last_increment", "certified")

    def __init__(self, value: Fraction, size_cap: int, last_increment: Fraction,
                 certified: bool = False):
        _set(self, "value", value)
        _set(self, "size_cap", size_cap)
        _set(self, "last_increment", last_increment)
        _set(self, "certified", certified)


def normalizer(g: Quiver, p: QuiverParams, size_cap: int = 20, eps=Fraction(1, 10**8)):
    """Total first-column mass over |a| <= size_cap, with a Cauchy check on
    the last level sums."""
    if size_cap < 0:
        raise ValueError("size_cap must be >= 0")
    table = _masses(g, p).grow(size_cap)
    sums = table.level_sums
    last = max(sums[size_cap - 2 : size_cap + 1]) if size_cap >= 2 else sums[size_cap]
    if last >= as_fraction(eps):
        raise ConvergenceError(
            f"level sums not below {eps} by total part count {size_cap}"
        )
    return TruncatedSum(
        value=table.totals[size_cap], size_cap=size_cap, last_increment=last
    )


def quiver_first_cols(a, g: Quiver, p: QuiverParams, size_cap: int = 20) -> Fraction:
    """Exact unnormalized mass of tuples whose components have exactly
    a_1, ..., a_n parts; 0 outside the support |a| <= size_cap."""
    a = tuple(int(v) for v in a)
    if len(a) != g.n:
        raise ValueError("vector length must match the number of vertices")
    if any(v < 0 for v in a):
        raise ValueError("part counts must be >= 0")
    return _masses(g, p).grow(sum(a)).mass[a] if sum(a) <= size_cap else _ZERO


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
    """One-step transition probability M(a, b) P(b) / P(a) between
    part-count vectors; exact, and defined on the support |a| <= size_cap."""
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

    The mass ratios telescope to P(0) = 1, leaving the product of the M
    entries along the columns.
    """
    # level k is the vector of the components' k-th columns, 0 past their ends
    cols = (c.conjugate().parts for c in t.components)
    levels = tuple(zip_longest(*cols, fillvalue=0))
    return _path_mass(levels, lambda a: quiver_first_cols(a, g, p, size_cap),
                      lambda a, b: quiver_kernel(a, b, g, p, size_cap), (0,) * g.n)


# ---------------------------------------------------------------------------
# Sampling


@lru_cache(maxsize=_SAMPLERS)
def _sampler(g: Quiver, p: QuiverParams, size_cap: int, eps) -> ChainSampler:
    """The componentwise chain, its first step on the exact first-column
    masses of the support |a| <= size_cap.  Row a weights b <= a by the
    mass-table terms P(b) prod_i t(a_i - b_i), t(d) = 1/(1/q)_d: the kernel
    M(a, b) = m(a) P(b) prod_i t(a_i - b_i) / P(a) without the factor
    m(a) / P(a) common to the row, so the cut points are the kernel's.

    The normalizer's Cauchy check at eps runs once, when the sampler is
    built; a failed check caches nothing, so it raises again on every call.
    """
    normalizer(g, p, size_cap, eps)  # surfaces non-convergence early
    mass = _masses(g, p).grow(size_cap).mass
    keys = sorted(a for a in mass if sum(a) <= size_cap)
    iq = poch_table(1 / p.q, p.q)

    def row(a):
        support = tuple(iter_product(*(range(v + 1) for v in a)))
        nums = _common_den(mass[b] / prod(iq[x - y] for x, y in zip(a, b))
                           for b in support)[0]
        return support, _cut_points(lambda: nums)

    first = _common_den(mass[k] for k in keys)[0]
    return ChainSampler(keys, _cut_points(lambda: first), row, (0,) * g.n)


def quiver_sample_stream(g: Quiver, p: QuiverParams, seed: int, count: int,
                         size_cap: int = 20, eps=Fraction(1, 10**8)):
    """Yield count ChainSamples (seed + i, path, PartitionTuple), draw i =
    0..count-1 by random.Random(seed + i): the first-column vector from the
    masses on |a| <= size_cap, then kernel steps until the all-zero vector.
    The sampler is looked up once per stream."""
    if count <= 0:
        return  # no draw, so no normalizer to check
    sampler = _sampler(g, p, size_cap, eps)
    for s in range(seed, seed + count):
        path = sampler.path(random.Random(s))
        # component i of the path is the column sequence of partition i: it
        # decreases, and the zeros it reaches add nothing to the conjugate
        cols = zip(*path) if path else ((),) * g.n
        t = PartitionTuple(tuple(_partition(_conjugate_parts(c)) for c in cols))
        yield ChainSample(s, path, t)


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
    "quiver_sample_stream",
    "tuple_weight",
]
