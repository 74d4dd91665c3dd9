"""Exact rational scalars, q-Pochhammer symbols, and truncated power series.

Every Pochhammer value is a read of one append-only table per parameter pair:
``poch_table(x, q)[n]`` = (1-x)(1-x/q)...(1-x/q^(n-1)).  The ascending symbol
(1-x)(1-x^2)...(1-x^n) is the same table at (x, 1/x).  A PochTable reads
any endless stream of values lazily, so the chain modules keep their
integer numerators in PochTables of their own factors; only
q_binomial_check forms its own list, since it takes q = 0.  A negative
index is an error, and callers whose formulas let an index go negative test
the range themselves.  As series, a factor (1 - v^e) is one slice subtraction
(``QSeries.mul_one_minus_pow``), a factor 1/(1 - v^r) one pass of
out[n] = a[n] + out[n - r] (``geom_inv_mul``), a product of such factors
over distinct strides a few shift-adds per factor on one packed integer
(``geom_inv_prod``, its slots sized by p(n) < exp(pi sqrt(2n/3))), and a
product one Kronecker substitution on whole coefficient lists
(``conv_trunc``).

Scalars are fractions.Fraction; nothing in this module rounds except
poch_inf_lower, a lower bound rounded outward by construction.  Series have
int coefficients, since every series of the identities is integral, and are
truncated at a known order: coefficients beyond the order are unknown (not
zero), so binary operations shrink to the smaller order and equality only
compares up to the common order.
"""

import sys
import threading
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import isqrt
from operator import add, mul, sub

from qchains.record import Frozen, Record, _set

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------------------
# Certified enclosures for (irrational) infinite products


class Interval(Record):
    """A closed interval [lo, hi] with exact rational endpoints.

    Used wherever an infinite product enters: the true value is certified to
    lie inside, and downstream exact statements are phrased so the interval
    either cancels or is only scaled by an exact factor.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty interval")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def scale(self, c: Fraction) -> "Interval":
        c = as_fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)


# ---------------------------------------------------------------------------
# Pochhammer symbols


_POCH_TABLES = 64  # parameter pairs whose poch_table is kept


class PochTable:
    """The values t[0], t[1], ... of one endless stream (an iterator), read
    lazily: a read past the table's end takes the stream up to that index,
    under a lock since tables are shared.  Each reader passes its own
    stream of prefix products, such as poch_table's or the chain modules'
    integer numerators.
    """

    __slots__ = ("_vals", "_values", "_lock")

    def __init__(self, values):
        self._vals = []
        self._values = values
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        vals = self._vals
        if n >= len(vals):
            with self._lock:
                # another thread may have extended the table since the check
                vals.extend(islice(self._values, max(0, n + 1 - len(vals))))
        elif n < 0:
            raise ValueError("Pochhammer index must be >= 0")
        return vals[n]


@lru_cache(maxsize=_POCH_TABLES)
def poch_table(x, q) -> PochTable:
    """The shared table of (1-x)(1-x/q)...(1-x/q^(n-1)) over n for (x, q)."""
    x, q = as_fraction(x), as_fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    # t[0] stays the Fraction 1, so 1 / t[0] is a Fraction too
    factors = (1 - t for t in accumulate(repeat(1 / q), mul, initial=x))
    return PochTable(accumulate(factors, mul, initial=_ONE))


def _poch_inf_cutoff(x, q, eps):
    """(x, q, R, tail) for prod_{r>=1} (1 - x/q^r): the exact x and q, the
    least cutoff R >= 0 whose geometric tail bound tail = sum_{r>R} x/q^r
    is <= eps/2, and that tail; R is None when x = 0 (the product is 1).

    Needs q > 1 and 0 <= x < q so every factor lies in (0, 1].
    """
    x = as_fraction(x)
    q = as_fraction(q)
    eps = as_fraction(eps)
    if q <= 1:
        raise ValueError("infinite product needs q > 1")
    if not 0 <= x < q:
        raise ValueError("need 0 <= x < q")
    if x == 0:
        return x, q, None, _ZERO
    if eps <= 0:
        raise ValueError("eps must be positive")
    tail = Fraction(x, q - 1)  # sum_{r>R} x/q^r at R = 0
    rr = 0
    while tail > eps / 2:
        tail /= q
        rr += 1
    return x, q, rr, tail


def poch_inf(x, q, eps) -> Interval:
    """Certified enclosure of the infinite product prod_{r>=1} (1 - x/q^r).

    Needs q > 1 and 0 <= x < q so every factor lies in (0, 1].  The interval
    has width <= eps; its upper endpoint is the partial product at the cutoff
    chosen from the geometric tail bound sum_{r>R} x/q^r <= eps/2.
    """
    x, q, rr, tail = _poch_inf_cutoff(x, q, eps)
    if rr is None:
        return Interval(_ONE, _ONE)
    partial = _ONE
    for r in range(1, rr + 1):
        partial *= 1 - x / q**r
    # prod_{r>R}(1 - x/q^r) >= 1 - tail (Weierstrass), and each factor <= 1
    return Interval(partial * (1 - tail), partial)


_MANTISSA = 64  # bits that poch_inf_lower keeps of each value


def _round(n: int, e: int, up: bool) -> tuple:
    """(m, e') with m 2^e' the value n 2^e >= 0 rounded down (or up) to a
    mantissa of _MANTISSA bits; rounding up may carry into one more bit."""
    extra = n.bit_length() - _MANTISSA
    if extra <= 0:
        return n, e
    return (-(-n >> extra) if up else n >> extra), e + extra


def _fraction_bits(f: Fraction, up: bool) -> tuple:
    """(m, e) with m 2^e rounded down (or up) from the rational f > 0."""
    a, b = f.numerator, f.denominator
    k = max(0, _MANTISSA + 1 + b.bit_length() - a.bit_length())
    m = -(-(a << k) // b) if up else (a << k) // b
    return _round(m, -k, up)


def poch_inf_lower(x, q, eps) -> Fraction:
    """A lower bound of lo = poch_inf(x, q, eps).lo, the partial product
    times (1 - tail) at the same cutoff: at most lo when lo > 0, and 0 when
    lo <= 0 (eps too large) or when a rounded factor reaches 0.

    It is computed in binary floating point with _MANTISSA-bit mantissas and
    unbounded exponents, every step rounded outward: down for the product
    and its factors, up for each x/q^r.  The r-th exact factor has a
    denominator of about r log2(N) bits (q = N/D), so near q = 1, where R
    runs into the thousands, the exact product grows to millions of bits
    and takes minutes; this bound takes milliseconds.
    """
    x, q, rr, tail = _poch_inf_cutoff(x, q, eps)
    if rr is None:
        return _ONE
    if tail >= 1:
        return _ZERO
    step_m, step_e = _fraction_bits(1 / q, up=True)
    t_m, t_e = _fraction_bits(x / q, up=True)  # >= x/q^r, from r = 1
    p_m, p_e = _fraction_bits(1 - tail, up=False)
    for _ in range(rr):
        # t_m >= 2^(_MANTISSA-1), so t < 1 means t_e < 0 and 1 - t is exact
        f_m = (1 << -t_e) - t_m if t_e < 0 else 0
        if f_m <= 0:
            return _ZERO
        p_m, p_e = _round(p_m * f_m, p_e + t_e, up=False)
        t_m, t_e = _round(t_m * step_m, t_e + step_e, up=True)
    return Fraction(p_m, 1 << -p_e) if p_e < 0 else Fraction(p_m << p_e)


# ---------------------------------------------------------------------------
# Series kernels
#
# Primitives on the int coefficient lists of QSeries.  conv_trunc and
# geom_inv_prod pack a list into one integer of byte-aligned slots, each
# biased by half its range.

# Slot width in bytes -> (the narrowest signed array type code that wide,
# its itemsize).  Slots are little-endian, so big-endian packs byte by byte.
_SLOT_CODES = {} if sys.byteorder == "big" else {
    w: next((c, array(c).itemsize) for c in "bhilq" if array(c).itemsize >= w)
    for w in range(1, 9)
}


def _slot_bias(width, slots):
    """Half of a slot's range, 2^(8 width - 1), in each of the given slots."""
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * slots, "little")


def _pack(seq, code, width):
    """The integer sum_n seq[n] 2^(8 width n) of signed coefficients that
    fit a slot of width bytes; code is its array type code, or None."""
    bias = _slot_bias(width, len(seq))
    if code:
        return (int.from_bytes(array(code, seq), "little") ^ bias) - bias
    half = 1 << (8 * width - 1)
    raw = b"".join([(c + half).to_bytes(width, "little") for c in seq])
    return int.from_bytes(raw, "little") - bias


def _unpack(biased, code, width, slots, bias):
    """The coefficients c_n of an integer whose slots hold c_n + half; bias
    is _slot_bias(width, slots)."""
    size = width * slots
    if code:
        return array(code, (biased ^ bias).to_bytes(size, "little")).tolist()
    half = 1 << (8 * width - 1)
    raw = biased.to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half
            for i in range(0, size, width)]


def conv_trunc(a, b, order):
    """Truncated convolution: c[n] = sum_i a[i]*b[n-i] for n = 0..order.

    Kronecker substitution: each list is packed into one integer with a
    byte-aligned slot per coefficient, the two integers are multiplied once,
    and the product's slots are the convolution.  A slot holds more than
    twice the largest possible |c[n]|, and every slot carries a bias of half
    its range, so signed digits never borrow from their neighbours.  A slot of
    at most 8 bytes is a signed array item, whose two's complement with the
    top bit flipped is the biased slot; so a whole list is packed, and the
    product unpacked, by a few C-level calls and one XOR with the bias.
    Wider slots go one coefficient at a time.
    """
    a = a[: order + 1]
    b = b[: order + 1]
    if not (any(a) and any(b)):
        return [0] * (order + 1)
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # bytes per slot: 8*width - 1 > bits
    code, width = _SLOT_CODES.get(width, (None, width))
    slots = min(order + 1, len(a) + len(b) - 1)
    bias = _slot_bias(width, slots)
    product = _pack(a, code, width) * _pack(b, code, width)
    low = (product + bias) & ((1 << (8 * width * slots)) - 1)
    out = _unpack(low, code, width, slots, bias)
    out.extend([0] * (order + 1 - slots))
    return out


def geom_inv_mul(a, r, order):
    """Multiply coefficients a by 1/(1 - x^r): out[n] = a[n] + out[n-r]."""
    if r <= 0:
        raise ValueError("stride must be positive")
    out = list(a[: order + 1])
    out.extend([0] * (order + 1 - len(out)))
    for n in range(r, order + 1):
        out[n] += out[n - r]
    return out


def geom_inv_prod(a, strides, order):
    """Multiply coefficients a by prod_r 1/(1 - x^r) over distinct positive
    strides r, to the order, in one packed integer.

    The list is packed highest exponent first, so the shift x^s is a right
    shift by s slots, and the shift drops exactly the coefficients that would
    land past the order.  Truncated, 1/(1 - x^r) is (1 + x^r)(1 + x^2r)...
    (1 + x^(2^j r)) with 2^j r <= order, so a stride costs
    floor(log2(order / r)) + 1 shift-adds, and the list is packed and
    unpacked once for the whole product.

    Slot width: the coefficient of x^n in prod 1/(1 - x^r) over distinct r
    counts some of the partitions of n, so it is at most p(n), and no
    partial product on the way has larger coefficients.  So each
    slot stays within sum|a| p(order) in absolute value, and p(n) <
    exp(pi sqrt(2n/3)) < 2^(3.701 (isqrt(n) + 1)) (Apostol, Introduction to
    Analytic Number Theory, Thm 14.5).  A repeated stride breaks that bound,
    so it is refused.  Signed input carries conv_trunc's half-range bias in
    every slot, so each right shift floors onto whole slots; the bias that
    a shift moves down is taken out again.
    """
    strides = list(strides)
    if strides and min(strides) <= 0:
        raise ValueError("strides must be positive")
    if len(set(strides)) != len(strides):
        raise ValueError("strides must be distinct")
    out = list(a[: order + 1])
    out.extend([0] * (order + 1 - len(out)))
    strides = [r for r in strides if r <= order]
    if not (strides and any(out)):
        return out
    bits = sum(map(abs, out)).bit_length() + 3701 * (isqrt(order) + 1) // 1000 + 1
    width = bits // 8 + 1
    code, width = _SLOT_CODES.get(width, (None, width))
    bias = _slot_bias(width, order + 1)
    out.reverse()
    packed = _pack(out, code, width)
    signed = min(out) < 0
    if signed:
        packed += bias
    for r in strides:
        s = r
        while s <= order:
            shift = 8 * width * s
            packed += packed >> shift
            if signed:
                packed -= bias >> shift
            s += s
    if not signed:
        packed += bias
    out = _unpack(packed, code, width, order + 1, bias)
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Truncated power series


def _as_int(value) -> int:
    """An int from an int, a Fraction or a "p/q" string of integer value."""
    if isinstance(value, (int, Fraction, str)) and Fraction(value).denominator == 1:
        return int(Fraction(value))
    raise ValueError(f"not an integer coefficient: {value!r}")


class QSeries(Frozen):
    """Truncated formal power series with integer coefficients.

    Coefficients of exponents > order are unknown, not zero.  The variable
    tag is "x" or "y" with y^2 = x; the y carrier exists so theta sums with
    half-integer x-exponents stay integral.  ``coeffs`` holds one int per
    exponent 0..order, and arithmetic takes series and int scalars.
    """

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs, order=None, var="x"):
        coeffs = [_as_int(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("order is required for empty coefficients")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than order+1; truncate explicitly")
        if var not in ("x", "y"):
            raise ValueError("variable tag must be 'x' or 'y'")
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self._fill(coeffs, order, var)

    def _fill(self, coeffs, order, var):
        _set(self, "coeffs", tuple(coeffs))
        _set(self, "order", order)
        _set(self, "var", var)

    @classmethod
    def _make(cls, coeffs, order, var):
        """The series sum_n coeffs[n] var^n; len(coeffs) must be order+1."""
        self = object.__new__(cls)
        self._fill(coeffs, order, var)
        return self

    def __reduce__(self):
        return QSeries._make, (self.coeffs, self.order, self.var)

    # -- constructors

    @classmethod
    def one(cls, order, var="x"):
        return cls([1], order=order, var=var)

    @classmethod
    def gen(cls, order, var="x"):
        """The series of the variable itself."""
        if order < 1:
            raise ValueError("generator needs order >= 1")
        return cls([0, 1], order=order, var=var)

    # -- internals

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = QSeries([other], self.order, self.var)
        elif not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        n = min(self.order, other.order)
        return QSeries._make(list(map(add, self.coeffs, other.coeffs)), n, self.var)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._make([-c for c in self.coeffs], self.order, self.var)

    def __sub__(self, other):
        if isinstance(other, (int, QSeries)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries._make([other * a for a in self.coeffs], self.order, self.var)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        n = min(self.order, other.order)
        return QSeries._make(conv_trunc(self.coeffs, other.coeffs, n), n, self.var)

    __rmul__ = __mul__

    def first_mismatch(self, other):
        """Smallest exponent up to the common order where the coefficients
        differ, or None when the two series agree that far."""
        self._check_var(other)
        pairs = enumerate(zip(self.coeffs, other.coeffs))
        return next((e for e, (a, b) in pairs if a != b), None)

    def __eq__(self, other):
        """Equality up to the common truncation order."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.var != other.var:
            return False
        return self.first_mismatch(other) is None

    __hash__ = None  # equality is only up to common order

    # -- structure

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries._make(self.coeffs[: order + 1], order, self.var)

    def shift(self, e: int) -> "QSeries":
        """Multiply by var^e; the result is known to order+e."""
        if e < 0:
            raise ValueError("negative shift")
        return QSeries._make((0,) * e + self.coeffs, self.order + e, self.var)

    def mul_one_minus_pow(self, e: int) -> "QSeries":
        """Multiply by (1 - var^e) in O(order) coefficient operations."""
        if e <= 0:
            raise ValueError("exponent must be positive")
        coeffs = list(self.coeffs)
        coeffs[e:] = map(sub, coeffs[e:], coeffs[: len(coeffs) - e])
        return QSeries._make(coeffs, self.order, self.var)

    def mul_geom_inv(self, r: int) -> "QSeries":
        """Multiply by 1/(1 - var^r) in O(order) coefficient operations."""
        coeffs = geom_inv_mul(self.coeffs, r, self.order)
        return QSeries._make(coeffs, self.order, self.var)

    def to_y(self) -> "QSeries":
        """Reinterpret an x-series in y with y^2 = x (exponents double)."""
        if self.var != "x":
            raise ValueError("to_y applies to x-series")
        coeffs = [0] * (2 * self.order + 2)
        coeffs[::2] = self.coeffs
        # odd y-exponents of an x-series are identically zero, hence known
        return QSeries._make(coeffs, 2 * self.order + 1, "y")

    # -- io

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self):
        shown = ", ".join(map(str, self.coeffs[:8]))
        if self.order >= 8:
            shown += ", ..."
        return f"QSeries([{shown}], order={self.order}, var={self.var!r})"


def one_minus_product(exponents, order: int, var: str = "x") -> QSeries:
    """prod_e (1 - v^e) over the given exponents, truncated."""
    out = QSeries.one(order, var)
    for e in exponents:
        out = out.mul_one_minus_pow(e)
    return out


# ---------------------------------------------------------------------------
# Theta sums and the Jacobi triple product


def theta_sum(a: int, b: int, order: int) -> QSeries:
    """Two-sided alternating sum  sum_n (-1)^n y^(a n^2 + b n), truncated.

    Needs a > b >= 0 so all exponents are nonnegative and only finitely many
    terms land below the truncation order.
    """
    if not (a > 0 and b >= 0 and a > b):
        raise ValueError("theta_sum needs a > b >= 0")
    coeffs = [0] * (order + 1)
    n = 0
    while True:
        hit = False
        for m in (n, -n) if n else (0,):
            e = a * m * m + b * m
            if 0 <= e <= order:
                coeffs[e] += -1 if n % 2 else 1
                hit = True
        if not hit and a * n * n - b * n > order:
            break
        n += 1
    return QSeries._make(coeffs, order, "y")


def jacobi_product(v_exp: int, w_exp: int, order: int) -> QSeries:
    """Triple product  prod_n (1-vw^(2n-1))(1-w^(2n-1)/v)(1-w^(2n))
    with v = y^v_exp, w = y^w_exp, truncated at the given order.

    Needs w_exp > v_exp >= 0 so every factor exponent is positive.
    """
    if not (w_exp > v_exp >= 0):
        raise ValueError("jacobi_product needs w_exp > v_exp >= 0")
    exps = []
    for n in range(1, (order + v_exp + w_exp) // (2 * w_exp) + 1):
        # n runs while the smallest exponent, w(2n-1) - v, is within the order
        odd = w_exp * (2 * n - 1)
        exps += [odd + v_exp, odd - v_exp, 2 * n * w_exp]
    return one_minus_product(exps, order, "y")


def q_binomial_check(n: int, q) -> bool:
    """Check the q-binomial theorem as a polynomial identity in y:

        sum_m y^m q^((m^2+m)/2) (q)_n / ((q)_m (q)_{n-m})
            = (1+yq)(1+yq^2)...(1+yq^n)

    with (q)_m the ascending symbol.  The sum runs m = 0..n (the symbol with
    a negative index would vanish).  With q = c/d in lowest terms, (q)_m =
    J_m / d^t(m), t(m) = m(m+1)/2, J_m = (d - c)(d^2 - c^2)...(d^m - c^m), so
    over d^t(n) the y^m coefficient is c^t(m) [n; m] d^t(n-m), with the exact
    integer quotient [n; m] = J_n / (J_m J_(n-m)).  The product is
    prod_s (d^s + c^s y) over the same d^t(n), so the check compares two
    integer polynomials.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    q = as_fraction(q)
    c, d = q.numerator, q.denominator
    js = list(accumulate((d**k - c**k for k in range(1, n + 1)), mul, initial=1))
    if js[n] == 0:  # (q)_n = 0 iff some (q)_m with m <= n is 0
        raise ValueError("degenerate q: (q)_m vanishes")
    t = [m * (m + 1) // 2 for m in range(n + 1)]
    lhs = [c ** t[m] * (js[n] // (js[m] * js[n - m])) * d ** t[n - m]
           for m in range(n + 1)]
    rhs = [1]
    for s in range(1, n + 1):  # times d^s + c^s y: new[j] = d^s old[j] + c^s old[j-1]
        ds, cs = d**s, c**s
        rhs = [ds * b + cs * a for a, b in zip([0] + rhs, rhs + [0])]
    return lhs == rhs


__all__ = [
    "Interval",
    "PochTable",
    "QSeries",
    "as_fraction",
    "jacobi_product",
    "one_minus_product",
    "poch_inf",
    "poch_table",
    "q_binomial_check",
    "theta_sum",
]
