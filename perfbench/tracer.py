"""Per-layer tracing of one qchains process, from outside the library.

Tracer.install() wraps every layer in LAYERS; child.py installs it before
it runs the CLI.  The library itself is not edited: the tracer rebinds each
target wherever a ``qchains.*`` module (or, for a method, the class) holds
it, because the CLI imports names directly.

For every layer it records calls, self time (span time minus the time of
traced child spans) and how often each parent layer caused it.  Some layers
also get counts computed at the call boundary (COUNTERS).  The samplers
(SAMPLERS) keep one duration per draw: a generator is timed per item, a
plain function per call.  A target missing from the library is reported as
absent.  Private names are never wrapped.
"""

import importlib
import statistics
import sys
import types
from functools import wraps
from time import perf_counter

# (layer, module, attribute path); a dunder stands for its operator.
LAYERS = (
    ("cli.main", "qchains.cli", "main"),
    ("identities.ag_sum", "qchains.identities", "ag_sum"),
    ("identities.ag_product", "qchains.identities", "ag_product"),
    ("identities.absorption_limit_series", "qchains.identities", "absorption_limit_series"),
    ("identities.bailey_step", "qchains.identities", "bailey_step"),
    ("identities.bailey_check", "qchains.identities", "bailey_check"),
    ("qalgebra.QSeries.mul", "qchains.qalgebra", "QSeries.__mul__"),
    ("qalgebra.QSeries.add", "qchains.qalgebra", "QSeries.__add__"),
    ("qalgebra.QSeries.mul_geom_inv", "qchains.qalgebra", "QSeries.mul_geom_inv"),
    ("qalgebra.series_inv", "qchains.qalgebra", "series_inv"),
    ("qalgebra.theta_sum", "qchains.qalgebra", "theta_sum"),
    ("qalgebra.jacobi_product", "qchains.qalgebra", "jacobi_product"),
    ("qalgebra.poch_desc", "qchains.qalgebra", "poch_desc"),
    ("qalgebra.poch_desc_extended", "qchains.qalgebra", "poch_desc_extended"),
    ("qalgebra.poch_std", "qchains.qalgebra", "poch_std"),
    ("qalgebra.poch_inf", "qchains.qalgebra", "poch_inf"),
    ("qalgebra.conv_trunc", "qchains.qalgebra", "conv_trunc"),
    ("qalgebra.inv_scaled", "qchains.qalgebra", "inv_scaled"),
    ("qalgebra.geom_inv_mul", "qchains.qalgebra", "geom_inv_mul"),
    ("glchain.TruncatedMatrix.matmul", "qchains.glchain", "TruncatedMatrix.__matmul__"),
    ("glchain.kr_closed", "qchains.glchain", "kr_closed"),
    ("glchain.kernel", "qchains.glchain", "kernel"),
    ("glchain.build_diagonalization", "qchains.glchain", "build_diagonalization"),
    ("glchain.sample_stream", "qchains.glchain", "sample_stream"),
    ("fristedt.f_kr_closed", "qchains.fristedt", "f_kr_closed"),
    ("fristedt.f_kernel", "qchains.fristedt", "f_kernel"),
    ("fristedt.f_diagonalization", "qchains.fristedt", "f_diagonalization"),
    ("fristedt.f_sample_stream", "qchains.fristedt", "f_sample_stream"),
    ("quiver.quiver_first_cols", "qchains.quiver", "quiver_first_cols"),
    ("quiver.normalizer", "qchains.quiver", "normalizer"),
    ("quiver.quiver_kernel", "qchains.quiver", "quiver_kernel"),
    ("quiver.quiver_sample", "qchains.quiver", "quiver_sample"),
    ("partitions.enumerate_partitions", "qchains.partitions", "enumerate_partitions"),
    ("partitions.mass_v1", "qchains.partitions", "mass_v1"),
    ("partitions.mass_v2", "qchains.partitions", "mass_v2"),
)

SAMPLERS = ("glchain.sample_stream", "fristedt.f_sample_stream", "quiver.quiver_sample")


def _count_series_mul(args, result, counts):
    """Coefficients produced, and the largest numerator or denominator."""
    coeffs = result.coeffs
    counts["coeffs"] = counts.get("coeffs", 0) + len(coeffs)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )
    counts["max_bits"] = max(counts.get("max_bits", 0), bits)


def _count_matmul(args, result, counts):
    """Multiply-adds of a product that skips zero entries on both sides."""
    left, right = args[0].entries, args[1].entries
    col_nonzero = [0] * len(right)
    for row in left:
        for k, value in enumerate(row):
            if value != 0:
                col_nonzero[k] += 1
    madds = sum(
        n * sum(1 for value in right[k] if value != 0)
        for k, n in enumerate(col_nonzero)
        if n
    )
    counts["madds"] = counts.get("madds", 0) + madds


# A counter whose name starts with "max_" is a maximum; the others are sums.
COUNTERS = {
    "qalgebra.QSeries.mul": (("coeffs", "max_bits"), _count_series_mul),
    "glchain.TruncatedMatrix.matmul": (("madds",), _count_matmul),
}


def _is_private(path):
    return any(
        part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
        for part in path.split(".")
    )


class _Stat:
    __slots__ = ("calls", "self_s", "parents", "counts", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.parents = {}
        self.counts = {}
        self.items = []


class Tracer:
    """Spans kept in memory as per-layer totals; one tracer per process."""

    def __init__(self):
        self.stack = []  # one [layer, child seconds] per open span
        self.stats = {}
        self.absent = []
        self.failed_counters = []

    def install(self, layers=LAYERS):
        """Wrap every layer that the library still has; record the rest."""
        for layer, _, path in layers:
            if _is_private(path):
                raise ValueError(f"refusing to trace private name {path!r}")
        importlib.import_module("qchains.cli")  # binds everything the CLI uses
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "qchains" or name.startswith("qchains.")
        ]
        for layer, module, path in layers:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for holder in [owner] if isinstance(owner, type) else modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    def _wrap(self, layer, fn):
        stat = self.stats[layer] = _Stat()
        counter = COUNTERS.get(layer, ((), None))[1]
        per_item = layer in SAMPLERS

        @wraps(fn)
        def traced(*args, **kwargs):
            elapsed, result = self._span(layer, stat, fn, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return self._items(layer, stat, result, per_item)
            if per_item:
                stat.items.append(elapsed)
            if counter is not None and result is not NotImplemented:
                c0 = perf_counter()
                try:
                    counter(args, result, stat.counts)
                except AttributeError:  # the library changed the shape it counts
                    if layer not in self.failed_counters:
                        self.failed_counters.append(layer)
                if self.stack:
                    self.stack[-1][1] += perf_counter() - c0
            return result

        return traced

    def _span(self, layer, stat, fn, args, kwargs):
        if self.stack:
            parent = self.stack[-1][0]
            stat.parents[parent] = stat.parents.get(parent, 0) + 1
        frame = [layer, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            stat.calls += 1
            stat.self_s += t1 - t0 - frame[1]
            if self.stack:
                self.stack[-1][1] += t1 - t0
        return t1 - t0, result

    def _items(self, layer, stat, gen, keep):
        """Re-yield gen, timing each item as a span of the same layer;
        keep says whether to store the item durations."""
        while True:
            frame = [layer, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                self.stack.pop()
                stat.self_s += t1 - t0 - frame[1]
                if self.stack:
                    self.stack[-1][1] += t1 - t0
            if keep:
                stat.items.append(t1 - t0)
            yield item

    def report(self):
        layers = {}
        for layer, stat in self.stats.items():
            entry = {
                "calls": stat.calls,
                "self_s": stat.self_s,
                "parents": stat.parents,
                "counts": stat.counts,
            }
            if stat.items:
                entry["draws"] = len(stat.items)
                entry["first_s"] = stat.items[0]
                if len(stat.items) > 1:
                    entry["per_draw_s"] = statistics.median(stat.items[1:])
            layers[layer] = entry
        return {
            "layers": layers,
            "absent": self.absent,
            "failed_counters": self.failed_counters,
        }
