"""Command-line harness: verification batteries, samplers, closed-form vs
matrix-power cross-checks, matrix dumps, Bailey iteration, and series dumps.
The chain modules own the matrix powers, eigen checks and sample streams
that it runs and prints.

All rationals cross this boundary as "p/q" strings.  Reports are JSON lines
on stdout; diagnostics go to stderr.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 usage or configuration error (and any other
error: one "error:" line, never a traceback).
"""

import argparse
import itertools
import json
import re
import sys
from collections import deque, namedtuple
from fractions import Fraction
from time import perf_counter

from qchains.fristedt import (
    FristedtParams,
    f_chain_mass,
    f_diag_rows,
    f_kernel,
    f_kernel_rows,
    f_kr_closed,
    f_sample_stream,
)
from qchains.glchain import (
    _columns,
    _common_den,
    chain_mass,
    diag_rows,
    eigen_failures,
    kernel,
    kernel_rows,
    kr_closed,
    power_rows,
    sample_stream,
)
from qchains.identities import (
    AGSpec,
    _bailey_step,
    absorption_limit_series,
    ag_product,
    ag_sum,
    bailey_check,
    bailey_pair_from_alpha,
    bailey_step,
    unit_bailey_pair,
)
from qchains.partitions import MeasureParams, enumerate_partitions, mass_v1, mass_v2
from qchains.qalgebra import (
    QSeries,
    jacobi_product,
    one_minus_product,
    poch_table,
    q_binomial_check,
    theta_sum,
)
from qchains.quiver import (
    ConvergenceError,
    PartitionTuple,
    Quiver,
    QuiverParams,
    load_quiver,
    quiver_chain_mass,
    quiver_kernel,
    quiver_sample_stream,
    tuple_weight,
)


# smallest value each integer flag accepts when it is given
_INT_FLAG_MIN = {
    "order": 0,
    "lmax": 0,
    "count": 0,
    "jobs": 1,
    "n": 0,
    "k": 2,
    "size_cap": 0,
    "steps": 0,
    "seed": 0,
}

# largest value each size flag accepts, from measured costs (2-vCPU machine,
# Python 3.11):
# - L, lmax: the (L+1)^2/2 kernel entries carry about L^2 bits each, so
#   memory grows as L^4.  `power --L N --j 0 --r 1`, which holds the
#   kernel's rows, peaks at 21 MB at N = 120 and 31 MB at 160, and at N =
#   200 takes 2.3 s; `kernel --lmax` streams the kernel's rows and writes
#   each as it comes: it peaks at 19 MB at 120 and 24 MB at 160 (8.5 s,
#   nearly all of it reducing each printed entry and writing its digits).
#   `verify --suite diag --lmax 60` checks the diagonalization row by row
#   and holds only A: it peaks at 19.7 MB (whole process, perfbench/child.py;
#   15.5 MB for `verify --suite rr --order 0`) and takes about 9 s.
# - r, for `power` only (`series --r` is another flag): row L of K^r takes
#   r row-vector products whose entries grow to about r L^2 bits, so the
#   time grows about as r^2.  `power --L 40 --j 0` took 0.5 s at r = 32;
#   at L = 100, r = 32 took 42 s; at L = 200, r = 1, 4 and 8 took 3.9, 28
#   and 95 s.
# - size_cap: the quiver mass table takes |a| <= cap terms for a state a,
#   over about cap^n / n! states.  The A2 quiver's first draw (in-process)
#   took 0.012, 0.036, 0.089 and 0.46 s at caps 20, 30, 40 and 60; summing
#   each state's whole box, as before, took 0.067, 0.35, 1.2 and 9.5 s.
# - steps: the entries grow with each step; `bailey --lmax 15` took 0.27, 0.97
#   and 19.8 s at 32, 64 and 200 steps.  `--alpha` takes <= lmax + 1 values.
# - order (verify and series): at N = 1000 `verify --suite ag` is the
#   costliest suite: 8.3 s and 23.9 MB (whole process, median of 3), where
#   chained geometric recurrences and no Euler-pair cache took 12.3 s and
#   19.4 MB; the cache holds about 5 MB of pairs at this order.  `verify
#   --suite rr` took 0.125 s there (0.16 s before).  Its sum side streams
#   the Euler inverses, one row of at most N + 1 coefficients at a time, so
#   it holds O(N) coefficients: at N = 1000 it peaked at 17.6 MB against
#   17.5 MB at N = 0 (whole process, min of 3), where a table of N^1.5
#   coefficients peaked at 18.7 MB.  `verify --suite pipeline` grows about
#   as N^3: 1.7, 12 and 113 s at N = 1000, 2000 and 4000 (23, 28 and
#   44 MB).  The series-deep benchmark runs rr at 1000.
# - n: `verify --suite qbinomial` checks n = 0..N for each q, in time about
#   N^3.8 (in-process): with the three default q it took 0.03, 0.12, 0.42
#   and 1.0 s at N = 40, 60, 80 and 100; with `--q 1/2` alone, 0.07 and
#   0.18 s at N = 80 and 100.  A long q costs more: `--q 123456789/987654321`
#   took 0.4, 3.5 and 67 s at N = 40, 60 and 100.
# - jobs: `verify` starts min(jobs, cases) worker processes at once (303
#   cases at `qbinomial --n 100`), each an interpreter of about 17 MB, and
#   CPU-bound cases gain nothing from more workers than cores.
_INT_FLAG_MAX = {"L": 200, "jobs": 32, "lmax": 200, "n": 100, "order": 1000,
                 "r": 32, "size_cap": 40, "steps": 32}
_INT_FLAG_COMMAND = {"r": "power"}  # flags bounded on one command only

# largest q that `sample --model fristedt` accepts: the first step's support
# cap A grows as 1/(1 - q), and the integers its cut points come from have
# about A^2 log2(D) / 2 bits each (q = N/D).  They are made one at a time
# and not kept, so time, not memory, sets the bound: `--count 1` took 0.03,
# 0.17, 0.49 and 13.1 s (in-process) at q = 4/5, 7/8, 9/10 and 19/20, with
# support caps 206, 347, 442 and 923, and peaked at 15.6, 15.7 and 15.9 MB
# at the first three (whole process, perfbench/child.py; 15.5 MB for
# `verify --suite rr --order 0`); one draw from f_sample_stream peaked
# 1.8 MB higher at 19/20 than at 9/10.
_FRISTEDT_SAMPLE_Q_MAX = Fraction(9, 10)

# smallest q that `sample --model gl` accepts: the support cap and its tail
# bound are exact in q, and near q = 1 both grow fast.  `--count 1` took
# (whole process) 0.39, 3.2 and 51 s at q = 101/100, 201/200 and 401/400
# with u = 1/2, and was stopped after 30 s at q = 1001/1000; with
# u = 99/100 it took 1.3 and 16 s at q = 101/100 and 201/200.
_GL_SAMPLE_Q_MIN = Fraction(101, 100)


def _flag(name) -> str:
    """The option as typed, from its argparse attribute name."""
    return "--" + name.replace("_", "-")


def _typed(names) -> str:
    """Attribute names as the sorted, comma-separated options they come from."""
    return ", ".join(sorted(map(_flag, names)))


def _check_int_flags(args):
    """Reject a given integer flag outside its bounds before any work starts."""
    for name, low in _INT_FLAG_MIN.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"{_flag(name)} must be >= {low}")
    for name, high in _INT_FLAG_MAX.items():
        if _INT_FLAG_COMMAND.get(name, args.command) != args.command:
            continue
        value = getattr(args, name, None)
        if value is not None and value > high:
            raise ValueError(f"{_flag(name)} must be <= {high}")


# A row-length chain: its parameters, their "p/q" strings, its builders.
_Model = namedtuple("_Model", "p params kernel rows diag_rows closed stream")


# the options each model reads (the quiver file sets the quiver's U and q)
_MODEL_OPTIONS = {"gl": {"u", "q"}, "fristedt": {"q"}, "quiver": {"quiver", "size_cap"}}


def _check_model_flags(args):
    """Reject a given option that the chosen model does not read, as verify
    rejects one that the chosen suite does not read."""
    model = getattr(args, "model", None)
    if model is None:
        return
    unread = set().union(*_MODEL_OPTIONS.values()) - _MODEL_OPTIONS[model]
    extra = _typed(n for n in unread if getattr(args, n, None) is not None)
    if extra:
        raise ValueError(f"options not used by model {model!r}: {extra}")


def _model(name, u, q) -> _Model:
    """The gl chain at (u, q), or the Fristedt chain at q, from "p/q" strings;
    an absent (None) u is 1/2 and an absent q is 2.

    The builders are this module's names as bound at call time, so a name
    rebound here (by a tracer or a test) reaches every command and case.
    """
    u = "1/2" if u is None else u
    q = "2" if q is None else q
    if name == "gl":
        p = MeasureParams(u=Fraction(u), q=Fraction(q))
        return _Model(p, {"u": str(p.u), "q": str(p.q)}, kernel, kernel_rows,
                      diag_rows, kr_closed, sample_stream)
    p = FristedtParams(q=Fraction(q))
    return _Model(p, {"q": str(p.q)}, f_kernel, f_kernel_rows,
                  f_diag_rows, f_kr_closed, f_sample_stream)


def _line(obj, mode="json") -> str:
    """obj as one output line, without its newline."""
    if mode == "json":
        return json.dumps(obj, sort_keys=True)
    return " ".join(f"{k}={v}" for k, v in sorted(obj.items()))


def _emit(obj, mode="json"):
    print(_line(obj, mode))


def _emit_list(obj, key, chunks, mode="json"):
    """Print the line _emit prints for obj with obj[key] the concatenation
    of chunks, an iterable of lists of strings, writing each chunk as it is
    produced, so that the whole list is never held."""
    marker = f"{json.dumps(key)}: []" if mode == "json" else f"{key}=[]"
    line = _line({**obj, key: []}, mode)
    cut = line.index(marker) + len(marker) - 1  # just after the "["
    item = json.dumps if mode == "json" else repr
    out = sys.stdout
    out.write(line[:cut])
    sep = ""
    for chunk in chunks:
        if chunk:
            out.write(sep + ", ".join(map(item, chunk)))
            sep = ", "
    out.write(line[cut:] + "\n")


_LINE_MEMO = 1024  # distinct chain paths whose line _sample_lines keeps


def _sample_lines(samples, model, mode="json"):
    """Yield, for each ChainSample, the line that _emit prints for it,
    formatted directly: _emit(s.to_json(model), mode) for a row-length chain,
    and _emit({"model": "quiver", "seed": s.seed, "partitions":
    s.partition.to_json()}, mode) for the quiver.

    For one model and seed the line depends only on the chain states, so
    the lines of the first _LINE_MEMO distinct states of a seed are kept
    and written again when those states recur; others are formatted anew.
    """
    if model == "quiver":
        template = ('{{"model": "quiver", "partitions": {}, "seed": {}}}\n'
                    if mode == "json" else "model=quiver partitions={} seed={}\n")

        def line(s):
            return template.format(s.partition.to_json(), s.seed)
    elif mode == "json":
        name = json.dumps(model)

        def line(s):
            return (f'{{"columns": {list(s.columns)}, "model": {name}, '
                    f'"partition": {list(s.partition.parts)}, "seed": {s.seed}}}\n')
    else:
        def line(s):
            return (f"columns={list(s.columns)} model={model} "
                    f"partition={list(s.partition.parts)} seed={s.seed}\n")
    memo, seed = {}, None
    for s in samples:
        if s.seed != seed:
            memo, seed = {}, s.seed
        text = memo.get(s.columns)
        if text is None:
            text = line(s)
            if len(memo) < _LINE_MEMO:
                memo[s.columns] = text
        yield text


# ---------------------------------------------------------------------------
# Verification cases (top-level functions so a worker pool can pickle them)


def _power_mismatches(m, l_max, r_max):
    """Yield each (l, j, r), r = 1..r_max, where the r-th power of model m's
    kernel matrix on 0..l_max differs from its closed form: row l of K^r
    comes from one power_rows generator per l, all advanced together."""
    rows = list(m.rows(l_max, m.p))
    cols = _columns(rows)
    powers = [power_rows(rows, cols, ll, r_max) for ll in range(l_max + 1)]
    for r in range(1, r_max + 1):
        for ll, power in enumerate(powers):
            row, den = next(power)
            for j in range(ll + 1):
                closed = m.closed(ll, j, r, m.p)  # against row[j] / den
                if closed.numerator * den != row[j] * closed.denominator:
                    yield ll, j, r


def _case_ag(k, i, order, inject=False):
    spec = AGSpec(k, i, order)
    lhs = ag_sum(spec)
    rhs = ag_product(spec)
    if inject:
        lhs = lhs + QSeries([0] * min(3, order) + [1], order)
    mismatch = lhs.first_mismatch(rhs)
    report = {
        "suite": "ag",
        "k": k,
        "i": i,
        "N": order,
        "coverage": "probabilistic" if i in (1, k) else "series-engine",
        "status": "pass" if mismatch is None else "fail",
    }
    if mismatch is not None:
        report["first_mismatch_order"] = mismatch
    return report


def _case_pipeline(k, order):
    failures = []
    flat = absorption_limit_series(k, 0, order)
    if flat != one_minus_product(range(1, order + 1), order) * ag_sum(
        AGSpec(k, k, order)
    ):
        failures.append("absorption-vs-sum-side-top")
    tilted = absorption_limit_series(k, 1, order)
    if tilted != one_minus_product(range(2, order + 1), order) * ag_sum(
        AGSpec(k, 1, order)
    ):
        failures.append("absorption-vs-sum-side-bottom")
    in_y = flat.to_y()
    theta = theta_sum(2 * k + 1, 1, 2 * order)
    if in_y != theta:
        failures.append("theta-route")
    if theta != jacobi_product(1, 2 * k + 1, 2 * order):
        failures.append("triple-product")
    return {
        "suite": "pipeline",
        "k": k,
        "N": order,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }


def _case_qbinomial(n, q):
    ok = q_binomial_check(n, Fraction(q))
    return {
        "suite": "qbinomial",
        "n": n,
        "q": q,
        "status": "pass" if ok else "fail",
    }


def _case_jacobi(a, b, order):
    ok = theta_sum(a, b, order) == jacobi_product(b, a, order)
    return {
        "suite": "jacobi",
        "A": a,
        "B": b,
        "N": order,
        "status": "pass" if ok else "fail",
    }


def _case_diag(u, q, l_max):
    p = MeasureParams(u=Fraction(u), q=Fraction(q))
    # K against the chain's entry formula, not the factor lists C and M
    # are built from
    failures = eigen_failures(diag_rows(l_max, p), "E",
                              lambda a, b: kernel(a, b, p))
    return {
        "suite": "diag",
        "u": u,
        "q": q,
        "l_max": l_max,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }


def _case_power_battery(u, q, l_max, r_max):
    bad = next(_power_mismatches(_model("gl", u, q), l_max, r_max), None)
    return {
        "suite": "power",
        "u": u,
        "q": q,
        "l_max": l_max,
        "r_max": r_max,
        "status": "pass" if bad is None else "fail",
        "first_mismatch": bad,
    }


def _case_stochastic(model, u, q, a_max):
    m = _model(model, u, q)
    # each row's numerators over the lcm of its denominators add up to the lcm
    rows = (_common_den(m.kernel(a, b, m.p) for b in range(a + 1))
            for a in range(a_max + 1))
    ok = all(sum(nums) == den for nums, den in rows)
    return {
        "suite": "stochastic",
        "model": model,
        "q": q,
        "a_max": a_max,
        "status": "pass" if ok else "fail",
    }


def _case_chain_measure(u, q, size):
    p = MeasureParams(u=Fraction(u), q=Fraction(q))
    lams = [lam for n in range(size + 1) for lam in enumerate_partitions(n)]
    base = lams[0]
    cb, wb = chain_mass(base, p), mass_v1(base, p)
    ok = all(
        chain_mass(lam, p) * wb == mass_v1(lam, p) * cb
        and mass_v1(lam, p) == mass_v2(lam, p)
        for lam in lams
    )
    return {
        "suite": "chain-measure",
        "u": u,
        "q": q,
        "size": size,
        "status": "pass" if ok else "fail",
    }


def _relation_holds(pair) -> bool:
    """beta_L = sum_{r<=L} alpha_r / ((1/q)_{L-r} (u/q)_{L+r}) for every L,
    summed directly from the Pochhammer tables, with no matrix."""
    (u, q), a = (pair.params.u, pair.params.q), pair.alpha
    iq, uq = poch_table(1 / q, q), poch_table(u / q, q)
    return all(b == sum(a[r] / (iq[ll - r] * uq[ll + r]) for r in range(ll + 1))
               for ll, b in enumerate(pair.beta))


def _case_bailey(u, q, l_max, seed, count):
    import random

    p = MeasureParams(u=Fraction(u), q=Fraction(q))
    failures = []

    def exercise(pair, label, oracle):
        try:
            stepped = bailey_step(pair)
        except ValueError:  # the input is not a Bailey pair
            failures.append(f"{label}:pair")
            return
        if not bailey_check(stepped):
            failures.append(f"{label}:step")
        if oracle and not _relation_holds(stepped):
            failures.append(f"{label}:relation")

    exercise(unit_bailey_pair(p, l_max), "unit", oracle=True)
    rng = random.Random(seed)
    for t in range(count):
        alpha = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            for _ in range(l_max + 1)
        ]
        exercise(bailey_pair_from_alpha(alpha, p), f"random{t}", oracle=t == 0)
    return {
        "suite": "bailey",
        "u": u,
        "q": q,
        "l_max": l_max,
        "pairs": count + 1,
        "status": "pass" if not failures else "fail",
        "failures": failures[:5],
    }


def _case_fristedt(q, l_max, r_max, size):
    m = _model("fristedt", None, q)
    mismatches = _power_mismatches(m, l_max, r_max)
    failures = [f"power({ll},{j},{r})" for ll, j, r in mismatches]
    failures += eigen_failures(m.diag_rows(l_max, m.p), "D",
                               lambda a, b: m.kernel(a, b, m.p))
    for n in range(size + 1):
        for lam in enumerate_partitions(n):
            if f_chain_mass(lam, m.p) != m.p.q**n:
                failures.append(f"uniformity:{list(lam.parts)}")
    return {
        "suite": "fristedt",
        "q": q,
        "l_max": l_max,
        "r_max": r_max,
        "status": "pass" if not failures else "fail",
        "failures": failures[:5],
    }


def _case_quiver(name, size_cap, a_budget):
    if name == "a2":
        g = Quiver.from_edges(2, [(1, 2, 1)])
        p = QuiverParams(q=Fraction(2), u=(Fraction(1, 4), Fraction(1, 4)))
        size_cap = 16 if size_cap is None else size_cap
    elif name == "jordan":
        g = Quiver.from_edges(1, [(1, 1, 1)])
        p = QuiverParams(q=Fraction(2), u=(Fraction(1, 4),))
        size_cap = 24 if size_cap is None else size_cap  # loop decays slower than A2
    else:
        raise ValueError(f"unknown built-in quiver {name!r}")
    failures = []
    vectors = [
        a
        for a in itertools.product(range(a_budget + 1), repeat=g.n)
        if sum(a) <= a_budget
    ]
    for a in vectors:
        if sum(a) == 0:
            continue
        support = itertools.product(*(range(v + 1) for v in a))
        if sum(quiver_kernel(a, b, g, p, size_cap) for b in support) != 1:
            failures.append(f"rowsum{a}")
    # the chain generates the tuple measure: each tuple whose component sizes
    # are one of the vectors has chain mass equal to its weight
    for sizes in vectors:
        for comps in itertools.product(*map(enumerate_partitions, sizes)):
            t = PartitionTuple(comps)
            if quiver_chain_mass(t, g, p, size_cap) != tuple_weight(t, g, p):
                failures.append(f"chain-measure{t.to_json()}")
    return {
        "suite": "quiver",
        "quiver": name,
        "size_cap": size_cap,
        "status": "pass" if not failures else "fail",
        "failures": failures[:5],
    }


def run_case(case):
    fn, kwargs = case
    t0 = perf_counter()
    report = fn(**kwargs)
    report["elapsed"] = round(perf_counter() - t0, 6)
    return report


# ---------------------------------------------------------------------------
# Suites: each makes its cases, in report order, from the options it reads


def _uq(args) -> dict:
    """u and q of the measure suites as reduced "p/q" strings."""
    return _model("gl", args.u, args.q).params


def _rr_cases(args):
    order = 60 if args.order is None else args.order
    return [(_case_ag, {"k": 2, "i": i, "order": order, "inject": args.inject_fault})
            for i in (2, 1)]


def _ag_cases(args):
    order = 40 if args.order is None else args.order
    return [
        (_case_ag, {"k": k, "i": i, "order": order, "inject": args.inject_fault})
        for k in ([2, 3, 4, 5] if args.k is None else [args.k])
        for i in (range(1, k + 1) if args.i is None else [args.i])
    ]


def _pipeline_cases(args):
    order = 60 if args.order is None else args.order
    return [(_case_pipeline, {"k": k, "order": order})
            for k in ([2, 3, 4] if args.k is None else [args.k])]


def _qbinomial_cases(args):
    qs = ("1/2", "1/3", "2/5") if args.q is None else (args.q,)
    top = 12 if args.n is None else args.n
    return [(_case_qbinomial, {"n": n, "q": q}) for q in qs for n in range(top + 1)]


def _jacobi_cases(args):
    order = 200 if args.order is None else args.order
    return [(_case_jacobi, {"a": 5, "b": b, "order": order}) for b in (1, 3)]


def _diag_cases(args):
    l_max = 30 if args.lmax is None else args.lmax
    if args.u is None and args.q is None:
        uqs = [{"u": "1/2", "q": "2"}, {"u": "1/3", "q": "3"}, {"u": "2/5", "q": "5/2"}]
    else:
        uqs = [_uq(args)]
    return [(_case_diag, {**uq, "l_max": l_max}) for uq in uqs]


def _power_cases(args):
    l_max = 20 if args.lmax is None else args.lmax
    return [(_case_power_battery, {**_uq(args), "l_max": l_max, "r_max": 8})]


def _stochastic_cases(args):
    return [
        (_case_stochastic, {"model": "gl", **_uq(args), "a_max": 40}),
        (_case_stochastic, {"model": "fristedt", "u": None, "q": "1/2", "a_max": 40}),
    ]


def _chain_measure_cases(args):
    return [(_case_chain_measure, {**_uq(args), "size": 10})]


def _bailey_cases(args):
    l_max = 15 if args.lmax is None else args.lmax
    count = 50 if args.count is None else args.count
    return [(_case_bailey, {**_uq(args), "l_max": l_max, "seed": args.seed,
                            "count": count})]


def _fristedt_cases(args):
    q = "1/2" if args.q is None else args.q
    return [(_case_fristedt, {"q": q, "l_max": 10, "r_max": 4, "size": 8})]


def _quiver_cases(args):
    return [(_case_quiver, {"name": name, "size_cap": args.size_cap, "a_budget": 3})
            for name in ("a2", "jordan")]


# suite: (case maker, the options it reads, those of them it reads only when
# run alone).  `all` runs every suite as if its alone-only options were
# absent: --k, --i and --n pick single cases, and the q of the q-binomial and
# Fristedt suites lies in (0, 1), so --q goes to the measure suites only.
# --seed (bailey's), --jobs, --inject-fault and --format suit every suite.
_SUITES = {
    "rr": (_rr_cases, {"order"}, set()),
    "ag": (_ag_cases, {"order", "k", "i"}, {"k", "i"}),
    "pipeline": (_pipeline_cases, {"order", "k"}, {"k"}),
    "qbinomial": (_qbinomial_cases, {"n", "q"}, {"n", "q"}),
    "jacobi": (_jacobi_cases, {"order"}, set()),
    "diag": (_diag_cases, {"lmax", "u", "q"}, set()),
    "power": (_power_cases, {"lmax", "u", "q"}, set()),
    "stochastic": (_stochastic_cases, {"u", "q"}, set()),
    "chain-measure": (_chain_measure_cases, {"u", "q"}, set()),
    "bailey": (_bailey_cases, {"lmax", "u", "q", "count"}, set()),
    "fristedt": (_fristedt_cases, {"q"}, {"q"}),
    "quiver": (_quiver_cases, {"size_cap"}, set()),
}
_SUITE_OPTIONS = set().union(*(reads for _, reads, _ in _SUITES.values()))


def _suite_cases(args):
    """The cases of args.suite in report order; a given option that the suite
    does not read is a config error."""
    if args.suite == "all":
        runs = [(make, reads - alone) for make, reads, alone in _SUITES.values()]
    else:
        make, reads, _ = _SUITES[args.suite]
        runs = [(make, reads)]
    read = set().union(*(reads for _, reads in runs))
    extra = _typed(n for n in _SUITE_OPTIONS - read if getattr(args, n) is not None)
    if extra:
        raise ValueError(f"options not used by suite {args.suite!r}: {extra}")
    cases = []
    for make, reads in runs:
        absent = dict.fromkeys(_SUITE_OPTIONS - reads)
        cases += make(argparse.Namespace(**{**vars(args), **absent}))
    return cases


def cmd_verify(args) -> int:
    cases = _suite_cases(args)
    jobs = min(args.jobs, len(cases))  # a pool starts all its workers at once
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_case, cases))
    else:
        reports = [run_case(c) for c in cases]
    failed = 0
    for report in reports:
        _emit(report, args.format)
        if report["status"] != "pass":
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} checks passed", file=sys.stderr)
    return 1 if failed else 0


def cmd_sample(args) -> int:
    eps = Fraction(args.eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if args.model == "quiver":
        if args.quiver is None:
            raise ValueError("quiver model requires --quiver FILE")
        try:
            g, qp = load_quiver(args.quiver)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad quiver file: {exc}") from exc
        size_cap = 20 if args.size_cap is None else args.size_cap
        samples = quiver_sample_stream(g, qp, args.seed, args.count, size_cap, eps)
    else:
        m = _model(args.model, args.u, args.q)
        if args.model == "fristedt" and m.p.q > _FRISTEDT_SAMPLE_Q_MAX:
            raise ValueError(f"--q must be <= {_FRISTEDT_SAMPLE_Q_MAX} "
                             "for --model fristedt")
        if args.model == "gl" and m.p.q < _GL_SAMPLE_Q_MIN:
            raise ValueError(f"--q must be >= {_GL_SAMPLE_Q_MIN} for --model gl")
        samples = m.stream(m.p, args.seed, args.count, eps)
    sys.stdout.writelines(_sample_lines(samples, args.model, args.format))
    return 0


def cmd_power(args) -> int:
    ll, j, r = args.L, args.j, args.r
    if not 0 <= j <= ll:
        raise ValueError("need 0 <= j <= L")
    m = _model(args.model, args.u, args.q)
    closed = m.closed(ll, j, r, m.p)
    rows = list(m.rows(ll, m.p))
    # row L of K^r is the last row that power_rows yields
    (row, den), = deque(power_rows(rows, _columns(rows), ll, r), maxlen=1)
    power = Fraction(row[j], den)
    equal = closed == power
    _emit(
        {
            "model": args.model,
            "L": ll,
            "j": j,
            "r": r,
            "closed_form": str(closed),
            "matrix_power": str(power),
            "equal": equal,
        },
        args.format,
    )
    return 0 if equal else 1


def cmd_kernel(args) -> int:
    m = _model(args.model, args.u, args.q)
    size = args.lmax + 1
    if args.matrix == "K":
        rows = m.rows(args.lmax, m.p)
    else:
        slot = ("M", "A", "Ainv", "C", "E").index(args.matrix)
        rows = (row[slot] for row in m.diag_rows(args.lmax, m.p))
        if args.matrix in ("C", "E"):  # a diagonal entry, as its row
            rows = (((0,) * i + (v.numerator,), v.denominator)
                    for i, v in enumerate(rows))
    info = {"size": size, "model": args.model, "name": args.matrix,
            "params": m.params}
    # each row as its entries' "p/q" strings, converted one row at a time
    entries = ([str(Fraction(c, den)) for c in row] + ["0"] * (size - len(row))
               for row, den in rows)
    _emit_list(info, "entries", entries, args.format)
    return 0


def cmd_bailey(args) -> int:
    p = _model("gl", args.u, args.q).p
    if args.alpha is not None:
        values = args.alpha.split(",")
        most = _INT_FLAG_MAX["lmax"] + 1
        if len(values) > most:
            raise ValueError(f"--alpha must have at most {most} values")
        pair = bailey_pair_from_alpha(values, p)
    else:
        pair = unit_bailey_pair(p, 15 if args.lmax is None else args.lmax)
    for step in range(args.steps + 1):
        if step:
            pair = _bailey_step(pair)  # checked at the step before
        ok = bailey_check(pair)
        _emit({**pair.to_json(), "step": step, "valid": ok}, args.format)
        if not ok:
            break  # a non-pair is not stepped
    return 0 if ok else 1


def cmd_series(args) -> int:
    order, which = args.order, args.which
    if which == "ag-sum":
        s = ag_sum(AGSpec(args.k, args.i, order))
    elif which == "ag-product":
        s = ag_product(AGSpec(args.k, args.i, order))
    elif which == "absorption":
        s = absorption_limit_series(args.r, args.delta, order)
    elif which == "theta":
        s = theta_sum(args.A, args.B, order)
    else:
        s = jacobi_product(args.v, args.w, order)
    _emit(s.to_json(), args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a word of a dash and a digit, such as
    "-3/4" or "-1,2", as the value of the option before it, as
    `--q=-3/4` does; argparse alone takes only "-3" and "-0.5" so, and reads
    the rest as unknown options.  No option here starts with a digit.  The
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qchains",
        description=(
            "Exact verification of partition-measure Markov chains and the "
            "q-series identities they prove; plus samplers and dumps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag is declared once, on the commands that read it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    chain = argparse.ArgumentParser(add_help=False)
    # no argparse defaults (1/2 and 2, from _model), so a given flag is seen
    chain.add_argument("--u", help='chain parameter u as "p/q" (default 1/2)')
    chain.add_argument("--q", help='chain parameter q as "p/q" (default 2)')

    sp = sub.add_parser("verify", parents=[fmt], help="run a verification battery")
    sp.add_argument("--suite", required=True, choices=(*_SUITES, "all"))
    # absent options take each suite's own default
    sp.add_argument("--u", help='measure parameter u as "p/q"')
    sp.add_argument("--q", help='parameter q as "p/q"')
    sp.add_argument("--order", type=int, help="series truncation order")
    sp.add_argument("--lmax", type=int, help="matrix truncation")
    sp.add_argument("--k", type=int)
    sp.add_argument("--i", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--size-cap", dest="size_cap", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--inject-fault", dest="inject_fault", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sample", parents=[fmt, chain],
                        help="draw random partitions from a chain")
    sp.add_argument("--model", choices=("gl", "fristedt", "quiver"), default="gl")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps", default="1/1048576",
                    help="certification width for intervals")
    sp.add_argument("--quiver", help="quiver JSON file (quiver model)")
    sp.add_argument("--size-cap", dest="size_cap", type=int,
                    help="first-column part cap (quiver model; default 20)")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("power", parents=[fmt, chain],
                        help="closed-form vs matrix r-step probability")
    sp.add_argument("--model", choices=("gl", "fristedt"), default="gl")
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("kernel", parents=[fmt, chain],
                        help="dump a chain matrix as JSON")
    sp.add_argument("--model", choices=("gl", "fristedt"), default="gl")
    sp.add_argument(
        "--matrix", choices=("K", "C", "M", "A", "Ainv", "E"), default="K"
    )
    sp.add_argument("--lmax", type=int, default=10, help="matrix truncation")
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("bailey", parents=[fmt, chain],
                        help="iterate the Bailey step on a pair")
    sp.add_argument("--steps", type=int, default=1)
    start = sp.add_mutually_exclusive_group()
    # no argparse default: a given `--lmax 15` must still clash with --alpha
    start.add_argument("--lmax", type=int,
                       help="length - 1 of the unit pair (default 15)")
    start.add_argument("--alpha", help='comma-separated "p/q" values')
    sp.set_defaults(func=cmd_bailey)

    sp = sub.add_parser("series", parents=[fmt], help="print a named series as JSON")
    sp.add_argument(
        "--which",
        required=True,
        choices=("ag-sum", "ag-product", "absorption", "theta", "jacobi"),
    )
    sp.add_argument("--order", type=int, default=20, help="series truncation order")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--i", type=int, default=2)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--delta", type=int, default=0)
    sp.add_argument("--A", type=int, default=5)
    sp.add_argument("--B", type=int, default=1)
    sp.add_argument("--v", type=int, default=1)
    sp.add_argument("--w", type=int, default=5)
    sp.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact entries may have any length
    args = build_parser().parse_args(argv)
    try:
        _check_int_flags(args)
        _check_model_flags(args)
        return args.func(args)
    except (ValueError, ZeroDivisionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a failed check, never a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
