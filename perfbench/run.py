"""End-to-end benchmark of the qchains CLI, with an output gate and an
optional traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs the sources under src/.  Each
workload is a fixed list of qchains commands.  They run as fresh processes,
one at a time (a closed loop with one client), and --seed is passed to every
one of them.  The whole list is repeated while --seconds lasts, and the run
reports medians over the repetitions.  Before that, fresh interpreters import
qchains.cli SETUP_PROBES times for the set-up time.

Every process is an operation.  It fails when it exits non-zero or its
output does not pass the gate (gate.py).  With --trace 1 every repetition
runs each command twice, untraced and traced (child.py, tracer.py); the
metrics are then the per-layer totals and the tracing overhead (traced
minus untraced wall time).  Both outputs go through the gate.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines above it give the environment and every
metric in words.  A record of the run is written to perfbench/.out/.  The
exit code is 0 when every operation passed, 1 when one failed and 2 when
there is nothing to benchmark.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import gate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".out"
SETUP_PROBES = 15
RUN_LIMIT_S = 165  # a process still running then is killed and fails


@dataclass(frozen=True)
class Command:
    """One qchains invocation; kind selects the gate's output check."""

    name: str
    args: tuple
    kind: str  # "verify", "gl", "fristedt" or "quiver"
    count: int = 0  # lines a sample stream prints


def _sample(name, model, params, count):
    args = ("sample", "--model", model, *params, "--count", str(count))
    return Command(name, args, model, count)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "default": (
        Command("verify", ("verify", "--suite", "all"), "verify"),
        _sample("gl", "gl", ("--u", "1/2", "--q", "2"), 50000),
        _sample("fristedt", "fristedt", ("--q", "1/2"), 25000),
        _sample("fristedt-large", "fristedt", ("--q", "4/5"), 2000),
        _sample("quiver", "quiver", ("--quiver", str(BENCH / "a2.json")), 2000),
    ),
    "series-deep": (
        Command("rr", ("verify", "--suite", "rr", "--order", "1000"), "verify"),
        Command("ag", ("verify", "--suite", "ag", "--order", "160"), "verify"),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "coeffs": "count",
    "max_bits": "bits",
    "madds": "count",
    "first_s": "s",
    "per_draw_s": "s",
}


def layer_metric_names():
    """Names of the per-layer metrics, in the order they are printed."""
    names = []
    for layer, _, _ in tracer.LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        names += [f"{layer}.{c}" for c in tracer.COUNTERS.get(layer, ((), None))[0]]
        if layer in tracer.SAMPLERS:
            names += [f"{layer}.first_s", f"{layer}.per_draw_s"]
    return names + ["trace_overhead_s"]


def metric_unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trace_overhead_s":
        return "s"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def _child_env():
    # Inherited interpreter settings (unbuffered output, no bytecode cache)
    # would change what is measured, so the children get fixed ones.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    code: int
    out: Path
    stats: Path


def run_process(argv, label, timeout=RUN_LIMIT_S) -> Proc:
    """Run argv to completion with stdout in WORK/<label>.out; time it."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"{label}.out"
    stats_path = WORK / f"{label}.stats.json"
    stats_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(WORK / f"{label}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
            env=_child_env(),
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, code, out_path, stats_path)


def run_command(cmd, seed, label, traced=False, timeout=RUN_LIMIT_S) -> Proc:
    """One qchains command through child.py, which reports its peak memory
    and, when traced, the per-layer totals in WORK/<label>.stats.json."""
    argv = [sys.executable, str(BENCH / "child.py"), str(WORK / f"{label}.stats.json"),
            "traced" if traced else "plain", "--", *cmd.args, "--seed", str(seed)]
    return run_process(argv, label, timeout)


class Run:
    """Operations of one benchmark run, their gate results and timings."""

    def __init__(self, commands, seed, digests):
        self.commands = commands
        self.seed = seed
        self.digests = digests
        self.attempted = 0
        self.failures = []
        self.stream_sha = {}  # a stream must repeat byte for byte within a run
        self.setup_s = []
        self.iterations = []
        self.backend = None
        self.deadline = perf_counter() + RUN_LIMIT_S

    def _timeout(self):
        return max(self.deadline - perf_counter(), 1.0)

    def _op(self, label, reason):
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")
            print(f"FAILED {label}: {reason}", file=sys.stderr)

    def setup(self):
        """A warm-up import fills the bytecode cache; the probes are timed."""
        probe = "import qchains, qchains.cli; print(getattr(qchains, 'BACKEND', ''))"
        proc = run_process([sys.executable, "-c", probe], "setup", self._timeout())
        self._op("setup warm-up", f"exit code {proc.code}" if proc.code else None)
        self.backend = proc.out.read_text().strip() or None
        for i in range(SETUP_PROBES):
            proc = run_process([sys.executable, "-c", "import qchains.cli"], "setup",
                               self._timeout())
            self._op(f"setup probe {i}", f"exit code {proc.code}" if proc.code else None)
            self.setup_s.append(proc.wall_s)

    def _command(self, cmd, traced=False):
        label = f"{cmd.name}{'-traced' if traced else ''}"
        proc = run_command(cmd, self.seed, label, traced, self._timeout())
        reason = None
        if cmd.kind != "verify" and cmd.name in self.stream_sha:
            if proc.code != 0:
                reason = f"exit code {proc.code}"
            elif gate.sha256_file(proc.out) != self.stream_sha[cmd.name]:
                reason = "stream differs from its first run with this seed"
        else:
            reason = gate.check(cmd, self.seed, proc.code, proc.out, self.digests)
            if reason is None and cmd.kind != "verify":
                self.stream_sha[cmd.name] = gate.sha256_file(proc.out)
        row = {"name": cmd.name, "traced": traced, "wall_s": proc.wall_s,
               "cpu_s": proc.cpu_s}
        if cmd.kind == "verify" and not reason:
            with open(proc.out) as fh:
                row["cases_s"] = sum(json.loads(line)["elapsed"] for line in fh)
        try:
            stats = json.loads(proc.stats.read_text())
            row["rss_mb"] = stats["peak_rss_kb"] / 1024
            if traced:
                row["trace"] = stats["trace"]
        except (OSError, ValueError, KeyError) as exc:
            reason = reason or f"no process stats: {exc!r}"
        self._op(f"{label} iteration {len(self.iterations)}", reason)
        return row

    def iteration(self, traced):
        t0 = perf_counter()
        rows = [self._command(cmd) for cmd in self.commands]
        if traced:
            rows += [self._command(cmd, traced=True) for cmd in self.commands]
        self.iterations.append({"rows": rows, "elapsed_s": perf_counter() - t0})


def end_to_end_metrics(run):
    """Each command's median over the repetitions, summed over the commands
    (for peak memory, the largest); setup_s is the median import probe."""
    rows = {cmd.name: [] for cmd in run.commands}
    for it in run.iterations:
        for r in it["rows"]:
            if not r["traced"]:
                rows[r["name"]].append(r)

    def med(name, field):
        return median(r.get(field, 0.0) for r in rows[name])

    metrics = {
        "wall_s": sum(med(name, "wall_s") for name in rows),
        "cpu_s": sum(med(name, "cpu_s") for name in rows),
        "peak_rss_mb": max(med(name, "rss_mb") for name in rows),
        "setup_s": median(run.setup_s),
    }
    extra = {}  # printed with the metrics, not part of the result line
    for cmd in run.commands:
        if cmd.count:
            extra[f"samples_per_s.{cmd.name}"] = (cmd.count / med(cmd.name, "wall_s"), "1/s")
        if cmd.kind == "verify":
            extra[f"cases_s.{cmd.name}"] = (med(cmd.name, "cases_s"), "s")
    return metrics, extra


def _merge_traces(rows):
    """Per-layer totals of one repetition, over its traced processes."""
    totals = {}
    for row in rows:
        for layer, entry in row["trace"]["layers"].items():
            t = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "per_draw": []})
            t["calls"] += entry["calls"]
            t["self_s"] += entry["self_s"]
            for name, value in entry["counts"].items():
                keep = max if name.startswith("max_") else sum
                t[name] = keep((t.get(name, 0), value))
            if "first_s" in entry:
                t["first_s"] = t.get("first_s", 0.0) + entry["first_s"]
            if "per_draw_s" in entry:
                t["per_draw"].append(entry["per_draw_s"])
    for t in totals.values():
        if t["per_draw"]:
            t["per_draw_s"] = median(t["per_draw"])
    return totals


def layer_metrics(run):
    merged = [_merge_traces([r for r in it["rows"] if "trace" in r]) for it in run.iterations]
    metrics = {}
    for name in layer_metric_names():
        if name == "trace_overhead_s":
            continue
        layer, field = name.rsplit(".", 1)
        metrics[name] = median(m.get(layer, {}).get(field, 0) for m in merged)

    def overhead(it):
        traced = sum(r["wall_s"] for r in it["rows"] if r["traced"])
        return traced - sum(r["wall_s"] for r in it["rows"] if not r["traced"])

    metrics["trace_overhead_s"] = median(overhead(it) for it in run.iterations)
    traces = [r["trace"] for it in run.iterations for r in it["rows"] if "trace" in r]
    notes = {
        "layers absent from the library": sorted({a for t in traces for a in t["absent"]}),
        "layers whose counters failed": sorted(
            {a for t in traces for a in t["failed_counters"]}
        ),
    }
    return metrics, notes


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qchains" / "cli.py").is_file():
        print(f"error: no qchains sources at {SRC}", file=sys.stderr)
        return 2
    digests = json.loads((BENCH / "digests.json").read_text())
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "loadavg_start": os.getloadavg(),
    }
    run = Run(WORKLOADS[args.workload], args.seed, digests)
    run.setup()
    env["backend"] = run.backend
    t0 = perf_counter()
    while True:
        run.iteration(traced=bool(args.trace))
        # The next repetition starts only if even the slowest one so far
        # would end in time, so a run rarely outlasts --seconds.
        slowest = max(it["elapsed_s"] for it in run.iterations)
        if perf_counter() - t0 + slowest > args.seconds:
            break
    env["loadavg_end"] = os.getloadavg()

    e2e, extra = end_to_end_metrics(run)
    print("environment " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.iterations)} repetitions, medians below")
    if args.trace:
        metrics, notes = layer_metrics(run)
        print("untraced wall_s " + f"{e2e['wall_s']:.4f} s")
        for note, layers in notes.items():
            if layers:
                print(f"{note}: {', '.join(layers)}")
    else:
        metrics = e2e
    shown = {name: (value, metric_unit(name)) for name, value in metrics.items()}
    if not args.trace:
        shown.update(extra)
    for name, (value, unit) in shown.items():
        print(f"  {name} {value:.6g} {unit}")
    failed = len(run.failures)
    print(f"  ops_failed {failed / run.attempted:.6g} share ({failed} of {run.attempted})")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": metric_unit(n)} for n, v in metrics.items()},
    }
    record = {"environment": env, "args": vars(args), "failures": run.failures,
              "setup_s": run.setup_s, "iterations": run.iterations, "result": result}
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"run-{label}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
