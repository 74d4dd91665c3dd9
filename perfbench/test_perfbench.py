"""Self-tests of the benchmark: the gate can fail, the tracer copes with a
changed library, and the metric names match BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys

import gate
import run

DEFAULT = gate.DEFAULT_SEED


def small_stream(name, count=40):
    return run._sample(name, "gl", ("--u", "1/2", "--q", "2"), count)


def run_once(commands, seed, digests, tamper=None):
    """One repetition; tamper(path) may rewrite each output before the gate."""
    bench = run.Run(commands, seed, digests)
    if tamper is not None:
        real = run.run_command

        def tampered(*args, **kwargs):
            proc = real(*args, **kwargs)
            tamper(proc.out)
            return proc

        run.run_command = tampered
    try:
        bench.iteration(traced=False)
    finally:
        if tamper is not None:
            run.run_command = real
    return bench


def rewrite_line(path, index, fn):
    lines = path.read_text().splitlines(keepends=True)
    draw = json.loads(lines[index])
    fn(draw)
    lines[index] = json.dumps(draw, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def test_inject_fault_is_a_failed_operation():
    cmd = run.Command("rr", ("verify", "--suite", "rr", "--inject-fault"), "verify")
    bench = run_once((cmd,), 7, {"rr": "unused"})
    assert (bench.attempted, len(bench.failures)) == (1, 1)
    assert "exit code 1" in bench.failures[0]
    # the reports fail on their own too, whatever the exit code says
    reason = gate.check(cmd, 7, 0, run.WORK / "rr.out", {"rr": "unused"})
    assert reason == "2 of 2 reports did not pass"


def test_verify_reports_must_match_their_digest_except_elapsed():
    cmd = run.Command("rr60", ("verify", "--suite", "rr"), "verify")
    first = run_once((cmd,), 3, {})
    assert "malformed output" in first.failures[0]  # no digest recorded
    digests = {"rr60": gate.verify_digest((run.WORK / "rr60.out").read_text())}
    assert run_once((cmd,), 4, digests).failures == []

    def change_order(path):
        rewrite_line(path, 0, lambda report: report.update(N=59))

    assert "differ from the recorded" in run_once((cmd,), 4, digests, change_order).failures[0]


def test_tampered_stream_line_is_a_failed_operation():
    cmd = small_stream("gl-small")
    assert run_once((cmd,), 5, {}).failures == []

    def wrong_partition(path):
        rewrite_line(path, 3, lambda draw: draw.update(partition=draw["partition"] + [1]))

    bench = run_once((cmd,), 5, {}, wrong_partition)
    assert (bench.attempted, len(bench.failures)) == (1, 1)
    assert "line 4: partition does not match" in bench.failures[0]

    def dropped_line(path):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))

    assert "39 lines, expected 40" in run_once((cmd,), 5, {}, dropped_line).failures[0]


def test_default_seed_stream_must_be_byte_identical():
    cmd = small_stream("gl-small")
    assert run_once((cmd,), DEFAULT, {}).failures == []
    digests = {"gl-small": gate.sha256_file(run.WORK / "gl-small.out")}
    assert run_once((cmd,), DEFAULT, digests).failures == []

    def valid_but_different(path):  # still a valid draw: only the digest sees it
        rewrite_line(path, 0, lambda draw: draw.update(columns=[1], partition=[1]))
        rewrite_line(path, 1, lambda draw: draw.update(columns=[2], partition=[1, 1]))

    bench = run_once((cmd,), DEFAULT, digests, valid_but_different)
    assert "differs from the recorded default-seed stream" in bench.failures[0]


def test_repeated_stream_must_repeat_within_a_run():
    cmd = small_stream("gl-small")
    bench = run.Run((cmd,), 9, {})
    bench.iteration(traced=False)
    real = run.run_command

    def other_seed(c, seed, *rest):
        return real(c, seed + 1, *rest)

    run.run_command = other_seed
    try:
        bench.iteration(traced=False)
    finally:
        run.run_command = real
    assert bench.failures == ["gl-small iteration 1: stream differs from its first run with this seed"]


def test_a_failed_traced_process_is_not_timed_as_untraced():
    cmd = run.Command("rr", ("verify", "--suite", "rr", "--inject-fault"), "verify")
    bench = run.Run((cmd,), 1, {"rr": "unused"})
    bench.setup_s = [0.1]  # set-up is not what this test is about
    bench.iteration(traced=True)
    assert len(bench.failures) == 2
    plain, traced = bench.iterations[0]["rows"]
    assert (plain["traced"], traced["traced"]) == (False, True)
    assert run.end_to_end_metrics(bench)[0]["wall_s"] == plain["wall_s"]


def test_a_process_past_its_time_is_killed():
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    proc = run.run_process(sleeper, "sleeper", timeout=0.5)
    assert proc.code == -9 and proc.wall_s < 10


def _trace_in_child(code):
    """Run code in a fresh interpreter with the library and perfbench importable."""
    env = run._child_env()
    env["PYTHONPATH"] = f"{run.SRC}:{run.BENCH}"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=run.ROOT)
    return json.loads(done.stdout)


def test_traced_run_times_generators_per_item_and_names_parents():
    cmd = small_stream("gl-traced", count=25)
    bench = run.Run((cmd,), 2, {})
    bench.iteration(traced=True)
    assert bench.failures == []
    traced_row = bench.iterations[0]["rows"][1]
    layers = traced_row["trace"]["layers"]
    stream = layers["glchain.sample_stream"]
    assert (stream["calls"], stream["draws"]) == (1, 25)
    assert stream["first_s"] > 0 and stream["per_draw_s"] > 0
    assert stream["parents"] == {"cli.main": 1}
    assert layers["glchain.kernel"]["calls"] > 0  # rebound where glchain holds it
    assert traced_row["trace"]["absent"] == []


def test_missing_target_is_absent_and_private_names_are_refused():
    report = _trace_in_child(
        "import json, tracer\n"
        "t = tracer.Tracer()\n"
        "t.install(tracer.LAYERS + (('qalgebra.gone', 'qchains.qalgebra', 'gone'),))\n"
        "try:\n"
        "    tracer.Tracer().install((('x', 'qchains.qalgebra', '_poch_std_frac'),))\n"
        "    refused = False\n"
        "except ValueError:\n"
        "    refused = True\n"
        "from qchains.qalgebra import QSeries\n"
        "s = QSeries.gen(8)\n"
        "(s * s) + s\n"
        "print(json.dumps({'refused': refused, **t.report()}))\n"
    )
    assert report["refused"]
    assert report["absent"] == ["qalgebra.gone"]
    mul = report["layers"]["qalgebra.QSeries.mul"]
    assert mul["calls"] == 1 and mul["counts"] == {"coeffs": 9, "max_bits": 1}
    assert report["layers"]["qalgebra.QSeries.add"]["calls"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == {name: run.metric_unit(name) for name in run.layer_metric_names()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
