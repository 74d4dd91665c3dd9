"""Exit codes, report shapes, and byte-determinism of the command line."""

import contextlib
import hashlib
import io
import json
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qchains import cli, fristedt, glchain, identities
from qchains.cli import main
from qchains.glchain import ChainSample, diag_rows, kernel
from qchains.fristedt import FristedtParams
from qchains.partitions import MeasureParams, Partition
from qchains.quiver import PartitionTuple


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_verify_rr_passes(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "rr", "--order", "40"])
    assert code == 0
    reports = json_lines(out)
    assert len(reports) == 2
    assert all(r["status"] == "pass" for r in reports)
    assert {(r["k"], r["i"]) for r in reports} == {(2, 2), (2, 1)}
    assert "2/2 checks passed" in err


def test_verify_ag_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "ag", "--k", "5", "--order", "40"])
    assert code == 0
    reports = json_lines(out)
    assert len(reports) == 5
    coverage = {r["i"]: r["coverage"] for r in reports}
    assert coverage[1] == coverage[5] == "probabilistic"
    assert coverage[3] == "series-engine"


def test_verify_inject_fault(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "ag", "--k", "2", "--order", "60", "--inject-fault"],
    )
    assert code == 1
    reports = json_lines(out)
    assert all(r["status"] == "fail" for r in reports)
    assert all("first_mismatch_order" in r for r in reports)


def test_verify_bad_config_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "rr", "--u", "3/2"])
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, ["verify", "--suite", "rr", "--lmax", "5"])
    assert code == 2
    assert "options not used by suite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "rr", "--order", "-5"],
        ["verify", "--suite", "diag", "--lmax", "-3"],
        ["series", "--which", "ag-sum", "--order", "-1"],
        ["sample", "--count", "-3"],
        ["verify", "--suite", "bailey", "--count", "-5"],
        ["verify", "--suite", "rr", "--jobs", "0"],
        ["verify", "--suite", "rr", "--jobs", "-2"],
        ["verify", "--suite", "qbinomial", "--n", "-2"],
        ["verify", "--suite", "ag", "--k", "0"],
        ["series", "--which", "ag-sum", "--k", "0"],
        ["bailey", "--steps", "-1"],
        ["sample", "--seed", "-1"],
        ["verify", "--suite", "bailey", "--seed", "-1"],
        ["verify", "--suite", "rr", "--order", "1001"],
        ["series", "--which", "theta", "--order", "1001"],
        ["sample", "--model", "fristedt", "--q", "91/100", "--count", "1"],
        ["sample", "--model", "fristedt", "--q", "99/100", "--count", "1"],
    ],
    ids=["verify-order", "verify-lmax", "series-order", "sample-count", "bailey-count",
         "jobs-zero", "jobs-negative", "qbinomial-n", "verify-k-zero",
         "series-k-zero", "bailey-steps", "sample-seed", "verify-seed",
         "verify-order-above", "series-order-above", "fristedt-q-above",
         "fristedt-q-near-one"],
)
def test_negative_order_or_lmax_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_fristedt_q_bound_is_checked_before_any_exact_work(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled past the q bound")

    monkeypatch.setattr(cli, "f_sample_stream", unreachable)
    code, out, err = run(capsys, ["sample", "--model", "fristedt", "--q", "99/100"])
    assert (code, out) == (2, "")
    assert err == "error: --q must be <= 9/10 for --model fristedt\n"


def test_fristedt_q_bound_is_inclusive(capsys):
    # --count 0 draws nothing, so no sampler is built
    code, out, _ = run(capsys, ["sample", "--model", "fristedt", "--q", "9/10",
                                "--count", "0"])
    assert (code, out) == (0, "")


def test_order_at_the_bound_runs(capsys):
    bound = cli._INT_FLAG_MAX["order"]
    assert bound >= 1000  # the series-deep benchmark runs rr at order 1000
    code, out, _ = run(capsys, ["series", "--which", "theta", "--order", str(bound)])
    assert code == 0
    assert json_lines(out)[0]["order"] == bound


# flags that each command registered but never read, before each command
# registered only the flags that it reads; `verify --size-cap` was read only
# into the quiver report
_UNREAD = [
    ("verify", "--eps"),
    ("verify", "--size-cap"),
    *[("sample", f) for f in ("--order", "--lmax")],
    *[("power", f) for f in ("--order", "--lmax", "--eps", "--seed")],
    *[(c, f) for c in ("kernel", "bailey") for f in ("--order", "--eps", "--seed")],
    *[("series", f) for f in ("--u", "--q", "--lmax", "--eps", "--seed")],
]
_REQUIRED_ARGS = {
    "verify": ["--suite", "rr"],
    "power": ["--L", "3", "--j", "0", "--r", "1"],
    "series": ["--which", "theta"],
}


@pytest.mark.parametrize(
    "command, flag", _UNREAD, ids=[f"{c}-{f[2:]}" for c, f in _UNREAD]
)
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED_ARGS.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# a flag the command registers for one of its models, given with another;
# the error names the options as typed
_MODEL_UNREAD = [
    (["kernel", "--model", "fristedt", "--q", "1/2", "--u", "junk"], "fristedt", "--u"),
    (["power", "--model", "fristedt", "--q", "1/2", "--u", "1/2",
      "--L", "3", "--j", "0", "--r", "1"], "fristedt", "--u"),
    (["sample", "--model", "quiver", "--quiver", "perfbench/a2.json", "--q", "1/0",
      "--u", "junk"], "quiver", "--q, --u"),
    (["sample", "--model", "gl", "--quiver", "/nonexistent.json", "--size-cap", "3"],
     "gl", "--quiver, --size-cap"),
    (["sample", "--model", "fristedt", "--q", "1/2", "--size-cap", "20"],
     "fristedt", "--size-cap"),
]


@pytest.mark.parametrize(
    "argv, model, extra", _MODEL_UNREAD,
    ids=["kernel-u", "power-u", "sample-quiver-uq", "sample-gl-quiver",
         "sample-fristedt-size-cap"],
)
def test_flag_the_model_does_not_read_exits_2(capsys, argv, model, extra):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: options not used by model {model!r}: {extra}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sample", "--model", "gl", "--quiver", "/nonexistent.json",
          "--size-cap", "3"],
         "error: options not used by model 'gl': --quiver, --size-cap\n"),
        (["sample", "--model", "gl", "--eps", "1/2"],
         "error: options not used by model 'gl': --eps\n"),
        (["verify", "--suite", "rr", "--lmax", "3"],
         "error: options not used by suite 'rr': --lmax\n"),
    ],
    ids=["sample", "sample-gl-eps", "verify"],
)
def test_unread_options_are_named_as_typed(capsys, argv, err):
    assert run(capsys, argv) == (2, "", err)


def test_fristedt_default_q_is_still_rejected(capsys):
    # the default q of 2 lies outside the Fristedt chain's (0, 1), as before
    code, out, err = run(capsys, ["power", "--model", "fristedt",
                                  "--L", "3", "--j", "0", "--r", "1"])
    assert (code, out) == (2, "")
    assert err == "error: q must satisfy 0 < q < 1\n"


def test_bailey_alpha_and_lmax_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bailey", "--alpha", "1,1/2", "--lmax", "7"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --alpha" in captured.err
    code, out, _ = run(capsys, ["bailey", "--alpha", "1,1/2"])
    assert code == 0
    assert json_lines(out)[0]["l_max"] == 1


def test_power_checks_report_the_first_mismatch(monkeypatch):
    def off_at(closed):
        def wrong(ll, j, r, p):
            return closed(ll, j, r, p) + ((ll, j, r) in {(2, 1, 1), (5, 3, 4)})

        return wrong

    monkeypatch.setattr(cli, "kr_closed", off_at(cli.kr_closed))
    report = cli._case_power_battery("1/2", "2", 6, 4)
    assert report["status"] == "fail"
    assert report["first_mismatch"] == (2, 1, 1)

    monkeypatch.setattr(cli, "f_kr_closed", off_at(cli.f_kr_closed))
    report = cli._case_fristedt("1/2", 6, 4, 0)
    assert report["failures"] == ["power(2,1,1)", "power(5,3,4)"]


def test_diag_case_checks_k_against_the_entry_formula(monkeypatch):
    """The diag and fristedt cases each check K = C M C^-1 against their
    chain's kernel entry."""
    def off_at_one(entry):
        return lambda a, b, p: entry(a, b, p) + ((a, b) == (4, 2))

    monkeypatch.setattr(cli, "kernel", off_at_one(cli.kernel))
    report = cli._case_diag("1/2", "2", 6)
    assert report["status"] == "fail"
    assert report["failures"] == ["K=CMC^-1"]

    assert cli._case_fristedt("1/2", 6, 4, 0)["status"] == "pass"
    monkeypatch.setattr(cli, "f_kernel", off_at_one(cli.f_kernel))
    report = cli._case_fristedt("1/2", 6, 4, 0)
    assert report["status"] == "fail"
    assert report["failures"] == ["K=CMC^-1"]


def _rows_one_entry_off(rows_of, slot):
    """rows_of, a model's diagonalization rows, with one entry of row 3 off
    by one: entry (3, 1) of A^-1 at slot 2, the diagonal entry at slot 4."""
    def rows(l_max, p):
        for i, row in enumerate(rows_of(l_max, p)):
            if i == 3:
                row = list(row)
                if slot == 4:
                    row[4] += 1
                else:
                    nums, den = row[slot]
                    row[slot] = (nums[:1] + (nums[1] + den,) + nums[2:], den)
            yield tuple(row)

    return rows


@pytest.mark.parametrize(
    "slot, gl_label, fristedt_label",
    [(2, "A*Ainv", "A*Ainv"), (4, "M*A=A*E", "M*A=A*D")],
    ids=["a-inverse-entry", "eigenvalue"],
)
def test_eigen_checks_see_a_wrong_row_entry(monkeypatch, slot, gl_label, fristedt_label):
    monkeypatch.setattr(cli, "diag_rows", _rows_one_entry_off(cli.diag_rows, slot))
    report = cli._case_diag("1/2", "2", 6)
    assert (report["status"], report["failures"]) == ("fail", [gl_label])
    monkeypatch.setattr(cli, "f_diag_rows", _rows_one_entry_off(cli.f_diag_rows, slot))
    report = cli._case_fristedt("1/2", 6, 4, 0)
    assert (report["status"], report["failures"]) == ("fail", [fristedt_label])


def test_diag_case_holds_one_triangular_matrix():
    """The diag case reads the diagonalization row by row and keeps only A:
    holding M, A, A^-1, E and three products peaked at 1.1 MB here."""
    tracemalloc.start()
    try:
        report = cli._case_diag("2/5", "5/2", 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "pass"
    assert peak < 600_000


def test_qbinomial_at_q_zero(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "qbinomial", "--q", "0",
                                  "--n", "4"])
    assert code == 0
    reports = json_lines(out)
    assert [r["n"] for r in reports] == [0, 1, 2, 3, 4]
    assert all(r["status"] == "pass" for r in reports)
    assert "5/5 checks passed" in err


def test_qbinomial_n_at_the_bound_runs(capsys):
    bound = cli._INT_FLAG_MAX["n"]
    code, out, err = run(capsys, ["verify", "--suite", "qbinomial", "--q", "0",
                                  "--n", str(bound)])
    assert code == 0
    assert [r["n"] for r in json_lines(out)] == list(range(bound + 1))
    assert f"{bound + 1}/{bound + 1} checks passed" in err


def test_quiver_case_checks_the_chain_measure(monkeypatch):
    weight = cli.tuple_weight

    def off_on_one(t, g, p):
        return weight(t, g, p) + (t.to_json() == [[2], [1]])

    monkeypatch.setattr(cli, "tuple_weight", off_on_one)
    report = cli._case_quiver("a2")
    assert report["status"] == "fail"
    assert report["failures"] == ["chain-measure[[2], [1]]"]


def test_quiver_case_checks_row_sums_exactly(monkeypatch):
    kernel_entry = cli.quiver_kernel

    def shifted(a, b, g, p):
        off = Fraction(1, 10**9) if (a, b) == ((1, 1), (0, 1)) else 0
        return kernel_entry(a, b, g, p) + off

    monkeypatch.setattr(cli, "quiver_kernel", shifted)
    report = cli._case_quiver("a2")
    assert report["status"] == "fail"
    assert report["failures"] == ["rowsum(1, 1)"]


def test_verify_order_zero_is_not_the_default(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "rr", "--order", "0"])
    assert code == 0
    assert {r["N"] for r in json_lines(out)} == {0}
    code, out, _ = run(capsys, ["verify", "--suite", "qbinomial", "--n", "0"])
    assert code == 0
    assert {r["n"] for r in json_lines(out)} == {0}


def test_unexpected_exception_exits_2_without_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_series", broken)
    code, out, err = run(capsys, ["series", "--which", "theta"])
    assert code == 2
    assert out == ""
    assert err == "error: RuntimeError: boom\n"


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_jobs_pool(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "rr", "--order", "30", "--jobs", "2"]
    )
    assert code == 0
    assert len(json_lines(out)) == 2


def test_sample_gl_deterministic(capsys):
    argv = ["sample", "--model", "gl", "--u", "1/2", "--q", "2",
            "--count", "5", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    lines = json_lines(out1)
    assert len(lines) == 5
    for line in lines:
        assert line["model"] == "gl"
        parts = line["partition"]
        assert parts == sorted(parts, reverse=True)


def test_sample_fristedt(capsys):
    code, out, _ = run(
        capsys,
        ["sample", "--model", "fristedt", "--q", "1/2", "--count", "3", "--seed", "1"],
    )
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 3
    assert all(line["model"] == "fristedt" for line in lines)


def test_sample_quiver_roundtrip(tmp_path, capsys):
    path = tmp_path / "a2.json"
    path.write_text(
        json.dumps({"n": 2, "edges": [[1, 2, 1]], "U": ["1/4", "1/4"], "q": "2"})
    )
    argv = ["sample", "--model", "quiver", "--quiver", str(path),
            "--count", "4", "--seed", "3", "--size-cap", "14"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 4
    assert all(len(line["partitions"]) == 2 for line in lines)
    code2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_sample_quiver_divergent_mass_exits_2(tmp_path, capsys):
    path = tmp_path / "loop2.json"
    path.write_text(json.dumps({"n": 1, "edges": [[1, 1, 2]], "U": ["1/2"], "q": "2"}))
    code, out, err = run(
        capsys, ["sample", "--model", "quiver", "--quiver", str(path), "--count", "3"]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "a = (1,)" in err


_QUIVERS = {
    "jordan": {"n": 1, "edges": [[1, 1, 1]], "U": ["1/4"], "q": "2"},
    "a3": {"n": 3, "edges": [[1, 2, 1], [2, 3, 1]], "U": ["1/4", "1/4", "1/4"], "q": "2"},
    # M(a, a) = q^(2 a^2) U^a is 18/5 at a = 1
    "divergent": {"n": 1, "edges": [[1, 1, 3]], "U": ["9/10"], "q": "2"},
}


def _quiver_sample(tmp_path, capsys, name, *flags):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_QUIVERS[name]))
    return run(capsys, ["sample", "--model", "quiver", "--quiver", str(path), *flags])


@pytest.mark.parametrize(
    "name, count, digest",
    [("jordan", 300, "0f4bc06dee7aea45ccc029d03c721721b808a52dbc581a7accba95025dc47e85"),
     ("a3", 100, "2fa40216b3ca369916be72638f61aee05261d1f2a29afb48598aa1b0059a2db3")],
)
def test_quiver_streams_pinned(tmp_path, capsys, name, count, digest):
    """sha256 of the stream at --size-cap 24 and seed 0: draw i has its own
    Random(i), and each row's cut points are those of the kernel row."""
    code, out, _ = _quiver_sample(tmp_path, capsys, name, "--size-cap", "24",
                                  "--count", str(count))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_quiver_stream_checks_the_masses_at_its_first_draw(tmp_path, capsys):
    """No draw builds no sampler, so a divergent quiver exits 0 at --count 0;
    the first draw builds it and meets the divergent mass."""
    assert _quiver_sample(tmp_path, capsys, "divergent", "--count", "0") == (0, "", "")
    code, out, err = _quiver_sample(tmp_path, capsys, "divergent", "--count", "1")
    assert (code, out) == (2, "")
    assert err == "error: M(a, a) = 18/5 >= 1 at a = (1,): P(a) diverges\n"


def test_sample_quiver_bad_file_exits_2(capsys):
    code, _, err = run(
        capsys, ["sample", "--model", "quiver", "--quiver", "/nonexistent.json"]
    )
    assert code == 2
    assert "bad quiver file" in err


_A2 = {"n": 2, "edges": [[1, 2, 1]], "U": ["1/4", "1/4"], "q": "2"}


@pytest.mark.parametrize(
    "data",
    [
        {**_A2, "U": [0.1, "1/4"]},
        {**_A2, "q": 2.0},
        {**_A2, "n": 2.7},
        {**_A2, "n": True},
        {**_A2, "edges": [[1, 2, 1.9]]},
        {**_A2, "edges": [[1, 2, True]]},
        {**_A2, "edges": [[1, 2]]},
        {**_A2, "edges": 5},
        {**_A2, "U": "1/4"},
        {**_A2, "U": ["1/4", None]},
        {**_A2, "q": "1/0"},
        {**_A2, "q": "junk"},
        [_A2],
        "A2",
    ],
    ids=["float-U", "float-q", "float-n", "bool-n", "float-multiplicity",
         "bool-multiplicity", "pair-edge", "int-edges", "string-U", "null-U",
         "zero-denominator-q", "junk-q", "list-top-level", "string-top-level"],
)
def test_sample_quiver_malformed_file_exits_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["sample", "--model", "quiver", "--quiver", str(path),
                                  "--count", "1", "--size-cap", "8"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad quiver file: ") and err.count("\n") == 1


def test_sample_quiver_requires_file(capsys):
    code, _, err = run(capsys, ["sample", "--model", "quiver"])
    assert code == 2


def test_power_trivial_and_exact(capsys):
    code, out, _ = run(capsys, ["power", "--L", "0", "--j", "0", "--r", "5"])
    assert code == 0
    rep = json_lines(out)[0]
    assert rep["closed_form"] == rep["matrix_power"] == "1"
    assert rep["equal"] is True

    code, out, _ = run(
        capsys,
        ["power", "--L", "10", "--j", "0", "--r", "3", "--u", "1/2", "--q", "2"],
    )
    assert code == 0
    rep = json_lines(out)[0]
    assert rep["equal"] is True
    assert "/" in rep["closed_form"]


def test_power_fristedt(capsys):
    code, out, _ = run(
        capsys,
        ["power", "--model", "fristedt", "--L", "10", "--j", "2", "--r", "4",
         "--q", "1/3"],
    )
    assert code == 0
    assert json_lines(out)[0]["equal"] is True


def test_power_invalid_indices(capsys):
    code, _, err = run(capsys, ["power", "--L", "2", "--j", "5", "--r", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["power", "--model", "gl", "--j", "0", "--r", "1", "--L"], "L"),
        (["power", "--model", "fristedt", "--j", "0", "--r", "1", "--L"], "L"),
        (["kernel", "--lmax"], "lmax"),
        (["bailey", "--lmax"], "lmax"),
        (["verify", "--suite", "diag", "--lmax"], "lmax"),
        (["power", "--model", "gl", "--L", "3", "--j", "0", "--r"], "r"),
        (["sample", "--model", "quiver", "--size-cap"], "size_cap"),
        (["bailey", "--steps"], "steps"),
        (["verify", "--suite", "qbinomial", "--n"], "n"),
    ],
    ids=["gl", "fristedt", "kernel", "bailey", "verify-diag", "power-r",
         "sample-size-cap", "bailey-steps", "verify-qbinomial-n"],
)
def test_power_l_above_the_bound_exits_2_at_once(capsys, monkeypatch, argv, flag):
    def unreachable(*args):
        raise AssertionError("built a matrix past the size bound")

    for name in ("kernel_rows", "f_kernel_rows", "kr_closed", "f_kr_closed",
                 "diag_rows", "f_diag_rows", "unit_bailey_pair", "load_quiver",
                 "quiver_sample_stream", "q_binomial_check"):
        monkeypatch.setattr(cli, name, unreachable)
    bound = cli._INT_FLAG_MAX[flag]
    code, out, err = run(capsys, argv + [str(bound + 1)])
    assert code == 2
    assert out == ""
    assert err == f"error: --{flag.replace('_', '-')} must be <= {bound}\n"


def test_verify_jobs_above_the_bound_exits_2_before_any_worker(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("started a pool past the jobs bound")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", unreachable)
    monkeypatch.setattr(cli, "run_case", unreachable)
    bound = cli._INT_FLAG_MAX["jobs"]
    code, out, err = run(capsys, ["verify", "--suite", "qbinomial", "--n", "100",
                                  "--jobs", str(bound + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: --jobs must be <= {bound}\n"


def _without_elapsed(out):
    return [{k: v for k, v in r.items() if k != "elapsed"} for r in json_lines(out)]


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["verify", "--suite", "qbinomial", "--q", "-3/4", "--n", "12"],
         ["verify", "--suite", "qbinomial", "--q=-3/4", "--n", "12"]),
        (["bailey", "--alpha", "-1,2"], ["bailey", "--alpha=-1,2"]),
    ],
    ids=["qbinomial-q", "bailey-alpha"],
)
def test_negative_rational_values_parse_like_their_equals_form(capsys, spaced, joined):
    code, out, _ = run(capsys, spaced)
    joined_code, joined_out, _ = run(capsys, joined)
    assert code == joined_code == 0
    assert _without_elapsed(out) == _without_elapsed(joined_out) != []


def test_negative_u_reaches_the_model_check(capsys):
    code, out, err = run(capsys, ["power", "--L", "3", "--j", "0", "--r", "2",
                                  "--u", "-1/2"])
    assert (code, out) == (2, "")
    assert err == "error: u must satisfy 0 < u <= 1\n"


def test_bailey_alpha_longer_than_the_lmax_bound_exits_2_at_once(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("built a pair past the size bound")

    monkeypatch.setattr(cli, "bailey_pair_from_alpha", unreachable)
    monkeypatch.setattr(identities, "diag_rows", unreachable)
    most = cli._INT_FLAG_MAX["lmax"] + 1
    code, out, err = run(capsys, ["bailey", "--alpha", ",".join(["1"] * (most + 1))])
    assert (code, out) == (2, "")
    assert err == f"error: --alpha must have at most {most} values\n"


def test_bailey_alpha_at_the_lmax_bound_runs(capsys, monkeypatch):
    monkeypatch.setitem(cli._INT_FLAG_MAX, "lmax", 2)
    code, out, _ = run(capsys, ["bailey", "--alpha", "1,1/2,-3", "--steps", "0"])
    assert code == 0
    assert json_lines(out)[0]["l_max"] == 2
    code, out, err = run(capsys, ["bailey", "--alpha", "1,1/2,-3,4"])
    assert (code, out) == (2, "")
    assert err == "error: --alpha must have at most 3 values\n"


def test_series_r_is_not_bounded_as_power_r(capsys):
    r = cli._INT_FLAG_MAX["r"] + 1
    code, out, _ = run(
        capsys, ["series", "--which", "absorption", "--r", str(r), "--order", "4"]
    )
    assert code == 0
    assert json_lines(out)[0]["order"] == 4


# stdout of `power`, pinned to the bytes the matrix-power route printed when
# it raised the whole kernel matrix to the r-th power
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--model", "gl", "--L", "12", "--j", "3", "--r", "5", "--u", "1/2",
          "--q", "2"],
         "e998da93cca44f8a8830e949b0b5cb863c8e7405d75c228c78945f061ef3d5cf"),
        (["--model", "gl", "--L", "20", "--j", "0", "--r", "8", "--u", "1/3",
          "--q", "3"],
         "e0ec047c2ec6ee23d462ceec989a465e18480b1740c62ecde95e6c8e2ff3391f"),
        (["--model", "gl", "--L", "9", "--j", "9", "--r", "2", "--u", "1",
          "--q", "2"],
         "9e8cac569ce1233f0cd5e5dc2cbbd689489227856393cffb9d09adc4d23e2cd5"),
        (["--model", "fristedt", "--L", "15", "--j", "4", "--r", "6", "--q", "1/2"],
         "1491eb6649114bf5ce2a011c2a1afb00c64b9d7437c70cce8f7b3c82e86cee2f"),
        (["--model", "fristedt", "--L", "25", "--j", "0", "--r", "3", "--q", "2/5"],
         "806d712d3f7e2bac1841bd0ccf76141614ad213af3669c23cc40fb3609083b6f"),
    ],
    ids=["gl-12-3-5", "gl-20-0-8", "gl-u1-9-9-2", "fristedt-15-4-6",
         "fristedt-25-0-3"],
)
def test_power_output_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, ["power"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, and the exit code, of the dumps and reports that the
# command-line refactor touched; a verify report is hashed without "elapsed"
_PINNED = [
    *[(["kernel", "--model", "gl", "--matrix", m], 0, d) for m, d in [
        ("K", "f05b0aead533224d476b486b7970ba5ad55b413feb19d585158d23540875de98"),
        ("C", "bbbc20005216ceea19966d29162596c5bf4289ee6cfaaaa9d7b63cb8c59040cf"),
        ("M", "71c33da322f7f5b88a71bc30d4ee93bccf21366ec919dad57ff576fed0e89eee"),
        ("A", "4146ad7b97e95ff888b5f517f78c6804916367d2bb0bb39d2e0577650180fa01"),
        ("Ainv", "fdbaf2ae0a5747f80bab3cf2a82a54c2bf8f40d3add17ca13a6335a7ade7eb69"),
        ("E", "88a433a41862ea85d67609ee0e77243eab50d48f276e04577e2b29845ee97db2"),
    ]],
    *[(["kernel", "--model", "fristedt", "--q", "2/5", "--matrix", m], 0, d)
      for m, d in [
        ("K", "b965a9b8285b8a59b6a5b5246ee3c1dbb0462d1708276cfcc0b5b6cca4dd39cf"),
        ("C", "dbd915ca97d4f1f05613182b3634c65bae977c3324d1fb995f73cd5ef39742ab"),
        ("M", "2f34af6d63f48f19e1fc58040330f3b0e2c497b44fb223b0d1ded35770a60a07"),
        ("A", "a33ff28944b3495cf558bea86b030d4683bd5f506dba013e598dd358ce3bf62b"),
        ("Ainv", "45638d687c0b03be99acd822b595d926ad2dec95cbc315625ecf1065647543bd"),
        ("E", "23bd43343eb5528e956d413aa3bc6e82acb0d0a74de9b3090dc73fe26bb2c67d"),
    ]],
    (["bailey", "--steps", "2"], 0,
     "6d6a45baa14e68565f47ff9902190157637ffffdc6b91f5b9a8277486a361cf2"),
    (["bailey", "--alpha", "1,1/2,-3", "--steps", "2"], 0,
     "67888fe19adc43ba49f19325bb889af3907d7494ae338db3491dee9e501d27f7"),
    *[(["series", "--which", w], 0, d) for w, d in [
        ("ag-sum", "d6e85b28ba900cfd203689fdad10f24fe66982e6dc8e973c26cfb3976de7233e"),
        ("ag-product",
         "d6e85b28ba900cfd203689fdad10f24fe66982e6dc8e973c26cfb3976de7233e"),
        ("absorption",
         "ca962b4138c6fd49fa74b0498d9ab845fb57a85a75472cc50db470951791d823"),
        ("theta", "68576073595c765fe42dc58d41879191f2ef41b625d82a71b526d379f47d6aaf"),
        ("jacobi", "68576073595c765fe42dc58d41879191f2ef41b625d82a71b526d379f47d6aaf"),
    ]],
    (["kernel", "--lmax", "3", "--format", "text"], 0,
     "929388dd40fd8f8120f7623d8678f135d5bf93998ff2f38aa597bb48c192047f"),
    (["verify", "--suite", "diag", "--u", "2/4"], 0,
     "4a746b53ba085ddeecf48b8c0a18befb2f9da7b992052be4d1f0e03b4d00a3a9"),
    (["verify", "--suite", "qbinomial", "--q", "2/6"], 0,
     "6f7943d33c72d449e7ca1f933e7d816e2336e8bd35b45e37e7b825cf36567225"),
    (["verify", "--suite", "fristedt", "--q", "1/3"], 0,
     "30ec2ca3f8abc2f0a8bb13e6a4adcbde155610484e0a92e36d9cf7193186f615"),
    (["verify", "--suite", "all", "--q", "1/2"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv, code, digest",
    _PINNED,
    ids=["-".join(word.lstrip("-") for word in argv) for argv, _, _ in _PINNED],
)
def test_cli_outputs_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, argv)
    assert got == code
    if argv[0] == "verify":
        reports = json_lines(out)
        for report in reports:
            del report["elapsed"]
        out = "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kernel_prints_entries_of_any_length(capsys):
    q = "1" + "0" * 50
    code, out, _ = run(capsys, ["kernel", "--q", q, "--u", "1/2", "--lmax", "10"])
    assert code == 0
    p = MeasureParams(u=Fraction(1, 2), q=Fraction(q))
    entries = [Fraction(e) for e in json_lines(out)[0]["entries"]]
    assert entries == [kernel(i, j, p) for i in range(11) for j in range(11)]


def test_kernel_dump_shape(capsys):
    code, out, _ = run(
        capsys, ["kernel", "--model", "gl", "--u", "1/2", "--q", "2", "--lmax", "3"]
    )
    assert code == 0
    rep = json_lines(out)[0]
    assert rep["size"] == 4
    assert rep["params"] == {"u": "1/2", "q": "2"}
    assert len(rep["entries"]) == 16
    assert rep["entries"][0] == "1"
    # row-major entries parse back to exact rationals
    from fractions import Fraction

    rows = [rep["entries"][i * 4 : (i + 1) * 4] for i in range(4)]
    for i, row in enumerate(rows):
        assert sum(Fraction(e) for e in row) == 1, i


def test_kernel_dump_diagonal_matrix(capsys):
    code, out, _ = run(
        capsys,
        ["kernel", "--model", "fristedt", "--q", "1/2", "--lmax", "2",
         "--matrix", "E"],
    )
    assert code == 0
    rep = json_lines(out)[0]
    assert rep["name"] == "E"
    assert rep["entries"] == ["1", "0", "0", "0", "1/2", "0", "0", "0", "1/4"]


def test_bailey_iteration(capsys):
    code, out, _ = run(
        capsys, ["bailey", "--steps", "3", "--lmax", "6", "--u", "1/2", "--q", "2"]
    )
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 4
    assert all(line["valid"] for line in lines)
    assert lines[0]["beta"] == ["1", "0", "0", "0", "0", "0", "0"]


def _one_entry_wrong(name):
    """The Bailey pairs' diagonalization rows with matrix `name` ("m" or
    "a") off by one at entry (3, 0)."""
    slot = "ma".index(name)  # its place in a diag_rows row

    def diagonalization(p, l_max):
        rows = [list(row) for row in diag_rows(l_max, p)]
        nums, den = rows[3][slot]
        rows[3][slot] = ((nums[0] + den,) + nums[1:], den)
        return tuple(map(tuple, rows))

    return diagonalization


@pytest.mark.parametrize(
    "name, labels",
    [("a", {"unit:pair", "random0:step", "random0:relation"}),
     ("m", {"unit:step", "unit:relation", "random0:step", "random0:relation"})],
)
def test_bailey_checks_see_a_wrong_matrix_entry(capsys, monkeypatch, name, labels):
    monkeypatch.setattr(identities, "_diagonalization", _one_entry_wrong(name))
    code, out, _ = run(capsys, ["verify", "--suite", "bailey", "--lmax", "6"])
    assert code == 1
    (report,) = json_lines(out)
    assert report["status"] == "fail"
    # the step check and the matrix-free relation each report
    assert labels <= set(report["failures"])
    code, out, _ = run(capsys, ["bailey", "--steps", "1", "--lmax", "6"])
    assert code == 1
    assert json_lines(out)[-1]["valid"] is False


def test_bailey_custom_alpha(capsys):
    code, out, _ = run(
        capsys,
        ["bailey", "--steps", "1", "--alpha", "1,1/2,-3", "--u", "1/2", "--q", "2"],
    )
    assert code == 0
    lines = json_lines(out)
    assert lines[0]["alpha"] == ["1", "1/2", "-3"]
    assert all(line["valid"] for line in lines)


def test_series_outputs(capsys):
    code, out, _ = run(
        capsys, ["series", "--which", "ag-sum", "--k", "2", "--i", "2",
                 "--order", "8"]
    )
    assert code == 0
    rep = json_lines(out)[0]
    assert rep["coeffs"] == ["1", "1", "1", "1", "2", "2", "3", "3", "4"]

    code, out, _ = run(
        capsys, ["series", "--which", "absorption", "--r", "2", "--delta", "0",
                 "--order", "11"]
    )
    rep = json_lines(out)[0]
    assert rep["coeffs"] == ["1", "0", "-1", "-1", "0", "0", "0", "0", "0", "1",
                             "0", "1"]

    code, out, _ = run(capsys, ["series", "--which", "theta", "--A", "5",
                                "--B", "1", "--order", "6"])
    rep = json_lines(out)[0]
    assert rep["var"] == "y"
    assert rep["coeffs"] == ["1", "0", "0", "0", "-1", "0", "-1"]

    argv = ["series", "--which", "jacobi", "--v", "1", "--w", "5", "--order", "6"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    assert json_lines(out1)[0]["coeffs"] == rep["coeffs"]


def test_text_mode(capsys):
    code, out, _ = run(
        capsys,
        ["power", "--L", "2", "--j", "1", "--r", "2", "--format", "text"],
    )
    assert code == 0
    assert "equal=True" in out


# sha256 of stdout at --seed 0; a verify report is hashed without "elapsed"
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sample", "--model", "gl", "--u", "1/2", "--q", "2", "--count", "2000"],
         "b7651e9c110a1610a0f72c07c65e821124e9800209cf3de2c419439feb4c93f5"),
        (["sample", "--model", "fristedt", "--q", "1/2", "--count", "2000"],
         "81c00817fc1f9410859bad9e84338edbb5034b003df27f4e1e8c82c4b620d6e0"),
        (["sample", "--model", "fristedt", "--q", "4/5", "--count", "200"],
         "dd770e6979297edb67e5f9d9578ded54c4eac6f4500ad39405d021a9bd5c54ea"),
        (["verify", "--suite", "all", "--jobs", "2"],
         "7743ae7bd3fb1b4af9f7096e18357a91121350d3d4497792aac8226079dea61d"),
        (["sample", "--model", "gl", "--u", "1/2", "--q", "2", "--count", "2000",
          "--format", "text"],
         "5195bf63b474956a32d2161a7bab0c3e6b2db865ca7a78872dbde8042a1a7997"),
        (["sample", "--model", "fristedt", "--q", "4/5", "--count", "200",
          "--format", "text"],
         "21f58fddd80cdf322f66781c87cc02df030a8924cd999037370e8d253da5159c"),
        (["sample", "--model", "quiver", "--quiver", "perfbench/a2.json",
          "--count", "100", "--format", "text"],
         "aacb0cf55d25e2a20862f90de2d1a08886ff89fd8042d0c686968dfb67d26d3d"),
    ],
    ids=["gl", "fristedt", "fristedt-large", "verify-all", "gl-text",
         "fristedt-large-text", "quiver-text"],
)
def test_seed_zero_outputs_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv + ["--seed", "0"])
    assert code == 0
    if argv[0] == "verify":
        reports = json_lines(out)
        for report in reports:
            del report["elapsed"]
        out = "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_PARTS = st.lists(st.integers(1, 30), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    columns=_PARTS,
    partition=_PARTS,
    model=st.sampled_from(["gl", "fristedt", 'a "b"']),
    mode=st.sampled_from(["json", "text"]),
)
def test_sample_line_is_the_emitted_line(seed, columns, partition, model, mode):
    s = ChainSample(seed, columns.parts, partition)
    (line,) = cli._sample_lines([s], model, mode)
    if mode == "json":
        assert line == json.dumps(s.to_json(model), sort_keys=True) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(s.to_json(model), mode)
    assert line == out.getvalue()


_STREAMS = [
    ("gl", MeasureParams(u=Fraction(1, 2), q=Fraction(2)), 2000),
    ("fristedt", FristedtParams(q=Fraction(1, 2)), 2000),
    ("fristedt", FristedtParams(q=Fraction(4, 5)), 300),
]


def _stream(model, p, seed, count):
    stream = glchain.sample_stream if model == "gl" else fristedt.f_sample_stream
    return stream(p, seed, count)


def _oracle_lines(model, p, seed, count, mode):
    """One seed's lines built draw by draw with no memo: each path straight
    from the chain, its partition through the checking Partition(), and the
    line as _emit formats it."""
    chain = (glchain._sampler if model == "gl" else fristedt._sampler)(p)
    rng = random.Random(seed)
    for _ in range(count):
        path = chain.path(rng)
        lam = Partition(path).conjugate() if model == "gl" else Partition(path)
        yield cli._line(ChainSample(seed, path, lam).to_json(model), mode) + "\n"


@pytest.mark.parametrize("cap", [None, 1], ids=["cap-default", "cap-1"])
@pytest.mark.parametrize("mode", ["json", "text"])
@pytest.mark.parametrize("model, p, count", _STREAMS,
                         ids=["gl", "fristedt", "fristedt-large"])
def test_streams_equal_a_memo_free_oracle(monkeypatch, model, p, count, mode, cap):
    if cap is not None:
        monkeypatch.setattr(glchain, "_STREAM_MEMO", cap)
    for seed in range(4):
        lines = cli._sample_lines(_stream(model, p, seed, count), model, mode)
        assert "".join(lines) == "".join(_oracle_lines(model, p, seed, count, mode)), seed


def _reused_paths(samples, items):
    """The paths whose every later draw yields the very object (sample or
    line) of the path's first draw."""
    first, reused, fresh = {}, set(), set()
    for s, item in zip(samples, items):
        if s.columns not in first:
            first[s.columns] = item
        elif item is first[s.columns]:
            reused.add(s.columns)
        else:
            fresh.add(s.columns)
    assert not reused & fresh  # a path is either kept or never kept
    return reused


@pytest.mark.parametrize("cap", [1, 4])
@pytest.mark.parametrize("model, p, count", _STREAMS[:2], ids=["gl", "fristedt"])
def test_memos_never_exceed_their_caps(monkeypatch, model, p, count, cap):
    """Each memo keeps the first cap distinct paths of a stream, and only
    those: every later path is built anew at each draw."""
    monkeypatch.setattr(glchain, "_STREAM_MEMO", cap)
    samples = list(_stream(model, p, 0, count))
    lines = list(cli._sample_lines(samples, model, "json"))
    draws = Counter(s.columns for s in samples)
    paths = list(draws)  # in the order of their first draw
    assert len(paths) > cap
    kept = {path for path in paths[:cap] if draws[path] > 1}
    assert kept or cap == 1  # at cap 4 some kept path recurs
    for items in (samples, lines):
        assert _reused_paths(samples, items) == kept


def test_line_memo_starts_again_for_another_seed():
    """Lines are kept per seed: the same path under another seed gets its
    own line."""
    lam = Partition([2, 1])
    samples = [ChainSample(seed, (2, 1), lam) for seed in (0, 0, 1, 1, 0)]
    lines = list(cli._sample_lines(samples, "fristedt", "text"))
    assert [line.endswith(f"seed={s.seed}\n") for line, s in zip(lines, samples)] == [
        True] * 5


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    comps=st.lists(_PARTS, min_size=1, max_size=4),
    mode=st.sampled_from(["json", "text"]),
)
def test_quiver_line_is_the_emitted_line(seed, comps, mode):
    t = PartitionTuple(tuple(comps))
    (line,) = cli._sample_lines([ChainSample(seed, (), t)], "quiver", mode)
    report = {"model": "quiver", "seed": seed, "partitions": t.to_json()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, mode)
    assert line == out.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(["0", "1", "-1/2", "123/4567"]),
                           max_size=4), max_size=5),
    key=st.sampled_from(["entries", "a", "z"]),
    mode=st.sampled_from(["json", "text"]),
)
def test_emit_list_is_the_emitted_line(rows, key, mode):
    info = {"size": 3, "model": "gl", "params": {"u": "1/2", "q": "2"}}
    streamed, whole = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(streamed):
        cli._emit_list(info, key, iter(rows), mode)
    with contextlib.redirect_stdout(whole):
        cli._emit({**info, key: [x for row in rows for x in row]}, mode)
    assert streamed.getvalue() == whole.getvalue()


# The CLI contract over a small argparse space.  Integers stay at most 12:
# `power --L` costs about L^4 memory.  Defaults that take a second or more
# (--lmax of the diag, power and bailey suites, the quiver sampler's
# --size-cap) are replaced by small values when not drawn, and `--suite all`
# is left to the pinned-output test.
_RATIONALS = st.sampled_from(
    ["1/2", "1/3", "2/5", "2", "3", "5/2", "1", "0", "-1", "1/0", "", "junk"]
)
_INTS = st.sampled_from([str(i) for i in range(-2, 13)] + ["", "x"])
_CHAIN = {"--u": _RATIONALS, "--q": _RATIONALS}
_MODELS = st.sampled_from(["gl", "fristedt"])
_SUITES = ["rr", "ag", "pipeline", "qbinomial", "jacobi", "diag", "power",
           "stochastic", "chain-measure", "bailey", "fristedt", "quiver"]
# the flags each command registers, besides --format
_COMMANDS = {
    "verify": {
        **_CHAIN,
        **{f: _INTS for f in ("--order", "--lmax", "--seed", "--k", "--i", "--n",
                              "--count")},
        "--jobs": st.sampled_from(["-1", "0", "1"]),
        "--inject-fault": st.none(),
    },
    "sample": {
        **_CHAIN,
        "--eps": _RATIONALS,
        "--seed": _INTS,
        "--model": st.sampled_from(["gl", "fristedt", "quiver", "junk"]),
        "--count": _INTS,
        "--size-cap": _INTS,
        "--quiver": st.sampled_from(["A2", "/nonexistent.json", ""]),
    },
    "power": {**_CHAIN, "--model": _MODELS},
    "kernel": {
        **_CHAIN,
        "--lmax": _INTS,
        "--model": _MODELS,
        "--matrix": st.sampled_from(["K", "C", "M", "A", "Ainv", "E"]),
    },
    "bailey": {
        **_CHAIN,
        "--lmax": _INTS,
        "--steps": _INTS,
        "--alpha": st.sampled_from(["1,1/2,-3", "1", "", "1,junk"]),
    },
    "series": {
        f: _INTS
        for f in ("--order", "--k", "--i", "--r", "--delta", "--A", "--B", "--v", "--w")
    },
}
_REQUIRED = {
    "verify": {"--suite": st.sampled_from(_SUITES + ["junk"])},
    "power": {f: _INTS for f in ("--L", "--j", "--r")},
    "series": {
        "--which": st.sampled_from(
            ["ag-sum", "ag-product", "absorption", "theta", "jacobi", "junk"]
        )
    },
}
_FAILED = re.compile(
    r'"status": "fail"|"(equal|valid)": false|status=fail|(equal|valid)=False'
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    strategies = {"--format": st.sampled_from(["json", "text", "junk"]),
                  **_COMMANDS[command]}
    names = draw(st.lists(st.sampled_from(sorted(strategies)), max_size=3, unique=True))
    flags = {name: draw(strategies[name]) for name in names}
    flags.update(draw(st.fixed_dictionaries(_REQUIRED.get(command, {}))))
    if flags.get("--suite") in ("diag", "power", "bailey"):
        flags.setdefault("--lmax", "6")
    if flags.get("--model") == "quiver":
        flags.setdefault("--size-cap", "8")
    return command, flags


@pytest.fixture(scope="module")
def a2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quiver") / "a2.json"
    path.write_text(
        json.dumps({"n": 2, "edges": [[1, 2, 1]], "U": ["1/4", "1/4"], "q": "2"})
    )
    return str(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_argvs())
def test_cli_exit_contract(a2_file, case):
    command, flags = case
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, a2_file if value == "A2" else value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code != 2:  # exit 1 if and only if a printed check failed
        assert (code == 1) == bool(_FAILED.search(out.getvalue())), argv


def test_gl_q_bound_is_checked_before_any_sampler(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("built a sampler below the q bound")

    monkeypatch.setattr(glchain, "_sampler", unreachable)
    below = cli._GL_SAMPLE_Q_MIN - Fraction(1, 10**6)
    code, out, err = run(capsys, ["sample", "--model", "gl", "--q", str(below),
                                  "--count", "1"])
    assert (code, out) == (2, "")
    assert err == "error: --q must be >= 101/100 for --model gl\n"


def test_gl_q_bound_is_inclusive(capsys):
    assert cli._GL_SAMPLE_Q_MIN == Fraction(101, 100)
    code, out, _ = run(capsys, ["sample", "--model", "gl", "--q", "101/100",
                                "--count", "1"])
    assert code == 0
    assert json_lines(out)[0]["model"] == "gl"
