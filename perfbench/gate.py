"""Output gate for the benchmark's qchains commands.

check() returns None when a command's output is right, else the reason:

* verify: every report has status "pass", and the reports without their
  "elapsed" field hash to the digest in digests.json.  Only the "failures"
  field could depend on --seed, and it is empty on a pass.
* gl and fristedt streams: the right number of lines, each a draw whose
  partition matches its chain states; at the CLI's default seed the bytes
  must also hash to the recorded digest.
* quiver streams: valid draws only, because exact quiver masses may
  legitimately change them.

Run from the root of a checkout,

    python3 perfbench/gate.py > perfbench/digests.json

records the digests of the current tree.
"""

import hashlib
import json
import sys

DEFAULT_SEED = 0  # the CLI's default --seed


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_digest(text: str) -> str:
    """Digest of verify reports with the run-dependent "elapsed" removed."""
    reports = [json.loads(line) for line in text.splitlines()]
    stable = [
        json.dumps({k: v for k, v in r.items() if k != "elapsed"}, sort_keys=True)
        for r in reports
    ]
    return hashlib.sha256("\n".join(stable).encode()).hexdigest()


def _is_partition(parts) -> bool:
    return (
        isinstance(parts, list)
        and all(type(p) is int and p > 0 for p in parts)
        and all(a >= b for a, b in zip(parts, parts[1:]))
    )


def _conjugate(parts):
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def _check_verify(cmd, text, digests):
    reports = [json.loads(line) for line in text.splitlines()]
    bad = [r for r in reports if r.get("status") != "pass"]
    if bad:
        return f"{len(bad)} of {len(reports)} reports did not pass"
    if verify_digest(text) != digests[cmd.name]:
        return "reports differ from the recorded ones"
    return None


def _check_draw(cmd, seed, index, draw, vertices):
    if draw["model"] != cmd.kind:
        return "wrong model"
    if draw["seed"] != (seed + index if cmd.kind == "quiver" else seed):
        return "wrong seed"
    if cmd.kind == "quiver":
        comps = draw["partitions"]
        if len(comps) != vertices or not all(_is_partition(c) for c in comps):
            return "not a tuple of partitions"
        return None
    states, partition = draw["columns"], draw["partition"]
    if not _is_partition(states):
        return "chain states are not a partition"
    expected = _conjugate(states) if cmd.kind == "gl" else states
    if partition != expected:
        return "partition does not match its chain states"
    return None


def _check_stream(cmd, seed, path):
    # Line by line: the runner stays small, since its peak memory would
    # otherwise show up in the children's rusage.
    vertices = 0
    if cmd.kind == "quiver":
        with open(cmd.args[cmd.args.index("--quiver") + 1]) as fh:
            vertices = json.load(fh)["n"]
    lines = 0
    with open(path, encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            reason = _check_draw(cmd, seed, index, json.loads(line), vertices)
            if reason:
                return f"line {index + 1}: {reason}"
            lines += 1
    if lines != cmd.count:
        return f"{lines} lines, expected {cmd.count}"
    return None


def check(cmd, seed, code, path, digests):
    """None if the command exited 0 and its output at path is right, else
    the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        if cmd.kind == "verify":
            with open(path, encoding="utf-8") as fh:
                return _check_verify(cmd, fh.read(), digests)
        if (
            cmd.name in digests
            and seed == DEFAULT_SEED
            and sha256_file(path) != digests[cmd.name]
        ):
            return "stream differs from the recorded default-seed stream"
        return _check_stream(cmd, seed, path)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def record():
    """Digests of every verify report set and default-seed gl/fristedt stream."""
    import run

    digests = {}
    for commands in run.WORKLOADS.values():
        for cmd in commands:
            if cmd.kind not in ("verify", "gl", "fristedt"):
                continue
            proc = run.run_command(cmd, DEFAULT_SEED, "record")
            if proc.code != 0:
                raise SystemExit(f"{cmd.name} exited {proc.code}")
            if cmd.kind == "verify":
                digests[cmd.name] = verify_digest(proc.out.read_text())
            else:
                digests[cmd.name] = sha256_file(proc.out)
    return digests


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    print()
