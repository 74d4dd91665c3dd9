"""Entry point of every benchmarked qchains process.

    python3 perfbench/child.py STATS.json plain|traced -- <qchains arguments>

runs qchains.cli.main as the installed ``qchains`` command does; "traced"
first installs the tracer.  On exit it writes STATS.json with the peak
resident memory of this process and, when traced, the per-layer report.

The peak is read here because the rusage that the parent gets from wait4
counts the parent's own peak too: Linux carries it over when the child
execs.
"""

import importlib
import json
import sys


def peak_rss_kb():
    """High-water resident set of this process image, from /proc."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv):
    if len(argv) < 3 or argv[1] not in ("plain", "traced") or argv[2] != "--":
        print("usage: child.py STATS.json plain|traced -- <qchains arguments>",
              file=sys.stderr)
        return 2
    stats_path, mode, cli_args = argv[0], argv[1], argv[3:]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = importlib.import_module("qchains.cli")
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        stats = {"peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            stats["trace"] = tracer.report()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
