"""One CLI invocation in a fresh interpreter, as a user would run it.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``src`` (directory holding the ``primpoints`` package),
``curve`` (curve file path), ``h`` (curve coefficients), ``argv`` (CLI
arguments) and ``spans`` (a path to write spans to, or null for an untraced
call).  Prints one JSON line with the monotonic clock just before and just
after ``primpoints.cli.main``, its return code, the durations of the
reference loop run before the set-up and after the call, and the process's
peak RSS.  The set-up is interpreter start, importing primpoints and writing
the curve file.
"""

import json
import os
import sys
import time
from fractions import Fraction


def reference():
    """Seconds taken by a fixed exact-arithmetic loop (about 30 ms on a
    2-vCPU 2.0 GHz Xeon VM).  Its duration tracks the speed the machine gives
    this process at the moment; run.py scales the call's times by it."""
    start = time.monotonic()
    for _ in range(20):
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
    return time.monotonic() - start


def peak_rss_kib():
    """VmHWM of this process.  Unlike ``ru_maxrss`` it excludes the pages
    of the parent that were mapped until exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def main():
    ref_before = reference()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import primpoints.cli

    where = os.path.dirname(os.path.abspath(primpoints.cli.__file__))
    if os.path.dirname(where) != os.path.abspath(spec["src"]):
        raise SystemExit(f"imported primpoints from {where}, not from {spec['src']}")
    recorder = None
    if spec["spans"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    with open(spec["curve"], "w") as fh:
        json.dump({"h": spec["h"]}, fh)
    start = time.monotonic()
    rc = primpoints.cli.main(spec["argv"])
    end = time.monotonic()
    ref_after = reference()
    rss_kib = peak_rss_kib()
    if recorder is not None:
        recorder.dump(spec["spans"])
    print(json.dumps({"main_start": start, "main_end": end, "rc": rc,
                      "ref_before": ref_before, "ref_after": ref_after,
                      "rss_kib": rss_kib}))


if __name__ == "__main__":
    main()
