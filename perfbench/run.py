"""primpoints benchmark: whole CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all              # every workload, a table

Run from the repository root.  Each CLI call is a fresh single-threaded
interpreter (``perfbench/child.py``) that imports ``primpoints`` from
``src/`` and calls ``primpoints.cli.main([...])`` once, so the module caches
start cold as they do for every user invocation.  Calls run one at a time
until their wall time adds up to ``--seconds``; call ``i`` gets its input
from the seed (see ``workloads.py``).  ``--jobs`` is never passed.

Every report is checked outside the timed region: exit code 0, every
certificate re-verifies, imprimitive-stream fibers carry witnesses, density
counts add up, and the report's SHA-256 matches the digest recorded for that
(workload, seed, call) in ``digests.json`` and any earlier call of the run
on the same input.  An op whose output fails a check counts as failed; a
failed report fails all its ops.

``--trace 0`` prints the end-to-end metrics:
  ops_per_s     ops attempted per second of ``cli.main`` (report writing
                included); an op is one t value, or one sampled vector
  setup_s       median over calls of process start to the call of ``cli.main``
  peak_rss_mib  median over calls of the process's peak RSS

Both times are corrected for the machine's speed at the moment of the call.
On a shared VM the speed a process gets swings by up to 2x over seconds and
by 20-50% between minutes, which no amount of work per run averages out.
Each child therefore times a fixed reference loop (``child.reference``)
before and after its call, and each call's times are scaled by
``REF_NOMINAL_S`` over the mean reference time: the result is the time the
call would have taken when the reference loop takes ``REF_NOMINAL_S``.  The
uncorrected figures are printed on stderr.

``--trace 1`` runs every input twice, untraced and traced, and prints the
per-layer metrics from the traced calls' spans (``spans.py``).  ``.self_s``
and ``.calls`` are means per CLI call; ``trace.overhead_frac`` is the traced
against the untraced ``cli.main`` time of the same inputs, minus one.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--record-digests`` instead runs twice ``--seconds`` of calls
and stores their digests for the seed (done once per recorded seed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CURVE = os.path.join(WORK, "curve.json")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from spans import TARGETS, self_times  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

CALL_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0
# typical reference-loop time on the baseline box (2-vCPU Xeon VM, 2.0 GHz)
REF_NOMINAL_S = 0.030
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# ----------------------------------------------------------------------
# metric names (BENCHMARK.json lists the same names)

END_TO_END = [("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def per_layer_names():
    out = [(f"{layer}.self_s", "s") for layer in TARGETS]
    for layer, attrs in TARGETS.items():
        if layer == "cli":
            continue
        for attr in attrs:
            out.append((f"{layer}.{attr}.calls", "count"))
            out.append((f"{layer}.{attr}.self_s", "s"))
    out += [
        ("prospect.classify_specialization.p50_ms", "ms"),
        ("prospect.classify_specialization.tail_ms", "ms"),
        ("prospect.classify_specialization.tail_pct", "%"),
        ("exactalg.factor_over_rationals.calls_per_op", "1/op"),
        ("numfield.shortcut_ratio", "ratio"),
        ("prospect.irreducible_ratio", "ratio"),
        ("contract.imprimitive_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


# ----------------------------------------------------------------------
# one CLI call in a fresh interpreter

def spawn(workload, argv, index, traced, deadline):
    """Run one call; returns a dict of its timings, rc, RSS and report bytes."""
    tag = f"{index}{'t' if traced else ''}"
    spans_path = os.path.join(WORK, f"spans-{tag}.json") if traced else None
    out_path = os.path.join(WORK, f"child-{tag}.out")
    spec = {
        "src": SRC,
        "curve": CURVE,
        "h": workload.h,
        "argv": argv,
        "spans": spans_path,
    }
    report_path = argv[argv.index("--output") + 1]
    for stale in (report_path, spans_path):
        if stale and os.path.exists(stale):
            os.remove(stale)
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
        )
        try:
            proc.wait(timeout=max(0.0, min(CALL_TIMEOUT_S, deadline - t0)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.monotonic() - t0
    call = {"wall": wall, "rc": proc.returncode, "report": None, "spans": None}
    try:
        with open(out_path) as fh:
            timing = json.loads(fh.read().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return call
    call["rc"] = timing["rc"] if proc.returncode == 0 else proc.returncode
    call["rss_kib"] = timing["rss_kib"]
    call["speed"] = 2 * REF_NOMINAL_S / (timing["ref_before"] + timing["ref_after"])
    call["setup"] = timing["main_start"] - t0 - timing["ref_before"]
    call["main"] = timing["main_end"] - timing["main_start"]
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            call["report"] = fh.read()
    if spans_path and os.path.exists(spans_path):
        with open(spans_path) as fh:
            call["spans"] = json.load(fh)
    return call


# ----------------------------------------------------------------------
# one run

def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def run(name, seed, seconds, trace, recorded=None):
    """One run: calls until their wall time reaches ``seconds``; returns the
    result and the report digests.  ``recorded`` overrides the digests
    expected from ``digests.json``."""
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    if recorded is None:
        recorded = load_digests()["digests"].get(name, {}).get(str(seed), [])
    seen = {}
    deadline = time.monotonic() + RUN_DEADLINE_S
    spent = 0.0
    attempted = failed = 0
    untraced, traced, digests = [], [], []
    inputs = workload.inputs(seed)
    for index in itertools.count():
        if index and (spent >= seconds or time.monotonic() > deadline):
            break
        terms = next(inputs)
        argv = workload.argv(terms, CURVE, os.path.join(WORK, f"report-{index}.json"))
        for traced_call in ((False, True) if trace else (False,)):
            call = spawn(workload, argv, index, traced_call, deadline)
            spent += call["wall"]
            attempted += workload.ops
            expected = recorded[index] if index < len(recorded) else None
            failed += check_call(workload, call, seen, terms, expected)
            if traced_call:
                traced.append(call)
            else:
                untraced.append(call)
                digests.append(call.get("digest"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        result["metrics"] = layer_metrics(workload, untraced, traced)
    else:
        result["metrics"] = end_to_end_metrics(workload, untraced)
    return result, digests


def check_call(workload, call, seen, terms, expected):
    """Failed ops of one call: all of them for a bad exit code, or for a
    report whose digest differs from the recorded one (``expected``) or from
    the first call of the run on the same input (``seen[terms]``); otherwise
    those failing ``check_report``."""
    if call["rc"] != 0 or call["report"] is None or "main" not in call:
        return workload.ops
    digest = hashlib.sha256(call["report"]).hexdigest()
    call["digest"] = digest
    if digest != seen.setdefault(terms, digest) or expected not in (None, digest):
        return workload.ops
    return check_report(workload, call["report"].decode())


def end_to_end_metrics(workload, calls):
    timed = [c for c in calls if "main" in c]
    if not timed:
        raise SystemExit("no call of the run reported its timings")
    ops = workload.ops * len(timed)
    values = {
        "ops_per_s": ops / sum(c["main"] * c["speed"] for c in timed),
        "setup_s": statistics.median(c["setup"] * c["speed"] for c in timed),
        "peak_rss_mib": statistics.median(c["rss_kib"] for c in timed) / 1024,
    }
    print(
        f"uncorrected: ops_per_s={ops / sum(c['main'] for c in timed):.6g} 1/s  "
        f"setup_s={statistics.median(c['setup'] for c in timed):.6g} s  "
        f"median speed={statistics.median(c['speed'] for c in timed):.4g}  calls={len(timed)}",
        file=sys.stderr,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(workload, untraced, traced):
    pairs = [(u, t) for u, t in zip(untraced, traced) if "main" in u and "main" in t]
    traces = [t["spans"] for _, t in pairs if t["spans"] is not None]
    ncalls = max(len(traces), 1)
    layer_self = {layer: 0.0 for layer in TARGETS}
    fn_calls, fn_self = {}, {}
    classify_ms = []
    statuses = []
    locus = []
    prim_field = shortcut = 0
    for data in traces:
        spans = data["spans"]
        selfs = self_times(spans)
        has_trager = set()
        for (name, _, _, parent, _) in spans:
            if name == "numfield.trager_factor":
                while parent >= 0 and spans[parent][0] != "numfield.is_primitive_field":
                    parent = spans[parent][3]
                has_trager.add(parent)
        for i, ((name, start, end, _, tag), own) in enumerate(zip(spans, selfs)):
            layer_self[name.split(".")[0]] += own
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + own
            if name == "prospect.classify_specialization":
                classify_ms.append((end - start) * 1000)
                statuses.append(tag)
            elif name == "contract.imprimitive_locus_test":
                locus.append(tag)
            elif name == "numfield.is_primitive_field":
                prim_field += 1
                shortcut += i not in has_trager
    values = {f"{layer}.self_s": s / ncalls for layer, s in layer_self.items()}
    for layer, attrs in TARGETS.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            values[f"{name}.calls"] = fn_calls.get(name, 0) / ncalls
            values[f"{name}.self_s"] = fn_self.get(name, 0.0) / ncalls
    p50, tail, pct = percentiles(classify_ms)
    values["prospect.classify_specialization.p50_ms"] = p50
    values["prospect.classify_specialization.tail_ms"] = tail
    values["prospect.classify_specialization.tail_pct"] = pct
    values["exactalg.factor_over_rationals.calls_per_op"] = (
        fn_calls.get("exactalg.factor_over_rationals", 0) / (ncalls * workload.ops)
    )
    values["numfield.shortcut_ratio"] = shortcut / prim_field if prim_field else 0.0
    values["prospect.irreducible_ratio"] = (
        statuses.count("irreducible") / len(statuses) if statuses else 0.0
    )
    values["contract.imprimitive_ratio"] = (
        locus.count("imprimitive") / len(locus) if locus else 0.0
    )
    untraced_s = sum(u["main"] * u["speed"] for u, _ in pairs)
    traced_s = sum(t["main"] * t["speed"] for _, t in pairs)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1 if untraced_s else 0.0
    absent = sorted({a for data in traces for a in data["absent"]})
    if absent:
        print(f"absent targets: {', '.join(absent)}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def percentiles(samples):
    """Median, and the highest of TAIL_PERCENTILES with at least ten samples
    beyond it (nearest rank), with that percentile."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-n * pct // 100)  # nearest-rank: ceil(n * pct / 100)
        if n - rank >= 10:
            return median, ordered[int(rank) - 1], pct
    return median, ordered[-1], 100.0


# ----------------------------------------------------------------------
# entry point

def environment():
    rev = "unknown"  # an exported checkout has no .git
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git": rev}


def summary_line(name, result):
    fields = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    frac = result["failed"] / result["attempted"]
    fields.append(f"failed_frac={frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    return f"{name}: " + "  ".join(fields)


def record_digests(names, seed, seconds):
    data = load_digests()
    for name in names:
        result, digests = run(name, seed, 2 * seconds, False, recorded=[])
        if not result["correct"] or None in digests:
            raise SystemExit(f"{name} seed {seed}: checks failed, nothing recorded")
        data["digests"].setdefault(name, {})[str(seed)] = digests
        print(f"{name} seed {seed}: recorded {len(digests)} digests", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primpoints", "cli.py")):
        raise SystemExit(f"no primpoints sources under {SRC}")
    sys.path.insert(0, SRC)
    seed = load_digests()["default_seed"] if args.seed is None else args.seed
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_digests:
        record_digests(names, seed, args.seconds)
        return
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)} seed={seed}", file=sys.stderr)
    results = {}
    for name in names:
        result, _ = run(name, seed, args.seconds, bool(args.trace))
        results[name] = result
        print(summary_line(name, result), file=sys.stderr if len(names) == 1 else sys.stdout)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"env": env, "seed": seed, "results": results}))


if __name__ == "__main__":
    main()
