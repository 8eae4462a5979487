#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

One measured run:

    python3 perfbench/run.py --workload gimli-hash|gimli-cipher --seed N \
        --seconds S --trace 0|1

builds perfbench/ (and the program libraries it compiles from src/) into
.bench_build/, runs the workload (every stage of it: cell, game and serve,
on the workload's Gimli mode), and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A
failed output check prints correct=false with no metrics and exits 1.

The report (every workload, or one by name):

    python3 perfbench/run.py --report [--workload W] [--seed N] [--seconds S]

runs each workload untraced and traced and prints every end-to-end metric
with its unit and sample count, then the per-layer tree of the traced run
(end to end -> phase -> layer), naming the metric and stage each layer
number should move.  The benchmark's own tests:

    python3 perfbench/run.py --self-test

Artifacts (result JSON with the run manifest, trace files, the log) go to
.bench_build/runs/<workload>-s<seed>-t<trace>/; nothing is written
elsewhere.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("gimli-hash", "gimli-cipher")

# Which end-to-end metric (of which stage) each per-layer metric should
# move, and where it sits: (stage, end-to-end metric, phase, layer).
LAYERS = {
    "cells_per_min": ("cell", "cells_per_min", "end to end", "campaign"),
    "campaign.overhead_frac": ("cell", "cells_per_min", "supervisor", "campaign"),
    "campaign.retries": ("cell", "fail_frac", "supervisor", "campaign"),
    "campaign.worker_restarts": ("cell", "fail_frac", "supervisor", "campaign"),
    "nn.fit_s": ("cell", "cells_per_min", "offline fit", "nn"),
    "nn.fit_epoch_s": ("cell", "cells_per_min", "offline fit", "nn"),
    "nn.fit_gflops": ("cell", "cells_per_min", "offline fit", "kernels"),
    "nn.fit.dense_fwd_s": ("cell", "cells_per_min", "offline fit", "nn"),
    "nn.fit.dense_bwd_s": ("cell", "cells_per_min", "offline fit", "nn"),
    "nn.fit.unattributed_s": ("cell", "cells_per_min", "offline fit", "nn"),
    "core.collect_s": ("cell", "cells_per_min", "offline collect", "core"),
    "core.online_s": ("cell", "cells_per_min", "online game", "core"),
    "core.collect_ns_per_query": ("game", "game_queries_per_s", "collect", "core"),
    "kernels.gimli_mstates_per_s": ("game", "game_queries_per_s", "collect", "kernels"),
    "nn.predict_ns_per_row": ("game", "game_queries_per_s", "predict", "nn"),
    "nn.predict_gflops": ("game", "game_queries_per_s", "predict", "kernels"),
    "core.game_other_frac": ("game", "game_queries_per_s", "games", "core"),
    "serve.connect_us": ("serve", "p50_ms.low", "accept/read", "serve"),
    "serve.front_us": ("serve", "p50_ms.low", "accept/read/parse/route", "serve"),
    "serve.queue_wait_us.p50": ("serve", "p50_ms.low", "queue + window", "serve"),
    "serve.queue_wait_us.p99": ("serve", "p99_ms.high", "queue + window", "serve"),
    "serve.batch_rows_mean": ("serve", "max_rps", "batch", "serve"),
    "serve.forward_ms.b1": ("serve", "p50_ms.low", "forward", "nn"),
    "serve.forward_ms.bmean": ("serve", "max_rps", "forward", "nn"),
    "nn.ir.conv1d_us": ("serve", "p50_ms.low", "forward", "kernels"),
    "serve.parse_us": ("serve", "p50_ms.low", "parse", "serve"),
    "serve.decode_us": ("serve", "p50_ms.low", "parse", "serve"),
    "serve.render_us": ("serve", "p50_ms.low", "write", "serve"),
    "serve.rejected_frac": ("serve", "fail_frac", "admission", "serve"),
    "p99_ms.low": ("serve", "p99_ms.low", "end to end", "serve"),
    "p99_ms.mid": ("serve", "p99_ms.mid", "end to end", "serve"),
    "p99_ms.high": ("serve", "p99_ms.high", "end to end", "serve"),
    "max_rps": ("serve", "max_rps", "end to end", "serve"),
    "gen.late_ms.p99": ("serve", "(validity check)", "generator", "perfbench"),
    "trace_overhead_frac.cell": ("cell", "cells_per_min", "tracing", "obs"),
    "trace_overhead_frac.game": ("game", "game_queries_per_s", "tracing", "obs"),
    "trace_overhead_frac.serve": ("serve", "p50_ms.mid", "tracing", "obs"),
    "trace_overhead_frac": ("*", "(all)", "tracing", "obs"),
    "fail_frac": ("*", "(all)", "end to end", "-"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure and build; False (after logging why) on failure."""
    rc = subprocess.call(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        log("perfbench: configure failed")
        return False
    jobs = str(os.cpu_count() or 1)
    rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        log("perfbench: build failed")
        return False
    return True


def conv1d_us(trace_file):
    """Mean duration (us) of the conv1d spans in a Chrome trace file."""
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    durs = [e["dur"] for e in events
            if e.get("name") == "conv1d" and e.get("ph") == "X"]
    return (sum(durs) / len(durs), len(durs)) if durs else (None, 0)


def run_workload(workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, its result object or None)."""
    out = os.path.join(RUNS, "%s-s%d-t%d" % (workload, seed, int(trace)))
    os.makedirs(out, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    # Set-up, the reference cells, the measured seconds and the overshoot
    # of the last round; 170 s at the default run length.
    timeout = 110 + 2 * seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s run timed out" % workload)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is not None and trace:
        try:
            # The trace must load; its conv1d spans come from the serve stage.
            value, n = conv1d_us(result.get("trace_file") or "")
        except (OSError, ValueError, KeyError) as e:
            result["mismatches"].append("trace file not loadable: %s" % e)
            result["correct"] = False
            value = None
        if value is not None:
            result["metrics"].append({
                "name": "nn.ir.conv1d_us", "value": value, "unit": "us",
                "samples": n, "note": "mean conv1d span, traced serve load"})
    if result is not None:
        with open(os.path.join(out, "result.json"), "w") as f:
            json.dump(result, f, indent=1)
    return proc.returncode, result


def contract_line(result, names):
    """The result line: only the listed metrics, in their order."""
    if result is None or not result["correct"]:
        return {"correct": False,
                "attempted": max(1, result["attempted"]) if result else 1,
                "failed": result["failed"] if result else 1,
                "metrics": {}}
    measured = {m["name"]: m for m in result["metrics"]}
    missing = [n for n in names if n not in measured]
    if missing:
        log("perfbench: the run did not measure " + ", ".join(missing))
        return {"correct": False, "attempted": max(1, result["attempted"]),
                "failed": result["failed"], "metrics": {}}
    return {"correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": measured[n]["value"],
                            "unit": measured[n]["unit"]}
                        for n in names}}


def describe(m):
    note = " (%s)" % m["note"] if m.get("note") else ""
    return "%-28s %14.6g %-8s n=%-6d%s" % (m["name"], m["value"], m["unit"],
                                           m["samples"], note)


def print_end_to_end(result, names):
    log("  end to end (untraced)")
    if result is None:
        log("    no result")
        return
    for m in result["metrics"]:
        if m["name"] in names:
            log("    " + describe(m))
    log("    %-28s %14.6g %-8s n=%d" % (
        "fail_frac", result["failed"] / max(1, result["attempted"]),
        "fraction", result["attempted"]))
    for flag in result.get("flags", []):
        log("    flag: " + flag)
    for bad in result.get("mismatches", []):
        log("    CHECK FAILED: " + bad)


def print_layer_tree(result):
    log("  per layer (traced): end to end -> phase -> layer")
    if result is None:
        log("    no result")
        return
    tree = {}
    for m in result["metrics"]:
        where = LAYERS.get(m["name"])
        if where is None:
            continue
        stage, target, phase, layer = where
        tree.setdefault((stage, target), {}).setdefault(phase, []).append(
            (layer, m))
    for stage, target in sorted(tree):
        log("    %s (stage %s)" % (target, stage))
        for phase in tree[(stage, target)]:
            log("      %s" % phase)
            for layer, m in tree[(stage, target)][phase]:
                log("        %-9s %s" % (layer, describe(m)))
    log("    trace file: %s" % result.get("trace_file"))


def report(args, bench):
    e2e = [m["name"] for m in bench["end_to_end"]]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    failed = False
    for w in workloads:
        log("")
        log("== %s (seed %d, %gs per run)" % (w, args.seed, args.seconds))
        rc, plain = run_workload(w, args.seed, args.seconds, False)
        if plain is not None:
            log("  manifest: %s nproc=%s" % (json.dumps(plain["manifest"]),
                                            plain.get("nproc")))
        print_end_to_end(plain, e2e)
        rc_t, traced = run_workload(w, args.seed, args.seconds, True)
        print_layer_tree(traced)
        failed = failed or rc != 0 or rc_t != 0 or plain is None or \
            traced is None or not plain["correct"] or not traced["correct"]
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if not build():
        return 1
    if args.self_test:
        out = os.path.join(RUNS, "self-test")
        os.makedirs(out, exist_ok=True)
        return subprocess.call([BINARY, "--self-test", "--out", out])
    if args.report:
        return report(args, bench)
    if args.workload is None:
        ap.error("--workload is required (or --report / --self-test)")

    rc, result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    line = contract_line(result, names)
    if line["correct"]:
        (print_layer_tree(result) if args.trace
         else print_end_to_end(result, names))
    elif result is not None:
        for bad in result.get("mismatches", []):
            log("CHECK FAILED: " + bad)
    print(json.dumps(line), flush=True)
    return 0 if rc == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
