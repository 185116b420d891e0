#!/usr/bin/env python3
"""Tuning-job benchmark for Orion.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the repository's libraries, tools
and perfbench_jobs (Release) into .bench_build/, runs perfbench_jobs for
one workload, checks its outputs and prints the metrics as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ledger (and runs the CLI parity self-test).  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("tune-validated", "tune-padded", "service-mix")
# One kernel per tune-* workload whose lock line must match orion-cc's.
PARITY = {"tune-validated": "recursiveGaussian@gtx680",
          "tune-padded": "backprop@gtx680"}
RUN_TIMEOUT_S = 170

# Span-name prefix (after an optional "bench.") -> layer of src/.
LAYER_OF = {"isa": "isa", "compile": "compile", "alloc": "compile",
            "opt": "compile", "validate": "validate", "sim": "sim",
            "runtime": "runtime", "tuner": "runtime", "guard": "runtime",
            "persist": "persist", "service": "service"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no Orion sources: %s is missing" % needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "perfbench_jobs", "orion-cc"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as shown:
                    sys.stderr.write(shown.read()[-4000:])
                fail("build failed: " + " ".join(step))


def run_jobs(args, work):
    command = [os.path.join(BUILD, "perfbench_jobs"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work]
    if args.trace and args.workload in PARITY:
        command += ["--parity", PARITY[args.workload]]
    # A fixed mmap threshold turns off glibc's adaptive one, whose state
    # depends on the job order; peak RSS then follows live memory.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench_jobs exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_final_line(kernel_at_gpu, work):
    """The `final:` line orion-cc run --validate --session prints."""
    kernel, gpu = kernel_at_gpu.split("@")
    cli = os.path.join(BUILD, "orion_tools", "orion-cc")
    vcub = os.path.join(work, kernel + ".vcub")
    subprocess.run([cli, "emit", kernel, "-o", vcub], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    out = subprocess.run([cli, "run", vcub, "--validate", "--session",
                          os.path.join(work, "cli-session"), "--gpu", gpu],
                         stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S).stdout
    finals = [l for l in out.splitlines() if l.startswith("final: ")]
    return finals[0] if finals else "(no final line)"


def metric(value, unit):
    return {"value": value, "unit": unit}


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(record, jobs):
    host = [j["host_s"] for j in jobs]
    model = [j for j in jobs if j["kind"] in ("clean", "cold")]
    m = {
        "setup_s": metric(statistics.median(record["setup_s"]), "s"),
        "jobs_per_s": metric(sum(j["ok"] for j in jobs) / sum(host), "1/s"),
        "job_s_p50": metric(statistics.median(host), "s"),
        "ok_ratio": metric(sum(j["ok"] for j in jobs) / len(jobs), "ratio"),
        "peak_rss_mb": metric(record["peak_rss_mb"], "MB"),
        "model_speedup_geomean": metric(
            geomean(j["base_ms"] / j["steady_ms"] for j in model), "x"),
        "model_energy_ratio_geomean": metric(
            geomean(j["steady_energy"] / j["base_energy"] for j in model),
            "x"),
        "settle_iters_mean": metric(
            statistics.fmean(j["settle"] for j in model), "iterations"),
    }
    # Only service-mix runs enough jobs to leave ten samples above p90.
    m["job_s_p90"] = metric(
        statistics.quantiles(host, n=10, method="inclusive")[8], "s")
    return m


def layer_of(span):
    name = span[len("bench."):] if span.startswith("bench.") else span
    return LAYER_OF.get(name.split(".")[0], "unattributed")


def layer_self_s(spans):
    self_s = {}
    for name, totals in spans.items():
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + totals["self_s"]
    return self_s


def layer_shares(spans):
    """Each layer's self time as a share of job time."""
    job_s = spans["bench.job"]["total_s"]
    return {layer: s / job_s for layer, s in layer_self_s(spans).items()}


def merge_kinds(spans_by_kind):
    merged = {}
    for spans in spans_by_kind.values():
        for name, t in spans.items():
            m = merged.setdefault(name, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            for key in m:
                m[key] += t[key]
    return merged


def per_layer(record, jobs):
    traced = [j for j in jobs if j["traced"]]
    n = len(traced)
    spans, counters = merge_kinds(record["spans"]), record["counters"]
    self_s = layer_self_s(spans)

    def count(name):
        return counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def span_self(name):
        return spans.get(name, {}).get("self_s", 0.0)

    # Untraced round 2k is paired with traced round 2k+1.
    by_round = {}
    for j in jobs:
        by_round[j["round"]] = by_round.get(j["round"], 0.0) + j["host_s"]
    pairs = [r for r in by_round if r % 2 == 1]
    job_span = spans.get("bench.job", {"self_s": 0.0, "total_s": 0.0})
    values = {
        "isa.decode_s": (self_s.get("isa", 0.0) / n, "s"),
        "compile.s": (self_s.get("compile", 0.0) / n, "s"),
        "compile.levels": (spans.get("compile.level", {}).get("count", 0) / n,
                           "count"),
        "alloc.spilled_vregs": (count("alloc.spilled_vregs") / n, "count"),
        "validate.s": (self_s.get("validate", 0.0) / n, "s"),
        "validate.s_per_probe": (ratio(self_s.get("validate", 0.0),
                                       count("validate.probes")), "s"),
        "validate.probes": (count("validate.probes") / n, "count"),
        "validate.reference_runs": (count("validate.reference_runs") / n,
                                    "count"),
        "validate.verdict_ok_ratio": (
            ratio(sum(j["ok_verdicts"] for j in traced),
                  sum(j["candidates"] for j in traced)), "ratio"),
        "sim.launch_s": (self_s.get("sim", 0.0) / n, "s"),
        "sim.minstr_per_s": (ratio(count("sim.warp_instructions") / 1e6,
                                   self_s.get("sim", 0.0)), "Minstr/s"),
        "sim.launches": (count("sim.launches") / n, "count"),
        "sim.warp_instructions": (count("sim.warp_instructions") / n,
                                  "count"),
        "sim.model_cycles": (count("sim.cycles") / n, "cycles"),
        "sim.fused_ratio": (ratio(count("sim.trace_cache.fused_instructions"),
                                  count("sim.warp_instructions")), "ratio"),
        "runtime.run_s": (self_s.get("runtime", 0.0) / n, "s"),
        "tuner.iterations": (count("tuner.iterations") / n, "count"),
        "guard.retries": (count("guard.retries") / n, "count"),
        "guard.faulted_ratio": (ratio(count("guard.faulted_iterations"),
                                      count("tuner.iterations")), "ratio"),
        "persist.s": (self_s.get("persist", 0.0) / n, "s"),
        "persist.journal.appends": (count("persist.journal.appends") / n,
                                    "count"),
        "persist.store.hit_ratio": (
            ratio(count("persist.store.hits"),
                  count("persist.store.hits") + count("persist.store.misses")),
            "ratio"),
        "service.start_s": (span_self("bench.service.start") / n, "s"),
        "service.drain_s": (span_self("bench.service.drain") / n, "s"),
        "service.warm_hit_ratio": (count("service.cache.warm_hits") / n,
                                   "ratio"),
        "service.queue.rejects": (count("service.queue.rejects") / n,
                                  "count"),
        "trace.overhead_ratio": (
            ratio(sum(by_round[r] for r in pairs),
                  sum(by_round[r - 1] for r in pairs)) - 1.0, "ratio"),
        "unattributed_share": (ratio(job_span["self_s"],
                                     job_span["total_s"]), "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload,
                                                     args.seed, os.getpid()))
    os.makedirs(work)
    record = run_jobs(args, work)
    parity_ok = True
    if args.trace and args.workload in PARITY:
        expected = cli_final_line(PARITY[args.workload], work)
        parity_ok = record["parity"] == expected
        print("parity %s: perfbench_jobs '%s' / orion-cc '%s' -> %s"
              % (PARITY[args.workload], record["parity"], expected,
                 "match" if parity_ok else "MISMATCH"))

    jobs = record["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    for j in failed:
        print("FAILED %s (%s): %s" % (j["name"], j["kind"], j["why"]))
    digests = record["round_digests"]
    rounds_agree = len(set(digests)) == 1
    print("digest %s per round, %s over %d rounds of %d jobs (seed %d)"
          % (digests[0], "same" if rounds_agree else "DIFFERENT",
             len(digests), len(jobs), args.seed))
    if args.trace:
        metrics = per_layer(record, jobs)
        for kind, spans in sorted(record["spans"].items()):
            shares = sorted(layer_shares(spans).items(), key=lambda kv: -kv[1])
            print("layer shares of traced %s-job time: %s" % (kind, ", ".join(
                "%s %.4f" % kv for kv in shares)))
        if record["dropped_events"]:
            print("trace dropped %d events" % record["dropped_events"])
    else:
        metrics = end_to_end(record, jobs)
        print("job_s_p50 over %d jobs" % len(jobs))
    correct = (not failed and parity_ok and rounds_agree
               and record["dropped_events"] == 0)
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
