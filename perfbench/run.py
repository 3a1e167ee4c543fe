#!/usr/bin/env python3
"""End-to-end benchmark of ngsx.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bam_convert --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Each run builds perfbench/ (CMake, into .bench_build/perfbench), makes or
reuses the seeded dataset of the workload (.bench_data/, keyed by kind,
sizes and seed, digest-checked on reuse), times the workload's set-up in
fresh processes, runs the measuring process for --seconds, and prints the
run fingerprint followed by one JSON result line:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, and writes the obs trace (Chrome trace JSON) and the
per-layer table to .bench_out/. --self-test runs every workload at a tiny
scale, checks that every metric is emitted with its unit, and checks that
a corrupted reference digest is caught as a failure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bam_convert", "sam_convert", "region_serve", "chipseq")

# Dataset sizes. "full" is what the benchmark measures; "tiny" serves the
# self-test. `serve_scale` scales region_serve's request counts.
SCALES = {
    "full": {
        "main": {"pairs": 150000, "genome": 25000000, "views": 1000,
                 "exports": 48, "view-bp": 3000, "export-bp": 1000000},
        "chip": {"pairs": 15000, "genome": 5000000, "sims": 48},
        "serve_scale": 1.0,
    },
    "tiny": {
        "main": {"pairs": 3000, "genome": 2000000, "views": 40,
                 "exports": 4, "view-bp": 3000, "export-bp": 100000},
        "chip": {"pairs": 2000, "genome": 500000, "sims": 8},
        "serve_scale": 0.05,
    },
}
DATASET_OF = {"bam_convert": "main", "sam_convert": "main",
              "region_serve": "main", "chipseq": "chip"}
SETUP_PROCESSES = 4   # fresh-process set-ups besides the measuring one
KEEP_DATASETS = 20    # cached datasets kept, most recently used first
DEADLINE_S = 170      # one run, build excluded
DATA_FORMAT = 2       # bump when generated files change shape


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds perfbench; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def tool(binary, args, deadline, env=None):
    """Runs one perfbench invocation; returns its last stdout line as JSON
    (or None for modes that print nothing)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout,
                          env=env)
    if proc.returncode != 0:
        raise RuntimeError("perfbench %s exited with %d" %
                           (args[0], proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def digests(directory, flush=False):
    """CRC-32 of every file; with `flush`, also forces each to disk so the
    generator's write-back does not overlap the measurement."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name == "inputs.json":
            continue
        crc = 0
        with open(os.path.join(directory, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 22), b""):
                crc = zlib.crc32(block, crc)
            if flush:
                os.fsync(f.fileno())
        out[name] = crc
    return out


def dataset(binary, kind, seed, params, deadline):
    """Returns the dataset directory, generating it when absent or when a
    cached copy fails its digest check."""
    key = json.dumps([DATA_FORMAT, kind, params], sort_keys=True).encode()
    cache = os.path.join(ROOT, ".bench_data")
    path = os.path.join(cache, "%s-%08x-s%d" % (kind, zlib.crc32(key), seed))
    manifest = os.path.join(path, "inputs.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            if json.load(f) == digests(path):
                os.utime(path)
                return path
        log("perfbench: cached dataset %s failed its digest check" % path)
    shutil.rmtree(path, ignore_errors=True)
    staging = path + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    args = ["gen-" + kind, "--dir", staging, "--seed", str(seed),
            "--threads", str(nproc())]
    for name, value in params.items():
        args += ["--" + name, str(value)]
    started = time.monotonic()
    tool(binary, args, deadline)
    with open(os.path.join(staging, "inputs.json"), "w") as f:
        json.dump(digests(staging, flush=True), f)
    os.rename(staging, path)
    log("perfbench: generated %s in %.1f s" % (path, time.monotonic() - started))
    entries = sorted((e for e in os.scandir(cache) if e.is_dir()),
                     key=lambda e: e.stat().st_mtime, reverse=True)
    for old in entries[KEEP_DATASETS:]:
        shutil.rmtree(old.path, ignore_errors=True)
    return path


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_names(metrics, wanted):
    """Problems with the emitted metric set against the spec entries."""
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s has unit %s, want %s" %
                            (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s has no numeric value" % m["name"])
    extra = set(metrics) - {m["name"] for m in wanted}
    problems += ["unexpected metric " + n for n in sorted(extra)]
    return problems


def write_trace(trace_path, workload, seed, result):
    """Per-layer table: metric values plus the calls and total seconds of
    every span name in the obs trace."""
    with open(trace_path) as f:
        trace = json.load(f)
    spans = {}
    for e in trace["traceEvents"]:
        if e["ph"] != "X":
            continue
        row = spans.setdefault(e["name"], {"layer": e["cat"], "calls": 0,
                                           "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += e["dur"] / 1e6
    table = os.path.join(os.path.dirname(trace_path),
                         "layers-%s-s%d.json" % (workload, seed))
    with open(table, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": result["metrics"], "spans": spans,
                   "obs": trace["ngsxMetrics"],
                   "fingerprint": result["fingerprint"]}, f, indent=1)
    return table


def run(workload, seed, seconds, trace, scale="full", corrupt=False,
        binary=None):
    """One benchmark run; returns (result line dict, fingerprint dict)."""
    deadline = time.monotonic() + DEADLINE_S
    binary = binary or build()
    spec = load_spec()
    sizes = SCALES[scale]
    kind = DATASET_OF[workload]
    data = dataset(binary, kind, seed, sizes[kind], deadline)

    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    common = ["--workload", workload, "--data", data, "--seed", str(seed),
              "--serve-scale", str(sizes["serve_scale"])]
    try:
        setups, rss = [], []
        if not trace:
            for i in range(SETUP_PROCESSES):
                out = tool(binary, ["setup"] + common +
                           ["--work", os.path.join(work, "setup%d" % i)],
                           deadline, env)
                setups.append(out["setup_s"])
                if "peak_rss_mb" in out:
                    rss.append(out["peak_rss_mb"])
        args = ["measure"] + common + ["--work", os.path.join(work, "run"),
                                       "--seconds", str(seconds),
                                       "--trace", "1" if trace else "0",
                                       "--corrupt", "1" if corrupt else "0"]
        trace_file = None
        if trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_file = os.path.join(out_dir,
                                      "spans-%s-s%d.json" % (workload, seed))
            args += ["--trace-out", trace_file]
        res = tool(binary, args, deadline, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = res["metrics"]
    if not trace:
        # Set-up time, and for batch workloads the cold one-job footprint,
        # are medians over the fresh processes and the measuring one.
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        if rss:
            rss.append(metrics["peak_rss_mb"]["value"])
            metrics["peak_rss_mb"]["value"] = statistics.median(rss)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = check_names(metrics, wanted)
    if problems:
        raise RuntimeError("; ".join(problems))
    fingerprint = dict(res["fingerprint"], seed=seed, scale=scale,
                       setup_samples_s=setups, rss_samples_mb=rss,
                       failures=res["failures"])
    if trace_file:
        fingerprint["layer_table"] = write_trace(trace_file, workload, seed,
                                                 res)
    line = {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return line, fingerprint


# Per-layer splits that only some workloads exercise: metric -> workloads
# on which it must be non-zero (zero everywhere else).
EXERCISED = {
    "formats.bgzf.inflate_s": {"bam_convert", "chipseq"},
    "formats.bgzf.deflate_s": {"chipseq"},
    "stats.histogram_s": {"chipseq"},
    "stats.nlmeans_s": {"chipseq"},
    "stats.fdr_s": {"chipseq"},
}


def self_test():
    binary = build()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, _ = run(workload, 1, 1, trace, scale="tiny", binary=binary)
            if not line["correct"]:
                failures.append("%s trace=%d: outputs wrong" %
                                (workload, trace))
            if trace:
                for name, where in EXERCISED.items():
                    value = line["metrics"][name]["value"]
                    if (value > 0) != (workload in where):
                        failures.append("%s: %s = %g" %
                                        (workload, name, value))
        line, _ = run(workload, 1, 1, 0, scale="tiny", corrupt=True,
                      binary=binary)
        if line["correct"] or line["failed"] == 0:
            failures.append("%s: corrupted reference not caught" % workload)
        log("self-test: %s done" % workload)
    for failure in failures:
        log("self-test FAILED: " + failure)
    print(json.dumps({"self_test": "fail" if failures else "pass",
                      "failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        line, fingerprint = run(args.workload, args.seed, args.seconds,
                                args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
