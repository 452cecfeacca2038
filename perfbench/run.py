#!/usr/bin/env python3
"""Repository benchmark: build edebench, run one workload, check it.

Usage, from the repository root:

    python3 perfbench/run.py --workload {scan,scan_sharded,serve} --seed N
                             --seconds S --trace {0,1}
                             [--size {full,tiny}] [--ref-dir DIR] [--write-ref]

Builds perfbench/ (edebench plus the program's libraries from src/) with
CMake into .bench_build/ at the repository root, then runs edebench.
Outputs are checked against perfbench/ref/ when a reference exists for the
workload, size and seed, and against the first repetition otherwise; the
seed-independent invariants are checked on every run. A differing op
counts as failed, and any failure exits 1.

Prints a run record (nproc, build type, load average at start, tracing)
and then, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: the BENCHMARK.json end-to-end metrics with
--trace 0, its per-layer metrics with --trace 1.
"""
import argparse
import gzip
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("scan", "scan_sharded", "serve")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# A run must end within 180 s; edebench gets what is left of this.
RUN_LIMIT_S = 170.0
# The first build of a fresh checkout may take this long.
BUILD_LIMIT_S = 880.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and check its outputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--ref-dir", type=Path, default=HERE / "ref")
    parser.add_argument("--write-ref", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    return args


def cache_entry(cache_text, key):
    for line in cache_text.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(bdir):
    """Configure once, build edebench (a no-op when up to date), and
    refuse unoptimized and sanitizer configurations."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources: src/CMakeLists.txt is missing")
    cmake_dir = bdir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "edebench",
                  "--parallel", jobs])
    log_path = bdir / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_LIMIT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-25:]
                fail("build failed:\n" + "\n".join(tail))
    cache = (cmake_dir / "CMakeCache.txt").read_text()
    build_type = cache_entry(cache, "CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing to measure an unoptimized build ({build_type!r})")
    flags = " ".join(cache_entry(cache, key) for key in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(),
        "CMAKE_EXE_LINKER_FLAGS"))
    if "-fsanitize" in flags:
        fail("refusing to measure a sanitizer build")
    return cmake_dir / "edebench", build_type


def ref_path(ref_dir, workload, size, seed):
    """scan and scan_sharded share references: their aggregates do not
    depend on the shard count."""
    if workload == "serve":
        return ref_dir / f"serve-{size}-seed{seed}.json.gz"
    return ref_dir / f"scan-{size}-seed{seed}.json"


def load_reference(path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as f:
        return json.load(f)


def write_reference(path, ref):
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".gz":
        # mtime 0 keeps the file byte-identical for identical outputs.
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                               mtime=0) as f:
                f.write(json.dumps(ref, separators=(",", ":")).encode())
    else:
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def scan_cells(outputs):
    cells = {(key,): outputs[key] for key in (
        "domains", "with_ede", "noerror_with_ede", "servfail", "lame_union")}
    for code, count in outputs["per_code"].items():
        cells[("code", code)] = count
    for category, codes in outputs["by_category"].items():
        for code, count in codes.items():
            cells[("category", category, code)] = count
    return cells


def differing_ops(workload, got, want, ops):
    """Ops whose outcome differs. serve compares each query's rcode and EDE
    set; the scans compare aggregates, counting the (domain, code)
    incidences by which they differ."""
    if workload == "serve":
        diff = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    else:
        a, b = scan_cells(got), scan_cells(want)
        diff = sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys())
    return min(ops, diff)


def rep_outputs(doc, outcomes_path):
    if doc["workload"] != "serve":
        return doc["outputs"]
    with open(outcomes_path) as f:
        return [line.rstrip("\n").split(",") for line in f]


def check(args, doc, reps):
    """Failed ops: invariant misses plus outputs that differ from the
    reference (or, for a seed without one, from the first repetition)."""
    ops = doc["ops"]
    if len(reps) != len(ops):
        return sum(ops), ["edebench reported outputs for fewer repetitions"]
    failed = doc["invariant_misses"]
    notes = [f"invariants missed by {failed} ops"]
    path = ref_path(args.ref_dir, args.workload, args.size, args.seed)
    if path.is_file():
        ref = load_reference(path)
        if ref.get("input_digest") != doc["input_digest"]:
            return sum(ops), notes + [
                f"inputs differ from {path.name}'s ({doc['input_digest']} vs "
                f"{ref.get('input_digest')})"]
        want, source = ref["outputs"], path.name
    else:
        want, source = reps[0], "the first repetition (no reference)"
    for got, n in zip(reps, ops):
        failed += differing_ops(args.workload, got, want, n)
    notes.append(f"outputs of {len(reps)} repetitions checked against {source}")
    return min(failed, sum(ops)), notes


def run_edebench(exe, args, bdir, started):
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    for sub in ("out", "spans", "runs"):
        (bdir / sub).mkdir(parents=True, exist_ok=True)
    outcomes = bdir / "out" / f"{stem}.outcomes"
    spans = bdir / "spans" / f"{stem}.jsonl"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--outcomes", str(outcomes),
           "--spans", str(spans)]
    timeout = max(30.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"edebench did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"edebench exited with code {proc.returncode}", 1)
    return json.loads(lines[-1]), outcomes, spans, stem


def main(argv):
    started = time.monotonic()
    args = parse_args(argv)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "size": args.size,
              "trace": bool(args.trace), "nproc": os.cpu_count(),
              "loadavg_1m_at_start": os.getloadavg()[0]}
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    exe, record["build_type"] = build(BUILD_DIR)
    # A build that compiled (the first run in a checkout) has its own time
    # limit; edebench's limit then starts after it.
    started = max(started, time.monotonic() - 10.0)

    doc, outcomes, spans, stem = run_edebench(exe, args, BUILD_DIR, started)
    reps = rep_outputs(doc, outcomes)
    if args.write_ref:
        if doc["invariant_misses"] or any(r != reps[0] for r in reps):
            fail("refusing to store a reference from an inconsistent run")
        write_reference(
            ref_path(args.ref_dir, args.workload, args.size, args.seed),
            {"workload": args.workload, "size": args.size, "seed": args.seed,
             "input_digest": doc["input_digest"], "outputs": reps[0]})
    failed, notes = check(args, doc, reps)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    not_applicable = set(doc["not_applicable"])
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in doc["metrics"]:
            value = doc["metrics"][name]
        elif name in not_applicable:
            value = 0.0  # this workload does not run that layer
        else:
            fail(f"edebench did not report metric {name}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": metric["unit"]}

    attempted = doc["attempted"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(reps=doc["reps"], input_digest=doc["input_digest"],
                  phase_s=doc["phase_s"], rep_setup_s=doc["setup_s"],
                  failed_share=failed / attempted if attempted else 1.0)
    if args.trace:
        record["spans"] = str(spans.relative_to(ROOT))
    (BUILD_DIR / "runs" / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print("run record: " + json.dumps(record, sort_keys=True))
    for note in notes:
        print("check: " + note)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
