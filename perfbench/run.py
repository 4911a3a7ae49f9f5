#!/usr/bin/env python3
"""Builds the wcs benchmark driver and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wcs source tree. The driver binary is built from
source with CMake (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only rebuild what changed. The driver's own
lines go to stdout, its diagnostics and the in-process daemon's log to a
file next to the results documents. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json for --trace 0, its per-layer
metrics for --trace 1. A per-layer metric of a layer the workload does
not exercise reads 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.abspath(os.path.join(ROOT, d))
    # Relative paths keep the daemon's socket paths short.
    rel = os.path.relpath(d, ROOT)
    return d if rel.startswith("..") else rel


def build(bdir):
    gen = []
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(bdir, "Makefile"))):
        gen = ["-G", "Ninja"]
    steps = [["cmake", "-S", "perfbench", "-B", bdir, *gen,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", "4"]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_hash():
    """SHA-256 over the library, headers and benchmark sources, so runs of
    checkouts without git history still say which code they measured."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        paths = []
        p = os.path.join(ROOT, top)
        if os.path.isfile(p):
            paths = [p]
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in paths:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    if not build(bdir):
        return 1
    results = os.path.join(bdir, "results")
    tmp = os.path.join(bdir, f"tmp-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    errlog = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                          f"{'trace' if args.trace else 'run'}.stderr")
    cmd = [os.path.join(bdir, "wcs-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join("perfbench", "golden"),
           "--tmp", tmp, "--out", results,
           "--commit", git_commit(), "--source-hash", source_hash()]
    try:
        with open(errlog, "w") as err:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        with open(errlog) as fh:
            sys.stderr.write("".join(fh.readlines()[-20:]))
        log(f"wcs-perfbench exited with {r.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    got = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        v = got["metrics"].get(m["name"])
        if v is None and not args.trace:
            log(f"{args.workload} did not report {m['name']}")
            return 1
        if v is not None and v["unit"] != m["unit"]:
            log(f"{m['name']}: unit {v['unit']} != {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": v["value"] if v else 0.0,
                              "unit": m["unit"]}
    if not got["correct"]:
        with open(errlog) as fh:
            sys.stderr.write("".join(l for l in fh if "FAILED" in l))
    print(json.dumps({"correct": got["correct"],
                      "attempted": got["attempted"],
                      "failed": got["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
