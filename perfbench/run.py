#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim|aba_tcp|rsm_open|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe from source
with dune (build tree perfbench/_build, dune cache off, so nothing is
written outside the checkout), runs the output-check fixtures, then the
workload.  Prints a record line -- workload seed, why the workload was
chosen, a machine fingerprint, the checks, and every metric with its
sample count -- and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  The record is also kept in
perfbench/results/.  Exits non-zero, printing no result, when the build
or the fixtures fail; exits 1 after the result when a check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "perfbench", "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175
WORKLOADS = ("sim", "aba_tcp", "rsm_open")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True)
    except FileNotFoundError:
        fail("dune not found")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a record names
    the code it measured even when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".py")) or name in ("dune", "dune-project"):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        fail("BENCHMARK.json missing or unreadable")


def run_workload(workload, args, spec):
    """Runs one workload; prints its record and result lines and returns
    the benchmark's exit code."""
    load_start = os.getloadavg()
    cmd = [EXE, "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(p.stderr)
    lines = [x for x in p.stdout.splitlines() if x.strip()]
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, KeyError, AssertionError):
        sys.stderr.write(p.stdout)
        fail(f"{workload}: no result from the benchmark (exit {p.returncode})")

    # the printed metrics must be exactly the ones BENCHMARK.json declares
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    if printed != declared:
        fail("metrics printed differ from BENCHMARK.json: "
             + ", ".join(sorted(set(printed.items()) ^ set(declared.items()))))

    record["why"] = next(w["why"] for w in spec["workloads"]
                         if w["name"] == workload)
    record["fingerprint"] = {
        "nproc": os.cpu_count(),
        "ocaml": record.pop("ocaml", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": [round(x, 2) for x in load_start],
    }
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    name = f"{workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return p.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    st = subprocess.run([EXE, "selftest"], cwd=ROOT, capture_output=True,
                        text=True, timeout=60)
    if st.returncode != 0:
        sys.stderr.write(st.stdout + st.stderr)
        fail("output-check fixtures failed: the checks would not catch a broken run")

    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args, spec) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
