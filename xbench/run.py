#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 xbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds xbench/xbench.exe with
dune (no shared cache; everything stays under _build/ and .xbench/),
runs one workload and prints its report; the last stdout line is the
JSON result.  Exits non-zero, without a result, when the checkout holds
no sources to build, the build fails, or the result does not carry
exactly the metrics BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Scratch space of the run.  The executable gets it relative to ROOT,
# its working directory, so the Unix socket paths under it stay short.
WORKDIR = os.path.join(ROOT, ".xbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg, code):
    print("xbench: " + msg, file=sys.stderr)
    sys.exit(code)


def tree_digest():
    """A content hash of the sources, standing in for a commit id when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "bin", "xbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no sources to build here (dune-project and lib/ are missing)", 2)

    for d in ("cache", "tmp"):
        os.makedirs(os.path.join(WORKDIR, d), exist_ok=True)
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(WORKDIR, "cache"),
               TMPDIR=os.path.join(WORKDIR, "tmp"))
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        env["XMARK_COMMIT"] = tree_digest()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./xbench/xbench.exe"],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed", 3)

    exe = os.path.join(ROOT, "_build", "default", "xbench", "xbench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--workdir", os.path.relpath(WORKDIR, ROOT)],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.rstrip("\n").split("\n")
    expected = {m["name"] for m in
                spec["per_layer" if args.trace == "1" else "end_to_end"]}
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (ValueError, KeyError, TypeError, IndexError):
        result, got = None, None
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("the run printed no result with the metrics BENCHMARK.json names "
            "(exit %d)" % run.returncode, run.returncode or 5)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
