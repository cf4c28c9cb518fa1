#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Builds perfbench/main.exe with dune from the sources in this checkout, runs
one workload in its own process and prints, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (0 where a layer is not on the workload's
path). Everything above that line is the human-readable report.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# One workload must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the measuring program; no dune cache, so nothing is written
    outside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def source_stamp():
    """The git commit when there is one, and a digest of the sources the
    program is built from (the checkout a benchmark runs in has no .git)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            dirs[:] = [x for x in dirs if x not in ("out", "__pycache__")]
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name in ("dune", "dune-project"):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return "%s+src:%s" % (commit, h.hexdigest()[:12])


def run_workload(name, seed, seconds, trace, small=False, stamp="none"):
    """Run one workload; return (report lines, exact values, raw result)."""
    args = [EXE, "--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0", "--commit", stamp]
    if small:
        args.append("--small")
    if trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        args += ["--spans", os.path.join(out, "spans-%s-seed%d.json" % (name, seed))]
    try:
        r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S), 3)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (name, r.returncode), 3)
    raw = json.loads(lines[-1])
    exact = {}
    for line in lines:
        if line.startswith("@exact "):
            exact = json.loads(line[len("@exact "):])
    return lines[:-1], exact, raw


def select(spec, raw, trace):
    """The declared metrics of one mode, with their declared units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = raw["metrics"]
    metrics, absent = {}, []
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"], 3)
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            fail("metric %s: %r does not match its declared unit %s"
                 % (m["name"], got, m["unit"]), 3)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print("not on this workload's path (reported as 0): " + ", ".join(absent),
              file=sys.stderr)
    return metrics


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-test")
    a = ap.parse_args()
    build()
    stamp = source_stamp()
    if a.workload != "all":
        report, _, raw = run_workload(a.workload, a.seed, a.seconds, a.trace,
                                      a.small, stamp)
        print("\n".join(report))
        result = {"correct": raw["correct"], "attempted": raw["attempted"],
                  "failed": raw["failed"],
                  "metrics": select(spec, raw, a.trace)}
        print(json.dumps(result), flush=True)
        return
    ok = True
    for name in names:
        report, _, raw = run_workload(name, a.seed, a.seconds, a.trace, a.small, stamp)
        print("\n".join(report))
        ok = ok and raw["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
