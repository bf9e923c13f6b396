#!/usr/bin/env python3
"""The repo benchmark: builds the library and the `perfbench` measuring
binary from source, runs one workload in its own process, checks its outputs
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paper-table4 --seed 1 --seconds 36 --trace 0

Run from the repository root. BENCHMARK.json there declares the workloads and
metrics; --trace 0 reports every end-to-end metric, --trace 1 every per-layer
metric (0 for a layer the workload never enters). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A failed build, a failed unit of work or a failed output check exits
non-zero without printing it. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A refused build, run or output; the benchmark exits non-zero."""


def validate_spec(spec):
    """Checks BENCHMARK.json against the benchmark contract; returns it."""
    if set(spec) != SPEC_KEYS:
        raise BenchError(f"BENCHMARK.json keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in command)):
        raise BenchError("command must be a list of 1..32 strings of <= 200 characters")
    if any(a.startswith("/") or ".." in a.split("/") for a in command):
        raise BenchError("command may not name absolute paths or leave the repo")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and not p.startswith("/") and
                ".." not in p.split("/") for p in paths)):
        raise BenchError("paths must be 1..16 relative directories")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        raise BenchError("run_seconds must be a whole number in 1..60")
    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        raise BenchError("there must be 2..8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"}:
            raise BenchError(f"workload keys must be name and why: {w}")
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            raise BenchError(f"workload {w['name']}: why must be one line of <= 200 characters")
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    if not (isinstance(end_to_end, list) and 1 <= len(end_to_end) <= 16):
        raise BenchError("there must be 1..16 end-to-end metrics")
    if not (isinstance(per_layer, list) and 1 <= len(per_layer) <= 128):
        raise BenchError("there must be 1..128 per-layer metrics")
    for m in end_to_end:
        if set(m) != {"name", "unit", "better", "bound"}:
            raise BenchError(f"end-to-end metric keys: {m}")
        bound = m["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool) and
                0 < bound <= MAX_BOUND):
            raise BenchError(f"metric {m['name']}: bound must be in (0, {MAX_BOUND}]")
    for m in per_layer:
        if set(m) != {"name", "unit", "better"}:
            raise BenchError(f"per-layer metric keys: {m}")
    names = [w["name"] for w in workloads] + [m["name"] for m in end_to_end + per_layer]
    for name in names:
        if not (isinstance(name, str) and NAME_RE.match(name)):
            raise BenchError(f"bad name {name!r}")
    if len(set(names)) != len(names):
        raise BenchError("names must be unique")
    for m in end_to_end + per_layer:
        if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
            raise BenchError(f"metric {m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            raise BenchError(f"metric {m['name']}: better must be lower or higher")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        raise BenchError("setup_s (unit s, lower is better) must be an end-to-end metric")
    return spec


def validate_report(report, spec, trace):
    """Checks one perfbench result; returns the metric values to publish.

    Refuses a report with a failed unit, a failed check, a missing or unknown
    metric, or a non-finite value. With trace off every end-to-end metric
    must be present and non-zero; with trace on, per-layer metrics the
    workload never measured are reported as 0.
    """
    for key, kind in (("attempted", int), ("failed", int), ("checks", list), ("metrics", dict)):
        if not isinstance(report.get(key), kind) or isinstance(report.get(key), bool):
            raise BenchError(f"result field {key!r} missing or not a {kind.__name__}")
    if report["attempted"] < 1:
        raise BenchError("no unit of work was attempted")
    if not 0 <= report["failed"] <= report["attempted"]:
        raise BenchError("failed units outside [0, attempted]")
    if report["failed"] > 0 or report["checks"]:
        raise BenchError(f"{report['failed']} of {report['attempted']} units failed; "
                         f"checks: {report['checks']}")
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(report["metrics"]) - declared)
    if unknown:
        raise BenchError(f"undeclared metrics {unknown}")
    for name, value in report["metrics"].items():
        if not (isinstance(value, (int, float)) and not isinstance(value, bool) and
                math.isfinite(value)):
            raise BenchError(f"metric {name} = {value!r} is not a finite number")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        value = report["metrics"].get(m["name"])
        if value is None:
            if not trace:
                raise BenchError(f"end-to-end metric {m['name']} missing")
            value = 0
        elif not trace and value == 0:
            raise BenchError(f"end-to-end metric {m['name']} is 0")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def result_line(report, metrics):
    return json.dumps({"correct": True, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def source_digest(root):
    """sha256 over the sources the binary is built from (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    with open(os.path.join(root, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where it is unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def build(root, build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at the repository root: nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        done = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    done = subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(build_dir, "perfbench")


def run(args):
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        raise BenchError("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as f:
        spec = validate_spec(json.load(f))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, stem + ".json")
    trace_path = os.path.join(out_dir, stem + ".spans.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--la_backend={args.backend}", f"--la_threads={args.threads}",
               f"--out={result_path}"]
    if args.trace:
        command.append(f"--trace_out={trace_path}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PPFR_")}
    ticks_before = cpu_ticks()
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=RUN_TIMEOUT_S)
    ticks_after = cpu_ticks()
    if not os.path.isfile(result_path):
        raise BenchError(f"perfbench exited with {done.returncode} and wrote no result")
    with open(result_path) as f:
        report = json.load(f)
    metrics = validate_report(report, spec, args.trace)
    if done.returncode != 0:
        raise BenchError(f"perfbench exited with {done.returncode}")

    host = dict(report.get("host", {}))
    # CPU time the hypervisor gave to other guests during the run: on a
    # shared host it explains runs that are slow for no reason in the code.
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    host.update({"workload": args.workload, "seed": args.seed, "units": report.get("units"),
                 "source_sha256": source_digest(root),
                 "git_commit": git_commit(root), "steal_frac": steal})
    print("host " + json.dumps(host, sort_keys=True))
    print(result_line(report, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", default="parallel",
                        choices=("reference", "parallel", "simd"))
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        parser.error("--seed must be >= 0; --seconds and --threads positive")
    try:
        run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
