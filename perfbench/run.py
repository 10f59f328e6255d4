#!/usr/bin/env python3
"""rpcc's benchmark: builds the harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

prints every metric with its unit and sample count, a provenance line, and as
the last line of stdout one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Other modes:
    --workload all       run paper, serve and edit in turn, each printing its
                         metrics and result line
    --steadiness N       run the workload N times (seeds SEED..SEED+N-1) and
                         print each end-to-end metric's median, quartiles,
                         min/max and quartile spread
    --selftest           corrupt one reply of a short paper and serve run and
                         require ok_frac < 1; require a clean run to pass
    --write-golden       regenerate perfbench/golden/*.json from this build
    --build-type T       Release (default) or RelWithDebInfo

See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "serve", "edit")
# One run must end within 180 s; leave room for start-up and the drain.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the benchmark builds (an exported tree has no .git)."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_type):
    """Configures and builds rpbench and rpserved; returns the build dir."""
    bdir = os.path.join(ROOT, ".bench_build", build_type.lower())
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=" + build_type],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if cfg.returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", bdir, "--target", "rpbench", "rpserved",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError("build failed")
    return bdir


def harness_cmd(bdir, workload, seed, seconds, trace, extra=()):
    out = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out, exist_ok=True)
    return [os.path.join(bdir, "rpbench"),
            "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%d" % seconds, "--trace=%d" % trace,
            "--root=" + ROOT, "--golden=" + os.path.join(HERE, "golden"),
            "--daemon=" + os.path.join(bdir, "rpcc", "tools", "rpserved"),
            "--out=" + out, "--source-id=" + SOURCE_ID] + list(extra)


def run_once(bdir, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the harness; returns (exit code, result dict or None, the result
    line as printed)."""
    try:
        res = subprocess.run(harness_cmd(bdir, workload, seed, seconds, trace,
                                         extra),
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None, ""
    lines = res.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if res.returncode != 0 or not lines:
        return res.returncode or 1, None, ""
    try:
        return 0, json.loads(lines[-1]), lines[-1]
    except ValueError:
        log("harness printed no result")
        return 1, None, ""


def steadiness(bdir, args, workload):
    names, units, values = [], {}, {}
    for k in range(args.steadiness):
        seed = args.seed + k
        rc, result, _ = run_once(bdir, workload, seed, args.seconds,
                                 args.trace, echo=False)
        if rc != 0 or not result or not result["correct"]:
            log("run with seed %d failed" % seed)
            return 1
        for name, m in result["metrics"].items():
            if name not in values:
                names.append(name)
                values[name] = []
            units[name] = m["unit"]
            values[name].append(m["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (name, m["value"])
            for name, m in result["metrics"].items()
            if m["unit"] not in ("count", "frac"))))
    print("workload %s, %d runs (seeds %d..%d), --seconds %d, --trace %d, %s"
          % (workload, args.steadiness, args.seed,
             args.seed + args.steadiness - 1, args.seconds, args.trace,
             SOURCE_ID))
    print()
    print("| metric | unit | median | q1 | q3 | min | max | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("| %s | %s | %.6g | %.6g | %.6g | %.6g | %.6g | %.4f |"
              % (name, units[name], med, q1, q3, min(v), max(v), spread))
    print(flush=True)
    return 0


def selftest(bdir):
    ok = True
    for workload in ("paper", "serve"):
        rc, r, _ = run_once(bdir, workload, 1, 1, 0, ["--corrupt-op=0"],
                            echo=False)
        frac = r["metrics"]["ok_frac"]["value"] if r else None
        good = rc == 0 and r and not r["correct"] and r["failed"] >= 1 \
            and frac < 1
        print("selftest %s with one corrupted reply: ok_frac=%s correct=%s "
              "-> %s" % (workload, frac, r and r["correct"],
                         "ok" if good else "FAIL"))
        ok = ok and bool(good)
        rc, r, _ = run_once(bdir, workload, 1, 1, 0, echo=False)
        good = rc == 0 and r and r["correct"] and \
            r["metrics"]["ok_frac"]["value"] == 1
        print("selftest %s clean: ok_frac=%s -> %s"
              % (workload, r and r["metrics"]["ok_frac"]["value"],
                 "ok" if good else "FAIL"))
        ok = ok and bool(good)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build-type", default="Release",
                   choices=("Release", "RelWithDebInfo"))
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.selftest or args.write_golden):
        p.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")

    # The benchmark builds the program from this checkout; without its
    # sources there is nothing to measure.
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/rpserved.cpp",
                 "bench/programs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("no rpcc source tree here (missing %s)" % need)
            return 2

    global SOURCE_ID
    SOURCE_ID = source_id()
    try:
        bdir = build(args.build_type)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2
    if args.write_golden:
        return subprocess.run(
            [os.path.join(bdir, "rpbench"), "--write-golden",
             "--root=" + ROOT, "--golden=" + os.path.join(HERE, "golden")]
        ).returncode
    if args.selftest:
        return selftest(bdir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.steadiness:
        return max(steadiness(bdir, args, w) for w in workloads)
    worst = 0
    for workload in workloads:
        if len(workloads) > 1:
            print("== %s ==" % workload)
        rc, result, line = run_once(bdir, workload, args.seed, args.seconds,
                                    args.trace)
        if rc != 0 or result is None:
            worst = max(worst, rc or 1)
            continue
        print(line, flush=True)
    return worst


SOURCE_ID = "unknown"

if __name__ == "__main__":
    sys.exit(main())
