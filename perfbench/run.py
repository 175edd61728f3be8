#!/usr/bin/env python3
"""Host-time benchmark of the HARL simulator, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan_regions --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-fingerprints

Builds perfbench/ (which compiles ../src) in Release into $CARGO_TARGET_DIR,
default .bench_build, then runs harl_perfbench for one workload in its own
process.  The last stdout line is the result JSON: correct, attempted,
failed, metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run; the traced run's spans are written to
<build dir>/spans-<workload>-<seed>.json.

--self-test runs every workload at reduced length: every metric named in
BENCHMARK.json must print with its unit, the default seed must reproduce the
recorded fingerprints, and a deliberately corrupted fingerprint or byte count
must make every op fail.  --record-fingerprints rewrites fingerprints.json
from the default seed's outputs.
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
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
# The seed the fingerprints in fingerprints.json were recorded at.
FINGERPRINT_SEED = 7
# Leaves the result budget (180 s) room for setup and the last op.
RUN_TIMEOUT_MARGIN_S = 120


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds harl_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no HARL sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "harl_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(out, "harl_perfbench")


def commit():
    """The checkout's commit, or a digest of its sources when not in git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--commit", commit()]
    if trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, seed))]
    if seed == FINGERPRINT_SEED and os.path.isfile(FINGERPRINTS):
        recorded = load_json(FINGERPRINTS).get(workload)
        if recorded:
            args += ["--expect-fingerprint", recorded]
    args += list(extra)
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=seconds + RUN_TIMEOUT_MARGIN_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("harl_perfbench exited with %d" % proc.returncode, 4)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def self_test(binary):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = {False: spec["end_to_end"], True: spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print("  %-4s %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        print("workload " + w)
        for trace in (False, True):
            lines, result = run_once(binary, w, FINGERPRINT_SEED, 1, trace)
            metrics = result["metrics"]
            want = expected[trace]
            expect(set(metrics) == {m["name"] for m in want},
                   "trace=%d prints exactly the listed metrics" % trace)
            expect(all(metrics[m["name"]]["unit"] == m["unit"]
                       for m in want if m["name"] in metrics),
                   "trace=%d units match BENCHMARK.json" % trace)
            printed = "\n".join(lines[:-1])
            expect(all(m["name"] in printed for m in want),
                   "trace=%d every metric printed by name" % trace)
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   "trace=%d correct, failed_frac 0 at seed %d" %
                   (trace, FINGERPRINT_SEED))
            if not trace:
                expect("failed_frac" in printed, "failed_frac printed")
        for corrupt in ("fingerprint", "bytes"):
            _, result = run_once(binary, w, FINGERPRINT_SEED, 1, False,
                                 ["--corrupt", corrupt])
            expect(not result["correct"] and
                   result["failed"] == result["attempted"] >= 1,
                   "corrupted %s fails every op (failed_frac 1)" % corrupt)
    if problems:
        print("self-test FAILED: %d check(s)" % len(problems))
        return 1
    print("self-test passed")
    return 0


def record_fingerprints(binary):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    recorded = {}
    for w in [w["name"] for w in spec["workloads"]]:
        args = [binary, "--workload", w, "--seed", str(FINGERPRINT_SEED),
                "--seconds", "0.001", "--trace", "0"]
        out = subprocess.run(args, capture_output=True, text=True, check=True)
        for line in out.stdout.splitlines():
            if line.startswith("# fingerprint "):
                recorded[w] = line.split()[-1]
    with open(FINGERPRINTS, "w") as f:
        json.dump(recorded, f, indent=2, sort_keys=True)
        f.write("\n")
    print("recorded " + json.dumps(recorded))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    if not (args.self_test or args.record_fingerprints) and (
            args.workload is None or args.seed is None or
            args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_fingerprints:
        return record_fingerprints(binary)
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
