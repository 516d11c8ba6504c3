#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds the program and
the benchmark from source with sbt (offline) into .bench_build/; later
calls rebuild only when a source or build file changed. The last line of
standard output is the result as one JSON object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("pipeline-small", "holdout-small")
# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ("build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt", "perfbench/project",
           "perfbench/src/main")
JVM_HEAP = "-Xmx2g"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            if "target" not in os.path.relpath(d, top).split(os.sep) for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_command():
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH; it is needed to build the program")
    opts = ["-Dsbt.log.noformat=true", "-Dsbt.offline=true"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    return [sbt, "--batch"] + opts


def build():
    """Compile the program and the benchmark; returns the runtime classpath."""
    for required in ("build.sbt", "src/main/scala", "perfbench/build.sbt"):
        if not os.path.exists(required):
            fail(f"{required} is missing: run from the root of a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    stamp_file = os.path.join(BUILD_DIR, "stamp")
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    stamp = source_stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return open(cp_file).read().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    cmd = sbt_command() + [f"-Djava.io.tmpdir={tmp}", "compile", "writeClasspath"]
    print(f"perfbench: building ({' '.join(cmd[2:])})", file=sys.stderr)
    res = subprocess.run(cmd, cwd="perfbench", env=env, stdout=sys.stderr, stderr=sys.stderr,
                         stdin=subprocess.DEVNULL, timeout=850)
    if res.returncode != 0 or not os.path.isfile(cp_file):
        fail("build failed", 3)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return open(cp_file).read().strip()


def run_jvm(classpath, master, argv, deadline):
    """Run perfbench.Main in its own JVM; returns (report lines, result dict)."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", JVM_HEAP, f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", classpath, "perfbench.Main"] + argv
    env = dict(os.environ, SPARK_MASTER=master, SPARK_LOCAL_DIRS=tmp)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out", 4)
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with {proc.returncode}", 5)
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    classpath = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    report, result = run_jvm(classpath, "local[4]", argv, deadline)
    if args.trace == 1 and args.workload == "pipeline-small":
        # The single-thread baseline: the same pass in a local[1] JVM. The
        # traced run reports its *.local1_wall_ms as 0 until this fills them.
        _, base = run_jvm(classpath, "local[1]", argv + ["--local1", "1"], deadline)
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
        result["correct"] = result["correct"] and base["correct"]
        result["metrics"].update(base["metrics"])
    for line in report:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
