#!/usr/bin/env python3
"""Launcher for the layered benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload static-mc --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the benchmark and the
program from the checkout's sources with sbt (offline) and records the
classpath under .bench_build/perfbench; later runs reuse it until a source
file changes. The benchmark itself runs in one JVM, whose last line of
standard output is the JSON result.
"""

import hashlib
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
# Inputs of the build: the program's sources and the benchmark's own.
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src", "main"),
           os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for src in SOURCES:
        paths = [src] if os.path.isfile(src) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout_s, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    timer = threading.Timer(timeout_s, lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out


def classpath():
    stamp = source_stamp()
    stamp_file = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read()
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", " ".join([
        "-Dsbt.override.build.repos=true",
        "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories"),
        "-Dsbt.offline=true", "-Xmx4g"]))
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in (out or "").splitlines() if l.strip()]
    if code != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write(out or "")
        fail(f"build failed (sbt exit {code})", 3)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def driver_mem():
    """SPARK_DRIVER_MEM as the tier-1 command derives it: half of RAM, 2g to 8g."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def git_commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                           capture_output=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("no program sources under src/main/scala; run from a full checkout")
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cp = classpath()
    mem = driver_mem()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    env = dict(os.environ, SPARK_DRIVER_MEM=mem, PERFBENCH_GIT_COMMIT=git_commit(),
               SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"))
    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = [java, f"-Xmx{mem}", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + os.path.join(OUT, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
           "-cp", cp, "repro.perfbench.Main", *sys.argv[1:], "--out", OUT]
    code, _ = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
