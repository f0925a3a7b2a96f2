#!/usr/bin/env python3
"""Service benchmark for the OCTOPUS engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload cite-kim --seed 1 --seconds 10 --trace 0

Compiles the program (src/main/scala) together with the harness
(perfbench/src) with the Scala compiler shipped in Spark's jars, caches
the classes under .bench_build/ keyed by a hash of the sources, and runs
one benchmark JVM. The JVM's report goes to stderr; the last line of
stdout is the JSON result. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
# The DuckDB result oracle is a test aid whose JDBC jar is not among
# Spark's jars; no service uses it.
EXCLUDED = {PROGRAM_SOURCES / "repro" / "Oracle.scala"}

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

# Module opens Spark needs on JDK 17 (the list build.sbt passes to forked JVMs).
SPARK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        fail("no java on PATH")
    return found


def spark_jars():
    # Default: the Spark distribution build.sbt compiles against.
    jars = Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        fail(f"no Spark distribution with a Scala compiler at {jars}")
    return jars


def sources():
    if not PROGRAM_SOURCES.is_dir():
        fail(f"program sources not found at {PROGRAM_SOURCES}", 2)
    program = sorted(p for p in PROGRAM_SOURCES.rglob("*.scala") if p not in EXCLUDED)
    harness = sorted((HERE / "src").glob("*.scala"))
    if not program or not harness:
        fail("no Scala sources to build", 2)
    return program + harness


def build(java, jars, srcs):
    digest = hashlib.sha256()
    for src in srcs:
        digest.update(str(src.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(src.read_bytes())
    code_hash = digest.hexdigest()[:16]
    classes = BUILD / f"classes-{code_hash}"
    if (classes / ".complete").exists():
        return classes, code_hash
    BUILD.mkdir(parents=True, exist_ok=True)
    for stale in BUILD.glob("classes-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = BUILD / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    log(f"compiling {len(srcs)} sources")
    cmd = [java, "-Xss8m", "-Xmx2g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(s) for s in srcs]
    code = run_process(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)[0]
    if code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"compilation failed (exit {code})")
    (tmp / ".complete").touch()
    try:
        tmp.rename(classes)
    except OSError:
        # another run of the same sources finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return classes, code_hash


def run_process(cmd, timeout, stdout):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def self_check(workload, seed, code_hash, run_dir):
    """Compare the answer digest and deterministic counters with earlier
    runs of the same code and seed. Returns False on any difference."""
    current_file = run_dir / "selfcheck.json"
    if not current_file.exists():
        log("no self-check record was written")
        return False
    current = json.loads(current_file.read_text())
    record = BUILD / "selfcheck" / code_hash / f"{workload}-seed{seed}.json"
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(current, sort_keys=True) + "\n")
        log("self-check: first run of this code and seed, recorded")
        return True
    previous = json.loads(record.read_text())
    diffs = [k for k in sorted(set(previous) & set(current)) if previous[k] != current[k]]
    for k in diffs:
        log(f"DETERMINISM MISMATCH {k}: earlier {previous[k]}, now {current[k]}")
    if not diffs:
        log("self-check: digest and counters equal an earlier run of this code and seed")
    return not diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    # SIGTERM unwinds through run_process, which kills the child JVM's
    # process group and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    java = java_bin()
    jars = spark_jars()
    classes, code_hash = build(java, jars, sources())

    run_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    cmd = [java, "-Xmx3g", "-XX:+UseG1GC"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in SPARK_OPENS]
    cmd += [f"-Djava.io.tmpdir={run_dir / 'tmp'}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
            "-cp", f"{classes}{os.pathsep}{jars}/*", "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(run_dir)]
    try:
        code, out = run_process(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
        if code is None:
            fail(f"benchmark JVM exceeded {RUN_TIMEOUT_S} s and was killed")
        lines = out.splitlines()
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if code != 0 or not lines:
            fail(f"benchmark JVM exited with {code}")
        result = json.loads(lines[-1])
        if not self_check(args.workload, args.seed, code_hash, run_dir):
            result["correct"] = False
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), traces / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
