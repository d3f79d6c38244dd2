#!/usr/bin/env python3
"""RTL-to-verdict benchmark runner.

    python3 perfbench/run.py --workload rtl_audit --seed 1 --seconds 20 --trace 0

Run from the root of a gnn4ip checkout. The first run configures and
builds perfbench/ (the repository's library and gnn4ip_shardd plus the
benchmark program) into .bench_build/ as a Release build; later runs
only re-check the build. It refuses to measure a build whose
CMakeCache.txt is not Release with GNN4IP_SANITIZE off.

The program's stdout is passed through, preceded by one
{"host": ...} line (cores, CPU model, compiler, build type, load
average at start and end). The last line is the result object
{"correct", "attempted", "failed", "metrics"}. Workloads:

  rtl_audit        Verilog text through submit()+screen(), 1 shard, inline
  resident_screen  pre-featurized designs against ~10k resident rows,
                   2 shards x 2 threads, int8 prefilter, 4 submits : 1 top_k
                   (one submit in four a probe of a family never resident)
  remote_screen    the resident_screen ops over 2 gnn4ip_shardd processes

Extra flags after the standard four are passed to the program (see
perfbench/src/main.cpp); perfbench/selftest.py uses them for tiny runs.
"""
import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "rtl_verdict_bench"
SHARDD = BUILD / "gnn4ip" / "gnn4ip_shardd"
STATE = BUILD / "state"
# Everything the program's verdicts depend on; the digest store is kept
# per hash of these, so a run checks its verdicts only against earlier
# runs of the same code.
CODE = ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt", "perfbench/src")
RUN_TIMEOUT_S = 170
WORKLOADS = ("rtl_audit", "resident_screen", "remote_screen")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cmake_cache():
    values = {}
    path = BUILD / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def build():
    """Configure once, then bring the program and the server up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a gnn4ip checkout (no CMakeLists.txt or src/)")
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DGNN4IP_SANITIZE=OFF",
             "-DGNN4IP_WERROR=OFF"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "rtl_verdict_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to measure: CMAKE_BUILD_TYPE is "
             f"{cache.get('CMAKE_BUILD_TYPE')!r}, not 'Release'")
    if cache.get("GNN4IP_SANITIZE", "OFF").upper() not in ("OFF", "0", "FALSE", "NO", ""):
        fail("refusing to measure: GNN4IP_SANITIZE is "
             f"{cache.get('GNN4IP_SANITIZE')!r}")
    return cache


def code_hash():
    digest = hashlib.sha256()
    for top in CODE:
        path = ROOT / top
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def host_record(cache):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "sanitize": cache.get("GNN4IP_SANITIZE", "OFF"),
        "loadavg_start": list(os.getloadavg()),
    }


def die_with_parent():
    """Runs in the child before exec: SIGKILL it if this runner dies."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_program(args, extra):
    """Run the benchmark program once; returns (exit code, stdout lines)."""
    state = STATE / code_hash()
    command = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shardd", str(SHARDD), "--state-dir", str(state)] + extra
    state.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             preexec_fn=die_with_parent)

    def forward(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s", code=1)
    return child.returncode, out.splitlines()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args(argv)

    cache = build()
    host = host_record(cache)
    code, lines = run_program(args, extra)
    host["loadavg_end"] = list(os.getloadavg())
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        for line in lines:
            print(line)
        fail(f"benchmark program failed (exit {code}); no result", code=code or 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
