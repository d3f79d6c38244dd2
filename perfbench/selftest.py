#!/usr/bin/env python3
"""Fast self-test of the RTL-to-verdict benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds like run.py, then runs the program on every workload with a few
dozen ops and a few hundred resident rows, and checks that:
  * every end-to-end and per-layer metric in BENCHMARK.json is printed,
    with its unit, and nothing else;
  * two runs of a workload on one seed give the same verdict digest,
    piracy_accuracy and success_share;
  * resident_screen and remote_screen give the same digest on one seed;
  * a killed shard server and a stopped one are counted as failed ops
    within the op timeout, and no server outlives its run.
Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the runner: build() and its paths)

TINY = ["--ops", "60", "--library-rows", "300"]
STATE = run.BUILD / "selftest-state"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def program(workload, seed, trace, extra=()):
    command = [str(run.PROGRAM), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--shardd", str(run.SHARDD),
               "--state-dir", str(STATE)] + TINY + list(extra)
    started = time.monotonic()
    out = subprocess.run(command, capture_output=True, text=True, timeout=120)
    lines = out.stdout.splitlines()
    check(out.returncode == 0, f"{workload} trace={trace} {extra}: exit "
          f"{out.returncode}: {out.stderr[-500:]}")
    result = json.loads(lines[-1]) if out.returncode == 0 else None
    info = next((json.loads(l)["info"] for l in lines if l.startswith('{"info"')), {})
    return result, info, time.monotonic() - started


def expect_metrics(result, kind, workload, trace):
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result keys {sorted(result)}")
    check(got == wanted, f"{workload} trace={trace}: metrics/units differ: "
          f"missing {sorted(set(wanted) - set(got))}, extra "
          f"{sorted(set(got) - set(wanted))}, units "
          f"{[n for n in wanted if n in got and got[n] != wanted[n]]}")
    for name, m in result["metrics"].items():
        check(isinstance(m.get("value"), (int, float)),
              f"{workload}: {name} has no numeric value")


def live_servers():
    """PIDs of gnn4ip_shardd processes started from this build."""
    found = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes().split(b"\0")[0].decode()
        except OSError:
            continue
        if cmdline == str(run.SHARDD):
            found.append(int(proc.name))
    return found


def main():
    run.build()
    shutil.rmtree(STATE, ignore_errors=True)
    STATE.mkdir(parents=True)
    seed = 3
    digests = {}
    for workload in run.WORKLOADS:
        first, info1, _ = program(workload, seed, 0)
        second, info2, _ = program(workload, seed, 0)
        if first and second:
            expect_metrics(first, "end_to_end", workload, 0)
            check(first["correct"] and first["failed"] == 0,
                  f"{workload}: run not correct: {first}")
            for name in ("piracy_accuracy", "success_share"):
                check(first["metrics"][name]["value"] == second["metrics"][name]["value"],
                      f"{workload}: {name} differs between runs")
            check(info1.get("digest") and info1.get("digest") == info2.get("digest"),
                  f"{workload}: digests differ between runs: {info1} {info2}")
            digests[workload] = info1.get("digest")
        traced, _, _ = program(workload, seed, 1)
        if traced:
            expect_metrics(traced, "per_layer", workload, 1)
            check(traced["correct"], f"{workload} trace=1: run not correct")
    check(digests.get("resident_screen") == digests.get("remote_screen"),
          f"resident/remote digests differ: {digests}")

    # Fault injection: a dead server fails the remaining ops, a hung one
    # fails within the op timeout; neither hangs the run.
    for flag in ("--kill-server-at", "--stop-server-at"):
        result, _, seconds = program("remote_screen", seed, 0,
                                     (flag, "20", "--op-timeout-ms", "1000"))
        if result:
            check(result["failed"] > 0 and not result["correct"],
                  f"{flag}: failures not counted: {result}")
            check(result["metrics"]["success_share"]["value"] < 1,
                  f"{flag}: success_share not below 1")
        check(seconds < 60, f"{flag}: run took {seconds:.1f} s")
    check(not live_servers(), f"shard servers left running: {live_servers()}")

    if FAILURES:
        print(f"selftest: {len(FAILURES)} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
