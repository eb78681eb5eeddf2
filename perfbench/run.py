#!/usr/bin/env python3
"""Build and run the swATOP benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library sources plus the benchmark program (Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr, so the benchmark's
JSON result stays the last line of stdout. Workloads: cold_compile_b8,
warm_resnet_b1, serve_mix, or all (the three in one process).

For a single workload the result must hold exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1); a missing one fails the run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def manifest_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for the mode."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        m = json.load(f)
    return {e["name"]: e["unit"]
            for e in m["per_layer" if trace else "end_to_end"]}


def check_result(line: str, trace: bool) -> str:
    """The result line with exactly the manifest's metrics; raises
    ValueError when one is missing or has another unit."""
    result = json.loads(line)
    want = manifest_metrics(trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    if missing:
        raise ValueError("metrics missing from the result: " +
                         ", ".join(missing))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise ValueError(f"{name} is in {got[name]['unit']}, "
                             f"BENCHMARK.json says {unit}")
    result["metrics"] = {name: got[name] for name in want}
    return json.dumps(result)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    # Determinism records and caches are kept per binary, so a rebuilt
    # program never compares itself with another program's results.
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    state = build_dir / "state" / digest
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--state-dir", str(state)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 4
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    result = lines[-1]
    if a.workload != "all":
        try:
            result = check_result(result, a.trace == "1")
        except (ValueError, KeyError, TypeError) as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 5
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
