"""ridgekit benchmark: one seeded workload, timed through the public API.

    python3 perfbench/run.py --workload corpus256 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from a checkout of the repository; the program is imported from its
`src/`. The benchmark generates the workload's images from the seed, writes
them under `.perfbench_work/`, starts one fresh workload process
(measure.py) that times the program and checks its outputs, then measures
`setup_s` in fresh interpreters one at a time. It prints each metric by
name with its unit, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
Serial times are reported at a fixed reference speed of the machine
(speed.py).

`--selftest` runs every workload in both modes on a few images and checks
that each metric of BENCHMARK.json appears with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s

# a fresh interpreter: import ridgekit, finish the first extract_from_image
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ridgekit; "
    "ridgekit.extract_from_image(ridgekit.load_pgm(sys.argv[2]), 'setup', "
    "ridgekit.PipelineConfig())"
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def setup_seconds(first_image: Path, deadline: float) -> float:
    """Median wall time of SETUP_RUNS fresh interpreters, one at a time.
    Not scaled to the reference speed: interpreter start-up and imports do
    not follow the calibration kernel."""
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(first_image)],
            check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def measure(work: Path, seconds: float, trace: int, deadline: float) -> dict:
    """Run the workload process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--work", str(work),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    *notes, last = proc.stdout.strip().splitlines()
    for note in notes:
        print(note)
    return json.loads(last)


def run(workload: str, seed: int, seconds: float, trace: int,
        limit: int | None = None) -> dict:
    """Generate, measure and check one workload; returns the result object."""
    import numpy
    import scipy
    import workloads  # imports ridgekit, so only once src/ is on the path

    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    items = workloads.make(workload, seed, WORK / "cache", limit)
    workloads.write(items, work / "data", work / "truth")

    result = measure(work, seconds, trace, deadline)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = setup_seconds(work / "data" / f"{items[0].image_id}.pgm", deadline)
    problems = list(result["problems"])
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} missing or unexpected")

    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}")
    digest = result["digests"]["w1"]
    print(f"# output digest {digest}")
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    if seed == baseline["seed"] and limit is None:
        same = digest == baseline["digests"].get(workload)
        print(f"# output digest {'matches' if same else 'DIFFERS from'} the "
              f"seed-{seed} baseline in perfbench/baseline.json")
    for problem in problems:
        print(f"# check failed: {problem}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units.get(name, '?')}")
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }


def selftest() -> bool:
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], 0, 1.0, trace, limit=2)
            want = spec["per_layer" if trace else "end_to_end"]
            got = res["metrics"]
            bad = [m["name"] for m in want
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
            passed = res["correct"] and not bad and len(got) == len(want)
            ok &= passed
            print(f"selftest {w['name']} trace={trace}: "
                  f"{'ok' if passed else f'FAILED (missing or wrong unit: {bad})'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description="ridgekit benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "ridgekit" / "__init__.py").is_file():
        print(f"error: no ridgekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        return 0 if selftest() else 1
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = args.seconds or load_spec()["run_seconds"]
    result = run(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
