"""controkit benchmark: one command for every workload.

    python3 perfbench/run.py --workload comparison_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a controkit checkout; the package is imported from
``src/``, nothing is installed. Each workload runs in its own fresh process
with the BLAS thread count pinned in its environment. The report goes to
standard output, one metric per line with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` untraced, or its per-layer
metrics with ``--trace 1``. Result files, span dumps and the program's
log go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from environment import BLAS_THREAD_VARS  # noqa: E402

# One BLAS thread: controkit runs one closed-loop caller under the GIL.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def launch(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in a fresh process and return its result."""
    if not (ROOT / "src" / "controkit" / "__init__.py").is_file():
        raise BenchmarkError(f"no controkit sources under {ROOT / 'src'}; "
                             "run from the root of a controkit checkout")
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchmarkError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} printed no result")
    result = json.loads(lines[-1])
    missing = set(catalog.DRIVER_PER_LAYER if trace else catalog.DRIVER_END_TO_END)
    missing -= set(result.get("per_layer" if trace else "end_to_end", {}))
    if missing:
        raise BenchmarkError(f"{workload} measured no {sorted(missing)}: {result['failures']}")
    if trace:
        check_counts_repeat(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return result


def check_counts_repeat(result: dict) -> None:
    """Counts of a traced run must equal those of the last traced run of the
    same sources, workload, seed and size; a mismatch is a failure."""
    env = result["environment"]
    counts = {k: v for k, v in result["per_layer"].items()
              if catalog.PER_LAYER[k] in ("count", "B", "ratio")}
    size = "smoke" if result["smoke"] else "full"
    path = OUT / f"counts-{result['workload']}-seed{result['seed']}-{size}.json"
    record = {"source_sha256": env["source_sha256"], "counts": counts}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["source_sha256"] == env["source_sha256"]:
            differ = sorted(k for k in counts if previous["counts"].get(k) != counts[k])
            result["counts_checked_against_previous_run"] = True
            if differ:
                result["failed"] += 1
                result["failures"].append(f"counts differ from the previous traced run: {differ}")
            result["attempted"] += 1
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def print_report(result: dict) -> None:
    w = result["workload"]
    env = result["environment"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"passes={result['passes']}  seconds={result['seconds']}")
    print(f"   nproc={env['nproc']}  pinned_to_cpus={env['cpu_affinity']}  "
          f"cpu={env['cpu_model']}  caches={env['caches']}")
    print(f"   python={env['python']}  numpy={env['numpy']}  scipy={env['scipy']}  "
          f"blas={env['blas']}  threads={env['blas_threads']}")
    print(f"   commit={env['git_commit']}  sources={env['source_sha256'][:16]}  "
          f"embedding_table_bytes={env['embedding_table_bytes']}")
    for name, (unit, _, workloads, _) in catalog.END_TO_END.items():
        if w in workloads:
            print(f"   {name:<28} {result['end_to_end'][name]:>14.6g} {unit}")
    print(f"   attempted={result['attempted']}  failed={result['failed']}")
    for note in result["failures"]:
        print(f"   FAILED: {note}")
    if result["trace"]:
        for layer, (names, moves, where) in catalog.LAYERS.items():
            print(f"   [{layer}] should move {', '.join(moves)} on {where}")
            for name in names:
                print(f"      {name:<44} {result['per_layer'][name]:>14.6g} "
                      f"{catalog.PER_LAYER[name]}")
        print("   tracing overhead (traced minus untraced pass medians):")
        for name, delta in result["tracing_overhead"].items():
            print(f"      {name:<28} {delta:>+14.6g} {catalog.END_TO_END[name][0]}")


def driver_line(results: list, trace: int, prefix: bool) -> dict:
    metrics = {}
    for r in results:
        names = catalog.DRIVER_PER_LAYER if trace else catalog.DRIVER_END_TO_END
        source = r["per_layer"] if trace else r["end_to_end"]
        for name in names:
            unit = catalog.PER_LAYER[name] if trace else catalog.END_TO_END[name][0]
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": source[name], "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Tiny sizes, every workload, untraced and twice traced: every named
    metric must appear with its unit, counts must repeat, checks must pass."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in spec["end_to_end"]] != list(catalog.DRIVER_END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from catalog.DRIVER_END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(catalog.DRIVER_PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from catalog.DRIVER_PER_LAYER")
    for w in catalog.WORKLOADS:
        (OUT / f"counts-{w}-seed1-smoke.json").unlink(missing_ok=True)
        for run_no, trace in enumerate((0, 1, 1)):
            result = launch(w, seed=1, seconds=1, trace=trace, smoke=True)
            print_report(result)
            if run_no == 2 and not result.get("counts_checked_against_previous_run"):
                problems.append(f"{w}: second traced run was not compared with the first")
            if result["failed"]:
                problems.append(f"{w} trace={trace}: {result['failures']}")
            for name, (_, _, workloads, _) in catalog.END_TO_END.items():
                if w in workloads and name not in result["end_to_end"]:
                    problems.append(f"{w}: end-to-end metric {name} missing")
            if trace:
                missing = set(catalog.PER_LAYER) - set(result["per_layer"])
                if missing:
                    problems.append(f"{w}: per-layer metrics missing: {sorted(missing)}")
            line = driver_line([result], trace, prefix=False)
            for name, entry in line["metrics"].items():
                if not entry.get("unit") or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{w}: {name} lacks a unit or a value")
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="controkit benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads, metric presence checks")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        names = catalog.WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for w in names:
            results.append(launch(w, args.seed, args.seconds, args.trace, smoke=False))
            print_report(results[-1])
        line = driver_line(results, args.trace, prefix=args.workload == "all")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
