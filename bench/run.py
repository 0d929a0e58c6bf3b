"""Run the repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python bench/run.py                          # every workload
    python bench/run.py --workload engines --seed 7 --seconds 15
    python bench/run.py --trace --json out.json  # plus one traced iteration

Each workload's timed section runs in a fresh child process
(``child.py``), again and again until ``--seconds`` have passed and at
least ``--repeat`` iterations are done.  Every end-to-end metric is
printed by name and unit as a median with quartiles and the sample
count.  Times are in reference seconds: each iteration's measured times
scaled by how fast the host ran a fixed probe kernel around it (see
:func:`probe_host_speed`); ``--json`` keeps the measured ones too.
Every output is checked — the digest must be equal across iterations
and match ``expected.json`` where that pins the seed — and a failed
operation or check makes the run exit 1.

With ``--trace`` (or ``--trace 1``) one more, traced iteration follows;
the result line then carries the per-layer metrics, and the span list
lands in ``.bench_work/trace-<workload>.json``.

The last line of standard output is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}``.  A checkout without ``src/repro`` exits 2 before running.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from summary import summarize
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

#: Everything one workload runs — cache fill, iterations, the traced
#: iteration — must end this long after it starts, or the child still
#: running is killed (with its workers) and counts as a failure.  It
#: keeps a one-workload run inside a 180 s limit on a slow host.
WORKLOAD_BUDGET_S = 160

#: Set for the whole run, children included.  Idle BLAS threads spin on
#: a two-core host, adding up to half again the CPU time and +-10% wall
#: noise, so BLAS gets one thread.  The hash seed is fixed because fig11
#: breaks ties by iterating a set of site ids, whose order follows the
#: string hash.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Median :func:`probe_host_speed` over 140 iterations on the baseline
#: host: reference seconds are seconds at this probe speed.
REFERENCE_PROBE_S = 0.140


def probe_host_speed() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    Neighbours on a shared host slow a whole run by a quarter or more
    for minutes at a time.  Over ten runs per workload, wall time moved
    with this probe (correlation 0.83-0.93 on three of the four
    workloads), and scaling by it cut the widest spread of run medians
    from 0.26 to 0.18.  Between two back-to-back ten-seed passes the
    scaled medians moved by at most 11 % where the measured ones moved
    by up to 28 %.  It runs in this process, which never imports the
    library, so no change to the library can move it.
    """
    import numpy as np

    values = np.random.default_rng(0).random(1_000_000)
    matrix = np.random.default_rng(1).random((64, 96))
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i % 7
    for _ in range(8):
        np.sort(values)
        np.exp(values) * values + values
    for _ in range(2000):
        matrix @ matrix.T
    return time.perf_counter() - start


def host_fingerprint() -> dict[str, object]:
    """Core count, CPU model, RAM and interpreter/numpy versions."""
    cpu_model = ram_gb = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_gb = round(int(line.split()[1]) / 2**20, 1)
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "ram_gb": ram_gb, "python": platform.python_version(),
            "numpy": numpy_version}


def run_child(workload: str, seed: int, cache_dir: Path, workdir: Path,
              deadline: float, check: bool = False,
              trace_file: Path | None = None) -> tuple[dict | None, str | None]:
    """One iteration in a fresh process: ``(result, None)`` or
    ``(None, error)``.

    The child runs in its own session so that hitting ``deadline`` (a
    :func:`time.perf_counter` value) kills its worker processes too;
    every process is reaped before this returns.
    """
    command = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
               str(cache_dir)]
    if check:
        command.append("--check")
    if trace_file is not None:
        command += ["--trace", str(trace_file)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir / "tmp")
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(0.0, deadline - time.perf_counter()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None, f"{workload} iteration timed out"
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return None, f"{workload} iteration exited {proc.returncode}: {tail}"
    return json.loads(lines[-1]), None


def run_workload(name: str, seed: int, seconds: float, repeat: int,
                 trace: bool, workdir: Path, pinned: dict[str, str],
                 end_to_end: list[dict]) -> dict[str, object]:
    """Iterate one workload, check its outputs, summarise its metrics."""
    operations: list[dict] = []
    iterations: list[dict] = []
    traced = None
    cache_dir = workdir / name
    deadline = time.perf_counter() + WORKLOAD_BUDGET_S
    if name == "trace-analyze":
        # Fill the cache in a process of its own, so neither its time nor
        # its memory lands in this workload's numbers.
        _, error = run_child("trace-render", seed, cache_dir, workdir,
                             deadline)
        operations.append({"name": "fill-cache", "error": error})
    probe_s = probe_host_speed()

    def iteration(op: str, **options) -> dict | None:
        nonlocal probe_s
        result, error = run_child(name, seed, cache_dir, workdir, deadline,
                                  **options)
        probe_after = probe_host_speed()
        if name == "trace-render":  # every iteration renders cold
            shutil.rmtree(cache_dir, ignore_errors=True)
        if error is not None:
            operations.append({"name": op, "error": error})
        else:
            result["speed"] = REFERENCE_PROBE_S / ((probe_s + probe_after) / 2)
        probe_s = probe_after
        return result

    loop_start = time.perf_counter()
    while not any(op["error"] for op in operations):
        if len(iterations) >= repeat \
                and time.perf_counter() - loop_start >= seconds:
            break
        result = iteration("iteration", check=not iterations)
        if result is not None:
            iterations.append(result)
    trace_file = None
    if trace and iterations:
        trace_file = WORK / f"trace-{name}.json"
        traced = iteration("traced-iteration", trace_file=trace_file)

    runs = iterations + ([traced] if traced is not None else [])
    for run in runs:
        operations += run["operations"]
    digests = {run["digest"] for run in runs}
    if runs:
        operations.append({
            "name": "digest-stable",
            "error": None if len(digests) == 1 and None not in digests
            else f"iterations disagree on the output digest: {digests}"})
    if str(seed) in pinned and runs:
        want = pinned[str(seed)]
        operations.append({
            "name": "digest-pinned",
            "error": None if digests == {want}
            else f"digest {sorted(map(str, digests))} != pinned {want}"})
    failed = [op for op in operations if op["error"] is not None]
    metrics = {}
    for metric in end_to_end if iterations else ():
        measured = [run[metric["name"]] for run in iterations]
        values = measured if metric["unit"] != "s" else [
            value * run["speed"] for value, run in zip(measured, iterations)]
        metrics[metric["name"]] = {**summarize(values), "values": values,
                                   "measured": measured}
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        untraced = metrics["wall_s"]["median"]
        layers["obs.trace_overhead_pct"] = \
            100.0 * (traced["wall_s"] * traced["speed"] - untraced) / untraced
    return {
        "workload": name, "seed": seed, "iterations": len(iterations),
        "correct": not failed and bool(iterations) and (
            not trace or layers is not None),
        "attempted": len(operations), "failed": len(failed),
        "errors": [f"{op['name']}: {op['error']}" for op in failed],
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "speed": [run["speed"] for run in iterations],
        "metrics": metrics, "layers": layers,
        "trace_file": (str(trace_file.relative_to(ROOT))
                       if traced is not None else None),
    }


def result_line(result: dict, spec: dict, trace: bool) -> dict[str, object]:
    """The one-line JSON verdict for ``result``.

    Raises:
        KeyError: when the harness and ``BENCHMARK.json`` disagree on the
            metric names — a bug in the benchmark, never in the program.
    """
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {}}
    if trace:
        values = result["layers"] or {}
        declared = spec["per_layer"]
    else:
        values = {name: stats["median"]
                  for name, stats in result["metrics"].items()}
        declared = spec["end_to_end"]
    if result["correct"]:
        names = [metric["name"] for metric in declared]
        if sorted(names) != sorted(values):
            raise KeyError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    for metric in declared:
        if metric["name"] in values:
            line["metrics"][metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]}
    return line


def print_table(result: dict, spec: dict) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"{result['workload']}  seed={result['seed']}  "
          f"iterations={result['iterations']}  {verdict} "
          f"({result['attempted']} operations, {result['failed']} failed)")
    for error in result["errors"]:
        print(f"  error: {error}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if result["metrics"]:
        print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'n':>4}{'measured':>12}")
    for name, stats in result["metrics"].items():
        measured = summarize(stats["measured"])["median"]
        print(f"  {name:<14}{units.get(name, '?'):<6}"
              f"{stats['median']:>12.4f}{stats['q1']:>12.4f}"
              f"{stats['q3']:>12.4f}{stats['n']:>4}{measured:>12.4f}")
    if result["layers"]:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"  traced iteration ({result['trace_file']}):")
        for name, value in result["layers"].items():
            print(f"    {name:<30}{layer_units.get(name, '?'):<8}"
                  f"{value:>14.4f}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((BENCH / "expected.json").read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="keep iterating a workload this long")
    parser.add_argument("--repeat", type=int, default=2,
                        help="at least this many iterations per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced iteration; report per-layer "
                             "metrics")
    parser.add_argument("--json", type=Path, default=None, metavar="OUT",
                        help="also write every sample and summary here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not 0 <= args.seconds <= WORKLOAD_BUDGET_S / 2:
        parser.error(f"--seconds must be within [0, "
                     f"{WORKLOAD_BUDGET_S / 2:g}]: the last iteration and "
                     f"the traced one must fit the workload's budget")

    # Before numpy loads here, so the probe runs like the children do.
    os.environ.update(PINNED_ENV)
    probe_host_speed()  # the first call pays for warming caches
    workdir = WORK / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    results = {}
    lines = []
    try:
        for name in args.workload or list(WORKLOADS):
            result = run_workload(
                name, args.seed, args.seconds, args.repeat, bool(args.trace),
                workdir, pinned.get(name, {}), spec["end_to_end"])
            results[name] = result
            print_table(result, spec)
            lines.append(result_line(result, spec, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"host": host_fingerprint(), "seed": args.seed,
             "seconds": args.seconds, "repeat": args.repeat,
             "reference_probe_s": REFERENCE_PROBE_S,
             "workloads": results}, indent=1) + "\n")
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
