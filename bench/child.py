"""One benchmark iteration, run by ``run.py`` in a fresh process.

Usage: ``python bench/child.py WORKLOAD SEED CACHE_DIR [--check]
[--trace FILE]`` with ``<root>/src`` on ``PYTHONPATH``.

The clock starts at this file's first statement, before ``repro`` is
imported: set-up time is everything up to the start of the timed
section.  The last line of standard output is one JSON object with the
iteration's end-to-end numbers, its operations (each with an error or
``None``), the output digest and, with ``--trace``, the per-layer
metrics; ``--trace`` also writes the span list to ``FILE``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the clock must start first
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("cache_dir", type=Path)
    parser.add_argument("--check", action="store_true",
                        help="also run the workload's output checks")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="record spans; write them to FILE")
    args = parser.parse_args(argv)

    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported repro from {repro.__file__}, not {ROOT}/src")
    import spans
    import workloads

    tracer = journal = None
    if args.trace is not None:
        from repro.obs import RunJournal

        tracer, journal = spans.Tracer(), RunJournal(None)
        spans.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.cache_dir,
                                                  journal=journal)

    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    operations = workload.run(span=None if tracer is None else tracer.span)
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    result = {
        "setup_s": wall0 - START,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
    }
    children_peak_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    clean = all(op["error"] is None for op in operations)
    result["digest"] = workload.digest() if clean else None
    if args.check and clean:
        operations += workload.checks()
    result["operations"] = operations
    if tracer is not None:
        render = workload.study.perf.spans.get("series_render")
        result["layers"] = spans.layer_metrics(
            tracer, render.wall_s if render is not None else 0.0,
            journal.events, children_peak_mb)
        selfs = spans.self_times(tracer.spans)
        for span, self_s in zip(tracer.spans, selfs):
            span.update(start=span["start"] - wall0, end=span["end"] - wall0,
                        self_s=self_s)
        args.trace.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "wall_s": wall, "spans": tracer.spans}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
