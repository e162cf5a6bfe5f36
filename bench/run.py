"""Run one benchmark workload against the cban package in this checkout.

    python3 bench/run.py --workload bar-train --seed 1 --seconds 40 --trace 0

Load model: a closed loop from one caller. One process per run, no
threads of its own, BLAS pinned to the number of usable cores through
CBAN_NUM_THREADS before numpy is imported. An operation starts when it
is expected to end within --seconds of the first one; at least two run.

--trace 0 prints the end-to-end metrics. setup_s is the median over six
fresh processes (`--setup-only`), three before the timed part and three
after it, of the time from the first line of this file to the end of the
workload's set-up: imports, config, inputs, weights. --trace 1 runs each
operation twice, first under the span recorder and then plain, and prints
the per-layer metrics plus trace.overhead_frac. Before the last line, one
`env:` line records the machine and build. The last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3  # fresh-process set-ups before the timed part, and again after


def _import_cban(threads):
    """Pin BLAS threads, then import cban (and numpy) from this checkout only."""
    os.environ["CBAN_NUM_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)  # cban sets them from CBAN_NUM_THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cban

    if Path(cban.__file__).resolve().parent != (src / "cban").resolve():
        raise ImportError(f"cban was imported from {cban.__file__}, not {src}")


def _git_sha():
    """HEAD's sha when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("CBAN_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


def _another_fits(start, done, seconds):
    """At the mean time so far, would one more op end within `seconds`?"""
    return (time.perf_counter() - start) * (done + 1) / done <= seconds


def measure(wl, seconds):
    """Run ops while another is expected to end within `seconds` (at least two,
    so that no run rests on a single op)."""
    records = []
    start = time.perf_counter()
    while len(records) < 2 or _another_fits(start, len(records), seconds):
        records.append(wl.op(len(records)))
    return records


def setup_times(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes running `--setup-only`."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    return [float(subprocess.run(argv, capture_output=True, text=True, check=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def run_plain(wl, seconds, probe_setup):
    """Plain ops; `probe_setup()` gives set-up times before and after them."""
    setup = probe_setup()
    wl.setup()
    records = measure(wl, seconds)
    setup += probe_setup()
    verdicts = wl.check(records)
    metrics = dict(wl.metrics(records))
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return verdicts, metrics


def run_traced(wl, seconds):
    """Pairs of the same op, traced then plain, while a pair is expected to
    end within `seconds` (at least one pair runs).

    The per-layer metrics aggregate a traced set-up and the traced ops.
    trace.overhead_frac is the median over pairs of traced / plain wall - 1;
    the traced op goes first, so first-call costs do not hide the overhead.
    """
    from spans import Recorder

    rec = Recorder()
    with rec:
        wl.setup()
    rec.channels = tuple(wl.channels)
    records, overheads = [], []
    start = time.perf_counter()
    while not overheads or _another_fits(start, len(overheads), seconds):
        i = len(overheads)
        with rec:
            t = time.perf_counter()
            records.append(wl.op(i))
            traced = time.perf_counter() - t
        t = time.perf_counter()
        records.append(wl.op(i))
        overheads.append(traced / (time.perf_counter() - t) - 1)
    verdicts = wl.check(records)
    metrics = rec.metrics()
    metrics.update(wl.diagnostics(records))
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return verdicts, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since start, exit")
    args = parser.parse_args(argv)

    threads = len(os.sched_getaffinity(0))
    _import_cban(threads)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        wl.setup()
        elapsed = time.perf_counter() - T0
        wl.close()
        print(elapsed)
        return 0
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            verdicts, metrics = run_traced(wl, args.seconds)
        else:
            verdicts, metrics = run_plain(
                wl, args.seconds, lambda: setup_times(args.workload, args.seed))
    finally:
        wl.close()
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"no value for {missing}: every operation failed")
    failed = verdicts.count(False)
    print("env: " + json.dumps(environment(threads)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
