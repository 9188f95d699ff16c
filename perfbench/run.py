"""Run one wdrd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-parallel --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: wdrd is imported from `src/` next to this
directory, never from an installed copy.  `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run (see
perfbench/README.md).  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit codes: 0 all results correct, 1 a pinned result failed,
2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 7


def _import_wdrd():
    """Import wdrd from the checkout's src/ or exit 2."""
    if not (SRC / "wdrd" / "__init__.py").is_file():
        print(f"error: no wdrd package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wdrd

    if Path(wdrd.__file__).resolve().parent != SRC / "wdrd":
        print(f"error: imported wdrd from {wdrd.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return wdrd


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sweep-full, sweep-pruned, sweep-parallel or certify")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy inputs of the same shape (seconds per run)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap


def measure(wl, seconds, tracer=None) -> dict:
    """Call the workload until `seconds` have passed (at least once) and
    check every result.  With a tracer, each call runs inside an
    `iteration` span with tracing on; checks always run untraced."""
    times, failures = [], []
    last = None
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.call()
            else:
                tracer.on = True
                try:
                    with tracer.span("bench", "iteration"):
                        result = wl.call()
                finally:
                    tracer.on = False
            dt = time.perf_counter() - t0
            errs = wl.check(result)
            last = result
        except Exception as exc:   # counted as a failed iteration
            dt = time.perf_counter() - t0
            traceback.print_exc()
            errs = [f"{type(exc).__name__}: {exc}"]
        times.append(dt)
        if errs:
            failures.append(errs)
        if time.perf_counter() >= deadline:
            break
    return {"times": times, "failures": failures, "last": last}


def _cold_start_seconds(args, workdir) -> float:
    """Median wall time of fresh interpreters that import wdrd and build
    the workload's inputs."""
    env = dict(os.environ, TMPDIR=str(workdir),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    return statistics.median(samples)


def _tail(times) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten iterations beyond it."""
    n = len(times)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, sorted(times)[max(0, -(-pct * n // 100) - 1)]


def _metadata(args, wdrd, load_before) -> dict:
    from wdrd import kernel
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "backend": kernel.BACKEND, "backends": sorted(kernel.backends()),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "wdrd": wdrd.__version__, "commit": commit,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    wdrd = _import_wdrd()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.WORKLOADS))

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, args.smoke)
            return 0
        return _run(args, wdrd, workloads, workdir)
    except Exception:   # set-up failed: no result to report
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wdrd, workloads, workdir) -> int:
    load_before = os.getloadavg()
    make = workloads.WORKLOADS[args.workload]
    tracer = None
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        import spans

        spool = workdir / "spool"
        spool.mkdir()
        tracer = spans.Tracer(spool)
        tracer.install()
        tracer.on = True
        t0 = time.perf_counter()
        wl = make(args.seed, args.smoke)
        setup_window = (t0, time.perf_counter())
        tracer.on = False
    else:
        setup_s = _cold_start_seconds(args, workdir)
        wl = make(args.seed, args.smoke)
    wl.prepare(workdir)

    plain = measure(wl, args.seconds)
    runs = [plain]
    wall = statistics.median(plain["times"])
    if args.trace:
        traced = measure(wl, args.seconds, tracer)
        runs.append(traced)
        tracer.uninstall()
        layers = spans.layer_metrics(tracer.collect(), setup_window)
        layers["trace.overhead_s"] = statistics.median(traced["times"]) - wall
        for name, value in layers.items():
            unit = ("1/s" if name.endswith("_per_s") else
                    "s" if name.endswith("_s") else
                    "ratio" if name.endswith(("_ratio", "_share", "_imbalance"))
                    else "count")
            if unit == "count" and value == int(value):
                value = int(value)
            metrics[name] = (value, unit)
    else:
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (wall, "s")
        metrics["throughput"] = (wl.work / wall, "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    for r in runs:
        for errs in r["failures"][:3]:
            print(f"FAILED {args.workload}: {'; '.join(errs[:5])}", file=sys.stderr)
    w = args.workload
    for name, (value, unit) in metrics.items():
        print(f"metric {w} {name} {value:.6g} {unit}")
    print(f"metric {w} failed_frac {failed / attempted:.6g} ratio")
    tail = _tail(plain["times"])
    if tail:
        print(f"metric {w} wall_s.tail {tail[1]:.6g} s "
              f"(p{tail[0]} of {len(plain['times'])} iterations)")
    else:
        print(f"metric {w} wall_s.tail n/a s (iterations: {len(plain['times'])}; "
              "a tail needs at least 11)")
    print(f"iterations {w} " + " ".join(f"{t:.4f}" for t in plain["times"]))
    if plain["last"] is not None:
        print("counters " + json.dumps(wl.counters(plain["last"]), sort_keys=True))
    print("meta " + json.dumps(_metadata(args, wdrd, load_before), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
