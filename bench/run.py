"""Run one benchmark workload against the gawsim sources in this checkout.

    python3 bench/run.py --workload coeff-scan --seed 1 --seconds 50 --trace 0

One closed-loop client: this process runs the workload's fixed job list
(see workloads.py) back to back, one pass after another, until --seconds
have passed; every operation's output is checked.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py plus trace.overhead_s.  Lines before the result give
the environment record, error_rate and any failed operation; the traced
run also writes the spans of its last traced pass to bench/_traces/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
SETUP_CODE = "import gawsim.cli; gawsim.cli.build_parser()"
MIN_PASSES = 3


def _parse_args(argv=None):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"],
                        help="workload to run; 'all' runs each in its own process (default)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time (default 50)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _cap_sweep_workers() -> int:
    """Leave sweeps at the CLI default (CPU count) unless that exceeds the
    CPUs this process may use; return the worker count sweeps will use."""
    os.environ.pop("GAW_SEED_WORKERS", None)
    nproc = len(os.sched_getaffinity(0))
    default = os.cpu_count() or 1
    if default > nproc:
        os.environ["GAW_SEED_WORKERS"] = str(nproc)
        return nproc
    return default


def _measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up import failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(samples)


def _blas_threads():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(sweep_workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_workers": sweep_workers,
        "git_commit": _git_commit(),
        "src_gawsim_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "gawsim").glob("*.py")),
    }


def _artifact_counts(path: Path) -> tuple[int, int]:
    """(bytes, data rows) of a CLI artifact; JSON documents have no rows."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return len(data), 0
    body = [line for line in data.splitlines() if not line.startswith(b"#")]
    return len(data), max(0, len(body) - 1)


def run_pass(jobs, tracer=None):
    """Run every job once; return (seconds spent in jobs, failure messages, artifact counts)."""
    from bench import spans

    wall = 0.0
    failures = []
    io_counts = Counter()
    for index, job in enumerate(jobs):
        restore = []
        if tracer is not None:
            tracer.job = index
            restore = spans.install(tracer)
        t0 = time.perf_counter()
        try:
            result = job.run()
            error = None
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        finally:
            wall += time.perf_counter() - t0
            spans.uninstall(restore)
        if error is None:
            try:
                job.check(result)
            except Exception:  # a check that cannot complete fails the operation
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"{job.name}: {error.strip().splitlines()[-1]}")
            print(f"operation failed: {job.name}\n{error}", file=sys.stderr)
        if job.out is not None and job.out.exists():
            if tracer is not None:
                size, rows = _artifact_counts(job.out)
                io_counts["bytes"] += size
                io_counts["rows"] += rows
    # artifacts live until the pass ends: a later check may compare against one
    for job in jobs:
        if job.out is not None:
            job.out.unlink(missing_ok=True)
    return wall, failures, io_counts


def _write_spans(tracer, workload, seed, missing, jobs) -> Path:
    out_dir = ROOT / "bench" / "_traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.jsonl"
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "skipped_targets": missing,
                             "jobs": [job.name for job in jobs]}) + "\n")
        for sid, (name, layer, start, end, parent, job) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "start": start - origin,
                                 "end": end - origin, "parent": parent, "job": job}) + "\n")
    return path


def _run_each(args) -> int:
    """Run every workload in a fresh process, so each peak RSS is its own."""
    from bench.workloads import WORKLOADS

    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    if not (SRC / "gawsim" / "__init__.py").is_file():
        print(f"error: no gawsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_each(args)
    sweep_workers = _cap_sweep_workers()

    from bench import spans, workloads

    env = environment(sweep_workers)
    print("# env: " + json.dumps(env, sort_keys=True))
    work = ROOT / "bench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        jobs = workloads.build_jobs(args.workload, inputs, work)
        setup_s = _measure_setup() if not args.trace else None

        # warm-up pass: caches and lazy imports settle; checked, not timed
        _, failures, _ = run_pass(jobs)
        attempted = len(jobs)
        plain, traced, layer_runs = [], [], []
        tracer = None
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(plain) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)):
            gc.collect()  # so one pass's garbage is not collected inside the next
            if args.trace and len(traced) < len(plain):
                tracer = spans.Tracer()
                wall, failed, io_counts = run_pass(jobs, tracer)
                traced.append(wall)
                layer_runs.append(spans.layer_metrics(tracer, io_counts))
            else:
                wall, failed, _ = run_pass(jobs)
                plain.append(wall)
            failures.extend(failed)
            attempted += len(jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = len(failures) / attempted
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} operations after one warm-up pass")
    print("# untraced pass seconds: " + " ".join(f"{w:.4f}" for w in plain))
    if traced:
        print("# traced pass seconds: " + " ".join(f"{w:.4f}" for w in traced))
    print(f"error_rate {error_rate:.6g} ratio ({len(failures)} failed of {attempted} attempted)")
    for failure in sorted(set(failures)):
        print(f"# failed: {failure}")

    if args.trace:
        metrics = {name: (statistics.median(run[name] for run in layer_runs), spans.unit(name))
                   for name in layer_runs[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        missing = spans.missing_targets()
        if missing:
            print("# skipped missing wrap targets: " + ", ".join(missing))
        print(f"# spans of the last traced pass: {_write_spans(tracer, args.workload, args.seed, missing, jobs)}")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
