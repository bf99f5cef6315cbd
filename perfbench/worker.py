"""One measured process: set up, run one workload iteration, check it.

Started by run.py, never by hand.  Set-up ends when the inputs are
ready; the timed phase is ``Plan.run()`` alone; outputs are checked
against the frozen reference after the clock stops.  Cold or warm is
the state of ``--cache-dir``, which run.py prepares.  The result goes
to ``--out`` as JSON, so standard output stays free for the library.

  python3 perfbench/worker.py --root . --cache-dir .bench_build/perfbench/c \
      --out r.json [--trace 1 --spans s.jsonl] [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _import_library(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import isom4

    where = Path(isom4.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"isom4 imported from {where}, not from {src}")
    return isom4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--cache-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_library(args.root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    reference = workloads.load_reference()
    plan = workloads.build(args.cache_dir, reference)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "inputs": plan.inputs}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        raw = plan.run()
    finally:
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
    run_s = t1 - t0

    outcomes = plan.check(raw)
    failures = [f"{o.label}: {o.detail}" for o in outcomes if not o.ok]
    result.update({
        "run_s": run_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures,
        "blas_threads": blas_threads(),
    })
    result["runtimes_s"] = workloads.report_runtimes(raw)
    result["status_counts"] = workloads.status_counts(raw)
    if tracer is not None:
        result["layers"] = tracer.metrics(run_s)
        result["leftover_wrappers"] = tracer.leftover_wrappers()
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
