"""isom4 benchmark: verify-all with a cold and with a warm result cache.

  python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 60 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
library is imported from its ``src``.  Each measured iteration is one
fresh process (worker.py), nothing else runs beside it, and BLAS threads
are capped at the number of usable CPUs.  Iterations run while one
more still fits in ``--seconds`` (at least one runs).  ``--seed`` is
recorded with the results; the inputs do not depend on it (README.md,
"The VerifyConfig seed").

``--trace 0`` prints the end-to-end metrics (medians over iterations):
run_s, cpu_s, setup_s, peak_rss_mb.  ``--trace 1`` runs one untraced and
one traced iteration and prints the per-layer metrics of the traced one
plus the tracing overhead.  Either way every output is checked against
``reference.json``; an iteration whose process times out or exits with
an error counts all its operations as failed.  The last line of
standard output is the JSON result, and the lines before it name every
metric with its unit, the sample count and the environment.  Result
sets and spans are written under ``.bench_build/perfbench/results``.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
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
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import FUNCTION_METRICS, LAYERS  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
CHILD_MEMORY_CAP = 4 << 30  # bytes of address space per measured process

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(check_ids) -> dict[str, str]:
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "raised")]
    names += FUNCTION_METRICS
    names += ["snf.cells_in", "snf.max_cells_in", "groups.max_order",
              "cache.hit_ratio", "cache.bytes"]
    names += [f"verify.{check_id}.s" for check_id in check_ids]
    names += ["trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "trace.outside_s",
              "trace.spans"]
    special = {"cache.hit_ratio": "ratio", "cache.bytes": "bytes"}
    return {name: special.get(name, "s" if name.endswith(("_s", ".s")) else "count")
            for name in names}


# ------------------------------------------------------------ environment

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cap = usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cap))
        except ValueError:
            wanted = cap
        env[var] = str(max(1, min(wanted, cap)))
    return env


def environment(seed: int) -> dict:
    env = child_env()
    return {
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads_requested": int(env["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------- children

class Runner:
    def __init__(self, workload: str, state: Path, reference: dict):
        self.workload = workload
        self.state = state
        self.operations = workloads.operation_count(reference)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=state))
        self.env = child_env()
        self.count = 0
        self.fill_failure = None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, cache_dir: Path, *, trace=0, setup_only=False,
              spans: Path | None = None) -> dict:
        """One measured process.  When it times out or exits with an
        error, every operation of the iteration counts as failed and its
        whole lifetime stands in for the timed phase."""
        self.count += 1
        out = self.tmp / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--cache-dir", str(cache_dir), "--out", str(out), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        spawned = time.monotonic()
        try:
            code = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=CHILD_TIMEOUT_S, preexec_fn=_cap_memory).returncode
        except subprocess.TimeoutExpired:
            code = f"timeout after {CHILD_TIMEOUT_S} s"
        if code == 0:
            result = json.loads(out.read_text())
            result["setup_s"] = result["ready_monotonic"] - spawned
            return result
        lifetime = time.monotonic() - spawned
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {"setup_s": lifetime, "run_s": lifetime, "cpu_s": lifetime,
                "peak_rss_mb": children.ru_maxrss / 1024.0, "inputs": {},
                "attempted": self.operations, "failed": self.operations,
                "failures": [f"worker process failed ({code}): all {self.operations} "
                             f"operations of the iteration"],
                "blas_threads": None}

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))

    # verify-warm reads a cache filled by one untimed cold run.  The
    # verify workloads replay one VerifyConfig, so one fill per source
    # digest serves every run.  A failed fill stands for the iteration.
    def warm_fill(self, digest: str) -> tuple[Path, dict | None]:
        fill = self.state / f"warm-fill-{digest}"
        if (fill / ".complete").exists() or self.fill_failure:
            return fill, self.fill_failure
        shutil.rmtree(fill, ignore_errors=True)
        staging = self.fresh_dir()
        result = self.child(staging)
        if result["failed"]:
            self.fill_failure = result
            return fill, result
        (staging / ".complete").write_text("")
        shutil.move(str(staging), str(fill))
        return fill, None

    def iteration(self, digest: str, trace=0, spans=None) -> dict:
        cache = self.fresh_dir()
        if self.workload == "verify-cold":
            return self.child(cache, trace=trace, spans=spans)
        fill, failure = self.warm_fill(digest)
        if failure is not None:
            return failure
        shutil.copytree(fill, cache, dirs_exist_ok=True)
        before = _listing(cache)
        result = self.child(cache, trace=trace, spans=spans)
        # a warm run that writes an entry shows the program not reusing
        # its own cache: warm is then not measurable
        if not result["failed"] and _listing(cache) != before:
            raise RuntimeError("a warm run wrote to a filled cache")
        return result


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))


def _listing(directory: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in directory.iterdir()}


# ------------------------------------------------------------------- main

def measure(runner: Runner, seconds: int, digest: str) -> tuple[dict, list[dict]]:
    probes = [runner.child(runner.fresh_dir(), setup_only=True) for _ in range(SETUP_PROBES)]
    if runner.workload == "verify-warm":
        runner.warm_fill(digest)  # untimed, and outside the measured loop
    # another iteration starts only when one as long as the last still
    # ends within `seconds`, so each workload runs a fixed count on a
    # steady machine
    samples, last = [], 0.0
    start = time.monotonic()
    while not samples or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        samples.append(runner.iteration(digest))
        last = time.monotonic() - began
    metrics = {
        "run_s": statistics.median(s["run_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in probes + samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    counts = {"run_s": len(samples), "cpu_s": len(samples),
              "setup_s": len(probes) + len(samples), "peak_rss_mb": len(samples)}
    return {k: (v, END_TO_END[k], counts[k]) for k, v in metrics.items()}, samples


def measure_traced(runner: Runner, digest: str, spans: Path, units: dict):
    plain = runner.iteration(digest)
    traced = runner.iteration(digest, trace=1, spans=spans)
    if "layers" not in traced:  # the traced process failed
        return {k: (0.0, units[k], 1) for k in units}, [plain, traced]
    if traced["leftover_wrappers"]:
        raise RuntimeError(f"wrappers left bound: {traced['leftover_wrappers']}")
    layers = dict(traced["layers"])
    layers["trace.untraced_run_s"] = plain["run_s"]
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    runtimes = plain.get("runtimes_s", {})
    for name in units:
        if name.startswith("verify.") and name.endswith(".s"):
            layers[name] = runtimes.get(name[len("verify."):-len(".s")], 0.0)
    missing = sorted(set(units) - set(layers))
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    return {k: (layers[k], units[k], 1) for k in units}, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("seed must be >= 0 and seconds >= 1")
    if not (ROOT / "src" / "isom4" / "__init__.py").is_file():
        print(f"no isom4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    state = ROOT / ".bench_build" / "perfbench"
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    reference = workloads.load_reference()
    units = per_layer_units(reference["verify_statuses"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args.workload, state, reference)
    try:
        if args.trace:
            metrics, samples = measure_traced(runner, env["source_digest"],
                                              results_dir / f"{stem}.spans.jsonl", units)
        else:
            metrics, samples = measure(runner, args.seconds, env["source_digest"])
    finally:
        runner.close()

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    env["blas_threads"] = samples[-1]["blas_threads"]
    result_set = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(result_set, indent=1))

    print("environment " + json.dumps(env, sort_keys=True))
    for s in samples:
        print(f"inputs {json.dumps(s['inputs'], sort_keys=True)}")
        if "status_counts" in s:
            print(f"statuses {json.dumps(s['status_counts'], sort_keys=True)}")
    for failure in sorted({f for s in samples for f in s["failures"]})[:20]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {failed / attempted:.6g} ratio (failed {failed} of {attempted} "
          f"operations, {len(samples)} iterations)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (median of {n})")
    if args.trace:
        run_s = metrics["trace.run_s"][0] or float("nan")
        shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / run_s:.1%}"
                           for layer in LAYERS)
        print(f"layer self time as a share of traced run_s: {shares}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
