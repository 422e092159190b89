"""End-to-end QMPI benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tfim_anneal --seed 1 --seconds 20 --trace 0

The command builds the native kernel cache under ``.bench_build/``,
then runs the workload in ``PROCESSES`` fresh worker processes one
after another, splitting ``--seconds`` of timed runs between them.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a traced run next to untraced runs of the same
process.  Human-readable lines start with ``#``; the last line of
stdout is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import finalize, merge_sums

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Kernel-selection knobs cleared for the workers, so every run measures
#: the package defaults whatever the calling shell exports.
KERNEL_ENV = ("REPRO_QMPI_KERNELS", "REPRO_QMPI_DISABLE_JIT", "REPRO_QMPI_KERNEL_PROVIDER")
#: Hard limit for the whole command; workers are given what is left.
DEADLINE_S = 170.0
#: Fresh worker processes per run; ``setup_s`` is the median of theirs.
PROCESSES = 3

#: Run in a fresh interpreter by the build step.  Prints whether the
#: cffi module built from the package's current C source was already in
#: the kernel cache, then loads the kernel provider, building it if
#: needed.  ``_C_SOURCE`` is a private name of ``repro.sim.kernels``;
#: the benchmark must still run on a commit that renames it, so it then
#: reports "unknown".
_PROBE = """
import hashlib, os, sys
sys.path.insert(0, sys.argv[1])
from repro.sim import kernels
source = getattr(kernels, "_C_SOURCE", None)
if source is None:
    print("unknown")
else:
    prefix = "_repro_qk_" + hashlib.sha1(source.encode()).hexdigest()[:12]
    cache = os.environ["REPRO_QMPI_KERNEL_CACHE"]
    names = os.listdir(cache) if os.path.isdir(cache) else []
    print(any(n.startswith(prefix) and n.endswith(".so") for n in names))
kernels.provider_name()
"""


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _build(env: dict) -> dict:
    """Compile the byte code and the cffi kernel module into the checkout.

    This is the benchmark's build step, outside ``setup_s``: it leaves
    every later worker a warm kernel cache, so ``setup_s`` always
    measures a warm provider load.  Reports whether the cache held the
    module for the current C source before the build.
    """
    cache = Path(env["REPRO_QMPI_KERNEL_CACHE"])
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src")],
        check=True, env=env, capture_output=True, text=True, timeout=600,
    )
    warm = {"True": "warm", "False": "cold"}.get(probe.stdout.strip(), "unknown")
    return {
        "kernel_cache": str(cache.relative_to(ROOT)),
        "kernel_cache_before_build": warm,
        "build_s": time.perf_counter() - t0,
    }


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _run_worker(args, budget: float, env: dict, remaining: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", f"{budget:.3f}", "--trace", str(args.trace),
    ]
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]
    launch = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["t_first"] - launch
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chrome-trace", default=None,
                    help="with --trace 1: write the last traced iteration as "
                         "Chrome trace-event JSON to this path")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in KERNEL_ENV}
    env["REPRO_QMPI_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")
    build = _build(env)

    budget = args.seconds / PROCESSES
    workers, errors = [], []
    for _ in range(PROCESSES):
        remaining = DEADLINE_S - (time.monotonic() - started)
        if remaining <= 0:
            break
        try:
            workers.append(_run_worker(args, budget, env, remaining))
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            errors.append(f"worker: {exc}")
    run_s = [t for w in workers for t in w["run_s"]]
    traced = [t for w in workers for t in w["traced_s"]]
    if not run_s or (args.trace and not traced):
        errors += [e for w in workers for e in w["errors"]]
        print("error: no run succeeded:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers) + len(errors)
    failed = sum(w["failed"] for w in workers) + len(errors)
    errors += [e for w in workers for e in w["errors"]]
    gates = {w["gates"] for w in workers}
    if len(gates) != 1:
        failed += 1
        errors.append(f"OpStream.append counts differ between workers: {sorted(gates)}")
    q1, med, q3 = _quartiles(run_s)
    host = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **workers[0]["host"],
        "git_commit": _git_commit(),
        **build,
    }
    print(f"# host {json.dumps(host)}")
    print(f"# workload {args.workload} seed {args.seed}: run_s median {med:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(run_s)}) over {len(workers)} processes")
    print(f"# error_rate {failed / attempted:.4f} ({failed} of {attempted} runs)")
    setups = [w["setup_s"] for w in workers]
    print(f"# setup_s per process {[round(s, 4) for s in setups]} (kernel cache "
          f"{build['kernel_cache_before_build']} before the build step, warm for "
          f"every process)")
    for e in errors[:10]:
        print(f"# failure: {e}")

    if args.trace:
        sums = {}
        for w in workers:
            sums = merge_sums(sums, w["sums"])
        overhead = statistics.median(traced) / med
        values = finalize(sums, len(traced), overhead)
        print(f"# traced run_s median {statistics.median(traced):.4f} s (n={len(traced)})")
    else:
        values = {
            "run_s": med,
            "gates_per_s": max(gates) / med,
            "shots_per_s": workers[0]["shots"] / med,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p for w in workers for p in w["peak_rss_mb"]),
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value computed for declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
