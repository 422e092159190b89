"""One workload process of the end-to-end benchmark.

Started by ``run.py``; not meant to be run by hand.  The process
imports the package from the checkout's ``src``, runs one discarded
warm-up, then repeats the workload's timed ``qmpi_run`` until its time
budget is spent (at least twice).  With ``--trace 1`` every second
iteration runs under the layer tracer.  Results are checked after the
timed loop, and one JSON line goes to stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
APPEND = ("repro.qmpi.stream", "OpStream.append")
#: Timed runs per process whatever the budget.
MIN_ITERATIONS = 2


def _status_kib(field: str) -> int:
    """A ``VmRSS``/``VmHWM`` reading of this process, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _reset_peak() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _import_package():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no package sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")


def _facts(world, outcome) -> dict:
    return {
        "cache": world.backend.cache_info(),
        "kernels": world.backend.kernel_info(),
        "ledger": outcome["ledger"],
    }


def measure(workload, inputs, budget: float, trace: bool, check, tamper=None,
            chrome_trace=None) -> dict:
    """Warm up, time ``workload.run`` for ``budget`` seconds, check results.

    ``tamper``, when given, alters each outcome before it is checked
    (the self-check uses it to prove wrong results are counted).
    """
    from layers import HOOKS, iteration_sums, merge_sums
    from tracer import Tracer, chrome_trace as write_chrome

    def counted(run):
        counter = Tracer({APPEND: (None,)})
        with counter:
            outcome, world = run(inputs)
        return outcome, world, counter.counts.get(":".join(APPEND), 0)

    rss0 = _status_kib("VmRSS")
    attempted, errors, outcomes = 1, [], []
    try:
        warm, world, gates = counted(workload.run)
        outcomes.append(warm)
        dtype = world.backend.raw().dtype
    except Exception as exc:  # a failed run is counted, not fatal
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
        gates, dtype = 0, None

    t_first = time.monotonic()
    deadline = time.perf_counter() + budget
    untraced, traced, peaks, sums, last_spans = [], [], [], {}, None
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() < deadline:
        tracer = Tracer(HOOKS) if trace and i % 2 else None
        if tracer is not None:
            tracer.install()
        _reset_peak()
        t0 = time.perf_counter()
        try:
            outcome, world = workload.run(inputs)
        except Exception as exc:
            outcome = None
            errors.append(f"iteration {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        attempted += 1
        i += 1
        if outcome is None:
            continue
        outcomes.append(outcome)
        if tracer is None:
            untraced.append(t1 - t0)
            peaks.append((_status_kib("VmHWM") - rss0) / 1024.0)
        else:
            traced.append(t1 - t0)
            sums = merge_sums(
                sums, iteration_sums(tracer.spans, tracer.counts, t0, t1, _facts(world, outcome))
            )
            last_spans = tracer.spans

    reference = None
    if workload.reference is not None:
        # Under transport="mp" the appends run in the rank processes,
        # where this process cannot count them; the workload's gate count
        # is taken from its in-process reference run of the same program.
        ref, _, gates = counted(workload.reference)
        reference = ref["results"]
    ledger0 = outcomes[0]["ledger"] if outcomes else None
    for n, outcome in enumerate(outcomes):
        if reference is not None:
            outcome["reference"] = reference
        if tamper is not None:
            tamper(outcome)
        fail = check(inputs, outcome)
        if fail is None and outcome["ledger"] != ledger0:
            fail = f"ledger {outcome['ledger']} differs from the first run's {ledger0}"
        if fail is not None:
            errors.append(f"check {n}: {fail}")
    if chrome_trace and last_spans:
        write_chrome(last_spans, chrome_trace)

    import numpy
    from repro.sim.kernels import provider_name

    return {
        "t_first": t_first,
        "run_s": untraced,
        "traced_s": traced,
        "sums": sums,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "gates": gates,
        "shots": workload.shots,
        "peak_rss_mb": peaks,
        "host": {
            "numpy": numpy.__version__,
            "kernel_provider": provider_name(),
            "dtype": dtype,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chrome-trace", default=None)
    args = ap.parse_args(argv)

    _import_package()
    from checks import CHECKS
    from layers import HOOKS
    from workloads import WORKLOADS

    # Import every traced layer module now, so set-up pays for it and
    # no timed iteration does.
    for module, _ in HOOKS:
        importlib.import_module(module)
    workload = WORKLOADS[args.workload]
    result = measure(
        workload, workload.make_inputs(args.seed), args.budget, bool(args.trace),
        CHECKS[args.workload], chrome_trace=args.chrome_trace,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
