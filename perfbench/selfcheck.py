"""Self-check of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It confirms that

1. the tracer restores every function it wraps, leaving every binding
   of every ``repro`` module and class exactly as it found it;
2. a deliberately wrong result, and a run that raises, are counted as
   failures (the ``failed``/``attempted`` share is ``error_rate``);
3. every metric the benchmark prints, traced and untraced, on every
   workload, is named in ``BENCHMARK.json``, and every metric
   ``BENCHMARK.json`` names gets a numeric value;
4. without the package sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE_DIR = ROOT / ".bench_build" / "selfcheck"


def _bindings() -> dict:
    """(module or class, attribute) -> object, for every ``repro`` binding."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, obj in list(vars(mod).items()):
            out[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in list(vars(obj).items()):
                    out[(f"{name}.{attr}", cattr)] = cobj
    return out


def check_restore() -> str | None:
    from layers import HOOKS
    from tracer import Tracer
    from workloads import WORKLOADS

    for module, _ in HOOKS:
        importlib.import_module(module)
    wl = WORKLOADS["teleport_shots"]
    wl.run(wl.make_inputs(0))  # import everything the run touches
    before = _bindings()
    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        during = _bindings()
        wl.run(wl.make_inputs(0))
        spans = len(tracer.spans)
    finally:
        tracer.uninstall()
    after = _bindings()
    wrapped = {k for k in before if during.get(k) is not before[k]}
    for module, qualname in HOOKS:
        owner, _, attr = f"{module}.{qualname}".rpartition(".")
        if (owner, attr) not in wrapped:
            return f"hook {module}:{qualname} was not installed"
    if spans == 0:
        return "a traced run recorded no spans"
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or set(after) != set(before):
        return f"bindings not restored: {changed[:5]}"
    return None


def _tamper(outcome: dict) -> None:
    """Corrupt one result so the workload's check must fail."""
    counts = outcome.get("counts")
    if counts:
        key = next(iter(counts))
        flipped = ("1" if key[0] == "0" else "0") + key[1:]
        counts[flipped] = counts.get(flipped, 0) + counts.pop(key)
        return
    first = list(outcome["results"][0])
    first[-1] ^= 1
    outcome["results"][0] = first


def check_failures_counted() -> str | None:
    from checks import CHECKS
    from worker import measure
    from workloads import WORKLOADS, Workload

    for name, wl in WORKLOADS.items():
        res = measure(wl, wl.make_inputs(0), 0.0, False, CHECKS[name], tamper=_tamper)
        if res["failed"] != res["attempted"]:
            return f"{name}: {res['failed']} of {res['attempted']} tampered runs counted as failed"
        res = measure(wl, wl.make_inputs(0), 0.0, False, CHECKS[name])
        if res["failed"]:
            return f"{name}: untampered runs failed: {res['errors']}"

    def boom(inputs):
        raise RuntimeError("deliberate failure")

    res = measure(Workload("boom", lambda s: {}, boom), {}, 0.0, False, CHECKS["qft_sharded"])
    if res["failed"] != res["attempted"] or res["attempted"] < 2:
        return f"raising runs: {res['failed']} of {res['attempted']} counted as failed"
    return None


def check_metric_names() -> str | None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                return f"{w['name']} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                return f"{w['name']} trace {trace}: result keys {sorted(result)}"
            got = result["metrics"]
            if list(got) != want[trace]:
                return f"{w['name']} trace {trace}: printed {list(got)}, BENCHMARK.json has {want[trace]}"
            untyped = [k for k, v in got.items() if not isinstance(v["value"], (int, float))]
            if untyped:
                return f"{w['name']} trace {trace}: non-numeric values for {untyped}"
            if not result["correct"]:
                return f"{w['name']} trace {trace}: result not correct:\n{proc.stdout[-1500:]}"
    return None


def check_bare_directory() -> str | None:
    if BARE_DIR.exists():
        shutil.rmtree(BARE_DIR)
    BARE_DIR.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR)
        shutil.copytree(HERE, BARE_DIR / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "qft_sharded",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=BARE_DIR, env=env, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(BARE_DIR)
    if proc.returncode == 0:
        return "exit code 0 without package sources"
    if proc.stdout.strip():
        return f"printed output without package sources: {proc.stdout[-300:]}"
    return None


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_QMPI_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")
    failures = 0
    for check in (check_restore, check_failures_counted, check_metric_names,
                  check_bare_directory):
        t0 = time.perf_counter()
        fail = check()
        status = "ok" if fail is None else f"FAIL: {fail}"
        print(f"{check.__name__}: {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
        failures += fail is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
