"""Layer entry points the traced run wraps, and the per-layer metrics.

Stdlib only: the orchestrator imports this module to merge the sums of
its worker processes without importing numpy or the package under test.

Every hook names a public entry point of one layer module (plus
``EprService.iprepare``'s blocking twin ``prepare``).  The metrics are
computed from the spans of one traced ``qmpi_run`` and from counters
the package already exposes (``cache_info()``, ``kernel_info()``, the
resource ledger), summed over rank threads.  ``finalize`` turns sums
over several traced iterations into per-iteration values.  Which of
them are reported, and in which unit, ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["HOOKS", "iteration_sums", "merge_sums", "finalize"]

_ENGINES = (
    ("repro.sim.statevector", "StateVector"),
    ("repro.sim.sharded", "ShardedStateVector"),
)


def _flush_ops(span, args, result):
    span.attrs = {"ops": len(args[2])}


def _exec_before(span, args):
    span.attrs = {"seg0": args[0].segments_executed}


def _exec_after(span, args, result):
    engine = args[0]
    segments = engine.segments_executed - span.attrs["seg0"]
    amps = segments * (1 << engine.num_qubits) * engine.n_branches
    # "complex128" -> 16 bytes per amplitude
    itemsize = int(engine.dtype[len("complex"):]) // 8
    span.attrs = {"segments": segments, "amps": amps, "itemsize": itemsize}


def _fork_after(span, args, result):
    span.attrs = {"branches": len(result[2])}


def _hooks() -> dict:
    b = "repro.qmpi.backend"
    hooks = {
        ("repro.qmpi.stream", "OpStream.append"): (None,),
        (b, "QuantumBackend.apply_flush"): ("backend.flush", _flush_ops),
        (b, "QuantumBackend.apply_ops"): ("backend.apply_ops",),
        (b, "QuantumBackend.measure"): ("backend.measure",),
        (b, "QuantumBackend.measure_and_release"): ("backend.measure",),
        (b, "QuantumBackend.alloc"): ("backend.alloc",),
        (b, "QuantumBackend.free"): ("backend.alloc",),
        (b, "QuantumBackend.apply_pauli_if"): ("backend.pauli_if",),
        (b, "QuantumBackend.prob_one"): ("backend.prob_one",),
        (b, "QuantumBackend.entangle_pair"): ("backend.entangle_pair",),
        ("repro.sim.cache", "ScheduleCache.execute"): ("cache.execute",),
        ("repro.sim.schedule", "lower_flush"): ("schedule.lower",),
        ("repro.sim.shots", "fork_outcomes"): ("shots.fork", _fork_after),
        ("repro.qmpi.epr", "EprService.prepare"): ("epr.prepare",),
        ("repro.qmpi.epr", "EprService.iprepare"): ("epr.iprepare",),
        ("repro.mpi.fabric", "Fabric.send"): (None,),
        ("repro.mpi.fabric", "Fabric.recv"): ("fabric.recv",),
        ("repro.mpi.mp", "MpTransport.run_spmd"): ("mp.run_spmd",),
        ("repro.qmpi.service", "QmpiServiceHost.handle"): ("service.handle",),
    }
    for module, cls in _ENGINES:
        for method, name in (
            ("compile_batch", "schedule.compile"),
            ("freeze_segments", "schedule.compile"),
            ("measure", "engine.measure"),
            ("measure_and_release", "engine.measure"),
            ("alloc", "engine.alloc"),
            ("release", "engine.alloc"),
            ("apply_pauli_if", "engine.pauli_if"),
            ("apply", "engine.gate"),
            ("apply_controlled", "engine.gate"),
        ):
            hooks[(module, f"{cls}.{method}")] = (name,)
        for method in ("execute_frozen", "execute_segments"):
            hooks[(module, f"{cls}.{method}")] = ("engine.exec", _exec_after, _exec_before)
    return hooks


#: ``(module, qualname) -> (span name | None, after, before)``; see
#: :class:`tracer.Tracer`.
HOOKS = _hooks()

_APPEND = "repro.qmpi.stream:OpStream.append"
_SEND = "repro.mpi.fabric:Fabric.send"

# Sums that merge by max instead of addition.
_MAX_KEYS = ("shots.branches_max",)


def _covered(spans, t0: float, t1: float) -> float:
    """Wall time in [t0, t1] inside at least one span of any thread."""
    outer = sorted(
        (max(s.t0, t0), min(s.t1, t1)) for s in spans if s.parent is None
    )
    covered, end = 0.0, t0
    for a, b in outer:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return covered


def iteration_sums(spans, counts: dict, t0: float, t1: float, facts: dict) -> dict:
    """Raw per-layer sums of one traced iteration.

    ``facts`` holds what the run's objects report after it ended:
    ``cache`` (``cache_info()`` or ``None``), ``kernels``
    (``kernel_info()`` or ``None``) and ``ledger`` (epr pairs,
    classical bits, classical messages).  Both info dicts start from
    zero because every ``qmpi_run`` builds a fresh backend.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[id(s.parent)] += s.dur

    def self_time(s) -> float:
        return s.dur - child_time[id(s)]

    def top(*names):
        """Spans named ``names`` with no ancestor of the same names."""
        out = []
        for name in names:
            for s in by_name[name]:
                p = s.parent
                while p is not None and p.name not in names:
                    p = p.parent
                if p is None:
                    out.append(s)
        return out

    def total(*names) -> float:
        return sum(s.dur for s in top(*names))

    flushes = by_name["backend.flush"]
    execs = top("engine.exec")
    measures = top("engine.measure")
    forked = set()
    for s in by_name["shots.fork"]:
        outer, p = None, s.parent
        while p is not None:
            if p.name == "engine.measure":
                outer = p
            p = p.parent
        if outer is not None:
            forked.add(id(outer))
    cache = facts.get("cache") or {}
    kernels = facts.get("kernels") or {}
    ledger = facts["ledger"]
    runs = by_name["mp.run_spmd"]
    handles = top("service.handle")
    spawn = 0.0
    if runs and handles:
        spawn = min(h.t0 for h in handles) - min(r.t0 for r in runs)
    handle_s = sum(h.dur for h in handles)
    wall = t1 - t0
    return {
        "stream.ops_in": counts.get(_APPEND, 0),
        "stream.flushes": len(flushes),
        "stream.ops_flushed": sum(s.attrs["ops"] for s in flushes),
        "backend.flush_s": total("backend.flush"),
        "backend.measure_s": total("backend.measure"),
        "backend.alloc_s": total("backend.alloc"),
        "backend.lock_wait_s": sum(
            self_time(s) for name, group in by_name.items()
            if name.startswith("backend.") for s in group
        ),
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.bypasses": cache.get("bypasses", 0),
        "cache.self_s": sum(self_time(s) for s in by_name["cache.execute"]),
        "schedule.lower_calls": len(by_name["schedule.lower"]),
        "schedule.lower_s": total("schedule.lower"),
        "schedule.compile_s": total("schedule.compile"),
        "engine.exec_s": sum(s.dur for s in execs),
        "engine.exec_calls": len(execs),
        "engine.measure_s": sum(s.dur for s in measures),
        "engine.alloc_s": total("engine.alloc"),
        "engine.pauli_if_s": total("engine.pauli_if"),
        "engine.amps_touched": sum(s.attrs["amps"] for s in execs),
        "engine.bytes_computed": sum(
            2 * s.attrs["amps"] * s.attrs["itemsize"] for s in execs
        ),
        "kernels.jit_hits": kernels.get("jit_hits", 0),
        "kernels.numpy_fallbacks": kernels.get("numpy_fallbacks", 0),
        "shots.forks": len(by_name["shots.fork"]),
        "shots.branches_max": max(
            (s.attrs["branches"] for s in by_name["shots.fork"]), default=0
        ),
        "shots.measure_s": sum(s.dur for s in measures if id(s) in forked),
        "epr.pairs": len(by_name["backend.entangle_pair"]),
        "epr.wait_s": sum(self_time(s) for s in by_name["epr.prepare"]),
        "epr.entangle_s": total("backend.entangle_pair"),
        "fabric.msgs": counts.get(_SEND, 0),
        "fabric.recv_wait_s": total("fabric.recv"),
        "mp.spawn_s": spawn,
        "service.rpcs": len(by_name["service.handle"]),
        "service.handle_s": handle_s,
        "mp.overhead_s": wall - spawn - handle_s if runs else 0.0,
        "ledger.epr_pairs": ledger[0],
        "ledger.classical_bits": ledger[1],
        "ledger.classical_messages": ledger[2],
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - _covered(spans, t0, t1),
    }


def merge_sums(a: dict, b: dict) -> dict:
    """Combine the sums of two sets of iterations."""
    out = dict(a)
    for k, v in b.items():
        if k not in out:
            out[k] = v
        elif k in _MAX_KEYS:
            out[k] = max(out[k], v)
        else:
            out[k] += v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finalize(sums: dict, n_iter: int, overhead: float) -> dict:
    """Per-iteration metrics (name -> value) from the sums of ``n_iter``
    traced iterations; ``overhead`` is traced over untraced ``run_s``."""
    out = {k: v if k in _MAX_KEYS else v / n_iter for k, v in sums.items()}
    lookups = sums["cache.hits"] + sums["cache.misses"] + sums["cache.bypasses"]
    out["stream.fusion_ratio"] = _ratio(sums["stream.ops_flushed"], sums["stream.ops_in"])
    out["cache.hit_ratio"] = _ratio(sums["cache.hits"], lookups)
    out["kernels.jit_frac"] = _ratio(
        sums["kernels.jit_hits"], sums["kernels.jit_hits"] + sums["kernels.numpy_fallbacks"]
    )
    out["trace.uncovered_frac"] = _ratio(sums["trace.uncovered_s"], sums["trace.wall_s"])
    out["trace.overhead"] = overhead
    return out
