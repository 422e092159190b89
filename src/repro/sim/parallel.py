"""Process-parallel chunk executor for the sharded engine.

The sharded engine's hot path — communication-free op runs and diagonal
phase-vector multiplies — touches each chunk independently, so chunks
can be updated concurrently.  :class:`ChunkPool` keeps ``N`` persistent
worker *processes* (spawned once, reused for every dispatch) that
operate on the chunks **in place** through
:mod:`multiprocessing.shared_memory` buffers: the engine allocates every
chunk in shared memory when ``workers > 0``, so dispatching a task ships
only a few hundred bytes (the shared-memory segment name plus tiny 2x2
matrices or a phase-vector reference), never the amplitudes.

The primary task kind is **run-level**: one task per worker covering a
static partition of the chunks for a whole communication-free stretch
of the execution schedule (see :mod:`repro.sim.schedule`), so a stretch
costs ``O(workers)`` queue round-trips instead of ``O(chunks x
entries)``:

* ``("segments", chunk_refs, n_local, payloads[, kernel_args[, dtype]])`` —
  ``chunk_refs`` is a tuple of ``(shm_name, size, chunk_index)`` for
  the worker's chunk slice; ``payloads`` is the stretch as
  ``("run", entries)`` kernel runs (:func:`apply_run`) and
  ``("mul", high_bits, vec_map)`` phase-vector multiplies, where
  ``vec_map`` maps each shard-bit signature to its staged scratch
  tensor ``(name, shape)`` and every chunk picks the tensor its own
  signature selects.  ``kernel_args`` is the engine dispatch's
  :meth:`~repro.sim.kernels.KernelDispatch.worker_args` spec: each
  worker process rebuilds (and warm-compiles, once per process) its
  own :class:`~repro.sim.kernels.KernelDispatch` from it, so jitted
  steps run inside the spawned processes without shipping compiled
  state across the queue.

Two single-chunk kinds are kept for targeted dispatch and tests:

* ``("run", chunk, size, n_local, ci, run[, kernel_args[, dtype]])`` —
  one kernel run on one chunk;
* ``("mul", chunk, size, n_local, vec_name, vec_shape[, dtype])`` — one
  staged phase tensor multiplied into one chunk.

The optional trailing ``dtype`` (a dtype string, default
``"complex128"``) is the amplitude precision of the referenced chunks —
the mixed-precision tier ships complex64 registers through the same
shm protocol.  Staged phase tensors stay complex128 in every mode.

Workers are started with the ``spawn`` method: the engine lives inside
multi-threaded SPMD programs (:mod:`repro.mpi.runtime`), where forking
is unsafe.  They are daemons, so an abandoned pool dies with the
parent; call :meth:`ChunkPool.close` for an orderly shutdown.

Speedup obviously requires real CPUs: with ``C`` cores, ``workers <= C``
is the useful range, and on a single-core host the executor only adds
IPC overhead (the benchmark records ``cpu_count`` next to its numbers
for exactly this reason).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import time
from multiprocessing import shared_memory

import numpy as np

from .kernels import DEFAULT_KERNELS, KernelDispatch
from .statevector import SimulationError

__all__ = ["ChunkPool", "apply_run", "contract_local", "PARALLEL_MIN_CHUNK"]

#: Default smallest chunk size (amplitudes) worth dispatching to the
#: pool.  Retuned from 2^14 to 2^12 for the run-level dispatch: one
#: ``("segments", ...)`` task per worker amortizes the queue round-trip
#: over a whole communication-free stretch, so the per-chunk IPC
#: overhead that set the old threshold shrank by roughly the
#: entries-per-stretch factor (measured by ``bench_diag_batching.py
#: --only-workers`` and the CI multi-core remeasure job; see
#: docs/benchmarks.md).  The per-process native-kernel warm-up no
#: longer enters this calibration at all: :class:`ChunkPool` passes the
#: engine's ``worker_args`` spec at spawn, so each worker compiles its
#: dispatch while the engine is still setting up, and the first timed
#: stretch sees only steady-state cost.
PARALLEL_MIN_CHUNK = 1 << 12


def contract_local(chunk: np.ndarray, u: np.ndarray, bits, n_local: int) -> None:
    """Contract a ``2^k x 2^k`` unitary into one chunk, in place.

    ``bits`` are chunk-local bit positions, first entry = the matrix's
    most significant index bit (the :class:`~repro.sim.plan.ContractionPlan`
    convention). The result is written back through the chunk view so
    shared-memory-backed chunks mutate in place.

    The chunk may carry leading shot-branch rows (flat size a multiple
    of ``2^n_local``, see :mod:`repro.sim.shots`): the leading ``-1``
    view axis folds them in and the contraction broadcasts over it.
    """
    # Cast u to the chunk's precision (a no-op for complex128): the
    # tensordot then runs cgemm/zgemm on the same rounded operands as
    # KernelDispatch.contract, keeping the two arms bit-identical.
    u = np.asarray(u, dtype=chunk.dtype)
    k = len(bits)
    axes = [1 + n_local - 1 - b for b in bits]
    v = chunk.reshape((-1,) + (2,) * n_local)
    t = np.tensordot(
        u.reshape((2,) * (2 * k)), v, axes=(range(k, 2 * k), axes)
    )
    v[...] = np.moveaxis(t, range(k), axes)


def apply_run(chunk: np.ndarray, run, n_local: int, ci: int, kernels=None) -> None:
    """Apply a run of communication-free kernels to one chunk.

    ``run`` is a sequence of tagged entries.  The pool workers run it
    whole; the engine's serial frozen replay calls it for ``ct``/``csel``
    entries and mirrors the other kinds step for step, so both paths
    execute identical arithmetic:

    * ``("sq", u, bit, diagonal)`` — a single-qubit 2x2 kernel: a
      local-axis strided pass or, for a diagonal on a shard axis, a
      whole-chunk scale by the factor selected by chunk index ``ci``;
    * ``("cc", u, cmask, local_controls, t_bit, diagonal)`` — a
      single-target controlled gate whose target is chunk-local (or
      diagonal on any axis): the chunk participates iff its shard-axis
      control bits ``cmask`` are all set in ``ci``, and the 2x2 kernel
      applies on the all-ones slice of the ``local_controls`` axes;
    * ``("ct", u, bits)`` — a :class:`~repro.sim.plan.ContractionPlan`
      whose window is entirely chunk-local: one matmul over the window
      axes (:func:`contract_local`);
    * ``("csel", table, hi_bits, lo_bits)`` — a plan whose fused
      unitary is block-diagonal on its shard axes: ``hi_bits`` (shard
      bit positions, window order) select the chunk's signature index
      into ``table``, whose entry is the local sub-block to contract
      over ``lo_bits`` — ``None`` for an identity sub-block (skip), a
      complex scalar when the window has no local qubits.

    ``kernels`` is the engine's :class:`~repro.sim.kernels.KernelDispatch`
    (``None`` = the shared numpy-mode dispatch): every entry routes
    through it, so the native driver and the planar numpy fallbacks are
    chosen per entry with identical arithmetic either way.
    """
    kd = kernels if kernels is not None else DEFAULT_KERNELS
    for entry in run:
        kind = entry[0]
        if kind == "sq":
            _, u, b, diag = entry
            if b >= n_local:
                # Diagonal on a shard axis: the whole chunk scales.
                kd.scale(chunk, u[1, 1] if (ci >> (b - n_local)) & 1 else u[0, 0])
            else:
                kd.sq(chunk, u, b, diag)
        elif kind == "cc":
            _, u, cmask, local_controls, t_bit, diag = entry
            if (ci & cmask) != cmask:
                continue
            if t_bit >= n_local:
                # Diagonal on a shard axis: the target bit is fixed per
                # chunk, so the control slice just scales.
                f = u[1, 1] if (ci >> (t_bit - n_local)) & 1 else u[0, 0]
                kd.masked_scale(chunk, f, local_controls, n_local)
            else:
                kd.cc(chunk, u, local_controls, t_bit, n_local, diag)
        elif kind == "ct":
            _, u, bits = entry
            if not kd.contract(chunk, u, bits, n_local):
                contract_local(chunk, u, bits, n_local)
        elif kind == "csel":
            _, table, hi_bits, lo_bits = entry
            sig = 0
            for sb in hi_bits:
                sig = (sig << 1) | ((ci >> sb) & 1)
            u = table[sig]
            if u is None:
                continue
            if not lo_bits:
                kd.scale(chunk, u)  # all-shard window: a per-chunk scalar
            elif not kd.contract(chunk, u, lo_bits, n_local):
                contract_local(chunk, u, lo_bits, n_local)
        else:  # pragma: no cover - protocol error
            raise ValueError(f"unknown run entry kind {kind!r}")


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block without adopting it.

    On Python 3.13+ ``track=False`` skips resource-tracker registration
    outright. On older versions the attach registers with the tracker
    the worker shares with the spawning engine — registration is
    idempotent there (set semantics), and the engine's own ``unlink``
    balances it, so no extra bookkeeping is needed.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12
        return shared_memory.SharedMemory(name=name)


def _as_array(
    shm: shared_memory.SharedMemory, count: int, dtype=np.complex128
) -> np.ndarray:
    return np.ndarray((count,), dtype=dtype, buffer=shm.buf)


def _worker_kernels(kernel_args):
    """Per-process kernel dispatch for pool workers.

    Built once per distinct ``(mode, jit_min_amps)`` spec and cached in
    the worker's module globals; construction warm-compiles (numba) or
    loads the prebuilt artifact (cffi) *before* the first chunk is
    touched, so cold-compile time never lands inside a timed stretch.
    """
    if kernel_args is None:
        return None
    kd = _WORKER_KERNELS.get(kernel_args)
    if kd is None:
        kd = KernelDispatch(kernel_args[0], jit_min_amps=kernel_args[1])
        kd.warmup()
        _WORKER_KERNELS[kernel_args] = kd
    return kd


_WORKER_KERNELS: dict[tuple, KernelDispatch] = {}


def _worker_main(tasks, results, warmup_args=None) -> None:
    """Worker loop: pop a task, mutate the referenced chunk, acknowledge.

    ``warmup_args`` is an optional
    :meth:`~repro.sim.kernels.KernelDispatch.worker_args` spec warmed
    *before* the first task is popped: the per-process native-provider
    import/compile then happens during pool spawn, concurrently with the
    engine's own work, instead of inside the first timed stretch — which
    keeps ``parallel_min_chunk`` a pure steady-state break-even.
    """
    if warmup_args is not None:
        try:
            _worker_kernels(tuple(warmup_args))
        except Exception:  # pragma: no cover - fall back to lazy warm-up
            pass
    while True:
        task = tasks.get()
        if task is None:
            return
        try:
            kind = task[0]
            if kind == "segments":
                _, chunk_refs, nl, payloads = task[:4]
                kd = _worker_kernels(task[4] if len(task) > 4 else None)
                dt = np.dtype(task[5]) if len(task) > 5 else np.complex128
                vec_shms: dict[str, shared_memory.SharedMemory] = {}
                vec_arrs: dict[str, np.ndarray] = {}
                try:
                    for name, count, ci in chunk_refs:
                        shm = _attach(name)
                        try:
                            arr = _as_array(shm, count, dt)
                            for p in payloads:
                                if p[0] == "run":
                                    apply_run(arr, p[1], nl, ci, kd)
                                else:  # ("mul", high_bits, vec_map)
                                    _, high_bits, vec_map = p
                                    sig = tuple(
                                        (ci >> hb) & 1 for hb in high_bits
                                    )
                                    vname, vshape = vec_map[sig]
                                    if vname not in vec_arrs:
                                        vshm = _attach(vname)
                                        vec_shms[vname] = vshm
                                        vec_arrs[vname] = np.ndarray(
                                            vshape,
                                            dtype=np.complex128,
                                            buffer=vshm.buf,
                                        )
                                    view = arr.reshape((-1,) + (2,) * nl)
                                    view *= vec_arrs[vname]
                                    del view
                            del arr
                        finally:
                            shm.close()
                finally:
                    vec_arrs.clear()
                    for vshm in vec_shms.values():
                        vshm.close()
            elif kind == "run":
                _, name, count, nl, ci, run = task[:6]
                kd = _worker_kernels(task[6] if len(task) > 6 else None)
                dt = np.dtype(task[7]) if len(task) > 7 else np.complex128
                shm = _attach(name)
                try:
                    apply_run(_as_array(shm, count, dt), run, nl, ci, kd)
                finally:
                    shm.close()
            elif kind == "mul":
                _, name, count, nl, vec_name, vec_shape = task[:6]
                dt = np.dtype(task[6]) if len(task) > 6 else np.complex128
                shm = _attach(name)
                vshm = _attach(vec_name)
                try:
                    # Phase tensors are always complex128 (see
                    # repro.sim.diag); the in-place multiply casts into
                    # the chunk dtype identically in every mode.
                    vec = np.ndarray(
                        vec_shape, dtype=np.complex128, buffer=vshm.buf
                    )
                    view = _as_array(shm, count, dt).reshape((-1,) + (2,) * nl)
                    view *= vec
                    del vec, view
                finally:
                    vshm.close()
                    shm.close()
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown task kind {kind!r}")
            results.put(None)
        except Exception as exc:  # surface, don't kill the worker
            results.put(f"{type(exc).__name__}: {exc}")


class ChunkPool:
    """A persistent pool of chunk-worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (must be >= 1).  Workers are spawned
        immediately and stay resident until :meth:`close`.
    warmup_args:
        Optional :meth:`~repro.sim.kernels.KernelDispatch.worker_args`
        spec each worker warms at startup, so the one-off native
        compile/import cost lands during spawn rather than inside the
        first dispatched stretch.
    """

    #: Seconds to wait for any single task acknowledgement before
    #: declaring the pool wedged (a worker died mid-task).
    TIMEOUT = 120.0

    def __init__(self, workers: int, warmup_args=None):
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        #: Total tasks ever dispatched (white-box dispatch accounting:
        #: run-level dispatch issues O(workers) tasks per
        #: communication-free stretch, not O(chunks x entries)).
        self.tasks_dispatched = 0
        ctx = mp.get_context("spawn")
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, warmup_args),
                daemon=True,
            )
            for _ in range(workers)
        ]
        for p in self._procs:
            p.start()

    @property
    def workers(self) -> int:
        """Number of worker processes in the pool."""
        return len(self._procs)

    def run_tasks(self, tasks) -> None:
        """Dispatch tasks to the pool and block until all acknowledge.

        Raises :class:`~repro.sim.statevector.SimulationError` if any
        worker reports an error or fails to acknowledge within
        :attr:`TIMEOUT` — in either case the chunks may be partially
        updated and the simulation state must be considered lost.
        """
        tasks = list(tasks)
        self.tasks_dispatched += len(tasks)
        for t in tasks:
            self._tasks.put(t)
        errors = []
        for _ in tasks:
            # The deadline is per acknowledgement: it resets on every
            # completed task, so a large batch of slow-but-progressing
            # tasks is never mistaken for a wedged pool.
            deadline = time.monotonic() + self.TIMEOUT
            while True:
                try:
                    ack = self._results.get(timeout=1.0)
                    break
                except _queue.Empty:
                    if not any(p.is_alive() for p in self._procs):
                        self.close()
                        raise SimulationError(
                            "all chunk workers died (spawn failure? the main "
                            "module must be importable for mp 'spawn')"
                        ) from None
                    if time.monotonic() > deadline:
                        self.close()
                        raise SimulationError(
                            "chunk worker did not acknowledge within "
                            f"{self.TIMEOUT}s (worker died mid-task?)"
                        ) from None
            if ack is not None:
                errors.append(ack)
        if errors:
            raise SimulationError(
                "chunk worker failed: " + "; ".join(errors)
            )

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        procs, self._procs = self._procs, []
        if not procs:
            return
        for _ in procs:
            try:
                self._tasks.put(None)
            except Exception:  # pragma: no cover - queue already closed
                break
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - wedged worker
                p.terminate()
                p.join(timeout=5.0)
        for q in (self._tasks, self._results):
            q.close()
            q.join_thread()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
