"""Sharded state-vector engine: amplitudes distributed across chunk ranks.

Classical HPC simulators (QCMPI; QuEST; the chunked ``SimDistribute``
design) do not funnel every operation through one rank-0-owned array the
way the paper's §6 prototype does. Instead the ``2^n`` amplitudes are
split into ``R`` contiguous chunks, one per simulation rank, and each
gate is applied cooperatively:

* a gate on a **local axis** (one of the low ``n - log2(R)`` bits) only
  permutes/combines amplitudes *within* each chunk, so every rank applies
  a vectorized strided kernel to its own flat array — no communication;
* a gate on a **high axis** (one of the top ``log2(R)`` bits) pairs each
  chunk with the chunk whose index differs in that bit, and the pair
  exchange their amplitudes before combining — here the exchange travels
  through the same :class:`repro.mpi.Fabric` mailboxes that carry QMPI's
  classical traffic, so message matching is exercised for real;
* **diagonal** gates — single-qubit (Z, S, T, Rz) or single-target
  controlled (CZ, controlled-phase) — never need the exchange even on
  high axes: each chunk just scales itself.

Layout
------
The state is a list of ``R`` flat contiguous complex arrays (complex128
by default; ``dtype="complex64"`` selects the half-footprint
mixed-precision tier, and ``spill=`` backs the chunks with memory-mapped
files once the register outgrows a RAM budget — see the constructor).
Global amplitude index ``g`` lives in ``chunks[g >> n_local][g & (csize - 1)]``
with ``csize = 2^n_local``.  Qubit handles are stable integer ids mapped
to *bit positions*: a freshly allocated qubit is the least significant
bit, pushing all existing qubits one bit up, which keeps both allocation
(interleave-doubling each chunk) and the paper-convention ``statevector``
(first-allocated qubit = most significant bit = plain chunk
concatenation) purely local operations.

While fewer than ``log2(R)`` qubits exist the engine runs with
``min(R, 2^n)`` active chunks and grows to the full shard count as qubits
are allocated; releasing a high-axis qubit compacts the chunk list again.

Batched execution compiles the flushed batch into an execution schedule
(:mod:`repro.sim.schedule` — see :meth:`ShardedStateVector.apply_ops`)
and replays it frozen: every record is classified against the chunk
layout exactly once, communication-free stretches execute chunk-by-chunk in
one pass (kernel runs, plan sub-blocks, and
:class:`~repro.sim.diag.DiagBatch` phase vectors materialized once per
shard-bit signature), and only ``mixing`` segments exchange chunks.
With ``workers=N`` each stretch ships to a persistent process pool
(:class:`~repro.sim.parallel.ChunkPool`) as one task per worker over a
static chunk partition, mutating shared-memory chunk buffers in place.

The class mirrors :class:`repro.sim.statevector.StateVector`'s public API
exactly (same methods, same error messages, same RNG draw discipline), so
the two engines are drop-in interchangeable behind
:class:`repro.qmpi.backend.QuantumBackend`.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from multiprocessing import shared_memory
from typing import Iterable, Sequence

import numpy as np

from ..mpi.fabric import Fabric
from . import gates as G
from . import kernels as _K
from .diag import DiagBatch, signature_vectors
from .kernels import KernelDispatch
from .parallel import PARALLEL_MIN_CHUNK, ChunkPool, apply_run, contract_local
from .schedule import (
    DEFAULT_COST_MODEL,
    DiagSegment,
    KernelRun,
    PlanSegment,
    compile_segments,
    iter_stretches,
)
from .shots import (
    branch_mask,
    branch_sq_norms,
    collapse_branches,
    fork_outcomes,
    keeps_branches,
    scale_branches,
)
from .statevector import SimulationError

__all__ = ["ShardedStateVector"]


def _pack_native(seq):
    """Pack one chunk's raw freeze items into typed step blocks.

    ``seq`` holds ``("s", code, arg0, arg1, seg, i)`` native-able steps
    and ``("p", step)`` python steps.  Maximal native runs become
    ``("blk", codes, arg0, arg1, refs)`` with int64 step arrays — one
    ``KernelDispatch.drive`` call each — while the matrices stay as
    ``(seg, i)`` refs re-read at execution so cache rebinding flows
    through.
    """
    out = []
    buf: list = []

    def flush():
        if buf:
            out.append(
                (
                    "blk",
                    np.array([b[0] for b in buf], dtype=np.int64),
                    np.array([b[1] for b in buf], dtype=np.int64),
                    np.array([b[2] for b in buf], dtype=np.int64),
                    tuple((b[3], b[4]) for b in buf),
                )
            )
            buf.clear()

    for item in seq:
        if item[0] == "s":
            buf.append(item[1:])
        else:
            flush()
            out.append(("py", item[1]))
    flush()
    return tuple(out)


class ShardedStateVector:
    """A dynamically sized state-vector simulator sharded into chunks.

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    n_shards:
        Number of chunks the amplitudes are distributed over; must be a
        power of two. ``n_shards=1`` degenerates to a single flat array.
    workers:
        Number of persistent chunk-worker processes for the opt-in
        parallel executor (default 0 = serial). When positive, chunks
        live in shared-memory buffers and communication-free op runs and
        diagonal phase-vector multiplies are mapped across the chunks by
        a :class:`~repro.sim.parallel.ChunkPool`. Call :meth:`close`
        when done (GC also closes as a safety net).
    parallel_min_chunk:
        Break-even chunk size (amplitudes) for dispatching a
        *single-kernel* stretch to the pool (default
        :data:`repro.sim.parallel.PARALLEL_MIN_CHUNK`). The gate is
        cost-aware: a stretch whose segment cost tags sum to k kernels
        dispatches at chunks k times smaller, because the one
        run-level round-trip amortizes over the whole stretch (see
        :meth:`_parallel_ready`). Tests force the pool with ``1``.
    kernels:
        Kernel dispatch mode — ``"auto"`` (native kernels at or above
        the :class:`~repro.sim.schedule.CostModel` break-even size
        ``jit_min_amps``), ``"numpy"`` (pure-numpy always), ``"jit"``
        (native whenever a provider is importable).  ``None`` reads
        ``REPRO_QMPI_KERNELS`` before defaulting to ``"auto"``.  All
        modes produce bit-identical amplitudes (see
        :mod:`repro.sim.kernels`).
    dtype:
        Amplitude precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory/bandwidth at float32
        precision; kernel arms stay bit-identical *within* the dtype).
        ``None`` reads ``REPRO_QMPI_DTYPE`` before defaulting to
        ``"complex128"``.
    spill:
        Out-of-core chunk store: ``None`` (default, chunks stay in
        RAM), ``"auto"`` (back chunks with ``np.memmap`` files under a
        temporary directory once the register exceeds the RAM budget)
        or a directory path (same, files created under that path).
        Spilled runs execute each communication-free stretch chunk by
        chunk in partition order, touching every chunk exactly once per
        stretch.  Mutually exclusive with ``workers`` (the pool's
        shared-memory backing is itself a storage tier).  Spill files
        are removed when the register shrinks back under budget and on
        :meth:`close`.
    spill_budget:
        RAM budget in bytes for the ``spill`` decision (default: the
        ``REPRO_QMPI_SPILL_BUDGET`` environment variable, else 1 GiB).
        The budget covers the register itself; transient working memory
        stays O(chunk), so keep it at a few chunks minimum.

    Examples
    --------
    >>> sv = ShardedStateVector(2, n_shards=2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    def __init__(
        self,
        n_qubits: int = 0,
        seed=None,
        n_shards: int = 4,
        workers: int = 0,
        parallel_min_chunk: int = PARALLEL_MIN_CHUNK,
        kernels: str | None = None,
        dtype: str | None = None,
        spill: str | None = None,
        spill_budget: int | None = None,
    ):
        if n_shards < 1 or (n_shards & (n_shards - 1)):
            raise SimulationError(f"n_shards must be a power of two, got {n_shards}")
        if workers < 0:
            raise SimulationError(f"workers must be >= 0, got {workers}")
        if dtype is None:
            dtype = os.environ.get("REPRO_QMPI_DTYPE") or "complex128"
        if str(dtype) not in ("complex64", "complex128"):
            raise SimulationError(
                f'dtype must be "complex128" or "complex64", got {dtype!r}'
            )
        self._dtype = np.dtype(str(dtype))
        # Tolerance knobs scale with the amplitude precision: float32
        # rounding leaves ~1e-7 residuals where float64 leaves ~1e-16.
        if self._dtype == np.complex64:
            self._zero_atol, self._norm_eps, self._agree_eps = 1e-4, 1e-6, 1e-5
        else:
            self._zero_atol, self._norm_eps, self._agree_eps = 1e-9, 1e-12, 1e-9
        if spill is not None and workers:
            raise SimulationError(
                "spill= and workers= are mutually exclusive storage tiers"
            )
        self._spill = str(spill) if spill is not None else None
        if spill_budget is None:
            spill_budget = int(
                os.environ.get("REPRO_QMPI_SPILL_BUDGET") or (1 << 30)
            )
        self._spill_budget = int(spill_budget)
        self._spill_dir: str | None = None
        self._spill_files: list[str] = []
        self._spill_seq = itertools.count()
        self._mmapped = False
        self.n_shards = n_shards
        # Kernel dispatch (repro.sim.kernels): "auto"/"numpy"/"jit",
        # None = the REPRO_QMPI_KERNELS environment default.  Amplitudes
        # are bit-identical in every mode; only the counters and the
        # wall clock move.
        self._kernels = KernelDispatch(
            kernels, jit_min_amps=DEFAULT_COST_MODEL.jit_min_amps
        )
        self._fabric = Fabric(n_shards)
        self._tags = itertools.count()
        self._workers = int(workers)
        self._parallel_min_chunk = int(parallel_min_chunk)
        self._pool: ChunkPool | None = None
        self._shm: list[shared_memory.SharedMemory] | None = [] if workers else None
        self._retired: list[shared_memory.SharedMemory] = []
        # Memoized run-level task partition: ((n_chunks, n_tasks), refs)
        # — reused verbatim across stretches (and cached-schedule
        # replays) until the chunk layout reallocates.
        self._partition_memo: tuple | None = None
        # Zero qubits == one chunk holding the single amplitude 1.
        self._chunks: list[np.ndarray] = []
        self._store_chunks([np.ones(1, dtype=self._dtype)])
        self._bit_of: dict[int, int] = {}
        self._next_id = 0
        self._shots: int | None = None
        self._shot_of: np.ndarray | None = None
        self._n_branches = 1
        self.segments_executed = 0
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        if n_qubits:
            self.alloc(n_qubits)

    # ------------------------------------------------------------------
    # shot-batched trajectories (see repro.sim.shots)
    # ------------------------------------------------------------------
    @property
    def shots(self) -> int | None:
        """Number of tracked shots, or ``None`` outside shots mode."""
        return self._shots

    @property
    def n_branches(self) -> int:
        """Number of distinct measurement histories currently tracked."""
        return self._n_branches

    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: track ``shots`` trajectories in one run.

        Each chunk gains leading *branch* rows (one per distinct
        measurement history, initially a single row shared by every
        shot): a chunk's flat array holds ``B`` stacked per-branch
        copies of its ``2^n_local`` amplitudes.  Strided local kernels
        and whole-chunk scalings are branch-agnostic on that layout, so
        unitary segments — including the worker-pool path — run
        untouched; only :meth:`measure` forks the rows.
        """
        if self._shots is not None:
            if self._bit_of:
                raise SimulationError(
                    "begin_shots() called twice on a non-empty engine"
                )
            # Empty engine (all qubits released): drop the leftover branch
            # rows (unobservable global phases) so a reused backend (job
            # runner) can start a new shot batch.
            self._store_chunks([np.ones(1, dtype=self._dtype)])
            self._n_branches = 1
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")
        self._shots = int(shots)
        self._shot_of = np.zeros(self._shots, dtype=np.int64)

    def reseed(self, seed) -> None:
        """Replace the measurement RNG (per-job streams use this hook)."""
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)

    def _require_unforked(self, what: str) -> None:
        if self._n_branches > 1:
            raise SimulationError(
                f"{what}() is ambiguous after a mid-circuit measurement "
                f"fork ({self._n_branches} branches); inspect counts or "
                "per-shot measurement results instead"
            )

    # ------------------------------------------------------------------
    # layout introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""
        return len(self._bit_of)

    @property
    def num_chunks(self) -> int:
        """Active chunk count (at most ``min(n_shards, 2^num_qubits)``;
        releasing a high-axis qubit halves it until the next alloc
        rebalances)."""
        return len(self._chunks)

    @property
    def chunk_size(self) -> int:
        """Amplitudes per chunk per branch (``2^n_local``)."""
        return self._chunks[0].size // self._n_branches

    @property
    def n_local(self) -> int:
        """Number of local (intra-chunk) axes."""
        return self.chunk_size.bit_length() - 1

    def chunk(self, rank: int) -> np.ndarray:
        """Chunk ``rank``'s amplitudes (a live view, for white-box tests)."""
        return self._chunks[rank]

    @property
    def qubit_ids(self) -> tuple[int, ...]:
        """Allocated qubit ids in allocation order (descending bit position)."""
        return tuple(sorted(self._bit_of, key=self._bit_of.__getitem__, reverse=True))

    @property
    def workers(self) -> int:
        """Worker-process count of the parallel chunk executor (0 = serial)."""
        return self._workers

    @property
    def dtype(self) -> str:
        """Amplitude dtype name, derived from the live chunks.

        Part of the engine :meth:`layout_key`, so cached schedules never
        replay across precisions.
        """
        return self._chunks[0].dtype.name

    # ------------------------------------------------------------------
    # chunk storage (shared-memory backed when workers are enabled)
    # ------------------------------------------------------------------
    def _store_chunks(self, arrs, layout: tuple[int, int] | None = None) -> None:
        """Install a new chunk list, preserving the storage backing.

        With ``workers=0`` this is a plain rebind. With workers enabled,
        a same-layout update copies into the existing shared-memory
        buffers (chunk identity stays stable — no segment churn on
        high-axis gates), while a layout change (alloc/release/
        rebalance) reallocates the segments.  With ``spill=`` set the
        storage tier (RAM arrays vs ``np.memmap`` files) is re-decided
        against the budget on every layout change.

        ``arrs`` may be a lazy iterable when ``layout`` — the new
        ``(n_chunks, flat_chunk_size)`` — is given, so alloc/release can
        stream chunks through without holding two full registers in RAM.
        """
        if self._spill is not None:
            self._store_spill(arrs, layout)
            return
        arrs = list(arrs)
        if self._shm is None:
            self._chunks = arrs
            return
        if len(arrs) == len(self._chunks) and all(
            a.size == c.size for a, c in zip(arrs, self._chunks)
        ):
            for a, c in zip(arrs, self._chunks):
                if a is not c:
                    c[:] = a
            return
        self._drain_retired()
        self._partition_memo = None
        old = self._shm
        self._shm = []
        chunks = []
        for a in arrs:
            shm = shared_memory.SharedMemory(
                create=True, size=max(16, a.size * a.dtype.itemsize)
            )
            self._shm.append(shm)
            view = np.ndarray((a.size,), dtype=a.dtype, buffer=shm.buf)
            view[:] = a
            chunks.append(view)
        self._chunks = chunks
        del arrs
        for s in old:
            self._release_shm(s)

    def _store_spill(self, arrs, layout: tuple[int, int] | None = None) -> None:
        """Spill-aware chunk install: memmap files past the RAM budget.

        The whole new generation is written before any old spill file is
        removed (the inputs may read from the old files), so transient
        disk usage peaks at two generations while RAM stays O(chunk).
        """
        if layout is None:
            arrs = list(arrs)
            layout = (len(arrs), arrs[0].size)
        n_chunks, csize = layout
        old_files = self._spill_files
        if n_chunks * csize * self._dtype.itemsize <= self._spill_budget:
            # RAM tier.  Copy defensively while the register is mmapped:
            # inputs may be (views of) the spill files about to go away.
            if self._mmapped:
                self._chunks = [np.array(a, dtype=self._dtype) for a in arrs]
                self._mmapped = False
            else:
                self._chunks = list(arrs)
        else:
            if self._spill_dir is None:
                base = None if self._spill == "auto" else self._spill
                if base is not None:
                    os.makedirs(base, exist_ok=True)
                self._spill_dir = tempfile.mkdtemp(prefix="qmpi-spill-", dir=base)
            gen = next(self._spill_seq)
            chunks: list[np.ndarray] = []
            files: list[str] = []
            for i, a in enumerate(arrs):
                path = os.path.join(self._spill_dir, f"chunk-{gen}-{i}.dat")
                m = np.memmap(path, dtype=self._dtype, mode="w+", shape=(csize,))
                m[:] = a
                chunks.append(m)
                files.append(path)
            self._chunks = chunks
            self._spill_files = files
            self._mmapped = True
        if old_files and (not self._mmapped or old_files is not self._spill_files):
            for p in old_files:
                try:
                    os.remove(p)
                except OSError:  # pragma: no cover - already gone
                    pass
            if not self._mmapped:
                self._spill_files = []

    def _set_chunk(self, i: int, arr: np.ndarray) -> None:
        """Replace one same-size chunk (in place when shm/memmap backed)."""
        if self._shm is None and not self._mmapped:
            self._chunks[i] = arr
        else:
            self._chunks[i][:] = arr

    def _release_shm(self, shm: shared_memory.SharedMemory) -> None:
        # Unlink first (always possible); if a stale external view still
        # pins the mapping, park the segment and retry the close later.
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            shm.close()
        except BufferError:
            self._retired.append(shm)

    def _drain_retired(self) -> None:
        still = []
        for shm in self._retired:
            try:
                shm.close()
            except BufferError:
                still.append(shm)
        self._retired = still

    def _get_pool(self) -> ChunkPool:
        if self._pool is None:
            # Warm each worker's kernel dispatch at spawn: the one-off
            # native provider import/compile then happens outside any
            # timed stretch, so parallel_min_chunk stays a pure
            # steady-state break-even (see repro.sim.parallel).
            warm = (
                self._kernels.worker_args()
                if self._kernels.mode != "numpy"
                else None
            )
            self._pool = ChunkPool(self._workers, warmup_args=warm)
        return self._pool

    def _parallel_ready(self, stretch_cost: float = DEFAULT_COST_MODEL.sq_flops) -> bool:
        """True when a stretch of this cost should ship to the pool.

        The gate is cost-aware: ``parallel_min_chunk`` is the break-even
        chunk size for a *single-kernel* stretch (cost ``sq_flops``),
        and run-level dispatch amortizes its one round-trip over the
        whole stretch, so a stretch carrying k times the work pays off
        at chunks k times smaller — ``chunk_size * stretch_cost`` is
        compared against the single-kernel break-even product.
        """
        return (
            self._workers > 0
            and len(self._chunks) > 1
            # Flat size (branch rows included): that is the work a
            # worker actually does per chunk.
            and self._chunks[0].size * stretch_cost
            >= self._parallel_min_chunk * DEFAULT_COST_MODEL.sq_flops
        )

    def close(self) -> None:
        """Shut down the worker pool and release shared-memory buffers.

        The engine stays usable afterwards: amplitudes migrate back to
        ordinary process-private arrays and execution continues
        serially. Idempotent; garbage collection calls it as a safety
        net, but deterministic cleanup (tests, long-lived services)
        should call it explicitly.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._shm is not None:
            self._chunks = [c.copy() for c in self._chunks]
            shms, self._shm = self._shm, None
            for s in shms:
                self._release_shm(s)
            self._workers = 0
        if self._mmapped:
            self._chunks = [np.array(c) for c in self._chunks]
            self._mmapped = False
        if self._spill_dir is not None:
            for p in self._spill_files:
                try:
                    os.remove(p)
                except OSError:  # pragma: no cover - already gone
                    pass
            self._spill_files = []
            try:
                os.rmdir(self._spill_dir)
            except OSError:  # pragma: no cover - user-owned dir not empty
                pass
            self._spill_dir = None
        self._spill = None
        self._drain_retired()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, n: int = 1) -> list[int]:
        """Allocate ``n`` fresh qubits in |0> and return their ids."""
        if n < 1:
            raise SimulationError(f"cannot allocate {n} qubits")
        ids = []
        for _ in range(n):
            qid = self._next_id
            self._next_id += 1
            for q in self._bit_of:
                self._bit_of[q] += 1
            self._bit_of[qid] = 0
            # New LSB in |0>: amplitudes interleave with zeros,
            # chunk-locally.  When the active chunk count is still below
            # n_shards the doubled chunk also splits at its top *local*
            # bit (per branch row) so the count tracks min(n_shards, 2^n).
            # Streamed through a generator: the spill store then never
            # holds more than O(chunk) fresh arrays in RAM.
            rebalance = len(self._chunks) < self.n_shards
            B = self._n_branches
            old_size = self._chunks[0].size

            def grown_iter():
                for c in self._chunks:
                    g = np.zeros(2 * c.size, dtype=self._dtype)
                    g[0::2] = c
                    if rebalance:
                        half = g.size // B // 2
                        v = g.reshape(B, -1)
                        yield np.ascontiguousarray(v[:, :half]).reshape(-1)
                        yield np.ascontiguousarray(v[:, half:]).reshape(-1)
                    else:
                        yield g

            layout = (
                (2 * len(self._chunks), old_size)
                if rebalance
                else (len(self._chunks), 2 * old_size)
            )
            self._store_chunks(grown_iter(), layout)
            ids.append(qid)
        return ids

    def release(self, qubit: int) -> None:
        """Release a qubit that is disentangled and in state |0>.

        Mirrors ``QMPI_Free_qmem``: freeing a qubit that still carries
        amplitude in |1> (or is entangled) is a program error.
        """
        b = self._bit(qubit)
        nl = self.n_local
        atol = self._zero_atol
        if b < nl:
            stride = 1 << b
            views = [c.reshape(-1, 2, stride) for c in self._chunks]
            if any(not np.allclose(v[:, 1, :], 0.0, atol=atol) for v in views):
                self._raise_not_zero(qubit)
            self._store_chunks(
                (np.ascontiguousarray(v[:, 0, :]).reshape(-1) for v in views),
                (len(self._chunks), self._chunks[0].size // 2),
            )
        else:
            mask = 1 << (b - nl)
            ones = [c for i, c in enumerate(self._chunks) if i & mask]
            if any(not np.allclose(c, 0.0, atol=atol) for c in ones):
                self._raise_not_zero(qubit)
            keep = [c for i, c in enumerate(self._chunks) if not i & mask]
            self._store_chunks(keep, (len(keep), keep[0].size))
        del self._bit_of[qubit]
        for q, bb in self._bit_of.items():
            if bb > b:
                self._bit_of[q] = bb - 1

    def measure_and_release(self, qubit: int) -> int:
        """Measure ``qubit`` in the Z basis, then remove it. Returns the bit."""
        bit = self.measure(qubit)
        self.apply_pauli_if(bit, "X", qubit)
        self.release(qubit)
        return bit

    def _bit(self, qubit: int) -> int:
        try:
            return self._bit_of[qubit]
        except KeyError:
            raise SimulationError(f"unknown qubit id {qubit}") from None

    @staticmethod
    def _raise_not_zero(qubit: int) -> None:
        raise SimulationError(
            f"qubit {qubit} is not in |0> (or is entangled); "
            "measure/uncompute before releasing"
        )

    # ------------------------------------------------------------------
    # chunk exchange (the communication layer)
    # ------------------------------------------------------------------
    def _pair_exchange(self, shard_bit: int) -> list[np.ndarray]:
        """Every chunk sends its amplitudes to its partner in ``shard_bit``
        and receives the partner's, all through the fabric mailboxes.
        Returns the partner chunk for each chunk index."""
        tag = next(self._tags)
        mask = 1 << shard_bit
        for c in range(len(self._chunks)):
            self._fabric.send(0, c, c ^ mask, tag, self._chunks[c])
        return [
            self._fabric.recv(0, c, c ^ mask, tag).payload
            for c in range(len(self._chunks))
        ]

    def _group_exchange(
        self, shard_bits: Sequence[int]
    ) -> tuple[dict[int, list[int]], dict[int, list[np.ndarray]]]:
        """All-to-all chunk exchange within each ``2^h``-member group.

        Chunks agreeing on every shard bit *not* in ``shard_bits`` form a
        group; each member ships its chunk to every other member over the
        fabric. Returns ``(groups, gathered)`` where ``groups`` maps a
        group base index to its member indices (ascending, i.e. ordered by
        the value of the ``shard_bits`` coordinate) and ``gathered`` maps
        each chunk index to the group's chunks in that same order.
        """
        tag = next(self._tags)
        groups: dict[int, list[int]] = {}
        for c in range(len(self._chunks)):
            base = c
            for j in shard_bits:
                base &= ~(1 << j)
            groups.setdefault(base, []).append(c)
        for members in groups.values():
            for src in members:
                for dst in members:
                    if dst != src:
                        self._fabric.send(0, src, dst, tag, self._chunks[src])
        gathered: dict[int, list[np.ndarray]] = {}
        for members in groups.values():
            for dst in members:
                gathered[dst] = [
                    self._chunks[dst]
                    if src == dst
                    else self._fabric.recv(0, dst, src, tag).payload
                    for src in members
                ]
        return groups, gathered

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply_ops(self, ops) -> None:
        """Execute a batch of typed op records (see :mod:`repro.qmpi.ops`)
        as a compiled execution schedule.

        The batch is compiled once into typed segments by
        :func:`repro.sim.schedule.compile_segments` — every record is
        classified against the chunk layout exactly once (local /
        block-diagonal-shard-axes / mixing) — then frozen and replayed
        (:meth:`execute_segments`): maximal communication-free stretches
        execute chunk-by-chunk in one pass (kernel runs, sub-block
        selections and phase-vector multiplies), and only a ``mixing``
        segment exchanges chunks through the fabric.  With ``workers=N``
        each stretch is shipped to the pool as **one task per worker**
        covering a static partition of the chunks (run-level dispatch:
        O(workers) queue round-trips per stretch instead of
        O(chunks x entries)).
        """
        self.execute_segments(self.compile_batch(ops))

    # ------------------------------------------------------------------
    # schedule-cache engine API (see repro.sim.cache)
    # ------------------------------------------------------------------
    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Pins each touched qubit's global bit position, the chunk
        boundary, the active chunk count, the presence of shot-branch
        rows, and the amplitude dtype — everything
        :meth:`compile_batch`'s classification *and* the frozen replay
        depend on.  Equal keys mean a cached segment list
        compiled under one is exact under the other; unknown qubit ids
        raise, so a recycled engine can never bind a stale schedule.
        """
        return (
            "sharded",
            tuple(self._bit(q) for q in qubits),
            self.n_local,
            len(self._chunks),
            self._shots is not None,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch against the current chunk layout."""
        return compile_segments(ops, bit=self._bit, n_local=self.n_local)

    def execute_segments(self, segments) -> None:
        """Execute a compiled segment list: freeze it, then replay it.

        One-shot flushes and the schedule cache's replays share
        :meth:`execute_frozen`, so this engine has one segment
        interpreter.  perfbench's engine layer hooks this method by
        name.
        """
        self.execute_frozen(self.freeze_segments(segments))

    # ------------------------------------------------------------------
    # frozen replay (every flush)
    # ------------------------------------------------------------------
    def freeze_segments(self, segments):
        """Freeze a bound segment list into a replay program.

        Precomputes the stretch grouping (:func:`iter_stretches`), the
        per-stretch cost tag (structural — rebinding never changes it),
        the run/diag fold boundaries, and — per kernel-run fold — one
        specialized step list **per chunk** (:meth:`_freeze_run`): every
        branch :func:`~repro.sim.parallel.apply_run` decides per entry
        per chunk per flush (kind dispatch, shard-axis factor selection,
        control-mask participation, index-tuple construction) is decided
        once here.  Steps reference the live segment objects and re-read
        their entries on every execution, so the cache's in-place
        parameter rebinding flows through; the arithmetic on the
        amplitudes is :func:`~repro.sim.parallel.apply_run`'s (the
        worker path's), expression for expression.
        """
        nl = self.n_local
        n_chunks = len(self._chunks)
        steps = []
        for stretch, barrier in iter_stretches(segments):
            if stretch:
                folds = []
                run: list = []
                for seg in stretch:
                    if isinstance(seg, DiagSegment):
                        if run:
                            folds.append(
                                ("run", self._freeze_run(run, nl, n_chunks))
                            )
                            run = []
                        folds.append(("diag", seg))
                    else:
                        run.append(seg)
                if run:
                    folds.append(("run", self._freeze_run(run, nl, n_chunks)))
                cost = sum(seg.cost for seg in stretch)
                steps.append(
                    ("stretch", tuple(stretch), cost, tuple(folds), len(stretch))
                )
            if barrier is not None:
                steps.append(("barrier", barrier))
        return tuple(steps)

    @staticmethod
    def _freeze_run(segs, nl, n_chunks):
        """Specialize a kernel-run fold into per-chunk replay programs.

        Mirrors :func:`~repro.sim.parallel.apply_run`'s dispatch exactly:
        each entry becomes, per chunk, one precomputed step — or no step
        at all for a chunk whose shard-axis control bits rule it out.
        Only ``(seg, i)`` references are stored for the matrices, which
        rebinding replaces inside the live segments.

        Returns ``(per_chunk, native)``: the tagged python step lists
        (the planar-numpy arm) and, per chunk, the same program packed
        into contiguous typed step arrays — maximal ``("blk", codes,
        arg0, arg1, refs)`` runs of :mod:`repro.sim.kernels` opcodes
        that one native ``drive`` call walks per chunk, broken by
        ``("py", step)`` items for the generic ``ct``/``csel`` entries
        (whose matmul stays on BLAS in every mode).  Which arm executes
        is decided per chunk per flush by the engine's dispatch; both
        arms replay the identical planar expression tree.
        """
        per_chunk: list[list] = [[] for _ in range(n_chunks)]
        raw_native: list[list] = [[] for _ in range(n_chunks)]
        vshape = (-1,) + (2,) * nl
        for seg in segs:
            if isinstance(seg, KernelRun):
                sources = [(seg, i, e) for i, e in enumerate(seg.entries)]
            else:  # communication-free PlanSegment
                sources = [(seg, None, seg.entry)]
            for src, i, e in sources:
                kind = e[0]
                if kind == "sq":
                    b, diag = e[2], e[3]
                    if b >= nl:
                        sh = b - nl
                        for ci in range(n_chunks):
                            sel = (ci >> sh) & 1
                            per_chunk[ci].append(("ss", src, i, sel))
                            raw_native[ci].append(
                                ("s", _K.OP_SCALE, sel, 0, src, i)
                            )
                    else:
                        shp = (-1, 2, 1 << b)
                        tag = "sd" if diag else "sf"
                        code = _K.OP_SQ_DIAG if diag else _K.OP_SQ_FULL
                        for ci in range(n_chunks):
                            per_chunk[ci].append((tag, src, i, shp))
                            raw_native[ci].append(("s", code, b, 0, src, i))
                elif kind == "cc":
                    cmask, local_controls, t_bit, diag = e[2], e[3], e[4], e[5]
                    base: list = [slice(None)] * (nl + 1)
                    lmask = 0
                    for b in local_controls:
                        base[1 + nl - 1 - b] = 1
                        lmask |= 1 << b
                    if t_bit >= nl:
                        idx = tuple(base)
                        sh = t_bit - nl
                        for ci in range(n_chunks):
                            if (ci & cmask) != cmask:
                                continue
                            sel = (ci >> sh) & 1
                            per_chunk[ci].append(
                                ("cs", src, i, vshape, idx, sel)
                            )
                            raw_native[ci].append(
                                ("s", _K.OP_MASK_SCALE, lmask, sel, src, i)
                            )
                    else:
                        ax = 1 + nl - 1 - t_bit
                        idx0 = list(base)
                        idx0[ax] = 0
                        idx1 = list(base)
                        idx1[ax] = 1
                        step = (
                            "cd" if diag else "cf",
                            src,
                            i,
                            vshape,
                            tuple(idx0),
                            tuple(idx1),
                        )
                        code = _K.OP_CC_DIAG if diag else _K.OP_CC_FULL
                        for ci in range(n_chunks):
                            if (ci & cmask) != cmask:
                                continue
                            per_chunk[ci].append(step)
                            raw_native[ci].append(
                                ("s", code, lmask, t_bit, src, i)
                            )
                elif i is None:  # PlanSegment "ct"/"csel": generic entry
                    for ci in range(n_chunks):
                        per_chunk[ci].append(("gp", src))
                        raw_native[ci].append(("p", ("gp", src)))
                else:  # KernelRun "ct"/"csel": generic entry
                    for ci in range(n_chunks):
                        per_chunk[ci].append(("g", src, i))
                        raw_native[ci].append(("p", ("g", src, i)))
        native = tuple(_pack_native(seq) for seq in raw_native)
        return tuple(tuple(s) for s in per_chunk), native

    def _exec_frozen_chunk(self, frozen, nl, ci, chunk) -> None:
        """Replay one chunk's frozen kernel-fold program.

        When the engine's dispatch goes native for the chunk, the typed
        step blocks are walked by one compiled ``drive`` call each
        (matrices re-filled from the live ``(seg, i)`` refs, so cache
        rebinding flows through); otherwise each tagged python step
        replays the same planar expression tree through the
        :mod:`repro.sim.kernels` numpy helpers.  The two arms are
        bit-identical by the planar kernel contract; scalars and
        matrices are rounded to the chunk dtype exactly once here (the
        rounding boundary) in both arms.
        """
        per_chunk, native = frozen
        kd = self._kernels
        c64 = chunk.dtype == np.complex64
        if kd.native(chunk.size):
            for item in native[ci]:
                if item[0] == "blk":
                    _, codes, arg0, arg1, refs = item
                    mats = np.empty((len(refs), 4), dtype=chunk.dtype)
                    for j, (src, i) in enumerate(refs):
                        u = src.entries[i][1]
                        mats[j, 0] = u[0, 0]
                        mats[j, 1] = u[0, 1]
                        mats[j, 2] = u[1, 0]
                        mats[j, 3] = u[1, 1]
                    kd.drive(
                        chunk,
                        codes,
                        arg0,
                        arg1,
                        mats.view(np.float32 if c64 else np.float64),
                    )
                else:  # ("py", step): generic ct/csel entry
                    st = item[1]
                    if st[0] == "g":
                        apply_run(chunk, (st[1].entries[st[2]],), nl, ci, kd)
                    else:
                        apply_run(chunk, (st[1].entry,), nl, ci, kd)
            return
        counters = kd.counters
        for st in per_chunk[ci]:
            tag = st[0]
            if tag == "sf":
                counters["numpy_fallbacks"] += 1
                _K.sq_full_view(chunk.reshape(st[3]), st[1].entries[st[2]][1])
            elif tag == "sd":
                counters["numpy_fallbacks"] += 1
                _K.sq_diag_view(chunk.reshape(st[3]), st[1].entries[st[2]][1])
            elif tag == "cf":
                counters["numpy_fallbacks"] += 1
                _K.cc_full_view(
                    chunk.reshape(st[3]), st[4], st[5], st[1].entries[st[2]][1]
                )
            elif tag == "cd":
                counters["numpy_fallbacks"] += 1
                _K.cc_diag_view(
                    chunk.reshape(st[3]), st[4], st[5], st[1].entries[st[2]][1]
                )
            elif tag == "ss":
                counters["numpy_fallbacks"] += 1
                u = st[1].entries[st[2]][1]
                f = u[st[3], st[3]]
                if c64:
                    # Round once, like the native arm's mats staging
                    # (multiplying by an exactly-1.0 rounded factor is
                    # the identity, so the skip guard cannot diverge).
                    f = complex(np.complex64(f))
                if f != 1.0:
                    _K.imul(chunk, f)
            elif tag == "cs":
                counters["numpy_fallbacks"] += 1
                u = st[1].entries[st[2]][1]
                f = u[st[5], st[5]]
                if c64:
                    f = complex(np.complex64(f))
                if f != 1.0:
                    _K.imul(chunk.reshape(st[3])[st[4]], f)
            elif tag == "g":
                apply_run(chunk, (st[1].entries[st[2]],), nl, ci, kd)
            else:  # "gp"
                apply_run(chunk, (st[1].entry,), nl, ci, kd)

    def execute_frozen(self, program) -> None:
        """Replay a frozen program (see :meth:`freeze_segments`).

        Every flush on this engine runs here: one-shot flushes through
        :meth:`execute_segments`, cached ones straight from the
        schedule cache.  A stretch the pool is ready for ships to the workers
        (:meth:`_dispatch_stretch`); otherwise it runs serially.
        """
        nl = self.n_local
        for step in program:
            if step[0] == "stretch":
                _, stretch, cost, folds, n_segments = step
                self.segments_executed += n_segments
                if self._parallel_ready(cost):
                    self._dispatch_stretch(stretch)
                    continue
                # Chunk-major: materialize every fold's phase tensors
                # first, then touch each chunk exactly once for the whole
                # stretch (chunks are independent between barriers, so
                # the per-chunk op order — and the amplitudes — are
                # identical to fold-major order).  Out-of-core registers
                # then stream each chunk through the page cache once per
                # stretch instead of once per fold.
                prepped = [
                    ("diag", self._prep_diag_batch(payload.batch))
                    if kind == "diag"
                    else ("run", payload)
                    for kind, payload in folds
                ]
                for ci, chunk in enumerate(self._chunks):
                    for kind, payload in prepped:
                        if kind == "diag":
                            vecs, sig_of = payload
                            v = chunk.reshape((-1,) + (2,) * nl)
                            v *= vecs[sig_of[ci]]
                        else:
                            self._exec_frozen_chunk(payload, nl, ci, chunk)
                continue
            barrier = step[1]
            self.segments_executed += 1
            if isinstance(barrier, PlanSegment):
                self.apply(barrier.plan.u, *barrier.plan.qubits)
            else:
                op = barrier.op
                if op.controls:
                    self.apply_controlled(
                        op.target_matrix(), list(op.controls), list(op.targets)
                    )
                else:
                    self.apply(op.target_matrix(), *op.targets)

    @staticmethod
    def _fold_stretch(stretch):
        """Fold a stretch into bulk payloads: the one shared walk.

        Yields ``("run", entries)`` for each maximal run of kernel
        entries (:class:`~repro.sim.schedule.KernelRun` entries plus
        communication-free :class:`~repro.sim.schedule.PlanSegment`
        entries, merged across segment boundaries) and
        ``("diag", batch)`` for each diagonal segment, in program
        order.  The run-level pool dispatch (:meth:`_dispatch_stretch`)
        ships these payloads to the workers, which run them through
        :func:`~repro.sim.parallel.apply_run` — the arithmetic the
        serial frozen replay mirrors step for step.
        """
        entries: list = []
        for seg in stretch:
            if isinstance(seg, DiagSegment):
                if entries:
                    yield ("run", tuple(entries))
                    entries = []
                yield ("diag", seg.batch)
            elif isinstance(seg, KernelRun):
                entries.extend(seg.entries)
            else:  # communication-free PlanSegment
                entries.append(seg.entry)
        if entries:
            yield ("run", tuple(entries))

    def _batch_tables(self, batch: DiagBatch):
        """A batch's phase tables keyed by bit position (chunk layout)."""
        singles = [(self._bit(q), t) for q, t in batch.phases1.items()]
        pairs = [
            ((self._bit(a), self._bit(b)), t)
            for (a, b), t in batch.phases2.items()
        ]
        return singles, pairs

    def _prep_diag_batch(self, batch: DiagBatch):
        """Materialize a diagonal batch's per-signature phase tensors.

        The per-qubit/per-pair phase tables become one broadcastable
        complex128 tensor per *shard-bit signature*
        (:func:`repro.sim.diag.signature_vectors`) — computed once per
        signature and shared by every chunk with it.  Phase tensors stay
        complex128 in every register dtype: the in-place chunk multiply
        casts on store, so a complex64 register still sees phases
        accumulated at full precision.
        """
        singles, pairs = self._batch_tables(batch)
        _, vecs, sig_of = signature_vectors(
            singles, pairs, self.n_local, len(self._chunks), kernels=self._kernels
        )
        return vecs, sig_of

    def _dispatch_stretch(self, stretch) -> None:
        """Ship a communication-free stretch to the pool, run-level.

        The stretch is folded into worker payloads — consecutive kernel
        entries merge into ``("run", entries)`` records, each diagonal
        segment stages its per-signature phase tensors once in scratch
        shared memory and becomes ``("mul", high_bits, vec_map)`` — and
        the chunks are partitioned statically: **one**
        ``("segments", chunk_slice, ...)`` task per worker covers the
        whole stretch, so queue round-trips are O(workers) per stretch
        (the scratch staging is the in-process analogue of "compute on
        rank 0, broadcast").
        """
        nl = self.n_local
        payloads: list[tuple] = []
        scratch: list[shared_memory.SharedMemory] = []
        try:
            for kind, payload in self._fold_stretch(stretch):
                if kind == "run":
                    payloads.append(("run", payload))
                    continue
                singles, pairs = self._batch_tables(payload)
                high_bits, vecs, _ = signature_vectors(
                    singles, pairs, nl, len(self._chunks), kernels=self._kernels
                )
                vec_map: dict[tuple[int, ...], tuple[str, tuple]] = {}
                for sig, vec in vecs.items():
                    shm = shared_memory.SharedMemory(
                        create=True, size=max(16, vec.nbytes)
                    )
                    scratch.append(shm)
                    staged = np.ndarray(
                        vec.shape, dtype=np.complex128, buffer=shm.buf
                    )
                    staged[...] = vec
                    del staged
                    vec_map[sig] = (shm.name, vec.shape)
                payloads.append(("mul", tuple(high_bits), vec_map))
            pool = self._get_pool()
            n_chunks = len(self._chunks)
            n_tasks = min(pool.workers, n_chunks)
            memo = self._partition_memo
            if memo is None or memo[0] != (n_chunks, n_tasks):
                parts = []
                for w in range(n_tasks):
                    lo = w * n_chunks // n_tasks
                    hi = (w + 1) * n_chunks // n_tasks
                    parts.append(
                        tuple(
                            (self._shm[ci].name, self._chunks[ci].size, ci)
                            for ci in range(lo, hi)
                        )
                    )
                memo = ((n_chunks, n_tasks), tuple(parts))
                self._partition_memo = memo
            kargs = self._kernels.worker_args()
            tasks = [
                ("segments", refs, nl, tuple(payloads), kargs, self.dtype)
                for refs in memo[1]
            ]
            pool.run_tasks(tasks)
        finally:
            for shm in scratch:
                self._release_shm(shm)

    def apply(self, u: np.ndarray, *qubits: int) -> None:
        """Apply a ``2^k x 2^k`` unitary to ``k`` qubits.

        The first qubit in ``qubits`` corresponds to the most significant
        bit of the matrix index (``U = sum |i><j|`` over k-bit ints).
        """
        k = len(qubits)
        if len(set(qubits)) != k:
            raise SimulationError(f"duplicate qubits in {qubits}")
        # Rounding boundary: the matrix lands in the register dtype once,
        # so all downstream arithmetic runs in-precision (and NEP 50
        # never silently promotes a complex64 register to complex128).
        u = np.asarray(u, dtype=self._dtype)
        if u.shape != (2**k, 2**k):
            raise SimulationError(
                f"matrix shape {u.shape} does not match {k} qubits"
            )
        bits = [self._bit(q) for q in qubits]
        if k == 1:
            self._apply_single(u, bits[0])
        elif all(b < self.n_local for b in bits):
            self._apply_local(u, bits)
        else:
            self._apply_mixed(u, bits)

    def _apply_single(self, u: np.ndarray, b: int) -> None:
        nl = self.n_local
        if u[0, 1] == 0 and u[1, 0] == 0:
            # Diagonal gate: pure per-amplitude phase, never communicates.
            if b < nl:
                stride = 1 << b
                for c in self._chunks:
                    v = c.reshape(-1, 2, stride)
                    if u[0, 0] != 1.0:
                        v[:, 0, :] *= u[0, 0]
                    if u[1, 1] != 1.0:
                        v[:, 1, :] *= u[1, 1]
            else:
                mask = 1 << (b - nl)
                for i, c in enumerate(self._chunks):
                    c *= u[1, 1] if i & mask else u[0, 0]
            return
        if b < nl:
            # Local axis: strided in-place kernel on each flat chunk.
            stride = 1 << b
            for c in self._chunks:
                v = c.reshape(-1, 2, stride)
                a0 = v[:, 0, :].copy()
                a1 = v[:, 1, :]
                v[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
                v[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1
            return
        # High axis: pair-chunk exchange, then a local linear
        # combination, one pair at a time so peak transient RAM is
        # O(chunk) rather than a second full register.  The fabric
        # payloads alias live peer chunks, so both halves of a pair are
        # computed before either is written.
        mask = 1 << (b - nl)
        partners = self._pair_exchange(b - nl)
        for i in range(len(self._chunks)):
            if i & mask:
                continue
            j = i | mask
            new_lo = u[0, 0] * self._chunks[i] + u[0, 1] * partners[i]
            new_hi = u[1, 0] * partners[j] + u[1, 1] * self._chunks[j]
            self._set_chunk(i, new_lo)
            self._set_chunk(j, new_hi)

    def _apply_local(self, u: np.ndarray, bits: Sequence[int]) -> None:
        # All axes intra-chunk: tensor contraction per chunk, no traffic
        # (the same in-place kernel the plan run entries use).
        nl = self.n_local
        for c in self._chunks:
            contract_local(c, u, bits, nl)

    def _apply_mixed(self, u: np.ndarray, bits: Sequence[int]) -> None:
        # At least one high axis: gather the 2^h group chunks, contract the
        # full group tensor, keep our slice. (Each member recomputes the
        # group tensor — redundant by 2^h, but h <= log2(n_shards) and
        # high-axis multi-qubit gates are the rare, communication-bound
        # case by construction.)
        k = len(bits)
        nl = self.n_local
        shard_bits = sorted({b - nl for b in bits if b >= nl})
        h = len(shard_bits)
        groups, gathered = self._group_exchange(shard_bits)
        ut = u.reshape((2,) * (2 * k))
        # Group-tensor axes: h shard axes first (most significant shard bit
        # first), then a folded shot-branch axis (size 1 when unbranched),
        # then the n_local intra-chunk axes (bit nl-1 first).
        axes = [
            (h - 1 - shard_bits.index(b - nl)) if b >= nl else (h + 1 + nl - 1 - b)
            for b in bits
        ]
        # Per-group compute-then-write: the gathered payloads alias live
        # member chunks, so every member's new slice is computed before
        # any member is mutated — and groups are disjoint, so finishing
        # one group before starting the next keeps peak transient RAM at
        # O(group) instead of a second full register.
        for members in groups.values():
            new: dict[int, np.ndarray] = {}
            for dst in members:
                t = np.stack(gathered[dst]).reshape((2,) * h + (-1,) + (2,) * nl)
                t = np.tensordot(ut, t, axes=(range(k, 2 * k), axes))
                t = np.moveaxis(t, range(k), axes)
                own = tuple((dst >> shard_bits[h - 1 - i]) & 1 for i in range(h))
                new[dst] = np.ascontiguousarray(t[own]).reshape(-1)
            for dst in members:
                self._set_chunk(dst, new[dst])

    def apply_controlled(
        self, u: np.ndarray, controls: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Apply ``u`` on ``targets`` conditioned on all ``controls`` = |1>.

        When every target is a local axis this needs no communication at
        all, regardless of where the controls live: a chunk participates
        only if all its high-axis control bits are 1, and within it the
        |1...1> local-control slice is updated in place. Diagonal
        single-target gates (cz, controlled-phase) are communication-free
        on any axis; only a non-diagonal high-axis *target* falls back to
        the dense controlled matrix (and its exchange).
        """
        controls = list(controls)
        targets = list(targets)
        if set(controls) & set(targets):
            raise SimulationError("control and target qubits overlap")
        k = len(targets)
        u = np.asarray(u, dtype=self._dtype)
        if u.shape != (2**k, 2**k):
            raise SimulationError(
                f"matrix shape {u.shape} does not match {k} targets"
            )
        if not controls:
            self.apply(u, *targets)
            return
        nl = self.n_local
        c_bits = [self._bit(q) for q in controls]
        t_bits = [self._bit(q) for q in targets]
        if len(set(c_bits + t_bits)) != len(c_bits) + len(t_bits):
            raise SimulationError(f"duplicate qubits in {(*controls, *targets)}")
        if any(b >= nl for b in t_bits):
            if k == 1 and u[0, 1] == 0 and u[1, 0] == 0:
                # Diagonal single-target (cz, controlled-phase): a pure
                # phase needs no exchange even on a high axis — the
                # target bit is fixed per chunk.
                tb = t_bits[0] - nl
                cmask = sum(1 << (b - nl) for b in c_bits if b >= nl)
                # Leading -1 axis folds in any shot-branch rows.
                idx: list = [slice(None)] * (nl + 1)
                for b in c_bits:
                    if b < nl:
                        idx[1 + nl - 1 - b] = 1
                idx = tuple(idx)
                for i, c in enumerate(self._chunks):
                    if (i & cmask) != cmask:
                        continue
                    f = u[1, 1] if (i >> tb) & 1 else u[0, 0]
                    if f != 1.0:
                        c.reshape((-1,) + (2,) * nl)[idx] *= f
                return
            if k == 1:
                self._apply_controlled_high_target(u, c_bits, t_bits[0])
                return
            self.apply(G.controlled(u, len(controls)), *controls, *targets)
            return
        mask = sum(1 << (b - nl) for b in c_bits if b >= nl)
        local_controls = [b for b in c_bits if b < nl]
        ut = u.reshape((2,) * (2 * k))
        # Leading -1 axis folds in any shot-branch rows (no-op when
        # unbranched); local axes shift up by one.
        idx: list = [slice(None)] * (nl + 1)
        for b in local_controls:
            idx[1 + nl - 1 - b] = 1
        idx = tuple(idx)
        if k == 1:
            # Strided fast path for the cnot/cz/toffoli family: operate on
            # the two target slices of the |1...1> control subspace.
            ax = 1 + nl - 1 - t_bits[0]
            idx0 = list(idx)
            idx0[ax] = 0
            idx0 = tuple(idx0)
            idx1 = list(idx)
            idx1[ax] = 1
            idx1 = tuple(idx1)
            diag = u[0, 1] == 0 and u[1, 0] == 0
            for i, c in enumerate(self._chunks):
                if (i & mask) != mask:
                    continue
                view = c.reshape((-1,) + (2,) * nl)
                if diag:
                    # Indexed in-place ops: a plain `view[idx0] * u` would be
                    # a copy once every axis is integer-indexed (chunk_size 2).
                    if u[0, 0] != 1.0:
                        view[idx0] *= u[0, 0]
                    if u[1, 1] != 1.0:
                        view[idx1] *= u[1, 1]
                else:
                    a0 = view[idx0]
                    a1 = view[idx1]
                    new0 = u[0, 0] * a0 + u[0, 1] * a1
                    view[idx1] = u[1, 0] * a0 + u[1, 1] * a1
                    view[idx0] = new0
            return
        # Target axes within the sliced view shift down past removed
        # control axes (same arithmetic as StateVector.apply_controlled);
        # the leading branch axis survives the slicing at position 0.
        t_axes = [
            1 + nl - 1 - b - sum(1 for cb in local_controls if cb > b)
            for b in t_bits
        ]
        for i, c in enumerate(self._chunks):
            if (i & mask) != mask:
                continue
            view = c.reshape((-1,) + (2,) * nl)
            sub = view[idx]
            new = np.tensordot(ut, sub, axes=(range(k, 2 * k), t_axes))
            view[idx] = np.moveaxis(new, range(k), t_axes)

    def _apply_controlled_high_target(self, u: np.ndarray, c_bits, t_bit: int) -> None:
        """Non-diagonal single-target controlled gate whose target is a
        shard axis: pair-chunk exchange restricted to participating chunks.

        Only chunks whose high-axis control bits are all 1 take part; each
        sends its amplitudes to its partner in the target bit and combines
        on the |1...1> slice of any *local* control axes. This replaces
        the dense ``controlled(u)`` + group all-to-all fallback: half (or
        fewer) of the chunks exchange, pairwise, with no group tensor.
        """
        nl = self.n_local
        cmask = sum(1 << (b - nl) for b in c_bits if b >= nl)
        # Leading -1 axis folds in any shot-branch rows.
        idx: list = [slice(None)] * (nl + 1)
        for b in c_bits:
            if b < nl:
                idx[1 + nl - 1 - b] = 1
        idx = tuple(idx)
        pmask = 1 << (t_bit - nl)
        tag = next(self._tags)
        parts = [i for i in range(len(self._chunks)) if (i & cmask) == cmask]
        for i in parts:
            self._fabric.send(0, i, i ^ pmask, tag, self._chunks[i])
        partners = {
            i: self._fabric.recv(0, i, i ^ pmask, tag).payload for i in parts
        }
        # Two passes: payloads may alias live peer chunks (the in-process
        # fabric does not copy), so compute every new slice before any
        # chunk is mutated.
        new = {}
        for i in parts:
            own = self._chunks[i].reshape((-1,) + (2,) * nl)
            par = partners[i].reshape((-1,) + (2,) * nl)
            if i & pmask:
                new[i] = u[1, 0] * par[idx] + u[1, 1] * own[idx]
            else:
                new[i] = u[0, 0] * own[idx] + u[0, 1] * par[idx]
        for i in parts:
            self._chunks[i].reshape((-1,) + (2,) * nl)[idx] = new[i]

    # -- conveniences ---------------------------------------------------
    def h(self, q: int) -> None:
        self.apply(G.H, q)

    def x(self, q: int) -> None:
        self.apply(G.X, q)

    def y(self, q: int) -> None:
        self.apply(G.Y, q)

    def z(self, q: int) -> None:
        self.apply(G.Z, q)

    def s(self, q: int) -> None:
        self.apply(G.S, q)

    def sdg(self, q: int) -> None:
        self.apply(G.SDG, q)

    def t(self, q: int) -> None:
        self.apply(G.T, q)

    def tdg(self, q: int) -> None:
        self.apply(G.TDG, q)

    def rx(self, q: int, theta: float) -> None:
        self.apply(G.rx(theta), q)

    def ry(self, q: int, theta: float) -> None:
        self.apply(G.ry(theta), q)

    def rz(self, q: int, theta: float) -> None:
        self.apply(G.rz(theta), q)

    def cnot(self, control: int, target: int) -> None:
        self.apply_controlled(G.X, [control], [target])

    def cz(self, control: int, target: int) -> None:
        self.apply_controlled(G.Z, [control], [target])

    def crz(self, control: int, target: int, theta: float) -> None:
        self.apply_controlled(G.rz(theta), [control], [target])

    def cphase(self, control: int, target: int, lam: float) -> None:
        self.apply_controlled(G.phase(lam), [control], [target])

    def swap(self, a: int, b: int) -> None:
        self.apply(G.SWAP, a, b)

    def toffoli(self, c1: int, c2: int, target: int) -> None:
        self.apply_controlled(G.X, [c1, c2], [target])

    # ------------------------------------------------------------------
    # measurement and inspection
    # ------------------------------------------------------------------
    def _measured_views(self, qubit: int, chunks=None, n_branches: int | None = None):
        """Per chunk, ``(view, outcomes)`` with ``qubit`` on axis 1.

        A local qubit gives a ``(B, 2, hi, lo)`` view holding both
        outcomes; a shard-axis qubit gives ``(B, 1, size)``, holding the
        one outcome the chunk index selects.  ``chunks`` defaults to the
        live chunks; a fork passes its new generation (same chunk
        layout, ``n_branches`` rows each).
        """
        b = self._bit(qubit)
        nl = self.n_local
        if chunks is None:
            chunks, n_branches = self._chunks, self._n_branches
        if b < nl:
            return [
                (c.reshape(n_branches, -1, 2, 1 << b).transpose(0, 2, 1, 3), (0, 1))
                for c in chunks
            ]
        return [
            (c.reshape(n_branches, 1, -1), ((ci >> (b - nl)) & 1,))
            for ci, c in enumerate(chunks)
        ]

    def _branch_prob_one(self, qubit: int) -> np.ndarray:
        """Per-branch probability of |1> on ``qubit``, shape ``(B,)``."""
        p = np.zeros(self._n_branches)
        for v, outcomes in self._measured_views(qubit):
            if 1 in outcomes:
                p += branch_sq_norms(v[:, outcomes.index(1)])
        return np.clip(p, 0.0, 1.0)

    def prob_one(self, qubit: int):
        """Probability of measuring |1> on ``qubit`` (no collapse).

        Outside shots mode (and whenever every tracked branch agrees)
        this is a plain float; after a measurement fork made the
        probability branch-dependent, the per-shot values are returned
        as an array instead.
        """
        p = self._branch_prob_one(qubit)
        if self._shots is None or np.ptp(p) < self._agree_eps:
            return float(p[0])
        return p[self._shot_of]

    def measure(self, qubit: int):
        """Projective Z-basis measurement with collapse.

        Returns 0 or 1; in shots mode returns a
        :class:`~repro.sim.shots.ShotBits` of per-shot outcomes, and
        every chunk's branch rows fork into one row per surviving
        ``(branch, outcome)`` pair.  A measurement that forks nothing
        collapses every chunk in place, wherever it lives (RAM, shared
        memory or a spill file); a fork installs its new chunks through
        :meth:`_store_chunks`.
        """
        if self._shots is None:
            p1 = self.prob_one(qubit)
            bit = int(self.rng.random() < p1)
            self.postselect(qubit, bit)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, spec = fork_outcomes(p1, self._shot_of, self.rng)
        views = self._measured_views(qubit)
        if keeps_branches(spec, self._n_branches):
            for v, outcomes in views:
                collapse_branches(v, spec, outcomes=outcomes)
            return bits
        B = len(spec)
        new = [np.zeros(B * self.chunk_size, dtype=self._dtype) for _ in views]
        for (v, outcomes), (dst, _) in zip(
            views, self._measured_views(qubit, new, B)
        ):
            collapse_branches(v, spec, dst, outcomes)
        self._n_branches = B
        self._store_chunks(new)
        return bits

    def apply_pauli_if(self, cond, pauli: str, qubit: int) -> None:
        """Apply a Pauli to ``qubit`` where ``cond`` holds.

        ``cond`` is an int/bool (plain conditional application) or
        per-shot measurement data (:class:`~repro.sim.shots.ShotBits`):
        the Pauli is then applied only on the branch rows whose shots
        satisfy it — the vectorized form of the protocols' classical
        ``if m: X`` fixups.
        """
        if self._shots is None:
            if cond:
                self.apply(G.PAULIS[pauli.upper()], qubit)
            return
        mask = branch_mask(cond, self._shot_of, self._n_branches)
        if not mask.any():
            return
        if mask.all():
            self.apply(G.PAULIS[pauli.upper()], qubit)
            return
        self._branch_apply(mask, pauli.upper(), qubit)

    def _branch_apply(self, mask: np.ndarray, pauli: str, qubit: int) -> None:
        """Apply X/Y/Z to ``qubit`` on the masked branch rows only."""
        B = self._n_branches
        if pauli == "Y":
            # Y = i X Z: the masked rows pick up an i phase on top.
            self._branch_apply(mask, "Z", qubit)
            self._branch_apply(mask, "X", qubit)
            for c in self._chunks:
                v = c.reshape(B, -1)
                v[mask] = v[mask] * 1j
            return
        b = self._bit(qubit)
        nl = self.n_local
        if pauli == "Z":
            if b < nl:
                stride = 1 << b
                for c in self._chunks:
                    v = c.reshape(B, -1, 2, stride)
                    v[mask, :, 1, :] = v[mask, :, 1, :] * -1.0
            else:
                hbit = 1 << (b - nl)
                for i, c in enumerate(self._chunks):
                    if i & hbit:
                        v = c.reshape(B, -1)
                        v[mask] = v[mask] * -1.0
            return
        # X
        if b < nl:
            stride = 1 << b
            for c in self._chunks:
                v = c.reshape(B, -1, 2, stride)
                v[mask] = v[mask][:, :, ::-1, :]
            return
        # High axis: the masked rows swap with the partner chunk's rows.
        # Gather every replacement first — the in-process fabric does not
        # copy payloads, so partner arrays alias live peer chunks.
        partners = self._pair_exchange(b - nl)
        rows = [p.reshape(B, -1)[mask] for p in partners]  # fancy index copies
        for c, r in zip(self._chunks, rows):
            c.reshape(B, -1)[mask] = r

    def postselect(self, qubit: int, bit: int) -> None:
        """Project ``qubit`` onto ``|bit>`` and renormalize (per branch).

        In place, wherever the chunks live: the dropped amplitudes are
        zeroed, the kept ones summed once and scaled by ``1/norm`` in
        the real dtype (see :func:`~repro.sim.shots.scale_branches`).
        """
        views = self._measured_views(qubit)
        sq = np.zeros(self._n_branches)
        for v, outcomes in views:
            for j, o in enumerate(outcomes):
                if o == bit:
                    sq += branch_sq_norms(v[:, j])
                else:
                    v[:, j] = 0.0
        norms = np.sqrt(sq)
        if np.any(norms < self._norm_eps):
            where = "" if self._shots is None else " in some branch"
            raise SimulationError(
                f"postselecting qubit {qubit} on {bit}: outcome has zero "
                f"probability{where}"
            )
        inv = np.reciprocal(norms.astype(np.finfo(self._dtype).dtype))
        for v, outcomes in views:
            if bit in outcomes:
                scale_branches(v[:, outcomes.index(bit)], inv)

    def measure_many(self, qubits: Iterable[int]) -> list[int]:
        """Measure several qubits sequentially (with collapse)."""
        return [self.measure(q) for q in qubits]

    def amplitude(self, bits: Sequence[int], qubits: Sequence[int] | None = None) -> complex:
        """Amplitude of the computational basis state given by ``bits``.

        ``qubits`` defaults to all qubits in allocation order.
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if len(bits) != len(qubits):
            raise SimulationError("bits and qubits must have equal length")
        if len(qubits) != self.num_qubits:
            raise SimulationError("amplitude() requires all qubits")
        self._require_unforked("amplitude")
        g = 0
        for bval, q in zip(bits, qubits):
            g |= int(bval) << self._bit(q)
        nl = self.n_local
        return complex(self._chunks[g >> nl][g & ((1 << nl) - 1)])

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Dense state vector with ``qubits[0]`` as the most significant bit.

        ``qubits`` must enumerate all allocated qubits; defaults to
        allocation order (for which this is a plain chunk concatenation).
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if sorted(qubits) != sorted(self._bit_of):
            raise SimulationError("statevector() requires all qubit ids exactly once")
        self._require_unforked("statevector")
        full = np.concatenate(self._chunks)
        n = self.num_qubits
        # Axis i of the (2,)*n view is global bit n-1-i == qubit_ids[i].
        axes = [n - 1 - self._bit(q) for q in qubits]
        return np.moveaxis(full.reshape((2,) * n), axes, range(n)).reshape(-1).copy()

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement distribution over computational basis states."""
        vec = self.statevector(qubits)
        return np.abs(vec) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (should always be ~1).

        In shots mode this is the root-mean-square of the per-branch
        norms, so it stays ~1 regardless of how many branches exist.
        """
        B = self._n_branches
        sq = sum(float(np.sum(branch_sq_norms(c.reshape(B, -1)))) for c in self._chunks)
        return float(np.sqrt(sq / B))

    def expectation_pauli(self, mapping: dict[int, str]) -> float:
        """Expectation value of a Pauli string ``{qubit: 'X'|'Y'|'Z'}``."""
        self._require_unforked("expectation_pauli")
        saved = [c.copy() for c in self._chunks]
        try:
            for q, p in mapping.items():
                self.apply(G.PAULIS[p.upper()], q)
            val = sum(np.vdot(s, c) for s, c in zip(saved, self._chunks))
        finally:
            self._store_chunks(saved)
        return float(np.real(val))

    def copy(self) -> "ShardedStateVector":
        """Deep copy (shares no state, including a cloned RNG).

        The copy always runs serially: it does not inherit the worker
        pool or the shared-memory chunk backing.
        """
        out = ShardedStateVector.__new__(ShardedStateVector)
        # Same mode/threshold, fresh counters: the copy's kernel hits
        # are its own.
        out._kernels = KernelDispatch(
            self._kernels.mode, jit_min_amps=self._kernels.jit_min_amps
        )
        out._partition_memo = None
        out.n_shards = self.n_shards
        out._fabric = Fabric(self.n_shards)
        out._tags = itertools.count()
        out._workers = 0
        out._parallel_min_chunk = self._parallel_min_chunk
        out._dtype = self._dtype
        out._zero_atol = self._zero_atol
        out._norm_eps = self._norm_eps
        out._agree_eps = self._agree_eps
        # The copy is always a plain in-RAM register (like workers, the
        # spill tier is not inherited).
        out._spill = None
        out._spill_budget = self._spill_budget
        out._spill_dir = None
        out._spill_files = []
        out._spill_seq = itertools.count()
        out._mmapped = False
        out._pool = None
        out._shm = None
        out._retired = []
        out._chunks = [c.copy() for c in self._chunks]
        out._bit_of = dict(self._bit_of)
        out._next_id = self._next_id
        out._shots = self._shots
        out._shot_of = None if self._shot_of is None else self._shot_of.copy()
        out._n_branches = self._n_branches
        out.segments_executed = self.segments_executed
        out.rng = np.random.default_rng(self.rng.integers(2**63))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedStateVector n={self.num_qubits} chunks={self.num_chunks}"
            f"x{self.chunk_size} ids={self.qubit_ids}>"
        )
