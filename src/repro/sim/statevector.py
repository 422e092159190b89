"""Full state-vector quantum simulator.

This is the quantum substrate of the QMPI prototype. The paper's C++
prototype (§6) keeps one global state vector owned by rank 0; here the
engine itself is single-threaded and :class:`repro.qmpi.backend.SharedBackend`
adds the rank-0-style serialization on top.

Design notes
------------
* The state is stored as an ndarray of shape ``(2,) * n``; qubit handles
  are stable integer ids mapped to tensor axes, so qubits can be allocated
  and released dynamically (``QMPI_Alloc_qmem`` / ``QMPI_Free_qmem``).
* Gate application uses ``np.tensordot`` + ``np.moveaxis`` — vectorized,
  no Python loop over amplitudes (per the HPC guide: avoid explicit loops,
  operate on views).
* Measurement uses an injectable :class:`numpy.random.Generator` so that
  distributed runs are reproducible.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from . import gates as G
from .diag import DiagBatch, chunk_phase
from .kernels import KernelDispatch
from .schedule import DEFAULT_COST_MODEL, DiagSegment, KernelRun, compile_segments
from .shots import (
    branch_mask,
    branch_sq_norms,
    collapse_branches,
    fork_outcomes,
    keeps_branches,
    scale_branches,
)

__all__ = ["StateVector", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid simulator operations (bad qubit ids, non-unitary
    input, releasing an entangled qubit, ...)."""


class StateVector:
    """A dynamically sized full state-vector simulator.

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    kernels:
        Kernel dispatch mode (``"auto"``/``"numpy"``/``"jit"``; ``None``
        reads ``REPRO_QMPI_KERNELS``).  On the shared engine only the
        diagonal phase-table materializer dispatches natively — the
        dense axis kernels are single ``tensordot``/BLAS calls already,
        and no native rewrite of those could stay bit-identical (see
        :mod:`repro.sim.kernels`).  Amplitudes are bit-identical in
        every mode.
    dtype:
        Amplitude precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory/bandwidth at float32
        precision).  ``None`` reads ``REPRO_QMPI_DTYPE`` before
        defaulting to ``"complex128"``.

    Examples
    --------
    >>> sv = StateVector(2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    def __init__(
        self,
        n_qubits: int = 0,
        seed=None,
        kernels: str | None = None,
        dtype: str | None = None,
    ):
        self._kernels = KernelDispatch(
            kernels, jit_min_amps=DEFAULT_COST_MODEL.jit_min_amps
        )
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
        self._psi = np.ones((), dtype=self._dtype)  # shape () == zero qubits
        self._axis_of: dict[int, int] = {}
        self._next_id = 0
        self._shots: int | None = None
        self._shot_of: np.ndarray | None = None
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
        return self._psi.shape[0] if self._shots is not None else 1

    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: track ``shots`` trajectories in one run.

        The state gains a leading *branch* axis (one row per distinct
        measurement history — initially a single row shared by every
        shot); unitary segments broadcast over it unchanged, and
        :meth:`measure` forks it. Must be called before any
        measurement-induced fork, typically right after construction.
        """
        if self._shots is not None:
            if self._axis_of:
                raise SimulationError(
                    "begin_shots() called twice on a non-empty engine"
                )
            # Empty engine (all qubits released): the leftover per-branch
            # global phases are unobservable — reset to a fresh run so a
            # reused backend (job runner) can start a new shot batch.
            self._psi = np.ones((), dtype=self._dtype)
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")
        self._shots = int(shots)
        self._shot_of = np.zeros(self._shots, dtype=np.int64)
        self._psi = self._psi[None]
        for q in self._axis_of:
            self._axis_of[q] += 1

    def reseed(self, seed) -> None:
        """Replace the measurement RNG (per-job streams use this hook)."""
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""
        return len(self._axis_of)

    @property
    def dtype(self) -> str:
        """Amplitude dtype name, derived from the live state array.

        Part of the engine :meth:`layout_key`, so cached schedules never
        replay across precisions.
        """
        return self._psi.dtype.name

    @property
    def qubit_ids(self) -> tuple[int, ...]:
        """Allocated qubit ids in axis order (allocation order)."""
        order = sorted(self._axis_of, key=self._axis_of.__getitem__)
        return tuple(order)

    def alloc(self, n: int = 1) -> list[int]:
        """Allocate ``n`` fresh qubits in |0> and return their ids."""
        if n < 1:
            raise SimulationError(f"cannot allocate {n} qubits")
        ids = []
        for _ in range(n):
            qid = self._next_id
            self._next_id += 1
            self._axis_of[qid] = self._psi.ndim
            pad = np.zeros((2,), dtype=self._dtype)
            pad[0] = 1.0
            self._psi = np.multiply.outer(self._psi, pad)
            ids.append(qid)
        return ids

    def release(self, qubit: int) -> None:
        """Release a qubit that is disentangled and in state |0>.

        Mirrors ``QMPI_Free_qmem``: freeing a qubit that still carries
        amplitude in |1> (or is entangled) is a program error.
        """
        ax = self._axis(qubit)
        moved = np.moveaxis(self._psi, ax, 0)
        if not np.allclose(moved[1], 0.0, atol=self._zero_atol):
            raise SimulationError(
                f"qubit {qubit} is not in |0> (or is entangled); "
                "measure/uncompute before releasing"
            )
        # A copy, not the moved[0] view: the view would pin the whole
        # pre-release buffer (twice the new state) for the engine's life.
        self._psi = moved[0].copy()
        self._drop_axis(qubit, ax)

    def measure_and_release(self, qubit: int) -> int:
        """Measure ``qubit`` in the Z basis, then remove it. Returns the bit."""
        bit = self.measure(qubit)
        self.apply_pauli_if(bit, "X", qubit)
        self.release(qubit)
        return bit

    def _axis(self, qubit: int) -> int:
        try:
            return self._axis_of[qubit]
        except KeyError:
            raise SimulationError(f"unknown qubit id {qubit}") from None

    def _drop_axis(self, qubit: int, ax: int) -> None:
        del self._axis_of[qubit]
        for q, a in self._axis_of.items():
            if a > ax:
                self._axis_of[q] = a - 1

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply(self, u: np.ndarray, *qubits: int) -> None:
        """Apply a ``2^k x 2^k`` unitary to ``k`` qubits.

        The first qubit in ``qubits`` corresponds to the most significant
        bit of the matrix index (``U = sum |i><j|`` over k-bit ints).
        """
        k = len(qubits)
        if len(set(qubits)) != k:
            raise SimulationError(f"duplicate qubits in {qubits}")
        # Rounding boundary: the matrix lands in the register dtype once,
        # so the contraction runs in-precision (NEP 50 would otherwise
        # promote a complex64 state to complex128).
        u = np.asarray(u, dtype=self._dtype)
        if u.shape != (2**k, 2**k):
            raise SimulationError(
                f"matrix shape {u.shape} does not match {k} qubits"
            )
        axes = [self._axis(q) for q in qubits]
        ut = u.reshape((2,) * (2 * k))
        # Contract the "column" indices of U with the state's qubit axes.
        psi = np.tensordot(ut, self._psi, axes=(range(k, 2 * k), axes))
        # tensordot puts the k new indices first; move them back in place.
        self._psi = np.moveaxis(psi, range(k), axes)

    def apply_controlled(
        self, u: np.ndarray, controls: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Apply ``u`` on ``targets`` conditioned on all ``controls`` = |1>.

        Works on the |1...1> control slice in place — no ``2^k``-dim
        controlled matrix is ever materialized.
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
        c_axes = [self._axis(q) for q in controls]
        view = self._psi
        # Slice out the all-ones control subspace (a view on the state).
        idx: list = [slice(None)] * view.ndim
        for a in c_axes:
            idx[a] = 1
        sub = view[tuple(idx)]
        # Target axes within the sliced view: axes shift down past removed
        # control axes.
        t_axes = []
        for q in targets:
            a = self._axis(q)
            t_axes.append(a - sum(1 for c in c_axes if c < a))
        ut = u.reshape((2,) * (2 * k))
        new = np.tensordot(ut, sub, axes=(range(k, 2 * k), t_axes))
        view[tuple(idx)] = np.moveaxis(new, range(k), t_axes)

    def apply_ops(self, ops) -> None:
        """Execute a batch of typed op records (see :mod:`repro.qmpi.ops`).

        The batch is compiled into typed segments by
        :func:`repro.sim.schedule.compile_segments` (layout-less: one
        flat array means everything is communication-free) and this
        engine merely interprets them: each
        :class:`~repro.sim.schedule.KernelRun` is an in-order loop of
        duck-typed ops, each :class:`~repro.sim.schedule.DiagSegment`
        one broadcasted phase-vector multiply, and each
        :class:`~repro.sim.schedule.PlanSegment` one tensor contraction
        of its precontracted window unitary (one pass over the
        amplitudes for the whole fused run); the sharded engine overlays
        real per-chunk batching and worker dispatch on the same IR.
        """
        self.execute_segments(self.compile_batch(ops))

    # ------------------------------------------------------------------
    # schedule-cache engine API (see repro.sim.cache)
    # ------------------------------------------------------------------
    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Two calls returning equal keys guarantee that a segment list
        compiled under the first is valid under the second: the key
        pins the axis of every touched qubit, the total axis count, the
        presence of the shots branch axis, and the amplitude dtype.
        Unknown qubit ids raise, so a stale cached schedule can never
        bind to a recycled engine that no longer owns them.
        """
        branch = self._shots is not None
        return (
            "shared",
            tuple(self._axis(q) for q in qubits),
            self._psi.ndim,
            branch,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch into this engine's segment list."""
        return compile_segments(ops)

    def execute_segments(self, segments) -> None:
        """Interpret a compiled segment list op by op (one-shot flushes).

        The schedule cache runs :meth:`execute_frozen` instead, for
        misses and hits alike.  perfbench's engine layer hooks this
        method by name.
        """
        for seg in segments:
            self.segments_executed += 1
            if isinstance(seg, KernelRun):
                for op in seg.ops:
                    controls = op.controls
                    if controls:
                        self.apply_controlled(
                            op.target_matrix(), list(controls), list(op.targets)
                        )
                    else:
                        self.apply(op.target_matrix(), *op.targets)
            elif isinstance(seg, DiagSegment):
                self._apply_diag_batch(seg.batch)
            else:  # PlanSegment (ExchangeSegment never occurs layout-less)
                self.apply(seg.plan.u, *seg.plan.qubits)

    # ------------------------------------------------------------------
    # frozen replay (schedule-cache warm path)
    # ------------------------------------------------------------------
    def _freeze_contraction(self, target_axes, ndim):
        """Precompute the transpose/reshape/dot pipeline of one ``apply``.

        Replicates exactly what ``np.tensordot(ut, psi, (col_axes,
        target_axes))`` followed by ``np.moveaxis(res, range(k), axes)``
        does: transpose the contracted axes to the front, flatten to a
        ``(2^k, rest)`` matrix, one ``np.dot``, then the inverse
        permutation — the same array operations on the same values, so
        the result is bit-identical to the interpreter.
        """
        k = len(target_axes)
        notin = tuple(a for a in range(ndim) if a not in target_axes)
        perm_in = tuple(target_axes) + notin
        order = list(range(k, ndim))
        for dest, src in sorted(zip(target_axes, range(k))):
            order.insert(dest, src)
        return k, 1 << k, notin, perm_in, tuple(order)

    def freeze_segments(self, segments):
        """Freeze a bound segment list into a replay program.

        One step per kernel op / diagonal batch / plan, with every
        axis permutation precomputed against this engine's current
        layout (the schedule cache keeps one program per
        :meth:`layout_key`).  Steps hold references to the live segment
        objects, so the cache's in-place parameter rebinding flows
        through; matrices are memoized per op *object* (a rebind swaps
        the op, invalidating the memo).
        """
        ndim = self._psi.ndim
        steps = []
        n_segments = 0
        for seg in segments:
            n_segments += 1
            if isinstance(seg, KernelRun):
                for i, op in enumerate(seg.ops):
                    controls = op.controls
                    if not controls:
                        axes = [self._axis(q) for q in op.targets]
                        steps.append(
                            ("k", seg, i, [None, None],
                             *self._freeze_contraction(axes, ndim))
                        )
                        continue
                    c_axes = [self._axis(q) for q in controls]
                    idx: list = [slice(None)] * ndim
                    for a in c_axes:
                        idx[a] = 1
                    t_axes = []
                    for q in op.targets:
                        a = self._axis(q)
                        t_axes.append(a - sum(1 for c in c_axes if c < a))
                    steps.append(
                        ("c", seg, i, [None, None], tuple(idx),
                         *self._freeze_contraction(t_axes, ndim - len(c_axes)))
                    )
            elif isinstance(seg, DiagSegment):
                steps.append(("d", seg))
            else:  # PlanSegment
                axes = [self._axis(q) for q in seg.plan.qubits]
                steps.append(
                    ("p", seg, *self._freeze_contraction(axes, ndim))
                )
        return n_segments, tuple(steps)

    def execute_frozen(self, program) -> None:
        """Replay a frozen program (same arithmetic as the interpreter)."""
        n_segments, steps = program
        self.segments_executed += n_segments
        dot = np.dot
        for step in steps:
            kind = step[0]
            if kind == "k":
                _, seg, i, cell, k, rows, notin, perm_in, perm_out = step
                op = seg.ops[i]
                if op is cell[0]:
                    u = cell[1]
                else:
                    u = np.asarray(op.target_matrix(), dtype=self._dtype)
                    cell[0], cell[1] = op, u
                psi = self._psi
                st = psi.transpose(perm_in).reshape(rows, -1)
                shape = (2,) * k + tuple(psi.shape[a] for a in notin)
                self._psi = dot(u, st).reshape(shape).transpose(perm_out)
            elif kind == "c":
                _, seg, i, cell, idx, k, rows, notin, perm_in, perm_out = step
                op = seg.ops[i]
                if op is cell[0]:
                    u = cell[1]
                else:
                    u = np.asarray(op.target_matrix(), dtype=self._dtype)
                    cell[0], cell[1] = op, u
                view = self._psi
                sub = view[idx]
                st = sub.transpose(perm_in).reshape(rows, -1)
                shape = (2,) * k + tuple(sub.shape[a] for a in notin)
                view[idx] = dot(u, st).reshape(shape).transpose(perm_out)
            elif kind == "d":
                self._apply_diag_batch(step[1].batch)
            else:  # "p"
                _, seg, k, rows, notin, perm_in, perm_out = step
                u = np.asarray(seg.plan.u, dtype=self._dtype)
                psi = self._psi
                st = psi.transpose(perm_in).reshape(rows, -1)
                shape = (2,) * k + tuple(psi.shape[a] for a in notin)
                self._psi = dot(u, st).reshape(shape).transpose(perm_out)

    def _apply_diag_batch(self, batch: DiagBatch) -> None:
        """One vectorized multiply for a whole coalesced diagonal run.

        The batch's phase tables are materialized as a single tensor of
        shape ``(1|2,) * n`` (size 2 only on the involved axes) and
        broadcast-multiplied into the state — one pass instead of one
        strided kernel per gate.
        """
        n = self._psi.ndim
        singles = [
            (n - 1 - self._axis(q), t) for q, t in batch.phases1.items()
        ]
        pairs = [
            ((n - 1 - self._axis(a), n - 1 - self._axis(b)), t)
            for (a, b), t in batch.phases2.items()
        ]
        self._psi *= chunk_phase(singles, pairs, n, kernels=self._kernels)

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
    def _branches(self) -> np.ndarray:
        """The state with a leading branch axis (``B = 1`` outside shots)."""
        return self._psi if self._shots is not None else self._psi[None]

    def _branch_view(self, qubit: int) -> np.ndarray:
        """``(B, 2, ...)`` view of the state with ``qubit`` on axis 1."""
        ax = self._axis(qubit)
        if self._shots is None:
            ax += 1  # past the branch axis _branches() prepends
        return np.moveaxis(self._branches(), ax, 1)

    def _branch_prob_one(self, qubit: int) -> np.ndarray:
        """Per-branch probability of |1> on ``qubit``, shape ``(B,)``."""
        return np.clip(branch_sq_norms(self._branch_view(qubit)[:, 1]), 0.0, 1.0)

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
        :class:`~repro.sim.shots.ShotBits` of per-shot outcomes, and the
        state forks into one branch per surviving ``(branch, outcome)``
        pair.  A measurement that forks nothing collapses in place; a
        fork allocates the new state once, C-contiguous in this
        engine's axis order.
        """
        if self._shots is None:
            p1 = self.prob_one(qubit)
            bit = int(self.rng.random() < p1)
            self.postselect(qubit, bit)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, spec = fork_outcomes(p1, self._shot_of, self.rng)
        if keeps_branches(spec, self._psi.shape[0]):
            collapse_branches(self._branch_view(qubit), spec)
        else:
            ax = self._axis(qubit)
            new = np.zeros((len(spec),) + self._psi.shape[1:], dtype=self._dtype)
            collapse_branches(self._branch_view(qubit), spec, np.moveaxis(new, ax, 1))
            self._psi = new
        return bits

    def apply_pauli_if(self, cond, pauli: str, qubit: int) -> None:
        """Apply a Pauli to ``qubit`` where ``cond`` holds.

        ``cond`` is an int/bool (plain conditional application) or
        per-shot measurement data (:class:`~repro.sim.shots.ShotBits`):
        the Pauli is then applied only on the branches whose shots
        satisfy it — the vectorized form of the protocols' classical
        ``if m: X`` fixups.
        """
        u = G.PAULIS[pauli.upper()]
        if self._shots is None:
            if cond:
                self.apply(u, qubit)
            return
        mask = branch_mask(cond, self._shot_of, self._psi.shape[0])
        if not mask.any():
            return
        if mask.all():
            self.apply(u, qubit)
            return
        ax = self._axis(qubit)
        moved = np.moveaxis(self._psi, ax, 1)  # (B, 2, ...)
        p = pauli.upper()
        if p == "X":
            moved[mask] = moved[mask][:, ::-1]
        elif p == "Z":
            moved[mask, 1] = moved[mask, 1] * -1.0
        else:  # Y
            sel = moved[mask]
            out = np.empty_like(sel)
            out[:, 0] = -1j * sel[:, 1]
            out[:, 1] = 1j * sel[:, 0]
            moved[mask] = out

    def postselect(self, qubit: int, bit: int) -> None:
        """Project ``qubit`` onto ``|bit>`` and renormalize (per branch).

        In place: the dropped half is zeroed, the kept half is summed
        once and scaled by ``1/norm`` (see
        :func:`~repro.sim.shots.scale_branches`).
        """
        view = self._branch_view(qubit)
        view[:, 1 - bit] = 0.0
        kept = view[:, bit]
        norms = np.sqrt(branch_sq_norms(kept))
        if np.any(norms < self._norm_eps):
            where = "" if self._shots is None else " in some branch"
            raise SimulationError(
                f"postselecting qubit {qubit} on {bit}: outcome has zero "
                f"probability{where}"
            )
        scale_branches(kept, np.reciprocal(norms))

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
        idx = [0] * self._psi.ndim
        for b, q in zip(bits, qubits):
            idx[self._axis(q)] = int(b)
        return complex(self._psi[tuple(idx)])

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Dense state vector with ``qubits[0]`` as the most significant bit.

        ``qubits`` must enumerate all allocated qubits; defaults to
        allocation order.
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if sorted(qubits) != sorted(self._axis_of):
            raise SimulationError("statevector() requires all qubit ids exactly once")
        self._require_unforked("statevector")
        axes = [self._axis(q) for q in qubits]
        if self._shots is not None:
            moved = np.moveaxis(self._psi, axes, range(1, len(axes) + 1))
            return moved[0].reshape(-1).copy()
        return np.moveaxis(self._psi, axes, range(len(axes))).reshape(-1).copy()

    def _require_unforked(self, what: str) -> None:
        if self._shots is not None and self._psi.shape[0] > 1:
            raise SimulationError(
                f"{what}() is ambiguous after a mid-circuit measurement "
                f"fork ({self._psi.shape[0]} branches); inspect counts or "
                "per-shot measurement results instead"
            )

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement distribution over computational basis states."""
        vec = self.statevector(qubits)
        return np.abs(vec) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (should always be ~1).

        In shots mode this is the root-mean-square of the per-branch
        norms, so it stays ~1 regardless of how many branches exist.
        """
        sq = branch_sq_norms(self._branches())
        return float(np.sqrt(np.sum(sq) / sq.size))

    def expectation_pauli(self, mapping: dict[int, str]) -> float:
        """Expectation value of a Pauli string ``{qubit: 'X'|'Y'|'Z'}``."""
        self._require_unforked("expectation_pauli")
        tmp = self._psi.copy()
        saved = self._psi
        try:
            self._psi = tmp
            for q, p in mapping.items():
                self.apply(G.PAULIS[p.upper()], q)
            val = np.vdot(saved, self._psi)
        finally:
            self._psi = saved
        return float(np.real(val))

    def copy(self) -> "StateVector":
        """Deep copy (shares no state, including a cloned RNG)."""
        out = StateVector.__new__(StateVector)
        # Same mode/threshold, fresh counters: the copy's kernel hits
        # are its own.
        out._kernels = KernelDispatch(
            self._kernels.mode, jit_min_amps=self._kernels.jit_min_amps
        )
        out._dtype = self._dtype
        out._zero_atol = self._zero_atol
        out._norm_eps = self._norm_eps
        out._agree_eps = self._agree_eps
        out._psi = self._psi.copy()
        out._axis_of = dict(self._axis_of)
        out._next_id = self._next_id
        out._shots = self._shots
        out._shot_of = None if self._shot_of is None else self._shot_of.copy()
        out.segments_executed = self.segments_executed
        out.rng = np.random.default_rng(self.rng.integers(2**63))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateVector n={self.num_qubits} ids={self.qubit_ids}>"
