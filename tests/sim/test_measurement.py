"""Measurement on both engines: collapse against an independent oracle.

The oracle below builds a dense projector with ``np.kron`` and imports
nothing from ``repro.sim``: it shares no code with the engines'
probability, projection or renormalization paths.  The engines are
read white-box (their amplitude layout) only to extract per-branch
state vectors before and after each measurement.

Also covered: the measurement layer allocates no state-sized temporary
(``tracemalloc``), a measurement that forks nothing collapses the
state where it lives, and ``release`` keeps no view on the old buffer.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import ShardedStateVector, StateVector
from tests._precision import prob_abs, state_atol

N = 8
DTYPES = ("complex128", "complex64")
ENGINES = ("shared", "sharded", "sharded-spill")


# ----------------------------------------------------------------------
# oracle: dense projector, no engine code
# ----------------------------------------------------------------------
def oracle_collapse(psi: np.ndarray, k: int, outcome: int):
    """``(P(1), Pi psi / |Pi psi|)`` for qubit ``k`` (0 = most significant)."""
    n = int(np.log2(psi.size))
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

    def on_qubit(p):
        return np.kron(np.kron(np.eye(2**k), p), np.eye(2 ** (n - k - 1)))

    p1 = float(np.vdot(psi, on_qubit(proj[1]) @ psi).real)
    kept = on_qubit(proj[outcome]) @ psi
    return p1, kept / np.linalg.norm(kept)


# ----------------------------------------------------------------------
# white-box readers: per-branch dense vectors, qubits[0] most significant
# ----------------------------------------------------------------------
def branch_states(sv, qubits) -> np.ndarray:
    n = len(qubits)
    if isinstance(sv, StateVector):
        psi = sv._psi if sv.shots is not None else sv._psi[None]
        off = 0 if sv.shots is not None else 1
        axes = [sv._axis_of[q] + off for q in qubits]
    else:
        B = sv.n_branches
        psi = np.concatenate([c.reshape(B, -1) for c in sv._chunks], axis=1)
        psi = psi.reshape((B,) + (2,) * n)
        axes = [n - sv._bit_of[q] for q in qubits]
    moved = np.moveaxis(psi, axes, range(1, n + 1))
    return moved.reshape(psi.shape[0], -1).astype(np.complex128)


def make_engine(kind: str, dtype: str, seed: int):
    if kind == "shared":
        return StateVector(N, seed=seed, dtype=dtype)
    if kind == "sharded":
        return ShardedStateVector(N, seed=seed, n_shards=4, dtype=dtype)
    return ShardedStateVector(
        N, seed=seed, n_shards=4, dtype=dtype, spill="auto", spill_budget=64
    )


def prepare(sv, seed: int) -> None:
    """A generic entangled state: every probability strictly inside (0, 1)."""
    rng = np.random.default_rng(seed)
    ids = list(sv.qubit_ids)
    for q in ids:
        sv.ry(q, float(rng.uniform(0.6, 2.5)))
        sv.rz(q, float(rng.uniform(0, 2 * np.pi)))
    for a, b in zip(ids, ids[1:]):
        sv.cnot(a, b)
    for q in ids:
        sv.ry(q, float(rng.uniform(0.6, 2.5)))


def storage(sv):
    """Identity of the amplitude buffers, to tell in-place from realloc."""
    if isinstance(sv, StateVector):
        return [id(sv._psi)]
    return [id(c) for c in sv._chunks]


def shard_qubit(sv) -> int:
    """A qubit on a shard axis (``bit >= n_local``) of the sharded engine,
    or the first qubit of the shared engine."""
    q = sv.qubit_ids[0]
    if isinstance(sv, ShardedStateVector):
        assert sv.num_chunks == 4 and sv._bit_of[q] >= sv.n_local
    return q


@pytest.fixture
def engines():
    made = []
    yield made
    for sv in made:
        close = getattr(sv, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# single trajectory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("which", ["local", "shard"])
def test_single_trajectory_collapse_matches_oracle(engines, kind, dtype, which):
    sv = make_engine(kind, dtype, seed=3)
    engines.append(sv)
    prepare(sv, seed=11)
    ids = list(sv.qubit_ids)
    q = shard_qubit(sv) if which == "shard" else ids[-2]
    k = ids.index(q)
    for _ in range(2):  # the second measurement of q is deterministic
        before = branch_states(sv, ids)[0]
        p1 = sv.prob_one(q)
        bit = sv.measure(q)
        want_p1, want = oracle_collapse(before, k, bit)
        assert p1 == pytest.approx(want_p1, abs=prob_abs(dtype))
        got = branch_states(sv, ids)[0]
        np.testing.assert_allclose(got, want, atol=state_atol(dtype))
        assert sv.norm() == pytest.approx(1.0, abs=prob_abs(dtype))


# ----------------------------------------------------------------------
# shots: forked rows and in-place rows
# ----------------------------------------------------------------------
def _check_shots_step(sv, ids, q, dtype):
    """Measure ``q`` and check every new branch against the oracle.

    Returns ``(branches before, branches after, collapsed in place)``.
    """
    before = branch_states(sv, ids)
    shot_before = sv._shot_of.copy()
    b_before = sv.n_branches
    buffers = storage(sv)
    bits = sv.measure(q)
    got = branch_states(sv, ids)
    shot_after = sv._shot_of
    seen = set()
    for s in range(sv.shots):
        new = int(shot_after[s])
        if new in seen:
            continue
        seen.add(new)
        _, want = oracle_collapse(before[shot_before[s]], ids.index(q), bits[s])
        np.testing.assert_allclose(got[new], want, atol=state_atol(dtype))
    assert seen == set(range(sv.n_branches))
    return b_before, sv.n_branches, storage(sv) == buffers


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ENGINES)
def test_shots_collapse_matches_oracle(engines, kind, dtype):
    sv = make_engine(kind, dtype, seed=5)
    engines.append(sv)
    sv.begin_shots(256)
    prepare(sv, seed=13)
    ids = list(sv.qubit_ids)
    hi = shard_qubit(sv)
    # local fork at B=1, shard-axis fork at B>1, the same shard-axis
    # qubit again (deterministic: in place), then a local fork at B>1.
    steps = [ids[-1], hi, hi, ids[3]]
    trace = [_check_shots_step(sv, ids, q, dtype) for q in steps]
    (b0, b1, _), (b2, b3, _), (b4, b5, in_place), (b6, b7, _) = trace
    assert b0 == 1 and b1 == 2
    assert b2 == 2 and b3 == 4
    assert b4 == b5 == 4 and in_place
    assert b7 > b6
    assert sv.norm() == pytest.approx(1.0, abs=prob_abs(dtype))


# ----------------------------------------------------------------------
# no state-sized temporaries
# ----------------------------------------------------------------------
def _state_bytes(sv) -> int:
    return (1 << sv.num_qubits) * sv.n_branches * np.dtype(sv.dtype).itemsize


def _peak_of(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _engine16(kind, seed):
    if kind == "shared":
        return StateVector(16, seed=seed)
    return ShardedStateVector(16, seed=seed, n_shards=4)


@pytest.mark.parametrize("kind", ["shared", "sharded"])
def test_non_forking_shots_measure_allocates_no_state_copy(engines, kind):
    sv = _engine16(kind, seed=1)
    engines.append(sv)
    sv.begin_shots(64)
    ids = list(sv.qubit_ids)
    for q in ids:
        sv.h(q)
    sv.measure(ids[0])
    sv.measure(ids[-1])
    assert sv.n_branches == 4
    peak = _peak_of(lambda: sv.measure(ids[-1]))  # deterministic per branch
    assert sv.n_branches == 4
    assert peak < _state_bytes(sv) / 4, (peak, _state_bytes(sv))


@pytest.mark.parametrize("kind", ["shared", "sharded"])
def test_single_trajectory_measure_allocates_no_state_copy(engines, kind):
    sv = _engine16(kind, seed=2)
    engines.append(sv)
    ids = list(sv.qubit_ids)
    for q in ids:
        sv.h(q)
    peak = _peak_of(lambda: sv.measure(ids[5]))
    assert peak < _state_bytes(sv) / 4, (peak, _state_bytes(sv))


# ----------------------------------------------------------------------
# release keeps no view on the old buffer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shots", [None, 64])
def test_release_owns_its_state(shots):
    sv = StateVector(12, seed=4)
    if shots:
        sv.begin_shots(shots)
    for q in range(12):
        sv.h(q)
    sv.measure_and_release(3)
    assert sv._psi.base is None
    assert sv._psi.nbytes == (1 << 11) * sv.n_branches * np.dtype(sv.dtype).itemsize
