"""Sharded backend: registry, ownership/locality parity, protocol runs."""

import numpy as np
import pytest

from repro.mpi import RankFailure
from repro.qmpi import (
    BACKENDS,
    LocalityError,
    QuantumBackend,
    SharedBackend,
    ShardedBackend,
    make_backend,
    qmpi_run,
    register_backend,
)
from repro.sim import ShardedStateVector, SimulationError


# ----------------------------------------------------------------------
# registry / factory
# ----------------------------------------------------------------------
def test_registry_names():
    assert BACKENDS["shared"] is SharedBackend
    assert BACKENDS["sharded"] is ShardedBackend


def test_make_backend_by_name_class_and_instance():
    assert isinstance(make_backend("shared"), SharedBackend)
    assert isinstance(make_backend(ShardedBackend, n_shards=2), ShardedBackend)
    inst = SharedBackend(seed=0)
    assert make_backend(inst) is inst


def test_make_backend_shard_count_selection():
    assert make_backend("sharded:8").n_shards == 8
    # plain "sharded": chunk = rank, rounded to the next power of two
    for n_ranks, want in [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8)]:
        assert make_backend("sharded", n_ranks=n_ranks).n_shards == want
        # class specs get the same chunk = rank sizing as the name spec
        assert make_backend(ShardedBackend, n_ranks=n_ranks).n_shards == want
    # explicit opts beat the n_ranks hint
    assert make_backend("sharded", n_ranks=4, n_shards=16).n_shards == 16
    assert make_backend(ShardedBackend, n_ranks=4, n_shards=16).n_shards == 16


def test_make_backend_errors():
    with pytest.raises(ValueError):
        make_backend("no-such-backend")
    with pytest.raises(ValueError):
        make_backend("shared:4")


def test_register_backend_roundtrip():
    class Custom(SharedBackend):
        pass

    register_backend("custom-test", Custom)
    try:
        assert isinstance(make_backend("custom-test"), Custom)
    finally:
        del BACKENDS["custom-test"]


# ----------------------------------------------------------------------
# ownership / locality parity with SharedBackend
# ----------------------------------------------------------------------
def test_sharded_backend_is_quantum_backend():
    be = ShardedBackend(seed=0, n_shards=2)
    assert isinstance(be, QuantumBackend)
    assert isinstance(be.raw(), ShardedStateVector)


def test_alloc_ownership_and_locality():
    be = ShardedBackend(seed=0, n_shards=4)
    a = be.alloc(0, 2)
    (qb,) = be.alloc(1, 1)
    assert [be.owner(q) for q in a] == [0, 0]
    assert be.owner(qb) == 1
    assert list(be.owned_by(0)) == list(a)
    with pytest.raises(LocalityError):
        be.h(1, a[0])
    with pytest.raises(LocalityError):
        be.cnot(0, a[0], qb)
    with pytest.raises(LocalityError):
        be.measure(1, a[0])


def test_transfer_and_free():
    be = ShardedBackend(seed=0, n_shards=2)
    (q,) = be.alloc(0, 1)
    be.transfer(q, 3)
    with pytest.raises(LocalityError):
        be.x(0, q)
    be.x(3, q)
    with pytest.raises(SimulationError):
        be.free(3, q)  # not |0>
    be.x(3, q)
    be.free(3, q)
    assert be.num_qubits == 0


def test_entangle_pair_is_bell():
    be = ShardedBackend(seed=0, n_shards=4)
    (qa,) = be.alloc(0, 1)
    (qb,) = be.alloc(1, 1)
    be.entangle_pair(qa, qb)
    vec = be.statevector([qa, qb])
    np.testing.assert_allclose(vec, [2**-0.5, 0, 0, 2**-0.5], atol=1e-12)


def test_measure_and_release_removes_ownership():
    be = ShardedBackend(seed=0, n_shards=2)
    (q,) = be.alloc(2, 1)
    be.measure_and_release(2, q)
    with pytest.raises(SimulationError):
        be.owner(q)


# ----------------------------------------------------------------------
# protocols on the sharded backend
# ----------------------------------------------------------------------
def test_qmpi_run_sharded_backend_instance_exposed():
    def prog(qc):
        return type(qc.backend).__name__

    w = qmpi_run(2, prog, seed=0, backend="sharded")
    assert w.results == ["ShardedBackend", "ShardedBackend"]
    assert w.backend.n_shards == 2


def test_qmpi_run_backend_keyword_passthrough():
    w = qmpi_run(
        2,
        lambda qc: qc.backend.n_shards,
        seed=0,
        backend="sharded",
        n_shards=8,
    )
    assert w.results == [8, 8]


def test_locality_violation_on_sharded_backend():
    def prog(qc):
        q = qc.alloc_qmem(1)
        ids = qc.comm.allgather(q[0])
        if qc.rank == 0:
            qc.h(ids[1])
        return True

    with pytest.raises(RankFailure):
        qmpi_run(2, prog, seed=0, backend="sharded")


def test_epr_example_on_sharded_backend():
    def prog(qc):
        qubit = qc.alloc_qmem(1)
        qc.prepare_epr(qubit[0], 1 - qc.rank, 0)
        return qc.measure(qubit[0])

    w = qmpi_run(2, prog, seed=0, backend="sharded")
    assert w.results[0] == w.results[1]
    assert w.ledger.epr_pairs == 1
