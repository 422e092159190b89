"""The four benchmark workloads: inputs from a seed, one timed run each.

Every run is one complete public ``repro.qmpi.qmpi_run``: backend build,
program, reading the results, and ``close()``.  The programs receive
only inputs derived from the benchmark seed.  At most two ranks run
(rank threads, or rank processes for ``tfim_mp``) because the reference
host has two CPUs, and the sharded engine's chunk workers stay off
(``workers=0``): they cannot win on two cores.  The shared engine has no
worker pool, so it takes no ``workers`` option.
"""

from __future__ import annotations

import math
import random

from repro.apps.qft import inverse_qft, qft
from repro.apps.tfim import annealing_program
from repro.qmpi import qmpi_run

__all__ = ["WORKLOADS", "Workload"]

#: Watchdog for one run; a stuck run becomes a counted failure well
#: inside the benchmark's own time limit.
TIMEOUT = 60.0


def qft_roundtrip(qc, n_qubits: int, value: int) -> list:
    """Prepare ``|value>``, apply QFT and its inverse, measure every qubit."""
    q = qc.alloc_qmem(n_qubits)
    for i, qb in enumerate(q):
        if (value >> (n_qubits - 1 - i)) & 1:
            qc.x(qb)
    qft(qc, q)
    inverse_qft(qc, q)
    return [qc.measure(qb) for qb in q]


def ghz_teleport(qc, n_ghz: int, theta: float) -> None:
    """Each rank builds a GHZ register; rank 0 teleports ``ry(theta)|0>``
    to rank 1 mid-circuit, then every qubit is measured."""
    reg = qc.alloc_qmem(n_ghz)
    qc.h(reg[0])
    for a, b in zip(reg, reg[1:]):
        qc.cnot(a, b)
    if qc.rank == 0:
        t = qc.alloc_qmem(1)
        qc.ry(t[0], theta)
        qc.send_move(t, 1)
        for qb in reg:
            qc.measure(qb)
    else:
        t = qc.alloc_qmem(1)
        qc.recv_move(t, 0)
        for qb in reg:
            qc.measure(qb)
        qc.measure(t[0])


def _outcome(world, **extra) -> dict:
    """The plain data the checks read; closes the world."""
    led = world.ledger.snapshot()
    out = {
        "results": list(world.results),
        "ledger": (led.epr_pairs, led.classical_bits, led.classical_messages),
    }
    if world.shots is not None:
        out["counts"] = dict(world.counts)
    out.update(extra)
    world.close()
    return out


class Workload:
    """One named workload.

    ``run(inputs)`` is the timed call and returns ``(outcome, world)``;
    ``reference(inputs)``, when set, is an untimed in-process run of the
    same program whose outcome the check compares against.
    """

    def __init__(self, name, make_inputs, run, shots=1, reference=None):
        self.name = name
        self.make_inputs = make_inputs
        self.run = run
        #: Trajectories sampled per run (1 without ``shots=``).
        self.shots = shots
        self.reference = reference


# ----------------------------------------------------------------------
def _qft_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    n = 20
    return {"n_qubits": n, "value": rng.getrandbits(n), "run_seed": rng.getrandbits(31)}


def _qft_run(inp: dict):
    world = qmpi_run(
        1, qft_roundtrip, args=(inp["n_qubits"], inp["value"]), seed=inp["run_seed"],
        backend="sharded", n_shards=4, workers=0, timeout=TIMEOUT,
    )
    return _outcome(world), world


def _anneal_inputs(spins: int, steps: int):
    def make(seed: int) -> dict:
        rng = random.Random(seed)
        return {
            "spins": spins,
            "steps": steps,
            "n_trotter": 1,
            "time": 1.0,
            "run_seed": rng.getrandbits(31),
        }

    return make


def _anneal(inp: dict, transport: str):
    world = qmpi_run(
        2, annealing_program,
        args=(inp["spins"], inp["steps"], inp["n_trotter"], inp["time"]),
        seed=inp["run_seed"], transport=transport, timeout=TIMEOUT,
    )
    return _outcome(world), world


def _teleport_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "ghz": 8,
        "shots": 4096,
        "theta": rng.uniform(0.3, math.pi - 0.3),
        "run_seed": rng.getrandbits(31),
    }


def _teleport_run(inp: dict):
    world = qmpi_run(
        2, ghz_teleport, args=(inp["ghz"], inp["theta"]), seed=inp["run_seed"],
        shots=inp["shots"], timeout=TIMEOUT,
    )
    return _outcome(world), world


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qft_sharded", _qft_inputs, _qft_run),
        Workload(
            "tfim_anneal", _anneal_inputs(7, 40), lambda inp: _anneal(inp, "inproc")
        ),
        Workload("teleport_shots", _teleport_inputs, _teleport_run, shots=4096),
        Workload(
            "tfim_mp",
            _anneal_inputs(4, 100),
            lambda inp: _anneal(inp, "mp"),
            reference=lambda inp: _anneal(inp, "inproc"),
        ),
    )
}
