"""Result checks for the benchmark workloads.

Each check recomputes what the answer must be from the workload inputs
alone, with the standard library: nothing here imports the package under
test, so a defect in its gates, lowering or measurement code cannot
cancel out of the comparison.  A check returns ``None`` when the outcome
is right and a one-line reason when it is not.

``outcome`` is the plain data a run hands back: ``results`` (per-rank
return values), ``ledger`` (EPR pairs, classical bits, classical
messages) and, for shot runs, ``counts`` (bitstring -> shots).
"""

from __future__ import annotations

import math

__all__ = ["CHECKS", "TV_BOUND"]

#: Total-variation bound on the teleported qubit's marginal.  With 4096
#: shots the sampling standard deviation of a Bernoulli frequency is at
#: most 0.5/64 = 0.0078, so 0.04 is more than five deviations.
TV_BOUND = 0.04


def _bits(value: int, n: int) -> list[int]:
    return [(value >> (n - 1 - i)) & 1 for i in range(n)]


def check_qft(inputs: dict, outcome: dict) -> str | None:
    """QFT then inverse QFT is the identity: the input basis state comes back."""
    want = _bits(inputs["value"], inputs["n_qubits"])
    got = outcome["results"][0]
    if list(got) != want:
        return f"round trip returned {got}, want {want}"
    return None


def _anneal_ledger(inputs: dict) -> tuple:
    # Listing 1 at two ranks: one send/unsend pair per rank per step,
    # each send one EPR pair and one fixup bit, each unsend one bit.
    steps = inputs["steps"] * inputs["n_trotter"]
    return (2 * steps, 4 * steps, 4 * steps)


def check_anneal(inputs: dict, outcome: dict) -> str | None:
    """Exact protocol ledger, and rank 0's gathered bits match rank 1's."""
    want = _anneal_ledger(inputs)
    if tuple(outcome["ledger"]) != want:
        return f"ledger {tuple(outcome['ledger'])}, want {want}"
    spins = inputs["spins"]
    all_bits, own = outcome["results"]
    if len(all_bits) != 2 * spins or any(b not in (0, 1) for b in all_bits):
        return f"rank 0 returned {all_bits!r}, want {2 * spins} bits"
    if list(all_bits[spins:]) != list(own):
        return f"gathered bits {all_bits[spins:]} differ from rank 1's {own}"
    return None


def check_anneal_mp(inputs: dict, outcome: dict) -> str | None:
    """As :func:`check_anneal`, and bit-identical to the in-process run."""
    fail = check_anneal(inputs, outcome)
    if fail is not None:
        return fail
    ref = outcome["reference"]
    if [list(r) for r in outcome["results"]] != [list(r) for r in ref]:
        return f"mp outcomes {outcome['results']} differ from inproc {ref}"
    return None


def check_teleport(inputs: dict, outcome: dict) -> str | None:
    """GHZ registers agree per shot, shots add up, teleported marginal."""
    counts = outcome["counts"]
    n = inputs["ghz"]
    shots = inputs["shots"]
    total = sum(counts.values())
    if total != shots:
        return f"histogram holds {total} shots, want {shots}"
    ones = 0
    for key, c in counts.items():
        if len(key) != 2 * n + 1:
            return f"bitstring {key!r} has {len(key)} bits, want {2 * n + 1}"
        for reg in (key[:n], key[n:2 * n]):
            if len(set(reg)) != 1:
                return f"GHZ register {reg!r} disagrees within a shot"
        ones += c * (key[-1] == "1")
    want = math.sin(inputs["theta"] / 2) ** 2
    tv = abs(ones / shots - want)
    if tv > TV_BOUND:
        return f"teleported P(1) = {ones / shots:.4f}, want {want:.4f} (TV {tv:.4f})"
    return None


CHECKS = {
    "qft_sharded": check_qft,
    "tfim_anneal": check_anneal,
    "tfim_mp": check_anneal_mp,
    "teleport_shots": check_teleport,
}
