"""Engine-dtype-aware tolerance bars for the test suite.

The CI complex64 leg runs the whole tier-1 suite under
``REPRO_QMPI_DTYPE=complex64`` (the engines' environment default, see
:class:`repro.sim.StateVector`).  Assertions written against float64
arithmetic (``atol=1e-12``, ``pytest.approx`` at its 1e-6 relative
default) cannot hold in float32, where one rounding step is already
~6e-8 — so precision-bound tests import their bars from here instead
of hard-coding them.  Under the default complex128 the constants are
the historical tight values; under the override they scale to float32
eps times the typical circuit depth of the suite.
"""

import os

ENGINE_DTYPE = os.environ.get("REPRO_QMPI_DTYPE") or "complex128"
C64 = ENGINE_DTYPE == "complex64"


def state_atol(dtype: str) -> float:
    """:data:`STATE_ATOL` for an engine built with an explicit ``dtype``."""
    return 1e-5 if str(dtype) == "complex64" else 1e-12


#: Amplitude agreement after a handful of gates (engine vs engine,
#: engine vs closed form).  float32 rounds each arithmetic step at
#: ~6e-8; a short circuit accumulates to the 1e-5 scale.
STATE_ATOL = state_atol(ENGINE_DTYPE)

#: Amplitude agreement after deep circuits (QFT, Trotter sweeps,
#: schedule-order programs): depth amplifies the float32 noise floor.
DEEP_ATOL = 2e-4 if C64 else 1e-10


def prob_abs(dtype: str) -> float:
    """:data:`PROB_ABS` for an engine built with an explicit ``dtype``."""
    return 1e-4 if str(dtype) == "complex64" else 1e-9


#: ``pytest.approx(..., abs=...)`` bar for probabilities, norms,
#: fidelities, and expectation values (quadratic in the amplitudes).
PROB_ABS = prob_abs(ENGINE_DTYPE)
