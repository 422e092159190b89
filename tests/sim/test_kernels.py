"""White-box tests of the native kernel layer (:mod:`repro.sim.kernels`).

Covers the reference driver against the vectorized numpy fallbacks
(bitwise, provider-free — this is the executable contract), the
dispatch mode/break-even/env-knob resolution, counter accuracy, the
provider self-check demotion, and — when a native provider resolves in
this environment — bit-identity of every dispatched kernel and of
whole-engine runs between ``kernels="jit"`` and ``kernels="numpy"``.
"""

import numpy as np
import pytest

from repro.qmpi.backend import ShardedBackend, SharedBackend, make_backend
from repro.qmpi.ops import Op
from repro.sim import ShardedStateVector, StateVector, coalesce_diagonals
from repro.sim import kernels as K
from repro.sim.kernels import (
    JIT_MIN_AMPS_DEFAULT,
    KernelDispatch,
    provider_name,
    reset_provider_cache,
)
from repro.sim.parallel import contract_local


@pytest.fixture
def fresh_providers():
    reset_provider_cache()
    yield
    reset_provider_cache()


def _rand_chunk(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _rand_u(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def _diag_u(rng):
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return np.diag(d)


def _mats(*us):
    m = np.empty((len(us), 4), dtype=np.complex128)
    for i, u in enumerate(us):
        m[i, 0], m[i, 1], m[i, 2], m[i, 3] = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    return m.view(np.float64)


def _bits_equal(a, b):
    return np.array_equal(a.view(np.float64), b.view(np.float64), equal_nan=True)


def _drive_ref(chunk, codes, arg0, arg1, mats):
    out = chunk.copy()
    K._drive_py(
        out.reshape(-1).view(np.float64),
        np.asarray(codes, dtype=np.int64),
        np.asarray(arg0, dtype=np.int64),
        np.asarray(arg1, dtype=np.int64),
        mats,
    )
    return out


# ----------------------------------------------------------------------
# reference driver vs the vectorized numpy fallback arms (no provider)
# ----------------------------------------------------------------------
class TestReferenceVsNumpyArms:
    """Each opcode's scalar spec matches the planar numpy arm bit-for-bit."""

    NL = 6

    def test_sq_full_all_strides(self):
        rng = np.random.default_rng(1)
        kd = KernelDispatch("numpy")
        for b in range(self.NL):
            chunk = _rand_chunk(rng, 1 << self.NL)
            u = _rand_u(rng)
            ref = _drive_ref(chunk, [K.OP_SQ_FULL], [b], [0], _mats(u))
            got = chunk.copy()
            kd.sq(got, u, b, diag=False)
            assert _bits_equal(got, ref), f"stride bit {b}"
        assert kd.counters["numpy_fallbacks"] == self.NL
        assert kd.counters["jit_hits"] == 0

    def test_sq_diag(self):
        rng = np.random.default_rng(2)
        kd = KernelDispatch("numpy")
        for u in (_diag_u(rng), np.diag([1.0, 1j]), np.diag([-1j, 1.0])):
            chunk = _rand_chunk(rng, 1 << self.NL)
            ref = _drive_ref(chunk, [K.OP_SQ_DIAG], [2], [0], _mats(u))
            got = chunk.copy()
            kd.sq(got, np.asarray(u, dtype=np.complex128), 2, diag=True)
            assert _bits_equal(got, ref)

    def test_cc_full_and_diag(self):
        rng = np.random.default_rng(3)
        kd = KernelDispatch("numpy")
        controls, t_bit = (1, 3), 0
        lmask = 0b1010
        chunk = _rand_chunk(rng, 1 << self.NL)
        u = _rand_u(rng)
        ref = _drive_ref(chunk, [K.OP_CC_FULL], [lmask], [t_bit], _mats(u))
        got = chunk.copy()
        kd.cc(got, u, controls, t_bit, self.NL, diag=False)
        assert _bits_equal(got, ref)
        ud = _diag_u(rng)
        ref = _drive_ref(chunk, [K.OP_CC_DIAG], [lmask], [t_bit], _mats(ud))
        got = chunk.copy()
        kd.cc(got, ud, controls, t_bit, self.NL, diag=True)
        assert _bits_equal(got, ref)

    def test_scale_both_diagonal_entries(self):
        rng = np.random.default_rng(4)
        kd = KernelDispatch("numpy")
        chunk = _rand_chunk(rng, 1 << self.NL)
        f = complex(0.3, -0.8)
        u = np.diag([f, 2 * f])
        for sel in (0, 1):
            ref = _drive_ref(chunk, [K.OP_SCALE], [sel], [0], _mats(u))
            got = chunk.copy()
            kd.scale(got, u[sel, sel])
            assert _bits_equal(got, ref)

    def test_scale_identity_is_free(self):
        kd = KernelDispatch("numpy")
        chunk = _rand_chunk(np.random.default_rng(5), 8)
        before = dict(kd.counters)
        kd.scale(chunk, 1.0 + 0j)
        assert kd.counters == before  # guard short-circuits, no counter

    def test_masked_scale(self):
        rng = np.random.default_rng(6)
        kd = KernelDispatch("numpy")
        controls = (0, 2)
        lmask = 0b101
        chunk = _rand_chunk(rng, 1 << self.NL)
        f = complex(-0.2, 0.9)
        ref = _drive_ref(
            chunk, [K.OP_MASK_SCALE], [lmask], [0], _mats(np.diag([f, f]))
        )
        got = chunk.copy()
        kd.masked_scale(got, f, controls, self.NL)
        assert _bits_equal(got, ref)

    def test_multi_step_block(self):
        """A packed block equals the same steps dispatched one by one."""
        rng = np.random.default_rng(7)
        kd = KernelDispatch("numpy")
        chunk = _rand_chunk(rng, 1 << self.NL)
        u1, u2, ud = _rand_u(rng), _rand_u(rng), _diag_u(rng)
        ref = _drive_ref(
            chunk,
            [K.OP_SQ_FULL, K.OP_CC_FULL, K.OP_SQ_DIAG],
            [1, 0b100, 3],
            [0, 1, 0],
            _mats(u1, u2, ud),
        )
        got = chunk.copy()
        kd.sq(got, u1, 1, diag=False)
        kd.cc(got, u2, (2,), 1, self.NL, diag=False)
        kd.sq(got, ud, 3, diag=True)
        assert _bits_equal(got, ref)

    def test_branch_axis_rows_are_independent(self):
        """A leading shots axis flows through flat-index bit arithmetic."""
        rng = np.random.default_rng(8)
        kd = KernelDispatch("numpy")
        rows = [_rand_chunk(rng, 1 << self.NL) for _ in range(4)]
        stacked = np.stack(rows)
        u = _rand_u(rng)
        kd.sq(stacked, u, 2, diag=False)
        for r, row in enumerate(rows):
            one = row.copy()
            kd.sq(one, u, 2, diag=False)
            assert _bits_equal(stacked[r], one)

    def test_phase_py_matches_scalar_product(self):
        """The doubling fill equals a per-element left-to-right product.

        CPython's complex multiply is the same planar expression, so an
        element-wise product in part order is bit-identical by IEEE
        semantics — this pins the fold-order convention.
        """
        rng = np.random.default_rng(9)
        n_live = 4
        # parts: single at level 0, pair at level 2 (pa > pb), single at 3
        v0 = _rand_chunk(rng, 2)
        v1 = _rand_chunk(rng, 4)
        v2 = _rand_chunk(rng, 2)
        lvl = np.array([0, 2, 3], dtype=np.int64)
        kind = np.array([1, 2, 1], dtype=np.int64)
        pa = np.array([0, 2, 3], dtype=np.int64)
        pb = np.array([0, 0, 0], dtype=np.int64)
        nzm = np.array([0b11, 0b1011, 0b10], dtype=np.int64)
        vals = np.zeros(3 * 8)
        for pi, v in enumerate((v0, v1, v2)):
            for i, c in enumerate(v):
                vals[8 * pi + 2 * i] = c.real
                vals[8 * pi + 2 * i + 1] = c.imag
        scalar = complex(0.7, -0.1)
        out = np.empty(1 << n_live, dtype=np.complex128)
        K._phase_py(
            out.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals,
            scalar.real, scalar.imag,
        )
        for e in range(1 << n_live):
            acc = scalar
            for pi in range(3):
                if kind[pi] == 2:
                    i = (((e >> pa[pi]) & 1) << 1) | ((e >> pb[pi]) & 1)
                else:
                    i = (e >> pa[pi]) & 1
                if nzm[pi] & (1 << i):
                    acc = acc * complex(vals[8 * pi + 2 * i], vals[8 * pi + 2 * i + 1])
            assert out[e] == acc
            assert np.signbit(out[e].real) == np.signbit(acc.real)


# ----------------------------------------------------------------------
# dispatch resolution, env knobs, counters
# ----------------------------------------------------------------------
class TestDispatchResolution:
    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_QMPI_KERNELS", raising=False)
        assert KernelDispatch().mode == "auto"

    def test_env_default_and_explicit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_QMPI_KERNELS", "jit")
        assert KernelDispatch().mode == "jit"
        assert KernelDispatch("numpy").mode == "numpy"  # kwarg beats env

    def test_invalid_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="kernels must be"):
            KernelDispatch("fast")
        monkeypatch.setenv("REPRO_QMPI_KERNELS", "turbo")
        with pytest.raises(ValueError, match="turbo"):
            KernelDispatch()

    def test_numpy_mode_never_native(self):
        kd = KernelDispatch("numpy")
        assert not kd.native(1 << 30)
        assert kd.info()["provider"] is None

    def test_auto_below_breakeven_stays_lazy(self):
        kd = KernelDispatch("auto", jit_min_amps=64)
        assert not kd.native(32)
        assert not kd._resolved  # the provider was never compiled/loaded
        assert kd.info()["jit_min_amps"] == 64

    def test_jit_min_amps_default_mirrors_cost_model(self):
        from repro.sim.schedule import DEFAULT_COST_MODEL

        assert JIT_MIN_AMPS_DEFAULT == DEFAULT_COST_MODEL.jit_min_amps
        assert KernelDispatch("auto").jit_min_amps == JIT_MIN_AMPS_DEFAULT

    def test_disable_jit_env(self, monkeypatch, fresh_providers):
        monkeypatch.setenv("REPRO_QMPI_DISABLE_JIT", "1")
        assert provider_name() is None
        kd = KernelDispatch("jit")
        assert not kd.native(1 << 20)
        chunk = _rand_chunk(np.random.default_rng(0), 64)
        kd.sq(chunk, np.eye(2, dtype=complex), 0, diag=False)
        info = kd.info()
        assert info["provider"] is None
        assert info["jit_hits"] == 0
        assert info["numpy_fallbacks"] == 1
        assert "REPRO_QMPI_DISABLE_JIT" in info["provider_error"]

    def test_unknown_forced_provider(self, monkeypatch, fresh_providers):
        monkeypatch.delenv("REPRO_QMPI_DISABLE_JIT", raising=False)
        monkeypatch.setenv("REPRO_QMPI_KERNEL_PROVIDER", "fortran")
        name, provider, _, error = K._resolve_provider()
        assert name is None and provider is None
        assert "fortran" in error

    def test_provider_resolution_is_memoized(self, fresh_providers):
        assert K._resolve_provider() is K._resolve_provider()

    def test_worker_args_roundtrip(self):
        kd = KernelDispatch("jit", jit_min_amps=128)
        mode, jma = kd.worker_args()
        clone = KernelDispatch(mode, jit_min_amps=jma)
        assert (clone.mode, clone.jit_min_amps) == ("jit", 128)

    def test_contract_numpy_mode_declines(self):
        kd = KernelDispatch("numpy")
        chunk = _rand_chunk(np.random.default_rng(1), 64)
        assert kd.contract(chunk, np.eye(4, dtype=complex), (0, 1), 6) is False
        assert kd.counters["numpy_fallbacks"] == 1

    def test_phase_fill_numpy_mode_declines(self):
        kd = KernelDispatch("numpy")
        assert kd.phase_fill(1.0, 3, [(0, 1, 0, 0, np.ones(2), (0,))]) is None

    def test_self_check_demotes_a_lying_provider(self):
        class Lying:
            name = "lying"

            def drive(self, af, codes, arg0, arg1, mats):
                af[0] += 1.0  # not the reference arithmetic

            def phase(self, *a):
                pass

        assert "not bit-identical" in K._self_check(Lying())


def test_forced_cffi_provider_self_checks(monkeypatch, fresh_providers, tmp_path):
    pytest.importorskip("cffi")
    monkeypatch.delenv("REPRO_QMPI_DISABLE_JIT", raising=False)
    monkeypatch.setenv("REPRO_QMPI_KERNEL_PROVIDER", "cffi")
    monkeypatch.setenv("REPRO_QMPI_KERNEL_CACHE", str(tmp_path / "qk-cache"))
    name, provider, compile_time, error = K._resolve_provider()
    if name is None:
        pytest.skip(f"no working C toolchain: {error}")
    assert name == "cffi" and error is None
    assert compile_time > 0.0
    assert K._self_check(provider) is None
    # a second resolve in a fresh cache-map reuses the on-disk build
    reset_provider_cache()
    name2, provider2, _, _ = K._resolve_provider()
    assert name2 == "cffi" and provider2 is not provider


def test_numba_provider_self_checks():
    numba = pytest.importorskip("numba")
    provider = K._NumbaProvider(numba)
    assert K._self_check(provider) is None


# ----------------------------------------------------------------------
# native-vs-numpy bit-identity (needs any provider in this environment)
# ----------------------------------------------------------------------
def _jit_or_skip():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    return KernelDispatch("jit")


class TestNativeBitIdentity:
    NL = 7

    def _pair(self):
        return _jit_or_skip(), KernelDispatch("numpy")

    def test_sq_cc_scale_kernels(self):
        jit, ref = self._pair()
        rng = np.random.default_rng(10)
        base = _rand_chunk(rng, 1 << self.NL)
        u, ud = _rand_u(rng), _diag_u(rng)
        for op in (
            lambda kd, c: kd.sq(c, u, 3, diag=False),
            lambda kd, c: kd.sq(c, ud, 0, diag=True),
            lambda kd, c: kd.cc(c, u, (0, 4), 2, self.NL, diag=False),
            lambda kd, c: kd.cc(c, ud, (5,), 1, self.NL, diag=True),
            lambda kd, c: kd.scale(c, complex(0.1, 0.9)),
            lambda kd, c: kd.masked_scale(c, complex(-0.4, 0.2), (1, 2), self.NL),
        ):
            a, b = base.copy(), base.copy()
            op(jit, a)
            op(ref, b)
            assert _bits_equal(a, b)
        assert jit.counters["jit_hits"] == 6
        assert jit.counters["numpy_fallbacks"] == 0
        assert ref.counters["numpy_fallbacks"] == 6

    def test_contract_matches_contract_local(self):
        jit = _jit_or_skip()
        rng = np.random.default_rng(11)
        for bits in ((2,), (1, 4), (0, 3, 5)):
            k = len(bits)
            u = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal(
                (1 << k, 1 << k)
            )
            a = _rand_chunk(rng, 1 << self.NL)
            b = a.copy()
            assert jit.contract(a, u, bits, self.NL) is True
            contract_local(b, u, bits, self.NL)
            assert _bits_equal(a, b)
        assert jit.counters["csel_hits"] == 3
        # the gather index is memoized per (size, bits, nl)
        assert len(jit._csel_memo) == 3
        a = _rand_chunk(rng, 1 << self.NL)
        jit.contract(a, np.eye(2, dtype=complex), (2,), self.NL)
        assert len(jit._csel_memo) == 3

    def test_phase_fill_matches_reference(self):
        jit = _jit_or_skip()
        rng = np.random.default_rng(12)
        n_live = 5
        enc = [
            (0, 1, 0, 0, _rand_chunk(rng, 2), (0, 1)),
            (2, 2, 2, 1, _rand_chunk(rng, 4), (0, 2, 3)),
            (4, 1, 4, 0, _rand_chunk(rng, 2), (1,)),
        ]
        scalar = complex(0.3, 0.4)
        got = jit.phase_fill(scalar, n_live, enc)
        assert got is not None
        lvl = np.array([p for p, *_ in enc], dtype=np.int64)
        kind = np.array([e[1] for e in enc], dtype=np.int64)
        pa = np.array([e[2] for e in enc], dtype=np.int64)
        pb = np.array([e[3] for e in enc], dtype=np.int64)
        nzm = np.array(
            [sum(1 << i for i in e[5]) for e in enc], dtype=np.int64
        )
        vals = np.zeros(8 * len(enc))
        for j, e in enumerate(enc):
            for i in e[5]:
                vals[8 * j + 2 * i] = e[4][i].real
                vals[8 * j + 2 * i + 1] = e[4][i].imag
        ref = np.empty(1 << n_live, dtype=np.complex128)
        K._phase_py(
            ref.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals,
            scalar.real, scalar.imag,
        )
        assert _bits_equal(got, ref)

    def test_jit_mode_ignores_breakeven_auto_respects_it(self):
        jit = _jit_or_skip()
        assert jit.native(2)  # jit mode: always native when provider exists
        auto = KernelDispatch("auto", jit_min_amps=1 << 10)
        assert not auto.native(1 << 9)
        assert auto.native(1 << 10)

    def test_compile_time_reported_once_resolved(self):
        jit = _jit_or_skip()
        jit.warmup()
        info = jit.info()
        assert info["provider"] in ("numba", "cffi")
        assert info["compile_time"] >= 0.0
        assert info["provider_error"] is None


# ----------------------------------------------------------------------
# whole-engine bit-identity and plumbing
# ----------------------------------------------------------------------
def _engine_ops():
    return [
        Op("h", (0,)),
        Op("rx", (2,), (0.45,)),
        Op("ry", (3,), (0.8,)),
        Op("rz", (1,), (0.3,)),
        Op("cphase", (1, 2), (0.9,)),
        Op("z", (3,)),
        Op("cphase", (0, 3), (0.5,)),
        Op("cnot", (2, 3)),
        Op("t", (0,)),
        Op("crz", (0, 1), (0.7,)),
    ]


def test_sharded_engine_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    a = ShardedStateVector(6, seed=0, n_shards=4, kernels="jit")
    b = ShardedStateVector(6, seed=0, n_shards=4, kernels="numpy")
    ops = coalesce_diagonals(_engine_ops())
    a.apply_ops(ops)
    b.apply_ops(ops)
    assert _bits_equal(a.statevector(), b.statevector())
    assert a._kernels.counters["jit_hits"] > 0
    assert b._kernels.counters["jit_hits"] == 0


def test_shared_engine_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    a = StateVector(6, seed=0, kernels="jit")
    b = StateVector(6, seed=0, kernels="numpy")
    ops = coalesce_diagonals(_engine_ops())
    a.apply_ops(ops)
    b.apply_ops(ops)
    assert _bits_equal(a.statevector(), b.statevector())


def test_engine_copy_gets_fresh_counters():
    sv = ShardedStateVector(4, seed=0, kernels="numpy")
    sv.apply_ops(coalesce_diagonals(_engine_ops()))
    assert sv._kernels.counters["numpy_fallbacks"] > 0
    c = sv.copy()
    assert c._kernels is not sv._kernels
    assert c._kernels.mode == "numpy"
    assert c._kernels.counters["numpy_fallbacks"] == 0


def test_backend_kernel_info_and_validation():
    b = ShardedBackend(seed=0, kernels="numpy")
    info = b.kernel_info()
    assert info["mode"] == "numpy" and info["jit_hits"] == 0
    assert SharedBackend(seed=0).kernel_info()["mode"] in ("auto", "numpy", "jit")
    with pytest.raises(ValueError, match="kernels"):
        SharedBackend(kernels="bogus")
    assert make_backend("sharded", seed=1, kernels="numpy").kernel_info()["mode"] == (
        "numpy"
    )


def test_frozen_replay_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")

    def run(kernels):
        b = ShardedBackend(seed=0, n_shards=4, kernels=kernels, cache="on")
        q = b.alloc(0, 6)
        for theta in (0.3, 0.9):  # same structure, rebound payload
            ops = [Op("h", (q[i],)) for i in range(6)]
            ops += [Op("crz", (q[i], q[i + 1]), (theta,)) for i in range(5)]
            ops += [Op("rz", (q[0],), (2 * theta,)), Op("cnot", (q[1], q[4]))]
            b.apply_flush(0, ops)
        psi = b._sv.statevector()
        return psi, b.kernel_info(), b.cache_info()

    psi_j, info_j, cache_j = run("jit")
    psi_n, info_n, _ = run("numpy")
    assert _bits_equal(psi_j, psi_n)
    assert cache_j["hits"] >= 1  # the second flush replayed a frozen program
    assert info_j["jit_hits"] > 0 and info_j["numpy_fallbacks"] == 0
    assert info_n["jit_hits"] == 0 and info_n["numpy_fallbacks"] > 0


def test_worker_pool_kernel_rebuild():
    from repro.sim.parallel import _WORKER_KERNELS, _worker_kernels

    _WORKER_KERNELS.clear()
    kd = _worker_kernels(("numpy", 4096))
    assert kd.mode == "numpy"
    assert _worker_kernels(("numpy", 4096)) is kd  # cached per spec
    assert _worker_kernels(None) is None  # pre-kernels tasks stay legacy
    _WORKER_KERNELS.clear()
