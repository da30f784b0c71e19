"""Exact small-lattice machinery: three independent partition routes,
fermion algebra, Trotter factorization, and the coarse-graining channel."""

import math

import numpy as np
import pytest

from isingrg import lattice_oracle
from isingrg.kernels import Couplings
from isingrg.lattice_oracle import (
    CoarseGrainChannel,
    TorusSpec,
    coarse_grain_channel,
    correlation_brute,
    disentangler_matrix,
    finite_flow,
    fock_state,
    gibbs_state,
    ground_state,
    ising_tensor,
    jordan_wigner,
    mode_sort_permutation,
    partition_function_brute,
    partition_function_tensor,
    partition_function_transfer,
    second_quantized,
    second_quantized_exponential,
    site_operator,
    symmetrized_transfer,
    tfim_hamiltonian,
    transfer_field_matrix,
    transfer_matrix,
    trotter_defect,
    vacuum_state,
)
from isingrg.wavelet import make_daubechies_filter


# ---------------------------------------------------------------------------
# partition function: three independent routes + frozen fixtures


@pytest.mark.parametrize("M,N", [(1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("K", [0.1, 0.4407, 1.0])
def test_partition_triple_route(M, N, K):
    spec = TorusSpec(M, N, K, K)
    zb = partition_function_brute(spec)
    zt = partition_function_transfer(spec)
    zx = partition_function_tensor(spec)
    assert zt == pytest.approx(zb, rel=1e-12)
    assert zx == pytest.approx(zb, rel=1e-12)


def test_partition_anisotropic():
    spec = TorusSpec(2, 2, 0.3, 0.8)
    zb = partition_function_brute(spec)
    assert partition_function_transfer(spec) == pytest.approx(zb, rel=1e-12)
    assert partition_function_tensor(spec) == pytest.approx(zb, rel=1e-12)


def test_partition_frozen_fixtures(oracle_fixtures):
    for row in oracle_fixtures["partition"]:
        spec = TorusSpec(row["M"], row["N"], row["K"], row["K"])
        assert partition_function_transfer(spec) == pytest.approx(
            row["Z"], rel=1e-13)


def test_partition_tensor_transposes_for_any_k1(monkeypatch):
    # a wide torus is contracted along its short side whatever the sign of
    # K1: the vertex tensor is built with the couplings swapped
    calls = []
    real = lattice_oracle.ising_tensor
    monkeypatch.setattr(lattice_oracle, "ising_tensor",
                        lambda K1, K2: calls.append((K1, K2)) or real(K1, K2))
    spec = TorusSpec(5, 1, -0.3, 0.5)
    zx = partition_function_tensor(spec)
    assert calls == [(0.5, -0.3)]
    assert zx == pytest.approx(partition_function_brute(spec), rel=1e-12)


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(0, 2, 0.1, 0.1)
    with pytest.raises(ValueError):
        TorusSpec(2, 2, 0.1, 0.0)
    with pytest.raises(ValueError, match="M must be an integer"):
        TorusSpec(1.5, 2, 0.3, 0.3)
    with pytest.raises(ValueError, match="N must be an integer"):
        TorusSpec(2, 0, 0.3, 0.3)
    with pytest.raises(ValueError, match="K1 must be finite"):
        TorusSpec(2, 2, math.nan, 0.5)
    with pytest.raises(ValueError, match="K2 must be finite"):
        TorusSpec(2, 2, 0.5, math.inf)


@pytest.mark.parametrize("M, K2", [(1, 0.1), (2, 0.4407), (2, 1.3)])
def test_transfer_field_matrix_dual_form(M, K2):
    # the row-to-row factor is (2 sinh 2 K2)^M (x)_j exp(K2* sigma1_j) over
    # the 2M columns, with the dual coupling tanh K2* = exp(-2 K2)
    dual = math.atanh(math.exp(-2.0 * K2))
    cell = np.array([[math.cosh(dual), math.sinh(dual)],
                     [math.sinh(dual), math.cosh(dual)]])  # exp(K2* sigma1)
    want = np.array([[(2.0 * math.sinh(2.0 * K2)) ** M]])
    for _ in range(2 * M):
        want = np.kron(want, cell)
    got = transfer_field_matrix(TorusSpec(M, 1, 0.3, K2))
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def test_ising_tensor_symmetry():
    t = ising_tensor(0.3, 0.7)
    assert t.shape == (2, 2, 2, 2)
    np.testing.assert_allclose(t, np.swapaxes(t, 0, 2), atol=0)


def test_transfer_symmetrized_same_trace():
    # oracle: transfer_matrix, the unsymmetrized V = V_bond V_field
    spec = TorusSpec(2, 2, 0.4407, 0.4407)
    v = transfer_matrix(spec)
    vs = symmetrized_transfer(spec)
    assert np.trace(np.linalg.matrix_power(vs, spec.n_rows)).real == \
        pytest.approx(np.trace(np.linalg.matrix_power(v, spec.n_rows)).real,
                      rel=1e-12)


# ---------------------------------------------------------------------------
# correlations


def test_correlation_frozen_fixtures(oracle_fixtures):
    spec = TorusSpec(2, 2, 0.4407, 0.4407)
    for row in oracle_fixtures["correlation"]:
        pts = [tuple(p) for p in row["points"]]
        assert correlation_brute(spec, pts) == pytest.approx(row["value"],
                                                             rel=1e-12)


def test_correlation_symmetries():
    spec = TorusSpec(2, 2, 0.5, 0.5)
    # translation invariance on the torus
    a = correlation_brute(spec, [(0, 0), (1, 0)])
    b = correlation_brute(spec, [(2, 1), (3, 1)])
    assert a == pytest.approx(b, rel=1e-12)
    # single spin has zero mean by global flip symmetry
    assert abs(correlation_brute(spec, [(1, 1)])) < 1e-12


# ---------------------------------------------------------------------------
# fermions on the chain


def test_jordan_wigner_car():
    n = 4
    ops = [o.toarray() for o in jordan_wigner(n)]
    eye = np.eye(1 << n)
    for i in range(n):
        for j in range(n):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            np.testing.assert_allclose(anti, 0.0, atol=1e-13)
            mixed = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            np.testing.assert_allclose(mixed, (i == j) * eye, atol=1e-13)


def test_vacuum_annihilated():
    n = 3
    vec = vacuum_state(n)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    for op in jordan_wigner(n):
        assert np.linalg.norm(op @ vec) < 1e-14


def test_fock_state_occupation_and_sign():
    n = 4
    ops = jordan_wigner(n)
    vec = fock_state(n, [1, 3])
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
    for j in range(n):
        num = ops[j].conj().T @ ops[j]
        expect = float(np.real(np.vdot(vec, num @ vec)))
        assert expect == pytest.approx(1.0 if j in (1, 3) else 0.0, abs=1e-13)
    with pytest.raises(ValueError):
        fock_state(3, [5])
    with pytest.raises(ValueError, match=r"occupied sites \[1, 1\] repeat a site"):
        fock_state(3, [1, 1])


def test_chain_input_validation():
    for j in (5, -1):
        with pytest.raises(ValueError, match=f"site {j} outside the 3-site chain"):
            site_operator(np.eye(2), j, 3)
    with pytest.raises(ValueError, match="n_steps must be >= 1, got 0"):
        trotter_defect(3, 1.0, 0, 1.0, 1.0)


def test_creator_is_sum_of_jordan_wigner_creators():
    n = 4
    rng = np.random.default_rng(2)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    ops = jordan_wigner(n)
    ref = sum(f[j] * ops[j].conj().T.toarray() for j in range(n))
    np.testing.assert_array_equal(lattice_oracle._creator(f), ref)


def test_ground_state_energy():
    # 2-site open TFIM, t1 = t3 = 1: H = -(s1_0 + s1_1) - s3_0 s3_1,
    # ground energy -sqrt(5) by direct 4x4 algebra.
    H = tfim_hamiltonian(2, 1.0, 1.0, periodic=False)
    v = ground_state(H)
    e = float(np.real(np.vdot(v, H @ v)))
    assert e == pytest.approx(-math.sqrt(5.0), abs=1e-12)


def test_gibbs_state_properties():
    H = tfim_hamiltonian(3, 1.0, 0.7, periodic=True)
    rho = gibbs_state(H, beta=1.3)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() > 0


# ---------------------------------------------------------------------------
# Trotter factorization


def test_trotter_strictly_decreasing():
    errs = [trotter_defect(4, 1.0, n, 1.0, 1.0) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    # symmetrized splitting: second-order, so quartering per doubling
    assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.05)


# ---------------------------------------------------------------------------
# disentangler and channel


def test_disentangler_fixtures(oracle_fixtures, haar, d4):
    stored = oracle_fixtures["disentangler"]
    np.testing.assert_allclose(disentangler_matrix(haar, 4),
                               np.array(stored["db1_L4"]), atol=1e-14)
    np.testing.assert_allclose(disentangler_matrix(d4, 4),
                               np.array(stored["db2_L4"]), atol=1e-14)
    np.testing.assert_allclose(disentangler_matrix(d4, 8),
                               np.array(stored["db2_L8"]), atol=1e-14)


@pytest.mark.parametrize("p,L", [(1, 4), (1, 8), (2, 4), (2, 8), (4, 8)])
def test_disentangler_unitary(p, L):
    u = disentangler_matrix(make_daubechies_filter(p), L)
    np.testing.assert_allclose(u @ u.T, np.eye(L), atol=1e-12)


def test_disentangler_validation(d4):
    with pytest.raises(ValueError):
        disentangler_matrix(d4, 5)
    with pytest.raises(ValueError):
        disentangler_matrix(make_daubechies_filter(4), 4)


def test_second_quantization_routes_agree():
    # det-minor route vs the oracle second_quantized_exponential, the
    # exp(dGamma(log w)) route, on random unitaries
    rng = np.random.default_rng(7)
    for n in (3, 6):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = np.linalg.qr(a)[0]
        g1 = second_quantized(w)
        g2 = second_quantized_exponential(w)
        # match global phase before comparing
        idx = np.argmax(np.abs(g1))
        phase = g2.flat[idx] / g1.flat[idx]
        np.testing.assert_allclose(g1 * phase, g2, atol=1e-12)
        assert abs(abs(phase) - 1.0) < 1e-12


def test_mode_sort_permutation():
    P = mode_sort_permutation(6)
    np.testing.assert_allclose(P @ P.T, np.eye(6), atol=0)
    x = np.arange(6.0)
    np.testing.assert_allclose(P @ x, [0, 2, 4, 1, 3, 5], atol=0)


def test_channel_trace_preserving(haar):
    chan = coarse_grain_channel(haar, 4)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = chan.apply(rho)
    assert out.shape == (4, 4)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    lam = np.linalg.eigvalsh(out)
    assert lam.min() > -1e-12


def test_channel_duality(haar, d4):
    # tr(eps(rho) a*(xi) a(eta)) = tr(rho a*(U iota xi) a(U iota eta))
    rng = np.random.default_rng(11)
    for n_fine, reps in ((4, 5), (8, 2)):
        dim, nc = 1 << n_fine, n_fine // 2
        for filt in (haar, d4):
            chan = coarse_grain_channel(filt, n_fine)
            for _ in range(reps):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = a @ a.conj().T
                rho /= np.trace(rho)
                xi = rng.normal(size=nc) + 1j * rng.normal(size=nc)
                eta = rng.normal(size=nc) + 1j * rng.normal(size=nc)
                assert chan.duality_defect(rho, xi, eta) < 1e-11


def test_channel_embed_validation(haar):
    chan = coarse_grain_channel(haar, 4)
    with pytest.raises(ValueError):
        chan.embed(np.ones(3))
    assert isinstance(chan, CoarseGrainChannel)
    assert chan.n_coarse == 2


def test_finite_flow_shapes(haar):
    rhos = finite_flow(haar, 4, 2, 1.0, 1.0, beta=math.inf)
    assert [r.shape[0] for r in rhos] == [16, 4, 2]
    for r in rhos:
        assert np.trace(r).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        finite_flow(haar, 16, 1, 1.0, 1.0, beta=1.0)
    with pytest.raises(ValueError):
        finite_flow(haar, 6, 2, 1.0, 1.0, beta=1.0)


def test_finite_flow_channel_unital_and_state_valid(haar):
    # The channel is a unitary rotation followed by a partial trace, so it
    # must be unital (maximally mixed -> maximally mixed) and send density
    # matrices to density matrices.
    chan = coarse_grain_channel(haar, 8)
    eye_fine = np.eye(2 ** 8) / 2 ** 8
    out = chan.apply(eye_fine)
    assert np.allclose(out, np.eye(2 ** 4) / 2 ** 4, atol=1e-12)

    rhos = finite_flow(haar, 8, 1, 1.0, 1.0, beta=math.inf)
    rho_c = rhos[1]
    assert np.allclose(rho_c, rho_c.conj().T, atol=1e-12)
    assert np.trace(rho_c).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho_c).min() > -1e-12


def test_finite_flow_occupation_dual_route(haar, d4):
    # oracle: finite_flow, the dense chain's Gibbs state and its images under
    # the coarse-graining channel.
    # Coarse-chain occupation computed two independent ways: (i) apply the
    # channel to the state and contract with a coarse-mode number operator,
    # (ii) pull the mode back through the one-particle embedding and
    # contract the *fine* state with the embedded quadratic observable.
    for filt in (haar, d4):
        rhos = finite_flow(filt, 8, 1, 1.0, 1.0, beta=math.inf)
        rho_f, rho_c = rhos[0], rhos[1]
        chan = coarse_grain_channel(filt, 8)

        xi = np.zeros(4)
        xi[1] = 1.0
        ops_c = jordan_wigner(4)
        n_coarse = (ops_c[1].conj().T @ ops_c[1]).toarray()
        via_channel = complex(np.trace(rho_c @ n_coarse))

        fine = chan.embed(xi)
        ops_f = jordan_wigner(8)
        cre = sum(fine[i] * ops_f[i].conj().T.toarray() for i in range(8))
        ann = sum(np.conj(fine[i]) * ops_f[i].toarray() for i in range(8))
        via_embedding = complex(np.trace(rho_f @ (cre @ ann)))

        assert via_channel == pytest.approx(via_embedding, abs=1e-10)
        assert via_channel.imag == pytest.approx(0.0, abs=1e-10)
