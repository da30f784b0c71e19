"""Exact dense oracle: small Ising tori, transfer matrices, lattice fermions.

Everything here is brute-force linear algebra on chains short enough to hold
in memory.  It exists to pin down conventions and to cross-check the
momentum-space engine:

* classical 2D Ising tori (``2M`` columns x ``2N`` rows, periodic) via three
  independent routes -- an exact integer count of all spin configurations
  by bond energy, traced powers of the row transfer matrix, and contraction
  of the local vertex tensor;
* the quantum chain: transverse-field Hamiltonian, Gibbs/ground states,
  Jordan-Wigner fermions, and symmetrized Trotter steps;
* second quantization of one-particle maps (determinant minors, with an
  exponential-generator cross route) and the wavelet coarse-graining channel
  built from a filter-bank disentangler and a fermionic-mode partial trace.

Conventions: the transfer direction couples rows with strength ``K2`` and
within-row neighbors with ``K1``; row transfer ``V = V_bond(K1) V_field(K2)``
with ``V_field = (2 sinh 2 K2)^M exp(K2* sum sigma1)``, ``tanh K2* =
exp(-2 K2)``.  Fermions: ``a_j = (prod_{l<j} sigma1_l) c_j`` with ``c =
(sigma3 + i sigma2)/2``; the empty state is the all-``minus`` product in the
``sigma1`` eigenbasis, and ``a*_{j_1} ... a*_{j_n}`` (ascending) applied to
it gives the spin basis vector with sign ``(-1)^{sum j_i}`` (0-based).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import det, expm, logm

from ._accel import partition_brute
from .wavelet import _HIGH_PASS_OFFSET, Filter, high_pass

__all__ = [
    "TorusSpec",
    "ising_tensor",
    "partition_function_brute",
    "partition_function_transfer",
    "partition_function_tensor",
    "transfer_field_matrix",
    "transfer_matrix",
    "symmetrized_transfer",
    "correlation_brute",
    "tfim_hamiltonian",
    "gibbs_state",
    "ground_state",
    "trotter_step",
    "trotter_defect",
    "site_operator",
    "jordan_wigner",
    "vacuum_state",
    "fock_state",
    "disentangler_matrix",
    "mode_sort_permutation",
    "second_quantized",
    "second_quantized_exponential",
    "CoarseGrainChannel",
    "coarse_grain_channel",
    "finite_flow",
    "export_fixtures",
]

_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SM = (_S3 + 1j * _S2) / 2.0  # fermion mode lowering in the sigma1 eigenbasis

_MAX_DENSE_SITES = 12
_MAX_GAMMA_SITES = 10


# ---------------------------------------------------------------------------
# classical torus


@dataclass(frozen=True)
class TorusSpec:
    """Periodic ``2M x 2N`` Ising torus.

    ``K1`` couples neighbors within a row (the direction of length ``2M``),
    ``K2`` couples neighboring rows.
    """

    M: int
    N: int
    K1: float
    K2: float

    def __post_init__(self):
        for name in ("M", "N"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("K1", "K2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.K2 <= 0:
            raise ValueError("K2 must be positive (the row-to-row weight)")

    @property
    def n_cols(self) -> int:
        return 2 * self.M

    @property
    def n_rows(self) -> int:
        return 2 * self.N


def _spin_values(n_sites: int) -> np.ndarray:
    """(2^n, n) array of +-1 spin values; site 0 is the leftmost kron factor."""
    idx = np.arange(1 << n_sites)
    bits = (idx[:, None] >> (n_sites - 1 - np.arange(n_sites))[None, :]) & 1
    return 1.0 - 2.0 * bits


def ising_tensor(K1: float, K2: float) -> np.ndarray:
    """Local vertex tensor ``A[mu, mu', sigma, sigma']``.

    Index value 0 encodes spin ``+1`` and 1 encodes ``-1``;
    ``A = delta(mu, sigma) * exp(K1 v(mu) v(mu')) * exp(K2 v(sigma) v(sigma'))``.
    Contracted around the torus (``mu`` horizontally, ``sigma`` vertically)
    it reproduces the partition function.
    """
    v = np.array([1.0, -1.0])
    A = np.zeros((2, 2, 2, 2))
    for mu in range(2):
        for mup in range(2):
            for s in range(2):
                for sprime in range(2):
                    if mu == s:
                        A[mu, mup, s, sprime] = math.exp(K1 * v[mu] * v[mup]) * \
                            math.exp(K2 * v[s] * v[sprime])
    return A


def partition_function_brute(spec: TorusSpec) -> float:
    """Partition sum over all ``2^(4MN)`` configurations, exactly counted.

    The configurations are counted in integers by their numbers of
    satisfied bonds in each direction (row by row along the narrower side,
    cached per shape); the Boltzmann weights enter only in the final sum.
    """
    return partition_brute(spec.K1, spec.K2, spec.n_cols, spec.n_rows)


def _bond_sums(n_sites: int, periodic: bool) -> np.ndarray:
    """``sum_j s_j s_(j+1)`` over the chain's bonds, per spin configuration
    (length ``2^n_sites``); ``periodic`` adds the wrap-around bond."""
    s = _spin_values(n_sites)
    if periodic:
        return np.einsum("cj,cj->c", s, np.roll(s, -1, axis=1))
    return np.einsum("cj,cj->c", s[:, :-1], s[:, 1:])


def _kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a (x) a (x) ... (x) a`` with ``n`` factors (a 1 for ``n = 0``)."""
    out = np.ones((1,) * a.ndim, dtype=a.dtype)
    for _ in range(n):
        out = np.kron(out, a)
    return out


def _field_cell(K2: float) -> np.ndarray:
    """Row-to-row weight of one column, ``[[e^K2, e^-K2], [e^-K2, e^K2]]``."""
    return np.array([[math.exp(K2), math.exp(-K2)],
                     [math.exp(-K2), math.exp(K2)]])


def _bond_weight_vector(spec: TorusSpec) -> np.ndarray:
    """Diagonal of the within-row bond factor, as a length ``2^M`` vector."""
    return np.exp(spec.K1 * _bond_sums(spec.n_cols, periodic=True))


def transfer_field_matrix(spec: TorusSpec) -> np.ndarray:
    """Row-to-row factor: kron power of ``[[e^K2, e^-K2], [e^-K2, e^K2]]``.

    Equals ``(2 sinh 2 K2)^M exp(K2* sum_j sigma1_j)`` with
    ``tanh K2* = exp(-2 K2)``.
    """
    return _kron_power(_field_cell(spec.K2), spec.n_cols)


def transfer_matrix(spec: TorusSpec) -> np.ndarray:
    """Row transfer matrix ``V = V_bond V_field`` (dimension ``2^(2M)``)."""
    return _bond_weight_vector(spec)[:, None] * transfer_field_matrix(spec)


def symmetrized_transfer(spec: TorusSpec) -> np.ndarray:
    """Symmetric positive form ``V_bond^(1/2) V_field V_bond^(1/2)``."""
    half = np.sqrt(_bond_weight_vector(spec))
    return half[:, None] * transfer_field_matrix(spec) * half[None, :]


def partition_function_transfer(spec: TorusSpec) -> float:
    """``tr(V^(2N))`` via the symmetrized transfer matrix.

    Two rows reduce to the quadratic form ``tr(V^2) = b . F^2 . b`` with
    ``b`` the bond diagonal; the squared field is a kron power of a 2x2
    cell and is applied mode by mode without forming the full matrix.
    Taller tori go through the eigenvalues of the symmetrized matrix.
    """
    if spec.n_rows == 2:
        bond = _bond_weight_vector(spec)
        cell = _field_cell(spec.K2) ** 2
        vec = bond
        for _ in range(spec.n_cols):
            vec = (cell @ vec.reshape(2, -1)).T.ravel()
        return float(bond @ vec)
    s = symmetrized_transfer(spec)
    lam = np.linalg.eigvalsh(s)
    return float(np.sum(lam ** spec.n_rows))


def partition_function_tensor(spec: TorusSpec) -> float:
    """Partition sum by contracting the vertex tensor around the torus."""
    n_cols, n_rows, K1, K2 = spec.n_cols, spec.n_rows, spec.K1, spec.K2
    if n_cols > n_rows:
        # contract along the shorter direction (the torus is transposition
        # symmetric with the couplings swapped); keeps intermediates small
        n_cols, n_rows, K1, K2 = n_rows, n_cols, K2, K1
    A = ising_tensor(K1, K2)
    # chain the horizontal index: cur[mu_0, mu_j, S, S'] over j columns
    cur = A.copy()
    for _ in range(n_cols - 1):
        cur = np.einsum("abst,bcuv->acsutv", cur, A)
        sh = cur.shape
        cur = cur.reshape(2, 2, sh[2] * sh[3], sh[4] * sh[5])
    row = np.einsum("aast->st", cur)
    return float(np.trace(np.linalg.matrix_power(row, n_rows)).real)


def correlation_brute(spec: TorusSpec, points: Sequence[Tuple[int, int]]) -> float:
    """Multi-spin correlation ``<prod_i s3(j_i, k_i)>`` on the torus.

    ``(j, k)`` is (site within row, row index); evaluated as
    ``tr(W^(2N) prod_i W^(k_i) s3_(j_i) W^(-k_i)) / tr(W^(2N))`` with the
    symmetrized transfer matrix ``W``.
    """
    if spec.M > 4:
        raise ValueError("dense correlation limited to M <= 4")
    W = symmetrized_transfer(spec)
    lam, Q = np.linalg.eigh(W)
    if lam.min() <= 0:
        raise ArithmeticError("transfer matrix must be positive definite")

    def wpow(p: float) -> np.ndarray:
        return (Q * lam ** p) @ Q.T

    top = wpow(spec.n_rows)
    prod = top
    for (j, k) in points:
        if not (0 <= j < spec.n_cols and 0 <= k < spec.n_rows):
            raise ValueError(f"point {(j, k)} outside the torus")
        s3 = site_operator(_S3.real, j, spec.n_cols)
        prod = prod @ (wpow(k) @ s3 @ wpow(-k))
    return float(np.trace(prod) / np.trace(top))


# ---------------------------------------------------------------------------
# quantum chain


def site_operator(op: np.ndarray, j: int, n_sites: int) -> np.ndarray:
    """``op`` acting on site ``j`` of a ``n_sites`` spin chain (dense)."""
    if n_sites > _MAX_DENSE_SITES:
        raise ValueError(f"dense chain operators limited to {_MAX_DENSE_SITES} sites")
    if not 0 <= j < n_sites:
        raise ValueError(f"site {j} outside the {n_sites}-site chain")
    out = np.array([[1.0 + 0j]]) if np.iscomplexobj(op) else np.array([[1.0]])
    for l in range(n_sites):
        out = np.kron(out, op if l == j else np.eye(2, dtype=out.dtype))
    return out


def tfim_hamiltonian(n_sites: int, t1: float, t3: float,
                     periodic: bool = False) -> np.ndarray:
    """Transverse-field Ising Hamiltonian ``-t3 sum s3 s3 - t1 sum s1``.

    Open boundary by default (bonds ``j, j+1`` for ``j <= n_sites - 2``);
    ``periodic=True`` adds the wrap-around bond.
    """
    dim = 1 << n_sites
    H = np.zeros((dim, dim))
    H -= t3 * np.diag(_bond_sums(n_sites, periodic))
    for j in range(n_sites):
        H -= t1 * site_operator(_S1.real, j, n_sites)
    return H


def gibbs_state(H: np.ndarray, beta: float) -> np.ndarray:
    """Normalized thermal state ``exp(-beta H)/Z``."""
    lam, Q = np.linalg.eigh(H)
    w = np.exp(-beta * (lam - lam.min()))
    rho = (Q * w) @ Q.conj().T
    return rho / np.trace(rho).real


def ground_state(H) -> np.ndarray:
    """Lowest eigenvector (dense or sparse input)."""
    if sp.issparse(H):
        vals, vecs = spla.eigsh(H.real, k=1, which="SA")
        v = vecs[:, 0].astype(complex)
    else:
        _, vecs = np.linalg.eigh(H)
        v = vecs[:, 0].astype(complex)
    return v / np.linalg.norm(v)


def trotter_step(n_sites: int, tau: float, t1: float, t3: float,
                 periodic: bool = True) -> np.ndarray:
    """Symmetrized Trotter factor ``e^(tau t3 B/2) e^(tau t1 F) e^(tau t3 B/2)``

    with ``B = sum s3 s3`` and ``F = sum s1``; equals the prefactor-free
    symmetrized row transfer matrix at couplings ``K1 = tau t3``,
    ``K2* = tau t1``.
    """
    half = np.diag(np.exp(0.5 * tau * t3 * _bond_sums(n_sites, periodic)))
    field = _kron_power(expm(tau * t1 * _S1.real), n_sites)
    return half @ field @ half


def trotter_defect(n_sites: int, beta: float, n_steps: int, t1: float,
                   t3: float, periodic: bool = True) -> float:
    """Relative Frobenius error of the ``n_steps``-fold Trotter product
    against ``exp(-beta H)`` (periodic chain against periodic product)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    H = tfim_hamiltonian(n_sites, t1, t3, periodic=periodic)
    exact = expm(-beta * H)
    step = trotter_step(n_sites, beta / n_steps, t1, t3, periodic=periodic)
    approx = np.linalg.matrix_power(step, n_steps)
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


# ---------------------------------------------------------------------------
# lattice fermions


@lru_cache(maxsize=8)
def jordan_wigner(n_sites: int) -> Tuple[sp.csr_matrix, ...]:
    """Annihilation operators ``a_j = (prod_{l<j} s1_l) c_j`` (sparse)."""
    ops = []
    for j in range(n_sites):
        mats = [_S1] * j + [_SM] + [np.eye(2, dtype=complex)] * (n_sites - j - 1)
        out = sp.csr_matrix(mats[0])
        for m in mats[1:]:
            out = sp.kron(out, sp.csr_matrix(m), format="csr")
        ops.append(out)
    return tuple(ops)


@lru_cache(maxsize=8)
def _creators(n_sites: int) -> sp.csr_matrix:
    """Sparse ``(4^n, n)`` stack: column ``j`` is ``a*_j`` flattened row-major."""
    return sp.hstack([op.conj().T.reshape(-1, 1) for op in jordan_wigner(n_sites)],
                     format="csr")


def _creator(f: np.ndarray) -> np.ndarray:
    """Dense ``a*(f) = sum_j f_j a*_j`` on the ``len(f)``-site chain."""
    n = len(f)
    return (_creators(n) @ np.asarray(f)).reshape(1 << n, 1 << n)


def vacuum_state(n_sites: int) -> np.ndarray:
    """Mode vacuum: product of ``(1, -1)/sqrt(2)`` (lowest ``sigma1`` state)."""
    return _kron_power(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0), n_sites)


def fock_state(n_sites: int, occupied: Sequence[int]) -> np.ndarray:
    """``a*_{j_1} ... a*_{j_n}`` (ascending) applied to the vacuum.

    Equals ``(-1)^(sum j_i)`` times the product basis vector that is
    ``sigma1``-up exactly on ``occupied``.
    """
    occ = sorted(int(j) for j in occupied)
    if occ and not (0 <= occ[0] and occ[-1] < n_sites):
        raise ValueError(f"occupied sites {occ} outside the {n_sites}-site chain")
    if len(set(occ)) < len(occ):
        raise ValueError(f"occupied sites {occ} repeat a site: a*_j a*_j = 0")
    vec = vacuum_state(n_sites)
    ops = jordan_wigner(n_sites)
    for j in reversed(occ):  # rightmost operator acts first
        vec = ops[j].conj().T @ vec
    return vec


# ---------------------------------------------------------------------------
# second quantization and the coarse-graining channel


def disentangler_matrix(filt: Filter, n_sites: int) -> np.ndarray:
    """Periodized filter-bank unitary on ``n_sites`` modes.

    Column ``2i`` carries the low-pass taps translated by ``2i``; column
    ``2i + 1`` the high-pass taps.  Unitary whenever the filter length does
    not exceed ``n_sites``.
    """
    h = np.asarray(filt.taps)
    if n_sites % 2:
        raise ValueError("n_sites must be even")
    if h.size > n_sites:
        raise ValueError("filter longer than the chain: disentangler not unitary")
    g = high_pass(filt)
    u = np.zeros((n_sites, n_sites))
    # tap n of the pair at l sits on site (l + n) mod n_sites; the filter
    # fits the chain, so no two taps of a column share a site
    for l in range(0, n_sites, 2):
        u[(l + np.arange(h.size)) % n_sites, l] = h
        u[(l + _HIGH_PASS_OFFSET + np.arange(g.size)) % n_sites, l + 1] = g
    defect = np.linalg.norm(u @ u.T - np.eye(n_sites))
    if defect > 1e-10:
        raise ArithmeticError(f"disentangler failed unitarity: {defect:.2e}")
    return u


def mode_sort_permutation(n_sites: int) -> np.ndarray:
    """Permutation matrix moving even sites to the front (low-pass block)."""
    perm = [p for p in range(n_sites) if p % 2 == 0] + \
           [p for p in range(n_sites) if p % 2 == 1]
    upi = np.zeros((n_sites, n_sites))
    for newpos, old in enumerate(perm):
        upi[newpos, old] = 1.0
    return upi


@lru_cache(maxsize=8)
def _fock_basis(n_sites: int) -> Dict[Tuple[int, ...], np.ndarray]:
    basis = {}
    for n in range(n_sites + 1):
        for S in combinations(range(n_sites), n):
            basis[S] = fock_state(n_sites, S)
    return basis


def second_quantized(w: np.ndarray) -> np.ndarray:
    """Multiplicative second quantization ``G(w)`` by determinant minors.

    ``<S'| G(w) |S> = det(w[S', S])`` within each particle-number sector;
    unitary ``w`` gives unitary ``G`` with ``G a*(f) G* = a*(w f)``.
    """
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("w must be square")
    if n > _MAX_GAMMA_SITES:
        raise ValueError(f"second quantization limited to {_MAX_GAMMA_SITES} modes")
    basis = _fock_basis(n)
    dim = 1 << n
    G = np.zeros((dim, dim), dtype=complex)
    # one sector at a time: G += B D B^dag, with the sector's Fock states as
    # the columns of B and the minors D[S', S] = det(w[S', S])
    for size in range(n + 1):
        subsets = list(combinations(range(n), size))
        B = np.column_stack([basis[S] for S in subsets])
        D = np.array([[det(w[np.ix_(Sp, S)]) if size else 1.0 for S in subsets]
                      for Sp in subsets])
        G += B @ D @ B.conj().T
    return G


def second_quantized_exponential(w: np.ndarray) -> np.ndarray:
    """Cross route: ``exp(dGamma(log w))`` with ``dGamma(B) = sum B_jk a*_j a_k``."""
    B = logm(w)
    n = w.shape[0]
    ops = jordan_wigner(n)
    gen = sum((B[j, k] * (ops[j].conj().T @ ops[k])
               for j in range(n) for k in range(n) if abs(B[j, k]) > 1e-15),
              sp.csr_matrix((1 << n, 1 << n), dtype=complex))
    return expm(gen.toarray())


def _ptr_suffix(rho: np.ndarray, keep: int, drop: int) -> np.ndarray:
    d1, d2 = 1 << keep, 1 << drop
    return np.einsum("abcb->ac", rho.reshape(d1, d2, d1, d2))


@dataclass(frozen=True)
class CoarseGrainChannel:
    """One wavelet coarse-graining step on a ``n_fine``-site fermion chain.

    ``apply`` implements the state map: rotate by the second-quantized
    disentangler composed with the even-sites-first mode sort, then trace
    out the high-pass half *as fermionic modes* (the mode sort makes the
    spin partial trace over the suffix equal to the fermionic-mode partial
    trace).  ``embed`` is the dual picture on one-particle vectors:
    observables built on the coarse chain pull back along
    ``xi -> u iota xi`` (low-pass upsampling).
    """

    filter_name: str
    n_fine: int
    u: np.ndarray
    w: np.ndarray  # second-quantized (mode_sort . u^dagger)

    @property
    def n_coarse(self) -> int:
        return self.n_fine // 2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rot = self.w @ rho @ self.w.conj().T
        return _ptr_suffix(rot, self.n_coarse, self.n_fine - self.n_coarse)

    def embed(self, xi: np.ndarray) -> np.ndarray:
        """One-particle embedding ``u iota xi`` (coarse -> fine)."""
        xi = np.asarray(xi, dtype=complex)
        if xi.size != self.n_coarse:
            raise ValueError("coarse vector has wrong length")
        up = np.zeros(self.n_fine, dtype=complex)
        up[0::2] = xi
        return self.u @ up

    def duality_defect(self, rho: np.ndarray, xi: np.ndarray,
                       eta: np.ndarray) -> float:
        """|tr(eps(rho) a*(xi) a(eta)) - tr(rho a*(u iota xi) a(u iota eta))|."""
        def quad(f, g):
            return _creator(f) @ _creator(g).conj().T

        fine_xi, fine_eta = self.embed(xi), self.embed(eta)
        lhs = np.trace(self.apply(rho) @ quad(xi, eta))
        rhs = np.trace(rho @ quad(fine_xi, fine_eta))
        return abs(complex(lhs) - complex(rhs))


def coarse_grain_channel(filt: Filter, n_fine: int) -> CoarseGrainChannel:
    """Build the coarse-graining channel for ``n_fine`` (even) sites."""
    u = disentangler_matrix(filt, n_fine)
    w = second_quantized(mode_sort_permutation(n_fine) @ u.conj().T)
    return CoarseGrainChannel(filter_name=filt.name, n_fine=n_fine, u=u, w=w)


def finite_flow(filt: Filter, n_start: int, steps: int, t1: float, t3: float,
                beta: float, periodic: bool = False) -> List[np.ndarray]:
    """Iterate the coarse-graining channel on a finite-chain Gibbs state.

    Returns ``[rho_0, ..., rho_steps]``; the chain halves each step, so
    ``n_start`` must be divisible by ``2^steps`` and is capped at 8 sites.
    """
    if n_start > 8:
        raise ValueError("finite flow limited to 8 starting sites")
    if n_start % (1 << steps):
        raise ValueError("n_start must be divisible by 2^steps")
    H = tfim_hamiltonian(n_start, t1, t3, periodic=periodic)
    rho = gibbs_state(H, beta) if math.isfinite(beta) else None
    if rho is None:
        v = ground_state(H)
        rho = np.outer(v, v.conj())
    out = [rho]
    n = n_start
    for _ in range(steps):
        chan = coarse_grain_channel(filt, n)
        rho = chan.apply(rho)
        out.append(rho)
        n //= 2
    return out


# ---------------------------------------------------------------------------
# frozen fixtures


def export_fixtures() -> dict:
    """Golden oracle values (partition sums, correlations, channels), as
    ``isingrg oracle --fixtures`` writes them."""
    from .wavelet import make_daubechies_filter

    fixtures: dict = {"partition": [], "correlation": [], "disentangler": {}}
    for (M, N) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        for K in (0.1, 0.4407, 1.0):
            spec = TorusSpec(M, N, K, K)
            fixtures["partition"].append(
                {"M": M, "N": N, "K": K, "Z": partition_function_transfer(spec)})
    spec = TorusSpec(2, 2, 0.4407, 0.4407)
    for pts in [[(0, 0), (1, 0)], [(0, 0), (2, 0)], [(0, 0), (0, 1)],
                [(0, 0), (1, 1)], [(0, 0), (1, 0), (2, 0), (3, 0)]]:
        fixtures["correlation"].append(
            {"points": pts, "value": correlation_brute(spec, pts)})
    for p, L in [(1, 4), (2, 4), (2, 8)]:
        f = make_daubechies_filter(p)
        fixtures["disentangler"][f"db{p}_L{L}"] = \
            disentangler_matrix(f, L).tolist()
    return fixtures
