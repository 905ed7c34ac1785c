"""Tests for eigen/resolvent plumbing and the three numerical studies."""

import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import block_diag
from scipy.sparse import linalg as spla

from ibcfock import (
    assemble_G,
    assemble_H_direct,
    assemble_H_ibc,
    assemble_L,
    assemble_creation,
    build_grid,
    cutoff_convergence_study,
    divergence_fit,
    enumerate_basis,
    gross_model,
    lowest_eigenpairs,
    regularity_diagnostic,
)
from ibcfock.errors import InsufficientPoints, MasslessWithoutShift, \
    SolveNotConverged
from ibcfock import ops, spectral
from ibcfock.ops import SparseOperator, basis_digest
from ibcfock.spectral import DENSE_DIM_MAX, _block_norm, _certify, \
    _components, _odd_bosons, _pattern_components, _resolvent_distances, \
    _seed_vector

GROSS1 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0)


def small_basis(params=GROSS1, k_max=1.0, nax=3, n_max=1):
    g = build_grid(2, k_max, nax)
    return enumerate_basis(params, g, n_max)


# ---------------------------------------------------------------------------
# eigenpairs

def test_lowest_eigenpairs_diagonal_exact():
    # dense regime: a diagonal operator's ground pair is its smallest
    # entry and the basis state that holds it
    basis = small_basis()                       # dim 90
    op = assemble_L(basis)
    lv = np.real(op.matrix.diagonal())
    res = lowest_eigenpairs(op)
    assert res.method == "dense"
    assert res.values.shape == res.residuals.shape == (1,)
    assert res.vectors.shape == (basis.total_dim, 1)
    assert abs(res.values[0] - lv.min()) <= 1e-12
    assert abs(abs(res.vectors[np.argmin(lv), 0]) - 1.0) <= 1e-12
    assert np.all(res.residuals < 1e-10)


def test_lowest_eigenpairs_lanczos_ground():
    # dim 495, but a diagonal operator splits into one-state blocks
    basis = small_basis(n_max=2)
    op = assemble_L(basis)
    res = lowest_eigenpairs(op, tol=1e-10)
    assert res.method == "dense"
    assert abs(res.values[0] - np.real(op.matrix.diagonal()).min()) < 1e-9


def test_lowest_eigenpairs_deterministic():
    basis = small_basis(nax=5, n_max=1)         # dim 650
    op = assemble_H_direct(basis, 1.0, 1)
    a = lowest_eigenpairs(op)
    b = lowest_eigenpairs(op)
    assert a.values[0] == b.values[0]
    assert np.array_equal(a.vectors, b.vectors)


def test_lowest_eigenpairs_matches_dense_on_coupled_operator():
    basis = small_basis(nax=5, n_max=1)
    op = assemble_H_direct(basis, 1.0, 1)
    res = lowest_eigenpairs(op, tol=1e-12)
    w, v = np.linalg.eigh(op.matrix.toarray())
    # dim 650 in components of at most 14 states
    assert res.method == "dense"
    assert np.allclose(res.values, w[:1], atol=1e-8)
    # the ground level is simple, so the vectors agree up to a phase
    assert w[1] - w[0] > 1e-3
    assert abs(abs(np.vdot(v[:, 0], res.vectors[:, 0])) - 1.0) < 1e-8


def test_lowest_eigenpairs_complex_couplings_match_dense():
    # two nucleons whose couplings differ in phase: the relative phase
    # cannot be gauged away, so the operator stays genuinely complex
    params = gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                         n_nucleons=2)
    basis = small_basis(params)                 # dim 810
    assert basis.total_dim > DENSE_DIM_MAX
    op = assemble_H_direct(basis, 1.0, 1)
    assert np.any(op.matrix.data.imag != 0.0)
    res = lowest_eigenpairs(op, tol=1e-12)
    # components of at most 42 states
    assert res.method == "dense"
    assert np.iscomplexobj(res.vectors)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert abs(res.values[0] - dense[0]) < 1e-8


def test_lowest_eigenpairs_coupling_phase_is_gauge():
    # one nucleon: a coupling |g| e^{i phi} is unitarily equivalent to
    # |g| (rephase each n-boson sector by e^{i n phi}); the complex and
    # the real solve must agree on the ground energy
    g = 0.8
    energies = []
    for coupling in (g, g * np.exp(0.7j)):
        basis = small_basis(gross_model(coupling=coupling, mu=1.0,
                                        m_boson=1.0), nax=5)
        op = assemble_H_direct(basis, 1.0, 1)
        res = lowest_eigenpairs(op, tol=1e-12)
        assert res.method == "dense"
        assert np.iscomplexobj(res.vectors) == isinstance(coupling, complex)
        energies.append(res.values[0])
    assert abs(energies[0] - energies[1]) < 1e-9


def test_lowest_eigenpairs_ground_above_dense_limit():
    # a diagonal operator above DENSE_DIM_MAX: every state is its own
    # block, so the ground pair is the unique lowest basis state (the
    # next level, sqrt 2, is fourfold)
    basis = small_basis(n_max=2)                # dim 495
    assert basis.total_dim > DENSE_DIM_MAX
    op = assemble_L(basis)
    lv = np.real(op.matrix.diagonal())
    low = np.sort(lv)
    assert low[0] < low[1] == low[2] == low[3] == low[4]
    res = lowest_eigenpairs(op)
    assert res.method == "dense"
    assert np.array_equal(res.values, low[:1])
    hits = np.abs(res.vectors[:, 0]) == 1.0
    assert np.flatnonzero(hits).tolist() == [np.argmin(lv)]
    assert np.count_nonzero(res.vectors) == 1


@pytest.mark.parametrize("phase", [1.0, np.exp(0.9j)], ids=["real", "complex"])
def test_lowest_eigenpairs_lanczos_on_one_large_component(phase):
    # a hopping chain couples all 495 states into one component above
    # DENSE_DIM_MAX, which goes to ARPACK exactly as a whole operator
    basis = small_basis(n_max=2)
    n = basis.total_dim
    hop = sparse.diags_array(np.full(n - 1, 0.3 * phase), offsets=1)
    h = sparse.csr_array(assemble_L(basis).matrix + hop + hop.conj().T)
    assert np.iscomplexobj(h.data) == isinstance(phase, complex)
    labels = _components(h)[0]
    assert n > DENSE_DIM_MAX and labels.max() == 0
    op = SparseOperator(basis, h, {}, True)
    dense = np.linalg.eigvalsh(h.toarray())
    res = lowest_eigenpairs(op, tol=1e-12)
    assert res.method == "lanczos"
    assert np.allclose(res.values, dense[:1], atol=1e-8)
    v0 = _seed_vector(n, basis_digest(basis), "eig").astype(h.dtype)
    w, v = spla.eigsh(h, k=1, which="SA", v0=v0, ncv=60, tol=1e-12)
    assert np.array_equal(res.values, w)
    assert np.array_equal(res.vectors, v)


def exact_psd(a: np.ndarray) -> bool:
    """Whether a Hermitian float matrix is positive semidefinite, decided
    in exact rational arithmetic (every float is a Fraction).  A complex
    matrix X + iY is tested through its real form [[X, -Y], [Y, X]]."""
    if np.iscomplexobj(a):
        x, y = a.real, a.imag
        a = np.block([[x, -y], [y, x]])
    m = [[Fraction(float(v)) for v in row] for row in a]
    n = len(m)
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            # a zero pivot leaves room only for a zero row
            if any(m[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return True


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       is_complex=st.booleans(), degenerate=st.booleans(),
       stoquastic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lowest_eigenpairs_block_property(sizes, is_complex, degenerate,
                                          stoquastic, seed):
    # random Hermitian blocks, hidden under a random permutation; with
    # `degenerate` the diagonals come from three values and the first
    # block is repeated, so spectra coincide exactly across components;
    # with `stoquastic` the off-diagonals are -|a_ij| up to a random
    # diagonal sign or phase gauge, otherwise their signs are mixed
    rng = np.random.default_rng(seed)
    blocks = []
    for m in sizes:
        a = rng.standard_normal((m, m))
        if is_complex:
            a = a + 1j * rng.standard_normal((m, m))
        blk = (a + a.conj().T) / 2
        if stoquastic:
            diag = np.diag(blk).real.copy()
            blk = -np.abs(blk)
            np.fill_diagonal(blk, diag)
            gauge = (np.exp(2j * np.pi * rng.random(m)) if is_complex
                     else rng.choice([-1.0, 1.0], m))
            blk = gauge[:, None] * blk * gauge.conj()[None, :]
        if degenerate:
            np.fill_diagonal(blk, rng.choice([-1.0, 0.0, 0.5], m))
        blocks.append(blk)
    if degenerate:
        blocks.append(blocks[0])
    n = sum(b.shape[0] for b in blocks)
    perm = rng.permutation(n)
    dense = np.zeros((n, n), dtype=blocks[0].dtype)
    start = 0
    for blk in blocks:
        m = blk.shape[0]
        dense[start:start + m, start:start + m] = blk
        start += m
    dense = dense[perm][:, perm]
    h = sparse.csr_array(dense)
    op = SparseOperator(SimpleNamespace(total_dim=n), h, {}, True)
    res = lowest_eigenpairs(op)
    want = np.linalg.eigvalsh(dense)[:1]
    assert np.allclose(res.values, want, rtol=0.0, atol=1e-10)
    labels, lower, scale = _components(h)
    # every component at once, grouped in label order; a target at the
    # top of the spectrum keeps the power steps going until they stall
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(lower.size))
    cw = _certify(sparse.csr_array(h[order][:, order]), starts,
                  np.linalg.eigvalsh(dense)[-1])
    for c, bound in enumerate(lower):
        inside = labels == c
        blk = dense[inside][:, inside]
        assert bound <= np.linalg.eigvalsh(blk)[0]
        # no eigenvalue of the block lies below its certificate: blk - cw I
        # is positive semidefinite, decided exactly
        assert exact_psd(blk - cw[c] * np.eye(blk.shape[0]))
    # the residual scale is the exact ||H||_1, also when every entry is
    # stored as two halves (a non-canonical CSR)
    split = sparse.csr_array((np.repeat(h.data / 2, 2), np.repeat(h.indices, 2),
                              2 * h.indptr), shape=h.shape)
    assert scale == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-14)
    assert _components(split)[2] == scale


def test_lowest_eigenpairs_certificate_solves_one_block(monkeypatch):
    # one nucleon on a 5 x 5 lattice: 650 states in total-momentum
    # fibres of up to 26; the Weyl bound alone leaves several fibres
    # below the ground energy, the certificate clears all of them
    basis = small_basis(gross_model(coupling=0.3, mu=1.0, m_boson=1.0),
                        k_max=2.0, nax=5)
    op = assemble_H_direct(basis, 2.0, 1)
    solved = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    res = lowest_eigenpairs(op)
    assert len(solved) == 1
    solved.clear()
    monkeypatch.setattr(spectral, "_certify",
                        lambda block, starts, target: np.full(starts.size,
                                                              -np.inf))
    ref = lowest_eigenpairs(op)
    assert len(solved) > 1
    # skipping never changes the block kept or its solve
    assert np.array_equal(res.values, ref.values)
    assert np.array_equal(res.vectors, ref.vectors)


def test_components_bound_sums_duplicate_entries():
    # [[0, 3], [3, 0]] with each 3 stored as three entries of 1: the
    # bound must square the summed entry, not the pieces
    h = sparse.csr_array((np.ones(6), np.array([1, 1, 1, 0, 0, 0]),
                          np.array([0, 3, 6])), shape=(2, 2))
    assert not h.has_canonical_format
    labels, lower, _ = _components(h)
    assert labels.tolist() == [0, 0]
    assert lower[0] <= -3.0


def test_lowest_eigenpairs_requires_hermitian_tag():
    basis = small_basis()
    a = assemble_creation(basis, 0.5)
    with pytest.raises(ValueError):
        lowest_eigenpairs(a)


def test_lowest_eigenpairs_refuses_non_finite_tol():
    # a nan or inf tol would make the residual check pass whatever the
    # residual is
    op = assemble_L(small_basis())
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol"):
            lowest_eigenpairs(op, tol=tol)


def test_free_hamiltonian_ground_is_vacuum():
    # cutoff 0 leaves the free operator; its ground state is the vacuum
    # with the nucleon at rest and energy mu = 1
    basis = small_basis(nax=5)
    op = assemble_H_direct(basis, 0.0, 1)
    res = lowest_eigenpairs(op)
    assert abs(res.values[0] - 1.0) < 1e-12
    rest_mode = int(np.argmin(basis.grid.norms()))
    idx = int(basis.state_index(0, rest_mode, 0))
    assert abs(abs(res.vectors[idx, 0]) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# resolvent distances

def dense_distances(hams, z):
    """||(H_k - z)^(-1) - (H_last - z)^(-1)|| per rung, from dense
    inverses of the whole operators."""
    eye = np.eye(hams[-1].shape[0])
    inv = [np.linalg.inv(sparse.csr_array(h).toarray() - z * eye)
           for h in hams]
    return [np.linalg.norm(r - inv[-1], 2) for r in inv]


def test_resolvent_distance_of_diagonal_operators_is_entrywise():
    # every component of a diagonal ladder is one state, so the distance
    # is the largest entrywise difference of the two resolvents, for a
    # complex and a real z alike
    basis = small_basis()
    lv = np.real(assemble_L(basis).matrix.diagonal())
    hams = [sparse.diags_array(lv + s, format="csr") for s in (0.5, 0.0)]
    want = np.abs(1.0 / (lv + 0.5 + 2.0) - 1.0 / (lv + 2.0)).max()
    for z in (-2.0 + 0.0j, -2.0):
        got = _resolvent_distances(hams, z, _odd_bosons(basis))
        assert got[1] == 0.0
        assert got[0] == pytest.approx(want, rel=1e-15)


def test_resolvent_at_a_diagonal_entry_fails_loudly():
    # every state of a diagonal operator is eliminated, and z meets one
    basis = small_basis()
    h = assemble_L(basis).matrix
    z = complex(np.real(h.diagonal())[0])
    with pytest.raises(SolveNotConverged):
        _resolvent_distances([h, h], z, _odd_bosons(basis))


def test_resolvent_distances_reject_equal_parity_couplings():
    # H_ibc stores cancellation residues (~1e-17) between states of
    # equal boson parity, so the parity-class pieces do not apply
    basis = small_basis(n_max=2)
    h = assemble_H_ibc(basis, 1.0, 1, 0.5).matrix
    with pytest.raises(ValueError, match="parity"):
        _resolvent_distances([h, h], 1.0j, _odd_bosons(basis))


def test_resolvent_distances_reject_couplings_the_last_rung_lacks():
    # the pieces live on the components of the last operator; a rung of
    # larger cutoff couples states that the last one leaves apart
    basis = small_basis()
    hams = [assemble_H_direct(basis, lam, 1).matrix for lam in (1.0, 0.5)]
    with pytest.raises(ValueError, match="leaves apart"):
        _resolvent_distances(hams, -1.0j, _odd_bosons(basis))


def test_resolvent_without_bosons_divides_the_diagonal():
    # n_max = 0: no odd-parity states, every component is one state
    basis = small_basis(n_max=0)
    tab = cutoff_convergence_study(basis, [0.5, 1.0], (1,))[1]
    d = [assemble_H_direct(basis, lam, 1).matrix.diagonal()
         - spectral.RESOLVENT_Z for lam in (0.5, 1.0)]
    got = tab.column("resolvent_diff_to_finest")[0]
    assert got == np.abs(1.0 / d[0] - 1.0 / d[1]).max()
    # the estimate recorded with a sparse LU of the full H - z and power
    # iteration stopped at 1e-4
    old = 0.20600990515339532
    assert old * (1 - 1e-12) <= got <= old * (1 + 5e-2)


def _bipartite_hermitian(rng, n_small, n_large, density, is_complex):
    """Random Hermitian matrix joining states of opposite parity only,
    under a random permutation; returns it with its odd-parity mask."""
    n = n_small + n_large
    b = sparse.random_array((n_large, n_small), density=density, rng=rng,
                            format="csr").toarray()
    if is_complex:
        b = b * np.exp(2j * np.pi * rng.random(b.shape))
    dense = np.zeros((n, n), dtype=complex if is_complex else float)
    dense[n_small:, :n_small] = 3.0 * b
    dense[:n_small, n_small:] = 3.0 * b.conj().T
    dense[np.arange(n), np.arange(n)] = rng.uniform(-5.0, 5.0, n)
    odd = np.arange(n) < n_small
    if rng.random() < 0.5:
        odd = ~odd
    perm = rng.permutation(n)
    return dense[perm][:, perm], odd[perm]


@settings(max_examples=60, deadline=None)
@given(n_small=st.integers(0, 12), extra=st.integers(0, 30),
       density=st.floats(0.0, 1.0), is_complex=st.booleans(),
       re_z=st.floats(-6.0, 6.0), im_z=st.floats(0.2, 2.0),
       sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_resolvent_distances_match_dense_inverses(n_small, extra, density,
                                                  is_complex, re_z, im_z,
                                                  sign, seed):
    rng = np.random.default_rng(seed)
    dense, odd = _bipartite_hermitian(rng, n_small, n_small + extra + 1,
                                      density, is_complex)
    n = dense.shape[0]
    z = complex(re_z, sign * im_z)
    # a lower rung: some couplings dropped, the diagonal moved
    lower = dense.copy()
    drop = np.triu(rng.random((n, n)) < 0.3, 1)
    lower[drop | drop.T] = 0.0
    lower[np.arange(n), np.arange(n)] += rng.uniform(-1.0, 1.0, n)
    hams = [sparse.csr_array(lower), sparse.csr_array(dense)]
    got = _resolvent_distances(hams, z, odd)
    want = dense_distances(hams, z)
    assert got[1] == 0.0
    # both resolvents are bounded by 1/|Im z|
    assert abs(got[0] - want[0]) <= 1e-12 * 2.0 / im_z

    # a coupling between two states of equal parity is refused
    same = np.flatnonzero(odd == odd[0])
    if same.size > 1:
        bad = dense.copy()
        bad[same[0], same[1]] = bad[same[1], same[0]] = 0.5
        with pytest.raises(ValueError, match="parity"):
            _resolvent_distances([sparse.csr_array(bad)] * 2, z, odd)

    # a z on the spectrum: cut one state loose and take its energy
    k = int(rng.integers(n))
    cut = dense.copy()
    cut[k, :k] = cut[k, k + 1:] = 0.0
    cut[:k, k] = cut[k + 1:, k] = 0.0
    with pytest.raises(SolveNotConverged):
        _resolvent_distances([sparse.csr_array(cut)] * 2, cut[k, k].real,
                             odd)


def test_resolvent_distances_prune_only_what_the_bound_clears():
    # ||D_c||^2 can exceed max|Delta_c|^2 + ||XW||^2 when Delta and XW
    # line up; among slightly moved copies of such a component, a bound
    # without its 2 ||Delta^H XW|| term would skip the largest norm
    rng = np.random.default_rng(12)
    eye, z, found = np.eye(7), -1.0j, 0
    while found < 3:
        base, odd = _bipartite_hermitian(rng, 2, 5, 0.6, True)
        lower = base + np.diag(rng.uniform(-2.0, 2.0, 7))
        diff = np.linalg.inv(lower - z * eye) - np.linalg.inv(base - z * eye)
        small = odd if 2 * np.count_nonzero(odd) <= 7 else ~odd
        delta = np.where(small, 0.0, 1.0 / (np.diag(lower) - z)
                         - 1.0 / (np.diag(base) - z))
        if np.linalg.norm(diff, 2) ** 2 <= np.abs(delta).max() ** 2 \
                + np.linalg.norm(diff - np.diag(delta), 2) ** 2:
            continue
        found += 1
        moves = [np.diag(rng.uniform(-0.05, 0.05, 7)) for _ in range(6)]
        hams = [sparse.csr_array(block_diag(*[h + m for m in moves]))
                for h in (lower, base)]
        got = _resolvent_distances(hams, z, np.tile(odd, 6))
        assert got[0] == pytest.approx(dense_distances(hams, z)[0],
                                       rel=1e-12)


def test_resolvent_distances_certify_every_schur_inverse(monkeypatch):
    # with a budget no residual can meet, the inverse of every Schur
    # complement is refused, also on components with r_c > 1
    basis = small_basis(n_max=2)
    hams = [assemble_H_direct(basis, lam, 1).matrix for lam in (0.5, 1.0)]
    monkeypatch.setattr(spectral, "SCHUR_RTOL", -1.0)
    with pytest.raises(SolveNotConverged, match="residual"):
        _resolvent_distances(hams, -1.0j, _odd_bosons(basis))


def test_singular_schur_complement_raises():
    # [[1, 1], [1, 1]] at z = 0: Dl - z = 1, S = 1 - 1 = 0 exactly
    h = sparse.csr_array(np.ones((2, 2)))
    odd = np.array([True, False])
    with pytest.raises(SolveNotConverged):
        _resolvent_distances([h, h], 0.0, odd)
    # z = 2 makes S = -1 - 1/(-1) = 0 as well (eigenvalue 2)
    with pytest.raises(SolveNotConverged):
        _resolvent_distances([h, h], 2.0, odd)


def _gauge(hams, z):
    # a diagonal unitary U: U H U^H has the resolvent U (H - z)^(-1) U^H
    n = hams[0].shape[0]
    u = sparse.diags_array(np.exp(2j * np.pi * np.linspace(0.0, 1.0, n) ** 2))
    return [(u @ h @ u.conj()).tocsr() for h in hams], z, 1.0


# maps (hams, z) -> (hams', z', factor) with every distance of the ladder
# multiplied by factor
NORM_SYMMETRIES = {
    # Hermitian H: (H - conj z)^(-1) is the adjoint of (H - z)^(-1)
    "conjugate z": lambda hams, z: (hams, np.conj(z), 1.0),
    "shift": lambda hams, z: (
        [(h + 0.75 * sparse.eye_array(h.shape[0])).tocsr() for h in hams],
        z + 0.75, 1.0),
    "scale": lambda hams, z: ([2.0 * h for h in hams], 2.0 * z, 0.5),
    "gauge": _gauge,
}


@pytest.mark.parametrize("name", list(NORM_SYMMETRIES))
def test_resolvent_distances_keep_the_norm_symmetries(name):
    # with two bosons some components have r_c >= 2, and the lower rung
    # drops couplings of the finest one
    basis = small_basis(n_max=2)
    hams = [assemble_H_direct(basis, lam, 1).matrix for lam in (0.5, 1.0)]
    z = 0.3 - 0.8j
    got = _resolvent_distances(hams, z, _odd_bosons(basis))
    assert got[0] > 0.0
    moved, z2, factor = NORM_SYMMETRIES[name](hams, z)
    want = _resolvent_distances(moved, z2, _odd_bosons(basis))
    assert want[1] == 0.0
    assert want[0] == pytest.approx(factor * got[0], rel=1e-12)


def test_resolvent_distances_do_not_depend_on_rung_order():
    # two operators of one pattern: ||R_a - R_b|| = ||R_b - R_a||
    basis = small_basis(n_max=2)
    h = assemble_H_direct(basis, 1.0, 1).matrix
    shift = np.random.default_rng(6).uniform(-0.5, 0.5, h.shape[0])
    moved = (h + sparse.diags_array(shift)).tocsr()
    odd = _odd_bosons(basis)
    ab = _resolvent_distances([h, moved], -1.0j, odd)[0]
    ba = _resolvent_distances([moved, h], -1.0j, odd)[0]
    assert ab > 0.0
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab == pytest.approx(dense_distances([h, moved], -1.0j)[0],
                               rel=1e-12)


def test_resolvent_distances_of_a_ladder_are_those_of_its_pairs():
    # each rung is bounded and pruned on its own: the distances of one
    # call on the ladder are those of one call per rung
    basis = small_basis(n_max=2)
    hams = [assemble_H_direct(basis, lam, 1).matrix
            for lam in (0.5, 0.75, 1.0)]
    odd = _odd_bosons(basis)
    got = _resolvent_distances(hams, -1.0j, odd)
    assert got[-1] == 0.0
    for h, d in zip(hams[:-1], got[:-1]):
        assert d == _resolvent_distances([h, hams[-1]], -1.0j, odd)[0]


# ---------------------------------------------------------------------------
# cutoff convergence study

@pytest.fixture(scope="module")
def study_basis():
    g = build_grid(2, 2.0, 9)
    return enumerate_basis(GROSS1, g, 1)


def test_convergence_study_structure(study_basis):
    tab = cutoff_convergence_study(study_basis, [0.5, 1.0, 2.0], (1,))[1]
    lams = tab.lambda_values()
    assert np.all(np.diff(lams) > 0)
    rd = tab.column("resolvent_diff_to_finest")
    # Cauchy behavior: distance to the finest cutoff shrinks as the
    # cutoff approaches it, and vanishes there
    assert rd[-1] == 0.0
    assert np.all(np.diff(rd) < 0)
    assert tab.column("opnorm_t_diff")[-1] == 0.0
    # the unrenormalized control drifts down in log(cutoff)
    ctrl = tab.column("control_ground_energy")
    assert np.all(np.diff(ctrl) < 0)
    assert tab.fits["control_drift_slope"] < 0
    # at small cutoff the coupling lowers the renormalized ground below
    # the free ground energy mu = 1
    assert tab.rows[0].ground_energy < 1.0


def test_convergence_study_shares_the_direct_formula(study_basis):
    # the study assembles its Hamiltonians from the same creation matrix
    # and counterterm rows as assemble_H_direct, so the ground energies
    # agree to the last bit
    lams = [0.5, 1.0, 2.0]
    tables = cutoff_convergence_study(study_basis, lams, (1, 2))
    for variant, tab in tables.items():
        for lam, energy in zip(lams, tab.column("ground_energy")):
            hd = assemble_H_direct(study_basis, lam, variant)
            assert energy == lowest_eigenpairs(hd).values[0]


def test_convergence_study_variant2_block_cancels_for_single_nucleon(study_basis):
    # with one nucleon, no spectator bosons (n_max = 1) and no shift,
    # the nu = 2 lattice counterterm cancels the cutoff block exactly,
    # so its weighted difference column is identically zero
    tables = cutoff_convergence_study(study_basis, [0.5, 1.0, 2.0], (2, 1))
    assert list(tables) == [2, 1]
    tab, tab1 = tables[2], tables[1]
    assert (tab.variant, tab1.variant) == (2, 1)
    assert np.all(tab.column("opnorm_t_diff") < 1e-10)
    assert tab1.column("opnorm_t_diff")[0] > 1e-3
    # the control carries no counterterm, so both variants share it
    assert np.array_equal(tab.column("control_ground_energy"),
                          tab1.column("control_ground_energy"))


# resolvent distances of cutoff_convergence_study(study_basis, [0.5, 1, 2],
# (1, 2)) computed with a sparse LU of the full H - z and power iteration
# stopped at 1e-4; a power estimate never exceeds the norm
_LU_RESOLVENT_COLUMNS = {1: [0.4331693971120596, 0.32764371252727986],
                         2: [0.4341396786998331, 0.33272860924375647]}
# the exact norms, recorded from dense inverses per pattern component
_EXACT_RESOLVENT_COLUMNS = {1: [0.43324957554000726, 0.3277089384008532],
                            2: [0.4342412163341281, 0.33282564973731193]}
# the weighted-T distances of the same study, then estimated by power
# iteration stopped at 1e-4
_POWER_T_COLUMNS = {1: [0.10468491065251796, 0.016941263312342737],
                    2: [1.6714741843795896e-15, 1.7221165911319782e-15]}


def test_convergence_study_columns_top_their_power_estimates(study_basis):
    tables = cutoff_convergence_study(study_basis, [0.5, 1.0, 2.0], (1, 2))
    for variant, tab in tables.items():
        got = tab.column("resolvent_diff_to_finest")
        assert got[-1] == 0.0
        old = np.array(_LU_RESOLVENT_COLUMNS[variant])
        assert np.all(got[:-1] >= old * (1 - 1e-12))
        assert np.all(got[:-1] <= old * (1 + 5e-2))
        assert np.allclose(got[:-1], _EXACT_RESOLVENT_COLUMNS[variant],
                           rtol=1e-12, atol=0.0)
        t = tab.column("opnorm_t_diff")[:-1]
        assert np.all(t >= np.array(_POWER_T_COLUMNS[variant]) * (1 - 1e-12))
        assert np.allclose(t, _POWER_T_COLUMNS[variant], rtol=5e-2, atol=0.0)


# power-iteration T distance at cutoff 0.5 against 1.0 on the n_max = 2
# lattice below, per (shift, variant), from before the exact norm
_POWER_T_N2 = {(0.0, 1): 0.4607146351180974, (0.0, 2): 0.4592709889370887,
               (0.5, 1): 0.5013673213561114, (0.5, 2): 0.49979986485198113}


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_convergence_study_t_column_is_the_exact_norm(shift, monkeypatch):
    # with two bosons the T differences couple one-boson states, so the
    # pattern components are not all single states
    basis = small_basis(n_max=2)
    seen = []

    def recording(d):
        norm = _block_norm(d)
        seen.append((d, norm))
        return norm

    monkeypatch.setattr(spectral, "_block_norm", recording)
    tables = cutoff_convergence_study(basis, [0.5, 1.0], (1, 2),
                                      lambda_shift=shift)
    assert len(seen) == 2
    assert any(np.any(d.tocoo().row != d.tocoo().col) for d, _ in seen)
    for d, norm in seen:
        assert norm == pytest.approx(np.linalg.norm(d.toarray(), 2),
                                     rel=1e-12)
    for variant, tab in tables.items():
        t = tab.column("opnorm_t_diff")[0]
        old = _POWER_T_N2[(shift, variant)]
        assert old * (1 - 1e-12) <= t <= old * (1 + 5e-2)


ROOT2_LADDER = [0.5, 1.0, np.sqrt(2.0)]


@pytest.mark.filterwarnings("ignore:cutoff radius")
@pytest.mark.parametrize("params, n_max, lams, shift, top", [
    (GROSS1, 1, ROOT2_LADDER, 0.0, None),
    (GROSS1, 2, ROOT2_LADDER, 0.0, None),
    (gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                 n_nucleons=2), 1, ROOT2_LADDER, 0.0, None),
    # massless bosons beyond the finest cutoff leave low one-state
    # components whose counterterm moves most
    (gross_model(coupling=4.0, mu=1.0, m_boson=0.0), 1, [0.5, 1.0], 0.5,
     "one state"),
    (gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=2), 1,
     [0.5, 1.0], 0.0, "rank >= 2")],
    ids=["n1", "n2", "complex", "one-state", "rank"])
def test_convergence_study_resolvent_column_bounds_the_exact_norm(
        params, n_max, lams, shift, top):
    # ||(H_lam - z)^(-1) - (H_fin - z)^(-1)|| to rounding, against dense
    # inverses of the whole operators
    basis = small_basis(params, n_max=n_max)
    tab = cutoff_convergence_study(basis, lams, (1,), lambda_shift=shift)[1]
    hams = [assemble_H_direct(basis, lam, 1).matrix for lam in lams]
    want = dense_distances(hams, spectral.RESOLVENT_Z)
    got = tab.column("resolvent_diff_to_finest")
    assert got[-1] == 0.0
    assert np.allclose(got[:-1], want[:-1], rtol=1e-12, atol=0.0)
    if top is not None:
        # where the largest component norm sits
        eye = np.eye(basis.total_dim)
        diff = (np.linalg.inv(hams[0].toarray() - spectral.RESOLVENT_Z * eye)
                - np.linalg.inv(hams[-1].toarray()
                                - spectral.RESOLVENT_Z * eye))
        labels = _pattern_components(hams[-1])[1]
        norms = [np.linalg.norm(diff[np.ix_(labels == c, labels == c)], 2)
                 for c in range(labels.max() + 1)]
        states = labels == int(np.argmax(norms))
        odd = _odd_bosons(basis)[states]
        rank = min(np.count_nonzero(odd), np.count_nonzero(~odd))
        assert (states.sum() == 1) if top == "one state" else rank >= 2


def test_convergence_study_reach_warning_names_the_caller():
    # a cutoff above k_max but inside the grid reach warns once, at this
    # call and not inside the package
    basis = small_basis()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cutoff_convergence_study(basis, [0.5, 1.0, np.sqrt(2.0)], (1,))
    reach = [w for w in caught if "cutoff radius" in str(w.message)]
    assert len(reach) == 1
    assert reach[0].filename == __file__


def no_assembly(*args):
    raise AssertionError("assembled before validating")


@pytest.mark.parametrize("name", ["eig_tol"])
@pytest.mark.parametrize("tol", [np.nan, -1e-4, 0.0, np.inf])
def test_convergence_study_validates_tolerances(study_basis, name, tol,
                                                monkeypatch):
    # refused before any assembly
    monkeypatch.setattr(spectral, "_creation_matrix", no_assembly)
    with pytest.raises(ValueError, match=name):
        cutoff_convergence_study(study_basis, [0.5, 1.0], (1,),
                                 **{name: tol})


@pytest.mark.parametrize("m_boson, shift, error", [
    (1.0, np.nan, ValueError), (1.0, -1.0, ValueError),
    (1.0, np.inf, ValueError), (0.0, 0.0, MasslessWithoutShift)])
def test_convergence_study_checks_the_shift_first(m_boson, shift, error,
                                                  monkeypatch):
    # T inverts L + lambda_shift; a shift it cannot take is refused
    # before any assembly, not after the first control solve
    basis = small_basis(gross_model(coupling=1.0, mu=1.0, m_boson=m_boson))
    monkeypatch.setattr(spectral, "_creation_matrix", no_assembly)
    with pytest.raises(error) as info:
        cutoff_convergence_study(basis, [0.5, 1.0], (1,), lambda_shift=shift)
    assert type(info.value) is error


def test_convergence_study_validates_ladder(study_basis):
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0, 0.5], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0, 50.0], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0], ())
    # nan passed the ordering check, and then selected no mode
    for lams in ([np.nan, 1.0], [0.5, np.nan]):
        with pytest.raises(ValueError):
            cutoff_convergence_study(study_basis, lams, (1,))
    # a repeated variant would overwrite its own table
    for variants in ((1, 1), (3,), (1, 2, 2)):
        with pytest.raises(ValueError, match="variants"):
            cutoff_convergence_study(study_basis, [0.5, 1.0], variants)


# ---------------------------------------------------------------------------
# divergence fit

def test_divergence_fit_gross_closed_form():
    # the d=2 closed form (pi/2) ln(1 + cutoff^2): the log1p fit
    # recovers the prefactor exactly, the plain-log fit approaches
    # slope pi on a window of large cutoffs
    lams = np.array([8.0, 16.0, 32.0, 64.0])
    vals = (np.pi / 2) * np.log1p(lams ** 2) + 0.3
    fit = divergence_fit(lams, vals)
    assert abs(fit.slope_log - np.pi) < 0.02 * np.pi
    assert abs(fit.slope_log1p - np.pi / 2) < 1e-10
    assert fit.residual_log1p < 1e-12
    assert abs(fit.intercept_log1p - 0.3) < 1e-10


def test_divergence_fit_constant_is_flat():
    fit = divergence_fit([1.0, 2.0, 4.0, 8.0], [5.0, 5.0, 5.0, 5.0])
    assert abs(fit.slope_log) < 1e-12
    assert abs(fit.slope_log1p) < 1e-12
    assert fit.residual_log < 1e-12


def test_divergence_fit_input_validation():
    with pytest.raises(InsufficientPoints):
        divergence_fit([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        divergence_fit([1.0, 2.0, 4.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        divergence_fit([0.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        divergence_fit([np.nan, 2.0, 4.0], [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# regularity diagnostic

def ladder(params, k_maxes=(1.0, 2.0, 4.0)):
    return [enumerate_basis(params, g, 1)
            for g in (build_grid(2, k, int(2 * k) + 1) for k in k_maxes)]


def test_regularity_zero_cutoff_family():
    # with coupling 0 the boundary map vanishes: the singular part is
    # zero at every refinement and all growth slopes are exactly 0; the
    # regular part of the free vacuum has unit weighted norm (mu = 1)
    rep = regularity_diagnostic(ladder(gross_model(coupling=0.0)), 1,
                                [0.0, 0.25, 0.75])
    assert all(v == 0.0 for v in rep.slopes.values())
    for row in rep.rows:
        assert row.norm_singular == 0.0
        assert abs(row.norm_regular - 1.0) < 1e-9


def test_regularity_ladder_dichotomy_trend():
    params = gross_model(coupling=0.3, mu=0.1875, m_boson=0.1875)
    rep = regularity_diagnostic(ladder(params), 1, [0.25, 0.75])
    # the singular norm grows faster at the larger exponent; the
    # threshold for this family sits exactly at 1/2
    assert rep.threshold == 0.5
    assert rep.slopes[0.75] > rep.slopes[0.25] > 0.0
    assert len(rep.rows) == 3 * 2
    assert len(rep.ground_energies) == 3


def test_regularity_builds_one_creation_matrix_per_rung(monkeypatch):
    # H and G of each rung share one creation matrix, built once, and are
    # bitwise the operators of assemble_H_direct and assemble_G on a
    # fresh copy of the ladder
    params = gross_model(coupling=0.3, mu=0.1875, m_boson=0.1875)
    bases = ladder(params)
    build = ops._creation_matrix.__wrapped__
    solve = spectral.lowest_eigenpairs
    make_g = spectral.assemble_G
    builds, hams, maps = [], [], []
    monkeypatch.setattr(ops._creation_matrix, "__wrapped__", lambda *a: (
        builds.append(a[0]), build(*a))[1])
    monkeypatch.setattr(spectral, "lowest_eigenpairs", lambda op, *a: (
        hams.append(op.matrix), solve(op, *a))[1])
    monkeypatch.setattr(spectral, "assemble_G", lambda *a: (
        maps.append(make_g(*a)), maps[-1])[1])
    regularity_diagnostic(bases, 1, [0.25], lambda_shift=0.5)
    assert [id(b) for b in builds] == [id(b) for b in bases]
    assert len(hams) == len(maps) == len(bases)
    for basis, h, g in zip(ladder(params), hams, maps):
        for got, want in ((h, assemble_H_direct(basis, None, 1).matrix),
                          (g.matrix, assemble_G(basis, None, 0.5).matrix)):
            assert got.dtype == want.dtype
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part),
                                      getattr(want, part))


def test_regularity_input_validation():
    bases = ladder(GROSS1)
    with pytest.raises(InsufficientPoints):
        regularity_diagnostic(bases[:2], 1, [0.25])
    with pytest.raises(ValueError):
        regularity_diagnostic(bases[::-1], 1, [0.25])
    for etas in ([-0.5], [0.25, np.nan]):
        with pytest.raises(ValueError):
            regularity_diagnostic(bases, 1, etas)
    for etas in ([], [0.25, 0.25]):
        with pytest.raises(ValueError, match="nonempty"):
            regularity_diagnostic(bases, 1, etas)
    # every refinement must carry the same model
    other = ladder(gross_model(coupling=0.3, mu=1.0, m_boson=1.0))
    with pytest.raises(ValueError, match="share one model"):
        regularity_diagnostic(bases[:2] + other[2:], 1, [0.25])
