"""Tests for eigen/resolvent plumbing and the three numerical studies."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
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
from ibcfock.errors import InsufficientPoints, NotConverged, \
    SolveNotConverged
from ibcfock import ops, spectral
from ibcfock.ops import SparseOperator, basis_digest
from ibcfock.spectral import DENSE_DIM_MAX, _block_norm, _components, \
    _odd_bosons, _ParityFactor, _power_norm, _seed_vector

GROSS1 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0)


def small_basis(params=GROSS1, k_max=1.0, nax=3, n_max=1):
    g = build_grid(2, k_max, nax)
    return enumerate_basis(params, g, g, n_max)


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


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       is_complex=st.booleans(), degenerate=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lowest_eigenpairs_block_property(sizes, is_complex, degenerate,
                                          seed):
    # random Hermitian blocks, hidden under a random permutation; with
    # `degenerate` the diagonals come from three values and the first
    # block is repeated, so spectra coincide exactly across components
    rng = np.random.default_rng(seed)
    blocks = []
    for m in sizes:
        a = rng.standard_normal((m, m))
        if is_complex:
            a = a + 1j * rng.standard_normal((m, m))
        blk = (a + a.conj().T) / 2
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
    for c, bound in enumerate(lower):
        inside = labels == c
        assert bound <= np.linalg.eigvalsh(dense[inside][:, inside])[0]
    # the residual scale is the exact ||H||_1, also when every entry is
    # stored as two halves (a non-canonical CSR)
    split = sparse.csr_array((np.repeat(h.data / 2, 2), np.repeat(h.indices, 2),
                              2 * h.indptr), shape=h.shape)
    assert scale == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-14)
    assert _components(split)[2] == scale


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


def test_free_hamiltonian_ground_is_vacuum():
    # cutoff 0 leaves the free operator; its ground state is the vacuum
    # with the nucleon at rest and energy mu = 1
    basis = small_basis(nax=5)
    op = assemble_H_direct(basis, 0.0, 1)
    res = lowest_eigenpairs(op)
    assert abs(res.values[0] - 1.0) < 1e-12
    rest_mode = int(np.argmin(basis.nucleon_grid.norms()))
    idx = int(basis.state_index(0, rest_mode, 0))
    assert abs(abs(res.vectors[idx, 0]) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# resolvent

def resolvent_apply(op, z, v, tol=1e-10):
    """Solve (H - z) w = v through the study's parity factor, in basis
    order, and check the full residual against tol times |v|."""
    h = op.matrix
    v = np.asarray(v, dtype=complex)
    factor = _ParityFactor(h, z, _odd_bosons(op.basis))
    w = np.empty_like(v)
    w[factor.order] = factor.apply(v[factor.order])
    assert np.linalg.norm(h @ w - z * w - v) <= tol * np.linalg.norm(v)
    return w


def test_resolvent_apply_round_trip():
    basis = small_basis(nax=5)
    op = assemble_H_direct(basis, 1.0, 1)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(basis.total_dim) \
        + 1j * rng.standard_normal(basis.total_dim)
    w = resolvent_apply(op, 1.0j, v, tol=1e-11)
    assert np.linalg.norm(op.matrix @ w - 1.0j * w - v) \
        <= 1e-10 * np.linalg.norm(v)
    # Hermitian operator: the resolvent at distance 1 from the real axis
    # is a contraction
    assert np.linalg.norm(w) <= np.linalg.norm(v) * (1 + 1e-12)


def test_resolvent_apply_diagonal_entrywise():
    basis = small_basis()
    op = assemble_L(basis)
    lv = np.real(op.matrix.diagonal())
    rng = np.random.default_rng(4)
    v = rng.standard_normal(basis.total_dim).astype(complex)
    w = resolvent_apply(op, -2.0 + 0.0j, v)
    assert np.allclose(w, v / (lv + 2.0), atol=1e-12)
    # a real z on a real operator still solves complex right-hand sides
    assert np.array_equal(resolvent_apply(op, -2.0, v), w)


def test_resolvent_at_eigenvalue_fails_loudly():
    basis = small_basis()
    op = assemble_L(basis)
    z = complex(np.real(op.matrix.diagonal())[0])
    with pytest.raises(SolveNotConverged):
        resolvent_apply(op, z, np.ones(basis.total_dim, dtype=complex))


def test_resolvent_apply_rejects_equal_parity_couplings():
    # H_ibc stores cancellation residues (~1e-17) between states of
    # equal boson parity, so the parity factor refuses it
    basis = small_basis(n_max=2)
    op = assemble_H_ibc(basis, 1.0, 1, 0.5)
    with pytest.raises(ValueError, match="parity"):
        resolvent_apply(op, 1.0j, np.ones(basis.total_dim, dtype=complex))


def test_resolvent_without_bosons_divides_the_diagonal():
    # n_max = 0: no odd-parity states, nothing left to factor
    basis = small_basis(n_max=0)
    op = assemble_H_direct(basis, 1.0, 1)
    v = np.arange(basis.total_dim) + 1.0j
    w = resolvent_apply(op, 1.0j, v)
    assert np.allclose(w, v / (op.matrix.diagonal() - 1.0j),
                       rtol=1e-15, atol=0.0)
    tab = cutoff_convergence_study(basis, [0.5, 1.0], (1,))[1]
    # recorded with a sparse LU of the full H - z
    assert tab.column("resolvent_diff_to_finest")[0] == pytest.approx(
        0.20600990515339532, rel=1e-12)


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
def test_parity_factor_matches_dense_solve(n_small, extra, density,
                                           is_complex, re_z, im_z, sign,
                                           seed):
    rng = np.random.default_rng(seed)
    dense, odd = _bipartite_hermitian(rng, n_small, n_small + extra + 1,
                                      density, is_complex)
    n = dense.shape[0]
    z = complex(re_z, sign * im_z)
    factor = _ParityFactor(sparse.csr_array(dense), z, odd)
    assert factor.ns == n_small
    order = factor.order
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shifted = dense - z * np.eye(n)
    for got, want in (
            (factor.apply(v[order]), np.linalg.solve(shifted, v)),
            (factor.apply_adjoint(v[order]),
             np.linalg.solve(shifted.conj().T, v))):
        assert np.linalg.norm(got - want[order]) \
            <= 1e-12 * np.linalg.norm(want)

    # a coupling between two states of equal parity is refused
    i, j = order[n_small], order[-1]
    if i != j:
        bad = dense.copy()
        bad[i, j] = bad[j, i] = 0.5
        with pytest.raises(ValueError):
            _ParityFactor(sparse.csr_array(bad), z, odd)

    # a z on the spectrum: cut one state loose and take its energy
    k = int(rng.integers(n))
    cut = dense.copy()
    cut[k, :k] = cut[k, k + 1:] = 0.0
    cut[:k, k] = cut[k + 1:, k] = 0.0
    with pytest.raises(SolveNotConverged):
        f = _ParityFactor(sparse.csr_array(cut), cut[k, k].real, odd)
        f.apply(v[f.order])


def test_parity_factor_certifies_every_solve(monkeypatch):
    # with a budget no residual can meet, both directions must refuse
    # to return their solution
    basis = small_basis()
    h = assemble_H_direct(basis, 1.0, 1).matrix
    factor = _ParityFactor(h, -1.0j, _odd_bosons(basis))
    v = np.ones(basis.total_dim, dtype=complex)
    monkeypatch.setattr(spectral, "SCHUR_RTOL", -1.0)
    for solve in (factor.apply, factor.apply_adjoint):
        with pytest.raises(SolveNotConverged, match="residual"):
            solve(v)


def test_parity_factor_singular_schur_complement_raises():
    # [[1, 1], [1, 1]] at z = 0: Dl - z = 1, S = 1 - 1 = 0 exactly
    h = sparse.csr_array(np.ones((2, 2)))
    with pytest.raises(SolveNotConverged):
        _ParityFactor(h, 0.0, np.array([True, False]))
    # z = 2 makes S = -1 - 1/(-1) = 0 as well (eigenvalue 2)
    with pytest.raises(SolveNotConverged):
        _ParityFactor(h, 2.0, np.array([True, False]))


# ---------------------------------------------------------------------------
# operator-norm differences

def test_opnorm_diff_rank_one():
    # a rank-one difference u v* has spectral norm |u||v| exactly
    basis = small_basis()
    n = basis.total_dim
    rng = np.random.default_rng(11)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = assemble_L(basis).matrix
    b = sparse.csr_array(a + np.outer(u, v.conj()))
    d = (a - b).tocsr()
    dh = d.conj().T.tocsr()
    v0 = _seed_vector(n, basis_digest(basis), "opnorm")
    got = _power_norm(lambda x: d @ x, lambda y: dh @ y, 1e-10, 500, v0)
    want = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(got - want) < 1e-8 * want


def test_power_norm_matches_dense_svd():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    v0 = _seed_vector(200, "ab" * 32, "test")
    got = _power_norm(lambda x: d @ x, lambda y: d.conj().T @ y,
                      1e-8, 2000, v0)
    want = np.linalg.svd(d, compute_uv=False)[0]
    assert abs(got - want) < 1e-2 * want


def test_power_norm_budget_exhaustion_raises():
    d = np.eye(5)
    v0 = _seed_vector(5, "cd" * 32, "test")
    with pytest.raises(NotConverged):
        _power_norm(lambda x: d @ x, lambda y: d @ y, 1e-12, 1, v0)


# ---------------------------------------------------------------------------
# cutoff convergence study

@pytest.fixture(scope="module")
def study_basis():
    g = build_grid(2, 2.0, 9)
    return enumerate_basis(GROSS1, g, g, 1)


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


def test_resolvent_factor_fill_stays_near_operator_size(study_basis):
    # the parity factor stores the couplings between the parity classes
    # (for the solve and the adjoint solve) and the L+U of the Schur
    # complement on the smaller class; together they stay within a small
    # multiple of H - z
    h = assemble_H_direct(study_basis, 2.0, 1).matrix
    shifted = h + 1.0j * sparse.eye_array(h.shape[0])
    factor = _ParityFactor(h, -1.0j, _odd_bosons(study_basis))
    assert factor.stored_nnz() <= 3 * shifted.nnz
    rng = np.random.default_rng(5)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    w = np.empty_like(v)
    w[factor.order] = factor.apply(v[factor.order])
    assert np.linalg.norm(shifted @ w - v) <= 1e-12 * np.linalg.norm(v)


# resolvent distances of cutoff_convergence_study(study_basis, [0.5, 1, 2],
# (1, 2)) computed with a sparse LU of the full H - z, recorded before the
# parity factor replaced it
_LU_RESOLVENT_COLUMNS = {1: [0.4331693971120596, 0.32764371252727986],
                         2: [0.4341396786998331, 0.33272860924375647]}
# the weighted-T distances of the same study, then estimated by power
# iteration stopped at 1e-4; a power estimate never exceeds the norm
_POWER_T_COLUMNS = {1: [0.10468491065251796, 0.016941263312342737],
                    2: [1.6714741843795896e-15, 1.7221165911319782e-15]}


def test_convergence_study_keeps_the_full_lu_resolvent_column(study_basis):
    tables = cutoff_convergence_study(study_basis, [0.5, 1.0, 2.0], (1, 2))
    for variant, tab in tables.items():
        got = tab.column("resolvent_diff_to_finest")
        assert got[-1] == 0.0
        assert np.allclose(got[:-1], _LU_RESOLVENT_COLUMNS[variant],
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


@pytest.mark.filterwarnings("ignore:cutoff radius")
@pytest.mark.parametrize("params, n_max", [
    (GROSS1, 1), (GROSS1, 2),
    (gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                 n_nucleons=2), 1)], ids=["n1", "n2", "complex"])
def test_convergence_study_resolvent_column_bounds_the_exact_norm(params,
                                                                  n_max):
    # the power estimate of ||(H_lam - z)^(-1) - (H_fin - z)^(-1)|| never
    # exceeds the norm beyond rounding, and stopped at 1e-4 it lies
    # within 1e-2 below it
    basis = small_basis(params, n_max=n_max)
    lams = [0.5, 1.0, np.sqrt(2.0)]
    tab = cutoff_convergence_study(basis, lams, (1,))[1]
    eye = np.eye(basis.total_dim)
    inv = [np.linalg.inv(assemble_H_direct(basis, lam, 1).matrix.toarray()
                         - spectral.RESOLVENT_Z * eye) for lam in lams]
    got = tab.column("resolvent_diff_to_finest")
    assert got[-1] == 0.0
    for est, r in zip(got[:-1], inv[:-1]):
        exact = np.linalg.norm(r - inv[-1], 2)
        assert exact * (1 - 1e-2) <= est <= exact * (1 + 1e-12)


def test_convergence_study_validates_ladder(study_basis):
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0, 0.5], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0, 50.0], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [], (1,))
    with pytest.raises(ValueError):
        cutoff_convergence_study(study_basis, [1.0], ())


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


# ---------------------------------------------------------------------------
# regularity diagnostic

def ladder(params, k_maxes=(1.0, 2.0, 4.0)):
    return [enumerate_basis(params, g, g, 1)
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
    with pytest.raises(ValueError):
        regularity_diagnostic(bases, 1, [-0.5])
    # every refinement must carry the same model
    other = ladder(gross_model(coupling=0.3, mu=1.0, m_boson=1.0))
    with pytest.raises(ValueError, match="share one model"):
        regularity_diagnostic(bases[:2] + other[2:], 1, [0.25])
