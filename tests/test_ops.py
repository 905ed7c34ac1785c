"""Oracle and invariance tests for the sparse operator assembly.

The hand values on the single-mode basis are worked out from the
occupation algebra directly; the ordered-tuple oracle rebuilds the
creation operator from its sector formula on explicitly ordered boson
tuples and compresses it with the symmetrizer, pinning every
combinatorial factor independently of the production code path.
"""

import math
from collections import Counter
from itertools import permutations, product as iproduct

import numpy as np
import pytest
from scipy.sparse.linalg import svds

from ibcfock import (
    assemble_G,
    assemble_H_direct,
    assemble_H_ibc,
    assemble_L,
    assemble_T_cutoff,
    assemble_T_od,
    assemble_Td,
    assemble_annihilation,
    assemble_creation,
    assemble_tau,
    assemble_theta,
    basis_digest,
    build_grid,
    counterterm_grid,
    custom_model,
    dispersion_boson,
    dispersion_nucleon,
    eckmann_model,
    enumerate_basis,
    export_triplets,
    form_factor,
    grid_mode_mask,
    gross_model,
    integral_j_grid,
    load_triplets,
    nelson_model,
    point_index,
    translate,
    verify_identity,
)
from ibcfock.errors import (
    BasisMismatch,
    ConditionCViolated,
    MasslessWithoutShift,
)
from ibcfock.ops import _shift_table, _start_vector

GROSS1 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=1)
GROSS2 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=2)


def single_mode_basis(n_max=2):
    g = build_grid(2, 0.5, 1)
    return enumerate_basis(GROSS1, g, g, n_max=n_max)


def small_basis(params, d=2, k_max=1.0, nax=3, n_max=2):
    g = build_grid(d, k_max, nax)
    return enumerate_basis(params, g, g, n_max=n_max)


# ---------------------------------------------------------------------------
# hand-derived values on the single-mode lattice
#
# One boson mode q = 0 with cell weight 1, theta(0) = omega(0) = 1, v = 1:
# L = diag(1, 2, 3); creation carries sqrt(m+1), so A(0->1) = 1 and
# A(1->2) = sqrt(2); G = -(L)^(-1) A gives -1/2 and -sqrt(2)/3; the
# counterterm sums to 1/2 at either variant; the resolvent part of the
# diagonal is 1/2 (vacuum) and 1/3 (one boson); tau on the one-boson
# state is 1/3; both Hamiltonian routes give the same tridiagonal matrix.

def test_single_mode_hand_values():
    basis = single_mode_basis()
    assert basis.total_dim == 3

    lv = assemble_L(basis).matrix.diagonal().real
    assert np.allclose(lv, [1.0, 2.0, 3.0], atol=1e-15)

    a_op = assemble_creation(basis, None)
    a = a_op.to_dense().real
    assert abs(a[1, 0] - 1.0) < 1e-15
    assert abs(a[2, 1] - np.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(a) == 2

    g = assemble_G(basis, None, 0.0).to_dense().real
    assert abs(g[1, 0] + 0.5) < 1e-15
    assert abs(g[2, 1] + np.sqrt(2.0) / 3.0) < 1e-15

    t = assemble_T_cutoff(basis, None, 0.0)
    assert np.allclose(t.matrix.diagonal().real, [-0.5, -2.0 / 3.0, 0.0],
                       atol=1e-15)
    assert t.tags["product_agreement"] < 1e-14

    td = assemble_Td(basis, None, 1, "grid")
    assert np.allclose(td.matrix.diagonal().real, [0.0, 1.0 / 6.0, 0.5],
                       atol=1e-15)

    tau = assemble_tau(basis, 0, 0, None).to_dense().real
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0 / 3.0
    assert np.allclose(tau, expect, atol=1e-15)

    hd = assemble_H_direct(basis, None, 1, "grid").to_dense().real
    hi = assemble_H_ibc(basis, None, 1, 0.0, "grid").to_dense().real
    expect = np.array([[1.5, 1.0, 0.0],
                       [1.0, 2.5, np.sqrt(2.0)],
                       [0.0, np.sqrt(2.0), 3.5]])
    assert np.allclose(hd, expect, atol=1e-14)
    assert np.allclose(hi, expect, atol=1e-13)


# ---------------------------------------------------------------------------
# ordered-tuple oracle for the creation operator

def _ordered_creation_blocks(basis, params):
    """Creation blocks built from the sector formula on ordered tuples,
    together with the symmetrizer embeddings, entirely with loops."""
    g_n, g_b = basis.nucleon_grid, basis.boson_grid
    mask = grid_mode_mask(g_b, None, params)
    m_nuc = params.n_nucleons
    nuc_table = basis.nucleon_mode_table()
    strides = g_n.size ** np.arange(m_nuc - 1, -1, -1)
    tbl_plus = _shift_table(g_n, g_b, sign=+1)
    sqrt_w = g_b.cell_weight ** 0.5

    ordered, index = {}, {}
    for n in range(basis.n_max + 1):
        states = [(nu, tup) for nu in range(basis.nuc_dim)
                  for tup in iproduct(range(g_b.size), repeat=n)]
        ordered[n] = states
        index[n] = {s: k for k, s in enumerate(states)}

    sym = {}
    for n in range(basis.n_max + 1):
        s = np.zeros((len(ordered[n]), basis.sector_dims[n]))
        for nu in range(basis.nuc_dim):
            for ib in range(basis.bos_dim(n)):
                mu = tuple(int(x) for x in basis.bos_modes[n][ib])
                counts = {}
                for x in mu:
                    counts[x] = counts.get(x, 0) + 1
                norm = math.sqrt(
                    np.prod([math.factorial(c) for c in counts.values()])
                    / math.factorial(n))
                col = nu * basis.bos_dim(n) + ib
                for perm in set(permutations(mu)):
                    s[index[n][(nu, perm)], col] = norm
        sym[n] = s

    blocks = {}
    for n in range(basis.n_max):
        a = np.zeros((len(ordered[n + 1]), len(ordered[n])), dtype=complex)
        for (nu, tup) in ordered[n + 1]:
            row = index[n + 1][(nu, tup)]
            modes = nuc_table[nu]
            for j, kq in enumerate(tup):
                if not mask[kq]:
                    continue
                for i in range(m_nuc):
                    src_mode = tbl_plus[modes[i], kq]
                    if src_mode < 0:
                        continue
                    src_nu = nu + (src_mode - modes[i]) * strides[i]
                    src_tup = tup[:j] + tup[j + 1:]
                    amp = (sqrt_w * form_factor(i, g_n.points[modes[i]],
                                                g_b.points[kq], params)
                           / math.sqrt(n + 1))
                    a[row, index[n][(int(src_nu), src_tup)]] += amp
        blocks[n] = a
    return blocks, sym


@pytest.mark.parametrize("params", [
    custom_model(1, alpha=0.25, beta=1.0, gamma=1.0, mu=1.0, m_boson=1.0),
    custom_model(1, alpha=0.25, beta=1.0, gamma=1.0, mu=1.0, m_boson=1.0,
                 coupling=(0.8, 0.5 + 0.5j), n_nucleons=2),
])
def test_ordered_tuple_equivalence(params):
    # d = 1 keeps the ordered space tiny; 3 modes, two boson sectors
    g = build_grid(1, 1.0, 3)
    basis = enumerate_basis(params, g, g, n_max=2)
    blocks, sym = _ordered_creation_blocks(basis, params)
    a = assemble_creation(basis, None).to_dense()
    for n in range(basis.n_max):
        rows = basis.sector_slice(n + 1)
        cols = basis.sector_slice(n)
        occupation_block = sym[n + 1].T @ blocks[n] @ sym[n]
        assert np.abs(occupation_block - a[rows, cols]).max() < 1e-14
        # the ordered-tuple operator preserves the symmetric subspace
        projector = sym[n + 1] @ sym[n + 1].T
        image = blocks[n] @ sym[n]
        assert np.abs(image - projector @ image).max() < 1e-14


# ---------------------------------------------------------------------------
# loop oracle for the exchange pieces

def _exchange_oracle(basis, i, ell, lambda_uv, shift, kind):
    """Dense tau (kind "tau") or theta ("theta") from the definitions,
    with plain loops over the source states: nucleon i emits q2 into the
    intermediate sector n+1, then nucleon ell absorbs q.  theta keeps the
    bosons (q2 = q); tau removes a boson q of the source and creates q2."""
    params = basis.params
    g_n, g_b = basis.nucleon_grid, basis.boson_grid
    active = [int(q) for q in np.flatnonzero(
        grid_mode_mask(g_b, lambda_uv, params))]

    def shifted(x, q, sign):
        p = translate(g_n, g_n.points[x], sign * g_b.points[q])
        return None if p is None else point_index(g_n, p)

    def energy(nuc, bos):
        return (sum(float(dispersion_nucleon(g_n.points[x], params))
                    for x in nuc)
                + sum(float(dispersion_boson(g_b.points[k], params))
                      for k in bos))

    out = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for n in range(basis.n_max):
        for y in basis.nucleon_mode_table().tolist():
            for bos in basis.bos_modes[n].tolist():
                col = basis.index_of(n, y, bos)
                counts = Counter(bos)
                if kind == "theta":
                    pairs = [(q, q) for q in active]
                else:
                    pairs = [(q, q2) for q in counts if q in active
                             for q2 in active]
                for q, q2 in pairs:
                    z = list(y)
                    z[i] = shifted(y[i], q2, -1)
                    if z[i] is None:
                        continue
                    x = list(z)
                    x[ell] = shifted(z[ell], q, +1)
                    if x[ell] is None:
                        continue
                    if kind == "theta":
                        tgt_bos, bf = bos, 1.0
                    else:
                        tgt_bos = list(bos)
                        tgt_bos.remove(q)
                        tgt_bos.append(q2)
                        bf = (counts[q] if q2 == q
                              else math.sqrt(counts[q] * (counts[q2] + 1)))
                    amp = (np.conj(form_factor(ell, g_n.points[z[ell]],
                                               g_b.points[q], params))
                           * form_factor(i, g_n.points[z[i]], g_b.points[q2],
                                         params)
                           * g_b.cell_weight * bf
                           / (energy(z, bos + [q2]) + shift))
                    out[basis.index_of(n, x, tgt_bos), col] += amp
    return out


def test_exchange_pieces_match_loop_oracle():
    # d = 1 and n_max = 3: sector-2 rows hold repeated modes, so the
    # q2 == q and multiple-occupancy factors both enter; the cutoff drops
    # the two outer modes
    params = custom_model(1, alpha=0.25, beta=1.0, gamma=1.0, mu=1.0,
                          m_boson=1.0, coupling=(0.8, 0.5 + 0.5j),
                          n_nucleons=2)
    g = build_grid(1, 2.0, 5)
    basis = enumerate_basis(params, g, g, n_max=3)
    lam, shift = 1.5, 0.7
    assert not grid_mode_mask(g, lam, params).all()
    for i in range(2):
        for ell in range(2):
            pieces = [("tau", assemble_tau)]
            if i != ell:
                pieces.append(("theta", assemble_theta))
            for kind, build in pieces:
                got = build(basis, i, ell, lam, shift).to_dense()
                want = _exchange_oracle(basis, i, ell, lam, shift, kind)
                assert np.abs(want).max() > 0.0
                assert (np.abs(got - want).max()
                        <= 1e-14 * np.abs(want).max()), (kind, i, ell)


# ---------------------------------------------------------------------------
# adjoint structure

def test_annihilation_is_exact_adjoint():
    basis = small_basis(GROSS2)
    a_up = assemble_creation(basis, None)
    a_dn = assemble_annihilation(basis, None)
    assert (a_dn.matrix - a_up.matrix.conj().T).nnz == 0


def test_exchange_adjoint_pairs():
    basis = small_basis(GROSS2, n_max=2)
    th01 = assemble_theta(basis, 0, 1, None).matrix
    th10 = assemble_theta(basis, 1, 0, None).matrix
    d = (th01 - th10.conj().T).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-15
    t01 = assemble_tau(basis, 0, 1, None).matrix
    t10 = assemble_tau(basis, 1, 0, None).matrix
    d = (t01 - t10.conj().T).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-15
    t00 = assemble_tau(basis, 0, 0, None)
    assert t00.hermiticity_defect() < 1e-15
    assert th01.nnz > 0 and t01.nnz > 0


def test_g_adjoint_relation():
    # G*(L+lambda) = -a(V) exactly, the weak boundary identity
    basis = small_basis(GROSS1)
    lam = 0.7
    g = assemble_G(basis, None, lam).matrix
    lv = assemble_L(basis).matrix.diagonal().real + lam
    lhs = g.conj().T.multiply(lv[None, :]).tocsr()
    rhs = -assemble_creation(basis, None).matrix.conj().T
    d = (lhs - rhs).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-13


# ---------------------------------------------------------------------------
# the central identity

@pytest.mark.parametrize("variant", [1, 2])
@pytest.mark.parametrize("lam_uv", [None, 1.0])
def test_central_identity_gross_two_nucleons(variant, lam_uv):
    basis = small_basis(GROSS2)
    for lam in (0.0, 1.0, 10.0):
        hd = assemble_H_direct(basis, lam_uv, variant, "grid")
        hi = assemble_H_ibc(basis, lam_uv, variant, lam, "grid")
        rep = verify_identity(hd, hi, tol=1e-13)
        assert rep.passed, rep
        assert rep.max_abs_diff < 1e-13


@pytest.mark.parametrize("variant", [1, 2])
def test_central_identity_eckmann(variant):
    params = eckmann_model(delta=0.25, coupling=0.7, mu=1.0, m_boson=1.0)
    basis = small_basis(params, d=3, n_max=1)
    hd = assemble_H_direct(basis, None, variant, "grid")
    hi = assemble_H_ibc(basis, None, variant, 0.5, "grid")
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_central_identity_complex_couplings():
    params = gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                         n_nucleons=2)
    basis = small_basis(params)
    hd = assemble_H_direct(basis, None, 1, "grid")
    hi = assemble_H_ibc(basis, None, 1, 1.0, "grid")
    assert hd.hermiticity_defect() < 1e-14
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_shift_independence_of_h_ibc():
    basis = small_basis(GROSS1)
    h1 = assemble_H_ibc(basis, None, 1, 0.5, "grid")
    h2 = assemble_H_ibc(basis, None, 1, 7.0, "grid")
    rep = verify_identity(h1, h2, tol=1e-13)
    assert rep.passed, rep


def test_identity_with_massless_bosons_and_shift():
    params = nelson_model(coupling=1.0, mu=1.0, m_boson=0.0)
    basis = small_basis(params, d=3, n_max=1)
    with pytest.raises(MasslessWithoutShift):
        assemble_G(basis, None, 0.0)
    hd = assemble_H_direct(basis, None, 1, "grid")
    hi = assemble_H_ibc(basis, None, 1, 0.7, "grid")
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_identity_on_vacuum_only_truncation():
    basis = small_basis(GROSS1, n_max=0)
    hd = assemble_H_direct(basis, None, 2, "grid")
    hi = assemble_H_ibc(basis, None, 2, 0.3, "grid")
    assert verify_identity(hd, hi, tol=1e-14).passed


# ---------------------------------------------------------------------------
# structure of the assembled blocks

def test_t_cutoff_vacuum_diagonal_is_minus_variant2_counterterm():
    basis = small_basis(GROSS1, n_max=1)
    t = assemble_T_cutoff(basis, 1.0, 0.0)
    vac = t.matrix.diagonal().real[:basis.nuc_dim]
    p_idx = basis.nucleon_mode_table()[:, 0]
    ct2 = counterterm_grid(p_idx, basis.boson_grid, 1.0, 2, GROSS1)
    assert np.abs(vac + ct2).max() < 1e-15


def test_td_is_real_diagonal_and_vacuum_values():
    basis = small_basis(GROSS1, n_max=1)
    td1 = assemble_Td(basis, 1.0, 1, "grid")
    m = td1.matrix.tocoo()
    assert np.all(m.row == m.col)
    assert np.abs(m.data.imag).max() == 0.0
    # variant 1 vacuum diagonal equals the lattice dispersion-shift sum
    p_idx = basis.nucleon_mode_table()[:, 0]
    jg = integral_j_grid(p_idx, basis.boson_grid, 1.0, GROSS1)
    assert np.abs(td1.matrix.diagonal().real[:basis.nuc_dim] - jg).max() < 1e-15
    # variant 2 vacuum diagonal vanishes identically at zero shift
    td2 = assemble_Td(basis, 1.0, 2, "grid")
    assert np.abs(td2.matrix.diagonal().real[:basis.nuc_dim]).max() < 1e-15


def test_t_od_matches_sum_of_pieces():
    basis = small_basis(GROSS2, n_max=2)
    tod = assemble_T_od(basis, 1.0, lambda_shift=0.4).matrix
    acc = None
    for i in range(2):
        for ell in range(2):
            if i != ell:
                piece = assemble_theta(basis, i, ell, 1.0,
                                       lambda_shift=0.4).matrix
                acc = piece if acc is None else acc + piece
            piece = assemble_tau(basis, i, ell, 1.0,
                                 lambda_shift=0.4).matrix
            acc = piece if acc is None else acc + piece
    d = (tod + acc).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0


def test_exchange_pieces_vanish_on_top_sector():
    basis = small_basis(GROSS2, n_max=1)
    top = basis.sector_slice(1)
    th = assemble_theta(basis, 0, 1, None).matrix.tocoo()
    assert not np.any((th.row >= top.start) | (th.col >= top.start))
    # tau needs a boson in the state and an intermediate above it
    tau = assemble_tau(basis, 0, 0, None)
    assert tau.nnz == 0


def test_g_norm_decreases_with_shift_and_is_contractive():
    basis = small_basis(GROSS1, nax=3)
    norms = []
    for lam in (0.0, 1.0, 10.0, 100.0):
        g = assemble_G(basis, None, lam).matrix
        norms.append(svds(g, k=1, return_singular_vectors=False,
                          random_state=0)[0])
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[0] < 1.0


def test_one_minus_g_stays_invertible_under_refinement():
    vals = []
    for nax in (3, 5):
        basis = small_basis(GROSS1, nax=nax)
        g = assemble_G(basis, None, 0.0).matrix
        vals.append(svds(g, k=1, return_singular_vectors=False,
                         random_state=0)[0])
    # contraction bound: smallest singular value of (1-G) >= 1 - ||G||
    assert all(v < 0.95 for v in vals)
    assert 0.8 < vals[1] / vals[0] < 1.05


def test_cutoff_zero_gives_free_hamiltonian():
    basis = small_basis(GROSS1)
    assert assemble_creation(basis, 0.0).nnz == 0
    hd = assemble_H_direct(basis, 0.0, 1, "grid")
    lv = assemble_L(basis).matrix.diagonal()
    d = hd.matrix - assemble_L(basis).matrix
    d = d.tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
    hi = assemble_H_ibc(basis, 0.0, 1, 1.0, "grid")
    assert verify_identity(hd, hi, tol=1e-14).passed
    assert np.abs(hi.matrix.diagonal() - lv).max() < 1e-14


def test_cutoff_growth_adds_only_annulus_modes():
    basis = small_basis(GROSS1)
    lam1, lam2 = 1.0, 1.5
    a1 = assemble_creation(basis, lam1).matrix
    with pytest.warns(UserWarning, match="exceeds"):
        a2 = assemble_creation(basis, lam2).matrix
    # entries at the smaller cutoff persist unchanged at the larger one
    c1 = a1.tocoo()
    same = np.asarray(a2[c1.row, c1.col]).ravel()
    assert np.abs(same - c1.data).max() == 0.0
    # new entries create bosons with momenta in the open annulus
    extra = (a2 - a1).tocoo()
    assert extra.nnz > 0
    norms = np.linalg.norm(basis.boson_grid.points, axis=-1)
    for r, c in zip(extra.row[:50], extra.col[:50]):
        n_r, _, bos_r = basis.decode(int(r))
        n_c, _, bos_c = basis.decode(int(c))
        assert n_r == n_c + 1
        added = list(bos_r)
        for m in bos_c:
            added.remove(m)
        assert lam1 < norms[added[0]] <= lam2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# continuum quadrature mode

def test_continuum_td_agrees_in_the_interior():
    params = GROSS1
    lam_uv = 0.5
    g = build_grid(2, 1.0, 9)
    basis = enumerate_basis(params, g, g, n_max=1)
    tg = assemble_Td(basis, lam_uv, 1, "grid").matrix.diagonal().real
    tc = assemble_Td(basis, lam_uv, 1, "continuum").matrix.diagonal().real
    diff = np.abs(tg - tc)[:basis.nuc_dim]
    norms = np.linalg.norm(g.points, axis=-1)
    interior = norms <= g.k_max - lam_uv - 1e-9
    # interior states see only quadrature error; edge states also see the
    # recoil modes the box drops, an order-one modeling difference
    assert diff[interior].max() < 5e-3
    assert diff[int(np.argmin(norms))] < 1e-12
    assert diff[~interior].max() < 0.5


def test_continuum_variant2_vacuum_zero():
    params = GROSS1
    basis = small_basis(params, nax=5, n_max=1)
    td2 = assemble_Td(basis, 1.0, 2, "continuum")
    vac = td2.matrix.diagonal().real[:basis.nuc_dim]
    assert np.abs(vac).max() < 1e-8


# ---------------------------------------------------------------------------
# input validation and bookkeeping

def test_theta_index_validation():
    basis = small_basis(GROSS2, n_max=1)
    with pytest.raises(IndexError):
        assemble_theta(basis, 1, 1, None)
    with pytest.raises(IndexError):
        assemble_theta(basis, 0, 2, None)
    with pytest.raises(IndexError):
        assemble_tau(basis, 2, 0, None)


def test_condition_violation_blocks_renormalized_diagonal():
    # uv degree 3 - 0.6 - 1 = 1.4 exceeds the bound 1/3
    params = custom_model(3, alpha=0.3, beta=1.0, gamma=1.0, mu=1.0)
    basis = small_basis(params, d=3, n_max=1)
    with pytest.raises(ConditionCViolated):
        assemble_Td(basis, 1.0, 1, "grid")


def test_grid_mode_requires_shared_lattice():
    g_n = build_grid(2, 1.0, 3)
    g_b = build_grid(2, 0.9, 3)
    basis = enumerate_basis(GROSS1, g_n, g_b, n_max=1)
    with pytest.raises(ValueError):
        assemble_Td(basis, 0.5, 1, "grid")
    with pytest.raises(ValueError):
        assemble_H_direct(basis, 0.5, 1, "grid")


def test_cutoff_beyond_reach_warns():
    basis = small_basis(GROSS1, n_max=1)
    with pytest.warns(UserWarning, match="exceeds"):
        assemble_creation(basis, 5.0)


def test_verify_identity_rejects_mismatched_bases():
    b1 = small_basis(GROSS1, n_max=1)
    g = build_grid(2, 2.0, 3)
    b2 = enumerate_basis(GROSS1, g, g, n_max=1)
    with pytest.raises(BasisMismatch):
        verify_identity(assemble_L(b1), assemble_L(b2))


def test_verify_identity_flags_perturbation():
    basis = small_basis(GROSS1, n_max=1)
    h1 = assemble_H_direct(basis, None, 1, "grid")
    m = h1.matrix.tolil(copy=True)
    m[0, 0] += 1e-6
    h2 = type(h1)(basis, m.tocsr(), dict(h1.tags), h1.hermitian_flag)
    rep = verify_identity(h1, h2, tol=1e-10)
    assert not rep.passed
    assert rep.max_abs_diff == pytest.approx(1e-6, rel=1e-6)
    assert rep.opnorm_diff_estimate == pytest.approx(1e-6, rel=1e-3)


def test_verify_identity_reuses_a_read_only_start_vector():
    basis = small_basis(GROSS2)
    hd = assemble_H_direct(basis, 1.0, 1, "grid")
    hi = assemble_H_ibc(basis, 1.0, 1, 0.5, "grid")
    first = verify_identity(hd, hi)
    # a pair on another dimension in between replaces the cached vector
    other = small_basis(GROSS1, n_max=1)
    verify_identity(assemble_H_direct(other, None, 1, "grid"),
                    assemble_H_ibc(other, None, 1, 0.0, "grid"))
    assert verify_identity(hd, hi) == first
    x = _start_vector(basis.total_dim)
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


# ---------------------------------------------------------------------------
# export round-trip

def test_triplet_export_roundtrip(tmp_path):
    basis = small_basis(GROSS1, n_max=1)
    h = assemble_H_ibc(basis, None, 1, 0.5, "grid")
    path = tmp_path / "h.triplets"
    export_triplets(h, path)
    header, m = load_triplets(path)
    assert header["format"] == "sparse-triplets-v1"
    assert header["shape"] == [basis.total_dim, basis.total_dim]
    assert header["nnz"] == h.nnz
    assert header["hermitian"] is True
    assert header["basis_sha256"] == basis_digest(basis)
    assert header["tags"]["lambda_uv"] is None
    d = (m - h.matrix).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
    # byte-determinism
    path2 = tmp_path / "h2.triplets"
    export_triplets(h, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_triplet_export_exact_text(tmp_path):
    # the single-mode direct Hamiltonian of the hand-value test, byte for
    # byte: diag(1.5, 2.5, 3.5) with couplings 1 and sqrt(2)
    basis = single_mode_basis()
    path = tmp_path / "h.triplets"
    export_triplets(assemble_H_direct(basis, None, 1, "grid"), path)
    assert path.read_text() == (
        '{"basis_sha256": "3e946289e90626d516507ab8ec112deb1cc474a9cf65fec26f'
        'c373704cb099c7", "format": "sparse-triplets-v1", "hermitian": true, '
        '"nnz": 7, "shape": [3, 3], "tags": {"lambda_uv": null, "path": '
        '"direct", "quad_mode": "grid", "variant": 1}}\n'
        "0 0 1.5 0\n"
        "0 1 1 0\n"
        "1 0 1 0\n"
        "1 1 2.5 0\n"
        "1 2 1.4142135623730951 0\n"
        "2 1 1.4142135623730951 0\n"
        "2 2 3.5 0\n")
    # an operator without stored entries round-trips too
    empty = tmp_path / "a.triplets"
    export_triplets(assemble_creation(basis, 0.0), empty)
    header, m = load_triplets(empty)
    assert header["nnz"] == 0 and m.nnz == 0 and m.shape == (3, 3)
    assert m.dtype == np.float64
    # the scalar type survives the round trip: real stays float64 with
    # the exact data, a complex coupling stays complex128
    h = assemble_H_direct(basis, None, 1, "grid").matrix
    _, m = load_triplets(path)
    assert h.dtype == m.dtype == np.float64
    assert np.array_equal(m.indptr, h.indptr)
    assert np.array_equal(m.indices, h.indices)
    assert np.array_equal(m.data, h.data)
    phased = gross_model(coupling=0.8 * np.exp(0.7j), mu=1.0, m_boson=1.0)
    g = build_grid(2, 0.5, 1)
    hc = assemble_H_direct(enumerate_basis(phased, g, g, n_max=2), None, 1,
                           "grid")
    export_triplets(hc, tmp_path / "c.triplets")
    _, mc = load_triplets(tmp_path / "c.triplets")
    assert hc.matrix.dtype == mc.dtype == np.complex128
    assert np.array_equal(mc.toarray(), hc.to_dense())


def test_operator_dtype_follows_couplings():
    # real couplings and a real form factor: every builder stores float64
    basis = small_basis(GROSS2)
    ops = {
        "L": assemble_L(basis),
        "creation": assemble_creation(basis, 1.0),
        "annihilation": assemble_annihilation(basis, 1.0),
        "G": assemble_G(basis, 1.0, 0.5),
        "T_cutoff": assemble_T_cutoff(basis, 1.0, 0.5),
        "T_d": assemble_Td(basis, 1.0, 1, "grid", lambda_shift=0.5),
        "theta": assemble_theta(basis, 0, 1, 1.0, 0.5),
        "tau": assemble_tau(basis, 0, 1, 1.0, 0.5),
        "T_od": assemble_T_od(basis, 1.0, lambda_shift=0.5),
        "H_direct": assemble_H_direct(basis, 1.0, 1, "grid"),
        "H_ibc": assemble_H_ibc(basis, 1.0, 1, 0.5, "grid"),
    }
    assert {k: op.matrix.dtype for k, op in ops.items()} == {
        k: np.float64 for k in ops}
    # a complex phase on one coupling makes every off-diagonal builder
    # complex, leaves the diagonals real, and keeps the identity exact
    params = gross_model(coupling=(1.0, 0.8 * np.exp(0.7j)), mu=1.0,
                         m_boson=1.0, n_nucleons=2)
    cb = small_basis(params)
    assert assemble_L(cb).matrix.dtype == np.float64
    assert assemble_Td(cb, 1.0, 1, "grid").matrix.dtype == np.float64
    hd = assemble_H_direct(cb, 1.0, 1, "grid")
    hi = assemble_H_ibc(cb, 1.0, 1, 0.5, "grid")
    for op in (assemble_creation(cb, 1.0), assemble_annihilation(cb, 1.0),
               assemble_G(cb, 1.0, 0.5), assemble_T_cutoff(cb, 1.0, 0.5),
               assemble_theta(cb, 0, 1, 1.0, 0.5),
               assemble_tau(cb, 0, 1, 1.0, 0.5),
               assemble_T_od(cb, 1.0, lambda_shift=0.5), hd, hi):
        assert op.matrix.dtype == np.complex128, op.tags
    assert verify_identity(hd, hi, tol=1e-10).passed
