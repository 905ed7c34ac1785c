"""Oracle and invariance tests for the sparse operator assembly.

The hand values on the single-mode basis are worked out from the
occupation algebra directly; the ordered-tuple oracle rebuilds the
creation operator from its sector formula on explicitly ordered boson
tuples and compresses it with the symmetrizer, pinning every
combinatorial factor independently of the production code path.
"""

import inspect
import math
from collections import Counter
from itertools import permutations, product as iproduct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
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
    integral_I,
    integral_J,
    integral_j_grid,
    load_triplets,
    nelson_model,
    point_index,
    verify_identity,
)
from ibcfock.cli import load_config
from ibcfock.errors import (
    BasisMismatch,
    ConditionCViolated,
    MasslessWithoutShift,
    StructureViolated,
)
from ibcfock import ops
from ibcfock.ops import SparseOperator

GROSS1 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=1)
GROSS2 = gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=2)


def single_mode_basis(n_max=2):
    g = build_grid(2, 0.5, 1)
    return enumerate_basis(GROSS1, g, n_max=n_max)


def small_basis(params, d=2, k_max=1.0, nax=3, n_max=2):
    g = build_grid(d, k_max, nax)
    return enumerate_basis(params, g, n_max=n_max)


def shifted_index(grid, p, k):
    """Reference lattice shift for the loop oracles, independent of
    fockgrid.translate_indices: the flat index of p + k by coordinate
    arithmetic, or None when p + k leaves the box."""
    target = np.asarray(p, dtype=float) + np.asarray(k, dtype=float)
    if np.max(np.abs(target)) > grid.k_max + 0.5 * grid.spacing:
        return None
    return point_index(grid, target)


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
    # T = -G*(L+lambda)G equals the product a(V)G
    avg = (assemble_annihilation(basis, None).matrix
           @ assemble_G(basis, None, 0.0).matrix)
    assert np.abs((t.matrix - avg).toarray()).max() < 1e-14

    td = assemble_Td(basis, None, 1)
    assert np.allclose(td.matrix.diagonal().real, [0.0, 1.0 / 6.0, 0.5],
                       atol=1e-15)

    tau = assemble_tau(basis, 0, 0, None).to_dense().real
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0 / 3.0
    assert np.allclose(tau, expect, atol=1e-15)

    hd = assemble_H_direct(basis, None, 1).to_dense().real
    hi = assemble_H_ibc(basis, None, 1, 0.0).to_dense().real
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
    g_n = g_b = basis.grid
    mask = grid_mode_mask(g_b, None, params)
    m_nuc = params.n_nucleons
    nuc_table = basis.nucleon_mode_table()
    strides = g_n.size ** np.arange(m_nuc - 1, -1, -1)
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
                    # the source nucleon sits at p + q (the target's p
                    # recoiled by the emitted q); off-lattice sources drop
                    src_mode = shifted_index(g_n, g_n.points[modes[i]],
                                             g_b.points[kq])
                    if src_mode is None:
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
    basis = enumerate_basis(params, g, n_max=2)
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
    g_n = g_b = basis.grid
    active = [int(q) for q in np.flatnonzero(
        grid_mode_mask(g_b, lambda_uv, params))]

    def shifted(x, q, sign):
        return shifted_index(g_n, g_n.points[x], sign * g_b.points[q])

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
    basis = enumerate_basis(params, g, n_max=3)
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
        hd = assemble_H_direct(basis, lam_uv, variant)
        hi = assemble_H_ibc(basis, lam_uv, variant, lam)
        rep = verify_identity(hd, hi, tol=1e-13)
        assert rep.passed, rep
        assert rep.max_abs_diff < 1e-13


@pytest.mark.parametrize("variant", [1, 2])
def test_central_identity_eckmann(variant):
    params = eckmann_model(delta=0.25, coupling=0.7, mu=1.0, m_boson=1.0)
    basis = small_basis(params, d=3, n_max=1)
    hd = assemble_H_direct(basis, None, variant)
    hi = assemble_H_ibc(basis, None, variant, 0.5)
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_central_identity_complex_couplings():
    params = gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                         n_nucleons=2)
    basis = small_basis(params)
    hd = assemble_H_direct(basis, None, 1)
    hi = assemble_H_ibc(basis, None, 1, 1.0)
    assert hd.hermiticity_defect() < 1e-14
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_shift_independence_of_h_ibc():
    basis = small_basis(GROSS1)
    h1 = assemble_H_ibc(basis, None, 1, 0.5)
    h2 = assemble_H_ibc(basis, None, 1, 7.0)
    rep = verify_identity(h1, h2, tol=1e-13)
    assert rep.passed, rep


def test_identity_with_massless_bosons_and_shift():
    params = nelson_model(coupling=1.0, mu=1.0, m_boson=0.0)
    basis = small_basis(params, d=3, n_max=1)
    with pytest.raises(MasslessWithoutShift):
        assemble_G(basis, None, 0.0)
    hd = assemble_H_direct(basis, None, 1)
    hi = assemble_H_ibc(basis, None, 1, 0.7)
    rep = verify_identity(hd, hi, tol=1e-13)
    assert rep.passed, rep


def test_identity_on_vacuum_only_truncation():
    basis = small_basis(GROSS1, n_max=0)
    hd = assemble_H_direct(basis, None, 2)
    hi = assemble_H_ibc(basis, None, 2, 0.3)
    assert verify_identity(hd, hi, tol=1e-14).passed


# ---------------------------------------------------------------------------
# the variant-independent part of the boundary route, built once per
# (basis, cutoff, shift)

MEMO_PANEL = {
    "two-real": (lambda: small_basis(GROSS2), 1.0),
    "two-complex": (lambda: small_basis(gross_model(
        coupling=(1.0, 0.8 * np.exp(0.7j)), mu=1.0, m_boson=1.0,
        n_nucleons=2)), 1.0),
    "nelson-d3": (lambda: small_basis(nelson_model(coupling=0.5), d=3,
                                      n_max=1), 1.0),
    "no-cutoff": (lambda: small_basis(GROSS2), None),
}


def _same_csr(a, b):
    return (a.dtype == b.dtype and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("name", sorted(MEMO_PANEL))
def test_ibc_memo_gives_the_same_operator_in_either_sweep_order(name,
                                                                monkeypatch):
    make, lam = MEMO_PANEL[name]
    basis = make()
    variants, shifts = (1, 2), (0.0, 0.5, 3.0)
    builds = []
    boundary_map = ops._boundary_map
    monkeypatch.setattr(ops, "_boundary_map",
                        lambda *a: builds.append(a) or boundary_map(*a))
    variant_outer = {(v, s): assemble_H_ibc(basis, lam, v, s).matrix
                     for v in variants for s in shifts}
    assert len(builds) == 6
    shift_outer = {(v, s): assemble_H_ibc(basis, lam, v, s).matrix
                   for s in shifts for v in variants}
    assert len(builds) == 9
    # one entry is kept: the last (cutoff, shift) and no other
    assemble_H_ibc(basis, lam, 1, shifts[-1])
    assert len(builds) == 9
    assemble_H_ibc(basis, lam, 1, shifts[0])
    assert len(builds) == 10
    for key, h in shift_outer.items():
        assert _same_csr(h, variant_outer[key]), key
    for v in variants:
        assert verify_identity(assemble_H_direct(basis, lam, v),
                               assemble_H_ibc(basis, lam, v, 3.0)).passed


def test_ibc_memo_never_serves_another_basis():
    # the last pair compares equal as bases: ModelParams leaves its
    # plugin callables out of equality, so the kept part must live on
    # the basis instance, not under a key built from its fields
    g = build_grid(2, 1.0, 3)
    plain = custom_model(2, alpha=0.5, beta=1.0, gamma=1.0, mu=1.0)
    plugin = custom_model(2, alpha=0.5, beta=1.0, gamma=1.0, mu=1.0,
                          theta_fn=lambda p: np.sqrt((p * p).sum(-1) + 4.0))
    bases = [small_basis(GROSS2), MEMO_PANEL["two-complex"][0](),
             enumerate_basis(plain, g, n_max=2),
             enumerate_basis(plugin, g, n_max=2)]
    assert bases[2] == bases[3]
    want = [assemble_H_ibc(basis, 1.0, 1, 0.5).matrix for basis in bases]
    assert not _same_csr(want[2], want[3])
    for i in (0, 1, 0, 1, 2, 3, 2, 3):
        assert _same_csr(assemble_H_ibc(bases[i], 1.0, 1, 0.5).matrix,
                         want[i]), i


def test_ibc_memo_still_raises_after_a_cached_call():
    massless = small_basis(nelson_model(coupling=1.0, mu=1.0, m_boson=0.0),
                           d=3, n_max=1)
    basis = small_basis(GROSS2)
    violating = small_basis(custom_model(3, alpha=0.3, beta=1.0, gamma=1.0,
                                         mu=1.0), d=3, n_max=1)
    for _ in range(2):
        assemble_H_ibc(massless, None, 1, 0.7)
        with pytest.raises(MasslessWithoutShift):
            assemble_H_ibc(massless, None, 1, 0.0)
        assemble_H_ibc(basis, 1.0, 1, 0.5)
        for bad in (-0.5, np.nan):
            with pytest.raises(ValueError, match=">= 0"):
                assemble_H_ibc(basis, 1.0, 1, bad)
        assemble_H_ibc(basis, 1.0, 2, 0.5)
        with pytest.raises(ConditionCViolated):
            assemble_H_ibc(violating, 1.0, 1, 0.5)


@pytest.mark.parametrize("name", sorted(MEMO_PANEL))
def test_ibc_memo_is_not_exposed_to_writes(name):
    make, lam = MEMO_PANEL[name]
    basis = make()
    first = assemble_H_ibc(basis, lam, 1, 0.5)
    want = first.matrix.copy()
    first.matrix.data[:] = 7.0
    assert _same_csr(assemble_H_ibc(basis, lam, 1, 0.5).matrix, want)
    # the creation operator hands out the kept matrix itself: read-only
    kept = assemble_creation(basis, lam).matrix
    for part in ("data", "indices", "indptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(kept, part)[:1] = 0
    fresh = make()
    for build in (lambda b: assemble_creation(b, lam),
                  lambda b: assemble_annihilation(b, lam),
                  lambda b: assemble_G(b, lam, 0.5),
                  lambda b: assemble_H_direct(b, lam, 2),
                  lambda b: assemble_H_ibc(b, lam, 2, 0.5)):
        assert _same_csr(build(basis).matrix, build(fresh).matrix)


# ---------------------------------------------------------------------------
# diagonal and disjoint-pattern algebra on the CSR arrays, bit for bit the
# sparse expressions (merges and diagonal products) it replaces

def _bitwise(a, b):
    """Same dtypes, nnz and bytes of indptr, indices and data: a -0.0
    part differs from +0.0, unlike np.array_equal."""
    return (a.dtype == b.dtype and a.nnz == b.nnz
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in ((a.indptr, b.indptr),
                                 (a.indices, b.indices),
                                 (a.data, b.data))))


def _oracle_g(basis, lam, shift):
    coo = ops._creation_matrix(basis, lam).tocoo()
    lv = basis.free_diagonal + shift
    return sparse.coo_array((coo.data * (-1.0 / lv[coo.row]),
                             (coo.row, coo.col)), shape=coo.shape).tocsr()


def _oracle_t_cutoff(basis, lam, shift):
    g = _oracle_g(basis, lam, shift)
    w = sparse.diags_array(basis.free_diagonal + shift, format="csr")
    return sparse.csr_array(-(g.conj().T @ (w @ g)))


def _oracle_t_od(basis, lam, shift):
    m_nuc = basis.params.n_nucleons
    total = sparse.csr_array((basis.total_dim, basis.total_dim))
    for a in range(m_nuc):
        for b in range(m_nuc):
            if a != b:
                total = total + assemble_theta(basis, a, b, lam,
                                               shift).matrix
            total = total + assemble_tau(basis, a, b, lam, shift).matrix
    return sparse.csr_array(-total)


def _counterterm_diagonal(basis, lam, variant):
    return basis.nucleon_diagonal(ops._counterterm_rows(basis, lam, variant))


def _oracle_h_ibc(basis, lam, variant, shift):
    n = basis.total_dim
    one_minus_g = sparse.csr_array(sparse.eye_array(n, format="csr")
                                   - _oracle_g(basis, lam, shift))
    w = sparse.diags_array(basis.free_diagonal + shift, format="csr")
    prod = sparse.csr_array(one_minus_g.conj().T @ (w @ one_minus_g))
    resolvent = ops._subtract_resolvent_sums(
        basis, np.full(n, -shift, dtype=float), lam, shift)
    base = sparse.csr_array(prod + _oracle_t_od(basis, lam, shift)
                            + sparse.diags_array(resolvent, format="csr"))
    return sparse.csr_array(base + sparse.diags_array(
        _counterterm_diagonal(basis, lam, variant), format="csr"))


def _zero_form_factor_basis():
    # the form factor vanishes on part of the lattice, so the creation
    # matrix stores explicit zeros; one nucleon, so T_od is one piece
    params = custom_model(
        2, alpha=0.5, beta=1.0, gamma=1.0, mu=1.0, m_boson=1.0,
        coupling=-1.0, form_factor_fn=lambda p, k: np.where(
            (k[..., 0] > 0) | (p[..., 1] < 0), 0.0, 1.0) + 0 * p[..., 0])
    return small_basis(params, nax=5, n_max=3)


BITWISE_PANEL = {
    "gross": (lambda: enumerate_basis(GROSS1, build_grid(2, 4.0, 9),
                                      n_max=2), 2.0),
    # theta(0) = 0: the vacuum at zero momentum has zero energy at shift 0
    "nelson": (lambda: small_basis(nelson_model(coupling=0.5, mu=0.0),
                                   d=3, k_max=2.0, nax=5, n_max=1), 1.0),
    "two-nucleon": (lambda: small_basis(GROSS2), None),
    # nucleon 0 couples really: its entries have an imaginary part +0.0
    "complex": MEMO_PANEL["two-complex"],
    "zero-form-factor": (_zero_form_factor_basis, None),
}


@pytest.mark.parametrize("name", sorted(BITWISE_PANEL))
def test_array_algebra_is_bitwise_the_sparse_expressions(name):
    make, lam = BITWISE_PANEL[name]
    basis = make()
    pairs = []
    for shift in (0.0, 1.0, 10.0):
        pairs += [(assemble_G(basis, lam, shift).matrix,
                   _oracle_g(basis, lam, shift)),
                  (assemble_T_cutoff(basis, lam, shift).matrix,
                   _oracle_t_cutoff(basis, lam, shift)),
                  (assemble_T_od(basis, lam, shift).matrix,
                   _oracle_t_od(basis, lam, shift))]
        pairs += [(assemble_H_ibc(basis, lam, v, shift).matrix,
                   _oracle_h_ibc(basis, lam, v, shift)) for v in (1, 2)]
    for k, (got, want) in enumerate(pairs):
        assert _bitwise(got, want), k
        assert (np.count_nonzero(got.data == 0)
                == np.count_nonzero(want.data == 0)), k


def test_sums_store_no_zero_that_the_creation_matrix_stores():
    basis = _zero_form_factor_basis()
    assert np.count_nonzero(assemble_creation(basis, None).matrix.data
                            == 0) > 0
    for m in (assemble_H_direct(basis, None, 1).matrix,
              assemble_T_od(basis, None, 0.0).matrix,
              assemble_H_ibc(basis, None, 1, 0.0).matrix):
        assert m.nnz and np.all(m.data != 0)


@pytest.mark.parametrize("preset", ["gross", "gross_converge",
                                    "gross_regularity", "eckmann",
                                    "nelson"])
def test_creation_is_strictly_lower_triangular_on_every_preset(preset):
    # G maps each sector into the next one, so 1-G has a unit diagonal
    # and the diagonal of (1-G)*(L+lambda)(1-G) is at least L + lambda;
    # None selects every mode, so each cutoff's pattern is a part of it
    cfg = load_config(preset)
    basis = enumerate_basis(cfg.params, build_grid(
        cfg.params.d, cfg.k_max, cfg.n_per_axis), cfg.n_max)
    a = assemble_creation(basis, None).matrix
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert a.nnz and np.all(a.indices < rows)


def test_missing_diagonal_entry_raises_the_named_error():
    full = sparse.csr_array(np.array([[1.0, 0.0, 2.0],
                                      [3.0, 4.0, 0.0],
                                      [0.0, 5.0, 6.0]]))
    assert np.array_equal(ops._diagonal_positions(full), [0, 3, 5])
    for hand_built in (full[[1, 0, 2]], sparse.csr_array(
            np.array([[1.0, 0.0], [2.0, 0.0]]))):
        with pytest.raises(StructureViolated, match="1 diagonal"):
            ops._diagonal_positions(sparse.csr_array(hand_built))


def test_zero_energy_state_without_coupling():
    # cutoff 0 adds no boson, and the vacuum at zero momentum has zero
    # energy: at zero shift the kept boundary route has no diagonal entry
    # there; at a positive shift the entry sums to exactly zero, and the
    # Hamiltonians store no zero, as the sparse sums do
    basis = BITWISE_PANEL["nelson"][0]()
    with pytest.raises(StructureViolated, match="diagonal"):
        assemble_H_ibc(basis, 0.0, 1, 0.0)
    for v in (1, 2):
        hi = assemble_H_ibc(basis, 0.0, v, 0.5).matrix
        assert _bitwise(hi, _oracle_h_ibc(basis, 0.0, v, 0.5))
        assert hi.nnz == assemble_H_direct(basis, 0.0, v).nnz
        assert hi.nnz < basis.total_dim and np.all(hi.data != 0)
    base, diag = ops._ibc_base(basis, 0.0, 0.5)
    assert np.count_nonzero(base.data[diag] == 0) == basis.total_dim - hi.nnz


@pytest.mark.parametrize("name", sorted(MEMO_PANEL))
def test_second_variant_shares_the_kept_pattern(name):
    make, lam = MEMO_PANEL[name]
    basis = make()
    first = assemble_H_ibc(basis, lam, 1, 0.5).matrix
    second = assemble_H_ibc(basis, lam, 2, 0.5).matrix
    base, diag = ops._ibc_base(basis, lam, 0.5)
    for h in (first, second):
        # no merge ran: the index arrays are the kept ones, and only the
        # data array is new
        assert np.shares_memory(h.indices, base.indices)
        assert np.shares_memory(h.indptr, base.indptr)
        assert not np.shares_memory(h.data, base.data)
    assert not np.array_equal(first.data[diag], second.data[diag])
    for arr in (base.data, base.indices, base.indptr, diag):
        assert not arr.flags.writeable


# ---------------------------------------------------------------------------
# structure of the assembled blocks

def test_t_cutoff_vacuum_diagonal_is_minus_variant2_counterterm():
    basis = small_basis(GROSS1, n_max=1)
    t = assemble_T_cutoff(basis, 1.0, 0.0)
    vac = t.matrix.diagonal().real[:basis.nuc_dim]
    p_idx = basis.nucleon_mode_table()[:, 0]
    ct2 = counterterm_grid(p_idx, basis.grid, 1.0, 2, GROSS1)
    assert np.abs(vac + ct2).max() < 1e-15


def test_td_is_real_diagonal_and_vacuum_values():
    basis = small_basis(GROSS1, n_max=1)
    td1 = assemble_Td(basis, 1.0, 1)
    m = td1.matrix.tocoo()
    assert np.all(m.row == m.col)
    assert np.abs(m.data.imag).max() == 0.0
    # variant 1 vacuum diagonal equals the lattice dispersion-shift sum
    p_idx = basis.nucleon_mode_table()[:, 0]
    jg = integral_j_grid(p_idx, basis.grid, 1.0, GROSS1)
    assert np.abs(td1.matrix.diagonal().real[:basis.nuc_dim] - jg).max() < 1e-15
    # variant 2 vacuum diagonal vanishes identically at zero shift
    td2 = assemble_Td(basis, 1.0, 2)
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
    hd = assemble_H_direct(basis, 0.0, 1)
    lv = assemble_L(basis).matrix.diagonal()
    d = hd.matrix - assemble_L(basis).matrix
    d = d.tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
    hi = assemble_H_ibc(basis, 0.0, 1, 1.0)
    assert verify_identity(hd, hi, tol=1e-14).passed
    assert np.abs(hi.matrix.diagonal() - lv).max() < 1e-14


@pytest.mark.parametrize("lam", [np.nan, -1.0])
def test_nan_or_negative_cutoff_is_refused(lam):
    # either one used to select no mode, so that H_direct came out as L
    basis = small_basis(GROSS1, k_max=1.0, nax=3, n_max=1)
    for build in (lambda: assemble_creation(basis, lam),
                  lambda: assemble_H_direct(basis, lam, 1),
                  lambda: assemble_G(basis, lam, 0.5),
                  lambda: assemble_H_ibc(basis, lam, 1, 0.5)):
        with pytest.raises(ValueError, match="cutoff"):
            build()
    # 0 (no mode) and None (the native cutoff) keep their meaning
    assert assemble_creation(basis, 0.0).nnz == 0
    assert assemble_creation(basis, None).nnz > 0


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
    norms = np.linalg.norm(basis.grid.points, axis=-1)
    for r, c in zip(extra.row[:50], extra.col[:50]):
        n_r, _, bos_r = basis.decode(int(r))
        n_c, _, bos_c = basis.decode(int(c))
        assert n_r == n_c + 1
        added = list(bos_r)
        for m in bos_c:
            added.remove(m)
        assert lam1 < norms[added[0]] <= lam2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# lattice T_d against the continuum integrals

@pytest.mark.parametrize("variant, shift", [(1, 0.0), (1, 0.5), (2, 0.0),
                                            (2, 0.5)])
def test_continuum_td_agrees_in_the_interior(variant, shift):
    # on the vacuum of one nucleon T_d is counterterm_grid minus
    # resolvent_sum_grid, the cell sum of -I (variant 1) or -I - J
    # (variant 2); both integrals depend on p only through |p|
    params = GROSS1
    lam_uv = 0.5
    g = build_grid(2, 1.0, 9)
    basis = enumerate_basis(params, g, n_max=1)
    tg = assemble_Td(basis, lam_uv, variant, lambda_shift=shift)
    tg = tg.matrix.diagonal()[:basis.nuc_dim]
    norms = np.linalg.norm(g.points, axis=-1)
    _, first, inverse = np.unique(np.round(norms, 12), return_index=True,
                                  return_inverse=True)
    tc = np.array([
        -integral_I(g.points[i], None, lam_uv, 0, params,
                    lambda_shift=shift).value
        - (integral_J(g.points[i], lam_uv, params).value if variant == 2
           else 0.0)
        for i in first])[inverse]
    diff = np.abs(tg - tc)
    interior = norms <= g.k_max - lam_uv - 1e-9
    # interior states see only the lattice error; edge states also see the
    # recoil modes the box drops, an order-one modeling difference
    assert diff[interior].max() < 5e-3
    assert diff[~interior].max() < 0.5
    if shift == 0.0:
        assert diff[int(np.argmin(norms))] < 1e-12
    if (variant, shift) == (2, 0.0):
        # the continuum side vanishes on the vacuum: I = -J at zero rest
        # energy (the lattice side: test_td_is_real_diagonal_and_vacuum_values)
        assert np.abs(tc).max() < 1e-8


def test_operators_bind_no_continuum_integral():
    # every operator is a lattice sum; the continuum integrals are only
    # what the tests compare the sums against
    for name in ("counterterm", "integral_I", "integral_J",
                 "axisymmetric_integral"):
        assert not hasattr(ops, name)


def test_operators_bind_no_lattice_shift():
    # FockBasis.nucleon_shift is the only configuration shift: the
    # builders never translate lattice indices themselves
    assert not hasattr(ops, "translate_indices")


def test_operators_bind_no_multiset_surgery():
    # FockBasis owns the boson multisets: the builders read its add,
    # remove and occupation tables and never edit or rank a multiset
    assert not hasattr(ops, "_insert_mode") and not hasattr(ops, "_remove_mode")
    source = inspect.getsource(ops)
    for name in ("bos_modes", "rank_bosons", "boson_momenta"):
        assert name not in source


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
        assemble_Td(basis, 1.0, 1)


def test_cutoff_beyond_reach_warns():
    basis = small_basis(GROSS1, n_max=1)
    with pytest.warns(UserWarning, match="exceeds"):
        assemble_creation(basis, 5.0)


@pytest.mark.parametrize("build", [
    lambda b: assemble_creation(b, 5.0),
    lambda b: assemble_annihilation(b, 5.0),
    lambda b: assemble_G(b, 5.0, 0.5),
    lambda b: assemble_T_cutoff(b, 5.0, 0.5),
    lambda b: assemble_H_direct(b, 5.0, 1),
    lambda b: assemble_H_ibc(b, 5.0, 1, 0.5),
], ids=["creation", "annihilation", "G", "T_cutoff", "H_direct", "H_ibc"])
def test_cutoff_beyond_reach_warns_on_every_call(build):
    # the creation matrix is kept on the basis after the first call; the
    # second call must still warn, and point at its own caller
    basis = small_basis(GROSS1, n_max=1)
    for _ in range(2):
        with pytest.warns(UserWarning, match="exceeds") as caught:
            build(basis)
        assert __file__ in {w.filename for w in caught}


def test_ibc_warns_once_beyond_reach_at_its_caller():
    # the first call builds the kept boundary part, which must not warn
    # a second time from inside ops
    basis = small_basis(GROSS1, n_max=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assemble_H_ibc(basis, 5.0, 1, 0.5)
    assert [(w.filename, str(w.message)) for w in caught] == [
        (__file__, "cutoff radius 5 exceeds the boson box reach 1")]


def test_verify_identity_rejects_mismatched_bases():
    b1 = small_basis(GROSS1, n_max=1)
    g = build_grid(2, 2.0, 3)
    b2 = enumerate_basis(GROSS1, g, n_max=1)
    with pytest.raises(BasisMismatch):
        verify_identity(assemble_L(b1), assemble_L(b2))


def test_verify_identity_flags_perturbation():
    basis = small_basis(GROSS1, n_max=1)
    h1 = assemble_H_direct(basis, None, 1)
    m = h1.matrix.tolil(copy=True)
    m[0, 0] += 1e-6
    h2 = type(h1)(basis, m.tocsr(), dict(h1.tags), h1.hermitian_flag)
    rep = verify_identity(h1, h2, tol=1e-10)
    assert not rep.passed
    assert rep.max_abs_diff == pytest.approx(1e-6, rel=1e-6)
    # one diagonal entry: the bound is the norm itself
    assert rep.opnorm_diff_bound == pytest.approx(rep.max_abs_diff, rel=1e-12)
    assert rep.opnorm_diff_bound == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_identity_fails_non_finite_entries(bad):
    # a NaN scale made the relative deviation 0 and the check pass
    basis = small_basis(GROSS1, n_max=1)
    h = assemble_H_direct(basis, None, 1)
    m = h.matrix.copy()
    m.data[3] = bad
    h_bad = SparseOperator(basis, m, dict(h.tags), h.hermitian_flag)
    for a, b in ((h_bad, h_bad), (h, h_bad), (h_bad, h)):
        rep = verify_identity(a, b)
        assert not rep.passed
        assert np.isnan(rep.max_rel_diff)
    assert verify_identity(h, h).passed


def test_verify_identity_is_symmetric_and_leaves_inputs_unchanged():
    params = gross_model(coupling=(1.0, 0.4 + 0.6j), mu=1.0, m_boson=1.0,
                         n_nucleons=2)
    basis = small_basis(params)
    hd = assemble_H_direct(basis, 1.0, 1)
    hi = assemble_H_ibc(basis, 1.0, 1, 0.5)
    before = [(op.matrix.data.copy(), op.matrix.indices.copy(),
               op.matrix.indptr.copy()) for op in (hd, hi)]
    assert verify_identity(hd, hi) == verify_identity(hi, hd)
    for op, (data, indices, indptr) in zip((hd, hi), before):
        assert np.array_equal(op.matrix.data, data)
        assert np.array_equal(op.matrix.indices, indices)
        assert np.array_equal(op.matrix.indptr, indptr)


def test_verify_identity_takes_each_operator_scale_once(monkeypatch):
    # the identity sweep checks one direct operator against every shift;
    # its largest entry is taken once, and the reports do not change
    basis = small_basis(GROSS1, n_max=2)
    hd = assemble_H_direct(basis, 1.0, 1)
    others = [assemble_H_ibc(basis, 1.0, 1, s) for s in (0.0, 0.5, 1.0)]
    prop = SparseOperator.__dict__["_max_abs_entry"]
    seen = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda op: seen.append(op) or real(op))
    reps = [verify_identity(hd, o) for o in others]
    reps += [verify_identity(o, hd) for o in others]
    assert len(seen) == 1 + len(others)
    for op in (hd, *others):
        assert sum(x is op for x in seen) == 1
    for rep, o in zip(reps, others + others):
        scale = max(np.abs(hd.matrix.data).max(), np.abs(o.matrix.data).max())
        assert rep.max_rel_diff == rep.max_abs_diff / scale


# The bound sqrt(||D||_1 ||D||_inf) may meet the spectral norm (it does for
# a diagonal D), where the dense SVD norm and the bound each carry a few
# ulps of rounding; 1e-15 relative absorbs that and nothing more.
_BOUND_RTOL = 1e-15


def _assert_bound_dominates(a, b):
    rep = verify_identity(a, b)
    exact = np.linalg.norm((a.matrix - b.matrix).toarray(), 2)
    assert rep.opnorm_diff_bound >= exact * (1 - _BOUND_RTOL), (rep, exact)
    assert rep.opnorm_diff_bound >= rep.max_abs_diff
    return rep


def _bound_panel_basis(name):
    # k_max = 2 keeps the panel's largest cutoff inside the box
    if name == "gross1":
        return small_basis(GROSS1, k_max=2.0)
    if name == "gross2":
        return small_basis(GROSS2, k_max=2.0, n_max=1)
    if name == "gross2_complex":
        return small_basis(gross_model(coupling=(1.0, 0.8 * np.exp(0.7j)),
                                       mu=1.0, m_boson=1.0, n_nucleons=2),
                           k_max=2.0, n_max=1)
    params = custom_model(1, alpha=0.0, beta=1.0, gamma=1.0, mu=1.0,
                          m_boson=1.0, coupling=(0.8, 0.5), n_nucleons=2)
    return small_basis(params, d=1, k_max=2.0, nax=5)


@pytest.mark.parametrize("name", ["gross1", "gross2", "gross2_complex",
                                  "custom2_d1"])
@pytest.mark.parametrize("lam_uv", [None, 1.0, 2.0])
def test_opnorm_diff_bound_dominates_spectral_norm(name, lam_uv):
    basis = _bound_panel_basis(name)
    hd = assemble_H_direct(basis, lam_uv, 1)
    base = assemble_H_ibc(basis, lam_uv, 1, 0.0)
    shifted = assemble_H_ibc(basis, lam_uv, 1, 0.5)
    for a, b in ((hd, base), (hd, shifted), (base, shifted)):
        assert _assert_bound_dominates(a, b).passed
    # the sabotaged pair of identity --corrupt-offdiag-sign
    t_od = assemble_T_od(basis, lam_uv, lambda_shift=0.0)
    assert t_od.nnz
    bad = SparseOperator(basis, (base.matrix - 2 * t_od.matrix).tocsr())
    assert not _assert_bound_dominates(hd, bad).passed


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(0, 11), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), diagonal=st.booleans())
def test_opnorm_diff_bound_property(n_max, density, seed, diagonal):
    basis = single_mode_basis(n_max)
    n = basis.total_dim
    rng = np.random.default_rng(seed)
    if diagonal:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = sparse.diags_array(vals * (rng.random(n) < density), format="csr")
    else:
        m = sparse.random_array((n, n), density=density, format="csr",
                                dtype=np.complex128, rng=rng)
    zero = SparseOperator(basis, sparse.csr_array((n, n)))
    rep = _assert_bound_dominates(SparseOperator(basis, m), zero)
    if diagonal:
        assert rep.opnorm_diff_bound == pytest.approx(
            np.abs(m.diagonal()).max(), rel=_BOUND_RTOL, abs=0.0)


# ---------------------------------------------------------------------------
# export round-trip

def test_triplet_export_roundtrip(tmp_path):
    basis = small_basis(GROSS1, n_max=1)
    h = assemble_H_ibc(basis, None, 1, 0.5)
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
    export_triplets(assemble_H_direct(basis, None, 1), path)
    assert path.read_text() == (
        '{"basis_sha256": "3e946289e90626d516507ab8ec112deb1cc474a9cf65fec26f'
        'c373704cb099c7", "format": "sparse-triplets-v1", "hermitian": true, '
        '"nnz": 7, "shape": [3, 3], "tags": {"lambda_uv": null, "path": '
        '"direct", "variant": 1}}\n'
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
    h = assemble_H_direct(basis, None, 1).matrix
    _, m = load_triplets(path)
    assert h.dtype == m.dtype == np.float64
    assert np.array_equal(m.indptr, h.indptr)
    assert np.array_equal(m.indices, h.indices)
    assert np.array_equal(m.data, h.data)
    phased = gross_model(coupling=0.8 * np.exp(0.7j), mu=1.0, m_boson=1.0)
    g = build_grid(2, 0.5, 1)
    hc = assemble_H_direct(enumerate_basis(phased, g, n_max=2), None, 1)
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
        "T_d": assemble_Td(basis, 1.0, 1, lambda_shift=0.5),
        "theta": assemble_theta(basis, 0, 1, 1.0, 0.5),
        "tau": assemble_tau(basis, 0, 1, 1.0, 0.5),
        "T_od": assemble_T_od(basis, 1.0, lambda_shift=0.5),
        "H_direct": assemble_H_direct(basis, 1.0, 1),
        "H_ibc": assemble_H_ibc(basis, 1.0, 1, 0.5),
    }
    assert {k: op.matrix.dtype for k, op in ops.items()} == {
        k: np.float64 for k in ops}
    # a complex phase on one coupling makes every off-diagonal builder
    # complex, leaves the diagonals real, and keeps the identity exact
    params = gross_model(coupling=(1.0, 0.8 * np.exp(0.7j)), mu=1.0,
                         m_boson=1.0, n_nucleons=2)
    cb = small_basis(params)
    assert assemble_L(cb).matrix.dtype == np.float64
    assert assemble_Td(cb, 1.0, 1).matrix.dtype == np.float64
    hd = assemble_H_direct(cb, 1.0, 1)
    hi = assemble_H_ibc(cb, 1.0, 1, 0.5)
    for op in (assemble_creation(cb, 1.0), assemble_annihilation(cb, 1.0),
               assemble_G(cb, 1.0, 0.5), assemble_T_cutoff(cb, 1.0, 0.5),
               assemble_theta(cb, 0, 1, 1.0, 0.5),
               assemble_tau(cb, 0, 1, 1.0, 0.5),
               assemble_T_od(cb, 1.0, lambda_shift=0.5), hd, hi):
        assert op.matrix.dtype == np.complex128, op.tags
    assert verify_identity(hd, hi, tol=1e-10).passed
