"""Sparse assembly of the decomposed Hamiltonian on the truncated basis.

Every operator of the boundary decomposition is assembled here: the free
diagonal L, the cutoff creation/annihilation pair, the boundary map G,
the virtual-boson block T and its diagonal/off-diagonal split, and the
two assembly routes to the renormalized Hamiltonian whose exact equality
on the lattice is the package's core correctness check.

Conventions that make the equality exact:

* Annihilation is defined as the matrix adjoint of creation, so dropped
  out-of-lattice recoils never break Hermiticity.
* Occupation-number combinatorics carry the symmetrizer: adding a boson
  to a mode holding m quanta carries sqrt(m+1); the exchange pieces
  carry sqrt(m_q (m_q' + 1)) for distinct modes and plain m_q for a
  coinciding pair (the "+1" part of the coincidence belongs to the
  diagonal and nucleon-exchange pieces, mirroring the continuum split).
* Every virtual-boson piece (the resolvent part of the diagonal, and
  both exchange families) includes only intermediate configurations
  that exist in the truncation: they vanish on the top sector, exactly
  as the composition of truncated operators does.  The counterterm
  stays a plain diagonal at every sector.

Every builder takes the basis and reads the model from basis.params.
The pieces the two routes share have one definition each: the free
diagonal is the basis's cached free_diagonal, the counterterm diagonal
comes from _counterterm_rows, and both exchange families start from
_exchange_tables.

The scalar type is decided in one place, _csr: values with no nonzero
imaginary part are stored as float64, others as complex128.  Every other
builder follows numpy promotion, so real couplings and a real form
factor give real operators throughout.

Assembly is vectorized over states per boson mode, and tau over the
created mode too, so its Python loop runs once per removed mode (pure
per-target-row work, trivially parallelizable); assembled operators are
treated as immutable and safe to share.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import BasisMismatch, ConditionCViolated, MasslessWithoutShift
from .fockgrid import FockBasis, MomentumGrid
from .model import (
    check_condition_c,
    dispersion_boson,
    dispersion_boson_norm,
    dispersion_nucleon,
    form_factor,
)
from .quad import (
    counterterm,
    counterterm_grid,
    grid_mode_mask,
    integral_I,
    integral_J,
    resolvent_sum_grid,
)


@dataclass
class SparseOperator:
    """An assembled operator with its provenance tags.

    hermitian_flag records that the assembly route guarantees (up to
    rounding) a Hermitian matrix; it is verified by tests, not imposed.
    The matrix is float64 unless some entry has a nonzero imaginary
    part, in which case it is complex128 (see _csr).
    """

    basis: FockBasis
    matrix: sparse.csr_array
    tags: dict = field(default_factory=dict)
    hermitian_flag: bool = False

    def __post_init__(self):
        n = self.basis.total_dim
        if self.matrix.shape != (n, n):
            raise ValueError("operator shape %s does not match basis dimension %d"
                             % (self.matrix.shape, n))

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def hermiticity_defect(self) -> float:
        diff = (self.matrix - self.matrix.conj().T).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _csr(rows, cols, vals, dim) -> sparse.csr_array:
    """Sum (row, col, value) pieces; float64 unless some value is complex."""
    if not rows:
        return sparse.csr_array((dim, dim))
    v = np.concatenate(vals)
    if not np.any(np.imag(v)):
        v = np.real(v)
    m = sparse.coo_array((v, (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim)).tocsr()
    m.sum_duplicates()
    return m


def _diag_op(basis, values, tags, hermitian=True) -> SparseOperator:
    return SparseOperator(basis, sparse.diags_array(values, format="csr"),
                          tags, hermitian)


# ---------------------------------------------------------------------------
# lattice shift table

def _shift_table(nuc_grid: MomentumGrid, bos_grid: MomentumGrid,
                 sign: int) -> np.ndarray:
    """(nuc_size, bos_size) flat nucleon index of p + sign*q, -1 when the
    shifted momentum leaves the nucleon lattice (dropped recoil)."""
    a, b = nuc_grid.axis, bos_grid.axis
    t = a[:, None] + sign * b[None, :]
    idx = np.rint((t - a[0]) / nuc_grid.spacing).astype(np.int64)
    ok = (idx >= 0) & (idx < nuc_grid.n_per_axis)
    recon = a[0] + idx * nuc_grid.spacing
    ok &= np.abs(recon - t) <= 1e-9 * max(1.0, nuc_grid.spacing)
    axmap = np.where(ok, idx, -1)
    mn = nuc_grid.multi_indices().astype(np.int64)
    mb = bos_grid.multi_indices().astype(np.int64)
    tgt = axmap[mn[:, None, :], mb[None, :, :]]
    valid = np.all(tgt >= 0, axis=-1)
    strides = nuc_grid.n_per_axis ** np.arange(nuc_grid.d - 1, -1, -1,
                                               dtype=np.int64)
    return np.where(valid, np.maximum(tgt, 0) @ strides, -1)


def _require_shared_lattice(basis: FockBasis):
    a, b = basis.nucleon_grid, basis.boson_grid
    same = (a.d == b.d and a.n_per_axis == b.n_per_axis
            and np.isclose(a.spacing, b.spacing)
            and np.allclose(a.axis, b.axis))
    if not same:
        raise ValueError("grid quadrature requires the nucleon and boson "
                         "grids to share one lattice")


# ---------------------------------------------------------------------------
# multiset surgery (rows are sorted mode tuples)

def _insert_mode(modes: np.ndarray, q) -> np.ndarray:
    """Insert mode q into every sorted row of (..., n) -> (..., n+1); q is
    one mode or an array of modes broadcasting against the row shape."""
    q = np.asarray(q)[..., None]
    shape = (np.broadcast_shapes(modes.shape[:-1], q.shape[:-1])
             + modes.shape[-1:])
    modes = np.broadcast_to(modes, shape)
    pos = (modes < q).sum(axis=-1, keepdims=True)
    cols = np.arange(shape[-1] + 1)
    pad = np.zeros(shape[:-1] + (1,), dtype=modes.dtype)
    left = np.concatenate([modes, pad], axis=-1)
    right = np.concatenate([pad, modes], axis=-1)
    return np.where(cols < pos, left, np.where(cols == pos, q, right))


def _remove_mode(modes: np.ndarray, q: int) -> np.ndarray:
    """Remove one instance of q from every sorted row (rows must hold q)."""
    b, n = modes.shape
    pos = (modes < q).sum(axis=1)
    cols = np.arange(n - 1)
    return np.where(cols < pos[:, None], modes[:, :n - 1], modes[:, 1:])


# ---------------------------------------------------------------------------
# shared pieces

def _counterterm_rows(basis: FockBasis, lambda_uv, variant: int,
                      quad_mode: str) -> np.ndarray:
    """Counterterm of every nucleon configuration (boson independent):
    the per-nucleon lattice twins or continuum integrals, summed over
    nucleons.  The continuum integral depends on a nucleon only through
    |p|, so it is memoized on that norm."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if quad_mode not in ("grid", "continuum"):
        raise ValueError("quad_mode must be 'grid' or 'continuum'")
    if quad_mode == "grid":
        _require_shared_lattice(basis)
    params = basis.params
    nuc_table = basis.nucleon_mode_table().astype(np.int64)
    e_rows = np.zeros(basis.nuc_dim)
    if quad_mode == "grid":
        for ell in range(params.n_nucleons):
            e_rows += counterterm_grid(nuc_table[:, ell], basis.boson_grid,
                                       lambda_uv, variant, params,
                                       i_nucleon=ell)
        return e_rows
    lam_cont = np.inf if lambda_uv is None else lambda_uv
    points = basis.nucleon_grid.points
    norms = np.linalg.norm(points, axis=-1)
    memo = {}
    for ell in range(params.n_nucleons):
        p_idx = nuc_table[:, ell]
        for flat in np.unique(p_idx):
            key = (ell, round(float(norms[flat]), 12))
            if key not in memo:
                memo[key] = counterterm(points[flat], lam_cont, variant,
                                        params, i_nucleon=ell).value
        e_rows += np.array([memo[(ell, round(float(norms[f]), 12))]
                            for f in p_idx])
    return e_rows


# ---------------------------------------------------------------------------
# free diagonal

def assemble_L(basis: FockBasis) -> SparseOperator:
    """Free-energy diagonal: sum of nucleon dispersions plus boson
    dispersions of each configuration."""
    return _diag_op(basis, basis.free_diagonal, {"path": "diag", "kind": "L"})


# ---------------------------------------------------------------------------
# creation / annihilation

def _creation_matrix(basis: FockBasis, lambda_uv) -> sparse.csr_array:
    params = basis.params
    nuc, bos = basis.nucleon_grid, basis.boson_grid
    if lambda_uv is not None and lambda_uv > bos.k_max * (1 + 1e-12):
        warnings.warn("cutoff radius %.6g exceeds the boson box reach %.6g"
                      % (lambda_uv, bos.k_max), stacklevel=3)
    mask = grid_mode_mask(bos, lambda_uv, params)
    tbl = _shift_table(nuc, bos, sign=-1)
    nuc_table = basis.nucleon_mode_table().astype(np.int64)
    m_nuc = params.n_nucleons
    strides = nuc.size ** np.arange(m_nuc - 1, -1, -1, dtype=np.int64)
    sqrt_w = bos.cell_weight ** 0.5
    nuc_flat = np.arange(basis.nuc_dim, dtype=np.int64)
    rows, cols, vals = [], [], []
    for n in range(basis.n_max):
        modes = basis.bos_modes[n]
        b_dim = basis.bos_dim(n)
        all_bos = np.arange(b_dim, dtype=np.int64)
        for q in np.flatnonzero(mask):
            q_pt = bos.points[q]
            new_modes = _insert_mode(modes.astype(np.int64), q)
            tgt_bos = basis.rank_bosons(n + 1, new_modes)
            mult = np.sqrt((modes == q).sum(axis=1) + 1.0)
            for i in range(m_nuc):
                src_mode = nuc_table[:, i]
                tgt_mode = tbl[src_mode, q]
                ok = tgt_mode >= 0
                if not ok.any():
                    continue
                src_nuc = nuc_flat[ok]
                tgt_nuc = src_nuc + (tgt_mode[ok] - src_mode[ok]) * strides[i]
                amp = np.broadcast_to(
                    np.asarray(form_factor(i, nuc.points[tgt_mode[ok]], q_pt,
                                           params) * sqrt_w),
                    src_nuc.shape)
                r = basis.state_index(n + 1, tgt_nuc[:, None], tgt_bos[None, :])
                c = basis.state_index(n, src_nuc[:, None], all_bos[None, :])
                v = amp[:, None] * mult[None, :]
                rows.append(r.ravel())
                cols.append(c.ravel())
                vals.append(v.ravel())
    return _csr(rows, cols, vals, basis.total_dim)


def assemble_creation(basis: FockBasis, lambda_uv) -> SparseOperator:
    """Cutoff creation operator: adds one boson below the cutoff radius
    with the emitting nucleon recoiling on the lattice (out-of-lattice
    recoils are dropped)."""
    m = _creation_matrix(basis, lambda_uv)
    return SparseOperator(basis, m, {"path": "direct", "kind": "creation",
                                     "lambda_uv": lambda_uv}, False)


def assemble_annihilation(basis: FockBasis, lambda_uv) -> SparseOperator:
    """Exact matrix adjoint of assemble_creation (the defining property)."""
    m = _creation_matrix(basis, lambda_uv).conj().T.tocsr()
    return SparseOperator(basis, m, {"path": "direct", "kind": "annihilation",
                                     "lambda_uv": lambda_uv}, False)


# ---------------------------------------------------------------------------
# boundary map G and the virtual-boson block

def _check_shift(basis: FockBasis, lambda_shift: float) -> None:
    if basis.params.m_boson == 0.0 and lambda_shift <= 0.0:
        raise MasslessWithoutShift(
            "massless bosons need a positive energy shift lambda")
    if lambda_shift < 0.0:
        raise ValueError("lambda_shift must be >= 0")


def _boundary_map(a_mat: sparse.csr_array, lv: np.ndarray) -> sparse.csr_array:
    """-(L + lambda)^(-1) a*(V) from the creation matrix and the shifted
    free diagonal lv.  Rows of a*(V) are scaled directly: its range misses
    the states (if any) where L + lambda could vanish, so only positive
    energies divide."""
    coo = a_mat.tocoo()
    return sparse.coo_array((coo.data * (-1.0 / lv[coo.row]),
                             (coo.row, coo.col)), shape=coo.shape).tocsr()


def assemble_G(basis: FockBasis, lambda_uv,
               lambda_shift: float) -> SparseOperator:
    """Boundary map G = -(L + lambda)^(-1) a*(V)."""
    _check_shift(basis, lambda_shift)
    g = _boundary_map(_creation_matrix(basis, lambda_uv),
                      basis.free_diagonal + lambda_shift)
    return SparseOperator(basis, g, {"path": "ibc", "kind": "G",
                                     "lambda_uv": lambda_uv,
                                     "lambda_shift": lambda_shift}, False)


def assemble_T_cutoff(basis: FockBasis, lambda_uv,
                      lambda_shift: float) -> SparseOperator:
    """Virtual-boson block T = -G*(L+lambda)G; the equal product a(V)G is
    also formed and the agreement recorded in the tags."""
    _check_shift(basis, lambda_shift)
    a_mat = _creation_matrix(basis, lambda_uv)
    lv = basis.free_diagonal + lambda_shift
    g = _boundary_map(a_mat, lv)
    w = sparse.diags_array(lv, format="csr")
    t_main = sparse.csr_array(-(g.conj().T @ (w @ g)))
    t_alt = sparse.csr_array(a_mat.conj().T @ g)
    diff = (t_main - t_alt).tocoo()
    agreement = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    return SparseOperator(basis, t_main,
                          {"path": "ibc", "kind": "T_cutoff",
                           "lambda_uv": lambda_uv,
                           "lambda_shift": lambda_shift,
                           "product_agreement": agreement}, True)


# ---------------------------------------------------------------------------
# diagonal part of the renormalized block

#: states per resolvent_sum_grid call, and (mode, state) pairs per
#: assemble_tau block; bounds the temporaries of both
_TD_CHUNK = 40_000


def assemble_Td(basis: FockBasis, lambda_uv, variant: int, quad_mode: str,
                lambda_shift: float = 0.0) -> SparseOperator:
    """Diagonal multiplier of the renormalized virtual-boson block.

    Equals counterterm(variant) minus the resolvent sum over one-boson
    intermediates; the resolvent part is present only below the top
    sector, where the intermediates exist in the truncation.  On inner
    sectors this is the familiar subtracted combination (variant 1 drops
    the dispersion-shift part, variant 2 includes it).
    """
    params = basis.params
    report = check_condition_c(params)
    if not report.holds:
        raise ConditionCViolated(
            "ultraviolet degree %.6g outside [0, %.6g)"
            % (report.uv_degree, report.bound))
    grid = basis.boson_grid
    m_nuc = params.n_nucleons
    nuc_table = basis.nucleon_mode_table().astype(np.int64)
    theta_pt = dispersion_nucleon(basis.nucleon_grid.points, params)
    theta_state = theta_pt[nuc_table].sum(axis=1)
    lam_cont = np.inf if lambda_uv is None else lambda_uv

    diag = basis.nucleon_diagonal(
        _counterterm_rows(basis, lambda_uv, variant, quad_mode))
    memo_j = {}
    for n in range(basis.n_max):
        b_dim = basis.bos_dim(n)
        sl = basis.sector_slice(n)
        omega_b = dispersion_boson(basis.boson_momenta(n), params).sum(axis=-1)
        if quad_mode == "grid":
            for ell in range(m_nuc):
                p_rep = np.repeat(nuc_table[:, ell], b_dim)
                rest = (np.repeat(theta_state - theta_pt[nuc_table[:, ell]],
                                  b_dim)
                        + np.tile(omega_b, basis.nuc_dim))
                out = np.empty(p_rep.shape[0])
                for lo in range(0, p_rep.shape[0], _TD_CHUNK):
                    hi = min(lo + _TD_CHUNK, p_rep.shape[0])
                    out[lo:hi] = resolvent_sum_grid(
                        p_rep[lo:hi], rest[lo:hi], grid, lambda_uv, params,
                        i_nucleon=ell, lambda_shift=lambda_shift)
                diag[sl] -= out
        else:
            # the subtracted integral depends on the state only through
            # (|p_ell|, rest energy) -- the same rotation covariance the
            # axial quadrature already assumes -- so memoize on that pair
            nuc_p = basis.nucleon_momenta()
            bos_k = basis.boson_momenta(n)
            p_norm_pt = np.linalg.norm(basis.nucleon_grid.points, axis=-1)
            memo_i = {}
            sector = np.empty(basis.sector_dims[n])
            for a in range(basis.nuc_dim):
                for b in range(b_dim):
                    val = 0.0
                    for ell in range(m_nuc):
                        flat = int(nuc_table[a, ell])
                        rest = (theta_state[a] - theta_pt[flat] + omega_b[b])
                        key = (ell, round(float(p_norm_pt[flat]), 12),
                               round(float(rest), 12))
                        if key not in memo_i:
                            memo_i[key] = integral_I(
                                nuc_p[a], bos_k[b], lam_cont, ell, params,
                                lambda_shift=lambda_shift).value
                        val -= memo_i[key]
                        if variant == 2:
                            jkey = (ell, round(float(p_norm_pt[flat]), 12))
                            if jkey not in memo_j:
                                memo_j[jkey] = integral_J(
                                    nuc_p[a, ell], lam_cont, params,
                                    i_nucleon=ell).value
                            val -= memo_j[jkey]
                    sector[a * b_dim + b] = val
            diag[sl] = sector
    return _diag_op(basis, diag, {"path": "ibc", "kind": "Td",
                                  "lambda_uv": lambda_uv, "variant": variant,
                                  "lambda_shift": lambda_shift,
                                  "quad_mode": quad_mode})


# ---------------------------------------------------------------------------
# off-diagonal exchange pieces

def _exchange_tables(basis: FockBasis, i: int, ell: int, lambda_uv):
    """Lattice tables both exchange families share, for a validated
    nucleon pair: the active boson modes, the p - q and p + q shift
    tables, the per-nucleon index table with its flat-index strides, the
    nucleon dispersion per lattice point and per configuration, and the
    boson dispersion per mode."""
    params = basis.params
    m_nuc = params.n_nucleons
    if not (0 <= i < m_nuc and 0 <= ell < m_nuc):
        raise IndexError("nucleon index out of range")
    nuc, bos = basis.nucleon_grid, basis.boson_grid
    nuc_table = basis.nucleon_mode_table().astype(np.int64)
    theta_pt = dispersion_nucleon(nuc.points, params)
    strides = nuc.size ** np.arange(m_nuc - 1, -1, -1, dtype=np.int64)
    return (np.flatnonzero(grid_mode_mask(bos, lambda_uv, params)),
            _shift_table(nuc, bos, sign=-1), _shift_table(nuc, bos, sign=+1),
            nuc_table, strides, theta_pt, theta_pt[nuc_table].sum(axis=1),
            dispersion_boson_norm(bos.norms(), params))


def assemble_theta(basis: FockBasis, i: int, ell: int, lambda_uv,
                   lambda_shift: float = 0.0) -> SparseOperator:
    """Nucleon-exchange piece: the virtual boson is emitted by nucleon i
    and reabsorbed by nucleon ell (i != ell), the boson content of the
    state unchanged.  Always a lattice sum: continuum quadrature applies
    only to diagonal multipliers.
    """
    if i == ell:
        raise IndexError("theta needs two distinct nucleon indices")
    (active, tbl_minus, tbl_plus, nuc_table, strides, theta_pt, theta_state,
     om) = _exchange_tables(basis, i, ell, lambda_uv)
    params = basis.params
    nuc, bos = basis.nucleon_grid, basis.boson_grid
    nuc_flat = np.arange(basis.nuc_dim, dtype=np.int64)
    rows, cols, vals = [], [], []
    for n in range(basis.n_max):           # intermediates live in sector n+1
        b_dim = basis.bos_dim(n)
        all_bos = np.arange(b_dim, dtype=np.int64)
        omega_b = dispersion_boson(basis.boson_momenta(n), params).sum(axis=-1)
        for q in active:
            q_pt = bos.points[q]
            src_i = nuc_table[:, i]
            z_i = tbl_minus[src_i, q]
            x_ell = tbl_plus[nuc_table[:, ell], q]
            ok = (z_i >= 0) & (x_ell >= 0)
            if not ok.any():
                continue
            src_nuc = nuc_flat[ok]
            tgt_nuc = (src_nuc + (z_i[ok] - src_i[ok]) * strides[i]
                       + (x_ell[ok] - nuc_table[ok, ell]) * strides[ell])
            wgt = np.broadcast_to(
                np.asarray(np.conj(form_factor(ell,
                                               nuc.points[nuc_table[ok, ell]],
                                               q_pt, params))
                           * form_factor(i, nuc.points[z_i[ok]], q_pt, params)
                           * bos.cell_weight),
                src_nuc.shape)
            theta_z = theta_state[ok] - theta_pt[src_i[ok]] + theta_pt[z_i[ok]]
            den = (theta_z[:, None] + omega_b[None, :]
                   + (om[q] + lambda_shift))
            r = basis.state_index(n, tgt_nuc[:, None], all_bos[None, :])
            c = basis.state_index(n, src_nuc[:, None], all_bos[None, :])
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append((wgt[:, None] / den).ravel())
    m = _csr(rows, cols, vals, basis.total_dim)
    return SparseOperator(basis, m, {"path": "ibc", "kind": "theta",
                                     "i": i, "ell": ell,
                                     "lambda_uv": lambda_uv,
                                     "lambda_shift": lambda_shift}, False)


def assemble_tau(basis: FockBasis, i: int, ell: int, lambda_uv,
                 lambda_shift: float = 0.0) -> SparseOperator:
    """Boson-exchange piece: nucleon i emits a boson while nucleon ell
    absorbs one already present (i = ell allowed).  Vanishes on the
    vacuum sector and on the top sector (no room for the intermediate).
    Always a lattice sum, as for assemble_theta.
    """
    (active, tbl_minus, tbl_plus, nuc_table, strides, theta_pt, theta_state,
     om) = _exchange_tables(basis, i, ell, lambda_uv)
    params = basis.params
    nuc, bos = basis.nucleon_grid, basis.boson_grid
    # nucleon side: y --(i emits q2)--> z --(ell absorbs q)--> x; rows run
    # over the created mode q2 in active order, columns over configurations
    src_i = nuc_table[:, i]
    z_i = tbl_minus[src_i[None, :], active[:, None]]
    z_ell = z_i if i == ell else np.broadcast_to(nuc_table[:, ell], z_i.shape)

    # form factor of nucleon j per (active mode, lattice point): one call
    # per mode with a single boson momentum, as in _creation_matrix and
    # assemble_theta, so every assembly sees the same values bit for bit
    def ff_table(j):
        return np.array([
            np.broadcast_to(form_factor(j, nuc.points, bos.points[q], params),
                            nuc.size)
            for q in active]).reshape(active.size, nuc.size)

    ff_i = ff_table(i)
    ff_ell = ff_i if i == ell else ff_table(ell)
    rows, cols, vals = [], [], []
    for n in range(1, basis.n_max):        # intermediates live in sector n+1
        modes = basis.bos_modes[n].astype(np.int64)
        omega_b = dispersion_boson(basis.boson_momenta(n), params).sum(axis=-1)
        for a, q in enumerate(active):     # mode removed from the source
            cnt_q = (modes == q).sum(axis=1)
            r_sel = np.flatnonzero(cnt_q >= 1)
            if r_sel.size == 0:
                continue
            reduced = _remove_mode(modes[r_sel], q)
            cnt_q_r = cnt_q[r_sel].astype(float)
            x_ell = tbl_plus[np.maximum(z_ell, 0), q]
            ok_all = (z_i >= 0) & (x_ell >= 0)
            # blocks of created modes q2, at most _TD_CHUNK (mode, state) pairs
            step = max(1, _TD_CHUNK // (basis.nuc_dim * r_sel.size))
            for lo in range(0, active.size, step):
                blk = slice(lo, lo + step)
                k2, src_nuc = np.nonzero(ok_all[blk])
                if src_nuc.size == 0:
                    continue
                q2 = active[blk]
                tgt_bos = basis.rank_bosons(n, _insert_mode(reduced,
                                                            q2[:, None]))
                cnt_q2 = (modes[r_sel] == q2[:, None, None]).sum(axis=-1)
                bf = np.where((q2 == q)[:, None], cnt_q_r,
                              np.sqrt(cnt_q_r * (cnt_q2 + 1.0)))
                zi = z_i[blk][k2, src_nuc]
                ze = z_ell[blk][k2, src_nuc]
                tgt_nuc = (src_nuc + (zi - src_i[src_nuc]) * strides[i]
                           + (x_ell[blk][k2, src_nuc] - ze) * strides[ell])
                wgt = (np.conj(ff_ell[a, ze]) * ff_i[blk][k2, zi]
                       * bos.cell_weight)
                theta_z = (theta_state[src_nuc] - theta_pt[src_i[src_nuc]]
                           + theta_pt[zi])
                den = (theta_z[:, None] + omega_b[r_sel][None, :]
                       + (om[q2[k2]] + lambda_shift)[:, None])
                v = wgt[:, None] * bf[k2] / den
                r = basis.state_index(n, tgt_nuc[:, None], tgt_bos[k2])
                c = basis.state_index(n, src_nuc[:, None], r_sel[None, :])
                rows.append(r.ravel())
                cols.append(c.ravel())
                vals.append(v.ravel())
    m = _csr(rows, cols, vals, basis.total_dim)
    return SparseOperator(basis, m, {"path": "ibc", "kind": "tau",
                                     "i": i, "ell": ell,
                                     "lambda_uv": lambda_uv,
                                     "lambda_shift": lambda_shift}, False)


def assemble_T_od(basis: FockBasis, lambda_uv,
                  lambda_shift: float = 0.0) -> SparseOperator:
    """Off-diagonal renormalized block: minus the sum of all

    nucleon-exchange pieces (i != ell) and boson-exchange pieces (all
    pairs), with the explicit minus signs of the decomposition."""
    m_nuc = basis.params.n_nucleons
    total = sparse.csr_array((basis.total_dim, basis.total_dim))
    for a in range(m_nuc):
        for b in range(m_nuc):
            if a != b:
                total = total + assemble_theta(basis, a, b, lambda_uv,
                                               lambda_shift).matrix
            total = total + assemble_tau(basis, a, b, lambda_uv,
                                         lambda_shift).matrix
    return SparseOperator(basis, sparse.csr_array(-total),
                          {"path": "ibc", "kind": "T_od",
                           "lambda_uv": lambda_uv,
                           "lambda_shift": lambda_shift}, False)


# ---------------------------------------------------------------------------
# the two Hamiltonian assembly routes

def assemble_H_direct(basis: FockBasis, lambda_uv, variant: int,
                      quad_mode: str) -> SparseOperator:
    """Direct route: free diagonal plus the cutoff interaction pair plus
    the counterterm diagonal."""
    e_rows = _counterterm_rows(basis, lambda_uv, variant, quad_mode)
    a_mat = _creation_matrix(basis, lambda_uv)
    diag = basis.free_diagonal + basis.nucleon_diagonal(e_rows)
    h = sparse.csr_array(sparse.diags_array(diag, format="csr")
                         + a_mat + a_mat.conj().T)
    return SparseOperator(basis, h, {"path": "direct",
                                     "lambda_uv": lambda_uv,
                                     "variant": variant,
                                     "quad_mode": quad_mode}, True)


def assemble_H_ibc(basis: FockBasis, lambda_uv, variant: int,
                   lambda_shift: float, quad_mode: str) -> SparseOperator:
    """Boundary route: (1-G)*(L+lambda)(1-G) + T_d + T_od - lambda.

    Algebraically equal to the direct route for every cutoff, variant
    and shift; the equality on the lattice is the package's central
    correctness check.
    """
    g_op = assemble_G(basis, lambda_uv, lambda_shift)
    lv = basis.free_diagonal + lambda_shift
    one = sparse.eye_array(basis.total_dim, format="csr")
    one_minus_g = sparse.csr_array(one - g_op.matrix)
    w = sparse.diags_array(lv, format="csr")
    prod = sparse.csr_array(one_minus_g.conj().T @ (w @ one_minus_g))
    td = assemble_Td(basis, lambda_uv, variant, quad_mode,
                     lambda_shift=lambda_shift)
    tod = assemble_T_od(basis, lambda_uv, lambda_shift=lambda_shift)
    h = sparse.csr_array(prod + td.matrix + tod.matrix
                         - lambda_shift * one)
    return SparseOperator(basis, h, {"path": "ibc",
                                     "lambda_uv": lambda_uv,
                                     "variant": variant,
                                     "lambda_shift": lambda_shift,
                                     "quad_mode": quad_mode}, True)


# ---------------------------------------------------------------------------
# identity verification and export

@dataclass(frozen=True)
class IdentityReport:
    max_abs_diff: float
    max_rel_diff: float
    opnorm_diff_estimate: float
    tol: float
    passed: bool


@functools.lru_cache(maxsize=1)
def _start_vector(dim: int) -> np.ndarray:
    """Fixed-seed complex unit vector of the power iteration; read-only,
    since the identity sweep reuses it for every pair of one dimension."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return x


def verify_identity(a: SparseOperator, b: SparseOperator,
                    tol: float = 1e-10) -> IdentityReport:
    """Entrywise and norm-estimate comparison of two assembled operators
    on the same basis; passes when the largest entry difference, scaled
    by the largest entry magnitude, stays below tol."""
    if a.basis.manifest() != b.basis.manifest():
        raise BasisMismatch("operators live on different bases")
    d = (a.matrix - b.matrix).tocsr()
    max_abs = float(np.abs(d.data).max()) if d.nnz else 0.0
    scale = 0.0
    for m in (a.matrix, b.matrix):
        if m.nnz:
            scale = max(scale, float(np.abs(m.data).max()))
    max_rel = max_abs / scale if scale > 0 else 0.0
    # power iteration on D* D for a spectral-norm estimate; D is cast to
    # complex once, as every product with the complex vector would do
    d = d.astype(np.complex128, copy=False)
    x = _start_vector(d.shape[1])
    est = 0.0
    dh = d.conj().T.tocsr()
    for _ in range(12):
        y = dh @ (d @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            est = 0.0
            break
        est = np.sqrt(ny)
        x = y / ny
    return IdentityReport(max_abs, max_rel, float(est), tol,
                          bool(max_rel <= tol))


def basis_digest(basis: FockBasis) -> str:
    """Stable hash of the basis manifest (labels exported operators)."""
    blob = json.dumps(basis.manifest(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def export_triplets(op: SparseOperator, path) -> None:
    """Write the operator as a JSON header line followed by one
    "row col re im" line per stored entry (row-major order)."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    header = {
        "format": "sparse-triplets-v1",
        "shape": [int(s) for s in coo.shape],
        "nnz": int(coo.nnz),
        "hermitian": bool(op.hermitian_flag),
        "tags": {k: (None if v is None else
                     (v if isinstance(v, (str, int, bool)) else float(v)))
                 for k, v in op.tags.items()},
        "basis_sha256": basis_digest(op.basis),
    }
    # one float table formatted in a single pass; indices stay exact
    # in float64 far beyond any basis dimension
    table = np.column_stack((coo.row[order], coo.col[order],
                             coo.data.real[order], coo.data.imag[order]))
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("%d %d %.17g %.17g\n" * coo.nnz
                 % tuple(table.ravel().tolist()))


def load_triplets(path):
    """Read back an exported operator: (header dict, csr matrix)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        table = np.array(fh.read().split(), dtype=float).reshape(-1, 4)
    idx = table[:, :2].astype(np.int64)
    m = _csr([idx[:, 0]], [idx[:, 1]], [table[:, 2] + 1j * table[:, 3]],
             header["shape"][0])
    return header, m
