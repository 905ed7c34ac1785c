"""Sparse assembly of the decomposed Hamiltonian on the truncated basis.

Every operator of the boundary decomposition is assembled here: the free
diagonal L, the cutoff creation/annihilation pair, the boundary map G,
the virtual-boson block T and its diagonal/off-diagonal split, and the
two assembly routes to the renormalized Hamiltonian whose exact equality
on the lattice is the package's core correctness check.  verify_identity
makes that check entry by entry and reports a rigorous upper bound on
the spectral norm of the difference, from one pass over its entries.

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
Every operator is a lattice cell sum: the continuum integrals of quad
are the limits these sums are compared against in the tests, never an
input to an operator.  The pieces the two routes share have one
definition each: the free diagonal is the basis's cached free_diagonal,
the counterterm diagonal comes from _counterterm_rows, the resolvent
sums of T_d from _subtract_resolvent_sums, the creation matrix from
_creation_matrix, the direct-route sum from _direct_matrix, and both
exchange families start from _exchange_tables.  _kept keeps the last
value of two builders on the basis instance, as free_diagonal is, never
shared by equal bases: the creation matrix, which every builder takes,
and _ibc_base, the boundary route without the counterterm diagonal,
together with the positions of its diagonal entries.

Diagonal factors and diagonal sums of the boundary route are worked on
the CSR data arrays, with the floating-point operations of the sparse
products and sums they replace, so every operator is bit for bit what
those give.  _diag_scaled multiplies each stored entry by its row's or
column's factor in place of a product with a diagonal matrix (G, W G
and W(1-G) with W = L + lambda).  The kept boundary route stores every
diagonal entry, which _diagonal_positions checks (StructureViolated
otherwise), so the resolvent and counterterm diagonals are added at
those positions, and each variant's Hamiltonian is a new data array on
the kept index arrays; a diagonal sum of exactly zero is dropped, as a
sparse sum drops it.  Sums of overlapping or off-diagonal patterns stay
scipy's merges, which are faster than a numpy layout of the same sum.

Nucleon and boson momenta live on the basis's one lattice, so a
nucleon moved by a boson momentum (creation, G, T, the exchange pieces
and both Hamiltonians) lands on a lattice point or leaves the box, and
FockBasis.nucleon_shift is the only configuration shift.  A boson is
added or removed only through the FockBasis.boson_add and boson_remove
rank tables, with its occupation from boson_count and the state
energies from nucleon_energy and boson_energy.  Builders loop over the
states that FockBasis.sector_states lists and never see the state
layout or a boson multiset.

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

from .errors import BasisMismatch, ConditionCViolated, StructureViolated
from .fockgrid import FockBasis
from .model import (
    check_condition_c,
    dispersion_boson_norm,
    dispersion_nucleon,
    form_factor,
)
from .quad import check_shift, counterterm_grid, grid_mode_mask, resolvent_sum_grid


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

    @functools.cached_property
    def _max_abs_entry(self) -> float:
        """Largest entry magnitude (0 when nothing is stored), taken once:
        verify_identity compares one operator against several others."""
        m = self.matrix
        return float(np.abs(m.data).max()) if m.nnz else 0.0

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
# shared pieces

def _kept(build):
    """Keep build(basis, *key)'s last value read-only in that basis's own
    __dict__; a new key drops it first.  The value is a CSR matrix or a
    tuple of a CSR matrix and arrays.  Builds call kept.__wrapped__."""
    slot = "_kept_" + build.__name__

    @functools.wraps(build)
    def kept(basis: FockBasis, *key):
        store = vars(basis)
        if store.get(slot, (None,))[0] != key:
            store.pop(slot, None)
            value = kept.__wrapped__(basis, *key)
            for part in value if isinstance(value, tuple) else (value,):
                arrays = ((part.data, part.indices, part.indptr)
                          if sparse.issparse(part) else (part,))
                for arr in arrays:
                    arr.flags.writeable = False
            store[slot] = (key, value)
        return store[slot][1]
    return kept


def _entry_rows(m: sparse.csr_array) -> np.ndarray:
    """Row of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype),
                     np.diff(m.indptr))


def _diagonal_positions(m: sparse.csr_array) -> np.ndarray:
    """Position in m.data of the diagonal entry of every row of a
    canonical CSR matrix; StructureViolated if some row stores none."""
    pos = np.flatnonzero(m.indices == _entry_rows(m))
    if pos.size != m.shape[0]:
        raise StructureViolated("no entry stored on %d diagonal positions"
                                % (m.shape[0] - pos.size))
    return pos


def _diag_scaled(m: sparse.csr_array, rows=None,
                 cols=None) -> sparse.csr_array:
    """diag(rows) @ m @ diag(cols), either factor optional, on m's own
    pattern: one multiplication per stored entry and factor, where a
    sparse product would also convert, reorder and drop zero products.
    The index arrays are m's own, shared."""
    data = m.data
    if rows is not None:
        data = data * rows[_entry_rows(m)]
    if cols is not None:
        data = data * cols[m.indices]
    return sparse.csr_array((data, m.indices, m.indptr), shape=m.shape)


def _form_factors(basis: FockBasis, j: int, modes) -> np.ndarray:
    """(len(modes), lattice size) table of nucleon j's form factor: one
    call per boson mode over the whole lattice, so that every builder
    sees the same values bit for bit."""
    grid = basis.grid
    return np.array([
        np.broadcast_to(form_factor(j, grid.points, grid.points[q],
                                    basis.params), grid.size)
        for q in modes]).reshape(len(modes), grid.size)


def _counterterm_rows(basis: FockBasis, lambda_uv,
                      variant: int) -> np.ndarray:
    """Counterterm of every nucleon configuration (boson independent):
    the per-nucleon lattice twins, summed over nucleons."""
    params = basis.params
    nuc_table = basis.nucleon_mode_table()
    e_rows = np.zeros(basis.nuc_dim)
    for ell in range(params.n_nucleons):
        e_rows += counterterm_grid(nuc_table[:, ell], basis.grid,
                                   lambda_uv, variant, params, i_nucleon=ell)
    return e_rows


# ---------------------------------------------------------------------------
# free diagonal

def assemble_L(basis: FockBasis) -> SparseOperator:
    """Free-energy diagonal: sum of nucleon dispersions plus boson
    dispersions of each configuration."""
    return _diag_op(basis, basis.free_diagonal, {"path": "diag", "kind": "L"})


# ---------------------------------------------------------------------------
# creation / annihilation

def _warn_beyond_reach(basis: FockBasis, lambda_uv) -> None:
    """Warn at the caller of the public function that calls this (the
    builders and the convergence study) if the cutoff exceeds the box."""
    k_max = basis.grid.k_max
    if lambda_uv is not None and lambda_uv > k_max * (1 + 1e-12):
        warnings.warn("cutoff radius %.6g exceeds the boson box reach %.6g"
                      % (lambda_uv, k_max), stacklevel=3)


@_kept
def _creation_matrix(basis: FockBasis, lambda_uv) -> sparse.csr_array:
    params = basis.params
    mask = grid_mode_mask(basis.grid, lambda_uv, params)
    nuc_table = basis.nucleon_mode_table()
    sqrt_w = basis.grid.cell_weight ** 0.5
    rows, cols, vals = [], [], []
    for n in range(basis.n_max):
        cfg, rank = basis.sector_states(n)
        start = basis.sector_slice(n).start
        add, count = basis.boson_add(n), basis.boson_count(n)
        for q in np.flatnonzero(mask):
            mult = np.sqrt(count[:, q] + 1.0)
            for i in range(params.n_nucleons):
                tgt = basis.nucleon_shift(i, -1)[:, q][cfg]
                src = np.flatnonzero(tgt >= 0)
                if src.size == 0:
                    continue
                tgt, r = tgt[src], rank[src]
                amp = _form_factors(basis, i, [q])[0] * sqrt_w
                rows.append(basis.state_index(n + 1, tgt, add[r, q]))
                cols.append(start + src)
                vals.append(amp[nuc_table[:, i][tgt]] * mult[r])
    return _csr(rows, cols, vals, basis.total_dim)


def assemble_creation(basis: FockBasis, lambda_uv) -> SparseOperator:
    """Cutoff creation operator: adds one boson below the cutoff radius
    with the emitting nucleon recoiling on the lattice (out-of-lattice
    recoils are dropped).  The matrix is the kept, read-only one."""
    _warn_beyond_reach(basis, lambda_uv)
    m = _creation_matrix(basis, lambda_uv)
    return SparseOperator(basis, m, {"path": "direct", "kind": "creation",
                                     "lambda_uv": lambda_uv}, False)


def assemble_annihilation(basis: FockBasis, lambda_uv) -> SparseOperator:
    """Exact matrix adjoint of assemble_creation (the defining property)."""
    _warn_beyond_reach(basis, lambda_uv)
    m = _creation_matrix(basis, lambda_uv).conj().T.tocsr()
    return SparseOperator(basis, m, {"path": "direct", "kind": "annihilation",
                                     "lambda_uv": lambda_uv}, False)


# ---------------------------------------------------------------------------
# boundary map G and the virtual-boson block

def _boundary_map(basis: FockBasis, lambda_uv,
                  lambda_shift: float) -> sparse.csr_array:
    """-(L + lambda)^(-1) a*(V) from the kept creation matrix.  Rows of
    a*(V) are scaled directly: its range misses the states (if any) where
    L + lambda could vanish, so only positive energies divide.  G shares
    the kept matrix's read-only pattern."""
    check_shift(lambda_shift, basis.params)
    lv = basis.free_diagonal + lambda_shift
    inv = np.divide(-1.0, lv, out=np.zeros_like(lv), where=lv > 0)
    return _diag_scaled(_creation_matrix(basis, lambda_uv), rows=inv)


def assemble_G(basis: FockBasis, lambda_uv,
               lambda_shift: float) -> SparseOperator:
    """Boundary map G = -(L + lambda)^(-1) a*(V)."""
    _warn_beyond_reach(basis, lambda_uv)
    g = _boundary_map(basis, lambda_uv, lambda_shift)
    return SparseOperator(basis, g, {"path": "ibc", "kind": "G",
                                     "lambda_uv": lambda_uv,
                                     "lambda_shift": lambda_shift}, False)


def _t_cutoff_matrix(basis: FockBasis, lambda_uv,
                     lambda_shift: float) -> sparse.csr_array:
    """-G*(L+lambda)G from the kept creation matrix."""
    g = _boundary_map(basis, lambda_uv, lambda_shift)
    wg = _diag_scaled(g, rows=basis.free_diagonal + lambda_shift)
    return sparse.csr_array(-(g.conj().T @ wg))


def assemble_T_cutoff(basis: FockBasis, lambda_uv,
                      lambda_shift: float) -> SparseOperator:
    """Virtual-boson block T = -G*(L+lambda)G (equal to a(V)G)."""
    _warn_beyond_reach(basis, lambda_uv)
    t = _t_cutoff_matrix(basis, lambda_uv, lambda_shift)
    return SparseOperator(basis, t,
                          {"path": "ibc", "kind": "T_cutoff",
                           "lambda_uv": lambda_uv,
                           "lambda_shift": lambda_shift}, True)


# ---------------------------------------------------------------------------
# diagonal part of the renormalized block

#: states per resolvent_sum_grid call, and (mode, state) pairs per
#: assemble_tau block; bounds the temporaries of both
_TD_CHUNK = 40_000


def _require_condition_c(params) -> None:
    report = check_condition_c(params)
    if not report.holds:
        raise ConditionCViolated(
            "ultraviolet degree %.6g outside [0, %.6g)"
            % (report.uv_degree, report.bound))


def _subtract_resolvent_sums(basis: FockBasis, diag: np.ndarray, lambda_uv,
                             lambda_shift: float) -> np.ndarray:
    """Subtract from diag, in place, the lattice resolvent sum over the
    one-boson intermediates of every state below the top sector."""
    params = basis.params
    nuc_table = basis.nucleon_mode_table()
    theta_pt = dispersion_nucleon(basis.grid.points, params)
    theta_state = basis.nucleon_energy()
    for n in range(basis.n_max):
        cfg, rank = basis.sector_states(n)
        omega_b = basis.boson_energy(n)
        for ell in range(params.n_nucleons):
            p_ell = nuc_table[:, ell][cfg]
            rest = ((theta_state - theta_pt[nuc_table[:, ell]])[cfg]
                    + omega_b[rank])
            out = np.empty(cfg.shape[0])
            for lo in range(0, cfg.shape[0], _TD_CHUNK):
                hi = min(lo + _TD_CHUNK, cfg.shape[0])
                out[lo:hi] = resolvent_sum_grid(
                    p_ell[lo:hi], rest[lo:hi], basis.grid, lambda_uv,
                    params, i_nucleon=ell, lambda_shift=lambda_shift)
            diag[basis.sector_slice(n)] -= out
    return diag


def assemble_Td(basis: FockBasis, lambda_uv, variant: int,
                lambda_shift: float = 0.0) -> SparseOperator:
    """Diagonal multiplier of the renormalized virtual-boson block.

    Equals counterterm(variant) minus the resolvent sum over one-boson
    intermediates; the resolvent part is present only below the top
    sector, where the intermediates exist in the truncation.  On inner
    sectors this is the familiar subtracted combination (variant 1 drops
    the dispersion-shift part, variant 2 includes it).
    """
    check_shift(lambda_shift)
    _require_condition_c(basis.params)
    diag = basis.nucleon_diagonal(_counterterm_rows(basis, lambda_uv, variant))
    _subtract_resolvent_sums(basis, diag, lambda_uv, lambda_shift)
    return _diag_op(basis, diag, {"path": "ibc", "kind": "Td",
                                  "lambda_uv": lambda_uv, "variant": variant,
                                  "lambda_shift": lambda_shift})


# ---------------------------------------------------------------------------
# off-diagonal exchange pieces

def _exchange_tables(basis: FockBasis, i: int, ell: int, lambda_uv,
                     lambda_shift: float):
    """Lattice tables both exchange families share, for a validated
    nucleon pair and shift: the active boson modes, the configuration
    shift tables of nucleon i emitting and nucleon ell absorbing, the
    nucleon dispersion per lattice point and per configuration, and the
    boson dispersion per mode."""
    params = basis.params
    m_nuc = params.n_nucleons
    if not (0 <= i < m_nuc and 0 <= ell < m_nuc):
        raise IndexError("nucleon index out of range")
    check_shift(lambda_shift)
    theta_pt = dispersion_nucleon(basis.grid.points, params)
    return (np.flatnonzero(grid_mode_mask(basis.grid, lambda_uv, params)),
            basis.nucleon_shift(i, -1), basis.nucleon_shift(ell, 1), theta_pt,
            basis.nucleon_energy(),
            dispersion_boson_norm(basis.grid.norms(), params))


def assemble_theta(basis: FockBasis, i: int, ell: int, lambda_uv,
                   lambda_shift: float = 0.0) -> SparseOperator:
    """Nucleon-exchange piece: the virtual boson is emitted by nucleon i
    and reabsorbed by nucleon ell (i != ell), the boson content of the
    state unchanged.
    """
    if i == ell:
        raise IndexError("theta needs two distinct nucleon indices")
    active, emit, absorb, theta_pt, theta_state, om = _exchange_tables(
        basis, i, ell, lambda_uv, lambda_shift)
    nuc_table = basis.nucleon_mode_table()
    ff_i, ff_ell = (_form_factors(basis, j, active) for j in (i, ell))
    rows, cols, vals = [], [], []
    for n in range(basis.n_max):           # intermediates live in sector n+1
        cfg, rank = basis.sector_states(n)
        start = basis.sector_slice(n).start
        omega_b = basis.boson_energy(n)
        for a, q in enumerate(active):
            z = emit[:, q][cfg]              # nucleon i has emitted q
            x = absorb[:, q][z]              # nucleon ell has absorbed it
            src = np.flatnonzero((z >= 0) & (x >= 0))
            if src.size == 0:
                continue
            c, z, x, r = cfg[src], z[src], x[src], rank[src]
            z_i = nuc_table[z, i]
            wgt = (np.conj(ff_ell[a, nuc_table[c, ell]]) * ff_i[a, z_i]
                   * basis.grid.cell_weight)
            theta_z = theta_state[c] - theta_pt[nuc_table[c, i]] + theta_pt[z_i]
            den = theta_z + omega_b[r] + (om[q] + lambda_shift)
            rows.append(basis.state_index(n, x, r))
            cols.append(start + src)
            vals.append(wgt / den)
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
    """
    active, emit, absorb, theta_pt, theta_state, om = _exchange_tables(
        basis, i, ell, lambda_uv, lambda_shift)
    nuc_table = basis.nucleon_mode_table()
    ff_i = _form_factors(basis, i, active)
    ff_ell = ff_i if i == ell else _form_factors(basis, ell, active)
    rows, cols, vals = [], [], []
    for n in range(1, basis.n_max):        # intermediates live in sector n+1
        cfg, rank = basis.sector_states(n)
        start = basis.sector_slice(n).start
        omega_b = basis.boson_energy(n)
        count, remove = basis.boson_count(n), basis.boson_remove(n)
        add = basis.boson_add(n - 1)
        for a, q in enumerate(active):     # mode removed from the source
            # a state y --(i emits q2)--> z --(ell absorbs q)--> x; pairs
            # run over the created mode q2 in active order, then over the
            # source states holding q
            src = np.flatnonzero(count[rank, q] >= 1)
            if src.size == 0:
                continue
            c, r = cfg[src], rank[src]
            # blocks of created modes q2, at most _TD_CHUNK (mode, state) pairs
            step = max(1, _TD_CHUNK // src.size)
            for lo in range(0, active.size, step):
                q2 = active[lo:lo + step]
                z = emit[:, q2].T[:, c]
                x = absorb[:, q][z]
                k2, s = np.nonzero((z >= 0) & (x >= 0))
                if s.size == 0:
                    continue
                rs, q2s = r[s], q2[k2]
                m_q = count[rs, q].astype(float)
                bf = np.where(q2s == q, m_q,
                              np.sqrt(m_q * (count[rs, q2s] + 1.0)))
                zs = z[k2, s]
                zi, ze = nuc_table[zs, i], nuc_table[zs, ell]
                wgt = (np.conj(ff_ell[a, ze]) * ff_i[lo + k2, zi]
                       * basis.grid.cell_weight)
                theta_z = (theta_state[c[s]] - theta_pt[nuc_table[c[s], i]]
                           + theta_pt[zi])
                den = theta_z + omega_b[rs] + (om[q2s] + lambda_shift)
                rows.append(basis.state_index(n, x[k2, s],
                                              add[remove[rs, q], q2s]))
                cols.append(start + src[s])
                vals.append(wgt * bf / den)
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
    pieces = (build(basis, a, b, lambda_uv, lambda_shift).matrix
              for a in range(m_nuc) for b in range(m_nuc)
              for build in ((assemble_theta, assemble_tau) if a != b
                            else (assemble_tau,)))
    # the first piece starts the sum; a sparse sum stores no zero
    total = next(pieces)
    total.eliminate_zeros()
    for m in pieces:
        total = total + m
    return SparseOperator(basis, sparse.csr_array(-total),
                          {"path": "ibc", "kind": "T_od",
                           "lambda_uv": lambda_uv,
                           "lambda_shift": lambda_shift}, False)


# ---------------------------------------------------------------------------
# the two Hamiltonian assembly routes

def _direct_matrix(basis: FockBasis, a_mat: sparse.csr_array,
                   e_rows: np.ndarray) -> sparse.csr_array:
    """diag(L + counterterm) + a*(V) + a(V) from the creation matrix and
    the counterterm rows; zero rows give the unrenormalized operator."""
    diag = basis.free_diagonal + basis.nucleon_diagonal(e_rows)
    return sparse.csr_array(sparse.diags_array(diag, format="csr")
                            + a_mat + a_mat.conj().T)


def assemble_H_direct(basis: FockBasis, lambda_uv,
                      variant: int) -> SparseOperator:
    """Direct route: free diagonal plus the cutoff interaction pair plus
    the counterterm diagonal (lattice twins)."""
    _warn_beyond_reach(basis, lambda_uv)
    e_rows = _counterterm_rows(basis, lambda_uv, variant)
    h = _direct_matrix(basis, _creation_matrix(basis, lambda_uv), e_rows)
    return SparseOperator(basis, h, {"path": "direct",
                                     "lambda_uv": lambda_uv,
                                     "variant": variant}, True)


@_kept
def _ibc_base(basis: FockBasis, lambda_uv, lambda_shift: float):
    """Variant-independent part of the boundary route, kept so that a
    sweep of every variant at one (cutoff, shift) builds it once:
    (1-G)*(L+lambda)(1-G) + T_od + diag(-resolvent sums - lambda), and
    the position of every diagonal entry in its data array.

    Its diagonal is stored whole: the diagonal of (1-G)*(L+lambda)(1-G)
    is at least L + lambda, so only a zero-energy state at zero shift
    that no boson can be added to (or an exact cancellation against
    T_od) misses it, and a missing entry raises StructureViolated.  A
    diagonal sum of exactly zero stays stored."""
    g = _boundary_map(basis, lambda_uv, lambda_shift)
    _require_condition_c(basis.params)
    one_minus_g = sparse.csr_array(
        sparse.eye_array(basis.total_dim, format="csr") - g)
    # a CSR product sums every entry over k in ascending order, as the
    # CSC product of the adjoint view would; only its rows come unordered
    prod = one_minus_g.conj().T.tocsr() @ _diag_scaled(
        one_minus_g, rows=basis.free_diagonal + lambda_shift)
    prod.sort_indices()
    tod = assemble_T_od(basis, lambda_uv, lambda_shift=lambda_shift).matrix
    base = sparse.csr_array(prod + tod)
    diag = _diagonal_positions(base)
    base.data[diag] += _subtract_resolvent_sums(
        basis, np.full(basis.total_dim, -lambda_shift, dtype=float),
        lambda_uv, lambda_shift)
    return base, diag


def assemble_H_ibc(basis: FockBasis, lambda_uv, variant: int,
                   lambda_shift: float) -> SparseOperator:
    """Boundary route: (1-G)*(L+lambda)(1-G) + T_d + T_od - lambda.

    Algebraically equal to the direct route for every cutoff, variant
    and shift; the equality on the lattice is the package's central
    correctness check.  The variant enters only through the counterterm
    part of T_d, so the rest is kept on the basis per (cutoff, shift) by
    _ibc_base and the counterterm diagonal is added to a copy of its data
    array.  The result shares the kept read-only index arrays, unless a
    diagonal sum is exactly zero: that entry is dropped, as a sparse sum
    drops it.
    """
    _warn_beyond_reach(basis, lambda_uv)
    base, diag = _ibc_base(basis, lambda_uv, lambda_shift)
    e_rows = _counterterm_rows(basis, lambda_uv, variant)
    data = base.data.copy()
    data[diag] += basis.nucleon_diagonal(e_rows)
    if np.all(data[diag]):
        h = sparse.csr_array((data, base.indices, base.indptr),
                             shape=base.shape)
    else:
        h = sparse.csr_array((data, base.indices.copy(), base.indptr.copy()),
                             shape=base.shape)
        h.eliminate_zeros()
    return SparseOperator(basis, h, {"path": "ibc",
                                     "lambda_uv": lambda_uv,
                                     "variant": variant,
                                     "lambda_shift": lambda_shift}, True)


# ---------------------------------------------------------------------------
# identity verification and export

@dataclass(frozen=True)
class IdentityReport:
    max_abs_diff: float
    max_rel_diff: float
    opnorm_diff_bound: float
    tol: float
    passed: bool


def verify_identity(a: SparseOperator, b: SparseOperator,
                    tol: float = 1e-10) -> IdentityReport:
    """Entrywise comparison of two assembled operators on the same basis,
    with a rigorous upper bound on the spectral norm of their difference
    D = a - b; passes when the largest entry difference, scaled by the
    largest entry magnitude, stays below tol.  A non-finite difference or
    scale fails, with max_rel_diff NaN.

    The bound is sqrt(||D||_1 ||D||_inf), the square root of the largest
    column sum of |D| times the largest row sum (Higham, Accuracy and
    Stability of Numerical Algorithms, section 6.3); it is exact for a
    diagonal D and costs one pass over the stored entries.  Each
    operator's largest entry magnitude is taken once and kept on it, so
    an operator must not be changed in place after its first check.
    """
    if a.basis.manifest() != b.basis.manifest():
        raise BasisMismatch("operators live on different bases")
    d = (a.matrix - b.matrix).tocsr()
    max_abs = bound = 0.0
    if d.nnz:
        mag = np.abs(d.data)
        max_abs = float(mag.max())
        col_sum = np.bincount(d.indices, weights=mag).max()
        starts = d.indptr[:-1][np.diff(d.indptr) > 0]
        row_sum = np.add.reduceat(mag, starts).max()
        bound = float(np.sqrt(col_sum * row_sum))
    scale = max(a._max_abs_entry, b._max_abs_entry)
    if not np.isfinite([max_abs, a._max_abs_entry, b._max_abs_entry]).all():
        max_rel = float("nan")
    else:
        max_rel = max_abs / scale if scale > 0 else 0.0
    return IdentityReport(max_abs, max_rel, bound, tol, bool(max_rel <= tol))


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
