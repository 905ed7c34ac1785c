"""Eigenvalue and resolvent studies on the assembled operators.

Three numerical experiments live here on top of generic solver plumbing:

* cutoff_convergence_study tracks the ground energy, the resolvent
  distance to the finest available cutoff, and the weighted distance of
  the virtual-boson block as the cutoff radius grows, together with an
  unrenormalized control run showing the logarithmic energy drift the
  counterterm removes.
* divergence_fit quantifies that drift by least squares against both
  log parametrizations of the counterterm growth.
* regularity_diagnostic splits the computed ground vector into its
  regular part (1-G)psi and singular part G psi across a refinement
  ladder and reports the growth of ||L^eta G psi||: bounded below the
  threshold exponent, divergent above it.

All continuum-flavored statements are certified Cauchy-style: the
finest cutoff in the family stands in for the removed-cutoff operator.
Ground states are solved block by block: lowest_eigenpairs splits the
operator into its decoupled components and certifies, by a Weyl lower
bound per component, that the blocks it skips hold no lower eigenvalue.
Solvers are deterministic: start vectors derive from the basis digest.
Tables are data: ConvergenceTable and RegularityReport hold rows and
metadata, and the command-line front end writes them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as spla

from .errors import (
    InsufficientPoints,
    NotConverged,
    SolveNotConverged,
)
from .fockgrid import FockBasis
from .model import ultraviolet_degree
from .ops import (
    SparseOperator,
    _check_shift,
    _counterterm_rows,
    _creation_matrix,
    _direct_matrix,
    assemble_G,
    assemble_H_direct,
    assemble_T_cutoff,
    basis_digest,
)
from .quad import loglog_slope

DENSE_DIM_MAX = 400          # below this, eigenproblems go dense
# relative residual budget of each Schur-complement solve (_ParityFactor)
SCHUR_RTOL = 1e-10
# spectral parameter of the resolvent distances in the convergence study
RESOLVENT_Z = -1.0j
# margin above uv_degree/gamma in the weight exponent of the T distances
T_WEIGHT_EPSILON = 0.1


def _seed_vector(n: int, digest: str, kind: str) -> np.ndarray:
    """Deterministic unit start vector derived from a basis digest."""
    mix = hashlib.sha256((digest + ":" + kind).encode()).digest()
    rng = np.random.default_rng(int.from_bytes(mix[:8], "big"))
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# eigenpairs

@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    method: str


def _pattern_components(h: sparse.csr_array):
    """Number of connected components of the stored pattern and the
    component label of every state."""
    pattern = sparse.csr_array(
        (np.ones(h.nnz, dtype=np.int8), h.indices, h.indptr), shape=h.shape)
    return csgraph.connected_components(pattern, directed=False)


def _components(h: sparse.csr_array):
    """Decoupled blocks of a Hermitian matrix, with a lower spectral
    bound for each.

    Returns the component label of every state (connected components of
    the stored pattern); per component c, lower_c = min(Re diag_c) -
    ||O_c||_F, where O_c is the off-diagonal part of block c; and the
    exact ||H||_1, the largest column sum of |H|.  By Weyl's inequality
    and ||O_c||_2 <= ||O_c||_F no eigenvalue of block c lies below
    lower_c.  One pass over the stored entries.
    """
    if not h.has_canonical_format:
        # duplicate entries would be squared apart, not summed first
        h = h.copy()
        h.sum_duplicates()
    n = h.shape[0]
    n_comp, labels = _pattern_components(h)
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    off = rows != h.indices
    diag_min = np.full(n_comp, np.inf)
    np.minimum.at(diag_min, labels, np.real(h.diagonal()))
    mag = np.abs(h.data)
    off_fro2 = np.bincount(labels[rows[off]], weights=mag[off] ** 2,
                           minlength=n_comp)
    one_norm = float(np.bincount(h.indices, weights=mag, minlength=n).max())
    return labels, diag_min - np.sqrt(off_fro2), one_norm


def lowest_eigenpairs(op: SparseOperator, tol: float = 1e-9) -> EigenResult:
    """Ground eigenvalue and vector of a Hermitian operator.

    The operator is split into the connected components of its stored
    pattern, which it leaves invariant (for the Hamiltonians here each
    lies inside one total-momentum fibre).  Components are visited in
    increasing order of their Weyl lower bound (see _components) and
    solved one by one; the search stops at the first component whose
    bound is no lower than the smallest eigenvalue found, so the skipped
    components provably hold no lower eigenvalue.  Of equal eigenvalues
    the block visited first is kept.  Each block goes dense below
    DENSE_DIM_MAX and to implicitly restarted Lanczos above, with a
    deterministic start vector; an operator with a single component is
    solved exactly as one block.  The residual of the pair is checked on
    the full operator against tol times its exact one-norm.  The storage
    type picks the arithmetic: a real symmetric operator runs ARPACK's
    dsaupd and has real eigenvectors, a complex Hermitian one znaupd.
    The result holds one pair: values (1,), vectors (n, 1).  method is
    "lanczos" when some block went to ARPACK, "dense" otherwise.
    """
    if not op.hermitian_flag:
        raise ValueError("eigensolver requires a Hermitian-tagged operator")
    h = op.matrix
    n = h.shape[0]
    labels, lower, scale = _components(h)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    ends = np.cumsum(sizes)
    v0 = None
    method = "dense"
    best = None             # (value, block state indices, block vector)
    for c in np.argsort(lower, kind="stable"):
        if best is not None and lower[c] >= best[0]:
            break
        idx = order[ends[c] - sizes[c]:ends[c]]
        m = idx.size
        block = h if m == n else h[idx][:, idx]
        if m <= DENSE_DIM_MAX or m <= 2:
            w, v = np.linalg.eigh(block.toarray())
        else:
            if v0 is None:
                v0 = _seed_vector(n, basis_digest(op.basis),
                                  "eig").astype(h.dtype)
            try:
                w, v = spla.eigsh(block, k=1, which="SA", v0=v0[idx],
                                  ncv=min(m - 1, 60), tol=max(tol, 1e-14))
            except spla.ArpackNoConvergence as exc:
                raise NotConverged("Lanczos did not converge: %s"
                                   % exc) from exc
            method = "lanczos"
        if best is None or w[0] < best[0]:
            best = (w[0], idx, v[:, 0])
    val, idx, v = best
    vec = np.zeros((n, 1), dtype=np.result_type(h.dtype, np.float64))
    vec[idx, 0] = v
    residual = np.linalg.norm(h @ vec[:, 0] - val * vec[:, 0])
    if residual > 10.0 * max(tol, 1e-13) * max(scale, 1.0):
        raise NotConverged("eigenpair residual %.3e exceeds tolerance budget"
                           % residual)
    return EigenResult(np.real(np.array([val])), vec, np.array([residual]),
                       method)


# ---------------------------------------------------------------------------
# resolvent machinery

def _odd_bosons(basis: FockBasis) -> np.ndarray:
    """Mask of the basis states with an odd number of bosons."""
    odd = np.zeros(basis.total_dim, dtype=bool)
    for n in range(1, basis.n_max + 1, 2):
        odd[basis.sector_slice(n)] = True
    return odd


class _ParityFactor:
    """(H - z)^(-1) on the boson-parity Schur complement.

    The off-diagonal part of H (a*(V) + a(V)) changes the boson number
    by one, so it only joins states of opposite parity; the constructor
    checks this in one pass over the stored entries and raises
    ValueError otherwise (H_ibc, whose stored cancellation residues join
    equal parities, does not qualify).  In the order [smaller class;
    larger class], `order`, the matrix reads

        H - z = [[Ds - z, C], [B, Dl - z]],   Ds, Dl diagonal,

    and dividing out the larger class (the Feshbach-Schur map, the same
    elimination of a diagonal free part as the boundary map G) leaves
    only S = (Ds - z) - C (Dl - z)^(-1) B to factor: a sparse LU under a
    minimum-degree ordering of its symmetric pattern.  For Hermitian H
    and z off the real axis |Dl - z| >= |Im z| > 0.  A z that hits an
    entry of Dl (for a real z this can happen off the spectrum too) or
    makes S exactly singular raises SolveNotConverged.

    apply and apply_adjoint take and return vectors in `order`, i.e.
    v[order] for a vector v in basis order; the first ns of them are the
    smaller class.  Each solve certifies the residual of its S solve
    against SCHUR_RTOL and raises SolveNotConverged above it; the rows
    of the larger class then hold by construction up to one rounding.
    """

    def __init__(self, matrix: sparse.csr_array, z: complex,
                 odd: np.ndarray):
        n = matrix.shape[0]
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        off = rows != matrix.indices
        if np.any(odd[rows[off]] == odd[matrix.indices[off]]):
            raise ValueError("operator couples states of equal boson parity")
        small = odd if 2 * np.count_nonzero(odd) <= n else ~odd
        self.order = np.concatenate([np.flatnonzero(small),
                                     np.flatnonzero(~small)])
        self.ns = ns = int(np.count_nonzero(small))
        # complex even for a real z: the solves take complex vectors
        d = matrix.diagonal()[self.order] - complex(z)
        ds, dl = d[:ns], d[ns:]
        if not np.all(dl != 0):
            raise SolveNotConverged("z = %r meets a diagonal entry of the "
                                    "eliminated parity class" % (z,))
        small_idx, large_idx = self.order[:ns], self.order[ns:]
        c = sparse.csr_array(matrix[small_idx][:, large_idx], dtype=complex)
        b = sparse.csr_array(matrix[large_idx][:, small_idx], dtype=complex)
        # (Dl - z)^(-1) B and its adjoint counterpart, scaled once
        g = sparse.csr_array(sparse.diags_array(1.0 / dl) @ b)
        gh = sparse.csr_array(sparse.diags_array(1.0 / dl.conj())
                              @ c.conj().T)
        schur = sparse.csr_array(sparse.diags_array(ds) - c @ g)
        self.lu = None
        if ns:
            try:
                self.lu = spla.splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SolveNotConverged(
                    "Schur complement factorization failed: %s" % exc) from exc
        self._forward = (dl, c, g, schur, "N")
        self._adjoint = (dl.conj(), sparse.csr_array(b.conj().T), gh,
                         sparse.csr_array(schur.conj().T), "H")

    def stored_nnz(self) -> int:
        """Entries held: both couplings in both directions and L+U of S."""
        held = sum(m.nnz for m in self._forward[1:3] + self._adjoint[1:3])
        return held + (self.lu.L.nnz + self.lu.U.nnz if self.ns else 0)

    def _solve(self, v, dl, c, g, schur, trans):
        ns = self.ns
        x = np.empty(v.shape, dtype=complex)
        np.divide(v[ns:], dl, out=x[ns:])
        if ns:
            rhs = v[:ns] - c @ x[ns:]
            xs = self.lu.solve(rhs, trans=trans)
            res = np.linalg.norm(schur @ xs - rhs)
            if not res <= SCHUR_RTOL * np.linalg.norm(rhs):
                raise SolveNotConverged(
                    "Schur complement residual %.3e above %.1e relative"
                    % (res, SCHUR_RTOL))
            x[:ns] = xs
            x[ns:] -= g @ xs
        return x

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(H - z)^(-1) v, in `order`."""
        return self._solve(v, *self._forward)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """(H - z)^(-*) v, in `order`."""
        return self._solve(v, *self._adjoint)


def _power_norm(apply_fn, apply_adjoint_fn, tol: float, maxiter: int,
                v0: np.ndarray) -> float:
    """Largest singular value of a linear map given its action and the
    adjoint action, by power iteration on the normal map."""
    x = v0.astype(complex)
    x /= np.linalg.norm(x)
    est_prev = -1.0
    for _ in range(maxiter):
        y = apply_adjoint_fn(apply_fn(x))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        est = float(np.sqrt(ny))
        if abs(est - est_prev) <= tol * max(est, 1e-300):
            return est
        est_prev = est
        x = y / ny
    raise NotConverged("power iteration did not settle in %d steps" % maxiter)


def _block_norm(d: sparse.csr_array) -> float:
    """Exact spectral norm of a sparse matrix: the largest dense 2-norm
    over the connected components of its stored pattern, in which it is
    block diagonal; one-state components are read off the diagonal."""
    if d.nnz == 0:
        return 0.0
    labels = _pattern_components(d)[1]
    sizes = np.bincount(labels)
    norm = float(np.abs(d.diagonal()[sizes[labels] == 1]).max(initial=0.0))
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    for c in np.flatnonzero(sizes > 1):
        idx = order[ends[c] - sizes[c]:ends[c]]
        norm = max(norm, float(np.linalg.norm(d[idx][:, idx].toarray(), 2)))
    return norm


# ---------------------------------------------------------------------------
# cutoff convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    lambda_uv: float
    ground_energy: float
    control_ground_energy: float
    resolvent_diff_to_finest: float
    opnorm_t_diff: float


@dataclass
class ConvergenceTable:
    """Rows sorted by increasing cutoff; difference columns are measured
    against the finest cutoff in the family (the removed-cutoff proxy)."""

    rows: list
    variant: int
    basis_sha256: str
    fits: dict = field(default_factory=dict)

    def lambda_values(self) -> np.ndarray:
        return np.array([r.lambda_uv for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def cutoff_convergence_study(basis: FockBasis, lambda_list, variants,
                             lambda_shift: float = 0.0,
                             eig_tol: float = 1e-9,
                             norm_tol: float = 1e-4) -> dict:
    """Ground energies and Cauchy-style convergence measures over a
    cutoff ladder, one ConvergenceTable per counterterm variant.

    For every cutoff the renormalized operator is assembled on the fixed
    basis.  The resolvent distance ||(H_lam - z)^(-1) - (H_fin - z)^(-1)||
    at z = RESOLVENT_Z is estimated by power iteration through one
    parity factor per cutoff (see _ParityFactor): every solve works on
    the boson-parity Schur complement, in the factor's state order (the
    start vector is permuted once), and certifies its residual.  The
    weighted distance of the virtual-boson block (difference weighted
    by (L+1) to the power -(uv_degree/gamma + T_WEIGHT_EPSILON)) is
    exact: the largest dense 2-norm over the pattern components of the
    difference (see _block_norm).  A control column carries the
    unrenormalized ground energy, whose downward drift is the divergence
    the counterterm subtracts.

    The creation matrix of each cutoff is built once (kept on the basis,
    see ops) and feeds the control Hamiltonian (free + a + a^dagger, no
    counterterm), assemble_T_cutoff and every variant's renormalized
    Hamiltonian.  The control is solved and T built once per cutoff,
    shared by every table, and the counterterm rows of each (cutoff,
    variant) serve both its Hamiltonian and its T block.  Ground energies
    are solved block by block, in real arithmetic when the couplings are
    real (see lowest_eigenpairs).
    """
    lams = [float(x) for x in lambda_list]
    variants = [int(v) for v in variants]
    if not lams:
        raise ValueError("lambda_list must be nonempty")
    if not variants:
        raise ValueError("variants must be nonempty")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda_list must be strictly increasing")
    reach = basis.boson_grid.k_max * np.sqrt(basis.boson_grid.d)
    if max(lams) > reach * (1 + 1e-12):
        raise ValueError("largest cutoff %.6g exceeds the grid reach %.6g"
                         % (max(lams), reach))

    params = basis.params
    exps = ultraviolet_degree(params)
    weight = (basis.free_diagonal + 1.0) ** (
        -(max(exps.uv_degree, 0.0) / params.gamma + T_WEIGHT_EPSILON))
    w_diag = sparse.diags_array(weight, format="csr")
    digest = basis_digest(basis)
    v0_basis = _seed_vector(basis.total_dim, digest, "study")
    odd = _odd_bosons(basis)

    no_counterterm = np.zeros(basis.nuc_dim)
    a_mats, controls, t_ops = [], [], []
    for lam in lams:
        a_mat = _creation_matrix(basis, lam)
        h_bare = SparseOperator(
            basis, _direct_matrix(basis, a_mat, no_counterterm),
            {"path": "direct", "lambda_uv": lam, "control": "no-counterterm"},
            True)
        controls.append(float(lowest_eigenpairs(h_bare, eig_tol).values[0]))
        t_ops.append(assemble_T_cutoff(basis, lam, lambda_shift).matrix)
        a_mats.append(a_mat)

    tables = {}
    for variant in variants:
        hams, t_blocks, grounds = [], [], []
        for lam, a_mat, t_op in zip(lams, a_mats, t_ops):
            e_rows = _counterterm_rows(basis, lam, variant)
            hd = SparseOperator(basis, _direct_matrix(basis, a_mat, e_rows),
                                {"path": "direct", "lambda_uv": lam,
                                 "variant": variant}, True)
            hams.append(hd.matrix)
            grounds.append(float(lowest_eigenpairs(hd, eig_tol).values[0]))
            e_diag = basis.nucleon_diagonal(e_rows)
            # the cutoff block lives on sectors below the top (its
            # intermediates carry one extra boson), so the counterterm is
            # paired with it on those sectors only
            e_diag[basis.sector_slice(basis.n_max)] = 0.0
            t_blocks.append(sparse.csr_array(
                t_op + sparse.diags_array(e_diag, format="csr")))

        fin = _ParityFactor(hams[-1], RESOLVENT_Z, odd)
        v0 = v0_basis[fin.order]
        rows = []
        for k, lam in enumerate(lams):
            if k == len(lams) - 1:
                r_diff = 0.0
                t_diff = 0.0
            else:
                cur = _ParityFactor(hams[k], RESOLVENT_Z, odd)
                r_diff = _power_norm(
                    lambda x: cur.apply(x) - fin.apply(x),
                    lambda y: cur.apply_adjoint(y) - fin.apply_adjoint(y),
                    norm_tol, 500, v0)
                t_diff = _block_norm(
                    sparse.csr_array((t_blocks[k] - t_blocks[-1]) @ w_diag))
            rows.append(ConvergenceRow(lam, grounds[k], controls[k],
                                       r_diff, t_diff))
        tables[variant] = ConvergenceTable(rows, variant, digest,
                                           _study_fits(rows))
    return tables


def _study_fits(rows) -> dict:
    """Resolvent Cauchy rate, control drift and top variation of a ladder
    of at least three positive cutoffs (empty otherwise)."""
    lams = [r.lambda_uv for r in rows]
    fits = {}
    if len(lams) >= 3 and min(lams) > 0:
        inner = [(r.lambda_uv, r.resolvent_diff_to_finest)
                 for r in rows[:-1] if r.resolvent_diff_to_finest > 0]
        if len(inner) >= 2:
            fits["resolvent_rate"] = loglog_slope(
                [x for x, _ in inner], [y for _, y in inner])
        fits["control_drift_slope"] = float(np.polyfit(
            np.log(lams), [r.control_ground_energy for r in rows], 1)[0])
        top = [r.ground_energy for r in rows[-2:]]
        fits["renormalized_top_variation"] = float(
            abs(top[1] - top[0]) / max(abs(top[1]), 1e-300))
    return fits


# ---------------------------------------------------------------------------
# divergence fit

@dataclass(frozen=True)
class DivergenceFit:
    slope_log: float
    intercept_log: float
    residual_log: float
    slope_log1p: float
    intercept_log1p: float
    residual_log1p: float


def divergence_fit(lambda_list, counterterm_values) -> DivergenceFit:
    """Least-squares fits of counterterm values against log cutoff.

    Two parametrizations: a*ln(lambda) + b (the asymptotic law for a
    zero ultraviolet degree) and a*ln(1 + lambda^2) + b (the exact shape
    of the d=2 relativistic closed form).  Residuals are root mean
    square.
    """
    lams = np.asarray(lambda_list, dtype=float)
    vals = np.asarray(counterterm_values, dtype=float)
    if lams.shape != vals.shape or lams.ndim != 1:
        raise ValueError("lambda_list and counterterm_values must be "
                         "one-dimensional and of equal length")
    if lams.size < 3:
        raise InsufficientPoints("need at least 3 points for a 2-parameter fit")
    if np.any(lams <= 0):
        raise ValueError("cutoffs must be positive")

    def fit(x):
        coef = np.polyfit(x, vals, 1)
        res = float(np.sqrt(np.mean((np.polyval(coef, x) - vals) ** 2)))
        return float(coef[0]), float(coef[1]), res

    s1, b1, r1 = fit(np.log(lams))
    s2, b2, r2 = fit(np.log1p(lams ** 2))
    return DivergenceFit(s1, b1, r1, s2, b2, r2)


# ---------------------------------------------------------------------------
# regularity diagnostic

@dataclass(frozen=True)
class RegularityRow:
    k_max: float
    total_dim: int
    eta: float
    norm_regular: float
    norm_singular: float


@dataclass
class RegularityReport:
    """Norm table of the ground-vector split across a refinement ladder,
    with the growth slope of the singular part per exponent."""

    rows: list
    slopes: dict
    threshold: float
    variant: int
    ground_energies: list
    basis_digests: list


def regularity_diagnostic(bases, variant: int, eta_list,
                          lambda_shift: float = 0.0,
                          eig_tol: float = 1e-8) -> RegularityReport:
    """Growth of ||L^eta G psi|| across refinements of the momentum box.

    psi is the normalized ground vector of the renormalized operator at
    each refinement's native cutoff; the split psi = (1-G)psi + G psi
    uses the boundary map at the same cutoff, built after the solve from
    the Hamiltonian's kept creation matrix.
    Below the threshold exponent the singular norm stabilizes; at and
    above it the norms grow without bound as the box widens.  Every
    refinement must carry the same model.
    """
    bases = list(bases)
    if len(bases) < 3:
        raise InsufficientPoints("need at least 3 refinements")
    params = bases[0].params
    if any(b.params != params for b in bases[1:]):
        raise ValueError("refinements must share one model")
    k_maxes = [b.boson_grid.k_max for b in bases]
    if any(b <= a for a, b in zip(k_maxes, k_maxes[1:])):
        raise ValueError("refinements must have strictly increasing k_max")
    etas = [float(e) for e in eta_list]
    if any(e < 0 for e in etas):
        raise ValueError("exponents must be nonnegative")

    rows, energies, digests = [], [], []
    singular = {e: [] for e in etas}
    for basis in bases:
        _check_shift(basis, lambda_shift)
        eig = lowest_eigenpairs(assemble_H_direct(basis, None, variant),
                                eig_tol)
        psi = eig.vectors[:, 0]
        psi = psi / np.linalg.norm(psi)
        energies.append(float(eig.values[0]))
        digests.append(basis_digest(basis))
        g_psi = assemble_G(basis, None, lambda_shift).matrix @ psi
        reg = psi - g_psi
        lv = basis.free_diagonal
        for e in etas:
            w = lv ** e
            ns = float(np.linalg.norm(w * g_psi))
            nr = float(np.linalg.norm(w * reg))
            rows.append(RegularityRow(basis.boson_grid.k_max,
                                      basis.total_dim, e, nr, ns))
            singular[e].append(ns)

    slopes = {}
    for e in etas:
        vals = np.asarray(singular[e])
        if vals.max() < 1e-200:
            slopes[e] = 0.0
        else:
            slopes[e] = float(loglog_slope(k_maxes, np.maximum(vals, 1e-300)))
    exps = ultraviolet_degree(params)
    threshold = (params.gamma - max(exps.uv_degree, 0.0)) / (2 * params.gamma)
    return RegularityReport(rows, slopes, threshold, variant,
                            energies, digests)
