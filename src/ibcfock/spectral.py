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
Block by block: lowest_eigenpairs solves the decoupled component with
the lowest Weyl bound and certifies that the rest hold no lower
eigenvalue (by that bound or a Collatz-Wielandt one), and the study's
resolvent distance solves components only while their bound exceeds
the norm found, so each energy and distance takes one or a few solves.
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
    _counterterm_rows,
    _creation_matrix,
    _diag_scaled,
    _direct_matrix,
    _entry_rows,
    _t_cutoff_matrix,
    _warn_beyond_reach,
    assemble_G,
    assemble_H_direct,
    basis_digest,
)
from .quad import _shift_data_kept, check_shift, check_variants, loglog_slope

DENSE_DIM_MAX = 400          # below this, eigenproblems go dense
# power steps the Collatz-Wielandt certificate may take (_certify)
CERTIFY_STEPS = 60
# relative residual budget of each Schur inverse (_resolvent_distances)
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


def _components(h: sparse.csr_array, pattern=None):
    """Decoupled blocks of a Hermitian matrix, with a cheap lower
    spectral bound for each.

    Returns the component label of every state (connected components of
    the stored pattern, or the given _pattern_components of a matrix
    with the same off-diagonal pattern); per component c, the Weyl bound
    lower_c = min(Re diag_c) - ||O_c||_F, where O_c is the off-diagonal
    part of block c; and the exact ||H||_1, the largest column sum of
    |H|.  By Weyl's inequality and ||O_c||_2 <= ||O_c||_F no eigenvalue of
    block c lies below lower_c.  One pass over the stored entries.  The
    bound is loose on large blocks; lowest_eigenpairs uses it only to
    order the blocks and to pick the few that _certify must then clear.
    """
    if not h.has_canonical_format:
        # duplicate entries would be squared apart, not summed first
        h = h.copy()
        h.sum_duplicates()
    n = h.shape[0]
    n_comp, labels = _pattern_components(h) if pattern is None else pattern
    rows = _entry_rows(h)
    off = rows != h.indices
    diag_min = np.full(n_comp, np.inf)
    np.minimum.at(diag_min, labels, np.real(h.diagonal()))
    mag = np.abs(h.data)
    off_fro2 = np.bincount(labels[rows[off]], weights=mag[off] ** 2,
                           minlength=n_comp)
    one_norm = float(np.bincount(h.indices, weights=mag, minlength=n).max())
    return labels, diag_min - np.sqrt(off_fro2), one_norm


def _certify(block: sparse.csr_array, starts: np.ndarray,
             target: float) -> np.ndarray:
    """Collatz-Wielandt lower bounds of the diagonal blocks of `block`,
    which start at the offsets `starts` (block k holds the states
    starts[k]:starts[k+1]) and are not coupled to each other.

    For any Hermitian block B with diagonal d and any x > 0, Gershgorin's
    theorem applied to X^(-1) B X (X = diag x) puts every eigenvalue of
    B at or above

        min_i [d_i - (A x)_i / x_i],   A = |offdiag(B)|,

    for real and complex entries alike.  At the Perron vector of
    sigma I - M, M = diag(d) - A and sigma = max d, the bound equals
    lambda_min(M), which is lambda_min(B) when B is stoquastic up to a
    diagonal sign or phase gauge, as the Hamiltonians with real
    couplings are under (-1)^N.  Power steps of sigma I - M, one sigma
    per block and normalized per block, drive x towards that vector; each step's bound
    holds on its own and the best one is kept.  The steps stop once
    every bound reaches target, when no unfinished bound rises fast
    enough to reach it within the remaining budget, or after
    CERTIFY_STEPS.  Rounding: each row ratio is lowered by the slack
    (nnz_i + 2) eps (|d_i| + (A x)_i / x_i), with nnz_i the stored
    entries of row i and eps the machine epsilon (twice the unit
    roundoff); it covers the rounding of the |entries|, of the products
    and the row sum, of the division and of the subtraction.
    """
    m = block.shape[0]
    off = _entry_rows(block) != block.indices
    a = sparse.csr_array((np.where(off, np.abs(block.data), 0.0),
                          block.indices, block.indptr), shape=block.shape)
    d = np.real(block.diagonal())
    slack = (np.diff(block.indptr) + 2) * np.finfo(float).eps
    comp = np.repeat(np.arange(starts.size), np.diff(np.append(starts, m)))
    shift = np.maximum.reduceat(d, starts)[comp] - d
    x = np.ones(m)
    bound = prev = np.full(starts.size, -np.inf)
    for step in range(CERTIFY_STEPS):
        ax = a @ x
        q = ax / x
        now = np.minimum.reduceat(d - q - slack * (np.abs(d) + q), starts)
        prev2, prev, bound = prev, bound, np.maximum(bound, now)
        gap = target - bound
        # a bound may stall for one step (on a bipartite pattern such as
        # that of a*(V) + a(V), every other step), so the rate spans two
        rate = (bound - prev2) / 2
        if not np.any((gap > 0) & (rate * (CERTIFY_STEPS - 1 - step) >= gap)):
            break
        # x stays positive also where a row's stored couplings are zero
        x = np.maximum(shift * x + ax, np.finfo(float).tiny)
        x /= np.add.reduceat(x, starts)[comp]
    return bound


def check_tol(**tols) -> None:
    """Solver tolerances, passed by name: each finite and > 0."""
    for name, tol in tols.items():
        if not 0 < tol < np.inf:
            raise ValueError("%s must be finite and positive" % name)


def lowest_eigenpairs(op: SparseOperator, tol: float = 1e-9, *,
                      _pattern=None) -> EigenResult:
    """Ground eigenvalue and vector of a Hermitian operator.

    The operator is split into the connected components of its stored
    pattern, which it leaves invariant (for the Hamiltonians here each
    lies inside one total-momentum fibre).  The component with the
    lowest Weyl bound (see _components) is solved first.  Only the
    components whose Weyl bound lies below that energy can hold a lower
    eigenvalue; their Collatz-Wielandt bounds (see _certify, with its
    rounding slack) are computed together, and those certified at or
    above the energy found are skipped.  The rest are solved in
    increasing order of their Weyl bound, and the search stops at the
    first whose Weyl bound is no lower than the smallest eigenvalue
    found, so the skipped components provably hold no lower eigenvalue.
    A component is skipped only when its bound is no lower than the
    energy found, so the block kept and its solve do not depend on the
    certificate.  Of equal eigenvalues the block visited first is kept.
    Each block goes dense below DENSE_DIM_MAX and to implicitly
    restarted Lanczos above, with a deterministic start vector; an
    operator with a single component is solved exactly as one block.
    The residual of the pair is checked on the full operator against
    tol times its exact one-norm.  The storage type picks the
    arithmetic: a real symmetric operator runs ARPACK's dsaupd and has
    real eigenvectors, a complex Hermitian one znaupd.  The result holds
    one pair: values (1,), vectors (n, 1).  method is "lanczos" when
    some block went to ARPACK, "dense" otherwise.  _pattern, private to
    the convergence study, hands in the pattern components of an
    operator with the same off-diagonal pattern, labelled once.
    """
    if not op.hermitian_flag:
        raise ValueError("eigensolver requires a Hermitian-tagged operator")
    check_tol(tol=tol)
    h = op.matrix
    n = h.shape[0]
    labels, lower, scale = _components(h, _pattern)
    v0 = None
    method = "dense"

    def solve(idx):
        nonlocal v0, method
        m = idx.size
        block = h if m == n else h[idx][:, idx]
        if m <= DENSE_DIM_MAX or m <= 2:
            return np.linalg.eigh(block.toarray())
        if v0 is None:
            v0 = _seed_vector(n, basis_digest(op.basis), "eig").astype(h.dtype)
        try:
            w, v = spla.eigsh(block, k=1, which="SA", v0=v0[idx],
                              ncv=min(m - 1, 60), tol=max(tol, 1e-14))
        except spla.ArpackNoConvergence as exc:
            raise NotConverged("Lanczos did not converge: %s" % exc) from exc
        method = "lanczos"
        return w, v

    first = int(np.argmin(lower))
    idx = np.flatnonzero(labels == first)
    w, v = solve(idx)
    best = (w[0], idx, v[:, 0])      # (value, block state indices, vector)
    rest = np.flatnonzero(lower < best[0])
    rest = rest[rest != first]
    if rest.size:
        # the candidates' states, grouped by component in Weyl order
        rest = rest[np.argsort(lower[rest], kind="stable")]
        rank = np.full(lower.size, -1)
        rank[rest] = np.arange(rest.size)
        members = np.flatnonzero(rank[labels] >= 0)
        key = rank[labels[members]]
        members = members[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=rest.size)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        cw = _certify(h[members][:, members], starts, best[0])
        for k, c in enumerate(rest):
            if lower[c] >= best[0]:
                break
            if cw[k] >= best[0]:
                continue
            idx = members[starts[k]:ends[k]]
            w, v = solve(idx)
            if w[0] < best[0]:
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
    return np.repeat(np.arange(basis.n_max + 1) % 2 == 1, basis.sector_dims)


def _gram_blocks(ca, chb, w, r: int) -> np.ndarray:
    """The r x r diagonal blocks of ca diag(w) cb^H, given chb = cb^H."""
    m = (sparse.csr_array((ca.data * w[ca.indices], ca.indices, ca.indptr),
                          shape=ca.shape) @ chb).tocoo()
    out = np.zeros((ca.shape[0] // r, r, r), dtype=complex)
    out[m.row // r, m.row % r, m.col % r] = m.data
    return out


def _hermitian_blocks(a, b, d) -> np.ndarray:
    """The stack of [[a, b], [b^H, d]] from stacks of blocks."""
    return np.block([[a, b], [b.conj().swapaxes(1, 2), d]])


def _parity_layout(pattern, odd: np.ndarray):
    """The components of a pattern split into their smaller boson-parity
    class s (r states) and the rest l, for _resolvent_distances: the
    component of every state, renumbered so that each r is a run of
    components and each component a run of the s and of the l numbering;
    the r of every component; the s mask; the states of s and of l in
    that order and every state's place in its class; the s ends and the
    l starts and ends of every component; and for every r > 0 its first
    component with its s and l ranges."""
    n_comp, labels = pattern
    sizes = np.bincount(labels, minlength=n_comp)
    in_s = odd == (2 * np.bincount(labels, weights=odd, minlength=n_comp)
                   <= sizes)[labels]
    # components numbered by their r, so that each r is a run of them and
    # each component a run of the s and of the l numbering
    rank = np.bincount(labels, weights=in_s, minlength=n_comp)
    labels = np.argsort(np.argsort(rank, kind="stable"))[labels]
    sizes, rank = (np.bincount(labels, weights=w, minlength=n_comp)
                   .astype(int) for w in (None, in_s))
    s_idx, l_idx = (np.flatnonzero(m)[np.argsort(labels[m], kind="stable")]
                    for m in (in_s, ~in_s))
    num = np.empty(labels.size, dtype=int)
    num[s_idx], num[l_idx] = np.arange(s_idx.size), np.arange(l_idx.size)
    s_end, l_end = np.cumsum(rank), np.cumsum(sizes - rank)
    l_start = l_end - sizes + rank
    groups = {}                  # r -> (first component, s range, l range)
    for r in np.unique(rank[rank > 0]).tolist():
        j0, j1 = np.searchsorted(rank, [r, r + 1])
        groups[r] = (j0, slice(s_end[j0] - r, s_end[j1 - 1]),
                     slice(l_start[j0], l_end[j1 - 1]))
    return (labels, rank, in_s, s_idx, l_idx, num, s_end, l_end, l_start,
            groups)


def _resolvent_distances(hams, z: complex, odd: np.ndarray,
                         layout=None) -> list:
    """Exact ||(H_k - z)^(-1) - (H_last - z)^(-1)|| for each Hermitian H_k
    of a cutoff ladder (0.0 for the last).

    Each H joins only states of opposite boson parity (`odd`) and only
    inside the pattern components of H_last (couplings persist as the
    cutoff grows), else ValueError, so the difference D is block
    diagonal over those components.  On one, with r states in its
    smaller parity class, H - z = [[Ds - z, C], [C^H, Dl - z]] (Ds, Dl
    diagonal) and by Feshbach-Schur (H - z)^(-1) = diag(0, (Dl - z)^(-1))
    + U S^(-1) V^H, U = [I; -(Dl - z)^(-1) C^H], V^H = [I, -C (Dl -
    z)^(-1)], S = (Ds - z) - C (Dl - z)^(-1) C^H.  So D_c = Delta + X W,
    Delta diagonal, X = [U_k S_k^(-1), -U_f S_f^(-1)], W = [V_k^H; V_f^H],
    whose 2r x 2r Gram products (one sparse product for all components
    of one r) give ||XW|| and ||Delta^H XW||; ||D_c||^2 <= max|Delta_c|^2
    + ||XW||^2 + 2 ||Delta^H XW||, no looser than Weyl's bound.  The
    components are solved in decreasing order of that bound (the largest
    singular value of the dense D_c built from the pieces; Delta alone on
    one state) until the bound reaches the largest norm found; a rung
    whose CSR arrays equal the last's is 0.0 before any bound.  A z on
    an eliminated diagonal entry, or an S whose inverse misses
    SCHUR_RTOL (a singular one always does), raises SolveNotConverged.
    layout is the _parity_layout of H_last's pattern components, built
    here when not given; the convergence study builds it once from its
    finest control and hands it to every variant's ladder.
    """
    if layout is None:
        layout = _parity_layout(_pattern_components(hams[-1]), odd)
    (labels, rank, in_s, s_idx, l_idx, num, s_end, l_end, l_start,
     groups) = layout
    rungs = []                   # (C, Dl - z, r -> pieces) per operator
    for h in hams:
        rows, cols = _entry_rows(h), h.indices
        off = rows != cols
        if (np.any(odd[rows[off]] == odd[cols[off]])
                or np.any(labels[rows] != labels[cols])):
            raise ValueError("operator couples states of equal boson parity,"
                             " or states the last one leaves apart")
        d = h.diagonal() - complex(z)
        e = d[l_idx]
        if not np.all(e != 0):
            raise SolveNotConverged("z = %r meets a diagonal entry of the "
                                    "eliminated parity class" % (z,))
        sl = in_s[rows] & ~in_s[cols]
        c = sparse.csr_array((h.data[sl], (num[rows[sl]], num[cols[sl]])),
                             shape=(s_idx.size, l_idx.size), dtype=complex)
        per_r = {}
        for r, (_, srng, lrng) in groups.items():
            cg, eg, ii = c[srng, lrng], e[lrng], np.arange(r)
            chg = sparse.csr_array(cg.conj().T)
            schur = -_gram_blocks(cg, chg, 1.0 / eg, r)
            schur[:, ii, ii] += d[s_idx[srng]].reshape(-1, r)
            # a singular S has no pseudo-inverse that passes the check
            inv = np.linalg.pinv(schur)
            res = np.linalg.norm(schur @ inv - np.eye(r), axis=(1, 2))
            if not np.all(res <= SCHUR_RTOL * np.sqrt(r)):
                raise SolveNotConverged(
                    "Schur complement residual %.3e above %.1e relative"
                    % (res.max(), SCHUR_RTOL))
            # the last item is U^H U = V^H V of this rung
            per_r[r] = (cg, chg, eg, inv,
                        np.eye(r) + _gram_blocks(cg, chg, abs(eg) ** -2, r))
        rungs.append((c, e, per_r))

    def solve(j, delta, *pair):
        """||D_c|| of component j, from the dense Delta + X W."""
        r, lrng = rank[j], slice(l_start[j], l_end[j])
        if not r:
            return float(abs(delta[l_start[j]]))
        dense = np.diag(np.append(np.zeros(r), delta[lrng]))
        for sign, (c, e, per_r) in zip((1.0, -1.0), pair):
            inv = per_r[r][3][j - groups[r][0]]
            cd = c[s_end[j] - r:s_end[j], lrng].toarray()
            x = np.vstack([inv, -(cd.conj().T / e[lrng, None]) @ inv])
            dense += sign * x @ np.hstack([np.eye(r), -cd / e[lrng]])
        return float(np.linalg.norm(dense, 2))

    dists = []
    for h, rung in zip(hams, rungs[:-1]):
        if h.shape == hams[-1].shape and all(
                np.array_equal(getattr(h, a), getattr(hams[-1], a))
                for a in ("indptr", "indices", "data")):
            dists.append(0.0)
            continue
        delta = 1.0 / rung[1] - 1.0 / rungs[-1][1]
        dmax = np.maximum.reduceat(np.abs(delta), l_start)
        bound = dmax ** 2
        for r, (j0, _, lrng) in groups.items():
            ck, chk, ek, ik, nk = rung[2][r]
            cf, chf, ef, i_f, nf = rungs[-1][2][r]
            a2 = np.abs(delta[lrng]) ** 2
            u, v, gkf = (_gram_blocks(ck, chf, w, r) for w in (
                1 / (ek.conj() * ef), 1 / (ek * ef.conj()),
                a2 / (ek.conj() * ef)))
            # ||XW||^2 is the top eigenvalue of (X^H X)(W W^H) and
            # ||Delta^H XW||^2 that of (X^H |Delta|^2 X)(W W^H); with P =
            # diag(S_k^(-1), S_f^(-1)) they are those of G (P W W^H P^H)
            p = _hermitian_blocks(ik, 0 * ik, i_f)
            q = p @ _hermitian_blocks(nk, v + np.eye(r), nf) \
                @ p.conj().swapaxes(1, 2)
            gx = _hermitian_blocks(nk, -u - np.eye(r), nf)
            gd = _hermitian_blocks(
                _gram_blocks(ck, chk, a2 / abs(ek) ** 2, r), -gkf,
                _gram_blocks(cf, chf, a2 / abs(ef) ** 2, r))
            xw2, dxw2 = (np.maximum(np.linalg.eigvals(g @ q).real.max(1), 0)
                         for g in (gx, gd))
            bound[j0:j0 + ik.shape[0]] += xw2 + 2.0 * np.sqrt(dxw2)
        bound = np.sqrt(bound)
        best, j = 0.0, int(np.argmax(bound))
        while bound[j] > best:
            best, bound[j] = max(best, solve(j, delta, rung, rungs[-1])), 0.0
            j = int(np.argmax(bound))
        dists.append(float(best))
    return dists + [0.0]


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


def check_study(lambda_list, variants, eig_tol):
    """Cutoffs (nonempty, increasing) and variants as lists; eig_tol > 0."""
    lams = [float(x) for x in lambda_list]
    variants = [int(v) for v in variants]
    check_variants(variants)
    if not lams or any(not b > a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda_list must be nonempty, strictly increasing")
    check_tol(eig_tol=eig_tol)
    return lams, variants


def cutoff_convergence_study(basis: FockBasis, lambda_list, variants,
                             lambda_shift: float = 0.0,
                             eig_tol: float = 1e-9) -> dict:
    """Ground energies and Cauchy-style convergence measures over a
    cutoff ladder, one ConvergenceTable per counterterm variant.

    For every cutoff the renormalized operator is assembled on the fixed
    basis.  Both distances to the finest cutoff are exact maxima over
    pattern components: the resolvent distance ||(H_lam - z)^(-1) -
    (H_fin - z)^(-1)|| at z = RESOLVENT_Z from Feshbach-Schur pieces on
    the boson-parity classes of H_fin's components (see
    _resolvent_distances), and the distance of the virtual-boson block
    weighted by (L+1)^-(uv_degree/gamma + T_WEIGHT_EPSILON) from dense
    blocks of the difference (see _block_norm).  A control column holds
    the unrenormalized ground energy, whose downward drift is the
    divergence the counterterm subtracts.

    Each cutoff's creation matrix (kept on the basis, see ops) feeds the
    control (free + a + a^dagger), the block T of assemble_T_cutoff and
    every variant's Hamiltonian; control and T serve every table, and
    each (cutoff, variant)'s counterterm rows its Hamiltonian and T
    block.  The shift is checked before any assembly (T inverts L +
    lambda_shift); a cutoff beyond the boson box warns once.

    Work that the cutoff or the variant does not change is done once.
    The lattice shift data behind the counterterm rows are built once per
    nucleon and kept only while those rows are computed (see
    quad._grid_shift_data).  Each cutoff's pattern components are
    labelled once, from the control, whose off-diagonal pattern every
    variant's operator at that cutoff shares.  They serve every ground
    solve at that cutoff and no other, and the finest cutoff's, with
    their _parity_layout, every variant's resolvent distances (whose
    components are H_fin's).  The labels are dropped when the study
    returns.
    """
    lams, variants = check_study(lambda_list, variants, eig_tol)
    check_shift(lambda_shift, basis.params)
    reach = basis.grid.k_max * np.sqrt(basis.grid.d)
    if max(lams) > reach * (1 + 1e-12):
        raise ValueError("largest cutoff %.6g exceeds the grid reach %.6g"
                         % (max(lams), reach))

    params = basis.params
    exps = ultraviolet_degree(params)
    weight = (basis.free_diagonal + 1.0) ** (
        -(max(exps.uv_degree, 0.0) / params.gamma + T_WEIGHT_EPSILON))
    digest = basis_digest(basis)
    odd = _odd_bosons(basis)

    no_counterterm = np.zeros(basis.nuc_dim)
    a_mats, controls, t_ops, patterns = [], [], [], []
    for lam in lams:
        _warn_beyond_reach(basis, lam)
        a_mat = _creation_matrix(basis, lam)
        h_bare = SparseOperator(
            basis, _direct_matrix(basis, a_mat, no_counterterm),
            {"path": "direct", "lambda_uv": lam, "control": "no-counterterm"},
            True)
        patterns.append(_pattern_components(h_bare.matrix))
        controls.append(float(lowest_eigenpairs(
            h_bare, eig_tol, _pattern=patterns[-1]).values[0]))
        t_ops.append(_t_cutoff_matrix(basis, lam, lambda_shift))
        a_mats.append(a_mat)
    layout = _parity_layout(patterns[-1], odd)
    # the counterterm rows (nuc_dim values each) of every variant and
    # cutoff, from one build of the lattice shift data per nucleon
    with _shift_data_kept():
        counterterms = {(variant, lam): _counterterm_rows(basis, lam, variant)
                        for variant in variants for lam in lams}

    tables = {}
    for variant in variants:
        hams, t_blocks, grounds = [], [], []
        for lam, a_mat, t_op, pattern in zip(lams, a_mats, t_ops, patterns):
            e_rows = counterterms[variant, lam]
            hd = SparseOperator(basis, _direct_matrix(basis, a_mat, e_rows),
                                {"path": "direct", "lambda_uv": lam,
                                 "variant": variant}, True)
            hams.append(hd.matrix)
            grounds.append(float(lowest_eigenpairs(
                hd, eig_tol, _pattern=pattern).values[0]))
            e_diag = basis.nucleon_diagonal(e_rows)
            # the cutoff block lives on sectors below the top (its
            # intermediates carry one extra boson), so the counterterm is
            # paired with it on those sectors only
            e_diag[basis.sector_slice(basis.n_max)] = 0.0
            t_blocks.append(sparse.csr_array(
                t_op + sparse.diags_array(e_diag, format="csr")))

        t_diffs = [_block_norm(_diag_scaled(t - t_blocks[-1], cols=weight))
                   for t in t_blocks[:-1]] + [0.0]
        rows = [ConvergenceRow(*row) for row in zip(
            lams, grounds, controls,
            _resolvent_distances(hams, RESOLVENT_Z, odd, layout), t_diffs)]
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


def check_fit_cutoffs(lambda_list) -> None:
    """A 2-parameter fit needs at least 3 cutoffs, all > 0."""
    if len(lambda_list) < 3:
        raise InsufficientPoints("need at least 3 points for a 2-parameter fit")
    if not all(lam > 0 for lam in lambda_list):
        raise ValueError("cutoffs must be positive")


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
    check_fit_cutoffs(lams)

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


def check_ladder(k_maxes, eta_list) -> list:
    """Distinct exponents >= 0 as floats, on 3 or more increasing k_max."""
    if len(k_maxes) < 3:
        raise InsufficientPoints("need at least 3 refinements")
    if any(not b > a for a, b in zip(k_maxes, k_maxes[1:])):
        raise ValueError("refinements must have strictly increasing k_max")
    etas = [float(e) for e in eta_list]
    if not etas or len(set(etas)) < len(etas) or not all(e >= 0 for e in etas):
        raise ValueError("eta_list must be nonempty, distinct and >= 0")
    return etas


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
    k_maxes = [b.grid.k_max for b in bases]
    etas = check_ladder(k_maxes, eta_list)
    params = bases[0].params
    if any(b.params != params for b in bases[1:]):
        raise ValueError("refinements must share one model")
    check_shift(lambda_shift, params)
    check_tol(eig_tol=eig_tol)

    rows, energies, digests = [], [], []
    singular = {e: [] for e in etas}
    for basis in bases:
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
            rows.append(RegularityRow(basis.grid.k_max,
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
