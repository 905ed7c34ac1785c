"""Momentum lattices and the truncated symmetric Fock basis.

Momenta live on a uniform lattice {-k_max, ..., +k_max}^d with an odd
number of points per axis, so that 0 is always a lattice point.  A basis
state pairs one lattice point per nucleon with a multiset of boson
lattice points; multisets realize the symmetric sectors exactly, with
the symmetrization factors absorbed into matrix-element combinatorics
by the operator assembly.  Nucleons and bosons share the basis's one
lattice: a nucleon lattice index and a boson mode index name the same
point, so a nucleon at p that emits k recoils to the lattice point
p - k, and the total momentum of a state is a lattice sum.

Out-of-range momentum shifts are dropped (matrix element zero) rather
than wrapped periodically, because the dispersions are not periodic;
the resulting truncation error is part of the grid-refinement studies.
A refinement ladder widens the box at the base spacing, and
ladder_axis_counts refuses a rung off that spacing.

FockBasis alone knows the state layout, boson multisets included.  The
builders reach states only through sector_slice, sector_states and
state_index; nucleon_mode_table and nucleon_shift (a nucleon moving by
a boson momentum); boson_add, boson_remove and boson_count (the boson
rank after adding or removing one boson in mode q, and its occupation);
and nucleon_energy, boson_energy, nucleon_diagonal and free_diagonal.
Every table is built once per basis and read-only.  A basis listing
some of the states (one total-momentum fibre, say) that gives these the
same meaning runs the builders unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Tuple

import numpy as np

from .errors import BasisTooLarge, DimensionMismatch, EvenAxisCount
from .model import ModelParams, dispersion_boson, dispersion_nucleon

#: default cap on the total basis dimension; desk-scale guard
MAX_DIM_DEFAULT = 2_000_000


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum lattice {-k_max, ..., +k_max}^d.

    points enumerates the lattice in row-major (first axis slowest)
    order, so the flat index of a point with per-axis indices
    (i_1, ..., i_d) is sum_j i_j * n_per_axis^(d-j).  cell_weight = h^d
    is the quadrature weight of one lattice cell.
    """

    d: int
    k_max: float
    n_per_axis: int
    spacing: float
    axis: np.ndarray = field(compare=False)
    points: np.ndarray = field(compare=False)
    cell_weight: float

    @property
    def size(self) -> int:
        return self.n_per_axis ** self.d

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=-1)

    @cached_property
    def axis_offsets(self) -> np.ndarray:
        """(size, d) per-axis index offsets of the points from the origin."""
        axes = np.indices((self.n_per_axis,) * self.d, dtype=np.int32)
        table = np.ascontiguousarray(axes.reshape(self.d, -1).T)
        table -= self.n_per_axis // 2
        table.flags.writeable = False
        return table

    def manifest(self) -> dict:
        return {"d": self.d, "k_max": self.k_max, "n_per_axis": self.n_per_axis,
                "spacing": self.spacing, "size": self.size,
                "cell_weight": self.cell_weight}


def grid_spacing(k_max: float, n_per_axis: int) -> float:
    """Spacing of the lattice; n_per_axis must be odd (1 is the degenerate
    single-mode lattice {0}, with the whole box as its cell)."""
    if n_per_axis < 1 or n_per_axis % 2 == 0:
        raise EvenAxisCount("n_per_axis must be odd and positive, got %d" % n_per_axis)
    if not 0 < k_max < np.inf:
        raise ValueError("k_max must be finite and positive, got %r" % k_max)
    return 2.0 * k_max / max(n_per_axis - 1, 1)


def ladder_axis_counts(k_max: float, n_per_axis: int, rungs) -> list:
    """Odd point counts n of the ladder rungs that widen the lattice's box
    at its spacing h: each rung k_max must be (n - 1) * h / 2 > 0."""
    h = grid_spacing(k_max, n_per_axis)
    counts = [int(round(2.0 * km / h)) + 1 for km in rungs]
    for km, n in zip(rungs, counts):
        if n % 2 == 0 or not abs((n - 1) * h / 2.0 - km) < 1e-9 * km:
            raise ValueError("ladder k_max %g is not (n - 1) * h / 2 for an "
                             "odd n at the base spacing h = %g" % (km, h))
    return counts


def build_grid(d: int, k_max: float, n_per_axis: int) -> MomentumGrid:
    """Construct the lattice at grid_spacing(k_max, n_per_axis)."""
    spacing = grid_spacing(k_max, n_per_axis)
    if n_per_axis == 1:
        axis = np.zeros(1)
    else:
        axis = np.linspace(-k_max, k_max, n_per_axis)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, d)
    return MomentumGrid(d=d, k_max=float(k_max), n_per_axis=int(n_per_axis),
                        spacing=float(spacing), axis=axis, points=points,
                        cell_weight=float(spacing) ** d)


def point_index(grid: MomentumGrid, p) -> int:
    """Flat index of a lattice point given by coordinates; raises if p is
    not on the lattice."""
    p = np.asarray(p, dtype=float)
    if p.shape != (grid.d,):
        raise ValueError("expected a single point of dimension %d" % grid.d)
    idx = np.rint((p + grid.k_max) / grid.spacing).astype(int) if grid.n_per_axis > 1 \
        else np.zeros(grid.d, dtype=int)
    if np.any(idx < 0) or np.any(idx >= grid.n_per_axis):
        raise ValueError("point outside the lattice box")
    if not np.allclose(grid.axis[idx], p, rtol=0, atol=1e-9 * max(1.0, grid.k_max)):
        raise ValueError("point is not a lattice point")
    return int(np.dot(idx, grid.n_per_axis ** np.arange(grid.d - 1, -1, -1)))


def translate_indices(grid: MomentumGrid, ip, ik, sign: int = 1):
    """Vectorized lattice shift p + sign*k on flat indices.

    Inside the box, p + sign*k is ip + sign*(ik - size // 2), size // 2
    being the origin; axis_offsets decide whether it stays inside.
    Returns (target flat indices, validity mask); invalid targets are
    set to 0 and must be masked by the caller.
    """
    ip, ik = np.asarray(ip), np.asarray(ik)
    tgt = grid.axis_offsets[ip] + sign * grid.axis_offsets[ik]
    valid = np.all(np.abs(tgt) <= grid.n_per_axis // 2, axis=-1)
    return np.where(valid, ip + sign * (ik - grid.size // 2), 0), valid


# ---------------------------------------------------------------------------
# truncated symmetric Fock basis

def _kept_table(build):
    """FockBasis method decorator: build(basis, *key)'s table is built once
    per key and kept read-only in that basis's own __dict__ (equal bases
    never share it)."""
    @wraps(build)
    def kept(basis, *key):
        tables = vars(basis).setdefault("_tables", {})
        name = (build.__name__,) + key
        if name not in tables:
            table = build(basis, *key)
            table.flags.writeable = False
            tables[name] = table
        return tables[name]
    return kept


@dataclass(frozen=True)
class FockBasis:
    """Enumerated basis of the truncated Fock space.

    Sector n holds every pairing of a nucleon configuration (flat
    product index over M lattice points, row-major) with a boson
    multiset (nondecreasing mode-index tuples in lexicographic order).
    The flat index of a state is

        offsets[n] + i_nucleon * bos_dims[n] + i_boson.

    grid is the one lattice of both: nucleon lattice indices and boson
    modes index the same points.  params is the model every operator on
    the basis is assembled for.
    """

    params: ModelParams
    grid: MomentumGrid
    n_max: int
    nuc_dim: int
    bos_modes: Tuple[np.ndarray, ...] = field(compare=False)
    bos_keys: Tuple[np.ndarray, ...] = field(compare=False)
    sector_dims: Tuple[int, ...]
    offsets: Tuple[int, ...]
    total_dim: int

    # -- structure ---------------------------------------------------------
    def bos_dim(self, n: int) -> int:
        return self.bos_modes[n].shape[0]

    def sector_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n] + self.sector_dims[n])

    @_kept_table
    def nucleon_mode_table(self) -> np.ndarray:
        """(nuc_dim, M) int64 table of per-nucleon lattice indices."""
        return np.stack(np.unravel_index(
            np.arange(self.nuc_dim, dtype=np.int64),
            (self.grid.size,) * self.params.n_nucleons), axis=1)

    @_kept_table
    def nucleon_shift(self, i: int, sign: int) -> np.ndarray:
        """(nuc_dim, G) table of the configuration reached when nucleon i
        moves by sign*k_q, -1 where it leaves the lattice."""
        src = self.nucleon_mode_table()[:, i, None]
        tgt, ok = translate_indices(self.grid, src, np.arange(self.grid.size),
                                    sign)
        stride = self.grid.size ** (self.params.n_nucleons - 1 - i)
        cfg = np.arange(self.nuc_dim, dtype=np.int64)[:, None]
        return np.where(ok, cfg + (tgt - src) * stride, -1)

    @_kept_table
    def boson_add(self, n: int) -> np.ndarray:
        """(bos_dim(n), G) int64 table of the sector-(n+1) boson rank of
        each sector-n multiset with one boson added in mode q."""
        if not 0 <= n < self.n_max:
            raise IndexError("boson_add needs 0 <= n < %d" % self.n_max)
        modes, g = self.bos_modes[n], self.grid.size
        grown = np.column_stack([np.repeat(modes, g, axis=0),
                                 np.tile(np.arange(g), len(modes))])
        return self.rank_bosons(n + 1, np.sort(grown, axis=1)).reshape(-1, g)

    @_kept_table
    def boson_remove(self, n: int) -> np.ndarray:
        """(bos_dim(n), G) int64 table of the sector-(n-1) boson rank of
        each sector-n multiset with one boson removed from mode q, -1
        where it holds none; boson_add(n - 1) scattered back."""
        if not 0 < n <= self.n_max:
            raise IndexError("boson_remove needs 0 < n <= %d" % self.n_max)
        add = self.boson_add(n - 1)
        table = np.full((self.bos_dim(n), add.shape[1]), -1, dtype=np.int64)
        table[add, np.arange(add.shape[1])] = np.arange(len(add))[:, None]
        return table

    @_kept_table
    def boson_count(self, n: int) -> np.ndarray:
        """(bos_dim(n), G) int64 table of the occupation of mode q."""
        return (self.bos_modes[n][:, :, None] == np.arange(
            self.grid.size)).sum(axis=1, dtype=np.int64)

    @_kept_table
    def nucleon_energy(self) -> np.ndarray:
        """Summed nucleon dispersion of every configuration."""
        theta = dispersion_nucleon(self.grid.points, self.params)
        return theta[self.nucleon_mode_table()].sum(axis=1)

    @_kept_table
    def boson_energy(self, n: int) -> np.ndarray:
        """Summed boson dispersion of every sector-n multiset."""
        omega = dispersion_boson(self.grid.points, self.params)
        return omega[self.bos_modes[n]].sum(axis=-1)

    def sector_states(self, n: int):
        """(configurations, boson ranks) of sector_slice(n)'s states, in order."""
        b_dim = self.bos_dim(n)
        return (np.repeat(np.arange(self.nuc_dim, dtype=np.int64), b_dim),
                np.tile(np.arange(b_dim, dtype=np.int64), self.nuc_dim))

    def nucleon_diagonal(self, rows) -> np.ndarray:
        """Diagonal over every state from a per-nucleon-configuration
        vector: entry i_nucleon repeated over the boson states of each
        sector."""
        return np.concatenate([np.repeat(rows, self.bos_dim(n))
                               for n in range(self.n_max + 1)])

    @cached_property
    def free_diagonal(self) -> np.ndarray:
        """Free energy of every state: the nucleon plus the boson
        dispersions of its configuration.  Computed once per basis and
        read-only, since every assembly shares it."""
        values = self.nucleon_diagonal(self.nucleon_energy()) + np.concatenate(
            [np.tile(self.boson_energy(n), self.nuc_dim)
             for n in range(self.n_max + 1)])
        values.flags.writeable = False
        return values

    # -- index maps --------------------------------------------------------
    def rank_bosons(self, n: int, modes) -> np.ndarray:
        """Index of sorted multisets (as (..., n) arrays of mode indices)
        within sector n's boson enumeration."""
        modes = np.asarray(modes, dtype=np.int64)
        if n == 0:
            return np.zeros(modes.shape[:-1], dtype=np.int64)
        base = np.int64(self.grid.size + 1)
        key = np.zeros(modes.shape[:-1], dtype=np.int64)
        for j in range(n):
            key = key * base + modes[..., j]
        return np.searchsorted(self.bos_keys[n], key)

    def state_index(self, n: int, i_nuc, i_bos) -> np.ndarray:
        return self.offsets[n] + np.asarray(i_nuc) * self.bos_dim(n) + np.asarray(i_bos)

    def decode(self, i: int):
        """(sector, nucleon mode tuple, boson mode tuple) of flat index i."""
        if not 0 <= i < self.total_dim:
            raise IndexError("state index out of range")
        n = int(np.searchsorted(np.asarray(self.offsets), i, side="right") - 1)
        rel = i - self.offsets[n]
        i_nuc, i_bos = divmod(rel, self.bos_dim(n))
        nuc = tuple(int(v) for v in self.nucleon_mode_table()[i_nuc])
        bos = tuple(int(v) for v in self.bos_modes[n][i_bos])
        return n, nuc, bos

    def index_of(self, n: int, nuc_modes, bos_modes_sorted) -> int:
        """Flat index of a state given per-nucleon lattice indices and a
        boson multiset (any order; sorted internally).  Raises on a sector
        outside 0..n_max, a wrong number of nucleon modes or bosons, or a
        mode outside its lattice."""
        if not 0 <= n <= self.n_max:
            raise IndexError("sector %r outside 0..%d" % (n, self.n_max))
        nuc = np.asarray(nuc_modes, dtype=np.int64)
        bos = np.sort(np.asarray(bos_modes_sorted, dtype=np.int64))
        if nuc.shape != (self.params.n_nucleons,) or bos.shape != (n,):
            raise ValueError("sector %d needs %d nucleon modes and %d bosons"
                             % (n, self.params.n_nucleons, n))
        if (np.any((nuc < 0) | (nuc >= self.grid.size))
                or np.any((bos < 0) | (bos >= self.grid.size))):
            raise IndexError("mode index outside its lattice")
        i_nuc = np.ravel_multi_index(nuc, (self.grid.size,) * nuc.size)
        return int(self.state_index(n, i_nuc, self.rank_bosons(n, bos)))

    def manifest(self) -> dict:
        return {
            "total_dim": self.total_dim,
            "n_max": self.n_max,
            "n_nucleons": self.params.n_nucleons,
            "sector_dims": list(self.sector_dims),
            "offsets": list(self.offsets),
            # two keys kept: basis_digest hashes them (artifacts, Lanczos)
            "nucleon_grid": self.grid.manifest(),
            "boson_grid": self.grid.manifest(),
        }


def sector_dimension(n_modes: int, n_nucleons: int, n: int) -> int:
    """G^M * C(G+n-1, n) on a lattice of G points: the M nucleons on any
    points times the stars-and-bars count of n bosons over G modes."""
    return n_modes ** n_nucleons * math.comb(n_modes + n - 1, n)


def check_n_max(n_max: int) -> None:
    """Boson sectors run over 0..n_max."""
    if not n_max >= 0:
        raise ValueError("n_max must be >= 0")


def enumerate_basis(params: ModelParams, grid: MomentumGrid, n_max: int,
                    max_dim: int = MAX_DIM_DEFAULT) -> FockBasis:
    """Deterministic lexicographic enumeration of the truncated basis on
    one momentum lattice, shared by the nucleons and the bosons."""
    if grid.d != params.d:
        raise DimensionMismatch("grid and model must share the dimension d")
    check_n_max(n_max)
    g = grid.size
    nuc_dim = g ** params.n_nucleons
    dims = [sector_dimension(g, params.n_nucleons, n)
            for n in range(n_max + 1)]
    total = int(sum(dims))
    if total > max_dim:
        raise BasisTooLarge("basis dimension %d exceeds cap %d" % (total, max_dim))

    bos_modes = []
    bos_keys = []
    base = np.int64(g + 1)
    for n in range(n_max + 1):
        if n == 0:
            modes = np.zeros((1, 0), dtype=np.int32)
        elif n == 1:
            modes = np.arange(g, dtype=np.int32)[:, None]
        else:
            combos = itertools.combinations_with_replacement(range(g), n)
            modes = np.fromiter(itertools.chain.from_iterable(combos),
                                dtype=np.int32).reshape(-1, n)
        key = np.zeros(modes.shape[0], dtype=np.int64)
        for j in range(n):
            key = key * base + modes[:, j]
        bos_modes.append(modes)
        bos_keys.append(key)

    offsets = tuple(int(v) for v in np.concatenate([[0], np.cumsum(dims)[:-1]]))
    return FockBasis(params=params, grid=grid, n_max=n_max, nuc_dim=nuc_dim,
                     bos_modes=tuple(bos_modes), bos_keys=tuple(bos_keys),
                     sector_dims=tuple(int(v) for v in dims), offsets=offsets,
                     total_dim=total)
