"""Golden panel of the assembled operators, and their one index type.

Every builder's matrix on four bases is reduced to a digest: its scalar
dtype, its shape, and the sha256 of its data bytes and of its indices
and indptr after casting them to int64.  The digests in
ops_golden.json were recorded when the operators stored int64 index
arrays; comparing index values rather than index bytes lets the index
type change while every stored value and position stays the same.

Bases: the `gross` preset at cutoff 4 with shifts {0, 1} and variants
{1, 2}; the `nelson` preset at cutoff 2, same shifts and variants; a
two-nucleon basis whose second coupling is complex, at cutoff 1 and
shift 0.5 (the only panel with the nucleon-exchange piece theta); and
cutoff 0, where the creation matrix stores nothing.

Every operator of a basis stores one index type, int32 unless the basis
dimension or an operator's entry count exceeds 2**31 - 1 (ops._csr).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import ibcfock as ib
from ibcfock import ops
from ibcfock.cli import load_config

GOLDEN = Path(__file__).with_name("ops_golden.json")
SHIFTS, VARIANTS = (0.0, 1.0), (1, 2)


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def digest(m) -> list:
    """dtype, shape and the sha256 of data, indices and indptr (the index
    arrays as int64 values)."""
    return [str(m.dtype), list(m.shape), _sha(m.data),
            _sha(m.indices.astype(np.int64)), _sha(m.indptr.astype(np.int64))]


def preset_basis(name):
    cfg = load_config(name)
    grid = ib.build_grid(cfg.params.d, cfg.k_max, cfg.n_per_axis)
    return ib.enumerate_basis(cfg.params, grid, cfg.n_max)


def complex_basis():
    params = ib.gross_model(coupling=(1.0, 0.8 * np.exp(0.7j)), mu=1.0,
                            m_boson=1.0, n_nucleons=2)
    return ib.enumerate_basis(params, ib.build_grid(2, 1.0, 3), n_max=2)


def builders(basis, lam, shifts, variants):
    """(label, builder) of every operator of the panel on one basis."""
    m_nuc = basis.params.n_nucleons
    pairs = [(i, ell) for i in range(m_nuc) for ell in range(m_nuc)]
    out = [("creation", lambda: ib.assemble_creation(basis, lam)),
           ("annihilation", lambda: ib.assemble_annihilation(basis, lam))]
    out += [("H_direct v%d" % v,
             lambda v=v: ib.assemble_H_direct(basis, lam, v))
            for v in variants]
    for s in shifts:
        out += [("G s%g" % s, lambda s=s: ib.assemble_G(basis, lam, s)),
                ("T_cutoff s%g" % s,
                 lambda s=s: ib.assemble_T_cutoff(basis, lam, s)),
                ("T_od s%g" % s,
                 lambda s=s: ib.assemble_T_od(basis, lam, lambda_shift=s))]
        out += [("theta %d%d s%g" % (i, ell, s),
                 lambda i=i, ell=ell, s=s: ib.assemble_theta(
                     basis, i, ell, lam, s)) for i, ell in pairs if i != ell]
        out += [("tau %d%d s%g" % (i, ell, s),
                 lambda i=i, ell=ell, s=s: ib.assemble_tau(
                     basis, i, ell, lam, s)) for i, ell in pairs]
        for v in variants:
            out += [("T_d v%d s%g" % (v, s),
                     lambda v=v, s=s: ib.assemble_Td(basis, lam, v,
                                                     lambda_shift=s)),
                    ("H_ibc v%d s%g" % (v, s),
                     lambda v=v, s=s: ib.assemble_H_ibc(basis, lam, v, s))]
    return out


def cutoff0_basis():
    return ib.enumerate_basis(ib.gross_model(), ib.build_grid(2, 1.0, 3),
                              n_max=2)


# name -> (basis, cutoff, shifts, variants)
PANELS = {
    "gross": (lambda: preset_basis("gross"), 4.0, SHIFTS, VARIANTS),
    "nelson": (lambda: preset_basis("nelson"), 2.0, SHIFTS, VARIANTS),
    "two-complex": (complex_basis, 1.0, (0.5,), VARIANTS),
    "cutoff-0": (cutoff0_basis, 0.0, (), (1,)),
}


def panel_digests(name) -> dict:
    make, *args = PANELS[name]
    return {label: digest(build().matrix)
            for label, build in builders(make(), *args)}


@pytest.mark.parametrize("name", sorted(PANELS))
def test_operators_match_the_golden_digests(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = panel_digests(name)
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], label


@pytest.mark.parametrize("name", sorted(PANELS))
def test_every_operator_of_a_basis_stores_int32_indices(name):
    # the diagonal L and a row and column scaling of the creation matrix
    # (the step from which G, T_cutoff and H_ibc start) included
    make, *args = PANELS[name]
    basis = make()
    mats = [build().matrix for _, build in builders(basis, *args)]
    scale = basis.free_diagonal + 1.0
    mats += [ib.assemble_L(basis).matrix,
             ops._diag_scaled(mats[0], rows=scale, cols=scale)]
    assert {(m.indices.dtype, m.indptr.dtype) for m in mats} == {
        (np.dtype(np.int32), np.dtype(np.int32))}


def test_index_type_rule_at_the_int32_limit():
    # on plain numbers: a matrix of 2**31 rows would need 16 GiB of indptr
    top = 2**31 - 1
    assert ops._index_dtype(top, top) is np.int32
    assert ops._index_dtype(top + 1, 0) is np.int64
    assert ops._index_dtype(1, top + 1) is np.int64
    assert ops._index_dtype(top + 1, top + 1) is np.int64
