"""Tests for momentum lattices and the truncated Fock basis."""

import itertools
import json

import numpy as np
import pytest

import ibcfock as ib
from ibcfock import fockgrid as fg
from ibcfock.errors import BasisTooLarge, DimensionMismatch, EvenAxisCount


def test_build_grid_examples():
    g = fg.build_grid(1, 1.0, 3)
    np.testing.assert_array_equal(g.points[:, 0], [-1.0, 0.0, 1.0])
    assert g.spacing == 1.0 and g.cell_weight == 1.0
    g2 = fg.build_grid(2, 2.0, 5)
    assert g2.size == 25 and g2.spacing == 1.0
    g1 = fg.build_grid(1, 1.0, 1)
    np.testing.assert_array_equal(g1.points, [[0.0]])
    assert g1.cell_weight == 2.0  # cell covers the whole box


def test_build_grid_rejects_even_axis():
    for n_per_axis in (4, 0, -3):
        with pytest.raises(EvenAxisCount):
            fg.build_grid(1, 1.0, n_per_axis)


def test_grid_spacing_is_the_grid_spacing():
    for k_max, n in [(1.0, 1), (1.0, 3), (2.0, 5), (0.3, 17), (4, 9)]:
        assert fg.grid_spacing(k_max, n) == fg.build_grid(1, k_max, n).spacing


def test_ladder_axis_counts_keep_the_base_spacing():
    # h = 1 at k_max 2 with 5 points: a rung widens the box, not h
    assert fg.ladder_axis_counts(2.0, 5, (2.0, 4.0, 8.0)) == [5, 9, 17]
    assert fg.ladder_axis_counts(1.0, 3, (1.0, 2.0, 4.0)) == [3, 5, 9]
    assert fg.build_grid(2, 8.0, 17).spacing == fg.grid_spacing(2.0, 5)
    # off the spacing (2.2 would run 5 points at 1.1; 1.5 needs 4), or
    # not a positive radius
    for rung in (2.2, 1.5, 0.0, -2.0, np.nan):
        with pytest.raises(ValueError):
            fg.ladder_axis_counts(2.0, 5, (2.0, rung))
    # the base lattice answers to build_grid's rules
    with pytest.raises(EvenAxisCount):
        fg.ladder_axis_counts(2.0, 4, (2.0,))
    with pytest.raises(ValueError):
        fg.ladder_axis_counts(np.nan, 5, (2.0,))
    # a one-point lattice (spacing 2 k_max) has no odd rung at k_max
    with pytest.raises(ValueError):
        fg.ladder_axis_counts(1.0, 1, (1.0,))


def test_cell_weights_tile_the_box():
    for d, k_max, n in [(1, 1.0, 3), (2, 2.0, 5), (3, 1.5, 3)]:
        g = fg.build_grid(d, k_max, n)
        total = g.size * g.cell_weight
        np.testing.assert_allclose(total, (2 * k_max + g.spacing) ** d, rtol=1e-12)


def test_point_index_roundtrip():
    g = fg.build_grid(2, 2.0, 5)
    for i in [0, 7, 24]:
        assert fg.point_index(g, g.points[i]) == i
    with pytest.raises(ValueError):
        fg.point_index(g, [0.3, 0.0])  # not a lattice point


# ---------------------------------------------------------------------------
# basis enumeration

def _tiny_basis(n_max=2, n_nucleons=1, n_per_axis=3):
    params = ib.custom_model(d=1, alpha=0.4, beta=1.0, gamma=1.0, mu=1.0,
                             n_nucleons=n_nucleons)
    grid = fg.build_grid(1, 1.0, n_per_axis)
    return fg.enumerate_basis(params, grid, n_max)


def test_sector_dimensions():
    b = _tiny_basis(n_max=1)
    assert b.sector_dims == (3, 9) and b.total_dim == 12
    b = _tiny_basis(n_max=2)
    assert b.sector_dims == (3, 9, 18) and b.total_dim == 30
    b = _tiny_basis(n_max=0)
    assert b.total_dim == 3
    b = _tiny_basis(n_max=1, n_nucleons=2)
    assert b.sector_dims == (9, 27) and b.total_dim == 36


def test_sector_dimension_matches_brute_force():
    for g_size in (2, 3, 5):
        for n in range(4):
            brute = len(set(itertools.combinations_with_replacement(range(g_size), n)))
            assert fg.sector_dimension(g_size, 0, n) == brute
            assert fg.sector_dimension(g_size, 2, n) == g_size ** 2 * brute


def test_index_roundtrip_all_states():
    for b in (_tiny_basis(n_max=3), _tiny_basis(n_max=2, n_nucleons=2)):
        for i in range(b.total_dim):
            n, nuc, bos = b.decode(i)
            assert b.index_of(n, nuc, bos) == i


def test_multiset_symmetry_of_lookup():
    b = _tiny_basis(n_max=3)
    i1 = b.index_of(3, (1,), (0, 2, 2))
    i2 = b.index_of(3, (1,), (2, 0, 2))
    i3 = b.index_of(3, (1,), (2, 2, 0))
    assert i1 == i2 == i3


@pytest.mark.parametrize("n, nuc, bos, error", [
    (1, (0,), (9,), IndexError),       # boson mode past the lattice
    (1, (0,), (3, 4), ValueError),     # two bosons in sector 1
    (1, (9,), (0,), IndexError),       # nucleon mode past the lattice
    (1, (-1,), (0,), IndexError),
    (0, (0,), (5,), ValueError),       # a boson in the vacuum sector
    (1, (0, 0), (0,), ValueError),     # two nucleon modes for one nucleon
    (3, (0,), (0, 0, 0), IndexError),  # sector past n_max
    (-1, (0,), (), IndexError),
])
def test_index_of_rejects_malformed_states(n, nuc, bos, error):
    # each of these used to return the index of some other state
    grid = fg.build_grid(2, 1.0, 3)
    b = fg.enumerate_basis(ib.gross_model(), grid, 2)
    with pytest.raises(error):
        b.index_of(n, nuc, bos)


def _shift_oracle(basis, i, sign):
    """nucleon_shift by coordinate arithmetic on point_index, independent
    of translate_indices."""
    grid = basis.grid
    out = np.full((basis.nuc_dim, grid.size), -1)
    for c, modes in enumerate(itertools.product(range(grid.size),
                                                repeat=basis.params.n_nucleons)):
        for q, k in enumerate(grid.points):
            moved = list(modes)
            try:
                moved[i] = fg.point_index(grid, grid.points[modes[i]] + sign * k)
            except ValueError:
                continue
            out[c, q] = int(np.ravel_multi_index(moved, (grid.size,) * len(moved)))
    return out


@pytest.mark.parametrize("d, n_nucleons", [(2, 1), (2, 2), (2, 3), (3, 1),
                                           (3, 2)])
def test_nucleon_shift_matches_coordinate_oracle(d, n_nucleons):
    params = ib.custom_model(d=d, alpha=0.4, beta=1.0, gamma=1.0, mu=1.0,
                             n_nucleons=n_nucleons)
    grid = fg.build_grid(d, 1.0, 3)
    b = fg.enumerate_basis(params, grid, 0)
    for i in range(n_nucleons):
        for sign in (-1, 1):
            table = b.nucleon_shift(i, sign)
            assert table.shape == (b.nuc_dim, grid.size)
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, _shift_oracle(b, i, sign))
            assert (table == -1).any() and (table >= 0).any()
            assert b.nucleon_shift(i, sign) is table   # built once
            with pytest.raises(ValueError):
                table[0, 0] = 0


def test_nucleon_mode_table_is_kept_read_only_int64():
    b = _tiny_basis(n_max=1, n_nucleons=2)
    table = b.nucleon_mode_table()
    assert table.dtype == np.int64 and b.nucleon_mode_table() is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_sector_states_reproduce_decode():
    for b in (_tiny_basis(n_max=3), _tiny_basis(n_max=2, n_nucleons=2)):
        table = b.nucleon_mode_table()
        for n in range(b.n_max + 1):
            cfg, rank = b.sector_states(n)
            flat = range(b.sector_slice(n).start, b.sector_slice(n).stop)
            assert len(cfg) == len(rank) == len(flat)
            np.testing.assert_array_equal(b.state_index(n, cfg, rank), flat)
            for i, c, r in zip(flat, cfg, rank):
                assert b.decode(i) == (n, tuple(table[c].tolist()),
                                       tuple(b.bos_modes[n][r].tolist()))


def test_build_grid_rejects_non_finite_k_max():
    for k_max in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            fg.build_grid(2, k_max, 3)


def test_enumeration_is_lexicographic():
    b = _tiny_basis(n_max=2)
    modes = b.bos_modes[2]
    # nondecreasing tuples in lexicographic order
    assert [tuple(r) for r in modes] == sorted(
        itertools.combinations_with_replacement(range(3), 2))
    assert np.all(np.diff(b.bos_keys[2]) > 0)


def test_dimension_mismatch_and_cap():
    params = ib.gross_model()
    g2 = fg.build_grid(2, 1.0, 3)
    g1 = fg.build_grid(1, 1.0, 3)
    with pytest.raises(DimensionMismatch):
        fg.enumerate_basis(params, g1, 1)
    with pytest.raises(BasisTooLarge):
        fg.enumerate_basis(params, g2, 2, max_dim=10)
    with pytest.raises(ValueError, match="n_max"):
        fg.enumerate_basis(params, g2, -1)


# ---------------------------------------------------------------------------
# translation on the lattice

def test_translate_examples():
    # points -1, 0, 1 at flat indices 0, 1, 2: 0 + 0 = 0, 1 + 1 leaves
    # the box, 1 + (-1) = 0
    g = fg.build_grid(1, 1.0, 3)
    tgt, valid = fg.translate_indices(g, [1, 2, 2], [1, 2, 0])
    np.testing.assert_array_equal(valid, [True, False, True])
    np.testing.assert_array_equal(g.points[tgt[valid]], [[0.0], [0.0]])


def test_translate_indices_matches_pointwise():
    g = fg.build_grid(2, 2.0, 5)
    rng = np.random.default_rng(0)
    ip = rng.integers(0, g.size, 200)
    ik = rng.integers(0, g.size, 200)
    for sign in (1, -1):
        tgt, valid = fg.translate_indices(g, ip, ik, sign=sign)
        for a, b, t, v in zip(ip, ik, tgt, valid):
            shifted = g.points[a] + sign * g.points[b]
            if np.max(np.abs(shifted)) > g.k_max + 1e-9:
                assert not v
            else:
                assert v and np.allclose(g.points[t], shifted)


# ---------------------------------------------------------------------------
# boson multiset tables and the free diagonal

def _rank_of(b, n, flat):
    """Boson rank of flat state index flat within sector n."""
    return int(b.sector_states(n)[1][flat - b.sector_slice(n).start])


@pytest.mark.parametrize("n_nucleons, n_max", [(1, 3), (2, 2), (3, 2)])
def test_boson_tables_match_index_oracle(n_nucleons, n_max):
    b = _tiny_basis(n_max=n_max, n_nucleons=n_nucleons)
    g = b.grid.size
    nuc = tuple(b.nucleon_mode_table()[-1].tolist())
    for n in range(n_max + 1):
        members = [("count", b.boson_count)]
        if n < n_max:
            members.append(("add", b.boson_add))
        if n > 0:
            members.append(("remove", b.boson_remove))
        for name, member in members:
            table = member(n)
            assert table.shape == (b.bos_dim(n), g) and table.dtype == np.int64
            assert member(n) is table                  # built once
            with pytest.raises(ValueError):
                table[0, 0] = 0
        for r in range(b.bos_dim(n)):
            bos = b.decode(int(b.state_index(n, 0, r)))[2]
            for q in range(g):
                assert b.boson_count(n)[r, q] == bos.count(q)
                if n < n_max:
                    grown = b.index_of(n + 1, nuc, bos + (q,))
                    assert b.boson_add(n)[r, q] == _rank_of(b, n + 1, grown)
                if n > 0:
                    want = -1
                    if q in bos:
                        rest = list(bos)
                        rest.remove(q)
                        want = _rank_of(b, n - 1, b.index_of(n - 1, nuc, rest))
                    assert b.boson_remove(n)[r, q] == want
        if n > 0:
            assert (b.boson_remove(n) == -1).any()
    with pytest.raises(IndexError):
        b.boson_add(n_max)
    with pytest.raises(IndexError):
        b.boson_remove(0)


def test_free_diagonal_matches_decode_oracle():
    bases = (_tiny_basis(n_max=3), _tiny_basis(n_max=2, n_nucleons=2),
             fg.enumerate_basis(ib.gross_model(mu=0.5, m_boson=0.7,
                                               n_nucleons=2),
                                fg.build_grid(2, 1.0, 3), 2))
    for b in bases:
        pts, params = b.grid.points, b.params
        want = np.empty(b.total_dim)
        for i in range(b.total_dim):
            _, nuc, bos = b.decode(i)
            want[i] = (ib.dispersion_nucleon(pts[list(nuc)], params).sum()
                       + ib.dispersion_boson(pts[list(bos)], params).sum())
        np.testing.assert_array_equal(b.free_diagonal, want)


def test_free_diagonal_closed_form_value():
    params = ib.gross_model(mu=1.0, m_boson=1.0)
    grid = fg.build_grid(2, 1.0, 3)
    b = fg.enumerate_basis(params, grid, 2)
    vals = b.free_diagonal
    i = b.index_of(2, (fg.point_index(grid, [0.0, 0.0]),),
                   (fg.point_index(grid, [0.0, 0.0]), fg.point_index(grid, [0.0, 0.0])))
    assert vals[i] == pytest.approx(3.0)  # rest masses: 1 + 2*1
    assert np.all(vals >= 1.0)  # free operator bounded below by 1 here
    # built once per basis and read-only
    assert b.free_diagonal is vals
    with pytest.raises(ValueError):
        vals[0] = 0.0


def test_manifest_is_json_serializable():
    b = _tiny_basis(n_max=2)
    text = json.dumps(b.manifest())
    back = json.loads(text)
    assert back["total_dim"] == 30 and back["sector_dims"] == [3, 9, 18]


@pytest.mark.parametrize("params, k_max, n_per_axis, n_max, dim, digest", [
    (ib.gross_model(), 4.0, 9, 2, 275_643,
     "2837872fde236c9d927fb525f684e34e432f917d6fc84562e2864f363a1201f0"),
    (ib.eckmann_model(), 2.0, 5, 1, 15_750,
     "a5c02af50661dfa1fa34737dd06158b1f1486563e3a7758df730c2dca8f3bbd7"),
])
def test_preset_basis_digest_is_pinned(params, k_max, n_per_axis, n_max, dim,
                                       digest):
    # the digest labels every exported artifact and seeds the Lanczos
    # start vectors, so the manifest it hashes must not drift
    grid = fg.build_grid(params.d, k_max, n_per_axis)
    b = fg.enumerate_basis(params, grid, n_max)
    assert b.total_dim == dim
    assert ib.basis_digest(b) == digest
    man = b.manifest()
    assert man["nucleon_grid"] == man["boson_grid"] == grid.manifest()
