import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import mark_band_one_capsule
from travmap import gridmap
from travmap.gridmap import (
    DEFAULT_PRIORITY,
    CellState,
    LayerPriority,
    OutOfBoundsError,
    empty_like,
    export_pgm,
    fuse,
    import_pgm,
    new_map,
)

T = CellState.TRAVERSABLE
U = CellState.UNTRAVERSABLE
UNK = CellState.UNKNOWN


def test_new_map_standard_area():
    m = new_map(0, 0, 3, 6, 0.1)
    assert (m.width, m.height) == (30, 60)
    assert m.origin == (0, 0)
    assert (m.cells == int(UNK)).all()


def test_new_map_single_cell():
    m = new_map(0, 0, 0.1, 0.1, 0.1)
    assert (m.width, m.height) == (1, 1)
    assert m.state(0, 0) is UNK


def test_new_map_bad_extent():
    with pytest.raises(ValueError):
        new_map(0, 0, -1, 1, 0.1)
    with pytest.raises(ValueError):
        new_map(0, 0, 1, 1, 0.0)


def test_world_to_cell_examples():
    m = new_map(0, 0, 3, 6, 0.1)
    assert m.world_to_cell(0.25, 0.31) == (2, 3)
    assert m.world_to_cell(0.0, 0.0) == (0, 0)
    with pytest.raises(OutOfBoundsError):
        m.world_to_cell(-0.01, 0.5)


def test_update_cell():
    m = new_map(0, 0, 3, 6, 0.1)
    m.set_cell(2, 3, T)
    assert m.state(2, 3) is T
    others = m.cells.copy()
    others[3, 2] = int(UNK)
    assert (others == int(UNK)).all()
    m.set_cell(2, 3, U)
    m.set_cell(2, 3, T)
    assert m.state(2, 3) is T  # last writer wins
    with pytest.raises(OutOfBoundsError):
        m.set_cell(99, 99, T)


def test_mark_band_segment():
    m = new_map(0, 0, 3, 6, 0.1)
    m.mark_band((0, 0), (1, 0), 0.05, T)
    expected = {(i, 0) for i in range(10)}
    marked = {(int(i), int(j)) for j, i in np.argwhere(m.cells == int(T))}
    assert marked == expected


def test_mark_band_point():
    m = new_map(0, 0, 3, 6, 0.1)
    m.mark_band((0.05, 0.05), (0.05, 0.05), 0.0, U)
    marked = {(int(i), int(j)) for j, i in np.argwhere(m.cells == int(U))}
    assert marked == {(0, 0)}


def test_mark_band_outside_clips():
    m = new_map(0, 0, 3, 6, 0.1)
    m.mark_band((10, 10), (12, 10), 0.3, T)
    assert (m.cells == int(UNK)).all()


def _segment_batches():
    rng = np.random.default_rng(11)
    a = rng.uniform((-1.0, -1.0), (4.0, 7.0), size=(60, 2))
    b = a + rng.normal(0.0, 0.4, size=(60, 2))
    b[::4] = a[::4]  # disks
    b[1::7] = a[1::7] + rng.normal(0.0, 3.0, size=(len(a[1::7]), 2))  # long bands
    on_centers = (np.floor(a / 0.1) + 0.5) * 0.1  # exact cell centers, hit by zero-width capsules
    far = rng.uniform((10.0, -9.0), (20.0, -2.0), size=(40, 2))
    # Capsules whose windows are the whole 30 x 60 grid: together they overflow one block.
    n_whole = gridmap._BAND_BLOCK // (30 * 60) + 5
    wide_a = rng.uniform((-1.0, -1.0), (-0.5, -0.5), size=(n_whole, 2))
    wide_b = rng.uniform((3.5, 6.5), (4.0, 7.0), size=(n_whole, 2))
    empty = np.empty((0, 2))
    return {
        "random": (a, b, 0.12),
        "random-wide": (a, b, 0.3),
        "zero-width": (on_centers, on_centers[::-1], 0.0),
        "empty": (empty, empty, 0.3),
        "out-of-bounds": (far, far[::-1], 0.5),
        "larger-than-a-block": (wide_a, wide_b, 0.25),
    }


@pytest.mark.parametrize("case", sorted(_segment_batches()))
def test_mark_bands_equals_one_capsule_at_a_time(case):
    a, b, hw = _segment_batches()[case]
    batched = new_map(0, 0, 3, 6, 0.1)
    batched.mark_bands(a, b, hw, T)
    one_by_one = new_map(0, 0, 3, 6, 0.1)
    for p, q in zip(a, b):
        mark_band_one_capsule(one_by_one, tuple(p), tuple(q), hw, T)
    assert np.array_equal(batched.cells, one_by_one.cells)
    single = new_map(0, 0, 3, 6, 0.1)
    for p, q in zip(a, b):
        single.mark_band(tuple(p), tuple(q), hw, T)
    assert np.array_equal(single.cells, one_by_one.cells)


def test_mark_bands_rejects_bad_input():
    m = new_map(0, 0, 3, 6, 0.1)
    with pytest.raises(ValueError):
        m.mark_bands([(0, 0)], [(1, 1)], -0.1, T)
    with pytest.raises(ValueError):
        m.mark_bands([(0, 0)], [(math.nan, 1)], 0.1, T)
    assert (m.cells == int(UNK)).all()


def test_fuse_priority_rule():
    sfm = new_map(0, 0, 1, 1, 0.1)
    pfh = empty_like(sfm)
    sfm.set_cell(0, 0, U)
    pfh.set_cell(0, 0, T)
    out = fuse([(sfm, "sfm"), (pfh, "pfh")], LayerPriority(("sfm", "pfh")))
    assert out.state(0, 0) is T
    out = fuse([(sfm, "sfm"), (pfh, "pfh")], LayerPriority(("pfh", "sfm")))
    assert out.state(0, 0) is U
    # all-unknown cells stay unknown
    assert out.state(5, 5) is UNK


def test_fuse_geometry_mismatch():
    a = new_map(0, 0, 1, 1, 0.1)
    b = new_map(0, 0, 2, 1, 0.1)
    with pytest.raises(ValueError):
        fuse([(a, "sfm"), (b, "pfh")], DEFAULT_PRIORITY)


def test_fuse_single_layer_identity():
    m = new_map(0, 0, 1, 1, 0.1)
    m.set_cell(3, 4, T)
    m.set_cell(5, 6, U)
    out = fuse([(m, "pfh")], DEFAULT_PRIORITY)
    assert (out.cells == m.cells).all()


def test_export_pgm_2x2_exact_bytes():
    m = new_map(0, 0, 0.2, 0.2, 0.1)
    m.set_cell(0, 0, U)
    m.set_cell(1, 1, T)
    data = export_pgm(m)
    assert data == b"P5\n2 2\n255\n" + bytes([205, 254, 0, 205])


def test_export_pgm_1x1():
    m = new_map(0, 0, 0.1, 0.1, 0.1)
    assert export_pgm(m) == b"P5\n1 1\n255\n" + bytes([205])


@given(w=st.integers(1, 40), h=st.integers(1, 40))
def test_pgm_length_law(w, h):
    m = new_map(0, 0, w * 0.1, h * 0.1, 0.1)
    data = export_pgm(m)
    header = f"P5\n{m.width} {m.height}\n255\n".encode()
    assert len(data) == len(header) + m.width * m.height


@given(
    w=st.integers(1, 15),
    h=st.integers(1, 15),
    values=st.lists(st.sampled_from([0, 1, 2]), min_size=225, max_size=225),
)
def test_pgm_roundtrip_identity(w, h, values):
    m = new_map(0, 0, w * 0.1, h * 0.1, 0.1)
    flat = np.array(values[: w * h], dtype=np.uint8).reshape(h, w)
    m.cells[:, :] = flat
    back = import_pgm(export_pgm(m), m.origin, m.resolution)
    assert (back.cells == m.cells).all()
    assert (back.width, back.height) == (m.width, m.height)


def test_import_pgm_rejects_foreign_gray():
    data = b"P5\n1 1\n255\n" + bytes([7])
    with pytest.raises(ValueError):
        import_pgm(data)


def test_import_pgm_skips_header_comments():
    m = new_map(0, 0, 0.3, 0.2, 0.1)
    m.cells[:, :] = [[0, 1, 2], [2, 1, 0]]
    data = export_pgm(m)
    assert data.startswith(b"P5\n3 2\n255\n")
    pixels = data[len(b"P5\n3 2\n255\n") :]
    commented = b"P5\n# CREATOR: map_saver.cpp 0.100 m/pix\n3 # width\n#height:\n2\n# maxval\n255\n" + pixels
    back = import_pgm(commented, m.origin, m.resolution)
    assert (back.width, back.height) == (3, 2)
    assert (back.cells == m.cells).all()


def test_import_pgm_comment_cannot_stand_for_a_field():
    with pytest.raises(ValueError, match="truncated PGM header"):
        import_pgm(b"P5\n3 2 # maxval missing\n")


@given(
    states=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([T, U])), max_size=30),
    order=st.permutations([0, 1, 2]),
)
def test_fuse_permutation_invariant(states, order):
    layers = [empty_like(new_map(0, 0, 1, 1, 0.1)) for _ in range(3)]
    ids = ["sfm", "ho3", "pfh"]
    for k, (i, j, s) in enumerate(states):
        layers[k % 3].set_cell(i, j, s)
    ref = fuse(list(zip(layers, ids)), DEFAULT_PRIORITY)
    shuffled = [(layers[k], ids[k]) for k in order]
    out = fuse(shuffled, DEFAULT_PRIORITY)
    assert (out.cells == ref.cells).all()


def test_world_cell_roundtrip_everywhere():
    m = new_map(-1.3, 0.7, 2.4, 3.1, 0.05)
    for i in range(m.width):
        for j in range(m.height):
            assert m.world_to_cell(*m.cell_to_world(i, j)) == (i, j)


@given(
    ax=st.floats(-1, 4), ay=st.floats(-1, 7),
    bx=st.floats(-1, 4), by=st.floats(-1, 7),
    hw=st.floats(0, 0.5),
)
@settings(max_examples=60)
def test_mark_band_never_overrasters(ax, ay, bx, by, hw):
    m = new_map(0, 0, 3, 6, 0.1)
    m.mark_band((ax, ay), (bx, by), hw, T)
    bound = hw + m.resolution * math.sqrt(2) / 2
    for j, i in np.argwhere(m.cells == int(T)):
        cx, cy = m.cell_to_world(int(i), int(j))
        px, py = cx - ax, cy - ay
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        t = min(1.0, max(0.0, (px * dx + py * dy) / L2)) if L2 else 0.0
        d = math.hypot(px - t * dx, py - t * dy)
        assert d <= bound
