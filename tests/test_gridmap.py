import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import mark_band_one_capsule
from travmap import gridmap
from travmap.gridmap import (
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
# The order the fusion tests were written against: trails over pass-between bands over feature obstacles.
TRAILS_ON_TOP = LayerPriority(("sfm", "ho3", "pfh"))


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
    with pytest.raises(ValueError, match="x_max must be finite, got inf"):
        new_map(0, 0, math.inf, 6, 0.1)
    with pytest.raises(ValueError, match="y_min must be finite, got nan"):
        new_map(0, math.nan, 3, 6, 0.1)


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


def _edge_cases():
    """Capsules whose chord ends fall on cell centers, where only the exact test can decide, and more."""
    def centers(m, *ij):
        return np.array([m.cell_to_world(i, j) for i, j in ij])

    m = new_map(0, 0, 3, 6, 0.1)
    far = new_map(-1234.5, 987.6, -1232.5, 989.1, 0.05)
    cases = {}
    for name, grid in (("grid", m), ("far-origin", far)):
        res = grid.resolution
        # Horizontal, vertical and 45-degree segments and a disk, each from cell center to cell center.
        a = centers(grid, (3, 10), (5, 12), (2, 3), (15, 20))
        b = centers(grid, (20, 10), (5, 25), (15, 16), (15, 20))
        # Half widths that put centers on a capsule's edge (k cells off an axis segment, k/sqrt(2) off the
        # diagonal, a 3-4-5 offset from an end) and rows tangent to the end disks.
        for hw in (0.0, 1e-12, res, 2 * res, 5 * res, math.sqrt(2) * res, 1.5 * math.sqrt(2) * res):
            cases[f"{name}-hw={hw:.3g}"] = (grid, a, b, hw)
        # Disks whose tops touch a row of centers, at half widths off the grid.
        top = centers(grid, (4, 7), (9, 11))
        for hw in (0.123, 0.3):
            cases[f"{name}-tangent-hw={hw}"] = (grid, top - (0.0, hw), top - (0.0, hw), hw)
    outside = np.array([[10.0, 10.0], [-5.0, 3.0], [1.0, -0.31]])
    cases["clipped-away"] = (m, outside, outside + (2.0, 0.0), 0.3)
    # More (capsule, row) pairs than one pass holds, each capsule with cells of its own: full-height
    # lines 0.045 apart with half width 0.02 share no cell center.
    tall = new_map(0, 0, 30, 20, 0.1)
    x = np.arange(2 * gridmap._BAND_BLOCK // tall.height + 3) * 0.045
    low, high = np.full_like(x, -0.2), np.full_like(x, 20.2)
    cases["several-passes"] = (tall, np.column_stack([x, low]), np.column_stack([x + 3.0, high]), 0.02)
    return cases


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_mark_bands_equals_one_capsule_at_a_time_on_edge_cases(case):
    grid, a, b, hw = _edge_cases()[case]
    batched = empty_like(grid)
    batched.mark_bands(a, b, hw, T)
    one_by_one = empty_like(grid)
    for p, q in zip(a, b):
        mark_band_one_capsule(one_by_one, tuple(p), tuple(q), hw, T)
    assert np.array_equal(batched.cells, one_by_one.cells)


def test_mark_bands_rejects_bad_input():
    m = new_map(0, 0, 3, 6, 0.1)
    with pytest.raises(ValueError):
        m.mark_bands([(0, 0)], [(1, 1)], -0.1, T)
    with pytest.raises(ValueError):
        m.mark_bands([(0, 0)], [(math.nan, 1)], 0.1, T)
    with pytest.raises(ValueError, match="half_width must be >= 0, got nan"):
        m.mark_bands([(0, 0)], [(1, 1)], math.nan, T)
    with pytest.raises(ValueError, match="half_width must be finite, got inf"):
        m.mark_bands([(0, 0)], [(0, 0)], math.inf, T)
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
        fuse([(a, "sfm"), (b, "pfh")], TRAILS_ON_TOP)


def test_fuse_single_layer_identity():
    m = new_map(0, 0, 1, 1, 0.1)
    m.set_cell(3, 4, T)
    m.set_cell(5, 6, U)
    out = fuse([(m, "pfh")], TRAILS_ON_TOP)
    assert (out.cells == m.cells).all()


def test_fuse_only_reads_its_layers():
    """Read-only layers, one of them under two ids as ``rebuild_map`` passes the PfH and HO3 intersection."""
    sfm = new_map(0, 0, 1, 1, 0.1)
    human = empty_like(sfm)
    sfm.set_cell(0, 0, U)
    sfm.set_cell(1, 0, U)
    human.set_cell(0, 0, T)
    for m in (sfm, human):
        m.cells.flags.writeable = False
    before = [m.cells.tobytes() for m in (sfm, human)]
    out = fuse([(human, "pfh"), (sfm, "sfm"), (human, "ho3")], LayerPriority(("pfh", "sfm", "ho3")))
    assert [m.cells.tobytes() for m in (sfm, human)] == before
    assert out.cells.flags.writeable
    assert (out.state(0, 0), out.state(1, 0), out.state(2, 0)) == (T, U, UNK)  # "ho3" outranks "sfm"


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


def test_size_follows_cells():
    m = new_map(0, 0, 0.7, 0.3, 0.1)
    back = import_pgm(export_pgm(m), m.origin, m.resolution)
    for grid in (m, empty_like(m), m.copy(), back):
        assert grid.cells.shape == (3, 7)
        assert (grid.width, grid.height) == (7, 3)


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


_GRAY = bytes([205])


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(b"P52 2 255\n" + _GRAY * 4, "magic P5 followed by whitespace", id="magic-glued-to-width"),
        pytest.param(b"P5\n0 0\n255\n", "PGM width must be a positive integer .* got b'0'", id="zero-size"),
        pytest.param(b"P5\n0 5\n255\n", "PGM width must be a positive integer .* got b'0'", id="zero-width"),
        pytest.param(b"P5\n-2 -2\n255\n" + _GRAY * 4, "PGM width must be a positive integer", id="negative-size"),
        pytest.param(b"P5\n2 x\n255\n" + _GRAY * 2, "PGM height must be a positive integer", id="letter-height"),
        pytest.param(b"P5\n1 1\n+255\n" + _GRAY, "PGM maxval must be a positive integer", id="signed-maxval"),
        pytest.param(b"P5\n2 2\n255", "PGM maxval must be followed by one whitespace byte", id="ends-at-maxval"),
        pytest.param(b"P5\n1 1\n255" + _GRAY, "PGM maxval must be a positive integer", id="pixels-glued-to-maxval"),
    ],
)
def test_import_pgm_rejects_malformed_headers_naming_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        import_pgm(data)


@pytest.mark.parametrize("resolution", [0.0, -0.1, float("nan"), float("inf")])
def test_import_pgm_and_new_map_reject_bad_resolution(resolution):
    data = export_pgm(new_map(0, 0, 0.3, 0.2, 0.1))
    with pytest.raises(ValueError, match="resolution must be finite and positive") as imported:
        import_pgm(data, (0.0, 0.0), resolution)
    with pytest.raises(ValueError) as made:
        new_map(0, 0, 0.3, 0.2, resolution)
    assert str(imported.value) == str(made.value)


@given(
    states=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([T, U])), max_size=30),
    order=st.permutations([0, 1, 2]),
)
def test_fuse_permutation_invariant(states, order):
    layers = [empty_like(new_map(0, 0, 1, 1, 0.1)) for _ in range(3)]
    ids = ["sfm", "ho3", "pfh"]
    for k, (i, j, s) in enumerate(states):
        layers[k % 3].set_cell(i, j, s)
    ref = fuse(list(zip(layers, ids)), TRAILS_ON_TOP)
    shuffled = [(layers[k], ids[k]) for k in order]
    out = fuse(shuffled, TRAILS_ON_TOP)
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
