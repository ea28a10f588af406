import numpy as np
import pytest
from hypothesis import given, strategies as st

from nrf_forge.partition import (
    Neighborhoods,
    build_partition,
    validate_neighborhoods,
)


def test_twelve_state_seven_input_partition():
    part = build_partition([(2, 1), (3, 2), (6, 2), (1, 2)])
    assert part.n_x == 12 and part.n_u == 7
    assert [part.offset("x", i) for i in range(4)] == [0, 2, 5, 11]
    assert [part.offset("u", i) for i in range(4)] == [0, 1, 3, 5]
    assert list(part.indices("x", 2)) == [5, 6, 7, 8, 9, 10]
    assert list(part.indices("u", 3)) == [5, 6]


def test_single_area_rejected():
    with pytest.raises(ValueError, match="N > 1"):
        build_partition([(5, 3)])


def test_nonpositive_sizes_rejected():
    with pytest.raises(ValueError):
        build_partition([(2, 1), (0, 1)])
    with pytest.raises(ValueError):
        build_partition([(2, 1), (3, -1)])


def test_grid_selector_third_area_picks_states_five_and_six():
    # five areas of (2, 1): area 3 (1-based) owns global states 5, 6 (1-based)
    part = build_partition([(2, 1)] * 5)
    v = np.arange(1.0, 11.0)
    assert np.allclose(v[part.indices("x", 2)], [5.0, 6.0])
    assert np.unique(part.indices("x", 2)).size == 2


def test_slice_and_reconstruct_roundtrip():
    part = build_partition([(2, 1), (3, 2), (6, 2), (1, 2)])
    rng = np.random.default_rng(0)
    v = rng.standard_normal(part.n_x)
    pieces = [v[part.indices("x", i)] for i in range(part.n_areas)]
    assert np.allclose(np.concatenate(pieces), v)


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=2, max_size=6))
def test_slice_matches_direct_index_gather(sizes):
    part = build_partition(sizes)
    rng = np.random.default_rng(42)
    v = rng.standard_normal(part.n_u)
    for i in range(part.n_areas):
        lo = part.offset("u", i)
        hi = lo + part.size("u", i)
        assert np.allclose(v[part.indices("u", i)], v[lo:hi])


def test_slice_dimension_error():
    part = build_partition([(2, 1), (2, 1)])
    with pytest.raises(IndexError):
        part.indices("x", 2)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=2, max_size=5))
def test_partition_of_unity_and_orthogonality(sizes):
    part = build_partition(sizes)
    # the area index sets tile range(n) of each kind with no overlap
    for kind, n in (("x", part.n_x), ("u", part.n_u)):
        tiles = np.concatenate([part.indices(kind, i) for i in range(part.n_areas)])
        assert np.array_equal(np.sort(tiles), np.arange(n))
    # an area's stacked [x; u] indices meet no other area's
    z = [set(part.indices("x", i)) | {part.n_x + k for k in part.indices("u", i)}
         for i in range(part.n_areas)]
    for i in range(part.n_areas):
        for j in range(part.n_areas):
            if i != j:
                assert not z[i] & z[j]
            else:
                assert len(z[i]) == part.size("x", i) + part.size("u", i)


def test_w_sizes_attach():
    part = build_partition([(2, 1), (2, 1)]).with_w_sizes([2, 0])
    assert part.n_w == 2
    assert part.indices("x", 0).size + part.indices("w", 0).size == 4
    assert part.indices("w", 1).size == 0
    with pytest.raises(ValueError):
        build_partition([(2, 1), (2, 1)]).n_w  # noqa: B018


def test_grid_neighborhoods_valid():
    from nrf_forge.grid import grid_neighborhoods
    nb = grid_neighborhoods()
    validate_neighborhoods(nb, 5)
    assert sorted(nb.of(0)) == [0, 1, 2, 4]
    assert sorted(nb.of(4)) == [0, 1, 2, 3, 4]


def test_neighborhood_missing_self():
    nb = Neighborhoods((frozenset({1}), frozenset({0, 1})))
    with pytest.raises(ValueError, match="missing from its own"):
        validate_neighborhoods(nb, 2)


def test_neighborhood_out_of_range():
    nb = Neighborhoods((frozenset({0, 6}), frozenset({1})))
    with pytest.raises(ValueError, match="out-of-range"):
        validate_neighborhoods(nb, 2)
