from fractions import Fraction

import pytest

from richlines.incidence import rich_lines
from richlines.pointsets import (
    PointSet,
    SizeCapError,
    cartesian_power,
    grid,
    index_prefix,
    pasted_grids,
    pointset_from,
    sumproduct_config,
)
from richlines.serialization import pointset_to_dict

F = Fraction


def test_grid_1d():
    assert grid(1, 3).points == ((F(1),), (F(2),), (F(3),))


def test_grid_2x2_lexicographic():
    assert grid(2, 2).points == (
        (F(1), F(1)),
        (F(1), F(2)),
        (F(2), F(1)),
        (F(2), F(2)),
    )


def test_grid_sizes():
    assert len(grid(3, 4)) == 64
    assert len(grid(4, 2)) == 16


def test_grid_single_point():
    assert len(grid(3, 1)) == 1


def test_size_cap(monkeypatch):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        grid(2, 11)
    assert len(grid(2, 10)) == 100


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        PointSet(1, "Q", ((F(1),), (F(1),)))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        PointSet(2, "Q", ((F(1),), (F(1), F(2))))


def test_pasted_single_copy_is_offset_grid():
    ps = pasted_grids(3, 2, 1, 3)
    assert len(ps) == 9
    assert all(p[2] == 1 for p in ps.points)


def test_pasted_two_copies():
    ps = pasted_grids(3, 2, 2, 2)
    assert len(ps) == 8
    offsets = {p[2] for p in ps.points}
    assert offsets == {F(1), F(2)}


def test_pasted_dimension_constraints():
    with pytest.raises(ValueError):
        pasted_grids(3, 3, 2, 2)
    with pytest.raises(ValueError):
        pasted_grids(2, 1, 2, 2)


def test_pasted_rich_lines_split_across_copies():
    # no triple-rich line crosses between the parallel flats, so the count
    # is exactly twice the planar count
    planar = len(rich_lines(grid(2, 3), 3))
    assert planar == 8
    ps = pasted_grids(3, 2, 2, 3)
    pasted = rich_lines(ps, 3)
    assert len(pasted) == 2 * 8
    for line in pasted:
        offsets = {ps.points[i][2] for i in line.points}
        assert len(offsets) == 1


def test_power_of_two_element_set():
    base = pointset_from([(F(1),), (F(2),)])
    sq = cartesian_power(base, 2)
    assert sq.points == (
        (F(1), F(1)),
        (F(1), F(2)),
        (F(2), F(1)),
        (F(2), F(2)),
    )


def test_power_sizes_and_identity():
    base = grid(1, 2)
    assert len(cartesian_power(base, 3)) == 8
    assert set(cartesian_power(base, 3).points) == set(grid(3, 2).points)
    assert cartesian_power(base, 1).points == base.points


def test_index_prefix():
    base = pointset_from([(F(5),), (F(7),)])
    lifted = index_prefix(base, 3)
    assert len(lifted) == 6
    assert lifted.points[0] == (F(0), F(5))
    assert lifted.dim == 2


def test_sumproduct_small_example():
    ps, lines = sumproduct_config([1, 2], [0, 1], 2)
    assert len(ps) == 5
    assert {p for p in ps.points} == {
        (F(0), F(1)),
        (F(0), F(2)),
        (F(1), F(2)),
        (F(1), F(3)),
        (F(1), F(4)),
    }
    assert len(lines) == 4  # N^(2d-2) with N = 2, d = 2
    assert all(len(L.points) == 2 for L in lines)


def test_sumproduct_zero_only_dilation():
    ps, lines = sumproduct_config([1, 2, 3], [0], 3)
    assert all(p[0] == 0 for p in ps.points)
    assert len(ps) == 9  # {0} x A^2


def test_sumproduct_size_cap(monkeypatch):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    # 100 points fit the cap, their 10^4 family lines do not
    with pytest.raises(SizeCapError, match="10000 lines"):
        sumproduct_config(range(1, 11), [0], 3)
    # 10^2 + 19^2 points, refused before any is built
    with pytest.raises(SizeCapError, match="461 points"):
        sumproduct_config(range(1, 11), [0, 1], 3)


def test_sumproduct_requires_zero():
    with pytest.raises(ValueError):
        sumproduct_config([1, 2], [1, 2], 2)


def test_sumproduct_lines_meet_base_slice_once():
    ps, lines = sumproduct_config([1, 2, 3], [0, 1, 2], 2)
    for line in lines:
        base_hits = [i for i in line.points if ps.points[i][0] == 0]
        assert len(base_hits) == 1
        assert len(line.points) == 3  # |Q|-rich


def test_generators_produce_distinct_points():
    for ps in (grid(2, 4), pasted_grids(3, 2, 2, 3), cartesian_power(grid(1, 3), 2)):
        assert len(set(ps.points)) == len(ps)


def test_size_cap_counts_coordinates(monkeypatch):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    # 1 point, but more coordinates than 16 per point of the cap
    with pytest.raises(SizeCapError, match="dimension 1601 exceeds coordinate cap 1600"):
        grid(1601, 1)
    assert grid(1600, 1).dim == 1600
    pair = pointset_from([(F(0),) * 10, (F(1),) * 10])
    with pytest.raises(SizeCapError, match="3840 coordinates exceeds cap 1600"):
        cartesian_power(pair, 6)  # 64 points in C^60
    with pytest.raises(SizeCapError, match="dimension 1700 exceeds coordinate cap"):
        cartesian_power(grid(17, 1), 100)
    with pytest.raises(SizeCapError, match="coordinate cap"):
        pasted_grids(10**20, 2, 2, 2)
    with pytest.raises(SizeCapError, match="coordinates"):
        index_prefix(grid(1500, 1), 2)


def test_size_cap_checks_the_exponent_before_the_power(monkeypatch):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    # 2**1000 would be built by h**d; the exponent alone shows it is too big
    with pytest.raises(SizeCapError, match=r"2\*\*1000 points exceeds cap 100"):
        grid(1000, 2)
    with pytest.raises(SizeCapError, match=r"2\*\*1000 points"):
        cartesian_power(grid(1, 2), 1000)
    with pytest.raises(SizeCapError, match="128 points"):
        grid(7, 2)  # 7 = bit_length(100): built, then counted


def test_size_cap_checks_the_base_before_the_power(monkeypatch):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    # (10**5000)**2 has too many digits to print; the base alone is too big
    with pytest.raises(SizeCapError, match="^configuration of more than 100 points exceeds cap 100$"):
        grid(2, 10**5000)
    with pytest.raises(SizeCapError, match="more than 100 points"):
        pasted_grids(3, 2, 2, 10**5000)


def test_integer_image_is_kept_outside_the_fields():
    ps, twin = grid(2, 3), grid(2, 3)
    before = (hash(ps), repr(ps), pointset_to_dict(ps))
    image = ps.integer_image
    assert ps.integer_image is image
    assert isinstance(image[0], tuple) and all(isinstance(p, tuple) for p in image[0])
    assert ps == twin and before == (hash(ps), repr(ps), pointset_to_dict(ps))
    sub = ps.subset([4, 8])
    assert sub == twin.subset([4, 8]) and "integer_image" not in vars(sub)
    half = pointset_from([(F(1, 2), F(0)), (F(1), F(1, 3))])
    assert half.subset([1]).integer_image == (((1, 1),), (1, 3), False)
    assert half.integer_image == (((1, 0), (2, 1)), (2, 3), False)
