"""Differential tests of the sparse rank core, `linalg.sparse_rank`.

Over Q the core is checked against field Gauss-Jordan (`rref_rank`) of the
matrix; over Q(i) against `rref_rank` of the dense realification and of the
Q(i) matrix.  The elimination under it, `_echelon`, is checked to stop at
its `width`-th pivot and to leave the caller's rows alone.
`DesignMatrix.rank`, which hands the core its integer rows, is checked
against `rref_rank` of the dense field matrix on assembled and random
designs, and its methods against entries outside the matrix.
"""

import copy
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlines.designs import DesignMatrix, assemble_design, random_design_matrix
from richlines.incidence import rich_lines
from richlines.linalg import (
    Matrix, _echelon, bareiss_rank, first_kernel_vector, rref_rank, sparse_rank,
)
from richlines.pointsets import grid, pasted_grids, pointset_from
from richlines.scalars import GaussianRational

from conftest import gaussian_image

F = Fraction
G = GaussianRational

_BIG = 2**80


@st.composite
def integer_matrices(draw, gaussian: bool):
    """Integer matrices ((re, im) pairs over Q(i)) with zero, repeated and
    dependent rows, rows sharing a content factor, negative leads and large
    entries; empty and columnless shapes included."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    small = st.integers(-4, 4)
    ints = st.one_of(small, small, st.integers(-_BIG, _BIG))
    entry = st.tuples(ints, ints) if gaussian else ints
    zero = (0, 0) if gaussian else 0

    def scale(c, x):
        if gaussian:
            return (c[0] * x[0] - c[1] * x[1], c[0] * x[1] + c[1] * x[0])
        return c * x

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1]) if gaussian else x + y

    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "combination"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "zero":
            new = [zero] * n
        elif kind == "repeat":
            new = list(rows[i])
        elif kind == "multiple":  # a content factor, and a negative lead for c < 0
            c = draw(st.tuples(st.integers(-6, 6), small) if gaussian else st.integers(-6, 6))
            new = [scale(c, x) for x in rows[i]]
        else:
            j = draw(st.integers(0, len(rows) - 1))
            c, e = draw(entry), draw(entry)
            new = [add(scale(c, x), scale(e, y)) for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices(gaussian=False))
def test_sparse_rank_matches_bareiss_and_rref_over_q(rows):
    rank = sparse_rank([dict(enumerate(r)) for r in rows])
    assert rank == bareiss_rank([[F(x) for x in r] for r in rows])
    assert rank == rref_rank([[F(x) for x in r] for r in rows])


def _dense_realified(rows):
    # x + iy -> [[x, -y], [y, x]], written out independently of linalg
    return [h for r in rows for h in ([z for x, y in r for z in (x, -y)],
                                      [z for x, y in r for z in (y, x)])]


@settings(max_examples=300, deadline=None)
@given(integer_matrices(gaussian=True))
def test_sparse_rank_matches_bareiss_and_rref_over_qi(rows):
    rank = sparse_rank([dict(enumerate(r)) for r in rows], True)
    assert 2 * rank == rref_rank([[F(x) for x in r] for r in _dense_realified(rows)])
    assert rank == rref_rank([[G(x, y) for x, y in r] for r in rows])
    assert rank == bareiss_rank([[G(x, y) for x, y in r] for r in rows])


def test_sparse_rank_reads_dict_rows_and_leaves_them_alone():
    rows = [{0: 2, 3: -4}, {}, {3: 1, 2: 0}, {0: -1, 3: 2}, {1: 5}, {4: 0}]
    copies = [dict(r) for r in rows]
    assert sparse_rank(rows) == 3
    assert rows == copies
    assert sparse_rank([{0: (1, 1)}, {0: (0, 2)}, {1: (3, 0)}], True) == 2


def test_echelon_reads_no_row_after_the_width_th_pivot():
    rows = [{0: 1}, {0: 2}, {1: 2, 0: 1}, {1: 1}, {0: 5}]
    left = iter(rows)
    assert sorted(_echelon(left, 2)) == [0, 1]
    assert list(left) == rows[3:]
    left = iter(rows)
    assert len(_echelon(left)) == 2 and list(left) == []
    # full column rank: the kernel search stops there too, over Q and Q(i)
    left = iter([[1, 0], [0, 1], [1, 1], [2, 3]])
    assert first_kernel_vector(left, [1, 1]) == (2, None)
    assert list(left) == [[1, 1], [2, 3]]
    left = iter([[(1, 0), (0, 0)], [(0, 1), (1, 1)], [(1, 1), (1, 0)]])
    assert first_kernel_vector(left, [1, 1], True) == (2, None)
    assert list(left) == [[(1, 1), (1, 0)]]


@pytest.mark.parametrize("gaussian", [False, True])
def test_elimination_leaves_the_callers_rows_alone(gaussian):
    # each row after the first is scaled (p != 1), reduced and divided by
    # its content, whichever end the elimination leads from
    ints = [[2, 4, 6], [3, 5, 7], [5, 9, 13], [0, 6, 9], [4, 0, 2]]
    rows = [[(x, x - 1) for x in r] for r in ints] if gaussian else ints
    dicts = [dict(enumerate(r)) for r in rows]
    field = [[G(*x) if gaussian else F(x) for x in r] for r in rows]
    before = copy.deepcopy((rows, dicts, field))
    rank = rref_rank(field)
    assert sparse_rank(dicts, gaussian) == rank
    assert bareiss_rank(field) == rank
    assert first_kernel_vector(rows, [1, 2, 3], gaussian)[0] == rank
    if not gaussian:
        assert len(_echelon(dicts, 3)) == rank
    assert (rows, dicts, field) == before


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
def test_ragged_rows_are_rejected(rows):
    with pytest.raises(ValueError, match="^ragged rows$"):
        bareiss_rank(rows)
    with pytest.raises(ValueError, match="^ragged rows$"):
        bareiss_rank([[F(x) for x in r] for r in rows])


def test_ragged_gaussian_rows_are_rejected():
    with pytest.raises(ValueError, match="^ragged rows$"):
        bareiss_rank([[G(1, 0), G(0, 1)], [G(2, 2)]])
    with pytest.raises(ValueError, match="^ragged rows$"):
        bareiss_rank([[G(1, 1), F(2)], [F(3)]])


@pytest.mark.parametrize("key", [(0, 5), (1, -1), (-1, 0), (2, 0)])
def test_design_rank_rejects_entries_outside_the_matrix(key):
    A = DesignMatrix(2, 2, {(0, 0): F(1), (1, 1): F(2), key: F(3)}, 2, 1, 1)
    with pytest.raises(ValueError, match="outside 2 x 2"):
        A.rank()


@pytest.mark.parametrize("key", [(0, 5), (1, -1)])
@pytest.mark.parametrize("method", ["to_matrix", "product_with"])
def test_design_methods_reject_entries_outside_the_matrix(method, key):
    A = DesignMatrix(2, 2, {(0, 0): F(1), (1, 1): F(2), key: F(3)}, 2, 1, 1)
    args = (Matrix([[F(1)], [F(2)]]),) if method == "product_with" else ()
    with pytest.raises(ValueError, match=rf"^entry \({key[0]}, {key[1]}\) outside 2 x 2$"):
        getattr(A, method)(*args)


def _q_image(ps):
    """V under the invertible Q-affine map (x, ...) -> (2x + y/3 + 1, x - y/2, ...)."""
    def f(p):
        x, y, *rest = p
        return (2 * x + y / 3 + 1, x - y / 2, *rest)
    return pointset_from([f(p) for p in ps.points])


# name -> (point set, largest r with an r-rich line)
_SETS = {
    "grid(2, 4)": (lambda: grid(2, 4), 4),
    "grid(2, 5)": (lambda: grid(2, 5), 5),
    "grid(3, 3)": (lambda: grid(3, 3), 3),
    "pasted(3, 2, 2, 4)": (lambda: pasted_grids(3, 2, 2, 4), 4),
    "Q image of grid(2, 5)": (lambda: _q_image(grid(2, 5)), 5),
    "Q image of pasted(3, 2, 2, 3)": (lambda: _q_image(pasted_grids(3, 2, 2, 3)), 3),
    "Q(i) image of grid(2, 4)": (lambda: gaussian_image(grid(2, 4)), 4),
    "Q(i) image of grid(2, 5)": (lambda: gaussian_image(grid(2, 5)), 5),
}


@pytest.mark.parametrize(
    "name, r", [(name, r) for name, (_, top) in _SETS.items() for r in range(2, top + 1)]
)
def test_design_rank_matches_rref_of_the_dense_matrix(name, r):
    ps = _SETS[name][0]()
    A, _ = assemble_design(ps, rich_lines(ps, r), r)
    assert A.rank() == rref_rank(A.to_matrix().row_list())


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_random_design_rank_matches_rref(seed, gaussian):
    rng = Random(seed)
    n = rng.randint(4, 14)
    A = random_design_matrix(rng, n, rng.randint(2, 2 * n), rng.randint(2, 4), gaussian=gaussian)
    assert A.rank() == rref_rank(A.to_matrix().row_list())
