from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlines.linalg import Matrix, bareiss_rank, rref_rank, right_nullspace
from richlines.scalars import GaussianRational

F = Fraction


def _identity(n):
    return Matrix([[F(int(i == j)) for j in range(n)] for i in range(n)])


def _transpose(M):
    return Matrix(zip(*M.row_list()))


def test_rank_identity():
    assert _identity(3).rank() == 3


def test_rank_proportional_rows():
    assert Matrix([[F(1), F(2)], [F(2), F(4)]]).rank() == 1


def test_rank_empty():
    assert Matrix([]).rank() == 0
    assert bareiss_rank([]) == 0


def test_rank_veronese_collinear():
    # degree-2 monomial images of 4 collinear points drop exactly one rank
    from richlines.pointsets import pointset_from
    from richlines.veronese import veronese_matrix

    ps = pointset_from([(F(t), F(2 * t)) for t in range(4)])
    assert veronese_matrix(ps, 2).rank() == 3


def test_nullspace_single_equation():
    assert Matrix([[F(1), F(1)]]).right_nullspace() == [(F(1), F(-1))]


def test_nullspace_identity_empty():
    assert _identity(4).right_nullspace() == []


def test_left_nullspace_third_difference():
    # rows (1, t, t^2) for t = 0..3: the dependency is the third difference
    M = Matrix([[F(1), F(t), F(t * t)] for t in range(4)])
    kernel = _transpose(M).right_nullspace()
    assert kernel == [(F(1), F(-3), F(3), F(-1))]


def test_nullspace_vectors_are_normalized_and_annihilated():
    M = Matrix([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
    basis = M.right_nullspace()
    assert len(basis) == 2
    for v in basis:
        first = next(c for c in v if c != 0)
        assert first == 1
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in M.row_list())


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_bareiss_agrees_with_rref(m, n, data):
    # Fractional entries exercise each row's integer scaling, and appended
    # combinations of the rows make the rank deficient.
    fracs = st.fractions(-6, 6, max_denominator=6)
    rows = [[data.draw(fracs) for _ in range(n)] for _ in range(m)]
    for _ in range(data.draw(st.integers(0, 2))):
        cs = [data.draw(fracs) for _ in rows]
        rows.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)])
    assert bareiss_rank(rows) == rref_rank(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_bareiss_gaussian_agrees_with_rref(m, n, data):
    # Rectangular Q(i) matrices mix Fraction and GaussianRational entries.
    # Appended rows are combinations of the rows with non-real coefficients,
    # so the rank over Q(i) drops while the real parts can stay independent:
    # the realification must keep the sign in [[A, -B], [B, A]].
    fracs = st.fractions(-6, 6, max_denominator=6)
    entries = st.one_of(fracs, st.builds(GaussianRational, fracs, fracs))
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(m)]
    if all(type(x) is F for r in rows for x in r):
        rows[0][0] = GaussianRational(rows[0][0], 1)
    for _ in range(data.draw(st.integers(0, 2))):
        cs = [GaussianRational(data.draw(fracs), data.draw(fracs.filter(bool))) for _ in rows]
        rows.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)])
    assert bareiss_rank(rows) == rref_rank(rows)


def test_rank_equals_transpose_rank():
    rng = Random(3)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = Matrix([[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)])
        assert M.rank() == _transpose(M).rank()


def test_rank_invariant_under_permutation_and_scaling():
    rng = Random(7)
    for _ in range(25):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        base = bareiss_rank(rows)
        perm = rows[:]
        rng.shuffle(perm)
        scaled = [
            [F(rng.choice([1, 2, 3, -1, -2])) * x for x in row] for row in perm
        ]
        assert bareiss_rank(scaled) == base


def test_rank_plus_kernel_dimension():
    rng = Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = Matrix([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)])
        assert M.rank() + len(M.right_nullspace()) == n
        assert M.rank() + len(_transpose(M).right_nullspace()) == m


def test_nullspace_of_empty_row_list():
    basis = right_nullspace([], 3)
    assert len(basis) == 3
    assert basis[0] == (F(1), F(0), F(0))


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix([[F(1)], [F(1), F(2)]])
