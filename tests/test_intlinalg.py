import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat.intlinalg import (
    hnf_rows,
    lattice_basis,
    row_rank,
    solve_in_rowspace,
)

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=5,
    )
)


def matmul(u, rows):
    return [
        [sum(ui[k] * rows[k][j] for k in range(len(rows))) for j in range(len(rows[0]))]
        for ui in u
    ]


# --- Hermite form invariants -----------------------------------------------


@given(matrices)
def test_hnf_transform_reproduces_h(rows):
    res = hnf_rows(rows)
    assert matmul(res.u, rows) == [list(r) for r in res.h]


@given(matrices)
def test_hnf_shape(rows):
    res = hnf_rows(rows)
    k = res.rank
    assert list(res.pivots) == sorted(res.pivots)
    for i in range(k, len(res.h)):
        assert not any(res.h[i])
    for i, c in enumerate(res.pivots):
        piv = res.h[i][c]
        assert piv > 0
        assert not any(res.h[j][c] for j in range(k) if j > i)
        for j in range(i):
            assert 0 <= res.h[j][c] < piv
        assert not any(res.h[i][:c])


@given(matrices)
def test_hnf_idempotent_on_nonzero_rows(rows):
    res = hnf_rows(rows)
    k = res.rank
    again = hnf_rows(res.h[:k]) if k else None
    if k:
        assert again.h[:k] == res.h[:k]


@given(matrices)
def test_hnf_matches_sympy(rows):
    # sympy reduces columns, so transpose in and out; its row layout differs
    # from ours, so compare the lattices the nonzero rows span
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    Matrix = sympy.Matrix
    res = hnf_rows(rows)
    ours = res.h[: res.rank]
    theirs = [r for r in hermite_normal_form(Matrix(rows).T).T.tolist() if any(r)]
    assert len(theirs) == res.rank == row_rank(rows)
    for r in theirs:
        assert res.solve(r) is not None, (rows, theirs)
    for r in ours:
        assert solve_in_rowspace(theirs, r) is not None, (rows, theirs)
    assert Matrix(res.u).det() in (1, -1)


@given(matrices)
def test_echelon_basis_spans_the_rows(rows):
    # the nonzero Hermite rows are the echelon basis every rank reads
    basis = lattice_basis(rows)[0]
    assert len(basis) == hnf_rows(rows).rank
    assert all(any(r) for r in basis)
    leads = [next(j for j, x in enumerate(r) if x) for r in basis]
    assert leads == sorted(set(leads))
    for r in rows:
        assert solve_in_rowspace(basis, r) is not None
    for r in basis:
        assert solve_in_rowspace(rows, r) is not None


def test_hnf_frozen_example():
    # (3,5) - (2,4) = (1,1); (2,4) - 2*(1,1) = (0,2)
    res = hnf_rows([[2, 4], [3, 5]])
    assert res.h == ((1, 1), (0, 2))
    assert res.rank == 2


def test_rank():
    assert row_rank([[1, 0], [0, 1]]) == 2
    assert row_rank([[2, 4], [1, 2]]) == 1
    assert row_rank([[0, 0]]) == 0
    assert row_rank([[6, 10, 15], [2, 4, 6], [4, 6, 9]]) == 2
    assert row_rank([[2, 0, 0], [0, 3, 0], [1, 1, 5]]) == 3


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        hnf_rows([[1, 2], [3]])


# --- solving -------------------------------------------------------------------


def test_solve_exact():
    rows = [[2, 0, 1], [0, 3, 1]]
    x = solve_in_rowspace(rows, [2, 3, 2])
    assert x == (1, 1)


def test_solve_detects_non_membership():
    # integer span of (2, 0) misses odd first coordinates
    assert solve_in_rowspace([[2, 0]], [1, 0]) is None
    assert solve_in_rowspace([[1, 1]], [1, 0]) is None


def test_solve_empty_rows():
    assert solve_in_rowspace([], [0, 0]) == ()
    assert solve_in_rowspace([], [1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_in_rowspace([[1, 0]], [1, 0, 0])


@given(matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_solve_recovers_known_combinations(rows, coeffs):
    coeffs = (coeffs * len(rows))[: len(rows)]
    target = [
        sum(coeffs[i] * rows[i][j] for i in range(len(rows)))
        for j in range(len(rows[0]))
    ]
    x = solve_in_rowspace(rows, target)
    assert x is not None
    got = [
        sum(x[i] * rows[i][j] for i in range(len(rows)))
        for j in range(len(rows[0]))
    ]
    assert got == target


@given(matrices)
def test_solve_result_reproduces_target_or_none(rows):
    target = [1] + [0] * (len(rows[0]) - 1)
    x = solve_in_rowspace(rows, target)
    if x is not None:
        got = [
            sum(x[i] * rows[i][j] for i in range(len(rows)))
            for j in range(len(rows[0]))
        ]
        assert got == target


# --- lattice bases ---------------------------------------------------------------


@given(matrices)
def test_lattice_basis_mutual_membership(rows):
    basis, combos = lattice_basis(rows)
    assert len(basis) == len(combos) == row_rank(rows)
    # combos reproduce the basis from the input rows
    assert matmul(combos, rows) == [list(b) for b in basis]
    # every input row lies in the basis span
    for r in rows:
        assert solve_in_rowspace(basis, r) is not None, (basis, r)


def test_lattice_basis_empty_span():
    basis, combos = lattice_basis([[0, 0], [0, 0]])
    assert basis == () and combos == ()
