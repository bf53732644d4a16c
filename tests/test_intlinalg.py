import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat.intlinalg import (
    GrownForm,
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
    assert res.h == [[1, 1], [0, 2]]
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


# --- a Hermite form grown by rows -----------------------------------------------

entries = st.integers(-9, 9)


@st.composite
def growths(draw):
    """A random growth: the width, then a list of row batches."""
    width = draw(st.integers(1, 4))
    batches = draw(
        st.lists(
            st.lists(st.lists(entries, min_size=width, max_size=width), max_size=3),
            min_size=1,
            max_size=7,
        )
    )
    return width, batches


def grow(width, batches):
    """The grown form and the input matrix it was grown from."""
    form, matrix = GrownForm(width), []
    for batch in batches:
        form.extend(batch)
        matrix += [list(r) for r in batch]
    return form, matrix


@given(growths())
def test_grown_form_is_the_hermite_form_of_its_input(growth):
    # every Hermite form in the package is grown, so sympy's lattice is
    # the reference, as in test_hnf_matches_sympy
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    form, matrix = grow(*growth)
    assert all(len(r) == form.width for r in matrix)
    if not matrix:
        assert form.rank == 0 and form.h == []
        return
    # u @ input == h with u unimodular, and h is in Hermite form
    assert matmul(form.u, matrix) == form.h
    assert sympy.Matrix(form.u).det() in (1, -1)
    assert form.pivots == sorted(set(form.pivots))
    for i, c in enumerate(form.pivots):
        assert form.h[i][c] > 0 and not any(form.h[i][:c])
        assert all(0 <= form.h[j][c] < form.h[i][c] for j in range(i))
    assert not any(any(r) for r in form.h[form.rank :])
    # the same lattice as sympy's: each side's rows solve over the other
    theirs = [
        r
        for r in hermite_normal_form(sympy.Matrix(matrix).T).T.tolist()
        if any(r)
    ]
    assert len(theirs) == form.rank
    for r in theirs:
        assert form.solve(r) is not None, (matrix, theirs)
    for r in form.h[: form.rank]:
        assert solve_in_rowspace(theirs, r) is not None, (matrix, theirs)


@given(growths(), st.lists(entries, min_size=10, max_size=10))
def test_raises_rank_leaves_the_form_as_it_is(growth, probe):
    form, matrix = grow(*growth)
    row = probe[: form.width] + [0] * (form.width - len(probe))
    before = ([list(r) for r in form.h], [list(r) for r in form.u])
    raises = form.raises_rank(row)
    assert (form.h, form.u) == before
    assert raises == (hnf_rows(matrix + [row]).rank > form.rank)


def test_grown_form_guards():
    form = GrownForm(2)
    with pytest.raises(ValueError):
        form.extend([[1, 2, 3]])
    form.extend([[1, 2]])
    with pytest.raises(ValueError):
        form.extend([[3, 4], [5]])
    with pytest.raises(ValueError):
        form.solve([1, 2, 3])
    with pytest.raises(ValueError):
        form.raises_rank([1])


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6),
        )
    )
)
def test_batch_extend_is_one_row_at_a_time(start_and_rows):
    # one extend by many rows merges them one at a time: the same h, u
    # and pivots as one extend per row, and the h of hnf_rows
    start, rows = start_and_rows
    batch, single = GrownForm(len(start[0])), GrownForm(len(start[0]))
    batch.extend(start)
    single.extend(start)
    batch.extend(rows)
    for r in rows:
        single.extend([r])
    assert (batch.h, batch.u, batch.pivots) == (single.h, single.u, single.pivots)
    assert batch.h == hnf_rows(start + rows).h

