"""Exact linear algebra helpers."""

import math
import random
from fractions import Fraction

import pytest

from helpers import integral_vector
from oracles import dense_nullspace, dense_pivots, dense_rank, dense_rref
from volform.errors import GroupError
from volform.linalg import (
    SpanBuilder,
    det_bareiss,
    identity_matrix,
    make_matrix,
    mat_inverse,
    mat_mul,
    row_echelon,
    solve_exact,
)


def test_det_known_values():
    assert det_bareiss(make_matrix([[2]])) == 2
    assert det_bareiss(make_matrix([[1, 2], [3, 4]])) == -2
    assert det_bareiss(make_matrix([[0, 1], [1, 0]])) == -1
    assert det_bareiss(make_matrix([[1, 2], [2, 4]])) == 0
    assert det_bareiss(make_matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)
    # the empty product, and a column with no pivot
    assert det_bareiss(()) == 1
    assert det_bareiss(make_matrix([[0, 1], [0, 2]])) == 0


def test_det_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(7)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            sub = cofactor_det(minor)
            total += (1 if j % 2 == 0 else -1) * m[0][j] * sub
        return total

    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(make_matrix(m)) == cofactor_det(m)


def test_inverse_and_solve():
    m = make_matrix([[1, 2], [3, 5]])
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    with pytest.raises(GroupError):
        mat_inverse(make_matrix([[1, 2], [2, 4]]))
    solution = solve_exact([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
                           [[Fraction(3)], [Fraction(1)]])
    assert solution == ((Fraction(2),), (Fraction(1),))
    assert solve_exact([[Fraction(1)], [Fraction(1)]], [[Fraction(1)], [Fraction(2)]]) is None


def test_span_builder_rank_membership_and_combos():
    span = SpanBuilder(key_order=lambda k: k)
    new, _ = span.insert(integral_vector({0: Fraction(1), 1: Fraction(2)}))
    assert new
    new, _ = span.insert(integral_vector({1: Fraction(1)}))
    assert new
    assert len(span) == 2
    assert span.contains(integral_vector({0: Fraction(3), 1: Fraction(-1)}))
    assert not span.contains(integral_vector({2: Fraction(1)}))
    # a dependent vector is not stored and has no pivot
    assert span.insert(integral_vector({0: Fraction(2), 1: Fraction(4)})) == (False, None)


def test_span_builder_takes_integer_vectors_only():
    # a Fraction meets a gcd on every insert, and a contains that does not
    # cancel it is checked; the rational front ends scale each row to
    # integers first
    span = SpanBuilder(key_order=lambda k: k)
    with pytest.raises(TypeError):
        span.insert({0: Fraction(1, 2)})
    span.insert({1: 2})
    with pytest.raises(TypeError):
        span.insert({0: 1, 1: Fraction(3)})
    with pytest.raises(TypeError):
        span.contains({1: Fraction(1, 3)})
    # key 2 is no pivot, so no elimination meets its value
    with pytest.raises(TypeError):
        span.contains({2: Fraction(1, 2)})
    with pytest.raises(TypeError):
        span.contains({1: 4, 2: Fraction(1, 2)})
    half = Fraction(1, 2)
    assert [dict(row) for row in row_echelon([[half, Fraction(1, 3)], [1, 0]]).primitive_rows()] \
        == [{0: 1}, {1: 1}]
    assert solve_exact([[half, 0], [0, Fraction(2, 3)]], [[1], [Fraction(1, 3)]]) == ((2,), (half,))
    assert mat_inverse(make_matrix([[half, 0], [0, 3]])) == make_matrix([[2, 0], [0, Fraction(1, 3)]])


def test_span_builder_basis_is_reduced_echelon():
    span = SpanBuilder(key_order=lambda k: k)
    span.insert(integral_vector({0: Fraction(2), 1: Fraction(2)}))
    span.insert(integral_vector({0: Fraction(1)}))
    basis = _echelon_rows(span)
    # pivots normalized to 1 and cleared across rows
    assert {1: Fraction(1)} in basis
    assert {0: Fraction(1)} in basis


# ------------------------------------------------ engine against the oracles


def _random_sparse(rng, nrows, ncols):
    """Sparse rational matrix; some columns forced to zero, and some rows
    replaced by combinations of earlier rows so that rank deficiency is common."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
            continue
        rows.append([
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if c not in zero_cols and rng.random() < 0.5 else Fraction(0)
            for c in range(ncols)
        ])
    return rows


def _apply(rows, vec):
    return [sum((x * v for x, v in zip(row, vec)), Fraction(0)) for row in rows]


def _per_free_key(nullspace, pivots):
    """Integer nullspace vectors, each divided by its entry at its own free
    key (its one key that is not a pivot), after checking that the vector is
    the primitive integer multiple of that rational vector."""
    out = []
    for vec in nullspace:
        assert all(type(v) is int for v in vec.values())
        (free,) = [k for k in vec if k not in pivots]
        assert vec[free] > 0 and math.gcd(*vec.values()) == 1
        out.append({k: Fraction(v, vec[free]) for k, v in vec.items()})
    return out


def test_nullspace_matches_dense_oracle():
    rng = random.Random(2012)
    deficient = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_sparse(rng, nrows, ncols)
        pivots = set(dense_pivots(dense_rref(rows)))
        kernel = [
            [vec.get(c, Fraction(0)) for c in range(ncols)]
            for vec in _per_free_key(row_echelon(rows).nullspace(range(ncols)), pivots)
        ]
        assert kernel == dense_nullspace(rows)
        for vec in kernel:
            assert not any(_apply(rows, vec))
        deficient += dense_rank(rows) < min(nrows, ncols)
    assert deficient > 10


def test_solve_exact_against_matrix_product():
    # 0 to 3 right-hand sides: each column of the one solve is its own
    # one-column solve, and the solve is None when any column is inconsistent
    rng = random.Random(1201)
    seen = {"solved": 0, "inconsistent": 0, **{f"width {w}": 0 for w in range(4)}}
    for _ in range(200):
        nrows, ncols, width = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3)
        a = _random_sparse(rng, nrows, ncols)
        columns = [
            _apply(a, [Fraction(rng.randint(-4, 4)) for _ in range(ncols)])
            if rng.random() < 0.75  # consistent by construction
            else [Fraction(rng.randint(-4, 4)) for _ in range(nrows)]
            for _ in range(width)
        ]
        singles, consistent = [], []
        for b in columns:
            x = solve_exact(a, [[rhs] for rhs in b])
            singles.append(x)
            consistent.append(dense_rank([row + [rhs] for row, rhs in zip(a, b)]) == dense_rank(a))
            if not consistent[-1]:
                assert x is None
                continue
            assert x is not None and _apply(a, [v for v, in x]) == b
            # free variables are zero; each kernel vector's last entry is its free column
            for vec in dense_nullspace(a):
                free = max(c for c, v in enumerate(vec) if v)
                assert x[free] == (0,)
        solution = solve_exact(a, [list(row) for row in zip(*columns)] or [[]] * nrows)
        seen[f"width {width}"] += 1
        if not all(consistent):
            assert solution is None
            seen["inconsistent"] += 1
            continue
        assert solution == tuple(tuple(x[r][0] for x in singles) for r in range(ncols))
        seen["solved"] += 1
    assert min(seen.values()) > 20


def test_mat_inverse_against_matrix_product():
    rng = random.Random(4769)
    seen = {"inverted": 0, "singular": 0}
    for _ in range(100):
        n = rng.randint(1, 5)
        m = make_matrix(_random_sparse(rng, n, n))
        if dense_rank([list(row) for row in m]) < n:
            with pytest.raises(GroupError):
                mat_inverse(m)
            seen["singular"] += 1
            continue
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == identity_matrix(n)
        assert mat_mul(inv, m) == identity_matrix(n)
        seen["inverted"] += 1
    assert min(seen.values()) > 20


# large primes below 10**9: rows mixing them have huge co-prime denominators
PRIMES = (999999937, 999999929, 999999893, 999999883, 999999797, 999999761)


def _big(rng):
    denominator = rng.choice(PRIMES) if rng.random() < 0.5 else rng.randint(1, 10**9)
    return Fraction(rng.randint(-10**9, 10**9), denominator)


def _hard_sparse(rng, nrows, ncols):
    """Sparse matrix with large co-prime denominators and zero columns; some
    rows are combinations of earlier ones (their entries cancel in elimination),
    and some are an earlier row plus a multiple of a unit vector."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _big(rng), _big(rng)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif rows and roll < 0.45:
            row = list(rng.choice(rows))
            row[rng.randrange(ncols)] += _big(rng)
            rows.append(row)
        else:
            rows.append([
                _big(rng) if c not in zero_cols and rng.random() < 0.4 else Fraction(0)
                for c in range(ncols)
            ])
    return rows


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _dense(vec, columns):
    return [vec.get(c, 0) for c in columns]


def _echelon_rows(span):
    """The reduced echelon basis, pivot columns descending: each primitive
    row over its entry at its pivot, the one pivot it is nonzero at."""
    out = []
    for row in span.primitive_rows():
        (pivot,) = [k for k in row if k in span.pivots]
        out.append({k: Fraction(v, row[pivot]) for k, v in row.items()})
    return out


def _fractions_only(vectors):
    return all(type(v) is Fraction for vec in vectors for v in vec.values())


def test_span_builder_matches_dense_rref_in_any_insertion_order():
    rng = random.Random(1968)
    deficient = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = _hard_sparse(rng, nrows, ncols)
        expected = dense_rref(rows)
        mirrored = dense_rref([row[::-1] for row in rows])
        kernel = dense_nullspace(rows)
        pivots = set(dense_pivots(expected))
        for _ in range(4):
            order = rows[:]
            rng.shuffle(order)
            # leftmost column pivots first, as in the oracle
            span = SpanBuilder(key_order=lambda c: -c)
            for row in order:
                span.insert(integral_vector(_sparse(row)))
            basis = _echelon_rows(span)
            nullspace = _per_free_key(span.nullspace(range(ncols)), pivots)
            assert _fractions_only(basis)
            assert [_dense(vec, range(ncols)) for vec in basis] == expected
            assert [_dense(vec, range(ncols)) for vec in nullspace] == kernel
            # rightmost column pivots first: the oracle on mirrored columns
            span = SpanBuilder(key_order=lambda c: c)
            for row in order:
                span.insert(integral_vector(_sparse(row)))
            basis = _echelon_rows(span)
            assert _fractions_only(basis)
            assert [_dense(vec, reversed(range(ncols))) for vec in basis] == mirrored
        deficient += len(expected) < min(nrows, ncols)
    assert deficient > 10


def _chains(rng, ncols):
    """Rows at columns (i, i+1), for a leftmost-pivot span.  In order, row i
    pivots at i, a key that rows 0..i-2 gained only by back-substitution of
    row i-1; reversed, no stored row holds a new pivot."""
    rows = [[_big(rng) if c in (i, i + 1) else Fraction(0) for c in range(ncols)]
            for i in range(ncols - 1)]
    return [rows, rows[::-1]]


def test_span_builder_insert_and_contains_agree_with_dense_rank():
    rng = random.Random(22)
    outcomes = {"new": 0, "dependent": 0, "inside": 0, "outside": 0}
    cases = []
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = _hard_sparse(rng, nrows, ncols)
        rng.shuffle(rows)
        cases.append((rows, ncols))
    cases += [(rows, ncols) for ncols in range(2, 9) for rows in _chains(rng, ncols)]
    for rows, ncols in cases:
        span = SpanBuilder(key_order=lambda c: -c)
        seen: list[list[Fraction]] = []
        for row in rows:
            if seen and rng.random() < 0.5:
                probe = [sum((_big(rng) * r[c] for r in seen), Fraction(0))
                         for c in range(ncols)]
            else:
                probe = _hard_sparse(rng, 1, ncols)[0]
            inside = dense_rank(seen + [probe]) == dense_rank(seen)
            assert span.contains(integral_vector(_sparse(probe))) == inside
            outcomes["inside" if inside else "outside"] += 1

            was_new, pivot = span.insert(integral_vector(_sparse(row)))
            before = set(dense_pivots(dense_rref(seen)))
            seen.append(row)
            expected = dense_rref(seen)
            after = set(dense_pivots(expected))
            assert was_new == (len(after) > len(before))
            assert {pivot} == after - before if was_new else pivot is None
            assert len(span) == len(after)
            assert set(span.pivots) == after
            # the stored rows are the reduced echelon form: every row that
            # held the new pivot was back-substituted
            assert [_dense(vec, range(ncols)) for vec in _echelon_rows(span)] == expected
            outcomes["new" if was_new else "dependent"] += 1
    assert min(outcomes.values()) > 20


def test_span_members_lead_with_a_pivot():
    # each stored row leads with its own pivot and is 0 at the others, so a
    # nonzero combination leads with the largest pivot it uses; semicompat's
    # witness search relies on this to skip rows without forming products
    rng = random.Random(1213)
    for _ in range(40):
        span = SpanBuilder(key_order=int)
        for _ in range(rng.randint(1, 8)):
            columns = rng.sample(range(12), rng.randint(1, 6))
            span.insert({c: rng.randint(-9, 9) or 1 for c in columns})
        rows = span.primitive_rows()
        for _ in range(10):
            member = {}
            for row in rows:
                k = rng.randint(-3, 3)
                for c, x in row.items():
                    member[c] = member.get(c, 0) + k * x
            member = {c: x for c, x in member.items() if x}
            if member:
                assert max(member) in span.pivots
                assert span.contains(member)


def test_span_builder_takes_integer_vectors_without_modifying_them():
    rng = random.Random(4049)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        # a stored pivot entry 1 eliminates without rescaling the input,
        # which would then be the vector reduced in place
        rows = [{0: 1, ncols: 2}, {0: 3, ncols: 5, ncols + 1: 7}]
        for _ in range(rng.randint(1, 7)):
            row = {c: rng.choice((1, -1)) * rng.randint(1, 12)
                   for c in range(ncols) if rng.random() < 0.6}
            if row:
                rows.append(row)
        whole, fractional = (SpanBuilder(key_order=lambda c: -c) for _ in range(2))
        for row in rows:
            copy = dict(row)
            assert whole.contains(row) == fractional.contains(
                integral_vector({c: Fraction(x) for c, x in row.items()}))
            assert row == copy
            assert whole.insert(row) == fractional.insert(
                integral_vector({c: Fraction(x, 3) for c, x in row.items()}))
            assert row == copy
        assert _echelon_rows(whole) == _echelon_rows(fractional)
        # the stored rows are primitive integer rows, positive at their pivot
        for primitive in whole.primitive_rows():
            pivot = min(primitive)  # the leftmost column
            assert [c for c in primitive if c in whole.pivots] == [pivot]
            assert all(type(x) is int for x in primitive.values())
            assert primitive[pivot] > 0 and math.gcd(*primitive.values()) == 1
            with pytest.raises(TypeError):  # a read-only view of the stored row
                primitive[pivot] = 1
