"""Adjoint matrices and sub-modular functions of explicit matrix groups."""

import random
from fractions import Fraction

import pytest

from volform import adjoint_matrix, group_presentation, submodular
from volform.errors import GroupError
from volform.linalg import identity_matrix, make_matrix, mat_inverse, mat_mul

H = [[1, 0], [0, -1]]
E = [[0, 1], [0, 0]]
F = [[0, 0], [1, 0]]
SL2_BASIS = [H, E, F]
A0 = [[0, -1], [1, 0]]


def random_sl2_element(rng: random.Random):
    """Random rational SL2 matrix as a product of elementary shears and a torus element."""
    m = identity_matrix(2)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randint(0, 2)
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if kind == 0:
            factor = make_matrix([[1, t], [0, 1]])
        elif kind == 1:
            factor = make_matrix([[1, 0], [t, 1]])
        else:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            factor = make_matrix([[c, 0], [0, 1 / c]])
        m = mat_mul(m, factor)
    return m


def test_adjoint_of_upper_unipotent_algebra_under_torus_element():
    got = adjoint_matrix([[2, 0], [0, Fraction(1, 2)]], [E])
    assert got == ((Fraction(4),),)


def test_adjoint_of_identity():
    assert adjoint_matrix(identity_matrix(3), [make_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])]) == (
        (Fraction(1),),
    )


def test_adjoint_of_rotation_on_torus_algebra():
    assert adjoint_matrix(A0, [H]) == ((Fraction(-1),),)


def test_submodular_values():
    assert submodular(A0, [H]) == -1
    assert submodular([[2, 0], [0, Fraction(1, 2)]], [E]) == 4
    assert submodular(A0, SL2_BASIS) == 1


def test_submodular_trivial_on_sl2_samples():
    rng = random.Random(77)
    for _ in range(10):
        h = random_sl2_element(rng)
        assert submodular(h, SL2_BASIS) == 1


def test_submodular_is_a_character():
    rng = random.Random(78)
    # torus-normalizer style elements acting on the torus algebra
    elements = [A0, [[2, 0], [0, Fraction(1, 2)]], [[0, -3], [Fraction(1, 3), 0]]]
    for _ in range(20):
        a = make_matrix(rng.choice(elements))
        b = make_matrix(rng.choice(elements))
        assert submodular(mat_mul(a, b), [H]) == submodular(a, [H]) * submodular(b, [H])
        assert submodular(mat_inverse(a), [H]) == 1 / submodular(a, [H])
    assert submodular(identity_matrix(2), [H]) == 1


def test_adjoint_rejects_unstable_span():
    shear = [[1, 1], [0, 1]]
    with pytest.raises(GroupError):
        adjoint_matrix(shear, [H])  # conjugating diag(1,-1) leaves the span


def test_adjoint_rejects_singular_element():
    # adjoint_matrix leaves the singular test to mat_inverse
    for fn in (adjoint_matrix, submodular):
        with pytest.raises(GroupError, match="singular"):
            fn([[1, 0], [0, 0]], [H])


def test_group_presentation_validation():
    group = group_presentation(2, SL2_BASIS, [("A0", A0)])
    assert group.element("A0") == make_matrix(A0)
    with pytest.raises(GroupError):
        group_presentation(2, [H, H])  # dependent basis
    # [E, F] = H lies outside the span of E and F
    with pytest.raises(GroupError, match="the bracket of matrices 1 and 2 lies outside"):
        group_presentation(2, [E, F])
    with pytest.raises(GroupError):
        group_presentation(2, [H], [("bad", [[1, 1], [0, 1]])])  # unstable span
    with pytest.raises(GroupError):
        group_presentation(2, [H], [("sing", [[1, 0], [0, 0]])])
