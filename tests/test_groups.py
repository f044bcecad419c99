"""Adjoint matrices and sub-modular functions of explicit matrix groups."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from volform import adjoint_matrix, group_presentation, groups, submodular
from volform.cli import main
from volform.errors import GroupError
from volform.linalg import identity_matrix, make_matrix, mat_inverse, mat_mul

H = [[1, 0], [0, -1]]
E = [[0, 1], [0, 0]]
F = [[0, 0], [1, 0]]
SL2_BASIS = [H, E, F]
A0 = [[0, -1], [1, 0]]
DATA = Path(__file__).parent / "data"


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


def _combination(coefficients, basis):
    size = len(basis[0])
    return make_matrix([[sum(c * b[r][k] for c, b in zip(coefficients, basis))
                         for k in range(size)] for r in range(size)])


def test_adjoint_matrix_against_conjugation():
    # column j of Ad_h holds the coordinates of h B_j h^-1: h B_j is
    # (sum_i Ad[i][j] B_i) h, which needs no inverse
    rng = random.Random(1201)
    gl2_basis = [H, E, F, [[1, 0], [0, 1]]]
    for _ in range(30):
        h = make_matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
                         for _ in range(2)])
        if h[0][0] * h[1][1] == h[0][1] * h[1][0]:
            continue
        for basis in (SL2_BASIS, gl2_basis):
            ad = adjoint_matrix(h, basis)
            for j, b in enumerate(basis):
                image = _combination([ad[i][j] for i in range(len(basis))], basis)
                assert mat_mul(h, make_matrix(b)) == mat_mul(image, h)


@pytest.mark.parametrize("basis", [
    [H, H],
    [[[0, 0], [0, 0]]],
    [H, E, F, [[1, 2], [3, -1]]],  # H + 2E + 3F
], ids=["repeated", "zero", "sl2_and_a_combination"])
def test_dependent_basis_is_a_group_error(basis):
    # each span is Ad_h-stable, so the solve is consistent; a dependent basis
    # leaves a zero row in its solution
    text = "^Lie algebra basis matrices are linearly dependent$"
    for h in ([[2, 0], [0, 1]], A0):
        for fn in (adjoint_matrix, submodular):
            with pytest.raises(GroupError, match=text):
                fn(h, basis)
    with pytest.raises(GroupError, match=text):
        group_presentation(2, basis)


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
    # element() would return the first of two elements named alike
    with pytest.raises(GroupError, match="^element 'A0' is already defined$"):
        group_presentation(2, [H], [("A0", A0), ("A0", [[2, 0], [0, Fraction(1, 2)]])])


def test_each_test_element_adjoint_is_computed_once(monkeypatch, capsys):
    # group_presentation keeps submodular(h, basis) from its Ad_h-stability
    # test, and the submodular check reads the kept value
    calls = []
    original = groups.adjoint_matrix

    def counted(h, basis, inverse=None):
        calls.append(h)
        return original(h, basis, inverse)

    monkeypatch.setattr(groups, "adjoint_matrix", counted)
    assert main(["check", str(DATA / "sl2_group.vf")]) == 0
    assert "pass: 3" in capsys.readouterr().out
    assert len(calls) == 3  # one per test element


def test_each_test_element_is_inverted_once(monkeypatch, capsys):
    # the inverse that decides an element's singularity also conjugates
    # the basis; the only determinants are the three submodular values
    calls = {"det_bareiss": 0, "mat_inverse": 0}
    for name in calls:
        original = getattr(groups, name)

        def counted(m, name=name, original=original):
            calls[name] += 1
            return original(m)

        monkeypatch.setattr(groups, name, counted)
    assert main(["check", str(DATA / "sl2_group.vf")]) == 0
    assert "pass: 3" in capsys.readouterr().out
    assert calls == {"det_bareiss": 3, "mat_inverse": 3}


def test_singular_elements_are_refused_before_any_unstable_span():
    # "bad" leaves the span of H, but every element is inverted first
    with pytest.raises(GroupError, match="^element 'sing' is singular$"):
        group_presentation(2, [H], [("bad", [[1, 1], [0, 1]]), ("sing", [[1, 0], [0, 0]])])
    with pytest.raises(GroupError, match="^adjoint action leaves the span"):
        group_presentation(2, [H], [("bad", [[1, 1], [0, 1]]), ("ok", A0)])


def test_empty_basis_is_a_group_error():
    with pytest.raises(GroupError, match="^empty Lie algebra basis$"):
        group_presentation(2, [])
