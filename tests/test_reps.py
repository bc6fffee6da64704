"""Spin decompositions and structure-constant validation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh.errors import JacobiFailed, NotAntisymmetric
from graphcoh.reps import (
    SpinRep,
    as_spin,
    lie_data,
    power_decompose,
    rep_decomposition,
    tensor_decompose,
    trivial_multiplicity,
)
from graphcoh.tensors import FLOAT, direct_sum, eps_tensor, make_tensor

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Spins and representations.
# ---------------------------------------------------------------------------


def test_as_spin_parses_common_forms():
    assert as_spin("1/2") == HALF
    assert as_spin(1) == 1
    assert as_spin(Fraction(3, 2)) == Fraction(3, 2)
    assert as_spin(0.5) == HALF


def test_as_spin_rejects_junk():
    with pytest.raises(ValueError):
        as_spin(Fraction(1, 3))
    with pytest.raises(ValueError):
        as_spin(-1)
    for x in ("x", float("nan"), float("inf")):
        with pytest.raises(ValueError, match="spin must be a non-negative half-integer"):
            as_spin(x)


def test_spin_rep_dimension():
    assert SpinRep.of(HALF).dimension == 2
    assert SpinRep.of(1).dimension == 3
    assert SpinRep.of(HALF, 1).dimension == 5
    assert str(SpinRep.of(HALF, 1)) == "E_1/2 + E_1"


# ---------------------------------------------------------------------------
# Clebsch-Gordan decompositions.
# ---------------------------------------------------------------------------


def test_two_spinors():
    assert tensor_decompose([HALF, HALF]) == {Fraction(0): 1, Fraction(1): 1}


def test_three_vectors():
    assert tensor_decompose([1, 1, 1]) == {
        Fraction(0): 1,
        Fraction(1): 3,
        Fraction(2): 2,
        Fraction(3): 1,
    }
    dims = sum(m * (2 * j + 1) for j, m in tensor_decompose([1, 1, 1]).items())
    assert dims == 27


def test_three_spinors():
    assert tensor_decompose([HALF, HALF, HALF]) == {HALF: 2, Fraction(3, 2): 1}


doubled_spins = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)


@given(doubled_spins)
def test_decomposition_matches_weight_counting(doubled):
    spins = [Fraction(d, 2) for d in doubled]
    got = {int(2 * j): m for j, m in tensor_decompose(spins).items()}
    assert got == oracles.spin_multiplicities(doubled)


@given(doubled_spins)
def test_decomposition_preserves_dimension(doubled):
    spins = [Fraction(d, 2) for d in doubled]
    total = 1
    for d in doubled:
        total *= d + 1
    assert sum(m * (2 * j + 1) for j, m in tensor_decompose(spins).items()) == total


# ---------------------------------------------------------------------------
# Trivial multiplicities.
# ---------------------------------------------------------------------------


def test_cube_of_an_irreducible():
    for twice in range(0, 13):
        j = Fraction(twice, 2)
        expected = 1 if twice % 2 == 0 else 0
        assert trivial_multiplicity(SpinRep.of(j), 3) == expected


def test_cube_of_the_trivial_rep():
    assert trivial_multiplicity(SpinRep.of(0), 3) == 1


def test_cube_of_the_five_dimensional_rep():
    """The spin-1/2 plus spin-1 sum, cubed.

    The count is pinned by two independent routes: weight counting and
    the full decomposition (which must also add up to dimension 125).
    """
    rep = SpinRep.of(HALF, 1)
    full = power_decompose(rep, 3)
    assert full == {
        Fraction(0): 4,
        HALF: 8,
        Fraction(1): 9,
        Fraction(3, 2): 7,
        Fraction(2): 5,
        Fraction(5, 2): 3,
        Fraction(3): 1,
    }
    assert sum(m * (2 * j + 1) for j, m in full.items()) == 125
    assert trivial_multiplicity(rep, 3) == 4
    per_block = sum(
        oracles.trivial_count(list(choice))
        for choice in itertools.product([1, 2], repeat=3)
    )
    assert per_block == 4


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=3),
)
def test_trivial_multiplicity_matches_weight_counting(doubled, power):
    rep = SpinRep.of(*[Fraction(d, 2) for d in doubled])
    # A direct sum raised to a tensor power expands over every ordered
    # choice of one summand per factor.
    expected = sum(
        oracles.trivial_count(list(choice))
        for choice in itertools.product(doubled, repeat=power)
    )
    assert trivial_multiplicity(rep, power) == expected


def test_rep_decomposition_smoke():
    assert rep_decomposition(SpinRep.of(HALF, 1)) == {1: 1, 2: 1}


# ---------------------------------------------------------------------------
# Structure constants.
# ---------------------------------------------------------------------------


def test_builtin_structure_constants():
    data = lie_data("su2")
    assert data.dimension == 3
    nonzero = [
        (a, b, c)
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for c in (1, 2, 3)
        if data.f.entry(a, b, c) != 0
    ]
    assert len(nonzero) == 6
    assert all(data.f.entry(*idx) in (-1, 1) for idx in nonzero)
    assert data.f.entry(1, 2, 3) == 1


def test_unknown_builtin_rejected():
    with pytest.raises(Exception):
        lie_data("nonsense")


def test_block_diagonal_structure_constants_accepted():
    blocks = direct_sum(eps_tensor(), eps_tensor())
    data = lie_data(blocks)
    assert data.dimension == 6
    assert oracles.ihx_defect(blocks.array) is None


def test_repeated_index_rejected():
    values = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    values[0][0][1] = 1  # f_{112}
    with pytest.raises(NotAntisymmetric):
        lie_data(make_tensor(values))


def test_every_single_entry_perturbation_is_rejected():
    base = eps_tensor()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                values = [
                    [
                        [base.entry(x, y, z) for z in (1, 2, 3)]
                        for y in (1, 2, 3)
                    ]
                    for x in (1, 2, 3)
                ]
                values[a - 1][b - 1][c - 1] += 1
                with pytest.raises((NotAntisymmetric, JacobiFailed)):
                    lie_data(make_tensor(values))


def test_jacobi_violation_reported_with_witness():
    from graphcoh.tensors import parse_tensor
    import importlib.resources as resources

    text = (
        resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt").read_text()
    )
    tensor = parse_tensor(text, label="perturbed")
    with pytest.raises(JacobiFailed) as exc:
        lie_data(tensor)
    assert exc.value.index == oracles.ihx_defect(tensor.array)


def test_float_structure_constants_accepted_with_tolerance():
    values = [
        [[float(eps_tensor().entry(a, b, c)) for c in (1, 2, 3)] for b in (1, 2, 3)]
        for a in (1, 2, 3)
    ]
    data = lie_data(make_tensor(values, kind=FLOAT), tolerance=1e-9)
    assert data.dimension == 3
