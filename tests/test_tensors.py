"""Scalar kinds, equivariant tensors, pairing, and the tensor text format."""

import importlib.resources as resources
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh.decorated import decorate_uniform, ihx_violation
from graphcoh.errors import FormatError, JacobiFailed, NotAntisymmetric, ShapeMismatch
from graphcoh.graphs import theta_graph
from graphcoh.reps import lie_data
from graphcoh.tensors import (
    CATALOGUE,
    FLOAT,
    RATIONAL,
    EquivariantTensor,
    Rad,
    ScalarKind,
    catalogue_tensor,
    check_equivariance,
    direct_sum,
    eps_tensor,
    format_scalar,
    format_tensor,
    half_half_one_generators,
    half_half_one_tensor,
    jacobi_violation,
    levi_civita,
    make_tensor,
    pairing,
    parse_scalar,
    parse_tensor,
    radical,
    so3_generators,
    symmetry_profile,
    unify_kinds,
    zero_tensor,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Radicals.
# ---------------------------------------------------------------------------


def test_rad_arithmetic():
    r = Rad(Fraction(0), Fraction(3, 2), 5)
    assert r + r == Rad(Fraction(0), Fraction(3), 5)
    assert r * r == Fraction(45, 4)
    assert -r == Rad(Fraction(0), Fraction(-3, 2), 5)
    assert r - r == 0
    assert float(r) == pytest.approx(1.5 * 5**0.5)


@pytest.mark.parametrize("x", [3, Fraction(-2, 7), Rad(Fraction(1, 3), Fraction(-1, 2), 5)])
def test_rad_subtraction_both_ways(x):
    r = Rad(Fraction(1, 2), Fraction(3, 2), 5)
    xa, xb = (x.a, x.b) if isinstance(x, Rad) else (x, 0)
    assert r - x == Rad(r.a - xa, r.b - xb, 5)
    assert x - r == Rad(xa - r.a, xb - r.b, 5)
    with pytest.raises(TypeError):
        1.5 - r
    assert not Rad(0, 0, 2)


def test_rad_rational_embedding():
    assert Rad(Fraction(2), Fraction(0), 5) == Fraction(2)
    assert hash(Rad(Fraction(2), Fraction(0), 5)) == hash(Fraction(2))
    # A radical-free value may adopt the other operand's radicand.
    assert Rad(Fraction(1), Fraction(0), 7) + Rad(Fraction(0), HALF, 5) == Rad(
        Fraction(1), HALF, 5
    )


def test_rad_incompatible_radicands_rejected():
    with pytest.raises(TypeError):
        Rad(Fraction(0), Fraction(1), 5) + Rad(Fraction(0), Fraction(1), 7)


def test_radical_kind_validation():
    assert radical(5).radicand == 5
    with pytest.raises(ValueError):
        radical(4)
    with pytest.raises(ValueError):
        radical(1)


def test_unify_kinds_lattice():
    assert unify_kinds([RATIONAL, RATIONAL]) == RATIONAL
    assert unify_kinds([RATIONAL, radical(5)]) == radical(5)
    assert unify_kinds([radical(5), radical(7)]) == FLOAT
    assert unify_kinds([RATIONAL, FLOAT]) == FLOAT


def test_scalar_kind_parse():
    assert ScalarKind.parse(["rational"]) == RATIONAL
    assert ScalarKind.parse(["radical", "5"]) == radical(5)
    assert ScalarKind.parse(["float"]) == FLOAT
    with pytest.raises(Exception):
        ScalarKind.parse(["imaginary"])


# ---------------------------------------------------------------------------
# Tensor construction.
# ---------------------------------------------------------------------------


def test_make_tensor_infers_kind():
    t = make_tensor([[0, 1], [1, 0]])
    assert t.kind == RATIONAL
    assert t.valence == 2 and t.dim == 2
    assert t.entry(1, 2) == 1
    f = make_tensor([[0.0, 1.0], [1.0, 0.0]])
    assert f.kind == FLOAT
    r = make_tensor([[Rad(Fraction(0), Fraction(1), 5), 0], [0, 0]])
    assert r.kind == radical(5)


R5, R7 = Rad(0, 1, 5), Rad(0, 1, 7)


@pytest.mark.parametrize("values", [[R5, R7, 0.5], [0.5, R5, R7]], ids=["float-last", "float-first"])
def test_a_float_entry_makes_a_float_tensor_wherever_it_sits(values):
    assert make_tensor(values).kind == FLOAT


def test_two_radicands_without_a_float_are_refused():
    with pytest.raises(ValueError, match="radicands 5 and 7; declare kind float instead"):
        make_tensor([R5, R7])


def test_tensor_arrays_are_frozen():
    t = make_tensor([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = Fraction(2)


def test_non_hypercube_rejected():
    with pytest.raises(Exception):
        make_tensor([[1, 2, 3], [4, 5, 6]])


def test_with_label_keeps_content():
    t = make_tensor([[0, 1], [1, 0]]).with_label("swap")
    assert t.label == "swap"
    assert t == make_tensor([[0, 1], [1, 0]])


def test_zero_tensor():
    z = zero_tensor(3, 2)
    assert z.valence == 3 and z.dim == 2
    assert all(x == 0 for x in z.array.ravel())


def test_levi_civita_values():
    assert levi_civita(1, 2, 3) == 1
    assert levi_civita(2, 1, 3) == -1
    assert levi_civita(1, 1, 2) == 0


def test_eps_tensor_entries():
    eps = eps_tensor()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                assert eps.entry(a, b, c) == levi_civita(a, b, c)


def test_half_half_one_tensor_frozen_entries():
    t = half_half_one_tensor()
    assert t.dim == 5 and t.valence == 3 and t.kind == RATIONAL
    nonzero = {
        idx: t.entry(*idx)
        for idx in (
            (1, 1, 3),
            (1, 1, 4),
            (1, 2, 5),
            (2, 1, 5),
            (2, 2, 3),
            (2, 2, 4),
        )
    }
    assert nonzero == {
        (1, 1, 3): 1,
        (1, 1, 4): 1,
        (1, 2, 5): -1,
        (2, 1, 5): -1,
        (2, 2, 3): -1,
        (2, 2, 4): 1,
    }
    assert sum(1 for x in t.array.ravel() if x != 0) == 6


def test_catalogue():
    assert set(CATALOGUE) == {"eps", "half-half-one"}
    assert catalogue_tensor("eps") == eps_tensor()
    assert catalogue_tensor("half-half-one") == half_half_one_tensor()
    with pytest.raises(Exception):
        catalogue_tensor("nonsense")


def test_direct_sum_blocks():
    s = direct_sum(eps_tensor(), eps_tensor())
    assert s.dim == 6 and s.valence == 3
    assert s.entry(1, 2, 3) == 1
    assert s.entry(4, 5, 6) == 1
    assert s.entry(1, 2, 6) == 0
    assert s.entry(4, 2, 3) == 0


# ---------------------------------------------------------------------------
# Pairing.
# ---------------------------------------------------------------------------


def test_pairing_worked_examples():
    assert pairing(eps_tensor(), eps_tensor()) == 6
    assert pairing(eps_tensor(), zero_tensor(3, 3)) == 0
    blocks = direct_sum(eps_tensor(), eps_tensor())
    assert pairing(blocks, blocks) == 12
    assert pairing(half_half_one_tensor(), half_half_one_tensor()) == 6


def test_equal_tensors_hash_equal():
    """Equal exact tensors, float tensors that differ only in the sign of a
    zero, and the decorated graphs they label all hash equal."""
    assert eps_tensor() == eps_tensor()
    assert len({eps_tensor(), eps_tensor()}) == 1
    plus = make_tensor([[0.0, 1.5], [-1.5, 0.0]])
    minus = make_tensor([[-0.0, 1.5], [-1.5, -0.0]])
    assert plus == minus
    assert hash(plus) == hash(minus)
    a = decorate_uniform(theta_graph(), eps_tensor())
    b = decorate_uniform(theta_graph(), eps_tensor())
    assert a == b
    assert hash(a) == hash(b)


def test_pairing_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        pairing(eps_tensor(), zero_tensor(3, 4))
    with pytest.raises(ShapeMismatch):
        pairing(eps_tensor(), zero_tensor(2, 3))


def test_pairing_exact_with_radicals():
    r5 = Rad(Fraction(0), Fraction(1), 5)
    t = make_tensor([[r5, 0], [0, Fraction(1, 2)]])
    assert pairing(t, t) == Fraction(21, 4)


def test_pairing_float_path():
    t = make_tensor([[0.5, 0.0], [0.0, 2.0]])
    assert pairing(t, t) == pytest.approx(4.25)


small_entries = st.integers(min_value=-3, max_value=3)


@given(
    st.lists(st.lists(small_entries, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(small_entries, min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_pairing_is_symmetric_and_positive(a, b):
    ta, tb = make_tensor(a), make_tensor(b)
    assert pairing(ta, tb) == pairing(tb, ta)
    assert pairing(ta, ta) >= 0
    explicit = sum(
        Fraction(a[i][j]) * Fraction(b[i][j]) for i in range(2) for j in range(2)
    )
    assert pairing(ta, tb) == explicit


# ---------------------------------------------------------------------------
# Equivariance.
# ---------------------------------------------------------------------------


def test_eps_is_rotation_invariant_exactly():
    assert check_equivariance(eps_tensor(), so3_generators())


def test_perturbed_eps_is_not_invariant():
    values = [
        [[eps_tensor().entry(a, b, c) for c in (1, 2, 3)] for b in (1, 2, 3)]
        for a in (1, 2, 3)
    ]
    values[0][0][0] += 1
    assert not check_equivariance(make_tensor(values), so3_generators())


def test_half_half_one_is_invariant_in_floating_mode():
    assert check_equivariance(
        half_half_one_tensor(), half_half_one_generators(), tolerance=1e-12
    )


def test_equivariance_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        check_equivariance(eps_tensor(), [np.eye(4)])


def eps_with_defect() -> EquivariantTensor:
    """eps with entry (1, 1, 1) set to 1e-15."""
    values = np.array(eps_tensor().array)
    values[0, 0, 0] = Fraction(1, 10**15)
    return make_tensor(values)


def test_exact_equivariance_ignores_a_tolerance():
    """An exact tensor under exact generators gets an exact verdict: a
    tolerance is for float data and cannot pass a defect of 1e-15."""
    t = eps_with_defect()
    assert not check_equivariance(t, so3_generators())
    assert not check_equivariance(t, so3_generators(), tolerance=1e-9)
    assert symmetry_profile(t, tolerance=1e-9) == {(1, 2): None, (1, 3): None, (2, 3): None}


def test_integer_dtype_generators_give_the_exact_verdict():
    gens = [g.astype(np.int64) for g in so3_generators()]
    assert check_equivariance(eps_tensor(), gens)
    assert not check_equivariance(eps_with_defect(), gens, tolerance=1e-9)


def test_float_dtype_generators_take_the_float_path():
    """Float generators force binary64, where the tolerance passes the defect."""
    gens = [g.astype(np.float64) for g in so3_generators()]
    assert check_equivariance(eps_tensor(), gens)
    assert check_equivariance(eps_with_defect(), gens, tolerance=1e-9)


# ---------------------------------------------------------------------------
# Symmetry profiles.
# ---------------------------------------------------------------------------


def test_eps_profile_completely_antisymmetric():
    assert symmetry_profile(eps_tensor()) == {(1, 2): -1, (1, 3): -1, (2, 3): -1}


def test_half_half_one_profile():
    assert symmetry_profile(half_half_one_tensor()) == {
        (1, 2): 1,
        (1, 3): None,
        (2, 3): None,
    }


def test_all_ones_profile_completely_symmetric():
    ones = make_tensor([[[1] * 2 for _ in range(2)] for _ in range(2)])
    assert symmetry_profile(ones) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


# ---------------------------------------------------------------------------
# Shared antisymmetry and Jacobi checks, exact and float.
# ---------------------------------------------------------------------------


def _perturbed_jacobi():
    text = resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt").read_text()
    return parse_tensor(text, label="perturbed")


def _verdicts(t):
    """symmetry_profile, ihx_violation and lie_data, failures as (error, slots, index)."""

    def outcome(check):
        try:
            return check(t)
        except (NotAntisymmetric, JacobiFailed) as exc:
            return type(exc).__name__, getattr(exc, "slots", None), exc.index

    return (
        symmetry_profile(t),
        outcome(ihx_violation),
        outcome(lambda x: lie_data(x).dimension),
    )


@pytest.mark.parametrize(
    "make, lie",
    [
        (eps_tensor, 3),
        (half_half_one_tensor, ("NotAntisymmetric", (1, 2), (1, 1, 3))),
        (
            lambda: make_tensor([[[1] * 2 for _ in range(2)] for _ in range(2)]),
            ("NotAntisymmetric", (1, 2), (1, 1, 1)),
        ),
        (_perturbed_jacobi, ("JacobiFailed", None, (2, 3, 4, 5))),
    ],
    ids=["eps", "half-half-one", "all-ones", "perturbed-jacobi"],
)
def test_float_copies_reach_the_exact_verdicts(make, lie):
    exact = make()
    floating = make_tensor(np.asarray(exact.array, dtype=float), kind=FLOAT)
    assert floating.kind == FLOAT
    verdicts = _verdicts(exact)
    assert verdicts[2] == lie
    assert _verdicts(floating) == verdicts


@pytest.mark.parametrize("valence", [2, 4])
def test_jacobi_checks_refuse_other_valences(valence):
    """The zero tensor is antisymmetric, so only the valence guard stops it."""
    t = zero_tensor(valence, 3)
    for check in (jacobi_violation, ihx_violation, lie_data):
        with pytest.raises(ShapeMismatch, match=f"got valence {valence}"):
            check(t)


# ---------------------------------------------------------------------------
# Text format.
# ---------------------------------------------------------------------------


def test_scalar_round_trips():
    assert parse_scalar([format_scalar(Fraction(3, 2), RATIONAL)], RATIONAL) == Fraction(3, 2)
    r = Rad(Fraction(0), Fraction(3, 2), 5)
    assert parse_scalar(format_scalar(r, radical(5)).split(), radical(5)) == r
    assert parse_scalar([format_scalar(0.25, FLOAT)], FLOAT) == 0.25


def test_mixed_radical_entry_not_representable():
    with pytest.raises(ValueError):
        format_scalar(Rad(Fraction(1), Fraction(1), 5), radical(5))


def test_format_tensor_shape():
    text = format_tensor(eps_tensor())
    lines = text.strip().splitlines()
    assert lines[0] == "valence 3 dim 3 kind rational"
    assert "1 2 3 1/1" in lines
    assert "2 1 3 -1/1" in lines
    assert len(lines) == 7  # header plus six entries


def test_tensor_round_trip_rational():
    t = eps_tensor()
    assert parse_tensor(format_tensor(t), label=t.label) == t


def test_tensor_round_trip_radical():
    r5 = Rad(Fraction(0), HALF, 5)
    t = make_tensor([[r5, Fraction(2)], [0, -r5]])
    parsed = parse_tensor(format_tensor(t), label="t")
    assert parsed == t
    assert parsed.kind == radical(5)


def test_tensor_round_trip_float():
    t = make_tensor([[0.5, -1.25], [0.0, 3.0]])
    assert parse_tensor(format_tensor(t), label="t") == t


def test_parse_tensor_names_the_line_of_a_duplicate_entry():
    text = "# c\nvalence 2 dim 2 kind rational\n1 2 1\n\n1 1 3\n1 2 1\n"
    with pytest.raises(FormatError, match=r"^line 6: duplicate entry at index \(1, 2\)$"):
        parse_tensor(text)


@pytest.mark.parametrize(
    "text",
    ["valence 2 dim 2 kind rational\n1 2 1/0\n", "valence 2 dim 2 kind radical 2\n1 2 1/0 r 2\n"],
    ids=["rational", "radical"],
)
def test_parse_tensor_refuses_a_zero_denominator_on_its_line(text):
    value = text.splitlines()[1]
    with pytest.raises(FormatError, match=f"^line 2: zero denominator in '{value}'$"):
        parse_tensor(text)


def test_parse_tensor_errors_carry_line_numbers():
    with pytest.raises(FormatError):
        parse_tensor("nonsense\n")
    with pytest.raises(FormatError):
        parse_tensor("valence 2 dim 2 kind rational\n1 2\n")  # missing value
    with pytest.raises(FormatError):
        parse_tensor("valence 2 dim 2 kind rational\n1 3 1\n")  # index range
    with pytest.raises(FormatError):
        parse_tensor("valence 2 dim 2 kind rational\n1 2 1\n1 2 1\n")  # duplicate


@given(
    st.lists(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_tensor_round_trip_random(values):
    t = make_tensor(values)
    assert parse_tensor(format_tensor(t), label="t") == t


# ---------------------------------------------------------------------------
# The contracted-pair identity for structure tensors.
# ---------------------------------------------------------------------------


def test_eps_contraction_identity_against_loops():
    assert oracles.ihx_defect(eps_tensor().array) is None
    assert oracles.ihx_defect(direct_sum(eps_tensor(), eps_tensor()).array) is None
