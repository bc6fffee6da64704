"""Coboundary by contraction: signs, cochains, matrices, exact kernels."""

import dataclasses
import functools
import hashlib
import math
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh import canonical, coboundary, enumeration
from graphcoh.canonical import GraphClass, canonical_rows, canonicalize
from graphcoh.coboundary import (
    Cochain,
    cocycle_basis,
    contract_edge,
    contraction_sign,
    delta,
    delta_matrix,
    format_cochain,
    format_matrix,
    kernel_basis,
    parse_cochain,
    parse_matrix,
    rref,
)
from graphcoh.coboundary import _back_substitute, _forward_eliminate
from graphcoh.errors import BasisTooLarge, DegenerateContraction, FormatError, NotRegular
from graphcoh.graphs import (
    SymmetryMode,
    grading,
    k4_graph,
    new_graph,
    permutation_parity,
    relabel_vertices,
    reverse_edges,
    theta_graph,
)
from test_graphs import permutations_of, skeletons

MODES = (SymmetryMode.LITERAL, SymmetryMode.EDGE_RENUMBERING)

# Coboundary of the complete graph on four vertices, literal mode: six
# contractions, all landing on distinct nonvanishing classes.
K4_DELTA_GOLDEN = {
    ((1, 2), (1, 2), (1, 3), (2, 3), (2, 3)): Fraction(-1),
    ((1, 2), (1, 3), (1, 2), (1, 3), (2, 3)): Fraction(1),
    ((1, 2), (1, 3), (1, 2), (2, 3), (1, 3)): Fraction(1),
    ((1, 2), (1, 3), (1, 2), (2, 3), (2, 3)): Fraction(-1),
    ((1, 2), (1, 3), (1, 3), (2, 3), (2, 3)): Fraction(1),
    ((1, 2), (1, 3), (2, 3), (1, 2), (1, 3)): Fraction(1),
}


# ---------------------------------------------------------------------------
# Contraction signs and skeleton surgery.
# ---------------------------------------------------------------------------


def test_contraction_sign_table():
    assert contraction_sign(1, 2) == 1
    assert contraction_sign(2, 3) == -1
    assert contraction_sign(3, 2) == 1
    assert contraction_sign(2, 1) == -1


def test_contract_edge_worked_example():
    contracted, sign = contract_edge(k4_graph(), 2)
    assert sign == -1
    assert contracted.vertex_count == 3
    assert contracted.edges == ((1, 2), (1, 3), (2, 1), (2, 3), (1, 3))


def test_contract_edge_rejects_non_regular_edges():
    with pytest.raises(NotRegular):
        contract_edge(theta_graph(), 1)


def test_contract_edge_rejects_degenerate_collapse():
    with pytest.raises(DegenerateContraction):
        contract_edge(new_graph(2, [(1, 2)]), 1)


def test_contract_edge_rejects_bad_index():
    with pytest.raises(ValueError):
        contract_edge(k4_graph(), 0)
    with pytest.raises(ValueError):
        contract_edge(k4_graph(), 7)


@given(g=skeletons())
def test_contract_edge_matches_oracle(g):
    for e in oracles.regular_edge_indices(g.edges):
        i, j = g.edges[e - 1]
        degenerate = (
            oracles.valence(g.vertex_count, g.edges, i) == 1
            and oracles.valence(g.vertex_count, g.edges, j) == 1
        )
        if degenerate:
            with pytest.raises(DegenerateContraction):
                contract_edge(g, e)
            continue
        v2, edges2, sign2 = oracles.contract(g.vertex_count, g.edges, e)
        contracted, sign = contract_edge(g, e)
        assert (contracted.vertex_count, contracted.edges) == (v2, edges2)
        assert sign == sign2


@given(g=skeletons())
def test_disjoint_contractions_commute(g):
    regular = oracles.regular_edge_indices(g.edges)
    for a in regular:
        for b in regular:
            if b <= a:
                continue
            ends_a, ends_b = set(g.edges[a - 1]), set(g.edges[b - 1])
            if ends_a & ends_b:
                continue
            try:
                g1, s1 = contract_edge(g, a)
                # After removing edge a, edge b shifts down by one exactly
                # when it was numbered above a.
                g12, s12 = contract_edge(g1, b - 1 if b > a else b)
                g2, s2 = contract_edge(g, b)
                g21, s21 = contract_edge(g2, a if a < b else a - 1)
            except DegenerateContraction:
                continue
            for mode in MODES:
                c1 = Cochain.from_class(canonicalize(g12, mode), s1 * s12)
                c2 = Cochain.from_class(canonicalize(g21, mode), s2 * s21)
                assert c1 == -c2  # swapping the contraction order costs a sign


# ---------------------------------------------------------------------------
# Cochain arithmetic.
# ---------------------------------------------------------------------------


def test_from_class_folds_the_relation_sign():
    g = new_graph(2, [(2, 1), (2, 1), (2, 1)])
    c = Cochain.from_class(canonicalize(g))
    assert c.coefficient(canonicalize(theta_graph())) == -1


def test_from_class_drops_vanishing_classes():
    c = Cochain.from_class(canonicalize(new_graph(2, [(1, 2), (1, 2)])))
    assert c.is_zero


def test_cochain_rejects_non_basis_keys():
    reversed_theta = canonicalize(new_graph(2, [(2, 1), (2, 1), (2, 1)]))
    assert reversed_theta.sign_state == -1
    with pytest.raises(ValueError):
        Cochain({reversed_theta: Fraction(1)})


def test_cochain_rejects_mixed_gradings():
    theta = canonicalize(theta_graph())
    k4 = canonicalize(k4_graph())
    with pytest.raises(ValueError):
        Cochain({theta: Fraction(1), k4: Fraction(1)})


def test_cochain_rejects_mixed_modes():
    a = canonicalize(theta_graph(), SymmetryMode.LITERAL)
    b = canonicalize(theta_graph(), SymmetryMode.EDGE_RENUMBERING)
    with pytest.raises(ValueError):
        Cochain({a: Fraction(1), b: Fraction(1)})


def test_cochain_checks_the_terms_that_survive():
    """Terms of another grading or mode that cancel leave no mix behind;
    a mix that survives is named by its sorted gradings."""
    theta, k4 = canonicalize(theta_graph()), canonicalize(k4_graph())
    other = canonicalize(theta_graph(), SymmetryMode.EDGE_RENUMBERING)
    for cancelled in (k4, other):
        c = Cochain([(cancelled, 1), (theta, Fraction(1, 2)), (cancelled, -1)])
        assert c == Cochain({theta: Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"cochain mixes gradings \[\(1, 0\), \(2, 0\)\]"):
        Cochain([(k4, 1), (theta, 1), (k4, 2)])
    with pytest.raises(ValueError, match="cochain mixes symmetry modes"):
        Cochain([(other, 1), (theta, 1)])


def test_cochain_arithmetic():
    theta = canonicalize(theta_graph())
    c = Cochain.from_class(theta)
    assert (c + c).coefficient(theta) == 2
    assert (c - c).is_zero
    assert (Fraction(3, 2) * c).coefficient(theta) == Fraction(3, 2)
    assert (-c).coefficient(theta) == -1
    assert len(c) == 1 and list(c)


# ---------------------------------------------------------------------------
# The coboundary map.
# ---------------------------------------------------------------------------


def test_delta_of_theta_is_empty():
    assert delta(Cochain.from_class(canonicalize(theta_graph()))).is_zero


def test_delta_of_k4_golden_value():
    image = delta(Cochain.from_class(canonicalize(k4_graph())))
    got = {cls.skeleton.edges: coeff for cls, coeff in image.terms.items()}
    assert got == K4_DELTA_GOLDEN
    assert image.grading == (2, 1)


def test_delta_of_k4_matches_oracle():
    expected = oracles.delta_map(4, k4_graph().edges, "literal")
    assert expected == K4_DELTA_GOLDEN


def test_delta_accepts_a_bare_class():
    assert delta(canonicalize(theta_graph())).is_zero


def test_delta_of_empty_cochain_is_empty():
    assert delta(Cochain()).is_zero


def test_delta_of_the_empty_graph_class_is_zero():
    assert delta(canonicalize(new_graph(0, ()))).is_zero


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(max_vertices=4, max_edges=6))
def test_delta_matches_oracle(mode, g):
    cls = canonicalize(g, mode)
    if cls.is_zero:
        return
    basis = cls.basis_class()
    image = delta(Cochain.from_class(basis))
    got = {c.skeleton.edges: coeff for c, coeff in image.terms.items()}
    expected = oracles.delta_map(
        basis.skeleton.vertex_count, basis.skeleton.edges, mode.value
    )
    assert got == expected


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(max_vertices=4, max_edges=6))
def test_delta_shifts_the_degree_by_one(mode, g):
    cls = canonicalize(g, mode)
    if cls.is_zero:
        return
    image = delta(Cochain.from_class(cls))
    n, t = cls.grading
    if not image.is_zero:
        assert image.grading == (n, t + 1)


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(max_vertices=4, max_edges=5), data=st.data())
def test_delta_is_well_defined_on_classes(mode, g, data):
    perm = data.draw(permutations_of(g.vertex_count))
    which = data.draw(st.lists(st.integers(1, g.edge_count), unique=True))
    h = reverse_edges(relabel_vertices(g, perm), which)
    applied = permutation_parity(perm) * (-1) ** len(which)
    cg = Cochain.from_class(canonicalize(g, mode))
    ch = Cochain.from_class(canonicalize(h, mode))
    assert ch == applied * cg
    assert delta(ch) == applied * delta(cg)


def test_delta_squared_vanishes_on_small_graphs():
    for mode in MODES:
        for e in (2, 3, 4):
            for edges in oracles.labeled_multigraphs(3, e):
                cls = canonicalize(new_graph(3, edges), mode)
                assert delta(delta(Cochain.from_class(cls))).is_zero
        assert delta(delta(Cochain.from_class(canonicalize(k4_graph(), mode)))).is_zero


# ---------------------------------------------------------------------------
# Matrices, ranks, kernels.
# ---------------------------------------------------------------------------


def test_order_one_matrix_has_no_codomain():
    dm = delta_matrix(1, 0, connected=True)
    assert dm.shape == (0, 1)
    assert dm.rank() == 0
    assert len(dm.kernel()) == 1


def test_columns_expand_delta():
    dm = delta_matrix(1, -1, connected=False)
    index = {cls: i for i, cls in enumerate(dm.codomain)}
    for col, cls in enumerate(dm.domain):
        image = delta(Cochain.from_class(cls))
        expected = {
            (index[target], col): coeff for target, coeff in image.terms.items()
        }
        got = {(r, c): v for (r, c), v in dm.entries.items() if c == col}
        assert got == expected


def test_frozen_shapes_and_ranks():
    dm = delta_matrix(1, -1, connected=False)
    assert (dm.shape, dm.rank(), len(dm.kernel())) == ((1, 13), 1, 12)
    dm = delta_matrix(1, -2, connected=False)
    assert (dm.shape, dm.rank(), len(dm.kernel())) == ((13, 280), 12, 268)
    dm = delta_matrix(2, -1, connected=False, mode=SymmetryMode.EDGE_RENUMBERING)
    assert (dm.shape, dm.rank(), len(dm.kernel())) == ((19, 53), 15, 38)
    # literal V=5, E=6; sympy's DomainMatrix rank is also 268
    dm = delta_matrix(1, -3, connected=False)
    assert (dm.shape, dm.rank(), len(dm.kernel())) == ((280, 6505), 268, 6237)


def test_matrix_entries_are_the_integers_of_delta():
    for mode in MODES:
        dm = delta_matrix(2, -1, mode=mode)
        assert dm.entries and all(type(v) is int for v in dm.entries.values())


@pytest.mark.parametrize(
    "mode, order, degree, connected",
    [(SymmetryMode.LITERAL, 1, -2, False), (SymmetryMode.LITERAL, 2, 0, True),
     (SymmetryMode.EDGE_RENUMBERING, 2, -1, False)],
)
def test_fraction_entries_give_the_same_rank_and_kernel(mode, order, degree, connected):
    dm = delta_matrix(order, degree, connected=connected, mode=mode)
    rational = dataclasses.replace(dm, entries={k: Fraction(v) for k, v in dm.entries.items()})
    assert rational.rank() == dm.rank()
    assert rational.kernel() == dm.kernel()


def test_rank_and_kernel_share_one_elimination(monkeypatch):
    calls = []

    def counting_forward_eliminate(*args):
        calls.append(args)
        return _forward_eliminate(*args)

    monkeypatch.setattr(coboundary, "_forward_eliminate", counting_forward_eliminate)
    dm = delta_matrix(1, -2, connected=False)
    assert (dm.rank(), len(dm.kernel())) == (12, 268)
    assert len(calls) == 1


def test_rank_never_back_substitutes(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank back-substituted")

    monkeypatch.setattr(coboundary, "_back_substitute", refuse)
    assert delta_matrix(1, -2).rank() == 12
    assert delta_matrix(2, 0, mode=SymmetryMode.EDGE_RENUMBERING).rank() == 4


def test_trivalent_cell_frozen_dimensions():
    cases = {
        (SymmetryMode.LITERAL, True): ((40, 1815), 40, 1775),
        (SymmetryMode.LITERAL, False): ((40, 1831), 40, 1791),
        (SymmetryMode.EDGE_RENUMBERING, True): ((4, 17), 4, 13),
        (SymmetryMode.EDGE_RENUMBERING, False): ((4, 19), 4, 15),
    }
    for (mode, connected), expected in cases.items():
        dm = delta_matrix(2, 0, connected=connected, mode=mode)
        assert (dm.shape, dm.rank(), len(dm.kernel())) == expected


def test_rank_agrees_with_float_linear_algebra():
    import numpy as np

    dm = delta_matrix(2, 0, connected=True, mode=SymmetryMode.LITERAL)
    dense = np.zeros(dm.shape)
    for (r, c), v in dm.entries.items():
        dense[r, c] = float(v)
    assert np.linalg.matrix_rank(dense) == dm.rank() == 40


def test_rank_and_kernel_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    for n, t, mode in [
        (2, 0, SymmetryMode.EDGE_RENUMBERING),
        (2, -1, SymmetryMode.EDGE_RENUMBERING),
        (1, -1, SymmetryMode.LITERAL),
        (1, -2, SymmetryMode.LITERAL),
    ]:
        dm = delta_matrix(n, t, connected=False, mode=mode)
        m = sympy.Matrix(dm.shape[0], dm.shape[1], lambda r, c: 0)
        for (r, c), v in dm.entries.items():
            m[r, c] = sympy.Rational(v.numerator, v.denominator)
        assert m.rank() == dm.rank()
        assert len(m.nullspace()) == len(dm.kernel())


def test_kernel_vectors_are_annihilated():
    dm = delta_matrix(2, 0, connected=True, mode=SymmetryMode.EDGE_RENUMBERING)
    rows, cols = dm.shape
    for vec in dm.kernel():
        for r in range(rows):
            assert (
                sum(dm.entries.get((r, c), Fraction(0)) * vec.get(c, 0) for c in range(cols))
                == 0
            )


def test_rank_nullity_everywhere():
    for mode in MODES:
        for n, t in [(1, 0), (1, -1), (2, 0)]:
            dm = delta_matrix(n, t, connected=True, mode=mode)
            assert dm.rank() + len(dm.kernel()) == dm.shape[1]


def test_composite_matrix_vanishes():
    for mode in MODES:
        d0 = delta_matrix(2, 0, connected=True, mode=mode)
        d1 = delta_matrix(2, 1, connected=True, mode=mode)
        assert d1.domain == d0.codomain
        product = {}
        for (r, k), v in d1.entries.items():
            for (k2, c), w in d0.entries.items():
                if k2 == k:
                    key = (r, c)
                    product[key] = product.get(key, Fraction(0)) + v * w
        assert all(v == 0 for v in product.values())


def test_delta_matrix_respects_the_cap():
    with pytest.raises(BasisTooLarge):
        delta_matrix(2, 0, connected=True, mode=SymmetryMode.LITERAL, cap=10)


# ---------------------------------------------------------------------------
# The row-space delta kernel against the oracle, and its column memo.
# ---------------------------------------------------------------------------


def whole_cells(vertex_counts):
    """(order, degree) of every cell of non-positive degree at these vertex counts."""
    return [(e - v, 2 * e - 3 * v) for v in vertex_counts for e in range((v + 1) // 2, 3 * v // 2 + 1)]


@pytest.mark.parametrize("connected", (False, True))
@pytest.mark.parametrize(
    "mode, vertex_counts",
    [(SymmetryMode.LITERAL, (2, 3, 4)), (SymmetryMode.EDGE_RENUMBERING, (2, 3, 4, 5))],
    ids=["literal", "edge-renumbering"],
)
def test_delta_matrix_matches_oracle_on_whole_cells(mode, vertex_counts, connected):
    for order, degree in whole_cells(vertex_counts):
        dm = delta_matrix(order, degree, connected=connected, mode=mode)
        row_of = {cls.skeleton.edges: r for r, cls in enumerate(dm.codomain)}
        expected = {}
        for col, cls in enumerate(dm.domain):
            g = cls.skeleton
            for form, coeff in oracles.delta_map(g.vertex_count, g.edges, mode.value).items():
                expected[(row_of[form], col)] = coeff
        assert dm.entries == expected, (order, degree)


def test_images_canonicalize_each_distinct_labeled_row_once(monkeypatch):
    """canonical_rows meets pairwise-distinct image rows, holding no stored
    edge reversal: each term's sign is applied after."""
    seen = []

    def spy(tables, mode, rows, reversals):
        seen.append((rows.tolist(), reversals.tolist()))
        return canonical_rows(tables, mode, rows, reversals)

    monkeypatch.setattr(coboundary, "canonical_rows", spy)
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    delta_matrix(2, 0)
    delta_matrix(3, 0, mode=SymmetryMode.EDGE_RENUMBERING)
    assert len(seen) == 2
    for rows, reversals in seen:
        assert len(set(map(tuple, rows))) == len(rows) and not any(reversals)


@pytest.mark.parametrize(
    "mode, order, degree", [(SymmetryMode.LITERAL, 1, -1), (SymmetryMode.EDGE_RENUMBERING, 0, -4)]
)
def test_one_image_row_reached_with_either_flip_parity_matches_the_oracle(monkeypatch, mode, order, degree):
    """In these cells two contractions reach one labeled image row of a
    nonzero class with edge reversal counts of both parities, so one
    canonicalization serves terms of either sign; the entries still match
    the oracle."""
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    dm = delta_matrix(order, degree, mode=mode)
    v = dm.domain[0].skeleton.vertex_count
    parities: dict = {}
    for cls in dm.domain:
        for e in range(1, cls.skeleton.edge_count + 1):
            try:
                image, _ = contract_edge(cls.skeleton, e)
            except (NotRegular, DegenerateContraction):
                continue
            if not canonicalize(image, mode).is_zero:
                rows, reversals = canonical._rows_of([image], mode, canonical._perm_tables(v - 1))
                parities.setdefault(rows.tobytes(), set()).add(int(reversals[0]) % 2)
    assert {0, 1} in parities.values()
    row_of = {cls.skeleton.edges: r for r, cls in enumerate(dm.codomain)}
    expected = {
        (row_of[form], col): coeff
        for col, cls in enumerate(dm.domain)
        for form, coeff in oracles.delta_map(v, cls.skeleton.edges, mode.value).items()
    }
    assert expected and dm.entries == expected


# sha256 of the repr of test_delta_matrices_are_frozen's matrix list,
# recorded while delta_matrix still found its images by byte key.
FROZEN_DELTA_MATRICES = "431a16fc21627554eafd40ca365f2476bf754564efc6f0d2a327048d32e51839"


def test_delta_matrices_are_frozen():
    """Domain, codomain and sorted entries of delta on the 34 cells of the
    dimension-table sweeps (literal V <= 4, edge-renumbering V <= 6),
    connected or not."""
    cells = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "dimension_table.py"))["cells"]
    sweep = [(mode, cell) for mode, vmax in zip(MODES, (4, 6)) for cell in sorted(cells(vmax))]
    matrices = []
    for connected in (False, True):
        for mode, (order, degree) in sweep:
            dm = delta_matrix(order, degree, connected=connected, mode=mode)
            entries = sorted((r, c, v.numerator, v.denominator) for (r, c), v in dm.entries.items())
            matrices.append((mode.value, order, degree, connected, [cls.skeleton.edges for cls in dm.domain],
                             [cls.skeleton.edges for cls in dm.codomain], entries))
    assert len(matrices) == 68
    assert hashlib.sha256(repr(matrices).encode()).hexdigest() == FROZEN_DELTA_MATRICES


@pytest.mark.parametrize(
    "mode, order, degree", [(SymmetryMode.LITERAL, 2, 0), (SymmetryMode.EDGE_RENUMBERING, 3, 0)]
)
def test_delta_reads_the_same_from_a_cold_and_a_warm_memo(monkeypatch, mode, order, degree):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    dm = delta_matrix(order, degree, mode=mode)
    warm = coboundary._COLUMNS
    rng = random.Random(f"{mode.value} {order} {degree}")
    for _ in range(25):
        picks = rng.sample(range(len(dm.domain)), rng.randint(1, 6))
        c = Cochain({dm.domain[j]: rng.choice((-3, -2, -1, 1, 2, 3)) for j in picks})
        monkeypatch.setattr(coboundary, "_COLUMNS", {})
        cold = delta(c)
        monkeypatch.setattr(coboundary, "_COLUMNS", warm)
        assert delta(c) == cold
        columns = [(dm.codomain[r], c.coefficient(dm.domain[j]) * v) for (r, j), v in dm.entries.items()]
        assert cold == Cochain(columns)


@functools.cache
def matrix_and_kernel(mode, order, degree):
    dm = delta_matrix(order, degree, mode=mode)
    return dm, dm.kernel()


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


@pytest.mark.parametrize(
    "mode, order, degree", [(SymmetryMode.LITERAL, 2, 0), (SymmetryMode.EDGE_RENUMBERING, 2, -1)]
)
@given(data=st.data())
def test_delta_of_rational_cochains_matches_the_matrix(mode, order, degree, data):
    """delta of a cochain with mixed denominators, plus a multiple of a
    cocycle whose image must cancel, is the Fraction-weighted sum of the
    matrix columns; the cocycle part alone maps to zero."""
    dm, kernel = matrix_and_kernel(mode, order, degree)
    picks = data.draw(st.lists(st.integers(0, len(dm.domain) - 1), max_size=8, unique=True))
    terms = {j: data.draw(rationals) for j in picks}
    closed, t = kernel[data.draw(st.integers(0, len(kernel) - 1))], data.draw(rationals)
    for j, x in closed.items():
        terms[j] = terms.get(j, Fraction(0)) + t * x
    expected: dict = {}
    for (r, j), v in dm.entries.items():
        if j in terms:
            expected[dm.codomain[r]] = expected.get(dm.codomain[r], Fraction(0)) + terms[j] * v
    image = delta(Cochain({dm.domain[j]: q for j, q in terms.items()}))
    assert image.terms == {cls: q for cls, q in expected.items() if q}
    assert all(type(q) is Fraction for q in image.terms.values())
    assert delta(Cochain({dm.domain[j]: t * x for j, x in closed.items()})).is_zero


def test_delta_matrix_names_an_image_missing_from_the_codomain(monkeypatch):
    def without_first(order, degree, **kwargs):
        classes = enumeration.enumerate_grading(order, degree, **kwargs)
        return classes[1:] if degree == 1 else classes

    monkeypatch.setattr(coboundary, "enumerate_grading", without_first)
    with pytest.raises(AssertionError, match="missing from codomain basis"):
        delta_matrix(2, 0, mode=SymmetryMode.EDGE_RENUMBERING)


def test_column_memo_keeps_the_newest_classes_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    monkeypatch.setattr(coboundary, "_COLUMN_BOUND", 5)
    dm = delta_matrix(2, 0, mode=SymmetryMode.EDGE_RENUMBERING)
    assert list(coboundary._COLUMNS) == list(dm.domain[-5:])


def test_delta_reuses_the_columns_of_delta_matrix(monkeypatch):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    misses = canonical._canonicalize_cached.cache_info().misses
    dm = delta_matrix(3, 0, mode=SymmetryMode.EDGE_RENUMBERING)
    assert canonical._canonicalize_cached.cache_info().misses == misses

    def no_contraction(classes):
        raise AssertionError("delta contracted classes that delta_matrix had stored")

    monkeypatch.setattr(coboundary, "_images", no_contraction)
    image = delta(Cochain({cls: 1 for cls in dm.domain}))
    assert image == Cochain([(dm.codomain[r], v) for (r, _), v in dm.entries.items()])


def test_a_second_delta_matrix_reads_the_memo(monkeypatch):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    first = delta_matrix(3, 0, mode=SymmetryMode.EDGE_RENUMBERING)

    def no_contraction(classes):
        raise AssertionError("delta_matrix contracted classes the memo holds")

    monkeypatch.setattr(coboundary, "_images", no_contraction)
    second = delta_matrix(3, 0, mode=SymmetryMode.EDGE_RENUMBERING)
    assert second.entries == first.entries


def test_delta_contracts_only_the_classes_the_memo_lacks(monkeypatch):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    domain = enumeration.enumerate_grading(2, 0)
    delta(Cochain({cls: 1 for cls in domain[::2]}))
    calls, images = [], coboundary._images

    def spy(classes):
        calls.append(list(classes))
        return images(classes)

    monkeypatch.setattr(coboundary, "_images", spy)
    c = Cochain({cls: j + 1 for j, cls in enumerate(domain)})
    image = delta(c)
    assert len(calls) == 1
    assert sorted(calls[0], key=GraphClass.sort_key) == sorted(domain[1::2], key=GraphClass.sort_key)
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    assert delta(c) == image


def test_a_bounded_memo_still_gives_every_entry(monkeypatch):
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    expected = delta_matrix(2, 0, mode=SymmetryMode.EDGE_RENUMBERING).entries
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    monkeypatch.setattr(coboundary, "_COLUMN_BOUND", 5)
    for _ in range(2):  # cold, then with the 5 newest columns read back
        assert delta_matrix(2, 0, mode=SymmetryMode.EDGE_RENUMBERING).entries == expected
        assert len(coboundary._COLUMNS) == 5
    assert len(expected) > 5


def test_delta_of_a_class_from_a_refused_cell_never_enumerates(monkeypatch):
    with pytest.raises(BasisTooLarge):
        enumeration.enumerate_by_counts(6, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("delta enumerated a cell")

    monkeypatch.setattr(coboundary, "enumerate_grading", refuse)
    monkeypatch.setattr(enumeration, "enumerate_by_counts", refuse)
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    cls = canonicalize(new_graph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (2, 3), (5, 6), (2, 5)]))
    got = {c.skeleton.edges: v for c, v in delta(cls).terms.items()}
    assert len(got) == 8
    assert got == oracles.delta_map(6, cls.skeleton.edges, "literal")


# ---------------------------------------------------------------------------
# Elimination helpers.
# ---------------------------------------------------------------------------


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@given(
    st.lists(
        st.lists(small_fractions, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_elimination_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    reduced = rref(3, entries)
    expected = sympy.Matrix(rows)
    assert len(reduced) == expected.rank()
    # the RREF is unique: pivot columns and reduced rows match sympy's exactly
    form, pivots = expected.rref()
    assert tuple(reduced) == pivots
    for i, p in enumerate(pivots):
        row = reduced[p]
        assert [sympy.Rational(row.get(c, 0)) for c in range(3)] == list(form.row(i))
    kernel = kernel_basis(3, reduced)
    assert len(kernel) == 3 - expected.rank()
    for vec in kernel:
        for row in rows:
            assert sum(row[c] * v for c, v in vec.items()) == 0


def dense_rref(nrows, ncols, entries):
    """{pivot column: {column: value}} of the reduced row echelon form, by
    textbook dense Gauss-Jordan: the first row holding each column pivots."""
    m = [[Fraction(entries.get((r, c), 0)) for c in range(ncols)] for r in range(nrows)]
    pivots = []
    for c in range(ncols):
        at = len(pivots)
        p = next((r for r in range(at, nrows) if m[r][c]), None)
        if p is None:
            continue
        m[at], m[p] = m[p], m[at]
        m[at] = [x / m[at][c] for x in m[at]]
        for r in range(nrows):
            if r != at and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[at])]
        pivots.append(c)
    return {c: {k: x for k, x in enumerate(m[i]) if x} for i, c in enumerate(pivots)}


sparse_matrices = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 7)), small_fractions, max_size=24
)


@given(sparse_matrices)
def test_back_substituting_the_echelon_is_the_rref(entries):
    """Forward elimination leaves each pivot row nonzero at its pivot and
    empty to its left, on the pivot columns of the RREF; back substitution
    leaves it as it is and gives rows whose positive pivot entry divides
    them into the RREF, which rref returns, as textbook Gauss-Jordan does."""
    echelon = _forward_eliminate(8, entries)
    expected = dense_rref(6, 8, entries)
    assert list(echelon) == list(expected)
    assert all(min(row) == c and row[c] for c, row in echelon.items())
    before = {c: dict(row) for c, row in echelon.items()}
    reduced = _back_substitute(echelon)
    assert echelon == before
    assert list(reduced) == list(expected) and all(row[c] > 0 for c, row in reduced.items())
    assert {c: {k: Fraction(v, row[c]) for k, v in row.items()} for c, row in reduced.items()} == expected
    assert rref(8, entries) == expected


@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 7)), rationals, max_size=24))
def test_the_echelon_of_rational_entries_is_primitive_integer_rows(entries):
    """Whatever the denominators, each echelon row holds ints with no
    common factor and a positive pivot entry, on the RREF's pivot columns."""
    echelon = _forward_eliminate(8, entries)
    assert list(echelon) == list(dense_rref(6, 8, entries))
    for c, row in echelon.items():
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1 and row[c] > 0


def test_rank_of_an_integer_matrix_builds_no_fraction(monkeypatch):
    matrices = [delta_matrix(1, -2), delta_matrix(2, -1, mode=SymmetryMode.EDGE_RENUMBERING)]

    def refuse(*args):
        raise AssertionError("rank built a Fraction")

    monkeypatch.setattr(coboundary, "Fraction", refuse)
    assert [dm.rank() for dm in matrices] == [12, 15]


# ---------------------------------------------------------------------------
# Cocycles.
# ---------------------------------------------------------------------------


def test_theta_spans_the_connected_trivalent_cocycles_at_order_one():
    for mode in MODES:
        basis = cocycle_basis(1, 0, connected=True, mode=mode)
        assert len(basis) == 1
        (term,) = basis[0].terms.items()
        assert term[0].skeleton == theta_graph()
        assert term[1] == 1


def test_cocycles_are_closed():
    basis = cocycle_basis(2, 0, connected=True, mode=SymmetryMode.EDGE_RENUMBERING)
    assert len(basis) == 13
    for c in basis:
        assert delta(c).is_zero


# ---------------------------------------------------------------------------
# Text formats.
# ---------------------------------------------------------------------------


def test_matrix_format_round_trip():
    dm = delta_matrix(2, 0, connected=True, mode=SymmetryMode.EDGE_RENUMBERING)
    text = format_matrix(dm)
    assert "# rows 4 cols 17" in text
    parsed = parse_matrix(text)
    assert parsed == dm.entries


def test_cochain_format_round_trip():
    basis = list(
        delta_matrix(2, 0, connected=True, mode=SymmetryMode.EDGE_RENUMBERING).domain
    )
    index_of = {cls: i for i, cls in enumerate(basis)}
    c = Cochain({basis[0]: Fraction(3, 2), basis[5]: Fraction(-1)})
    text = format_cochain(c, index_of)
    assert parse_cochain(text, basis) == c


@pytest.mark.parametrize(
    "parse, line",
    [
        ("cochain", "1/1\tg0"),
        ("cochain", "1/1\tg2"),
        ("cochain", "1/1\tg9"),
        ("cochain", "1/1\tgx"),
        ("cochain", "1/1\tg"),
        ("cochain", "x\tg1"),
        ("cochain", "1/0\tg1"),
        ("matrix", "0 0 1/1"),
        ("matrix", "1 -2 1/1"),
        ("matrix", "1.5 1 1/1"),
        ("matrix", "a 1 1/1"),
        ("matrix", "1 1 q"),
    ],
)
def test_bad_indices_and_coefficients_are_format_errors(parse, line):
    """Every line is rejected with its line number, never read as another entry."""
    basis = [canonicalize(theta_graph())]
    with pytest.raises(FormatError, match="^line 2: "):
        if parse == "cochain":
            parse_cochain(f"1/1\tg1\n{line}\n", basis)
        else:
            parse_matrix(f"1 1 1/1\n{line}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("5 5 1/1", "index 5 is past the last of 4"),
        ("1 18 1/1", "index 18 is past the last of 17"),
        ("5 1 1/1", "index 5 is past the last of 4"),
    ],
)
def test_matrix_header_bounds_the_indices(line, message):
    """Under a `# rows R cols C` line an entry past R or C is refused on its own line."""
    text = f"# rows 4 cols 17\n1 1 1/1\n4 17 -1/2\n{line}\n"
    with pytest.raises(FormatError, match=f"^line 4: {message}$"):
        parse_matrix(text)
    assert parse_matrix(text.replace(f"{line}\n", "")) == {
        (0, 0): Fraction(1),
        (3, 16): Fraction(-1, 2),
    }
