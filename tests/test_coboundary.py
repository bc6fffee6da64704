"""Coboundary by contraction: signs, cochains, matrices, exact kernels."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh import canonical, coboundary, enumeration
from graphcoh.canonical import canonicalize
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


def test_rank_and_kernel_share_one_elimination(monkeypatch):
    calls = []

    def counting_rref(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(coboundary, "rref", counting_rref)
    dm = delta_matrix(1, -2, connected=False)
    assert (dm.rank(), len(dm.kernel())) == (12, 268)
    assert len(calls) == 1


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


def test_delta_of_a_class_from_a_refused_cell_never_enumerates(monkeypatch):
    with pytest.raises(BasisTooLarge):
        enumeration.enumerate_by_counts(6, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("delta enumerated a cell")

    monkeypatch.setattr(coboundary, "enumerate_grading", refuse)
    monkeypatch.setattr(enumeration, "enumerate_by_counts", refuse)
    monkeypatch.setattr(coboundary, "_COLUMNS", {})
    cls = canonicalize(new_graph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (2, 3)]))
    got = {c.skeleton.edges: v for c, v in delta(cls).terms.items()}
    assert len(got) == 3
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
