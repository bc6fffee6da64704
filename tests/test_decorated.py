"""Decorated graphs: evaluation, decorated coboundary, closure checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh.canonical import self_symmetries
from graphcoh.decorated import (
    DecoratedChain,
    _gram_norm,
    contract_decoration,
    decorate,
    decorate_uniform,
    delta_decorated,
    evaluate,
    format_decoration_lines,
    ihx_check,
    ihx_violation,
    is_cocycle_decorated,
    parse_decoration_lines,
)
from graphcoh.enumeration import enumerate_trivalent
from graphcoh.errors import (
    FormatError,
    MixedScalarKinds,
    NotAntisymmetric,
    ShapeMismatch,
    SlotOutOfRange,
)
from graphcoh.graphs import (
    SymmetryMode,
    k4_graph,
    new_graph,
    relabel_vertices,
    reverse_edges,
    theta_graph,
)
from graphcoh.tensors import (
    FLOAT,
    RATIONAL,
    Rad,
    direct_sum,
    eps_tensor,
    make_tensor,
    pairing,
    parse_tensor,
    radical,
    zero_tensor,
)
from test_graphs import permutations_of, skeletons

EPS = eps_tensor()


def eps_decorated(g):
    return decorate_uniform(g, EPS)


def random_rational_tensor(data, valence, dim):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-2, max_value=2),
            min_size=dim**valence,
            max_size=dim**valence,
        )
    )
    values = np.array(entries, dtype=object).reshape((dim,) * valence)
    return make_tensor(values.tolist())


def dense_from_sparse(entries, valence, dim):
    arr = np.full((dim,) * valence, Fraction(0), dtype=object)
    for idx, value in entries.items():
        arr[idx] = value
    return arr


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_decorate_checks_valences():
    with pytest.raises(ShapeMismatch):
        decorate(theta_graph(), [EPS, zero_tensor(2, 3)])


def test_decorate_checks_dimensions():
    with pytest.raises(ShapeMismatch):
        decorate(theta_graph(), [EPS, zero_tensor(3, 4)])


def test_decorate_checks_count():
    with pytest.raises(ShapeMismatch):
        decorate(theta_graph(), [EPS])


def test_decorated_grading():
    assert eps_decorated(theta_graph()).grading == (1, 0)
    assert eps_decorated(k4_graph()).grading == (2, 0)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def test_theta_evaluates_to_six():
    assert evaluate(eps_decorated(theta_graph())) == 6


def test_two_thetas_evaluate_to_thirty_six():
    two = new_graph(4, [(1, 2), (1, 2), (1, 2), (3, 4), (3, 4), (3, 4)])
    assert evaluate(eps_decorated(two)) == 36


def test_k4_evaluates_to_six():
    assert evaluate(eps_decorated(k4_graph())) == 6


def test_zero_decoration_evaluates_to_zero():
    g = theta_graph()
    assert evaluate(decorate(g, [EPS, zero_tensor(3, 3)])) == 0


def test_float_theta_evaluates_to_a_float():
    half = make_tensor((np.array(EPS.array, dtype=float) * 0.5).tolist(), label="half-eps")
    value = evaluate(decorate_uniform(theta_graph(), half))
    assert type(value) is float and value == 1.5


@given(g=skeletons(max_vertices=4, max_edges=4), data=st.data())
def test_evaluate_matches_the_loop_oracle(g, data):
    decs = [random_rational_tensor(data, valence, 2) for valence in g.valences()]
    dg = decorate(g, decs)
    expected = oracles.evaluate_loops(
        g.vertex_count, g.edges, [t.array for t in decs]
    )
    assert evaluate(dg) == expected


@given(g=skeletons(max_vertices=4, max_edges=4), data=st.data())
def test_evaluate_ignores_edge_orientations(g, data):
    decs = [random_rational_tensor(data, valence, 2) for valence in g.valences()]
    which = data.draw(st.lists(st.integers(1, g.edge_count), unique=True))
    flipped = reverse_edges(g, which)
    assert evaluate(decorate(g, decs)) == evaluate(decorate(flipped, decs))


@given(g=skeletons(max_vertices=4, max_edges=4), data=st.data())
def test_evaluate_commutes_with_relabeling(g, data):
    decs = [random_rational_tensor(data, valence, 2) for valence in g.valences()]
    perm = data.draw(permutations_of(g.vertex_count))
    h = relabel_vertices(g, perm)
    # Vertex v of g becomes vertex perm[v-1] of h and carries its tensor
    # along; edge numbers are untouched, so the slot order at each vertex
    # is preserved.
    moved = [None] * g.vertex_count
    for v in range(1, g.vertex_count + 1):
        moved[perm[v - 1] - 1] = decs[v - 1]
    assert evaluate(decorate(g, decs)) == evaluate(decorate(h, moved))


def test_evaluate_is_multiplicative_over_disjoint_unions():
    theta_value = evaluate(eps_decorated(theta_graph()))
    k4 = k4_graph()
    union_edges = [(1, 2), (1, 2), (1, 2)] + [(t + 2, h + 2) for t, h in k4.edges]
    union = new_graph(6, union_edges)
    assert evaluate(eps_decorated(union)) == theta_value * evaluate(eps_decorated(k4))


def test_eps_slot_alternation():
    """Swapping two slots of one vertex tensor flips the sign."""
    g = theta_graph()
    swapped = make_tensor(
        np.transpose(EPS.array, (1, 0, 2)).tolist(), label="eps-swapped"
    )
    assert evaluate(decorate(g, [EPS, swapped])) == -6
    cycled = make_tensor(
        np.transpose(EPS.array, (1, 2, 0)).tolist(), label="eps-cycled"
    )
    assert evaluate(decorate(g, [EPS, cycled])) == 6


# ---------------------------------------------------------------------------
# Decoration contraction.
# ---------------------------------------------------------------------------


def test_contract_decoration_worked_example():
    t = contract_decoration(EPS, EPS, 3, 1)
    assert t.valence == 4
    expected = oracles.contract_slots(EPS.array, EPS.array, 3, 1)
    got = {
        idx: t.array[idx]
        for idx in itertools.product(range(3), repeat=4)
        if t.array[idx] != 0
    }
    assert got == expected


def test_contract_decoration_with_identity():
    ident = make_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]], label="id")
    t = contract_decoration(ident, EPS, 2, 1)
    assert np.array_equal(t.array, EPS.array)


@given(data=st.data())
def test_contract_decoration_matches_loops(data):
    a = random_rational_tensor(data, 3, 2)
    b = random_rational_tensor(data, 2, 2)
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(1, 2))
    t = contract_decoration(a, b, k, l)
    expected = oracles.contract_slots(a.array, b.array, k, l)
    got = {
        idx: t.array[idx]
        for idx in itertools.product(range(2), repeat=3)
        if t.array[idx] != 0
    }
    assert got == expected


def test_contract_decoration_errors():
    with pytest.raises(ShapeMismatch):
        contract_decoration(EPS, zero_tensor(3, 4), 1, 1)
    with pytest.raises(SlotOutOfRange):
        contract_decoration(EPS, EPS, 4, 1)
    with pytest.raises(SlotOutOfRange):
        contract_decoration(EPS, EPS, 1, 0)
    with pytest.raises(ShapeMismatch):
        contract_decoration(make_tensor([1, 2]), make_tensor([3, 4]), 1, 1)


# One valence-3, dimension-2 tensor per scalar kind, entries indexed 0-based.
KIND_ENTRIES = {
    "rational": (RATIONAL, lambda i, j, k: Fraction(i + 2 * j - 3 * k, 1 + k)),
    "radical 5": (radical(5), lambda i, j, k: Rad(i - j, k + 1 - i, 5)),
    "radical 7": (radical(7), lambda i, j, k: Rad(j - k, i + 1, 7)),
    "float": (FLOAT, lambda i, j, k: (i - 2 * j + k) / 4 + 0.1),
}


@pytest.mark.parametrize(
    "first, second, unified",
    [
        ("rational", "radical 5", "radical 5"),
        ("rational", "float", "float"),
        ("radical 5", "radical 7", "float"),
    ],
)
def test_mixed_kinds_lift_to_the_unified_kind(first, second, unified):
    """pairing, direct_sum and contract_decoration of two kinds: the result
    has the unified kind, and its values are those of explicit loops."""
    kind = KIND_ENTRIES[unified][0]
    scalar = Rad if kind.name == "radical" else float

    def tensor(name):
        own, entry = KIND_ENTRIES[name]
        values = [[[entry(i, j, k) for k in range(2)] for j in range(2)] for i in range(2)]
        return make_tensor(values, kind=own, label=name)

    def value(name, idx):
        x = KIND_ENTRIES[name][1](*idx)
        return x if kind.is_exact else float(x)

    def check(got, want):
        assert isinstance(got, scalar)
        assert got == (want if kind.is_exact else pytest.approx(want))

    t1, t2 = tensor(first), tensor(second)
    check(pairing(t1, t2), sum(value(first, i) * value(second, i)
                               for i in itertools.product(range(2), repeat=3)))

    block = direct_sum(t1, t2)
    assert block.kind == kind
    for idx in itertools.product(range(4), repeat=3):
        if max(idx) < 2:
            want = value(first, idx)
        elif min(idx) >= 2:
            want = value(second, tuple(i - 2 for i in idx))
        else:
            want = 0
        check(block.array[idx], want)

    # slot 2 of t1 against slot 3 of t2: out[i, j, p, q] = sum_a t1[i, a, j] t2[p, q, a]
    merged = contract_decoration(t1, t2, 2, 3)
    assert merged.kind == kind
    for i, j, p, q in itertools.product(range(2), repeat=4):
        want = sum(value(first, (i, a, j)) * value(second, (p, q, a)) for a in range(2))
        check(merged.array[i, j, p, q], want)


# Exact tensors are stored as integer numerators over one denominator and
# contracted by integer tensordots; these draws push both past int64.
BIG = 2**68
SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def kernel_tensor(data, name, valence, d):
    """A dimension-2 tensor: rational with denominators 2, 4 or 8 over odd
    numerators above 2**68, or radical d with small rational parts."""
    n = 2**valence
    if name == "rational":
        draws = data.draw(st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.integers(0, 2**20), st.integers(1, 3)),
            min_size=n, max_size=n,
        ))
        values, kind = [s * Fraction(BIG + 2 * k + 1, 2**j) for s, k, j in draws], RATIONAL
    else:
        draws = data.draw(st.lists(st.tuples(SMALL, SMALL), min_size=n, max_size=n))
        values, kind = [Rad(a, b, d) for a, b in draws], radical(d)
    arr = np.empty(n, dtype=object)
    arr[:] = values
    return make_tensor(arr.reshape((2,) * valence), kind=kind, label=name)


@given(
    data=st.data(),
    names=st.sampled_from(
        [("rational", "rational"), ("radical", "radical"), ("rational", "radical"),
         ("radical", "rational")]
    ),
    d=st.sampled_from([2, 3, 5]),
)
def test_integer_kernels_match_the_oracles(data, names, d):
    """contract_decoration, pairing and evaluate on rational tensors past
    2**64, radical d tensors and mixed pairs: the values of the loop
    oracles, as Fraction (rational) or Rad (radical) scalars."""
    kind = radical(d) if "radical" in names else RATIONAL
    scalar = Rad if "radical" in names else Fraction
    a, b = kernel_tensor(data, names[0], 3, d), kernel_tensor(data, names[1], 2, d)
    k, l = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    merged = contract_decoration(a, b, k, l)
    assert merged.kind == kind
    got = {
        idx: merged.array[idx]
        for idx in itertools.product(range(2), repeat=3)
        if merged.array[idx] != 0
    }
    assert got == oracles.contract_slots(a.array, b.array, k, l)
    assert all(isinstance(x, scalar) for x in merged.array.ravel())
    with pytest.raises(ValueError):
        merged.array[0, 0, 0] = 0

    c = kernel_tensor(data, names[1], 3, d)
    value = pairing(a, c)
    assert isinstance(value, scalar)
    assert value == sum(x * y for x, y in zip(a.array.ravel().tolist(), c.array.ravel().tolist()))

    g = data.draw(skeletons(max_vertices=3, max_edges=4))
    decs = [kernel_tensor(data, names[v % 2], val, d) for v, val in enumerate(g.valences())]
    value = evaluate(decorate(g, decs))
    assert isinstance(value, Rad if any(t.kind.name == "radical" for t in decs) else Fraction)
    assert value == oracles.evaluate_loops(g.vertex_count, g.edges, [t.array for t in decs])


def test_radical_evaluation_scales_by_c_to_the_vertex_count():
    """evaluate is multilinear, so c*eps with c = a + b sqrt(d) at every vertex
    of a V-vertex trivalent graph gives c**V times the eps value; c**V is
    computed here by repeated (x + y sqrt d)(a + b sqrt d)."""
    a, b, d = Fraction(2, 3), Fraction(-5, 4), 3
    scaled = make_tensor((EPS.array * Rad(a, b, d)).tolist(), kind=radical(d), label="c-eps")
    for order in (1, 2):
        for cls in enumerate_trivalent(order, connected=False, mode=SymmetryMode.LITERAL):
            g = cls.skeleton
            x, y = Fraction(1), Fraction(0)
            for _ in range(g.vertex_count):
                x, y = x * a + y * b * d, x * b + y * a
            value = evaluate(decorate_uniform(g, scaled))
            base = evaluate(eps_decorated(g))
            assert isinstance(value, Rad) and value.d == d
            assert (value.a, value.b) == (base * x, base * y), g.edges


# ---------------------------------------------------------------------------
# Decorated coboundary.
# ---------------------------------------------------------------------------

# Contracting edge e of the complete graph on four vertices, for e = 1..6,
# in the fixed edge order ((1,2),(1,3),(1,4),(2,3),(2,4),(3,4)).
K4_DECORATED_DELTA_GOLDEN = [
    (1, ((1, 2), (1, 3), (1, 2), (1, 3), (2, 3))),
    (-1, ((1, 2), (1, 3), (2, 1), (2, 3), (1, 3))),
    (1, ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1))),
    (-1, ((1, 2), (1, 2), (1, 3), (2, 3), (2, 3))),
    (1, ((1, 2), (1, 3), (1, 2), (2, 3), (3, 2))),
    (1, ((1, 2), (1, 3), (1, 3), (2, 3), (2, 3))),
]


def test_delta_decorated_theta_is_empty():
    assert delta_decorated(eps_decorated(theta_graph())).is_empty


def test_delta_decorated_k4_terms():
    chain = delta_decorated(eps_decorated(k4_graph()))
    got = [(coeff, dg.skeleton.edges) for coeff, dg in chain.terms]
    assert got == K4_DECORATED_DELTA_GOLDEN


def test_delta_decorated_k4_tensors_match_the_loop_oracle():
    k4 = k4_graph()
    chain = delta_decorated(eps_decorated(k4))
    assert len(chain.terms) == 6
    for e, (coeff, dg) in enumerate(chain.terms, start=1):
        i, j = k4.edges[e - 1]
        k_slot = list(k4.incident_edges(i)).index(e) + 1
        l_slot = list(k4.incident_edges(j)).index(e) + 1
        merged = oracles.contract_slots(EPS.array, EPS.array, k_slot, l_slot)
        # The merged tensor's raw slots are i's remaining half-edges then
        # j's; the term realigns them to ascending edge order.
        raw_order = [x for x in k4.incident_edges(i) if x != e] + [
            x for x in k4.incident_edges(j) if x != e
        ]
        axes = [raw_order.index(x) for x in sorted(raw_order)]
        expected = np.transpose(dense_from_sparse(merged, 4, 3), axes)
        lo = min(i, j)
        assert np.array_equal(dg.decorations[lo - 1].array, expected)
        for other in range(1, 4):
            if other != lo:
                assert np.array_equal(dg.decorations[other - 1].array, EPS.array)


def test_delta_decorated_terms_preserve_the_full_contraction():
    """Pre-contracting one edge never changes the total evaluation."""
    k4 = k4_graph()
    full = evaluate(eps_decorated(k4))
    for _, dg in delta_decorated(eps_decorated(k4)).terms:
        assert evaluate(dg) == full


def test_delta_decorated_rejects_degenerate_collapse():
    g = new_graph(2, [(1, 2)])
    vec = make_tensor([1, 2])
    with pytest.raises(ShapeMismatch):
        delta_decorated(decorate(g, [vec, vec]))


@given(g=skeletons(), data=st.data())
def test_delta_decorated_matches_the_oracle_with_distinct_vertex_tensors(g, data):
    """Every vertex carries its own random rational tensor, so a term that
    puts a decoration on the wrong vertex shows in the comparison."""
    dim = 2
    tensors = []
    for u, valence in enumerate(g.valences(), start=1):
        entries = data.draw(
            st.lists(
                st.fractions(-3, 3, max_denominator=4),
                min_size=dim**valence,
                max_size=dim**valence,
            )
        )
        entries[0] = Fraction(u)  # no two vertices share a tensor
        values = np.array(entries, dtype=object).reshape((dim,) * valence)
        tensors.append(make_tensor(values.tolist(), label=f"v{u}"))
    dg = decorate(g, tensors)
    val = g.valences()
    if any(val[t - 1] == val[h - 1] == 1 for t, h in g.edges):
        with pytest.raises(ShapeMismatch):
            delta_decorated(dg)
        return
    expected = oracles.decorated_delta(
        Fraction(1), g.vertex_count, g.edges, [t.array for t in tensors]
    )
    got = delta_decorated(dg).terms
    assert len(got) == len(expected)
    for (coeff, h), (c, v, edges, arrays) in zip(got, expected):
        assert (coeff, h.skeleton.vertex_count, h.skeleton.edges) == (c, v, edges)
        for t, a in zip(h.decorations, arrays, strict=True):
            assert t.array.shape == a.shape and np.array_equal(t.array, a)


def test_decorated_delta_squared_vanishes_on_trivalent_graphs():
    for m in (1, 2):
        for cls in enumerate_trivalent(m, connected=False, mode=SymmetryMode.LITERAL):
            chain = delta_decorated(eps_decorated(cls.skeleton))
            assert is_cocycle_decorated(chain)


# ---------------------------------------------------------------------------
# Cocycle verdicts.
# ---------------------------------------------------------------------------


def test_theta_alone_is_closed():
    chain = DecoratedChain([(Fraction(1), eps_decorated(theta_graph()))])
    assert is_cocycle_decorated(chain)


def test_k4_alone_is_not_closed():
    chain = DecoratedChain([(Fraction(1), eps_decorated(k4_graph()))])
    assert not is_cocycle_decorated(chain)


def test_k4_non_closure_confirmed_by_full_expansion():
    """Independent route: the outer-product oracle expands the six
    contraction terms of the complete graph over raw labeled graphs; at
    least one skeleton group must survive."""
    k4 = k4_graph()
    term = (Fraction(1), 4, k4.edges, [EPS.array] * 4)
    assert not oracles.decorated_closure([term])


def test_jacobi_combination_of_contractions_vanishes():
    t_i = contract_decoration(EPS, EPS, 3, 1).array
    t_h = np.transpose(t_i, (0, 2, 1, 3))
    t_x = np.transpose(t_i, (0, 2, 3, 1))
    combo = t_i - t_h + t_x
    assert all(x == 0 for x in combo.ravel())


def test_empty_chain_is_closed():
    assert is_cocycle_decorated(DecoratedChain([]))


# A theta on {1, 2} beside a K4 on {3..6}.  Swapping the theta's ends is a
# self-symmetry of sign +1, so (G, D) minus (G, D with the theta's two
# tensors swapped) is the zero chain, whatever the tensors.
THETA_K4 = new_graph(6, [(1, 2)] * 3 + [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])


def theta_swap_chain(decs):
    swapped = [decs[1], decs[0], *decs[2:]]
    return DecoratedChain([(Fraction(1), decorate(THETA_K4, decs)), (Fraction(-1), decorate(THETA_K4, swapped))])


def seeded_rational_tensors(count, seed):
    """count seeded random rational tensors of valence 3 and dim 2."""
    rng = np.random.default_rng(seed)
    return [
        make_tensor(np.array([Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(8)],
                             dtype=object).reshape(2, 2, 2).tolist())
        for _ in range(count)
    ]


def test_swapping_equal_theta_tensors_is_closed():
    assert ((2, 1, 3, 4, 5, 6), 1) in self_symmetries(THETA_K4)
    decs = seeded_rational_tensors(6, 20261019)
    assert is_cocycle_decorated(theta_swap_chain([decs[0], decs[0], *decs[2:]]))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 1: closure groups terms by canonical skeleton but does not "
    "project onto the invariants of the skeleton's self-symmetries"))
def test_swapping_distinct_theta_tensors_is_closed():
    assert is_cocycle_decorated(theta_swap_chain(seeded_rational_tensors(6, 20261019)))


def test_mixed_scalar_kinds_need_a_tolerance():
    g = theta_graph()
    exact = eps_decorated(g)
    floaty = decorate_uniform(
        g,
        make_tensor(
            [
                [[float(EPS.entry(a, b, c)) for c in (1, 2, 3)] for b in (1, 2, 3)]
                for a in (1, 2, 3)
            ],
            label="eps-float",
        ),
    )
    chain = DecoratedChain([(Fraction(1), exact), (Fraction(1), floaty)])
    with pytest.raises(MixedScalarKinds):
        is_cocycle_decorated(chain)
    assert is_cocycle_decorated(chain, tolerance=1e-9)


# ---------------------------------------------------------------------------
# Closure verdicts against the outer-product oracle, floats, reach.
# ---------------------------------------------------------------------------

# Order-2 trivalent skeletons in literal mode: two thetas (no regular
# edge), two numberings of the graph with two double edges (2 coboundary
# terms) and a numbering of the complete graph (6 terms).
ORDER2_SKELETONS = [
    ((1, 2), (1, 2), (1, 2), (3, 4), (3, 4), (3, 4)),
    ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)),
    ((1, 2), (3, 4), (1, 2), (1, 3), (3, 4), (2, 4)),
    ((1, 2), (1, 3), (2, 4), (3, 4), (2, 3), (1, 4)),
]


def random_antisymmetric_tensor(dim, seed):
    """Seeded rational 3-form: one random entry per 3-subset, alternated."""
    rng = np.random.default_rng(seed)
    arr = np.full((dim,) * 3, Fraction(0), dtype=object)
    for triple in itertools.combinations(range(dim), 3):
        value = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        for perm in itertools.permutations(range(3)):
            sign = oracles.perm_parity([p + 1 for p in perm])
            arr[tuple(triple[p] for p in perm)] = sign * value
    return make_tensor(arr.tolist(), label=f"random{dim}")


CLOSURE_TENSORS = {
    "eps": EPS,
    "radical": make_tensor(
        (EPS.array * Rad(0, Fraction(3, 2), 2)).tolist(), kind=radical(2), label="r2-eps"
    ),
    # dimension 4, so not a multiple of eps
    "random": random_antisymmetric_tensor(4, 20261018),
}


def closure_cases():
    order1 = [cls.skeleton.edges for cls in enumerate_trivalent(1, mode=SymmetryMode.LITERAL)]
    return [
        (name, edges)
        for name in CLOSURE_TENSORS
        for edges in order1 + ORDER2_SKELETONS
    ]


def test_closure_verdicts_match_the_outer_product_oracle():
    """Single-graph, delta^2 and two-graph closure verdicts agree with
    oracles.decorated_closure."""
    verdicts = []
    for name, edges in closure_cases():
        t = CLOSURE_TENSORS[name]
        g = new_graph(len({v for e in edges for v in e}), edges)
        dg = decorate_uniform(g, t)
        term = (Fraction(1), g.vertex_count, g.edges, [t.array] * g.vertex_count)
        single = is_cocycle_decorated(DecoratedChain([(Fraction(1), dg)]))
        assert single == oracles.decorated_closure([term]), (name, edges)
        squared = is_cocycle_decorated(delta_decorated(dg))
        assert squared == oracles.decorated_closure(oracles.decorated_delta(*term)), (
            name,
            edges,
        )
        verdicts += [single, squared]
    # two decorations of one skeleton that differ at one vertex
    doubled = make_tensor((2 * EPS.array).tolist(), label="2eps")
    for edges in ORDER2_SKELETONS:
        g = new_graph(4, edges)
        chain = [(Fraction(1), [EPS] * 4), (Fraction(-1), [EPS, EPS, EPS, doubled])]
        got = is_cocycle_decorated(DecoratedChain([(c, decorate(g, ts)) for c, ts in chain]))
        terms = [(c, 4, g.edges, [t.array for t in ts]) for c, ts in chain]
        assert got == oracles.decorated_closure(terms), edges
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def seeded_gram_group(rng, radicand):
    """Members (c_k, tensors at each vertex) on one random list of valences,
    dim 2, with mixed denominators; under a radicand each tensor is rational
    or radical at random, and a member's negation may join the group."""
    def q():
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))

    def tensor(valence):
        if radicand and rng.random() < 0.5:
            values, kind = [Rad(q(), q(), radicand) for _ in range(2**valence)], radical(radicand)
        else:
            values, kind = [q() for _ in range(2**valence)], RATIONAL
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return make_tensor(arr.reshape((2,) * valence), kind=kind)

    valences = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    members = [(q() or Fraction(1), tuple(tensor(v) for v in valences)) for _ in range(int(rng.integers(1, 5)))]
    if rng.random() < 0.3:
        members.append((-members[0][0], members[0][1]))
    return members


def test_gram_norm_is_the_sum_of_pairings_exactly():
    """_gram_norm's rational and sqrt(d) parts are those of
    sum_{k,l} c_k c_l prod_v pairing(T_kv, T_lv), on 400 seeded groups."""
    rng = np.random.default_rng(20261019)
    cancelled = 0
    for i in range(400):
        radicand = 2 if i % 2 else None
        members = seeded_gram_group(rng, radicand)
        want = sum(
            ck * cl * math.prod(pairing(a, b) for a, b in zip(dk, dl))
            for ck, dk in members
            for cl, dl in members
        )
        want = (want.a, want.b) if isinstance(want, Rad) else (want, 0)
        got = _gram_norm(members, radicand)
        assert got == want and all(type(x) is Fraction for x in got), i
        cancelled += got == (0, 0)
    assert cancelled > 10


def float_copy(t, nudge=0.0):
    arr = np.array(t.array, dtype=float)
    arr[0, 1, 2] += nudge
    return make_tensor(arr.tolist(), label=f"{t.label}-float")


def test_float_eps_keeps_the_exact_verdicts():
    floaty = float_copy(EPS)
    for edges in ORDER2_SKELETONS:
        g = new_graph(4, edges)
        for chain_of in (
            lambda t: DecoratedChain([(Fraction(1), decorate_uniform(g, t))]),
            lambda t: delta_decorated(decorate_uniform(g, t)),
        ):
            exact = is_cocycle_decorated(chain_of(EPS))
            assert is_cocycle_decorated(chain_of(floaty), tolerance=1e-12) == exact


def test_float_closure_stays_entrywise():
    """A 1e-9 residue is rejected at tolerance 1e-12, although its squared
    norm (about 1e-18) would pass a norm test at that tolerance."""
    g = k4_graph()
    floaty = float_copy(EPS)

    def difference(t):
        return DecoratedChain(
            [(Fraction(1), decorate_uniform(g, floaty)), (Fraction(-1), decorate_uniform(g, t))]
        )

    assert is_cocycle_decorated(difference(floaty), tolerance=1e-12)
    assert not is_cocycle_decorated(difference(float_copy(EPS, 1e-9)), tolerance=1e-12)
    assert is_cocycle_decorated(difference(float_copy(EPS, 1e-9)), tolerance=1e-6)


def test_perturbed_jacobi_delta_squared_closes_on_order_two_skeletons():
    """delta^2 = 0 for any decoration, here a dimension-6 tensor.  As outer
    products each delta^2 term has 6^8 entries and each term of delta K4
    6^10."""
    import importlib.resources as resources

    text = (
        resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt").read_text()
    )
    tensor = parse_tensor(text, label="perturbed")
    for edges in ORDER2_SKELETONS:
        dg = decorate_uniform(new_graph(4, edges), tensor)
        assert is_cocycle_decorated(delta_decorated(dg)), edges
    assert not is_cocycle_decorated(
        DecoratedChain([(Fraction(1), decorate_uniform(k4_graph(), tensor))])
    )


# ---------------------------------------------------------------------------
# The contracted-pair identity.
# ---------------------------------------------------------------------------


def test_ihx_check_accepts_eps_and_blocks():
    assert ihx_check(EPS)
    assert ihx_check(direct_sum(EPS, EPS))


def test_ihx_check_rejects_the_stored_counterexample():
    import importlib.resources as resources

    text = (
        resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt").read_text()
    )
    tensor = parse_tensor(text, label="perturbed")
    assert not ihx_check(tensor)
    witness = ihx_violation(tensor)
    assert witness == (2, 3, 4, 5)
    assert witness == oracles.ihx_defect(tensor.array)


def test_ihx_violation_matches_oracle_on_random_antisymmetrized_tensors():
    # Dimension 5: every 3-form in dimension <= 4 happens to satisfy the
    # identity (it is a rotation of su(2) (+) abelian structure constants),
    # so smaller dimensions cannot exercise the violation path.
    rng = np.random.default_rng(20817)
    hits = 0
    for _ in range(6):
        raw = rng.integers(-2, 3, size=(5, 5, 5))
        anti = np.zeros((5, 5, 5), dtype=object)
        for idx in itertools.product(range(5), repeat=3):
            total = Fraction(0)
            for perm, sgn in (
                ((0, 1, 2), 1),
                ((1, 2, 0), 1),
                ((2, 0, 1), 1),
                ((1, 0, 2), -1),
                ((0, 2, 1), -1),
                ((2, 1, 0), -1),
            ):
                total += sgn * Fraction(int(raw[tuple(idx[p] for p in perm)]))
            anti[idx] = total
        t = make_tensor(anti.tolist())
        got = ihx_violation(t)
        expected = oracles.ihx_defect(t.array)
        assert got == expected
        hits += got is not None
    assert hits > 0  # random antisymmetric tensors generically fail


def test_ihx_check_requires_antisymmetry():
    ones = make_tensor([[[1] * 2 for _ in range(2)] for _ in range(2)])
    with pytest.raises(NotAntisymmetric):
        ihx_check(ones)


# ---------------------------------------------------------------------------
# Decoration files.
# ---------------------------------------------------------------------------


def test_decoration_lines_round_trip():
    refs = {1: "eps", 2: "eps"}
    text = format_decoration_lines(refs)
    assert parse_decoration_lines(text) == refs


def test_decoration_lines_reject_duplicates():
    with pytest.raises(FormatError):
        parse_decoration_lines("vertex 1 tensor eps\nvertex 1 tensor eps\n")


def test_decoration_lines_reject_junk():
    with pytest.raises(FormatError):
        parse_decoration_lines("vertex one tensor eps\n")
