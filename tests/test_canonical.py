"""Signed canonical forms: worked examples, oracle agreement, group laws."""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphcoh
import oracles
from graphcoh.canonical import (
    GraphClass,
    _perm_tables,
    _rows_of,
    _skeleton_from_row,
    canonical_rows,
    canonicalize,
    self_symmetries,
    transport_to_canonical,
)
from graphcoh.coboundary import Cochain, format_cochain, parse_cochain
from graphcoh.enumeration import enumerate_grading
from graphcoh.graphs import (
    EMPTY_GRAPH,
    GraphSkeleton,
    SymmetryMode,
    format_graphs,
    k4_graph,
    new_graph,
    parse_graphs,
    permutation_parity,
    relabel_vertices,
    renumber_edges,
    reverse_edges,
    theta_graph,
)
from test_graphs import permutations_of, skeletons

MODES = (SymmetryMode.LITERAL, SymmetryMode.EDGE_RENUMBERING)


def transported(g, perm, mode):
    """Apply a witness permutation, then the forced normalizations."""
    h = relabel_vertices(g, perm)
    flips = [k for k, (t, head) in enumerate(h.edges, start=1) if t > head]
    h = reverse_edges(h, flips)
    if mode is SymmetryMode.EDGE_RENUMBERING:
        order = sorted(range(len(h.edges)), key=lambda i: h.edges[i])
        eperm = [0] * len(h.edges)
        for new, old in enumerate(order, start=1):
            eperm[old] = new
        h = renumber_edges(h, eperm)
    return h, len(flips)


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------


def test_theta_is_its_own_canonical_form():
    cls = canonicalize(theta_graph(), SymmetryMode.LITERAL)
    assert cls.skeleton == theta_graph()
    assert cls.sign_state == 1
    assert not cls.is_zero


def test_reversed_theta_relates_with_sign_minus_one():
    g = new_graph(2, [(2, 1), (2, 1), (2, 1)])
    cls = canonicalize(g, SymmetryMode.LITERAL)
    assert cls.skeleton == theta_graph()
    assert cls.sign_state == -1


def test_double_edge_vanishes_in_both_modes():
    g = new_graph(2, [(1, 2), (1, 2)])
    for mode in MODES:
        cls = canonicalize(g, mode)
        assert cls.is_zero
        assert cls.sign_state == 0


def test_k4_is_its_own_canonical_form():
    cls = canonicalize(k4_graph(), SymmetryMode.LITERAL)
    assert cls.skeleton == k4_graph()
    assert cls.sign_state == 1


def test_empty_graph_canonicalizes_to_itself():
    for mode in MODES:
        cls = canonicalize(EMPTY_GRAPH, mode)
        assert cls.skeleton == EMPTY_GRAPH
        assert cls.sign_state == 1


# ---------------------------------------------------------------------------
# Agreement with the exhaustive oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(max_vertices=5, max_edges=5))
def test_canonical_form_and_sign_match_oracle(mode, g):
    form, sign = oracles.canonical_class(g.vertex_count, g.edges, mode.value)
    cls = canonicalize(g, mode)
    assert cls.skeleton.edges == form
    assert cls.sign_state == sign


@pytest.mark.parametrize("mode", MODES)
def test_oracle_agreement_is_exhaustive_on_three_vertices(mode):
    for e in (2, 3, 4):
        for edges in oracles.labeled_multigraphs(3, e):
            form, sign = oracles.canonical_class(3, edges, mode.value)
            cls = canonicalize(new_graph(3, edges), mode)
            assert cls.skeleton.edges == form
            assert cls.sign_state == sign


def assert_batch_matches_oracle(gs, mode):
    """canonical_rows on a stack of same-size skeletons agrees row by row
    with the oracle: canonical edges, zero verdict, and (nonzero classes,
    or any literal class) the witness sign."""
    v = gs[0].vertex_count
    tables = _perm_tables(v)
    best, witness, sign, zero = canonical_rows(tables, mode, *_rows_of(gs, mode, tables))
    for g, row, perm, s, z in zip(gs, best, witness, sign, zero):
        form, oracle_sign = oracles.canonical_class(v, g.edges, mode.value)
        assert _skeleton_from_row(v, row, mode, tables.pairs).edges == form
        assert bool(z) == (oracle_sign == 0)
        if not z:
            assert s == oracle_sign
        if mode is SymmetryMode.LITERAL:
            assert (form, tables.perms[perm], s) == oracles.canonical_witness(v, g.edges)


@pytest.mark.parametrize("mode", MODES)
@given(gs=st.lists(skeletons(max_vertices=5, max_edges=5), min_size=1, max_size=12))
def test_batched_canonical_forms_match_oracle(mode, gs):
    cells = {}
    for g in gs:
        cells.setdefault((g.vertex_count, g.edge_count), []).append(g)
    for stack in cells.values():
        assert_batch_matches_oracle(stack, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "gs",
    [
        [EMPTY_GRAPH],
        [new_graph(2, [(1, 2)]), new_graph(2, [(2, 1)])],
        [new_graph(2, [(1, 2), (2, 1), (1, 2)]), new_graph(2, [(1, 2), (1, 2), (1, 2)])],
        # a multiplicity past 255 needs two bytes per entry in the key
        [new_graph(3, [(1, 2)] * 300 + [(2, 3)] * 2 + [(1, 3)]),
         new_graph(3, [(2, 3)] * 2 + [(1, 3)] * 300 + [(2, 1)])],
        # and they must be big-endian: little-endian bytes put 255 above 256
        [new_graph(3, [(1, 2)] * 256 + [(2, 3)] * 255 + [(1, 3)])],
    ],
    ids=["empty", "one-edge", "two-vertex", "wide-multiplicity", "big-endian"],
)
def test_batched_canonical_forms_on_edge_cases(mode, gs):
    assert_batch_matches_oracle(gs, mode)


# ---------------------------------------------------------------------------
# Group laws.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons())
def test_canonicalize_is_idempotent(mode, g):
    first = canonicalize(g, mode)
    again = canonicalize(first.skeleton, mode)
    assert again.skeleton == first.skeleton
    assert again.sign_state == (0 if first.is_zero else 1)


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(), data=st.data())
def test_sign_multiplicativity_under_symmetries(mode, g, data):
    perm = data.draw(permutations_of(g.vertex_count))
    which = data.draw(st.lists(st.integers(1, g.edge_count), unique=True))
    h = reverse_edges(relabel_vertices(g, perm), which)
    if mode is SymmetryMode.EDGE_RENUMBERING:
        eperm = data.draw(permutations_of(g.edge_count))
        h = renumber_edges(h, eperm)
    applied = permutation_parity(perm) * (-1) ** len(which)
    a, b = canonicalize(g, mode), canonicalize(h, mode)
    assert a.skeleton == b.skeleton
    if a.is_zero:
        assert b.is_zero
    else:
        assert b.sign_state == a.sign_state * applied


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons())
def test_witness_transports_onto_the_canonical_skeleton(mode, g):
    cls, perm, wsign = transport_to_canonical(g, mode)
    moved, flips = transported(g, perm, mode)
    assert moved == cls.skeleton
    assert wsign == permutation_parity(perm) * (-1) ** flips
    if not cls.is_zero:
        assert wsign == canonicalize(g, mode).sign_state


def test_witness_is_defined_for_vanishing_classes():
    g = new_graph(2, [(1, 2), (1, 2)])
    cls, perm, wsign = transport_to_canonical(g, SymmetryMode.LITERAL)
    assert cls.is_zero
    assert wsign in (-1, 1)
    moved, _ = transported(g, perm, SymmetryMode.LITERAL)
    assert moved == cls.skeleton


# ---------------------------------------------------------------------------
# Self-symmetries.
# ---------------------------------------------------------------------------


def test_theta_self_symmetries_all_positive():
    syms = self_symmetries(theta_graph(), SymmetryMode.LITERAL)
    assert len(syms) == 2  # identity and the vertex swap (three flips)
    assert {sign for _, sign in syms} == {1}


def test_k4_self_symmetries():
    syms = self_symmetries(k4_graph(), SymmetryMode.LITERAL)
    assert ((1, 2, 3, 4), 1) in syms
    assert {sign for _, sign in syms} == {1}


def test_double_edge_has_an_odd_self_symmetry():
    syms = self_symmetries(new_graph(2, [(1, 2), (1, 2)]), SymmetryMode.LITERAL)
    assert ((2, 1), -1) in syms


def test_self_symmetries_reject_badly_oriented_input():
    with pytest.raises(ValueError):
        self_symmetries(new_graph(2, [(2, 1)]), SymmetryMode.LITERAL)


@pytest.mark.parametrize("mode", MODES)
@given(g=skeletons(max_vertices=4, max_edges=5))
def test_vanishing_iff_an_odd_self_symmetry_exists(mode, g):
    flips = [k for k, (t, h) in enumerate(g.edges, start=1) if t > h]
    oriented = reverse_edges(g, flips)
    signs = {sign for _, sign in self_symmetries(oriented, mode)}
    assert canonicalize(oriented, mode).is_zero == (-1 in signs)


# ---------------------------------------------------------------------------
# Plumbing.
# ---------------------------------------------------------------------------


def test_classes_hash_consistently():
    a = canonicalize(new_graph(2, [(2, 1), (2, 1), (2, 1)]), SymmetryMode.LITERAL)
    b = canonicalize(theta_graph(), SymmetryMode.LITERAL)
    assert a.basis_class() == b
    assert hash(a.basis_class()) == hash(b)
    assert len({a.basis_class(), b}) == 1


@pytest.mark.parametrize(
    "mode, order, degree", [(SymmetryMode.LITERAL, 2, 0), (SymmetryMode.EDGE_RENUMBERING, 2, -1)]
)
def test_equal_keys_hash_equal_by_every_route(mode, order, degree):
    """Skeletons, classes and cochains that are equal hash equal, however
    they were built: enumerated, read back from text, relabeled and
    canonicalized, or copied by dataclasses.replace."""
    classes = enumerate_grading(order, degree, mode=mode)
    parsed = parse_graphs(format_graphs([c.skeleton for c in classes]))
    reverse = list(range(classes[0].skeleton.vertex_count, 0, -1))
    for cls, g in zip(classes, parsed):
        as_lists = GraphSkeleton(g.vertex_count, [list(e) for e in g.edges])
        for skeleton in (g, as_lists):
            assert skeleton == cls.skeleton and hash(skeleton) == hash(cls.skeleton)
        relabeled = canonicalize(relabel_vertices(g, reverse), mode)
        for other in (
            relabeled.basis_class(),
            dataclasses.replace(relabeled, sign_state=1),
            GraphClass(g, 1, mode),
            pickle.loads(pickle.dumps(cls)),
        ):
            assert other == cls and hash(other) == hash(cls)
    basis = [canonicalize(g, mode) for g in parsed]  # the route the benchmark reads reports by
    index_of = {cls: k for k, cls in enumerate(classes)}
    c = Cochain({cls: k - 7 for k, cls in enumerate(classes[:15])})
    again = parse_cochain(format_cochain(c, index_of), basis)
    assert again == c and hash(again) == hash(c)


_PICKLE_PROBE = """
import pickle, sys
from graphcoh.canonical import GraphClass
from graphcoh.graphs import SymmetryMode, k4_graph

cls = GraphClass(k4_graph(), 1, SymmetryMode.EDGE_RENUMBERING)
if sys.argv[1] == "dump":
    print(hash(cls), pickle.dumps({cls: "found"}).hex())
else:
    print(hash(cls), pickle.loads(bytes.fromhex(sys.stdin.read())).get(cls))
"""


def test_class_hash_is_the_same_in_every_process():
    """A class pickled in one process is found in a dict by an equal class
    built in another, whose string hashes are seeded differently."""

    def probe(seed, action, stdin=""):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        source_root = str(Path(graphcoh.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (source_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _PICKLE_PROBE, action], input=stdin,
                              capture_output=True, text=True, env=env, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    here = hash(GraphClass(k4_graph(), 1, SymmetryMode.EDGE_RENUMBERING))
    dumped_hash, payload = probe("1", "dump")
    loaded_hash, found = probe("2", "load", payload)
    assert int(dumped_hash) == int(loaded_hash) == here
    assert found == "found"


def test_modes_kept_apart():
    lit = canonicalize(theta_graph(), SymmetryMode.LITERAL)
    ren = canonicalize(theta_graph(), SymmetryMode.EDGE_RENUMBERING)
    assert lit != ren
    assert lit.mode is SymmetryMode.LITERAL
    assert ren.mode is SymmetryMode.EDGE_RENUMBERING


def test_perm_tables_match_their_loop_definition():
    """The vectorised pair tables equal their per-(permutation, pair) definition."""
    for v in range(7):
        tables = _perm_tables(v)
        perms = list(itertools.permutations(range(1, v + 1)))
        pairs = [(u, w) for u in range(1, v + 1) for w in range(u + 1, v + 1)]
        assert tables.perms == perms and tables.pairs == pairs
        assert tables.parity.tolist() == [permutation_parity(perm) for perm in perms]
        pair_map, pair_flip = [], []
        for perm in perms:
            images = [(perm[u - 1], perm[w - 1]) for u, w in pairs]
            pair_flip.append([a > b for a, b in images])
            pair_map.append([pairs.index((min(a, b), max(a, b))) for a, b in images])
        inverse = [[row.index(pid) for pid in range(len(pairs))] for row in pair_map]
        for table, loop, dtype in (
            (tables.pair_map, pair_map, np.uint8),
            (tables.pair_flip, pair_flip, bool),
            (tables.pair_map_inv, inverse, np.uint8),
        ):
            assert table.dtype == dtype and table.shape == (len(perms), len(pairs))
            assert table.tolist() == loop
