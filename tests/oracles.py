"""Brute-force reference implementations used to cross-check the package.

Everything here recomputes results from first principles with explicit
loops over small search spaces, trading speed for obviousness.  The test
modules compare the package's optimized code paths against these.  Graphs
are passed around as plain ``(vertex_count, edges)`` data and tensors as
numpy object arrays — nothing in this module imports the package under
test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Signed graph classes.
# ---------------------------------------------------------------------------


def perm_parity(perm):
    """Sign of a permutation given as a sequence of 1-based images."""
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def relabelings(vertex_count, edges, mode):
    """``(perm, row, sign)`` for every vertex permutation, in lexicographic order.

    ``row`` is the edge tuple the permutation reaches with every edge
    oriented tail < head (sorted in edge-renumbering mode) and ``sign`` is
    the permutation's parity times -1 per edge it reverses.
    """
    renumber = mode == "edge-renumbering"
    for perm in itertools.permutations(range(1, vertex_count + 1)):
        mapped = [(perm[t - 1], perm[h - 1]) for t, h in edges]
        flips = sum(1 for t, h in mapped if t > h)
        row = tuple((t, h) if t < h else (h, t) for t, h in mapped)
        if renumber:
            row = tuple(sorted(row))
        yield perm, row, perm_parity(perm) * (-1) ** flips


def canonical_class(vertex_count, edges, mode):
    """``(canonical edge tuple, sign)`` with sign 0 when the class vanishes.

    Exhausts all vertex permutations.  Reorienting an edge costs a factor
    -1 and strictly changes the stored pair, so the lexicographic minimum
    is always reached with every edge oriented tail < head and the
    reversal count forced by the permutation.  In edge-renumbering mode
    the edge order is quotiented out without a sign, so rows compare as
    sorted lists.  The class vanishes exactly when two transforms reach
    the same minimal row with opposite signs.
    """
    best = None
    best_signs = set()
    for _, row, sign in relabelings(vertex_count, edges, mode):
        if best is None or row < best:
            best, best_signs = row, {sign}
        elif row == best:
            best_signs.add(sign)
    if len(best_signs) == 2:
        return best, 0
    return best, best_signs.pop()


def canonical_witness(vertex_count, edges):
    """Literal canonical edge tuple, the first permutation reaching it, and
    that permutation's own sign (well defined even for vanishing classes)."""
    perm, row, sign = min(
        relabelings(vertex_count, edges, "literal"), key=lambda r: r[1]
    )
    return row, perm, sign


def is_connected(vertex_count, edges):
    if vertex_count == 0:
        return True
    parent = list(range(vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in edges:
        parent[find(t)] = find(h)
    return len({find(v) for v in range(1, vertex_count + 1)}) == 1


def labeled_multigraphs(vertex_count, edge_count):
    """Every loop-free labeled multigraph as an ordered tuple of edges.

    Edges are drawn with repetition from the unordered vertex pairs and
    every edge ordering (numbering) of each multiset is emitted, each
    pair oriented tail < head.  Graphs leaving some vertex untouched are
    skipped; reversed orientations are redundant for class enumeration
    because a reversal changes a class only by a sign.
    """
    pairs = [
        (a, b)
        for a in range(1, vertex_count + 1)
        for b in range(a + 1, vertex_count + 1)
    ]
    for combo in itertools.combinations_with_replacement(pairs, edge_count):
        touched = set()
        for t, h in combo:
            touched.add(t)
            touched.add(h)
        if len(touched) != vertex_count:
            continue
        yield from set(itertools.permutations(combo))


def enumerate_classes(vertex_count, edge_count, mode, connected=None):
    """Sorted canonical forms of all nonvanishing classes in one cell."""
    if mode == "edge-renumbering":
        # Edge order never affects a sorted row, so one ordering per
        # multiset of pairs suffices.
        source = (
            seq
            for seq in itertools.combinations_with_replacement(
                (
                    (a, b)
                    for a in range(1, vertex_count + 1)
                    for b in range(a + 1, vertex_count + 1)
                ),
                edge_count,
            )
            if len({v for e in seq for v in e}) == vertex_count
        )
    else:
        source = labeled_multigraphs(vertex_count, edge_count)
    seen = {}
    for edges in source:
        form, sign = canonical_class(vertex_count, edges, mode)
        if form not in seen:
            seen[form] = (sign == 0, is_connected(vertex_count, edges))
    out = []
    for form, (vanishes, conn) in seen.items():
        if vanishes:
            continue
        if connected is not None and conn != connected:
            continue
        out.append(form)
    return sorted(out)


# ---------------------------------------------------------------------------
# Coboundary by edge contraction.
# ---------------------------------------------------------------------------


def contraction_sign(i, j):
    return (-1) ** j if j > i else (-1) ** (i + 1)


def contract(vertex_count, edges, e):
    """Contract edge ``e`` (1-based); returns ``(V - 1, new edges, sign)``.

    Derived independently of the package: the merged vertex keeps the
    smaller endpoint label and the remaining labels are re-ranked in
    increasing order, which reproduces "labels above the larger endpoint
    shift down by one".
    """
    i, j = edges[e - 1]
    lo, hi = min(i, j), max(i, j)
    survivors = [v for v in range(1, vertex_count + 1) if v != hi]
    rank = {v: r for r, v in enumerate(survivors, start=1)}
    rank[hi] = rank[lo]
    new_edges = tuple(
        (rank[t], rank[h])
        for k, (t, h) in enumerate(edges, start=1)
        if k != e
    )
    return vertex_count - 1, new_edges, contraction_sign(i, j)


def regular_edge_indices(edges):
    """Edges whose endpoint pair carries no parallel partner."""
    counts = {}
    for t, h in edges:
        key = frozenset((t, h))
        counts[key] = counts.get(key, 0) + 1
    return [
        k
        for k, (t, h) in enumerate(edges, start=1)
        if counts[frozenset((t, h))] == 1
    ]


def valence(vertex_count, edges, v):
    return sum(1 for t, h in edges if v in (t, h))


def delta_map(vertex_count, edges, mode):
    """Coboundary of one graph as ``{canonical form: coefficient}``.

    A contraction collapsing an edge between two valence-1 vertices would
    leave an isolated vertex, which is not a graph of the complex; such
    terms contribute zero.  Contractions landing on vanishing classes are
    dropped, everything else is accumulated with the contraction sign
    times the sign relating the contracted graph to its canonical form.
    """
    acc = {}
    for e in regular_edge_indices(edges):
        i, j = edges[e - 1]
        if valence(vertex_count, edges, i) == 1 and valence(vertex_count, edges, j) == 1:
            continue
        v2, edges2, sign = contract(vertex_count, edges, e)
        form, rel = canonical_class(v2, edges2, mode)
        if rel == 0:
            continue
        acc[form] = acc.get(form, Fraction(0)) + Fraction(sign * rel)
    return {k: v for k, v in acc.items() if v != 0}


# ---------------------------------------------------------------------------
# Spin decompositions by weight counting.
# ---------------------------------------------------------------------------


def weight_counts(doubled_spins):
    """Multiplicity of each doubled weight in a product of irreducibles."""
    counts = {0: 1}
    for two_j in doubled_spins:
        step = {}
        for w, c in counts.items():
            for m in range(-two_j, two_j + 1, 2):
                step[w + m] = step.get(w + m, 0) + c
        counts = step
    return counts


def spin_multiplicities(doubled_spins):
    """``{doubled spin: multiplicity}`` recovered from weight counts."""
    counts = weight_counts(doubled_spins)
    out = {}
    for tw in range(max(counts), -1, -2):
        mult = counts.get(tw, 0) - counts.get(tw + 2, 0)
        if mult:
            out[tw] = mult
    return out


def trivial_count(doubled_spins):
    counts = weight_counts(doubled_spins)
    return counts.get(0, 0) - counts.get(2, 0)


# ---------------------------------------------------------------------------
# Tensor contractions by explicit loops.
# ---------------------------------------------------------------------------


def evaluate_loops(vertex_count, edges, arrays):
    """Contract every edge with the orthonormal pairing, by explicit loops.

    ``arrays[v - 1]`` indexes vertex ``v``; its k-th axis corresponds to
    the k-th incident edge of ``v`` in increasing edge order.  One
    summation index runs over each edge; the result is the sum over all
    index assignments of the product of the picked entries.
    """
    if vertex_count == 0:
        return Fraction(1)
    incident = {
        v: [k for k, (t, h) in enumerate(edges, start=1) if v in (t, h)]
        for v in range(1, vertex_count + 1)
    }
    dim = arrays[0].shape[0]
    total = 0
    for assign in itertools.product(range(dim), repeat=len(edges)):
        prod = 1
        for v in range(1, vertex_count + 1):
            idx = tuple(assign[e - 1] for e in incident[v])
            prod = prod * arrays[v - 1][idx]
            if prod == 0:
                break
        total = total + prod
    return total


def contract_slots(a, b, k, l):
    """Slot ``k`` of ``a`` against slot ``l`` of ``b`` (1-based), by loops.

    Output axes are a's remaining axes in order, then b's remaining axes
    in order.  Returns a nested-dict representation ``{index tuple: value}``
    over 0-based indices, nonzero entries only.
    """
    va, vb = a.ndim, b.ndim
    dim = a.shape[0]
    out = {}
    for out_idx in itertools.product(range(dim), repeat=va + vb - 2):
        left, right = out_idx[: va - 1], out_idx[va - 1 :]
        s = 0
        for c in range(dim):
            ia = left[: k - 1] + (c,) + left[k - 1 :]
            ib = right[: l - 1] + (c,) + right[l - 1 :]
            s = s + a[ia] * b[ib]
        if s != 0:
            out[out_idx] = s
    return out


def ihx_defect(f):
    """First 1-based index where the three-term contraction identity fails.

    Checks sum_e f[a,b,e] f[e,c,d] - f[a,c,e] f[e,b,d] + f[a,d,e] f[e,b,c]
    over all (a, b, c, d); returns None if it always vanishes.
    """
    dim = f.shape[0]
    rng = range(dim)
    for a, b, c, d in itertools.product(rng, repeat=4):
        s = 0
        for e in rng:
            s = (
                s
                + f[a, b, e] * f[e, c, d]
                - f[a, c, e] * f[e, b, d]
                + f[a, d, e] * f[e, b, c]
            )
        if s != 0:
            return (a + 1, b + 1, c + 1, d + 1)
    return None


# ---------------------------------------------------------------------------
# Decorated coboundary and closure by explicit outer products.
# ---------------------------------------------------------------------------


def incident_edges(edges, v):
    return [k for k, (t, h) in enumerate(edges, start=1) if v in (t, h)]


def decorated_delta(coeff, vertex_count, edges, arrays):
    """Decorated coboundary of one term as ``(coeff, V, edges, arrays)`` terms.

    Each regular edge is contracted with ``contract`` and its endpoint
    tensors with ``contract_slots``; the merged tensor sits on the smaller
    endpoint with its axes in increasing order of the edge each carries.
    """
    out = []
    for e in regular_edge_indices(edges):
        i, j = edges[e - 1]
        inc_i, inc_j = incident_edges(edges, i), incident_edges(edges, j)
        merged = contract_slots(
            arrays[i - 1], arrays[j - 1], inc_i.index(e) + 1, inc_j.index(e) + 1
        )
        carried = [x for x in inc_i if x != e] + [x for x in inc_j if x != e]
        order = sorted(range(len(carried)), key=carried.__getitem__)
        dense = np.zeros((arrays[0].shape[0],) * len(carried), dtype=object)
        for idx, value in merged.items():
            dense[tuple(idx[a] for a in order)] = value
        v2, edges2, sign = contract(vertex_count, edges, e)
        lo, hi = min(i, j), max(i, j)
        new = [None] * v2
        new[lo - 1] = dense
        for u in range(1, vertex_count + 1):
            if u not in (i, j):
                new[(u - 1 if u > hi else u) - 1] = arrays[u - 1]
        out.append((coeff * sign, v2, edges2, new))
    return out


def decorated_closure(terms):
    """True iff the decorated coboundary of ``terms`` vanishes.

    ``terms`` holds ``(coeff, V, edges, arrays)``.  Every coboundary term
    is moved onto its literal canonical skeleton along the first witness
    permutation, with the witness sign; per skeleton the signed sum of
    the vertex tensors' outer products, expanded over their nonzero
    entries, must vanish entry by entry.
    """
    groups = {}
    for term in terms:
        for coeff, v2, edges2, arrays in decorated_delta(*term):
            row, perm, sign = canonical_witness(v2, edges2)
            moved = [None] * v2
            for v in range(1, v2 + 1):
                moved[perm[v - 1] - 1] = arrays[v - 1]
            outer = {(): coeff * sign}
            for a in moved:
                support = [(idx, a[idx]) for idx in np.ndindex(a.shape) if a[idx] != 0]
                outer = {
                    key + idx: value * x
                    for key, value in outer.items()
                    for idx, x in support
                }
            total = groups.setdefault(row, {})
            for key, value in outer.items():
                total[key] = total.get(key, 0) + value
    return all(x == 0 for total in groups.values() for x in total.values())
