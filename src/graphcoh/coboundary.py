"""The coboundary complex: cochains of graph classes and the map delta.

delta contracts one regular edge at a time.  Contracting the edge numbered
e, oriented from vertex i to vertex j, carries the sign

    sigma(i, j) = (-1)**j     if j > i,
                  (-1)**(i+1) if j < i,

merges the endpoints into min(i, j), shifts vertex numbers above
max(i, j) down by one, deletes edge e and shifts higher edge numbers down
by one.  delta raises the degree by one and keeps the order, and squares
to zero on classes; both facts are exercised by the test suite rather than
assumed.  This module owns that contraction: _contract is the only code
that builds a contracted edge list or renumbers vertices.  contract_edge
and the decorated delta call it; delta and delta_matrix contract all pair
rows of canonical at once through tables read off _contract
(_contraction_tables).  Equal labeled images are merged by their byte
keys first, so one canonical_rows call canonicalizes each distinct image
once; a term's sign is its row's relation times -1 for each edge
reversal the contraction forced or the source row stored, since neither
moves the witness or the zero flag.  Both read delta of a class through
_columns, the one path from images to columns {image class: integer
coefficient}: it keeps a per-class memo of at most 2**17 classes,
contracts only the classes the memo lacks, sums each (class, image) pair
in integer numpy and decodes each distinct canonical image once.  delta
of a cochain sums integer numerators over the lcm of its denominators;
delta_matrix finds each image's row in one dict over the codomain
classes.

Ranks and kernels are computed exactly from the matrix's own (row, col)
entries in two phases, fraction-free (Bareiss): rows are Python-int
dicts and a column is cleared from a row by an integer combination with
the pivot row (_clear), which keeps the supports of rational
elimination.  Forward elimination (_forward_eliminate) takes columns
left to right, each pivot the sparsest unused row holding its column,
and clears each column from the unused rows only; the rank is its number
of pivots, and a DeltaMatrix runs it once.  Back substitution
(_back_substitute) clears the pivot rows above each pivot, and each row
divided by its pivot entry is a row of the reduced row echelon form; the
kernel basis is read off the free columns, one Fraction per entry, and
only kernel() and rref pay for it.  The pivots are those of one
Gauss-Jordan pass and the reduced form is unique, so the pivot rule only
affects fill-in; everything is deterministic for fixed bases.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .canonical import GraphClass, _keys, _perm_tables, _rows_of, _skeletons, canonical_rows
from .enumeration import enumerate_grading
from .errors import DegenerateContraction, FormatError, NotRegular, _data_lines
from .graphs import GraphSkeleton, SymmetryMode


def contraction_sign(i: int, j: int) -> int:
    """Sign attached to contracting an edge oriented from vertex i to j."""
    return (-1) ** j if j > i else (-1) ** (i + 1)


def _contract(
    g: GraphSkeleton, e: int, valences: Sequence[int]
) -> tuple[GraphSkeleton | None, int, list[int]]:
    """Contract edge e of g: (skeleton, sign, new), new[u-1] being the new
    number of old vertex u.  The skeleton is None when both endpoints have
    valence 1 (a bare vertex is not a graph); callers check e is regular."""
    i, j = g.edges[e - 1]
    lo, hi = (i, j) if i < j else (j, i)
    new = [u - 1 if u > hi else u for u in range(1, g.vertex_count + 1)]
    new[hi - 1] = lo
    sign = contraction_sign(i, j)
    if valences[i - 1] == valences[j - 1] == 1:
        return None, sign, new
    edges = tuple((new[t - 1], new[h - 1]) for t, h in g.edges[: e - 1] + g.edges[e:])
    return GraphSkeleton(g.vertex_count - 1, edges), sign, new


def contract_edge(g: GraphSkeleton, e: int) -> tuple[GraphSkeleton, int]:
    """Contract regular edge number e; returns the new skeleton and the sign.

    Raises NotRegular when another edge joins the same endpoints,
    DegenerateContraction when both endpoints have valence 1 (the result
    would be a bare vertex, which is not a graph here).
    """
    if not (1 <= e <= g.edge_count):
        raise ValueError(f"no edge {e} in a graph with {g.edge_count} edges")
    i, j = g.edges[e - 1]
    pair = (i, j) if i < j else (j, i)
    if g.pair_multiplicities()[pair] != 1:
        raise NotRegular(e, f"vertices {pair[0]} and {pair[1]} are joined more than once")
    contracted, sign, _ = _contract(g, e, g.valences())
    if contracted is None:
        raise DegenerateContraction(e)
    return contracted, sign


class Cochain:
    """Formal rational combination of nonzero classes in one grading and mode."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[GraphClass, Fraction] | Iterable[tuple[GraphClass, Fraction]] = ()):
        acc: dict[GraphClass, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for cls, coeff in items:
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            if not isinstance(cls, GraphClass):
                raise TypeError(f"cochain keys must be graph classes, got {type(cls)!r}")
            if cls.sign_state != 1:
                raise ValueError(
                    "cochain keys must be canonical basis classes (sign_state +1); "
                    "fold relation signs into the coefficients first"
                )
            prev = acc.get(cls)
            acc[cls] = coeff if prev is None else prev + coeff
        self._terms = {k: x for k, x in acc.items() if x}
        # only the terms kept count, so one that cancelled leaves no mix; (V, E) fixes the grading
        if len({(k.mode, k.skeleton.vertex_count, len(k.skeleton.edges)) for k in self._terms}) > 1:
            gradings = {k.grading for k in self._terms}
            if len(gradings) > 1:
                raise ValueError(f"cochain mixes gradings {sorted(gradings)}")
            raise ValueError("cochain mixes symmetry modes")

    @classmethod
    def from_class(cls, graph_class: GraphClass, coeff: Fraction | int = 1) -> "Cochain":
        """One-term cochain; the class's relation sign is folded into the coefficient."""
        if graph_class.is_zero:
            return cls()
        return cls({graph_class.basis_class(): Fraction(coeff) * graph_class.sign_state})

    @property
    def terms(self) -> dict[GraphClass, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def grading(self) -> tuple[int, int] | None:
        for k in self._terms:
            return k.grading
        return None

    @property
    def mode(self) -> SymmetryMode | None:
        for k in self._terms:
            return k.mode
        return None

    def coefficient(self, graph_class: GraphClass) -> Fraction:
        return self._terms.get(graph_class.basis_class(), Fraction(0))

    def support(self) -> list[GraphClass]:
        return sorted(self._terms, key=GraphClass.sort_key)

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(itertools.chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Cochain":
        s = Fraction(scalar)
        return Cochain({k: s * v for k, v in self._terms.items()})

    __mul__ = __rmul__

    def __neg__(self) -> "Cochain":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, Cochain) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Cochain(0)"
        bits = [f"{v}*[{k.skeleton.edges}]" for k, v in self]
        return "Cochain(" + " + ".join(bits) + ")"


@functools.lru_cache(maxsize=None)
def _contraction_tables(v: int):
    """Contracting pair c of a V-vertex row moves pair q to pair target[c, q]
    at V-1 (a spare last id for q = c), reversed where flip[c, q], with sign
    sign[c].  All three are read off _contract on the complete graph."""
    pairs, below = _perm_tables(v).pairs, _perm_tables(v - 1)
    complete, p = GraphSkeleton(v, tuple(pairs)), len(pairs)
    target = np.full((p, p), len(below.pairs), dtype=np.int16)
    flip, sign = np.zeros((p, p), dtype=bool), np.empty(p, dtype=np.int64)
    for c in range(p):
        contracted, sign[c], _ = _contract(complete, c + 1, complete.valences())
        for q, (t, h) in zip([q for q in range(p) if q != c], contracted.edges if contracted else ()):
            target[c, q], flip[c, q] = below.pair_index[t, h], t > h
    return target, flip, sign


def _images(classes: Sequence[GraphClass]):
    """The terms of delta on basis classes of one grading and mode: arrays
    of (source index, image id, coefficient), and the canonical row of each
    image id.  Each distinct labeled image row is canonicalized once; zero
    images are dropped and equal ones are not yet summed."""
    mode, v = classes[0].mode, classes[0].skeleton.vertex_count
    rows, reversals = _rows_of([c.skeleton for c in classes], mode, _perm_tables(v))
    if v < 2:  # the empty graph has nothing to contract
        return (np.zeros(0, dtype=np.intp),) * 3 + (rows[:0],)
    (target, flip, sign), ends = _contraction_tables(v), _perm_tables(v).ends
    mult = (rows[..., None] == np.arange(len(target))).sum(axis=1) if mode is SymmetryMode.LITERAL else rows
    # regular pairs, unless their ends' degrees sum to 2: contracting would leave a bare vertex
    src, pair = np.nonzero((mult == 1) & (mult @ ends @ ends.T != 2))
    if mode is SymmetryMode.LITERAL:
        others = rows[src][rows[src] != pair[:, None]].reshape(len(src), rows.shape[1] - 1)
        image, flips = target[pair[:, None], others], flip[pair[:, None], others].sum(axis=1)
    else:
        image = np.zeros((len(src), target.max(initial=0) + 1), dtype=np.int16)
        np.add.at(image, (np.arange(len(src))[:, None], target[pair]), rows[src])
        image, flips = image[:, :-1], (rows[src] * flip[pair]).sum(axis=1)
    _, first, distinct = np.unique(_keys(image), return_index=True, return_inverse=True)
    # witnesses and zero flags ignore stored reversals, so the distinct rows are canonicalized with none
    best, _, relation, zero = canonical_rows(_perm_tables(v - 1), mode, image[first], np.zeros_like(first))
    nonzero = best[~zero]
    _, at, label = np.unique(_keys(nonzero), return_index=True, return_inverse=True)
    ids = np.zeros(len(best), dtype=np.intp)
    ids[~zero] = label
    # every edge reversal, forced by the contraction or stored in a row, flips the sign of its term
    coeff = sign[pair] * relation[distinct] * (1 - 2 * ((flips + reversals[src]) & 1))
    live = ~zero[distinct]
    return src[live], ids[distinct][live], coeff[live], nonzero[at]


_COLUMN_BOUND = 1 << 17  # classes whose delta _COLUMNS keeps
_COLUMNS: dict[GraphClass, dict[GraphClass, int]] = {}


def _columns(classes: Sequence[GraphClass]) -> list[dict[GraphClass, int]]:
    """delta of each basis class of one grading and mode as {image class:
    coefficient}, read from the memo; the classes it lacks are contracted in
    one _images call, whose terms are summed per (class, image) in integers
    and whose distinct canonical images are decoded once, and stored,
    dropping the oldest past the bound."""
    columns = [_COLUMNS.get(cls) for cls in classes]
    missing = [cls for cls, col in zip(classes, columns) if col is None]
    if missing:
        mode, v = missing[0].mode, missing[0].skeleton.vertex_count - 1
        src, ids, coeff, canon = _images(missing)
        terms, at = np.unique(src * len(canon) + ids, return_inverse=True)  # by class, then image
        sums = np.zeros(len(terms), dtype=np.int64)
        np.add.at(sums, at, coeff)
        found = [GraphClass(g, 1, mode) for g in _skeletons(v, canon, mode, _perm_tables(v).pairs)]
        sums_of: list[dict[GraphClass, int]] = [{} for _ in missing]
        for t, k in zip(terms.tolist(), sums.tolist()):
            if k:
                sums_of[t // len(canon)][found[t % len(canon)]] = k
        fresh = dict(zip(missing, sums_of))
        _COLUMNS.update(fresh)
        for stale in list(itertools.islice(_COLUMNS, max(0, len(_COLUMNS) - _COLUMN_BOUND))):
            del _COLUMNS[stale]
        columns = [fresh[cls] if col is None else col for cls, col in zip(classes, columns)]
    return columns


def delta(c: Cochain | GraphClass) -> Cochain:
    """Coboundary of a cochain (or of a single class, sign folded in)."""
    if isinstance(c, GraphClass):
        c = Cochain.from_class(c)
    den = math.lcm(*(q.denominator for q in c._terms.values()))  # sum numerators over it
    acc: dict[GraphClass, int] = {}
    for q, column in zip(c._terms.values(), _columns(list(c._terms))):
        f = q.numerator * (den // q.denominator)
        for target, k in column.items():
            acc[target] = acc.get(target, 0) + f * k
    out = Cochain({target: Fraction(x, den) for target, x in acc.items() if x})
    if not c.is_zero and not out.is_zero:
        n, t = c.grading
        assert out.grading == (n, t + 1), "delta must shift the degree by one"
    return out


@dataclass(eq=False)
class DeltaMatrix:
    """Sparse matrix of delta between two enumerated bases.

    Column j holds delta(domain[j]) expanded over codomain; entries maps
    (row, col) with 0-based indices to delta's nonzero integer coefficients.
    """

    order: int
    degree: int
    mode: SymmetryMode
    connected: bool
    domain: tuple[GraphClass, ...]
    codomain: tuple[GraphClass, ...]
    entries: dict[tuple[int, int], int] = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain), len(self.domain))

    @functools.cached_property
    def _echelon(self) -> dict[int, dict[int, int]]:
        """The row echelon form, computed once; entries must not change after."""
        return _forward_eliminate(len(self.domain), self.entries)

    def rank(self) -> int:
        return len(self._echelon)

    def kernel(self) -> list[dict[int, Fraction]]:
        """Sparse kernel vectors {domain index: coefficient}, one per free column."""
        return kernel_basis(len(self.domain), _back_substitute(self._echelon))


def delta_matrix(
    order: int,
    degree: int,
    *,
    connected: bool = False,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> DeltaMatrix:
    """Matrix of delta from grading (order, degree) to (order, degree + 1)."""
    domain = tuple(enumerate_grading(order, degree, connected=connected, mode=mode, cap=cap))
    codomain = tuple(enumerate_grading(order, degree + 1, connected=connected, mode=mode, cap=cap))
    row_of = {cls: r for r, cls in enumerate(codomain)}
    entries: dict[tuple[int, int], int] = {}
    for c, column in enumerate(_columns(domain)):
        for target, k in column.items():
            r = row_of.get(target)
            if r is None:
                raise AssertionError(f"delta image {target.skeleton.edges} missing from codomain basis")
            entries[(r, c)] = k
    return DeltaMatrix(order, degree, mode, connected, domain, codomain, entries)


# ---------------------------------------------------------------------------
# Exact fraction-free elimination.
# ---------------------------------------------------------------------------


def _clear(row: dict[int, int], prow: Mapping[int, int], c: int,
           holders: dict[int, set[int]] | None = None, r: int = 0) -> None:
    """Clear column c from an integer row by prow, fraction-free and in
    place: row := b*row - a*prow with a/b = row[c]/prow[c] in lowest terms,
    then the row is divided by its content when b != 1.  Scaling never
    changes a row's support.  holders, if given, maps each column to the
    rows holding it, row being row r."""
    g = math.gcd(row[c], prow[c])
    a, b = row[c] // g, prow[c] // g
    if b != 1:
        for k in row:
            row[k] *= b
    for k, v in prow.items():
        x = row.get(k)
        if x is None:  # fill-in
            row[k] = -a * v
            if holders is not None:
                holders[k].add(r)
        else:
            x -= a * v
            if x:
                row[k] = x
            else:
                del row[k]
                if holders is not None:
                    holders[k].discard(r)
    if b != 1 and (g := math.gcd(*row.values())) > 1:
        for k in row:
            row[k] //= g


def _forward_eliminate(
    ncols: int, entries: Mapping[tuple[int, int], Fraction | int]
) -> dict[int, dict[int, int]]:
    """Sparse row echelon form of (row, col) entries: {pivot column: row}.

    Rows are {column: int} dicts, each input row scaled by the lcm of its
    denominators.  Columns are eliminated left to right; the pivot of a
    column is the sparsest unused row holding it, ties broken by row
    index, and is divided by its content, with a positive pivot entry.
    The column is cleared from the unused rows only (_clear), which keeps
    their supports those of rational elimination, so the pivots are too.
    A pivot row holds no column left of its pivot.  The result is keyed in
    ascending pivot order; its length is the rank.
    """
    rows: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # the unused rows holding each column
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            holders.setdefault(c, set()).add(r)
    for row in rows.values():
        den = math.lcm(*(v.denominator for v in row.values()))
        for k, v in row.items():
            row[k] = v.numerator * (den // v.denominator)
    echelon: dict[int, dict[int, int]] = {}
    for c in range(ncols):
        free = holders.pop(c, None)
        if not free:
            continue
        p = min(free, key=lambda r: (len(rows[r]), r))
        prow = echelon[c] = rows.pop(p)
        g = math.gcd(*prow.values()) * (1 if prow[c] > 0 else -1)  # primitive, positive pivot
        for k in prow:
            prow[k] //= g
        holders[c] = set()  # column c is done; this takes the discards of c below
        for k in prow:
            holders[k].discard(p)
        for r in free - {p}:
            _clear(rows[r], prow, c, holders, r)
    return echelon


def _back_substitute(echelon: Mapping[int, Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced rows of _forward_eliminate's output, which is left as it
    is: each row, divided by its positive pivot entry, is a row of the
    reduced row echelon form.  Last pivot first, each echelon row is
    cleared (_clear) of the later pivot columns it holds by their reduced
    rows, which hold no other pivot column, so no clearing brings one in."""
    reduced: dict[int, dict[int, int]] = {}
    for c in reversed(echelon):
        row = dict(echelon[c])
        for j in [j for j in row if j in reduced]:  # the later pivots it holds
            _clear(row, reduced[j], j)
        reduced[c] = row
    return dict(reversed(reduced.items()))


def rref(
    ncols: int, entries: Mapping[tuple[int, int], Fraction | int]
) -> dict[int, dict[int, Fraction]]:
    """Sparse reduced row echelon form of (row, col) entries: {pivot column: row}.

    Rows are {column: Fraction} dicts with pivot entry 1, whatever
    rationals the entries are.  Forward elimination (_forward_eliminate)
    picks the pivots; back substitution (_back_substitute) clears each
    pivot column from the pivot rows above, and each row is then divided
    by its pivot entry.  The result is keyed in ascending pivot order.
    """
    reduced = _back_substitute(_forward_eliminate(ncols, entries))
    return {c: {k: Fraction(v, row[c]) for k, v in row.items()} for c, row in reduced.items()}


def kernel_basis(
    ncols: int, reduced: Mapping[int, Mapping[int, Fraction | int]]
) -> list[dict[int, Fraction]]:
    """Sparse kernel basis from reduced rows, rref's or unscaled ones:
    {f: 1} + {p: -R[p][f]/R[p][p]} per free column f, ascending."""
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        d = row[p]
        for f, v in row.items():
            if f != p:
                basis[f][p] = Fraction(-v, d)
    return list(basis.values())


def cocycles_of(dm: DeltaMatrix) -> list[Cochain]:
    """Kernel of a delta matrix, expressed as cochains over its domain basis."""
    return [Cochain({dm.domain[j]: v for j, v in vec.items()}) for vec in dm.kernel()]


def cocycle_basis(
    order: int,
    degree: int,
    *,
    connected: bool = False,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> list[Cochain]:
    """Basis of closed cochains at (order, degree)."""
    return cocycles_of(delta_matrix(order, degree, connected=connected, mode=mode, cap=cap))


# ---------------------------------------------------------------------------
# Text exports.  Indices are 1-based in files, matching vertex and edge
# numbering everywhere else; lines are read by the shared rule of
# errors._data_lines (blank and '#' lines are skipped).
# ---------------------------------------------------------------------------


def format_matrix(dm: DeltaMatrix) -> str:
    rows, cols = dm.shape
    lines = [
        f"# delta matrix order {dm.order} degree {dm.degree} mode {dm.mode.value}"
        f" connected {str(dm.connected).lower()}",
        f"# rows {rows} cols {cols}",
    ]
    for (r, c) in sorted(dm.entries):
        v = dm.entries[(r, c)]
        lines.append(f"{r + 1} {c + 1} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def _index(ln: int, token: str, n: int | None = None) -> int:
    """0-based position of a 1-based index token, which must lie in 1..n (n None: unbounded)."""
    try:
        k = int(token)
    except ValueError:
        raise FormatError(ln, f"index {token!r} is not an integer") from None
    if k < 1:
        raise FormatError(ln, f"indices start at 1, got {k}")
    if n is not None and k > n:
        raise FormatError(ln, f"index {k} is past the last of {n}")
    return k - 1


def _coefficient(ln: int, token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(ln, f"coefficient {token!r} is not a rational number") from None


def parse_matrix(text: str) -> dict[tuple[int, int], Fraction]:
    """Read the sparse triples back (0-based keys); comments are skipped.
    A `# rows R cols C` line bounds the indices from above; all start at 1."""
    shape = re.search(r"^[ \t]*# rows (\d+) cols (\d+)[ \t]*$", text, re.MULTILINE)
    rows, cols = (int(shape[1]), int(shape[2])) if shape else (None, None)
    entries: dict[tuple[int, int], Fraction] = {}
    for ln, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(ln, f"expected 'row col value', got {line!r}")
        key = (_index(ln, parts[0], rows), _index(ln, parts[1], cols))
        entries[key] = _coefficient(ln, parts[2])
    return entries


def _cochain_lines(terms: Iterable[tuple[int, Fraction]]) -> list[str]:
    """One `coeff<TAB>g<k>` line per (0-based basis index, coefficient); k is 1-based."""
    return [f"{coeff.numerator}/{coeff.denominator}\tg{j + 1}" for j, coeff in terms]


def format_cochain(c: Cochain, index_of: Mapping[GraphClass, int]) -> str:
    """One `coeff<TAB>g<k>` line per term; k is the 1-based basis position."""
    return "\n".join(_cochain_lines((index_of[cls], coeff) for cls, coeff in c)) + "\n"


def parse_cochain(text: str, basis: Sequence[GraphClass]) -> Cochain:
    terms: list[tuple[GraphClass, Fraction]] = []
    for ln, line in _data_lines(text):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1].startswith("g"):
            raise FormatError(ln, f"expected 'coeff<TAB>g<k>', got {line!r}")
        terms.append((basis[_index(ln, parts[1][1:], len(basis))], _coefficient(ln, parts[0])))
    return Cochain(terms)
