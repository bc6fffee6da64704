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
(_contraction_tables) and canonicalize the images in one canonical_rows
call.  delta_matrix finds each image among the codomain rows by byte key
and keeps its columns in a per-class memo of at most 2**17 classes, which
delta reads and fills in with one more such call; delta of a cochain then
sums integer numerators over the lcm of its denominators.

Ranks and kernels are computed over exact rationals by one sparse
Gauss-Jordan pass over the matrix's own (row, col) entries: columns are
eliminated left to right, each pivot is the sparsest unused row holding
its column, and the kernel basis is read off the free columns as sparse
vectors.  The reduced row echelon form is unique, so the pivot rule only
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

from .canonical import GraphClass, _keys, _perm_tables, _rows_of, _skeleton_from_row, canonical_rows
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
        mode = v = e = None  # the first term's; (V, E) fixes the grading
        mixed = False  # a term that later cancels may set it; the check below is exact
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
            g = cls.skeleton
            if mode is None:
                mode, v, e = cls.mode, g.vertex_count, len(g.edges)
            mixed = mixed or cls.mode is not mode or g.vertex_count != v or len(g.edges) != e
        self._terms = {k: x for k, x in acc.items() if x}
        if mixed:
            gradings = {k.grading for k in self._terms}
            if len(gradings) > 1:
                raise ValueError(f"cochain mixes gradings {sorted(gradings)}")
            if len({k.mode for k in self._terms}) > 1:
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
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
        return Cochain(acc)

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
    sign[c]; touch[c, q] says that q != c shares an end with c.  All four
    are read off _contract on the complete graph."""
    pairs, below = _perm_tables(v).pairs, _perm_tables(v - 1)
    complete, p = GraphSkeleton(v, tuple(pairs)), len(pairs)
    target = np.full((p, p), len(below.pairs), dtype=np.int16)
    (flip, touch), sign = np.zeros((2, p, p), dtype=bool), np.empty(p, dtype=np.int64)
    for c, (lo, _) in enumerate(pairs):
        contracted, sign[c], _ = _contract(complete, c + 1, complete.valences())
        for q, (t, h) in zip([q for q in range(p) if q != c], contracted.edges if contracted else ()):
            # q shares an end with c exactly when its image meets the merged vertex lo
            target[c, q], flip[c, q], touch[c, q] = below.pair_index[t, h], t > h, lo in (t, h)
    return target, flip, sign, touch


def _images(classes: Sequence[GraphClass]):
    """(source index, canonical image row, coefficient) of every term of delta
    on basis classes of one grading and mode, as rows; zero images are
    dropped and equal ones are not yet summed."""
    mode, v = classes[0].mode, classes[0].skeleton.vertex_count
    rows, reversals = _rows_of([c.skeleton for c in classes], mode, _perm_tables(v))
    if v < 2:  # the empty graph has nothing to contract
        return np.zeros(0, dtype=np.intp), rows[:0], np.zeros(0, dtype=np.int64)
    target, flip, sign, touch = _contraction_tables(v)
    mult = (rows[..., None] == np.arange(len(target))).sum(axis=1) if mode is SymmetryMode.LITERAL else rows
    # regular pairs, unless no other edge meets their ends (a bare vertex is not a graph)
    src, pair = np.nonzero((mult == 1) & (mult @ touch > 0))
    if mode is SymmetryMode.LITERAL:
        others = rows[src][rows[src] != pair[:, None]].reshape(len(src), rows.shape[1] - 1)
        image, flips = target[pair[:, None], others], flip[pair[:, None], others].sum(axis=1)
    else:
        image = np.zeros((len(src), target.max(initial=0) + 1), dtype=np.int16)
        np.add.at(image, (np.arange(len(src))[:, None], target[pair]), rows[src])
        image, flips = image[:, :-1], (rows[src] * flip[pair]).sum(axis=1)
    best, _, relation, zero = canonical_rows(_perm_tables(v - 1), mode, image, flips)
    # every edge reversal stored in a row flips the sign of each of its contractions
    coeff = sign[pair] * relation * (1 - 2 * (reversals[src] & 1))
    return src[~zero], best[~zero], coeff[~zero]


_COLUMN_BOUND = 1 << 17  # classes whose delta _COLUMNS keeps
_COLUMNS: dict[GraphClass, dict[GraphClass, int]] = {}


def _remember(columns: Iterable[tuple[GraphClass, dict[GraphClass, int]]]) -> None:
    """Store delta columns by class, dropping the oldest past the bound."""
    _COLUMNS.update(columns)
    for stale in list(itertools.islice(_COLUMNS, max(0, len(_COLUMNS) - _COLUMN_BOUND))):
        del _COLUMNS[stale]


def delta(c: Cochain | GraphClass) -> Cochain:
    """Coboundary of a cochain (or of a single class, sign folded in)."""
    if isinstance(c, GraphClass):
        c = Cochain.from_class(c)
    columns = {cls: _COLUMNS.get(cls) for cls in c._terms}
    missing = [cls for cls, col in columns.items() if col is None]
    if missing:  # contract them all at once, naming each distinct image class once
        mode, v = c.mode, missing[0].skeleton.vertex_count - 1
        found: dict[bytes, GraphClass] = {}
        sums: list[dict[GraphClass, int]] = [{} for _ in missing]
        src, image, coeff = _images(missing)
        for s, row, k in zip(src.tolist(), image, coeff.tolist()):
            key = row.tobytes()
            target = found[key] = found.get(key) or GraphClass(
                _skeleton_from_row(v, row, mode, _perm_tables(v).pairs), 1, mode)
            sums[s][target] = sums[s].get(target, 0) + k
        columns.update((cls, {t: k for t, k in col.items() if k}) for cls, col in zip(missing, sums))
        _remember((cls, columns[cls]) for cls in missing)
    den = math.lcm(*(q.denominator for q in c._terms.values()))  # sum numerators over it
    acc: dict[GraphClass, int] = {}
    for cls, q in c._terms.items():
        f = q.numerator * (den // q.denominator)
        for target, k in columns[cls].items():
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
    (row, col) with 0-based indices to nonzero rationals.
    """

    order: int
    degree: int
    mode: SymmetryMode
    connected: bool
    domain: tuple[GraphClass, ...]
    codomain: tuple[GraphClass, ...]
    entries: dict[tuple[int, int], Fraction] = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain), len(self.domain))

    @functools.cached_property
    def _reduced(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, computed once; entries must not change after."""
        return rref(len(self.domain), self.entries)

    def rank(self) -> int:
        return len(self._reduced)

    def kernel(self) -> list[dict[int, Fraction]]:
        """Sparse kernel vectors {domain index: coefficient}, one per free column."""
        return kernel_basis(len(self.domain), self._reduced)


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
    entries: dict[tuple[int, int], Fraction] = {}
    if domain:
        v, below = domain[0].skeleton.vertex_count, _perm_tables(domain[0].skeleton.vertex_count - 1)
        col, image, coeff = _images(domain)
        keys, found = _keys(_rows_of([c.skeleton for c in codomain], mode, below)[0]), _keys(image)
        by_key = np.argsort(keys)
        pos, hit = np.searchsorted(keys[by_key], found), np.isin(found, keys)
        if not hit.all():
            missing = _skeleton_from_row(v - 1, image[hit.argmin()], mode, below.pairs)
            raise AssertionError(f"delta image {missing.edges} missing from codomain basis")
        cells, inverse = np.unique(col * len(codomain) + by_key[pos], return_inverse=True)
        columns: list[dict[GraphClass, int]] = [{} for _ in domain]
        for cell, k in zip(cells.tolist(), np.bincount(inverse, coeff).astype(np.int64).tolist()):
            if k:
                c, r = divmod(cell, len(codomain))
                columns[c][codomain[r]], entries[(r, c)] = k, Fraction(k)
        _remember(zip(domain, columns))
    return DeltaMatrix(order, degree, mode, connected, domain, codomain, entries)


# ---------------------------------------------------------------------------
# Exact rational elimination.
# ---------------------------------------------------------------------------


def rref(
    ncols: int, entries: Mapping[tuple[int, int], Fraction]
) -> dict[int, dict[int, Fraction]]:
    """Sparse reduced row echelon form of (row, col) entries: {pivot column: row}.

    Rows are {column: value} dicts.  Columns are eliminated left to right;
    the pivot of a column is the sparsest unused row holding it, ties
    broken by row index.  The pivot row is scaled to 1 and the column is
    cleared from every other row, pivot rows included.  The result is
    keyed in ascending pivot order.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    holders: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = Fraction(v)
            holders.setdefault(c, set()).add(r)
    reduced: dict[int, dict[int, Fraction]] = {}
    used: set[int] = set()
    for c in range(ncols):
        free = [r for r in holders.get(c, ()) if r not in used]
        if not free:
            continue
        p = min(free, key=lambda r: (len(rows[r]), r))
        prow = rows[p]
        pv = prow[c]
        if pv != 1:
            prow = rows[p] = {k: v / pv for k, v in prow.items()}
        for r in [r for r in holders[c] if r != p]:
            row, f = rows[r], rows[r][c]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                    holders[k].add(r)  # p holds every k in prow
                else:
                    del row[k]
                    holders[k].discard(r)
        used.add(p)
        reduced[c] = prow
    return reduced


def kernel_basis(
    ncols: int, reduced: Mapping[int, Mapping[int, Fraction]]
) -> list[dict[int, Fraction]]:
    """Sparse kernel basis from rref output: {f: 1} + {p: -R[p][f]} per free column f, ascending."""
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for f, v in row.items():
            if f != p:
                basis[f][p] = -v
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


def format_cochain(c: Cochain, index_of: Mapping[GraphClass, int]) -> str:
    """One `coeff<TAB>g<k>` line per term; k is the 1-based basis position."""
    lines = []
    for cls, coeff in c:
        lines.append(f"{coeff.numerator}/{coeff.denominator}\tg{index_of[cls] + 1}")
    return "\n".join(lines) + "\n"


def parse_cochain(text: str, basis: Sequence[GraphClass]) -> Cochain:
    terms: dict[GraphClass, Fraction] = {}
    for ln, line in _data_lines(text):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1].startswith("g"):
            raise FormatError(ln, f"expected 'coeff<TAB>g<k>', got {line!r}")
        cls, q = basis[_index(ln, parts[1][1:], len(basis))], _coefficient(ln, parts[0])
        terms[cls] = terms[cls] + q if cls in terms else q
    return Cochain(terms)
