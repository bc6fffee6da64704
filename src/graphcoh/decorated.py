"""Decorated graphs: tensors on vertices, edge contraction, decorated delta.

Slot convention: slot k of the tensor at vertex i corresponds to the k-th
half-edge at i, where half-edges are ordered by ascending edge number
(GraphSkeleton.incident_edges).  Since parallel edges carry distinct
numbers and loops are excluded, this order is unambiguous.

evaluate contracts every edge's two half-edge slots with the orthonormal
pairing and returns the resulting scalar; it is independent of the
contraction order, of edge orientations, and multiplies over disjoint
unions.

delta_decorated reuses the skeleton coboundary's edge contraction
(coboundary._contract), which gives the contracted skeleton, the sign and
the new number of every old vertex.  For each regular edge it contracts
the two endpoint tensors along the edge's slots, permutes the merged
tensor's slots to realign with the contracted skeleton's half-edge order,
and moves every other decoration to its vertex's new number.  Contracting
the lone edge of a two-vertex graph with valence-1 endpoints would leave a
valence-0 vertex; contract_decoration rejects that rather than giving it
an ad-hoc scalar meaning.

is_cocycle_decorated groups the termwise coboundary by canonical skeleton
(literal symmetry mode, since decorations are tied to edge numbers) and
transports every term onto the group's representative with the witness
permutation and its sign.  A group closes when its total
sum_k c_k (x)_v T_kv, a tensor of dim^(sum of valences) entries, is zero.
For exact kinds that is decided without forming the total, by the Gram
identity

    |sum_k c_k (x)_v T_kv|^2 = sum_{k,l} c_k c_l prod_v <T_kv, T_lv>,

with one integer Gram matrix per vertex and one Fraction per member.
Rational and radical scalars are real (sqrt(d) > 0) and the pairing is
orthonormal, so the left side is a sum of squares of real numbers and
vanishes exactly when the total does.  Floating kinds keep the entrywise
test of the total against a tolerance: rounding in a float sum of squares
is far coarser than the entrywise tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .canonical import transport_to_canonical
from .coboundary import _contract
from .errors import FormatError, MixedScalarKinds, ShapeMismatch, SlotOutOfRange, _data_lines
from .graphs import GraphSkeleton, SymmetryMode, grading, regular_edges
from .tensors import (
    EquivariantTensor,
    ScalarKind,
    _lift,
    _scalar,
    _tensordot,
    jacobi_violation,
    nonzero_mask,
    unify_kinds,
)


def _common_kind(kinds: Iterable[ScalarKind], tolerance: float | None = None) -> ScalarKind:
    """The smallest kind holding every input kind (see unify_kinds).

    Exact inputs may be pushed into float only when a tolerance is given;
    otherwise that raises MixedScalarKinds.
    """
    kinds = set(kinds)
    unified = unify_kinds(kinds)
    if unified.name == "float" and tolerance is None and any(k.is_exact for k in kinds):
        raise MixedScalarKinds(sorted(str(k) for k in kinds))
    return unified


@dataclass(frozen=True)
class DecoratedGraph:
    """A skeleton with one tensor per vertex (decorations[i-1] at vertex i)."""

    skeleton: GraphSkeleton
    decorations: tuple[EquivariantTensor, ...]

    def __post_init__(self):
        object.__setattr__(self, "decorations", tuple(self.decorations))
        g, decs = self.skeleton, self.decorations
        if len(decs) != g.vertex_count:
            raise ShapeMismatch(
                f"need {g.vertex_count} decorations, got {len(decs)}"
            )
        vals = g.valences()
        for i, t in enumerate(decs, start=1):
            if t.valence != vals[i - 1]:
                raise ShapeMismatch(
                    f"vertex {i} has valence {vals[i - 1]} but its tensor has valence {t.valence}"
                )
        dims = {t.dim for t in decs}
        if len(dims) > 1:
            raise ShapeMismatch(f"decorations mix dimensions {sorted(dims)}")
        self.kind  # resolved once here; MixedScalarKinds for exact kinds mixed into float

    @property
    def dim(self) -> int:
        return self.decorations[0].dim if self.decorations else 0

    @functools.cached_property
    def kind(self) -> ScalarKind:
        return _common_kind(t.kind for t in self.decorations)

    @property
    def grading(self) -> tuple[int, int]:
        return grading(self.skeleton)


def decorate(g: GraphSkeleton, decorations: Sequence[EquivariantTensor]) -> DecoratedGraph:
    return DecoratedGraph(g, tuple(decorations))


def decorate_uniform(g: GraphSkeleton, tensor: EquivariantTensor) -> DecoratedGraph:
    """Attach the same tensor to every vertex (valences must all match)."""
    return DecoratedGraph(g, tuple(tensor for _ in range(g.vertex_count)))


class DecoratedChain:
    """Formal sum of decorated graphs with nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, DecoratedGraph]] = ()):
        out = []
        for coeff, g in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            out.append((coeff, g))
        gradings = {g.grading for _, g in out}
        if len(gradings) > 1:
            raise ValueError(f"chain mixes gradings {sorted(gradings)}")
        self._terms = tuple(out)

    @property
    def terms(self) -> tuple[tuple[Fraction, DecoratedGraph], ...]:
        return self._terms

    @property
    def is_empty(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __add__(self, other: "DecoratedChain") -> "DecoratedChain":
        return DecoratedChain(self._terms + other._terms)

    def __repr__(self):
        return f"DecoratedChain({len(self._terms)} terms)"


def evaluate(g: DecoratedGraph):
    """Full contraction of all edges with the orthonormal pairing.

    Vertices are folded in one at a time; each tensor axis is tracked by
    the edge whose half-edge it carries, and axes meeting their partner
    are contracted together.  Disjoint components multiply.
    """
    if g.skeleton.vertex_count == 0:
        return Fraction(1)
    kind = g.kind
    result = _lift(g.decorations[0], kind)
    open_slots: list[int] = list(g.skeleton.incident_edges(1))
    for v in range(2, g.skeleton.vertex_count + 1):
        t_slots = list(g.skeleton.incident_edges(v))
        shared = [e for e in t_slots if e in open_slots]
        axes_res = [open_slots.index(e) for e in shared]
        axes_t = [t_slots.index(e) for e in shared]
        result = _tensordot(result, _lift(g.decorations[v - 1], kind), (axes_res, axes_t), kind.radicand)
        open_slots = [e for e in open_slots if e not in shared] + [
            e for e in t_slots if e not in shared
        ]
    assert not open_slots, "every edge must be contracted exactly once"
    return _scalar(result, kind)


def contract_decoration(
    rho_i: EquivariantTensor,
    rho_j: EquivariantTensor,
    k: int,
    l: int,
) -> EquivariantTensor:
    """Contract slot k of rho_i against slot l of rho_j (orthonormal pairing).

    The result has valence v_i + v_j - 2; its slots are rho_i's remaining
    slots in order followed by rho_j's remaining slots in order.
    """
    if rho_i.dim != rho_j.dim:
        raise ShapeMismatch(f"dimension mismatch: {rho_i.dim} vs {rho_j.dim}")
    if not (1 <= k <= rho_i.valence):
        raise SlotOutOfRange(k, rho_i.valence)
    if not (1 <= l <= rho_j.valence):
        raise SlotOutOfRange(l, rho_j.valence)
    if rho_i.valence + rho_j.valence - 2 < 1:
        raise ShapeMismatch(
            "contraction would produce a valence-0 tensor (both slots are the "
            "tensors' only slots); scalars are not decorations"
        )
    kind = unify_kinds([rho_i.kind, rho_j.kind])
    out = _tensordot(_lift(rho_i, kind), _lift(rho_j, kind), ([k - 1], [l - 1]), kind.radicand)
    return EquivariantTensor(f"{rho_i.label}.{rho_j.label}", kind, *out)


def delta_decorated(g: DecoratedGraph) -> DecoratedChain:
    """Decorated coboundary: one term per regular edge, slots realigned."""
    skel = g.skeleton
    valences = skel.valences()
    terms: list[tuple[Fraction, DecoratedGraph]] = []
    for e in regular_edges(skel):
        i, j = skel.edges[e - 1]
        inc_i = list(skel.incident_edges(i))
        inc_j = list(skel.incident_edges(j))
        k = inc_i.index(e) + 1
        l = inc_j.index(e) + 1
        # raises ShapeMismatch where the contraction would leave a bare vertex
        merged = contract_decoration(g.decorations[i - 1], g.decorations[j - 1], k, l)
        # realign merged slots with the contracted skeleton's half-edge order
        slot_edges = [x for x in inc_i if x != e] + [x for x in inc_j if x != e]
        merged = merged.transpose(sorted(range(len(slot_edges)), key=slot_edges.__getitem__))
        contracted, sign, new = _contract(skel, e, valences)
        decs: list = [None] * contracted.vertex_count
        for w, t in zip(new, g.decorations):
            decs[w - 1] = t
        decs[new[i - 1] - 1] = merged
        terms.append((Fraction(sign), DecoratedGraph(contracted, tuple(decs))))
    return DecoratedChain(terms)


_Member = tuple[Fraction, tuple[EquivariantTensor, ...]]


def _gram_norm(members: Sequence[_Member], radicand: int | None) -> tuple[Fraction, Fraction]:
    """The group total's squared norm sum_{k,l} c_k c_l prod_v <T_kv, T_lv>
    as (rational part, sqrt(d) part): the members' numerators N_v, R_v at
    vertex v give their pairings times their denominators, A_v + B_v sqrt(d),
    multiplied entrywise over v; each c_k is divided by those denominators.
    """
    d = radicand or 0
    a, b = 1, 0
    for tensors in zip(*(decs for _, decs in members)):
        n = np.stack([t.num.ravel() for t in tensors])
        av, bv = n @ n.T, 0
        if any(t.rad is not None for t in tensors):
            r = np.stack([(np.zeros_like(t.num) if t.rad is None else t.rad).ravel() for t in tensors])
            av, bv = av + d * (r @ r.T), n @ r.T + r @ n.T
        a, b = a * av + d * b * bv, a * bv + b * av
    c = [Fraction(coeff, math.prod(t.den for t in decs)) for coeff, decs in members]
    den = math.lcm(*(x.denominator for x in c))
    w = np.array([x.numerator * (den // x.denominator) for x in c], dtype=object)
    return Fraction(w @ a @ w, den * den), Fraction(w @ b @ w, den * den)


def _outer_sum(members: Sequence[_Member], kind: ScalarKind) -> np.ndarray:
    """The group total sum_k c_k (x)_v T_kv as one float array of every entry."""
    total = None
    for coeff, decs in members:
        big = functools.reduce(
            lambda a, b: np.tensordot(a, b, axes=0), [_lift(t, kind)[1] for t in decs]
        )
        big = big * float(coeff)
        total = big if total is None else total + big
    return total


def is_cocycle_decorated(c: DecoratedChain, tolerance: float | None = None) -> bool:
    """True iff delta of the chain vanishes group-by-group.

    Terms of the termwise coboundary are transported onto canonical
    skeletons (literal mode — decorations are tied to edge numbers), so
    all members of a group share one skeleton and each vertex carries
    tensors of one valence.  A group's total is sum_k c_k (x)_v T_kv.

    Exact kinds (rational, radical d) test the total's squared norm
    sum_{k,l} c_k c_l prod_v <T_kv, T_lv> against zero (the Gram identity):
    one integer Gram matrix of the members per vertex, multiplied entrywise
    over the vertices, and one Fraction per member.  As a + b*sqrt(d) is
    real and the pairing orthonormal, the norm is a sum of squares of real
    entries, zero exactly when the total is; no outer product is formed.

    Floating kinds (and exact kinds mixed with them, which need an
    explicit tolerance) build the total entrywise and compare each entry
    against the tolerance (default 1e-12).  The Gram sum is no use there:
    its terms of size about 1 cancel with rounding error near 1e-16, and
    1e-16 is also the squared norm of a total whose entries are near 1e-8,
    which the entrywise tolerance rejects.  No threshold on the squared
    norm can tell the two apart.
    """
    if c.is_empty:
        return True
    kind = _common_kind((g.kind for _, g in c), tolerance)
    groups: dict[GraphSkeleton, list[_Member]] = {}
    for coeff, g in c:
        for sign, h in delta_decorated(g):
            cls, perm, wsign = transport_to_canonical(h.skeleton, SymmetryMode.LITERAL)
            decs: list = [None] * len(perm)
            for v, t in zip(perm, h.decorations):
                decs[v - 1] = t
            groups.setdefault(cls.skeleton, []).append((coeff * sign * wsign, tuple(decs)))
    for members in groups.values():
        dims = {decs[0].dim for _, decs in members}
        if len(dims) > 1:
            raise ShapeMismatch(f"skeleton group mixes dimensions {sorted(dims)}")
        if kind.is_exact:
            if any(_gram_norm(members, kind.radicand)):
                return False
        elif nonzero_mask(_outer_sum(members, kind), tolerance).any():
            return False
    return True


def ihx_violation(
    f: EquivariantTensor, tolerance: float | None = None
) -> tuple[int, int, int, int] | None:
    """First (a, b, c, d) violating the contracted Jacobi form, or None.

    The tested identity is
    sum_e f[a,b,e] f[e,c,d] - f[a,c,e] f[e,b,d] + f[a,d,e] f[e,b,c] = 0.
    Raises ShapeMismatch unless f has valence 3, and NotAntisymmetric when
    it is not fully antisymmetric.
    """
    return jacobi_violation(f, tolerance)


def ihx_check(f: EquivariantTensor, tolerance: float | None = None) -> bool:
    """True iff the contracted Jacobi form vanishes; see ihx_violation."""
    return ihx_violation(f, tolerance) is None


# ---------------------------------------------------------------------------
# Decoration files: one `vertex <i> tensor <name-or-file>` line per vertex.
# ---------------------------------------------------------------------------


def parse_decoration_lines(text: str) -> dict[int, str]:
    """Map vertex number -> tensor reference (catalogue name or file path)."""
    out: dict[int, str] = {}
    for ln, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "vertex" or parts[2] != "tensor":
            raise FormatError(ln, f"expected 'vertex <i> tensor <ref>', got {line!r}")
        try:
            vertex = int(parts[1])
        except ValueError:
            raise FormatError(ln, f"bad vertex number {parts[1]!r}") from None
        if vertex < 1:
            raise FormatError(ln, f"vertex numbers start at 1, got {vertex}")
        if vertex in out:
            raise FormatError(ln, f"duplicate decoration for vertex {vertex}")
        out[vertex] = parts[3]
    return out


def format_decoration_lines(refs: dict[int, str]) -> str:
    return "\n".join(f"vertex {v} tensor {refs[v]}" for v in sorted(refs)) + "\n"
