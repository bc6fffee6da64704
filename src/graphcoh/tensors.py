"""Exact tensors with three scalar kinds, plus the shipped catalogue.

Scalar kinds
------------
* ``rational``   — entries are ``Fraction``s.
* ``radical d``  — entries are ``a + b*sqrt(d)`` with rational a, b and one
  declared non-square radicand d per tensor (class :class:`Rad`).
* ``float``      — binary64, the only kind compared with a tolerance
  (absolute, 1e-12 by default); exact kinds are always compared exactly.

Combining kinds follows the obvious lattice: rational mixes with radical d
to give radical d; distinct radicands or any float force float.  When a
caller demands an exact verdict but the kinds force float, that is an
error (:class:`~graphcoh.errors.MixedScalarKinds`), raised by the
consumers of :func:`unify_kinds`.

A tensor is stored as ``(num + rad*sqrt(d)) / den``: ``num`` and ``rad``
are object arrays of Python ints (no overflow) over one positive common
denominator, ``rad`` is None when every sqrt(d) part is zero, and a float
tensor is ``(1, float array, None)``.  One kernel, ``_tensordot``,
contracts two such triples; since den > 0 and sqrt(d) is irrational, an
entry is zero exactly when its numerators are.  ``.array``, the read-only
array of Fractions, Rads or floats, is built on first read.

A tensor's slots are numbered 1..valence, matching the half-edge order of
decorated graphs.  Generators act slotwise by ``out[i,...] = sum_a G[i,a]
t[a,...]``; a tensor is equivariant when the sum of the slot actions
vanishes for every generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, NotAntisymmetric, ShapeMismatch, _data_lines

FLOAT_TOLERANCE = 1e-12


def _radicand(d) -> int:
    """d as an int, provided it is a non-square integer >= 2."""
    d = int(d)
    if d < 2 or math.isqrt(d) ** 2 == d:
        raise ValueError(f"radicand must be a non-square integer >= 2, got {d}")
    return d


class Rad:
    """Number of the form a + b*sqrt(d) with rational a, b and fixed d.

    d must be a non-square integer >= 2.  Values with b == 0 compare and
    hash like plain rationals, so Fraction and Rad entries can coexist.
    Arithmetic between different radicands is refused (the result would
    leave the ring); callers fall back to floats in that case.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = _radicand(d)

    def _align(self, other) -> "tuple[Rad, Rad] | None":
        """Bring both operands into one radicand's ring, if possible.

        A radical-free operand adopts the other's radicand; two genuinely
        different radicands cannot be reconciled.
        """
        if isinstance(other, (int, Fraction)):
            other = Rad(other, 0, self.d)
        if not isinstance(other, Rad):
            return None
        if self.d == other.d:
            return self, other
        if other.b == 0:
            return self, Rad(other.a, 0, self.d)
        if self.b == 0:
            return Rad(self.a, 0, other.d), other
        return None

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Rad(x.a + y.a, x.b + y.b, x.d)

    __radd__ = __add__

    def __sub__(self, other):
        return NotImplemented if self._align(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if self._align(other) is None else -self + other

    def __mul__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Rad(
            x.a * y.a + x.b * y.b * x.d,
            x.a * y.b + x.b * y.a,
            x.d,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Rad(-self.a, -self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, Rad):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.b == 0:
            return f"Rad({self.a}, 0, {self.d})"
        return f"Rad({self.a}, {self.b}, {self.d})"


@dataclass(frozen=True)
class ScalarKind:
    name: str  # "rational" | "radical" | "float"
    radicand: int | None = None

    def __post_init__(self):
        if self.name not in ("rational", "radical", "float"):
            raise ValueError(f"unknown scalar kind {self.name!r}")
        if (self.name == "radical") != (self.radicand is not None):
            raise ValueError("radical kind needs a radicand; others must not carry one")

    @property
    def is_exact(self) -> bool:
        return self.name != "float"

    def __str__(self) -> str:
        return f"radical {self.radicand}" if self.name == "radical" else self.name

    @staticmethod
    def parse(tokens: Sequence[str]) -> "ScalarKind":
        if tokens and tokens[0] == "rational" and len(tokens) == 1:
            return RATIONAL
        if tokens and tokens[0] == "float" and len(tokens) == 1:
            return FLOAT
        if tokens and tokens[0] == "radical" and len(tokens) == 2:
            return radical(int(tokens[1]))
        raise ValueError(f"bad scalar kind {' '.join(tokens)!r}")


RATIONAL = ScalarKind("rational")
FLOAT = ScalarKind("float")


def radical(d: int) -> ScalarKind:
    return ScalarKind("radical", _radicand(d))


def unify_kinds(kinds: Iterable[ScalarKind]) -> ScalarKind:
    """Smallest scalar kind containing all inputs (float when incompatible)."""
    out = RATIONAL
    for k in kinds:
        if k.name == "float" or out.name == "float":
            out = FLOAT
        elif k.name == "radical":
            if out.name == "radical" and out.radicand != k.radicand:
                out = FLOAT
            else:
                out = k
    return out


def _store(arr, kind: ScalarKind) -> tuple[int, np.ndarray, np.ndarray | None]:
    """arr's entries as the kind's (den, num, rad) triple, den the least common denominator."""
    arr = np.asarray(arr, dtype=object)
    if kind.name == "float":
        return 1, np.array(arr, dtype=float), None
    values, d = arr.ravel().tolist(), kind.radicand
    for x in values:
        if d and isinstance(x, Rad) and x.b != 0 and x.d != d:
            raise ValueError(f"entry radicand {x.d} does not match declared {d}")
    parts = [(x.a, x.b) if d and isinstance(x, Rad) else (Fraction(x), 0) for x in values]
    den = math.lcm(*(q.denominator for pair in parts for q in pair))
    num, rad = (
        np.array([q.numerator * (den // q.denominator) for q in col], dtype=object).reshape(arr.shape)
        for col in zip(*parts)
    )
    return den, num, rad if (rad != 0).any() else None


def _lift(t: EquivariantTensor, kind: ScalarKind) -> tuple[int, np.ndarray, np.ndarray | None]:
    """t's (den, num, rad) triple in a kind containing t.kind; floats for the float kind."""
    return _store(t.array, kind) if kind.name == "float" and t.kind.is_exact else (t.den, t.num, t.rad)


def _tensordot(x, y, axes, radicand: int | None = None) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Contract two (den, num, rad) triples over np.tensordot's axes.

    (A + B sqrt(d))/den times (A' + B' sqrt(d))/den' gives
    ((A A' + d B B') + (A B' + B A') sqrt(d)) / (den den'): one tensordot
    when neither side has a sqrt(d) part, four when both have.
    """
    (p, a, b), (q, a2, b2) = x, y
    num = np.tensordot(a, a2, axes)
    if b is not None and b2 is not None:
        num = num + radicand * np.tensordot(b, b2, axes)
    cross = [np.tensordot(u, v, axes) for u, v in ((a, b2), (b, a2)) if u is not None and v is not None]
    return p * q, num, functools.reduce(np.add, cross) if cross else None


def _scalar(x, kind: ScalarKind):
    """A fully contracted (0-valence) triple as a Fraction, a Rad or a float."""
    den, num, rad = (v.item() if isinstance(v, np.ndarray) else v for v in x)
    if kind.name == "float":
        return float(num)
    q = Fraction(num, den)
    return q if kind.name == "rational" else Rad(q, Fraction(rad or 0, den), kind.radicand)


def nonzero_mask(arr: np.ndarray, tolerance: float | None = None) -> np.ndarray:
    """Entries that are not zero: exactly in an object array (exact numerators,
    Fractions or Rads), else beyond the tolerance (1e-12 by default)."""
    if arr.dtype == object:
        return arr != 0
    return np.abs(arr) > (FLOAT_TOLERANCE if tolerance is None else tolerance)


def _first_nonzero(parts: list[np.ndarray], tolerance: float | None = None) -> tuple[int, ...] | None:
    """1-based multi-index of the first entry, row-major, where some part is nonzero, or None."""
    hits = np.flatnonzero(functools.reduce(np.logical_or, (nonzero_mask(x, tolerance) for x in parts)))
    if hits.size == 0:
        return None
    return tuple(int(i) + 1 for i in np.unravel_index(hits[0], parts[0].shape))


@dataclass(frozen=True, eq=False)
class EquivariantTensor:
    """Dense valence-v tensor over an m-dimensional space, one scalar kind,
    stored as (num + rad*sqrt(d)) / den (see the module docstring)."""

    label: str
    kind: ScalarKind
    den: int
    num: np.ndarray
    rad: np.ndarray | None = None

    def __post_init__(self):
        arr = self.num
        if arr.ndim < 1:
            raise ShapeMismatch("tensor valence must be at least 1")
        if len(set(arr.shape)) != 1:
            raise ShapeMismatch(f"tensor must be a hypercube, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeMismatch("tensor dimension must be at least 1")
        for x in (self.num, self.rad):
            if x is not None:
                x.flags.writeable = False

    @functools.cached_property
    def array(self) -> np.ndarray:
        """Read-only array of the kind's scalars: Fractions, Rads or floats."""
        if not self.kind.is_exact:
            return self.num
        den, d = self.den, self.kind.radicand
        if d is None:
            out = np.frompyfunc(lambda a: Fraction(a, den), 1, 1)(self.num)
        else:
            rad = 0 if self.rad is None else self.rad
            out = np.frompyfunc(lambda a, b: Rad(Fraction(a, den), Fraction(b, den), d), 2, 1)(self.num, rad)
        out.flags.writeable = False
        return out

    @property
    def valence(self) -> int:
        return self.num.ndim

    @property
    def dim(self) -> int:
        return self.num.shape[0]

    def entry(self, *index: int):
        """Entry at a 1-based multi-index."""
        return self.array[tuple(i - 1 for i in index)]

    def with_label(self, label: str) -> "EquivariantTensor":
        return EquivariantTensor(label, self.kind, self.den, self.num, self.rad)

    def transpose(self, axes: Sequence[int]) -> "EquivariantTensor":
        """The tensor whose slots are this one's in the order np.transpose(array, axes)."""
        parts = (None if x is None else np.transpose(x, axes) for x in (self.num, self.rad))
        return EquivariantTensor(self.label, self.kind, self.den, *parts)

    def __eq__(self, other):
        if not isinstance(other, EquivariantTensor):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.array.shape == other.array.shape
            and bool(np.all(self.array == other.array))
        )

    def __hash__(self):
        return hash((self.kind, self.array.shape, tuple(self.array.ravel().tolist())))

    def __repr__(self):
        return f"EquivariantTensor({self.label!r}, valence {self.valence}, dim {self.dim}, {self.kind})"


def _infer_kind(values) -> ScalarKind:
    kind = RATIONAL
    for x in values:
        if isinstance(x, float):
            return FLOAT
        if isinstance(x, Rad):
            k = radical(x.d)
            if kind.name == "radical" and kind.radicand != k.radicand and x.b != 0:
                raise ValueError("entries mix different radicands; declare kind float instead")
            if x.b != 0:
                kind = k
    return kind


def make_tensor(values, kind: ScalarKind | None = None, label: str = "t") -> EquivariantTensor:
    """Build a tensor from nested sequences (or an ndarray), inferring the kind."""
    arr = np.asarray(values, dtype=object)
    if kind is None:
        kind = _infer_kind(arr.ravel())
    return EquivariantTensor(label, kind, *_store(arr, kind))


def zero_tensor(valence: int, dim: int, kind: ScalarKind = RATIONAL, label: str = "zero") -> EquivariantTensor:
    return make_tensor(np.zeros((dim,) * valence, dtype=object), kind, label)


def pairing(t1: EquivariantTensor, t2: EquivariantTensor):
    """Full slotwise orthonormal contraction: sum of entrywise products."""
    if t1.valence != t2.valence or t1.dim != t2.dim:
        raise ShapeMismatch(
            f"pairing needs equal shapes, got valence {t1.valence} dim {t1.dim}"
            f" vs valence {t2.valence} dim {t2.dim}"
        )
    kind = unify_kinds([t1.kind, t2.kind])
    if kind.name == "float":
        # numpy's pairwise sum, not a dot product: the reports print its last digit
        return float(np.sum(_lift(t1, kind)[1] * _lift(t2, kind)[1]))
    axes = list(range(t1.valence))
    return _scalar(_tensordot(_lift(t1, kind), _lift(t2, kind), (axes, axes), kind.radicand), kind)


def direct_sum(t1: EquivariantTensor, t2: EquivariantTensor, label: str | None = None) -> EquivariantTensor:
    """Block tensor on the direct sum: t1 on the first block, t2 on the second."""
    if t1.valence != t2.valence:
        raise ShapeMismatch(f"direct sum needs equal valences, got {t1.valence} vs {t2.valence}")
    v, m1, m = t1.valence, t1.dim, t1.dim + t2.dim
    arr = np.zeros((m,) * v, dtype=object)
    arr[(slice(0, m1),) * v] = t1.array
    arr[(slice(m1, m),) * v] = t2.array
    return make_tensor(arr, unify_kinds([t1.kind, t2.kind]), label or f"{t1.label}+{t2.label}")


def apply_generator(generator: np.ndarray, array: np.ndarray, slot: int) -> np.ndarray:
    """Act on one slot (1-based): out[..., i, ...] = sum_a G[i, a] t[..., a, ...]."""
    moved = np.tensordot(generator, array, axes=([1], [slot - 1]))
    return np.moveaxis(moved, 0, slot - 1)


def _generator_arrays(generators, dim: int):
    out = []
    all_exact = True
    for g in generators:
        arr = np.asarray(g)
        if arr.shape != (dim, dim):
            raise ShapeMismatch(f"generator must be {dim}x{dim}, got {arr.shape}")
        if arr.dtype == object:
            flat = list(arr.ravel())
            if any(isinstance(x, (float, complex)) for x in flat):
                all_exact = False
        elif not np.issubdtype(arr.dtype, np.integer):
            all_exact = False
        out.append(arr)
    return out, all_exact


def check_equivariance(
    t: EquivariantTensor,
    generators: Sequence,
    tolerance: float | None = None,
) -> bool:
    """True iff the summed slot action of every generator annihilates t.

    Exact, whatever the tolerance, when the tensor and the generators are
    exact; otherwise evaluated in complex binary64 against the tolerance.
    """
    gens, gens_exact = _generator_arrays(generators, t.dim)
    if t.kind.is_exact and gens_exact:
        arr = t.array
        gens = [np.asarray(g, dtype=object) for g in gens]
    else:
        arr = _lift(t, FLOAT)[1]
        gens = [np.asarray(g, dtype=complex) for g in gens]
    for g in gens:
        residual = sum(apply_generator(g, arr, s) for s in range(1, t.valence + 1))
        if nonzero_mask(residual, tolerance).any():
            return False
    return True


def _swap_defect(t: EquivariantTensor, k: int, l: int, sign: int, tolerance: float | None):
    """First index where swapping slots k, l fails to multiply t by sign, or None."""
    diff = [np.swapaxes(x, k - 1, l - 1) - sign * x for x in (t.num, t.rad) if x is not None]
    return _first_nonzero(diff, tolerance)


def symmetry_profile(t: EquivariantTensor, tolerance: float | None = None) -> dict[tuple[int, int], int | None]:
    """For each slot transposition (k, l): +1, -1, or None (no symmetry)."""
    out: dict[tuple[int, int], int | None] = {}
    for k, l in itertools.combinations(range(1, t.valence + 1), 2):
        if _swap_defect(t, k, l, 1, tolerance) is None:
            out[(k, l)] = 1
        elif _swap_defect(t, k, l, -1, tolerance) is None:
            out[(k, l)] = -1
        else:
            out[(k, l)] = None
    return out


def jacobi_violation(f: EquivariantTensor, tolerance: float | None = None) -> tuple[int, ...] | None:
    """First (a, b, c, d) where a valence-3 tensor breaks the Jacobi identity, or None.

    The tested identity is
    sum_e f[a,b,e] f[e,c,d] - f[a,c,e] f[e,b,d] + f[a,d,e] f[e,b,c] = 0,
    which presumes full antisymmetry: NotAntisymmetric is raised first, at
    the first slot pair and index where swapping does not negate f.
    ShapeMismatch is raised when f does not have valence 3.
    """
    if f.valence != 3:
        raise ShapeMismatch(f"need a valence-3 tensor, got valence {f.valence}")
    for k, l in itertools.combinations(range(1, 4), 2):
        witness = _swap_defect(f, k, l, -1, tolerance)
        if witness is not None:
            raise NotAntisymmetric((k, l), witness)
    _, *t1 = _tensordot(_lift(f, f.kind), _lift(f, f.kind), ([2], [0]), f.kind.radicand)
    residual = [x - x.transpose(0, 2, 1, 3) + x.transpose(0, 2, 3, 1) for x in t1 if x is not None]
    return _first_nonzero(residual, tolerance)


# ---------------------------------------------------------------------------
# Text format.  Header `valence v dim m kind <kind>`, then one line per
# nonzero entry: 1-based indices followed by the value.  Values are `p/q`
# (rational), `p/q r d` (meaning (p/q)*sqrt(d)), or a decimal literal.
# ---------------------------------------------------------------------------


def format_scalar(x, kind: ScalarKind) -> str:
    if kind.name == "float":
        return repr(float(x))
    if isinstance(x, Rad) and x.b != 0:
        if x.a != 0:
            raise ValueError(
                "entry mixes rational and radical parts; not representable in the text format"
            )
        return f"{x.b.numerator}/{x.b.denominator} r {x.d}"
    q = x.a if isinstance(x, Rad) else Fraction(x)
    return f"{q.numerator}/{q.denominator}"


def parse_scalar(tokens: Sequence[str], kind: ScalarKind):
    if kind.name == "float":
        if len(tokens) != 1:
            raise ValueError("float entries take one value token")
        return float(tokens[0])
    if len(tokens) == 1:
        q = Fraction(tokens[0])
        return Rad(q, 0, kind.radicand) if kind.name == "radical" else q
    if len(tokens) == 3 and tokens[1] == "r":
        if kind.name != "radical":
            raise ValueError("radical value in a non-radical tensor")
        d = int(tokens[2])
        if d != kind.radicand:
            raise ValueError(f"radicand {d} does not match declared {kind.radicand}")
        return Rad(0, Fraction(tokens[0]), d)
    raise ValueError(f"bad value {' '.join(tokens)!r}")


def format_tensor(t: EquivariantTensor) -> str:
    lines = [f"valence {t.valence} dim {t.dim} kind {t.kind}"]
    for idx in itertools.product(range(t.dim), repeat=t.valence):
        x = t.array[idx]
        if x == 0:
            continue
        pos = " ".join(str(i + 1) for i in idx)
        lines.append(f"{pos} {format_scalar(x, t.kind)}")
    return "\n".join(lines) + "\n"


def parse_tensor(text: str, label: str = "t") -> EquivariantTensor:
    entries: dict[tuple[int, ...], object] = {}
    valence = dim = kind = None
    for ln, line in _data_lines(text):
        parts = line.split()
        if kind is None:
            if len(parts) < 6 or parts[0] != "valence" or parts[2] != "dim" or parts[4] != "kind":
                raise FormatError(ln, f"expected 'valence v dim m kind ...', got {line!r}")
            try:
                valence, dim = int(parts[1]), int(parts[3])
                kind = ScalarKind.parse(parts[5:])
            except ValueError as exc:
                raise FormatError(ln, str(exc)) from None
            if valence < 1 or dim < 1:
                raise FormatError(ln, "valence and dim must be positive")
            continue
        if len(parts) < valence + 1:
            raise FormatError(ln, f"expected {valence} indices and a value, got {line!r}")
        try:
            idx = tuple(int(p) for p in parts[:valence])
        except ValueError:
            raise FormatError(ln, f"bad index in {line!r}") from None
        if any(not (1 <= i <= dim) for i in idx):
            raise FormatError(ln, f"index out of range 1..{dim} in {line!r}")
        if idx in entries:
            raise FormatError(ln, f"duplicate entry at index {idx}")
        try:
            entries[idx] = parse_scalar(parts[valence:], kind)
        except ZeroDivisionError:
            raise FormatError(ln, f"zero denominator in {line!r}") from None
        except ValueError as exc:
            raise FormatError(ln, str(exc)) from None
    if kind is None:
        raise FormatError(1, "missing tensor header")
    arr = np.zeros((dim,) * valence, dtype=object)
    for idx, value in entries.items():
        arr[tuple(i - 1 for i in idx)] = value
    return make_tensor(arr, kind, label)


# ---------------------------------------------------------------------------
# Catalogue.
# ---------------------------------------------------------------------------


def levi_civita(i: int, j: int, k: int) -> int:
    return (i - j) * (j - k) * (k - i) // 2


def eps_tensor() -> EquivariantTensor:
    """The alternating tensor on dimension 3 (six entries, all +-1)."""
    arr = np.zeros((3, 3, 3), dtype=object)
    for i, j, k in itertools.permutations(range(1, 4)):
        arr[i - 1, j - 1, k - 1] = levi_civita(i, j, k)
    return EquivariantTensor("eps", RATIONAL, 1, arr)


def half_half_one_tensor() -> EquivariantTensor:
    """Invariant coupling of two spin-1/2 slots and one spin-1 slot.

    The space is the 5-dimensional direct sum (indices 1-2 the spinor
    block, 3-5 the vector block).  Nonzero entries sit in the
    (spinor, spinor, vector) sector, built from the Pauli matrices in a
    basis that makes every entry rational; the largest entry is 1, and the
    tensor is symmetric under exchanging the two spinor slots.
    """
    arr = np.zeros((5, 5, 5), dtype=object)
    blocks = {
        3: ((1, 1, 1), (2, 2, -1)),
        4: ((1, 1, 1), (2, 2, 1)),
        5: ((1, 2, -1), (2, 1, -1)),
    }
    for m, cells in blocks.items():
        for a, b, v in cells:
            arr[a - 1, b - 1, m - 1] = v
    return EquivariantTensor("half-half-one", RATIONAL, 1, arr)


def so3_generators() -> list[np.ndarray]:
    """Adjoint action on dimension 3: (G_k)[a, b] = -levi_civita(k, a, b)."""
    gens = []
    for k in range(1, 4):
        g = np.empty((3, 3), dtype=object)
        for a in range(1, 4):
            for b in range(1, 4):
                g[a - 1, b - 1] = Fraction(-levi_civita(k, a, b))
        gens.append(g)
    return gens


def half_half_one_generators() -> list[np.ndarray]:
    """Block action on the 5-dimensional space of the half-half-one tensor.

    Spinor block: -(i/2) times the Pauli matrices.  Vector block: the
    spin-1 generators conjugated into the basis that makes the catalogue
    tensor rational (they pick up imaginary entries; the check runs in
    complex floating point).
    """
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    phase = np.diag([1, -1j, 1])
    phase_inv = np.diag([1, 1j, 1])
    gens = []
    for k in range(1, 4):
        vec = np.array(
            [[-levi_civita(k, a, b) for b in range(1, 4)] for a in range(1, 4)],
            dtype=complex,
        )
        g = np.zeros((5, 5), dtype=complex)
        g[0:2, 0:2] = -0.5j * sigma[k - 1]
        g[2:5, 2:5] = phase_inv @ vec @ phase
        gens.append(g)
    return gens


CATALOGUE = {
    "eps": eps_tensor,
    "half-half-one": half_half_one_tensor,
}


def catalogue_tensor(name: str) -> EquivariantTensor:
    try:
        return CATALOGUE[name]()
    except KeyError:
        raise KeyError(
            f"unknown catalogue tensor {name!r}; available: {', '.join(sorted(CATALOGUE))}"
        ) from None
