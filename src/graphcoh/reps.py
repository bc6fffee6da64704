"""SU(2) multiplicity counting and validated Lie structure constants.

Spins are non-negative half-integers, handled as ``Fraction``s (internally
doubled to stay in integers).  Tensor products decompose by the
Clebsch-Gordan rule E_j (x) E_k = sum of E_l for l = |j-k| .. j+k in steps
of 1; everything here is exact integer bookkeeping, no coefficients.

Structure constants are valence-3 tensors validated for full antisymmetry
and for the Jacobi identity in the contracted form

    sum_e (f[a,b,e] f[e,c,d] - f[a,c,e] f[e,b,d] + f[a,d,e] f[e,b,c]) = 0

(tensors.jacobi_violation, shared with the IHX check of decorated graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import JacobiFailed, ShapeMismatch
from .tensors import EquivariantTensor, eps_tensor, jacobi_violation, make_tensor

Spin = Fraction


def as_spin(value) -> Spin:
    try:
        j = Fraction(value)
        if j >= 0 and (2 * j).denominator == 1:
            return j
    except (ValueError, ZeroDivisionError, OverflowError):  # not a finite number: no spin
        pass
    raise ValueError(f"spin must be a non-negative half-integer, got {value!r}")


@dataclass(frozen=True)
class SpinRep:
    """A finite direct sum of irreducibles E_j, stored as a sorted multiset."""

    summands: tuple[Spin, ...]

    def __post_init__(self):
        spins = tuple(sorted(as_spin(j) for j in self.summands))
        if not spins:
            raise ValueError("a representation needs at least one summand")
        object.__setattr__(self, "summands", spins)

    @staticmethod
    def of(*spins) -> "SpinRep":
        return SpinRep(tuple(spins))

    @property
    def dimension(self) -> int:
        return sum(int(2 * j) + 1 for j in self.summands)

    def __str__(self) -> str:
        return " + ".join(f"E_{j}" for j in self.summands)


def _product(c1: dict[int, int], c2: dict[int, int]) -> dict[int, int]:
    """Clebsch-Gordan product of multiplicity dicts over doubled spins."""
    out: dict[int, int] = {}
    for a2, m1 in c1.items():
        for b2, m2 in c2.items():
            for l2 in range(abs(a2 - b2), a2 + b2 + 1, 2):
                out[l2] = out.get(l2, 0) + m1 * m2
    return out


def tensor_decompose(spins: Sequence) -> dict[Spin, int]:
    """Decompose E_{j1} (x) ... (x) E_{jn} into irreducible multiplicities."""
    js = [as_spin(j) for j in spins]
    if not js:
        raise ValueError("need at least one spin")
    counts = {int(2 * js[0]): 1}
    for j in js[1:]:
        counts = _product(counts, {int(2 * j): 1})
    return {Fraction(l2, 2): m for l2, m in sorted(counts.items())}


def rep_decomposition(rep: SpinRep) -> dict[int, int]:
    counts: dict[int, int] = {}
    for j in rep.summands:
        j2 = int(2 * j)
        counts[j2] = counts.get(j2, 0) + 1
    return counts


def power_decompose(rep: SpinRep, power: int) -> dict[Spin, int]:
    """Decomposition of rep^(x)power, distributing over the summands."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    base = rep_decomposition(rep)
    counts = dict(base)
    for _ in range(power - 1):
        counts = _product(counts, base)
    return {Fraction(l2, 2): m for l2, m in sorted(counts.items())}


def trivial_multiplicity(rep: SpinRep, power: int) -> int:
    """Multiplicity of the trivial summand E_0 in rep^(x)power."""
    return power_decompose(rep, power).get(Fraction(0), 0)


# ---------------------------------------------------------------------------
# Lie structure constants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieData:
    """Validated structure constants with the orthonormal metric implied."""

    dimension: int
    f: EquivariantTensor


_BUILTIN_TABLES = {"su2": eps_tensor}


def lie_data(table, dim: int | None = None, tolerance: float | None = None) -> LieData:
    """Validate a structure-constant table (builtin name or array-like).

    Raises NotAntisymmetric or JacobiFailed with a 1-based witness index
    when the table is not a Lie bracket in an orthonormal basis.
    """
    if isinstance(table, str):
        try:
            tensor = _BUILTIN_TABLES[table]()
        except KeyError:
            raise KeyError(
                f"unknown builtin table {table!r}; available: {', '.join(sorted(_BUILTIN_TABLES))}"
            ) from None
    elif isinstance(table, EquivariantTensor):
        tensor = table
    else:
        tensor = make_tensor(table, label="f")
    if dim is not None and tensor.dim != dim:
        raise ShapeMismatch(f"declared dimension {dim} but table has dimension {tensor.dim}")
    witness = jacobi_violation(tensor, tolerance)
    if witness is not None:
        raise JacobiFailed(witness)
    return LieData(tensor.dim, tensor)
