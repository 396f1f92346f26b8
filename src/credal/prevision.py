"""Lower previsions, credal sets, and natural extension.

A lower prevision assigns each gamble in a finite assessment set a supremum
acceptable buying price. The probability mass functions compatible with all
those prices form a polytope, the credal set. Natural extension evaluates
the lower or upper expectation of any gamble as the exact optimum of a
linear program over that polytope, and the two consistency diagnostics
(avoiding sure loss, coherence) fall out of the same machinery.

>>> from fractions import Fraction
>>> from .model import PossibilitySpace, Gamble
>>> space = PossibilitySpace(("H", "T"))
>>> heads = Gamble.indicator(space, "H")
>>> model = LowerPrevisionModel(
...     space,
...     (Assessment(heads, Fraction(7, 25)), Assessment(-heads, Fraction(-7, 10))),
... )
>>> natural_extension_lower(model, heads).value
Fraction(7, 25)
>>> natural_extension_upper(model, heads).value
Fraction(7, 10)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .lp import EQ, GE, LE, Constraint, LinearProgram, Polytope, enumerate_vertices, solve
from .model import Gamble, ModelError, PossibilitySpace, ScalarLike, as_scalar

_ZERO = Fraction(0)
_ONE = Fraction(1)


def expectation(mu: Sequence[Fraction], gamble: Gamble) -> Fraction:
    """Expectation of the gamble under the mass function mu.

    >>> space = PossibilitySpace(("H", "T"))
    >>> expectation((Fraction(1, 2), Fraction(1, 2)), Gamble(space, (4, 0)))
    Fraction(2, 1)
    """
    if len(mu) != len(gamble.values):
        raise ModelError("mass function length does not match the space")
    return sum((p * v for p, v in zip(mu, gamble.values)), _ZERO)


def probability_vector(
    space: PossibilitySpace,
    values: Union[Mapping[str, ScalarLike], Sequence[ScalarLike]],
) -> tuple[Fraction, ...]:
    """Validate and normalize a mass function given as mapping or sequence."""
    if isinstance(values, Mapping):
        gamble = Gamble.from_mapping(space, values)
        out = gamble.values
    else:
        out = tuple(as_scalar(v) for v in values)
        if len(out) != len(space):
            raise ModelError(
                f"expected {len(space)} probabilities, got {len(out)}"
            )
    if any(p < 0 for p in out):
        raise ModelError("probabilities must be nonnegative")
    total = sum(out, _ZERO)
    if total != 1:
        raise ModelError(f"probabilities must sum to 1, got {total}")
    return out


@dataclass(frozen=True)
class Assessment:
    """One priced gamble: lower is the supremum acceptable buying price."""

    gamble: Gamble
    lower: Fraction

    def __init__(self, gamble: Gamble, lower: ScalarLike):
        object.__setattr__(self, "gamble", gamble)
        object.__setattr__(self, "lower", as_scalar(lower))

    @classmethod
    def from_upper(cls, gamble: Gamble, upper: ScalarLike) -> "Assessment":
        """Encode a selling price: an upper bound on f is a lower bound on -f."""
        return cls(-gamble, -as_scalar(upper))


@dataclass(frozen=True)
class LowerPrevisionModel:
    """A finite set of assessments over one possibility space.

    The assessment list may be empty (the vacuous model: complete
    ignorance), and the same gamble may appear more than once; the
    strongest price governs through the conjunction of constraints.
    """

    space: PossibilitySpace
    assessments: tuple[Assessment, ...]

    def __init__(self, space: PossibilitySpace, assessments: Iterable[Assessment] = ()):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "assessments", tuple(assessments))
        for k, a in enumerate(self.assessments):
            if a.gamble.space != space:
                raise ModelError(f"assessment {k} is on a different space")

    @property
    def is_vacuous(self) -> bool:
        return not self.assessments


@dataclass(frozen=True)
class CredalSet:
    """The polytope of mass functions compatible with a model.

    Constraint rows are ordered deterministically: the sum-to-one row
    first, then one lower-bound row per assessment in input order; the
    nonnegativity of each mass is carried by the polytope's variable
    flags.
    """

    space: PossibilitySpace
    constraints: Polytope

    def contains(self, mu: Sequence[Fraction]) -> bool:
        return self.constraints.contains(mu)

    def vertices(self) -> list[tuple[Fraction, ...]]:
        """All extreme points, exactly (within the enumeration cap)."""
        return enumerate_vertices(self.constraints)

    def is_empty(self) -> bool:
        lp = LinearProgram(
            objective=(_ZERO,) * len(self.space),
            sense="min",
            constraints=self.constraints.constraints,
            nonneg=self.constraints.nonneg,
        )
        return not solve(lp).is_optimal


def build_credal_set(model: LowerPrevisionModel) -> CredalSet:
    """The credal set of a model; the full simplex when vacuous.

    >>> space = PossibilitySpace(("H", "T"))
    >>> build_credal_set(LowerPrevisionModel(space)).vertices()
    [(Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))]
    """
    n = len(model.space)
    rows = [Constraint((_ONE,) * n, EQ, _ONE)]
    rows.extend(
        Constraint(a.gamble.values, GE, a.lower) for a in model.assessments
    )
    return CredalSet(model.space, Polytope(rows, (True,) * n))


@dataclass(frozen=True)
class SureLossCertificate:
    """A convex combination of assessments that guarantees a net loss.

    Paying the assessed prices for the weighted gambles costs more, in
    every state, than the combination can ever pay back; margin is the
    guaranteed shortfall per unit stake.
    """

    weights: tuple[Fraction, ...]
    margin: Fraction


class SureLossError(RuntimeError):
    """The model incurs sure loss; carries the violating certificate."""

    def __init__(self, certificate: SureLossCertificate):
        super().__init__(
            "assessments incur a sure loss "
            f"(guaranteed shortfall {certificate.margin} per unit stake)"
        )
        self.certificate = certificate


def sure_loss_certificate(model: LowerPrevisionModel) -> Optional[SureLossCertificate]:
    """The best sure-loss certificate, or None when the model avoids sure loss.

    Maximizes the guaranteed shortfall of a convex combination of
    assessments: weights w with sum 1 and, in every state x, the combined
    payoff sum_i w_i f_i(x) at most t, paying sum_i w_i lower_i. The model
    incurs sure loss exactly when the optimal shortfall is positive.
    """
    r = len(model.assessments)
    if r == 0:
        return None
    n = len(model.space)
    # variables: w_1 .. w_r, then t
    rows = [
        Constraint(
            tuple(a.gamble.values[x] for a in model.assessments) + (-_ONE,),
            LE,
            _ZERO,
        )
        for x in range(n)
    ]
    rows.append(Constraint((_ONE,) * r + (_ZERO,), EQ, _ONE))
    lp = LinearProgram(
        objective=tuple(a.lower for a in model.assessments) + (-_ONE,),
        sense="max",
        constraints=rows,
        nonneg=(True,) * r + (False,),
    )
    out = solve(lp)
    if not out.is_optimal:
        raise ModelError("sure-loss certificate program failed to solve")
    if out.value <= 0:
        return None
    return SureLossCertificate(out.point[:r], out.value)


def avoids_sure_loss(model: LowerPrevisionModel) -> bool:
    """True iff the credal set is non-empty."""
    return not build_credal_set(model).is_empty()


@dataclass(frozen=True)
class ExtensionValue:
    """An exact extension value together with a mass function attaining it."""

    value: Fraction
    witness: tuple[Fraction, ...]


def _extension(model: LowerPrevisionModel, gamble: Gamble, sense: str) -> ExtensionValue:
    if gamble.space != model.space:
        raise ModelError("gamble is on a different space than the model")
    credal = build_credal_set(model)
    lp = LinearProgram(
        objective=gamble.values,
        sense=sense,
        constraints=credal.constraints.constraints,
        nonneg=credal.constraints.nonneg,
    )
    out = solve(lp)
    if out.status == "infeasible":
        certificate = sure_loss_certificate(model)
        if certificate is None:
            raise ModelError("credal set is empty but no sure-loss certificate was found")
        raise SureLossError(certificate)
    if not out.is_optimal:  # the simplex is bounded, so this is a solver fault
        raise ModelError(f"natural extension program is {out.status}")
    return ExtensionValue(out.value, out.point)


def natural_extension_lower(model: LowerPrevisionModel, gamble: Gamble) -> ExtensionValue:
    """Lower expectation of the gamble: exact minimum over the credal set.

    Raises SureLossError (with certificate) when the credal set is empty.
    """
    return _extension(model, gamble, "min")


def natural_extension_upper(model: LowerPrevisionModel, gamble: Gamble) -> ExtensionValue:
    """Upper expectation of the gamble: exact maximum over the credal set."""
    return _extension(model, gamble, "max")


def coherence_report(model: LowerPrevisionModel) -> list[tuple[int, Fraction]]:
    """Per-assessment gap between natural extension and assessed price.

    Each entry is (assessment index, lower expectation minus assessed
    lower). Gaps are always nonnegative; the model is coherent exactly
    when every gap is zero. A positive gap means the assessments jointly
    imply a better price than the one stated; nothing is auto-corrected.
    """
    return [
        (k, natural_extension_lower(model, a.gamble).value - a.lower)
        for k, a in enumerate(model.assessments)
    ]


def is_coherent(model: LowerPrevisionModel) -> bool:
    return all(gap == 0 for _, gap in coherence_report(model))
