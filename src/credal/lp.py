"""Exact-arithmetic linear programming and small-polytope vertex enumeration.

Dense two-phase primal simplex over rationals. The tableau is an
integer-preserving one: Python integers over one positive common
denominator, pivoted fraction-free (Edmonds 1967, Bareiss 1968), with
Fraction only where coefficients come in and points go out. Bland's rule
(smallest-index entering column, smallest basic index on ratio ties) makes
termination unconditional; every returned point is a basic feasible
solution and every optimum is exact. Built for desk-scale programs, not
for sparsity.

Vertex enumeration solves its square systems in plain Fraction arithmetic
and serves as the independent oracle the simplex is tested against.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .model import ModelError, ScalarLike, as_scalar

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

MAX_VERTEX_VARS = 8
MAX_VERTEX_CONSTRAINTS = 24


class CapacityError(RuntimeError):
    """Vertex enumeration asked to exceed its configured size cap."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __init__(self, coeffs: Iterable[ScalarLike], relation: str, rhs: ScalarLike):
        if relation not in _RELATIONS:
            raise ModelError(f"unknown relation {relation!r}")
        object.__setattr__(self, "coeffs", tuple(as_scalar(c) for c in coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", as_scalar(rhs))

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, point))
        if self.relation == LE:
            return lhs <= self.rhs
        if self.relation == GE:
            return lhs >= self.rhs
        return lhs == self.rhs


def _check_rows(n: int, constraints: Sequence[Constraint]) -> None:
    for k, row in enumerate(constraints):
        if len(row.coeffs) != n:
            raise ModelError(f"constraint {k} has {len(row.coeffs)} coefficients, expected {n}")


@dataclass(frozen=True)
class Polytope:
    """Constraint set without an objective; nonneg[j] pins variable j >= 0."""

    constraints: tuple[Constraint, ...]
    nonneg: tuple[bool, ...]

    def __init__(self, constraints: Iterable[Constraint], nonneg: Iterable[bool]):
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "nonneg", tuple(bool(b) for b in nonneg))
        if not self.nonneg:
            raise ModelError("polytope needs at least one variable")
        _check_rows(len(self.nonneg), self.constraints)

    @property
    def n_vars(self) -> int:
        return len(self.nonneg)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.n_vars:
            return False
        if any(flag and x < 0 for flag, x in zip(self.nonneg, point)):
            return False
        return all(row.holds_at(point) for row in self.constraints)


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    sense: str  # "max" | "min"
    constraints: tuple[Constraint, ...]
    nonneg: tuple[bool, ...]

    def __init__(
        self,
        objective: Iterable[ScalarLike],
        sense: str,
        constraints: Iterable[Constraint],
        nonneg: Iterable[bool],
    ):
        if sense not in ("max", "min"):
            raise ModelError(f"sense must be 'max' or 'min', got {sense!r}")
        object.__setattr__(self, "objective", tuple(as_scalar(c) for c in objective))
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "nonneg", tuple(bool(b) for b in nonneg))
        if not self.objective:
            raise ModelError("linear program needs at least one variable")
        if len(self.nonneg) != len(self.objective):
            raise ModelError("nonneg flags must match the variable count")
        _check_rows(len(self.objective), self.constraints)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def polytope(self) -> Polytope:
        return Polytope(self.constraints, self.nonneg)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


INFEASIBLE = LpOutcome("infeasible")
UNBOUNDED = LpOutcome("unbounded")


# -- solve counting ---------------------------------------------------------
#
# Criteria report how many simplex runs they needed (the prefilter contract
# is about this number). Counters stack: an outer context sees the solves of
# everything nested inside it. Context-local, so concurrent evaluations
# cannot see each other's counts.

class SolveCounter:
    __slots__ = ("solves",)

    def __init__(self) -> None:
        self.solves = 0


_counters: ContextVar[tuple[SolveCounter, ...]] = ContextVar("lp_counters", default=())


@contextmanager
def count_solves() -> Iterator[SolveCounter]:
    counter = SolveCounter()
    token = _counters.set(_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _counters.reset(token)


# -- simplex kernel ---------------------------------------------------------
#
# The tableau is kept as Python integers over one positive common
# denominator d. A pivot on p = rows[r][c] sets every other row to
# (row * p - row[c] * rows[r]) // d, keeps the pivot row and sets d to p
# (Edmonds 1967; Bareiss 1968). By Sylvester's identity the division is
# exact, so no gcd runs inside the loop.
#
# Each constraint row is scaled to integers by the lcm s_i of its own
# denominators while its artificial column stays the unit vector, so
# artificial i stands for s_i times the artificial of the exact row. Phase
# one gives it weight 1/s_i, which keeps the phase-one objective, and so
# every reduced cost, that of the Fraction tableau. rows / d is then the
# Fraction tableau, except that a row whose artificial is basic is s_i times
# it, which changes no sign and no ratio: Bland's rule makes the same
# choices and every point is the same. Artificial columns never enter and
# are never read, so they are not stored; their basis indices
# art_start + i still take part in Bland's tie-break.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows: list[list[int]], cost: list[int], r: int, c: int, d: int) -> int:
    """Fraction-free pivot on rows[r][c]; returns the new common denominator."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(v * p - f * w) // d for v, w in zip(row, prow)]
    f = cost[c]
    cost[:] = [(v * p - f * w) // d for v, w in zip(cost, prow)]
    return p


def _run_simplex(
    rows: list[list[int]],
    cost: list[int],
    basis: list[int],
    ncols: int,
    d: int,
) -> tuple[str, int]:
    """Minimize with Bland's rule; returns the status and the final denominator.

    cost holds the reduced costs times a positive constant, cost[-1] = -value
    on the same scale. The entering test (first negative reduced cost) and
    the ratio test (rhs_i / a_i by cross-multiplication, ties to the smaller
    basic index) see only signs and ratios, which d > 0 leaves as they are
    in the exact tableau.
    """
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal", d
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave >= 0:
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, num, den = i, row[-1], a
        if leave < 0:
            return "unbounded", d
        d = _pivot(rows, cost, leave, enter, d)
        basis[leave] = enter


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of the program, or Infeasible/Unbounded.

    Two-phase simplex with Bland's rule: phase one minimizes total
    artificial infeasibility, phase two the actual objective. The tableau
    is integer over one common denominator and pivots are fraction-free;
    Fraction is used only to read the coefficients and to return the
    point. The returned point satisfies every constraint exactly and the
    value is objective . point, no tolerance.
    """
    for counter in _counters.get():
        counter.solves += 1

    # structural columns: nonneg variables map to one column, free ones split
    col_var: list[tuple[int, int]] = []  # (original var, sign)
    for j, is_nonneg in enumerate(lp.nonneg):
        col_var.append((j, 1))
        if not is_nonneg:
            col_var.append((j, -1))
    n_struct = len(col_var)

    # equality rows with slack/surplus columns, scaled to integers with
    # rhs >= 0; the artificial columns are implicit
    m = len(lp.constraints)
    n_slack = sum(1 for c in lp.constraints if c.relation != EQ)
    art_start = n_struct + n_slack
    width = art_start + 1  # + rhs

    rows: list[list[int]] = []
    scales: list[int] = []
    slack_idx = 0
    for con in lp.constraints:
        values = con.coeffs + (con.rhs,)
        scale = lcm(*(v.denominator for v in values))
        scales.append(scale)
        if con.rhs < 0:
            scale = -scale
        ints = [v.numerator * scale // v.denominator for v in values]
        row = [sign * ints[j] for j, sign in col_var] + [0] * n_slack + [ints[-1]]
        if con.relation != EQ:
            row[n_struct + slack_idx] = scale if con.relation == LE else -scale
            slack_idx += 1
        rows.append(row)

    basis = [art_start + i for i in range(m)]
    d = 1

    # phase one: minimize the artificial total, artificial i weighted 1/s_i
    total = lcm(*scales)
    weights = [total // s for s in scales]
    cost = [-sum(w * row[j] for w, row in zip(weights, rows)) for j in range(width)]
    _, d = _run_simplex(rows, cost, basis, art_start, d)
    if cost[-1] != 0:
        return INFEASIBLE

    # drive leftover artificials out of the basis; all-zero rows are
    # redundant. A negative pivot is made positive by negating its row
    # (the row's rhs is 0), which keeps d > 0.
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= art_start:
            pivot_col = next(
                (j for j in range(art_start) if rows[i][j] != 0), None
            )
            if pivot_col is None:
                drop.append(i)
            else:
                if rows[i][pivot_col] < 0:
                    rows[i] = [-v for v in rows[i]]
                d = _pivot(rows, cost, i, pivot_col, d)
                basis[i] = pivot_col
    for i in reversed(drop):
        del rows[i]
        del basis[i]

    # phase two on the real objective (internally minimized), scaled to
    # integers by the lcm of its denominators
    scale = lcm(*(c.denominator for c in lp.objective))
    if lp.sense == "max":
        scale = -scale
    ints = [c.numerator * scale // c.denominator for c in lp.objective]
    struct_cost = [sign * ints[j] for j, sign in col_var]
    cost = [d * c for c in struct_cost] + [0] * (n_slack + 1)
    for row, b in zip(rows, basis):
        cb = struct_cost[b] if b < n_struct else 0
        if cb:
            cost = [v - cb * w for v, w in zip(cost, row)]
    status, d = _run_simplex(rows, cost, basis, art_start, d)
    if status == "unbounded":
        return UNBOUNDED

    numerators = [0] * lp.n_vars
    for row, b in zip(rows, basis):
        if b < n_struct:
            j, sign = col_var[b]
            numerators[j] += sign * row[-1]
    point = tuple(Fraction(v, d) for v in numerators)
    opt_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    return LpOutcome("optimal", opt_value, point)


# -- duality ----------------------------------------------------------------

def dual_program(lp: LinearProgram) -> LinearProgram:
    """Mechanical LP dual; strong duality makes it an exact cross-check.

    Inequality rows are first normalized ('<=' for a max primal, '>=' for a
    min primal) so every dual variable is plain nonnegative; equality rows
    give free dual variables.
    """
    want = LE if lp.sense == "max" else GE
    norm_rows: list[tuple[tuple[Fraction, ...], Fraction, bool]] = []
    for con in lp.constraints:
        if con.relation == EQ:
            norm_rows.append((con.coeffs, con.rhs, False))
        elif con.relation == want:
            norm_rows.append((con.coeffs, con.rhs, True))
        else:
            norm_rows.append((tuple(-c for c in con.coeffs), -con.rhs, True))

    dual_sense = "min" if lp.sense == "max" else "max"
    dual_rel = GE if lp.sense == "max" else LE
    dual_constraints = []
    for j in range(lp.n_vars):
        col = tuple(row[0][j] for row in norm_rows)
        rel = dual_rel if lp.nonneg[j] else EQ
        dual_constraints.append(Constraint(col, rel, lp.objective[j]))
    return LinearProgram(
        objective=tuple(row[1] for row in norm_rows),
        sense=dual_sense,
        constraints=dual_constraints,
        nonneg=tuple(row[2] for row in norm_rows),
    )


# -- vertex enumeration -----------------------------------------------------

def _solve_square(
    a: list[list[Fraction]], b: list[Fraction]
) -> Optional[list[Fraction]]:
    """Unique solution of an n x n rational system, or None if singular."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = _ONE / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def enumerate_vertices(
    poly: Polytope,
    *,
    max_vars: int = MAX_VERTEX_VARS,
    max_constraints: int = MAX_VERTEX_CONSTRAINTS,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope, deduplicated exactly and sorted.

    Exhaustive active-set enumeration: every n-subset of bounding
    hyperplanes (constraints plus nonnegativity walls) with a nonsingular
    square system yields a candidate basic solution, kept iff feasible.
    Empty result means the polytope is empty. Deliberately capped: cost
    grows combinatorially, so exceeding the cap raises CapacityError.
    """
    n = poly.n_vars
    if n > max_vars or len(poly.constraints) > max_constraints:
        raise CapacityError(
            f"vertex enumeration capped at {max_vars} variables and "
            f"{max_constraints} constraints; got {n} and {len(poly.constraints)}"
        )
    planes: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (con.coeffs, con.rhs) for con in poly.constraints
    ]
    for j, is_nonneg in enumerate(poly.nonneg):
        if is_nonneg:
            wall = tuple(_ONE if k == j else _ZERO for k in range(n))
            planes.append((wall, _ZERO))

    found: set[tuple[Fraction, ...]] = set()
    for combo in combinations(range(len(planes)), n):
        x = _solve_square([list(planes[i][0]) for i in combo], [planes[i][1] for i in combo])
        if x is not None and poly.contains(x):
            found.add(tuple(x))
    if not found:
        feasibility = LinearProgram(
            objective=(_ZERO,) * n,
            sense="min",
            constraints=poly.constraints,
            nonneg=poly.nonneg,
        )
        if solve(feasibility).is_optimal:
            raise ModelError("polytope is non-empty but has no vertices (not pointed)")
        return []
    return sorted(found)
