import hashlib
import random
from fractions import Fraction

import pytest

from credal import (
    CapacityError,
    Constraint,
    LinearProgram,
    Polytope,
    count_solves,
    dual_program,
    enumerate_vertices,
    solve,
)
from credal.lp import EQ, GE, LE
from conftest import rational


def lp(objective, sense, rows, nonneg=None):
    n = len(objective)
    return LinearProgram(
        objective,
        sense,
        tuple(Constraint(c, rel, rhs) for c, rel, rhs in rows),
        (True,) * n if nonneg is None else nonneg,
    )


class TestKnownPrograms:
    def test_single_upper_bound(self):
        out = solve(lp((1,), "max", [((1,), LE, 1)]))
        assert out.status == "optimal"
        assert out.value == 1 and out.point == (Fraction(1),)

    def test_contradictory_bounds_infeasible(self):
        out = solve(lp((1,), "max", [((1,), LE, -1)]))
        assert out.status == "infeasible"
        assert out.value is None and out.point is None

    def test_unbounded(self):
        assert solve(lp((1,), "max", [])).status == "unbounded"

    def test_envelope_minimum(self):
        # min 3p + 2q over the band 7/25 <= p <= 7/10 on the simplex
        out = solve(
            lp(
                (3, 2),
                "min",
                [
                    ((1, 1), EQ, 1),
                    ((1, 0), GE, Fraction(7, 25)),
                    ((1, 0), LE, Fraction(7, 10)),
                ],
            )
        )
        assert out.value == Fraction(57, 25)
        assert out.point == (Fraction(7, 25), Fraction(18, 25))

    def test_free_variable(self):
        out = solve(lp((1,), "min", [((1,), GE, -3)], nonneg=(False,)))
        assert out.value == -3 and out.point == (Fraction(-3),)

    def test_equality_only(self):
        out = solve(lp((1, 1), "min", [((1, 2), EQ, 4), ((1, 0), EQ, 2)]))
        assert out.value == 3 and out.point == (Fraction(2), Fraction(1))

    def test_redundant_equality_rows(self):
        # phase one leaves an artificial stuck in a dependent row; it must
        # be dropped, not mistaken for infeasibility
        out = solve(lp((1, 1), "min", [((1, 1), EQ, 1), ((2, 2), EQ, 2)]))
        assert out.status == "optimal" and out.value == 1

    def test_degenerate_cycling_guard(self):
        # classic cycling construction; Bland's rule must terminate at -1/20
        out = solve(
            lp(
                (Fraction(-3, 4), 150, Fraction(-1, 50), 6),
                "min",
                [
                    ((Fraction(1, 4), -60, Fraction(-1, 25), 9), LE, 0),
                    ((Fraction(1, 2), -90, Fraction(-1, 50), 3), LE, 0),
                    ((0, 0, 1, 0), LE, 1),
                ],
            )
        )
        assert out.status == "optimal" and out.value == Fraction(-1, 20)

    def test_ratio_tie_goes_to_smaller_basic_index(self):
        # the optimum face is the edge x = 5/2; which end comes back is
        # decided by a degenerate ratio tie, and the larger index gives (5/2, 1/14)
        out = solve(
            lp(
                (1, 0),
                "max",
                [
                    ((-1, Fraction(-7, 3)), GE, Fraction(-8, 3)),
                    ((Fraction(-13, 5), -3), LE, Fraction(-27, 5)),
                    ((1, 0), LE, Fraction(5, 2)),
                    ((0, 1), LE, Fraction(1, 2)),
                ],
            )
        )
        assert out.point == (Fraction(5, 2), Fraction(0))

    def test_phase_one_path_with_unequal_row_scales(self):
        # a feasibility program answers with the vertex phase one ends on;
        # rows scaled to integers by different lcms (1, 15, 5) must not
        # change that path: summing the scaled rows unweighted ends at (-2, 8/3)
        out = solve(
            lp(
                (0, 0),
                "max",
                [
                    ((-2, -3), LE, -4),
                    ((Fraction(4, 3), Fraction(-7, 5)), LE, Fraction(-62, 15)),
                    ((Fraction(9, 5), -1), LE, Fraction(-13, 5)),
                    ((1, 0), LE, 0),
                    ((1, 0), GE, -2),
                    ((0, 1), LE, 4),
                    ((0, 1), GE, 0),
                ],
                nonneg=(False, False),
            )
        )
        assert out.point == (Fraction(0), Fraction(62, 21))

    def test_zero_objective_is_feasibility(self):
        out = solve(lp((0, 0), "max", [((1, 1), EQ, 1)]))
        assert out.status == "optimal" and out.value == 0


def random_bounded_lp(rng):
    """Feasible by anchor, bounded by a box; exercises all three relations."""
    n = rng.randint(1, 4)
    anchor = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n))
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        at_anchor = sum(c * x for c, x in zip(coeffs, anchor))
        kind = rng.choice((LE, GE, EQ))
        if kind == LE:
            rows.append((coeffs, LE, at_anchor + Fraction(rng.randint(0, 8), 2)))
        elif kind == GE:
            rows.append((coeffs, GE, at_anchor - Fraction(rng.randint(0, 8), 2)))
        else:
            rows.append((coeffs, EQ, at_anchor))
    for j in range(n):
        box = tuple(Fraction(int(k == j)) for k in range(n))
        rows.append((box, LE, anchor[j] + rng.randint(1, 5)))
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    sense = rng.choice(("max", "min"))
    return lp(objective, sense, rows), anchor


class TestRandomizedInvariants:
    def test_resubstitution_exactness(self):
        rng = random.Random(42)
        for _ in range(150):
            program, anchor = random_bounded_lp(rng)
            assert program.polytope.contains(anchor)
            out = solve(program)
            assert out.status == "optimal"
            assert program.polytope.contains(out.point)
            assert sum(
                c * x for c, x in zip(program.objective, out.point)
            ) == out.value

    def test_min_max_negation(self):
        rng = random.Random(43)
        for _ in range(100):
            program, _ = random_bounded_lp(rng)
            flipped = LinearProgram(
                tuple(-c for c in program.objective),
                "min" if program.sense == "max" else "max",
                program.constraints,
                program.nonneg,
            )
            assert solve(program).value == -solve(flipped).value

    def test_strong_duality(self):
        rng = random.Random(44)
        for _ in range(100):
            program, _ = random_bounded_lp(rng)
            primal = solve(program)
            dual = solve(dual_program(program))
            assert primal.status == dual.status == "optimal"
            assert primal.value == dual.value

    def test_vertex_oracle_equivalence(self):
        rng = random.Random(45)
        for _ in range(80):
            program, _ = random_bounded_lp(rng)
            vertices = enumerate_vertices(program.polytope)
            assert vertices
            best = min(
                sum(c * x for c, x in zip(program.objective, v)) for v in vertices
            )
            if program.sense == "min":
                assert solve(program).value == best
            else:
                assert solve(program).value == max(
                    sum(c * x for c, x in zip(program.objective, v))
                    for v in vertices
                )


def random_rich_lp(rng):
    """Reaches the kernel paths that random_bounded_lp does not.

    Coefficients have denominators up to 6, some variables are free and
    right-hand sides can be negative. Rows run through a hidden anchor,
    often tightly (ties in the ratio test), and equality rows are repeated
    as linear combinations of each other, which leaves artificials in the
    basis after phase one. Zero objectives (feasibility programs, where
    phase one alone picks the point), objectives parallel to a row and
    objectives with zero coefficients have many optimal vertices, so the
    pivot path decides the point.
    A few rows are violated at the anchor and some programs have no box,
    so infeasible and unbounded outcomes occur too.
    """
    n = rng.randint(1, 4)
    nonneg = tuple(rng.random() < 0.7 for _ in range(n))
    anchor = tuple(
        abs(rational(rng, span=2)) if flag else rational(rng, span=2) for flag in nonneg
    )

    def through_anchor(coeffs):
        return sum((c * x for c, x in zip(coeffs, anchor)), Fraction(0))

    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(
            rational(rng, span=3) if rng.random() < 0.7 else Fraction(0) for _ in range(n)
        )
        kind = rng.choice((LE, GE, EQ))
        gap = rng.choice((0, 0, abs(rational(rng, span=2))))
        if rng.random() < 0.1:
            gap = -1 - gap
        if kind == LE:
            rows.append((coeffs, LE, through_anchor(coeffs) + gap))
        elif kind == GE:
            rows.append((coeffs, GE, through_anchor(coeffs) - gap))
        else:
            rows.append((coeffs, EQ, through_anchor(coeffs)))
    equalities = [coeffs for coeffs, kind, _ in rows if kind == EQ]
    for _ in range(rng.randint(0, 2) if equalities else 0):
        ka, kb = rational(rng, span=2), rational(rng, span=2)
        a, b = rng.choice(equalities), rng.choice(equalities)
        coeffs = tuple(ka * x + kb * y for x, y in zip(a, b))
        rows.append((coeffs, EQ, through_anchor(coeffs)))
    rng.shuffle(rows)
    if rng.random() < 0.8:
        for j in range(n):
            unit = tuple(Fraction(int(k == j)) for k in range(n))
            rows.append((unit, LE, anchor[j] + rng.randint(0, 3)))
            if not nonneg[j]:
                rows.append((unit, GE, anchor[j] - rng.randint(0, 3)))
    kind = rng.random()
    if kind < 0.2:
        objective = (Fraction(0),) * n
    elif kind < 0.5:
        objective = rng.choice(rows)[0]
    else:
        objective = tuple(
            rational(rng, span=3) if rng.random() < 0.6 else Fraction(0) for _ in range(n)
        )
    return lp(objective, rng.choice(("max", "min")), rows, nonneg)


# sha256 of the outcomes of the 600 programs below, as the Fraction-pivoting
# kernel computed them before the tableau became integer. A change to any
# status, value or point, including which of several optimal vertices is
# returned, changes it.
RICH_OUTCOMES_SHA256 = "395d54a176eea2bd9a8addfbe3caf66ab87e525a6cd18139fa521a7c86760717"


class TestBitIdentity:
    def test_rich_programs_match_pinned_outcomes(self):
        rng = random.Random(46)
        outcomes, statuses = [], set()
        for _ in range(600):
            program = random_rich_lp(rng)
            out = solve(program)
            outcomes.append(repr((out.status, out.value, out.point)))
            statuses.add(out.status)
            if out.is_optimal:
                assert program.polytope.contains(out.point)
                assert out.value == sum(
                    (c * x for c, x in zip(program.objective, out.point)), Fraction(0)
                )
        assert statuses == {"optimal", "infeasible", "unbounded"}
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == RICH_OUTCOMES_SHA256


class TestVertexEnumeration:
    def test_two_state_simplex(self):
        poly = Polytope((Constraint((1, 1), EQ, 1),), (True, True))
        assert enumerate_vertices(poly) == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_band_polytope(self):
        poly = Polytope(
            (
                Constraint((1, 1), EQ, 1),
                Constraint((1, 0), GE, Fraction(7, 25)),
                Constraint((1, 0), LE, Fraction(7, 10)),
            ),
            (True, True),
        )
        assert enumerate_vertices(poly) == [
            (Fraction(7, 25), Fraction(18, 25)),
            (Fraction(7, 10), Fraction(3, 10)),
        ]

    def test_infeasible_gives_empty_list(self):
        poly = Polytope(
            (Constraint((1,), GE, 2), Constraint((1,), LE, 1)), (True,)
        )
        assert enumerate_vertices(poly) == []

    def test_duplicate_constraints_deduped(self):
        rows = (Constraint((1, 1), EQ, 1), Constraint((2, 2), EQ, 2))
        assert len(enumerate_vertices(Polytope(rows, (True, True)))) == 2

    def test_unit_square(self):
        rows = (Constraint((1, 0), LE, 1), Constraint((0, 1), LE, 1))
        assert enumerate_vertices(Polytope(rows, (True, True))) == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ]

    def test_variable_cap(self):
        poly = Polytope((Constraint((1,) * 9, EQ, 1),), (True,) * 9)
        with pytest.raises(CapacityError, match="8 variables"):
            enumerate_vertices(poly)

    def test_constraint_cap(self):
        rows = tuple(Constraint((1,), LE, k) for k in range(1, 26))
        with pytest.raises(CapacityError, match="24 constraints"):
            enumerate_vertices(Polytope(rows, (True,)))

    def test_cap_is_configurable(self):
        poly = Polytope((Constraint((1, 1), EQ, 1),), (True, True))
        with pytest.raises(CapacityError):
            enumerate_vertices(poly, max_vars=1)


class TestSolveCounter:
    def test_counters_nest(self):
        program = lp((1,), "max", [((1,), LE, 1)])
        with count_solves() as outer:
            solve(program)
            with count_solves() as inner:
                solve(program)
            solve(program)
        assert outer.solves == 3
        assert inner.solves == 1

    def test_counter_stops_at_exit(self):
        program = lp((1,), "max", [((1,), LE, 1)])
        with count_solves() as counter:
            solve(program)
        solve(program)
        assert counter.solves == 1
