"""Tests for the exact rational simplex solver.

The independent oracle is Fourier-Motzkin elimination: a complete, slow, and
entirely different decision procedure for linear feasibility over the
rationals.  Feasibility verdicts and optimal objective values are checked
against it.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower.exactlp import EQ, GE, LE, maximize


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle
# ---------------------------------------------------------------------------

def fm_feasible(rows: list[tuple[list[Fraction], str, Fraction]],
                num_vars: int) -> bool:
    """Decide feasibility of {rows, x >= 0} by Fourier-Motzkin elimination.

    Everything is normalized to <= constraints; nonnegativity adds
    -x_j <= 0.  Each equality with a nonzero coefficient is solved for one
    variable, which is substituted everywhere (its nonnegativity row included)
    before elimination starts.  Split into two inequalities instead, an
    equality lands on both sides of every elimination step, and four variables
    can then grow the system past a billion rows.
    """
    system: list[tuple[list[Fraction], Fraction]] = []
    equalities: list[tuple[list[Fraction], Fraction]] = []

    def push(coeffs: list[Fraction], rhs: Fraction) -> None:
        system.append(([Fraction(c) for c in coeffs], Fraction(rhs)))

    for coeffs, sense, rhs in rows:
        if sense == LE:
            push(coeffs, rhs)
        elif sense == GE:
            push([-c for c in coeffs], -rhs)
        elif sense == EQ:
            equalities.append(([Fraction(c) for c in coeffs], Fraction(rhs)))
        else:
            raise ValueError(sense)
    for j in range(num_vars):
        unit = [Fraction(0)] * num_vars
        unit[j] = Fraction(-1)
        push(unit, Fraction(0))

    while equalities:
        eq, eq_rhs = equalities.pop()
        pivot = next((j for j, c in enumerate(eq) if c != 0), None)
        if pivot is None:
            if eq_rhs != 0:
                return False
            continue

        def substitute(row):
            coeffs, rhs = row
            factor = coeffs[pivot] / eq[pivot]
            return [c - factor * e for c, e in zip(coeffs, eq)], rhs - factor * eq_rhs

        equalities = [substitute(row) for row in equalities]
        system = [substitute(row) for row in system]

    for j in range(num_vars):
        lower, upper, rest = [], [], []
        for coeffs, rhs in system:
            if coeffs[j] > 0:
                upper.append((coeffs, rhs))
            elif coeffs[j] < 0:
                lower.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        system = rest
        for lc, lr in lower:
            for uc, ur in upper:
                scale_l, scale_u = -lc[j], uc[j]
                combo = [
                    scale_u * lc[i] + scale_l * uc[i] for i in range(num_vars)
                ]
                system.append((combo, scale_u * lr + scale_l * ur))

    return all(rhs >= 0 for _, rhs in system)


def fm_objective_reachable(rows, num_vars, objective, target) -> bool:
    """Oracle: can the objective reach at least ``target`` over the region?"""
    extended = list(rows) + [(list(objective), GE, target)]
    return fm_feasible(extended, num_vars)


# ---------------------------------------------------------------------------
# Known optima
# ---------------------------------------------------------------------------

class TestKnownPrograms:
    def test_single_variable_cap(self):
        s = maximize([Fraction(1)], [([Fraction(1)], LE, Fraction(5))])
        assert s.status == "optimal"
        assert s.objective == 5
        assert s.x == (Fraction(5),)

    def test_equality_and_inequality_mix(self):
        s = maximize(
            [Fraction(1), Fraction(0)],
            [
                ([Fraction(1), Fraction(1)], EQ, Fraction(3)),
                ([Fraction(1), Fraction(-1)], GE, Fraction(1)),
            ],
        )
        assert s.status == "optimal"
        assert s.objective == 3
        assert s.x == (Fraction(3), Fraction(0))

    def test_fractional_optimum_is_exact(self):
        # max x + y s.t. 3x + y <= 1, x + 3y <= 1 has optimum 1/2 at (1/4, 1/4).
        s = maximize(
            [Fraction(1), Fraction(1)],
            [
                ([Fraction(3), Fraction(1)], LE, Fraction(1)),
                ([Fraction(1), Fraction(3)], LE, Fraction(1)),
            ],
        )
        assert s.status == "optimal"
        assert s.objective == Fraction(1, 2)
        assert s.x == (Fraction(1, 4), Fraction(1, 4))

    def test_infeasible_program(self):
        s = maximize(
            [Fraction(1)],
            [([Fraction(1)], GE, Fraction(2)), ([Fraction(1)], LE, Fraction(1))],
        )
        assert s.status == "infeasible"
        assert s.x is None and s.objective is None

    def test_unbounded_program(self):
        s = maximize([Fraction(1)], [([Fraction(0)], LE, Fraction(1))])
        assert s.status == "unbounded"

    def test_negative_rhs_handled(self):
        # -x <= -2 means x >= 2.
        s = maximize(
            [Fraction(-1)], [([Fraction(-1)], LE, Fraction(-2))]
        )
        assert s.status == "optimal"
        assert s.x == (Fraction(2),)

    def test_degenerate_redundant_equalities(self):
        s = maximize(
            [Fraction(1), Fraction(1)],
            [
                ([Fraction(1), Fraction(1)], EQ, Fraction(2)),
                ([Fraction(2), Fraction(2)], EQ, Fraction(4)),
                ([Fraction(1), Fraction(0)], LE, Fraction(1)),
            ],
        )
        assert s.status == "optimal"
        assert s.objective == 2


# ---------------------------------------------------------------------------
# Solution quality invariants
# ---------------------------------------------------------------------------

def _satisfies(rows, x) -> bool:
    for coeffs, sense, rhs in rows:
        value = sum(c * v for c, v in zip(coeffs, x))
        if sense == LE and not value <= rhs:
            return False
        if sense == GE and not value >= rhs:
            return False
        if sense == EQ and value != rhs:
            return False
    return all(v >= 0 for v in x)


small_fraction = st.integers(-3, 3).map(Fraction)
senses = st.sampled_from([LE, GE, EQ])


@st.composite
def random_programs(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 5))
    objective = [draw(small_fraction) for _ in range(num_vars)]
    rows = []
    for _ in range(num_rows):
        coeffs = [draw(small_fraction) for _ in range(num_vars)]
        rows.append((coeffs, draw(senses), draw(small_fraction)))
    return objective, rows


class TestAgainstFourierMotzkin:
    @settings(max_examples=150)
    @given(random_programs())
    def test_feasibility_verdicts_agree(self, program):
        objective, rows = program
        solution = maximize(objective, rows)
        oracle = fm_feasible(rows, len(objective))
        assert (solution.status != "infeasible") == oracle

    @settings(max_examples=150)
    @given(random_programs())
    def test_optimal_solutions_are_feasible_and_unimprovable(self, program):
        objective, rows = program
        solution = maximize(objective, rows)
        if solution.status != "optimal":
            return
        assert _satisfies(rows, solution.x)
        assert sum(
            c * v for c, v in zip(objective, solution.x)
        ) == solution.objective
        # The oracle confirms the value is reachable but epsilon more is not.
        assert fm_objective_reachable(
            rows, len(objective), objective, solution.objective
        )
        assert not fm_objective_reachable(
            rows,
            len(objective),
            objective,
            solution.objective + Fraction(1, 997),
        )

    @settings(max_examples=100)
    @given(random_programs(), st.data())
    def test_scaling_rows_never_changes_the_verdict(self, program, data):
        objective, rows = program
        scales = [
            Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
            for _ in rows
        ]
        scaled = [
            ([s * c for c in coeffs], sense, s * rhs)
            for s, (coeffs, sense, rhs) in zip(scales, rows)
        ]
        original = maximize(objective, rows)
        rescaled = maximize(objective, scaled)
        assert original.status == rescaled.status
        if original.status == "optimal":
            assert original.objective == rescaled.objective
