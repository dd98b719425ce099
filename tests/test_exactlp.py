"""Tests for the exact rational simplex solver.

The independent oracle is Fourier-Motzkin elimination: a complete, slow, and
entirely different decision procedure for linear feasibility over the
rationals.  Feasibility verdicts and optimal objective values are checked
against it.
"""
from __future__ import annotations

import dataclasses
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower import exactlp
from leafpower.exactlp import EQ, GE, LE, Solution, certificate_error, maximize


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

    Before each elimination step every row is scaled by its first nonzero
    coefficient's absolute value, a positive scaling that changes no
    inequality; then exact duplicates and all-zero rows with rhs >= 0 are
    dropped.  So a row and its positive multiples count once, and each row
    that holds x_j leads with +-1 there: a lower and an upper row combine by
    their sum.  The last variable's pairs are never formed, since each would
    leave only 0 <= lr + ur, and the least rhs on each side decides them all.
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
        system = _normalized(system)
        # Variables before j are gone, so a row that holds x_j leads with +-1 there.
        lower = [(c, r) for c, r in system if c[j] < 0]
        upper = [(c, r) for c, r in system if c[j] > 0]
        system = [(c, r) for c, r in system if c[j] == 0]
        if j == num_vars - 1 and lower and upper:
            # Every pair would leave 0 <= lr + ur; the least on each side decides them all.
            if min(r for _, r in lower) + min(r for _, r in upper) < 0:
                return False
            continue
        system += [([a + b for a, b in zip(lc, uc)], lr + ur) for lc, lr in lower for uc, ur in upper]

    return all(rhs >= 0 for _, rhs in system)


def _normalized(system: list[tuple[list[Fraction], Fraction]]) -> list[tuple[list[Fraction], Fraction]]:
    """The rows scaled to a leading coefficient of +-1, each once, less the all-zero rows that hold."""
    rows: dict[tuple[tuple[Fraction, ...], Fraction], None] = {}
    for coeffs, rhs in system:
        lead = next((abs(c) for c in coeffs if c), None)
        if lead is None:
            if rhs >= 0:
                continue
            lead = 1
        rows[tuple(c / lead for c in coeffs), rhs / lead] = None
    return [(list(coeffs), rhs) for coeffs, rhs in rows]


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

    def test_beale_cycling_program_terminates_at_the_optimum(self):
        # Beale (1955): the textbook rule cycles on this program; Bland's
        # rule must not.
        s = maximize(
            [Fraction(3, 4), -20, Fraction(1, 2), -6],
            [
                ([Fraction(1, 4), -8, -1, 9], LE, 0),
                ([Fraction(1, 2), -12, Fraction(-1, 2), 3], LE, 0),
                ([0, 0, 1, 0], LE, 1),
            ],
        )
        assert s.status == "optimal"
        assert s.objective == Fraction(5, 4)
        assert s.x == (1, 0, 1, 0)

    def test_artificial_driven_out_on_a_negative_pivot(self):
        # Phase 1 ends with both equality artificials basic at 0; driving the
        # second out pivots on its -1 entry, which flips the sign of the
        # common denominator, and the first row becomes redundant.
        s = maximize(
            [1, 0],
            [([1, -1], EQ, 0), ([-1, 1], EQ, 0), ([1, 0], LE, 3)],
        )
        assert s.status == "optimal"
        assert s.objective == 3
        assert s.x == (3, 3)

    def test_a_homogeneous_ge_row_needs_no_pivot(self):
        # x >= 0 is negated to -x <= 0, whose slack starts the basis at 0:
        # no artificial column, so no phase 1 and not one pivot.
        s = maximize([-1], [([1], GE, 0)])
        assert (s.status, s.x, s.objective, s.dual) == ("optimal", (0,), 0, (0,))
        assert s.pivots == 0
        # The count takes no part in equality.
        assert dataclasses.replace(s, pivots=1) == s

    def test_row_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="row length"):
            maximize([1, 1], [([1], LE, 1)])

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError, match="unknown sense"):
            maximize([1], [([1], "<", 1)])


# ---------------------------------------------------------------------------
# Only ints and Fractions
# ---------------------------------------------------------------------------

NOT_EXACT = [0.1, 0.5, "1/3", True, Decimal("0.1"), None]


class TestOnlyExactNumbers:
    @pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
    def test_objective_entry_rejected(self, value):
        with pytest.raises(ValueError, match=r"^objective: .* is not an int or a Fraction$"):
            maximize([1, value], [([1, 1], LE, 3)])

    @pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
    def test_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match=r"^row 1: .* is not an int or a Fraction$"):
            maximize([1, 1], [([1, 1], LE, 3), ([1, value], GE, 0)])

    @pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
    def test_rhs_rejected(self, value):
        with pytest.raises(ValueError, match=r"^row 0: .* is not an int or a Fraction$"):
            maximize([1], [([1], LE, value)])

    @pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
    def test_checker_rejects_the_same_programs(self, value):
        solution = maximize([1, 1], [([1, 1], LE, 3), ([1, 1], GE, 0)])
        for objective, rows, where in [
            ([1, value], [([1, 1], LE, 3), ([1, 1], GE, 0)], "objective"),
            ([1, 1], [([1, 1], LE, 3), ([1, value], GE, 0)], "row 1"),
            ([1, 1], [([1, 1], LE, value), ([1, 1], GE, 0)], "row 0"),
        ]:
            with pytest.raises(ValueError, match=rf"^{where}: .* is not an int or a Fraction$"):
                certificate_error(objective, rows, solution)


# ---------------------------------------------------------------------------
# The certificate checker
# ---------------------------------------------------------------------------

INFEASIBLE_ROWS = [([1, 1], GE, 4), ([1, 0], LE, 1), ([0, 1], LE, 2)]
OPTIMAL_ROWS = [([3, 1], LE, 1), ([1, 3], LE, 1)]
# Rows with denominators 2, 3 and 5, whose certificates have denominators 23
# and 13: Farkas dual (-10/23, -1, 10/23); optimum 20/13 at x = (11/13, 9/13)
# with dual (6/13, 0, -10/13).
MIXED_INFEASIBLE_ROWS = [([Fraction(-3, 2), Fraction(5, 2)], GE, 2),
                         ([1, -1], GE, Fraction(5, 3)),
                         ([Fraction(4, 5), Fraction(1, 5)], LE, Fraction(2, 5))]
MIXED_OPTIMAL_ROWS = [([Fraction(3, 2), Fraction(5, 2)], LE, 3),
                      ([-1, Fraction(5, 3)], LE, Fraction(2, 3)),
                      ([Fraction(-2, 5), Fraction(1, 5)], GE, Fraction(-1, 5))]


class TestCertificateChecker:
    def test_farkas_certificate_of_an_infeasible_program(self):
        s = maximize([1, 1], INFEASIBLE_ROWS)
        assert s.status == "infeasible"
        assert s.dual == (-1, 1, 1)
        assert certificate_error([1, 1], INFEASIBLE_ROWS, s) is None

    def test_farkas_certificate_of_a_program_with_mixed_denominators(self):
        # Phase 1 runs (a >= row and an == row with a negative rhs need
        # artificials) on rows with denominators 2, 3 and 5.
        rows = [([Fraction(1, 2), Fraction(1, 3)], GE, 2),
                ([Fraction(2, 5), 0], LE, Fraction(2, 5)),
                ([0, Fraction(1, 3)], LE, Fraction(3, 5)),
                ([1, -1], EQ, Fraction(-1, 5))]
        s = maximize([1, 1], rows)
        assert s.status == "infeasible"
        assert s.dual == (-1, Fraction(25, 12), 0, Fraction(-1, 3))
        assert certificate_error([1, 1], rows, s) is None

    def test_dual_of_an_optimal_program(self):
        s = maximize([1, 1], OPTIMAL_ROWS)
        assert s.dual == (Fraction(1, 4), Fraction(1, 4))
        assert certificate_error([1, 1], OPTIMAL_ROWS, s) is None

    def test_duals_map_back_through_row_scale_and_sign(self):
        # The same program written with fractions and negated rows.
        rows = [([Fraction(-3, 2), Fraction(-1, 2)], GE, Fraction(-1, 2)),
                ([Fraction(1, 3), 1], LE, Fraction(1, 3))]
        s = maximize([1, 1], rows)
        assert s.objective == Fraction(1, 2)
        assert s.dual == (Fraction(-1, 2), Fraction(3, 4))
        assert certificate_error([1, 1], rows, s) is None

    def test_duals_map_back_through_a_negated_homogeneous_row(self):
        # max y s.t. x - y >= 0, x <= 2: the first row starts the basis on
        # its slack as -x + y <= 0, and its multiplier comes back <= 0.
        rows = [([1, -1], GE, 0), ([1, 0], LE, 2)]
        s = maximize([0, 1], rows)
        assert (s.x, s.objective, s.dual) == ((2, 2), 2, (-1, 1))
        assert certificate_error([0, 1], rows, s) is None

    @pytest.mark.parametrize(
        "rows, change, reason",
        [
            (INFEASIBLE_ROWS, {"dual": (1, 1, 1)}, "wrong sign"),
            (INFEASIBLE_ROWS, {"dual": (-1, 1, 0)}, "negative coefficient"),
            (INFEASIBLE_ROWS, {"dual": (-1, 1, 3)}, "nonnegative rhs"),
            (INFEASIBLE_ROWS, {"dual": None}, "dual missing"),
            (OPTIMAL_ROWS, {"dual": (Fraction(1, 4),)}, "wrong length"),
            (OPTIMAL_ROWS, {"dual": (Fraction(1, 2), 0)}, "falls below"),
            (OPTIMAL_ROWS, {"dual": (Fraction(1, 2), Fraction(1, 2))}, "dual bound differs"),
            (OPTIMAL_ROWS, {"x": (Fraction(1, 3), 0)}, "objective value differs"),
            (OPTIMAL_ROWS, {"x": (1, 1)}, "violates row 0"),
            (OPTIMAL_ROWS, {"x": (-1, 1)}, "negative"),
            (OPTIMAL_ROWS, {"status": "unbounded"}, "no certificate"),
            (INFEASIBLE_ROWS, {"dual": (-1, True, 1)}, "dual entry 1: True is not"),
            (OPTIMAL_ROWS, {"dual": (0.25, Fraction(1, 4))}, "dual entry 0: 0.25 is not"),
            (OPTIMAL_ROWS, {"x": (Fraction(1, 4), 0.25)}, "primal entry 1: 0.25 is not"),
            (OPTIMAL_ROWS, {"x": (False, Fraction(1, 4))}, "primal entry 0: False is not"),
            (OPTIMAL_ROWS, {"objective": 0.5}, "objective value: 0.5 is not"),
            (MIXED_INFEASIBLE_ROWS, {"dual": (Fraction(10, 23), -1, Fraction(10, 23))},
             "dual of row 0 has the wrong sign"),
            (MIXED_INFEASIBLE_ROWS, {"dual": (Fraction(-10, 23), -1, Fraction(9, 23))},
             "negative coefficient"),
            (MIXED_INFEASIBLE_ROWS, {"dual": (0, 0, Fraction(1, 7))}, "nonnegative rhs"),
            (MIXED_INFEASIBLE_ROWS, {"dual": None}, "dual missing"),
            (MIXED_INFEASIBLE_ROWS, {"dual": (Fraction(-10, 23), -1)}, "wrong length"),
            (MIXED_OPTIMAL_ROWS, {"dual": (Fraction(6, 13), Fraction(-1, 13), Fraction(-10, 13))},
             "dual of row 1 has the wrong sign"),
            (MIXED_OPTIMAL_ROWS, {"dual": (Fraction(6, 13), 0, 0)}, "falls below"),
            (MIXED_OPTIMAL_ROWS, {"dual": (Fraction(1, 2), 0, Fraction(-10, 13))},
             "dual bound differs"),
            (MIXED_OPTIMAL_ROWS, {"x": (Fraction(10, 13), Fraction(9, 13))},
             "objective value differs"),
            (MIXED_OPTIMAL_ROWS, {"x": (Fraction(11, 13), Fraction(10, 13))}, "violates row 0"),
            (MIXED_OPTIMAL_ROWS, {"x": (Fraction(11, 13), Fraction(8, 13))}, "violates row 2"),
            (MIXED_OPTIMAL_ROWS, {"x": (Fraction(-1, 13), Fraction(9, 13))}, "negative"),
            (MIXED_OPTIMAL_ROWS, {"status": "unbounded"}, "no certificate"),
        ],
    )
    def test_corrupted_certificates_rejected(self, rows, change, reason):
        s = dataclasses.replace(maximize([1, 1], rows), **change)
        assert reason in certificate_error([1, 1], rows, s)

    @pytest.mark.parametrize("rows, dual, x, objective", [
        (MIXED_INFEASIBLE_ROWS, (Fraction(-10, 23), -1, Fraction(10, 23)), None, None),
        (MIXED_OPTIMAL_ROWS, (Fraction(6, 13), 0, Fraction(-10, 13)),
         (Fraction(11, 13), Fraction(9, 13)), Fraction(20, 13)),
    ])
    def test_certificates_of_the_mixed_programs(self, rows, dual, x, objective):
        s = maximize([1, 1], rows)
        assert (s.dual, s.x, s.objective) == (dual, x, objective)
        assert certificate_error([1, 1], rows, s) is None

    def test_a_float_certificate_is_refused(self):
        # It would hold with 1/2 for 0.5 and 1 for 1.0.
        s = Solution("optimal", (0.5, 0.5), Fraction(1), (1.0,))
        assert certificate_error([1, 1], [([1, 1], LE, 1)], s) == (
            "dual entry 0: 1.0 is not an int or a Fraction")

    def test_unbounded_program_has_no_dual(self):
        assert maximize([1], [([0], LE, 1)]).dual is None


# ---------------------------------------------------------------------------
# The sparse pivot against the dense Bareiss update
# ---------------------------------------------------------------------------

def dense_pivot(tableau, denom, row, col):
    """The reference: ``exactlp._pivot`` with the dense Bareiss update on
    every pivot, which rewrites every entry of every other row."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [(a * p - factor * b) // denom for a, b in zip(other, pivot_row)]
        elif p != denom:
            tableau[i] = [a * p // denom for a in other]
    if p < 0:
        for i, other in enumerate(tableau):
            tableau[i] = [-a for a in other]
    return abs(p)


def solve_logged(monkeypatch, pivot, objective, rows, limit=1000):
    """``maximize`` with ``pivot`` as its pivot, and each pivot's row,
    column, entry ``p`` and denominator ``D``.  A solve that makes more than
    ``limit`` pivots fails, where a broken update could cycle forever."""
    log = []

    def logged(tableau, denom, row, col):
        assert len(log) < limit, f"no end after {limit} pivots"
        log.append((row, col, tableau[row][col], denom))
        return pivot(tableau, denom, row, col)

    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "_pivot", logged)
        return maximize(objective, rows), log


def seeded_program(rng: random.Random):
    """Up to 6 variables and 7 rows, a third of the numbers Fractions; half
    the programs get a cap on the sum of x, a fifth a row repeated as two
    redundant ``==`` rows."""

    def number(lo: int, hi: int) -> Fraction | int:
        if rng.random() < 0.3:
            return Fraction(rng.randint(6 * lo, 6 * hi), rng.choice([1, 2, 3, 5, 6]))
        return rng.randint(lo, hi)

    n = rng.randint(1, 6)
    objective = [number(-3, 3) for _ in range(n)]
    senses = [LE, GE, EQ] if rng.random() < 0.6 else [LE, LE, LE, GE]
    rows = [([number(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)],
             rng.choice(senses), number(-5, 5)) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.5:
        rows.append(([1] * n, LE, rng.randint(1, 9)))
    if rng.random() < 0.2:
        coeffs, _, rhs = rng.choice(rows)
        k = rng.choice([2, -1, Fraction(1, 2)])
        rows += [([k * c for c in coeffs], EQ, k * rhs), (coeffs, EQ, rhs)]
    return objective, rows


def test_sparse_pivots_match_the_dense_update(monkeypatch):
    programs = [seeded_program(random.Random(seed)) for seed in range(2000)]
    # Driving an artificial out pivots on -1 (see
    # test_artificial_driven_out_on_a_negative_pivot).
    programs.append(([1, 0], [([1, -1], EQ, 0), ([-1, 1], EQ, 0), ([1, 0], LE, 3)]))
    statuses, pivots = Counter(), Counter()
    for objective, rows in programs:
        solution, log = solve_logged(monkeypatch, exactlp._pivot, objective, rows)
        assert (solution, log) == solve_logged(monkeypatch, dense_pivot, objective, rows), (
            objective, rows)
        statuses[solution.status] += 1
        for _, _, p, denom in log:
            pivots["p == D" if p == denom else "p != D"] += 1
            pivots["p < 0"] += p < 0
    assert statuses.keys() == {"optimal", "infeasible", "unbounded"}
    assert pivots["p == D"] and pivots["p != D"] and pivots["p < 0"], pivots


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


def quarter(lo: int, hi: int):
    """Rationals in [lo, hi] with denominators 1 to 4."""
    return st.integers(1, 4).flatmap(
        lambda den: st.integers(lo * den, hi * den).map(lambda num: Fraction(num, den))
    )


@st.composite
def fractional_programs(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 5))
    objective = [draw(quarter(-3, 3)) for _ in range(num_vars)]
    rows = []
    for _ in range(num_rows):
        coeffs = [draw(quarter(-3, 3)) for _ in range(num_vars)]
        rows.append((coeffs, draw(senses), draw(quarter(-5, 5))))
    return objective, rows


@st.composite
def cone_programs(draw):
    """Mostly homogeneous ``>=`` rows (rhs 0, mixed signs, Fraction entries),
    which start the basis on their slacks, cut by one or two ``<=`` caps; half
    the programs also get a ``>=`` row with a positive rhs, so phase 1 runs
    beside those slacks.  Up to four variables on up to eight rows: the
    Fourier-Motzkin oracle decides the slowest of 150 such programs in
    about 0.05 s."""
    num_vars = draw(st.integers(1, 4))
    objective = [draw(quarter(-3, 3)) for _ in range(num_vars)]
    rows = [([draw(quarter(-3, 3)) for _ in range(num_vars)], GE, 0)
            for _ in range(draw(st.integers(1, 5)))]
    rows += [([draw(quarter(0, 3)) for _ in range(num_vars)], LE, draw(quarter(1, 5)))
             for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        rows.append(([draw(quarter(-3, 3)) for _ in range(num_vars)], GE, draw(quarter(1, 3))))
    return objective, draw(st.permutations(rows))


class TestAgainstFourierMotzkin:
    @settings(max_examples=150)
    @given(random_programs() | cone_programs())
    def test_feasibility_verdicts_agree(self, program):
        objective, rows = program
        solution = maximize(objective, rows)
        oracle = fm_feasible(rows, len(objective))
        assert (solution.status != "infeasible") == oracle

    @settings(max_examples=150)
    @given(random_programs() | cone_programs())
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

    @settings(max_examples=150)
    @given(fractional_programs() | cone_programs())
    def test_fractional_programs_agree(self, program):
        objective, rows = program
        solution = maximize(objective, rows)
        assert (solution.status != "infeasible") == fm_feasible(rows, len(objective))
        if solution.status != "optimal":
            return
        assert _satisfies(rows, solution.x)
        assert fm_objective_reachable(rows, len(objective), objective, solution.objective)
        assert not fm_objective_reachable(
            rows, len(objective), objective, solution.objective + Fraction(1, 997)
        )

    @settings(max_examples=150)
    @given(random_programs() | fractional_programs() | cone_programs())
    def test_certificates_pass_the_checker(self, program):
        objective, rows = program
        solution = maximize(objective, rows)
        if solution.status == "unbounded":
            assert solution.dual is None
        else:
            assert certificate_error(objective, rows, solution) is None
