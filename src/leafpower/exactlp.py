"""Exact linear programming over rationals, sized for certificate work.

A small dense two-phase simplex on a fraction-free tableau of Python ints
(Edmonds 1967; Bareiss 1968): no floating point and no per-entry
normalisation.  Every row and the objective are multiplied by one
``scale``, the least common denominator of the whole program, and the whole
tableau shares one positive denominator ``D``, the last pivot: every entry is
``D`` times its rational value.  A pivot on ``p`` replaces each entry ``a`` of
another row by ``(a*p - f*b) // D``, a division that is always exact, and then
``p`` becomes ``D``.  Rationals appear only in the result: a returned optimum
satisfies every constraint exactly and can be re-substituted without
tolerance.  Bland's rule (smallest index enters, ties on leaving broken by
smallest basis index) guarantees termination.

Every optimal or infeasible verdict carries a dual vector, one multiplier per
input row, and ``certificate_error`` checks it from the program alone.

All structural variables are implicitly nonnegative; senses are per-row; every
number must be an ``int`` or a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

LE = "<="
GE = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

Row = tuple[Sequence[Fraction | int], str, Fraction | int]

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


@dataclass(frozen=True)
class Solution:
    """``dual`` has one multiplier per input row: ``y >= 0`` on ``<=`` rows,
    ``y <= 0`` on ``>=`` rows, free on ``==`` rows.  When optimal, ``y.A >= c``
    and ``y.b == objective``; when infeasible, ``y.A >= 0`` and ``y.b < 0``
    (Farkas); None when unbounded."""

    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    dual: tuple[Fraction, ...] | None = None


def _check_number(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{where}: {value!r} is not an int or a Fraction")


def maximize(objective: Sequence[Fraction | int], rows: Sequence[Row]) -> Solution:
    """Maximize objective . x subject to the rows, over x >= 0."""
    n = len(objective)
    for value in objective:
        _check_number(value, "objective")
    for i, (row_coeffs, sense, value) in enumerate(rows):
        if len(row_coeffs) != n:
            raise ValueError("row length does not match variable count")
        if sense not in _FLIPPED:
            raise ValueError(f"unknown sense {sense!r}")
        for v in (*row_coeffs, value):
            _check_number(v, f"row {i}")

    # Column layout: structural | slack/surplus | artificial | rhs.  Every row
    # and the objective are multiplied by ``scale``, the least common
    # denominator of the program; slacks, surpluses and artificials keep the
    # coefficient +-1, so they stand for ``scale`` times the unscaled ones.  A
    # row with a negative rhs is negated, which swaps <= and >=; every row
    # that is not <= after that gets an artificial column.  ``starts[i]`` is
    # the row's starting basic column (slack or artificial), a unit column
    # that the duals are read from.
    scale = lcm(*(v.denominator for v in objective),
                *(v.denominator for coeffs, _, rhs in rows for v in (*coeffs, rhs)))

    def scaled(value: Fraction | int) -> int:
        return value.numerator * (scale // value.denominator)

    num_extra = sum(1 for _, s, _ in rows if s != EQ)
    num_art = sum(1 for _, s, v in rows if (_FLIPPED[s] if v < 0 else s) != LE)
    art_start = n + num_extra
    total = art_start + num_art

    tableau: list[list[int]] = []
    basis: list[int] = []
    signs: list[int] = []
    extra_at, art_at = n, art_start
    for row_coeffs, sense, value in rows:
        sign = -1 if value < 0 else 1
        row = [sign * scaled(v) for v in row_coeffs] + [0] * (total - n) + [sign * scaled(value)]
        sense = _FLIPPED[sense] if sign < 0 else sense
        if sense != EQ:
            row[extra_at] = 1 if sense == LE else -1
            extra_at += 1
        if sense == LE:
            basis.append(extra_at - 1)
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        tableau.append(row)
        signs.append(sign)
    starts = tuple(basis)
    denom = 1  # D: the common denominator of every tableau entry, always > 0

    def pivot(row: int, col: int) -> None:
        nonlocal denom
        pivot_row = tableau[row]
        p = pivot_row[col]
        # The pivot row keeps its integers (their denominator becomes p); every
        # other row moves to denominator p too, even where f is 0.
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
        denom = abs(p)
        basis[row] = col

    def simplex(cost: list[int], columns: range) -> tuple[str, list[int]]:
        """Bland's rule over ``columns`` for the integer costs of every column.
        While it runs, the last tableau row holds ``D`` times the reduced
        costs, so every pivot updates them with the rest; that row is
        returned with the status."""
        reduced = [denom * c for c in cost] + [0]
        # Basic columns are D times unit columns: one subtraction per row
        # prices each out.
        for row, b in zip(tableau, basis):
            factor = cost[b]
            if factor:
                reduced = [r - factor * a for r, a in zip(reduced, row)]
        tableau.append(reduced)
        while (entering := next((j for j in columns if tableau[-1][j] > 0), None)) is not None:
            # Smallest ratio rhs / entry leaves, compared by cross-multiplying
            # (every entry is positive); ties go to the smallest basis index.
            best = None
            for i, (row, b) in enumerate(zip(tableau, basis)):
                a = row[entering]
                if a > 0 and (best is None or (row[total] * best[1], b) < (best[0] * a, best[2])):
                    best = (row[total], a, b, i)
            if best is None:
                break
            pivot(best[3], entering)
        reduced = tableau.pop()
        return (OPTIMAL if entering is None else UNBOUNDED), reduced

    def duals(cost: list[int], reduced: list[int]) -> tuple[Fraction, ...]:
        """Row i's multiplier is its cost minus its reduced cost on its
        starting unit column, mapped back through the row's sign; rows and
        costs share one scale, so it cancels."""
        return tuple(
            Fraction(sign * (denom * cost[col] - reduced[col]), denom)
            for col, sign in zip(starts, signs)
        )

    if num_art:
        # Minimize the sum of the artificials: each costs -1.
        phase1_cost = [0] * art_start + [-1] * num_art
        status, reduced = simplex(phase1_cost, range(total))
        if status != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded")
        if any(row[total] for row, b in zip(tableau, basis) if b >= art_start):
            return Solution(status=INFEASIBLE, x=None, objective=None,
                            dual=duals(phase1_cost, reduced))
        # Drive surviving artificials out of the basis; drop redundant rows.
        for i in reversed(range(len(tableau))):
            if basis[i] >= art_start:
                pivot_col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
                if pivot_col is None:
                    del tableau[i]
                    del basis[i]
                else:
                    pivot(i, pivot_col)

    cost = [scaled(c) for c in objective] + [0] * (total - n)
    status, reduced = simplex(cost, range(art_start))
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED, x=None, objective=None)

    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = Fraction(row[total], denom)
    return Solution(
        status=OPTIMAL,
        x=tuple(x),
        objective=Fraction(-reduced[total], denom * scale),
        dual=duals(cost, reduced),
    )


def certificate_error(
    objective: Sequence[Fraction | int], rows: Sequence[Row], solution: Solution
) -> str | None:
    """Check ``solution`` against the program by exact arithmetic alone.

    An optimal solution must be a feasible point whose value is
    ``objective``, with a dual ``y`` of the right signs, ``y.A >= c`` and
    ``y.b == objective``: then no feasible point does better.  An infeasible
    verdict needs ``y.A >= 0`` and ``y.b < 0``: every ``x >= 0`` would give
    ``0 <= y.A.x <= y.b < 0``.  Returns None when the certificate holds,
    otherwise what fails.  Zero coefficients are skipped.
    """
    if solution.status not in (OPTIMAL, INFEASIBLE):
        return f"no certificate for status {solution.status!r}"
    y = solution.dual
    if y is None or len(y) != len(rows):
        return "dual missing or of the wrong length"
    y_a = [Fraction(0)] * len(objective)
    y_b = Fraction(0)
    for i, ((coeffs, sense, rhs), y_i) in enumerate(zip(rows, y)):
        if (sense == LE and y_i < 0) or (sense == GE and y_i > 0):
            return f"dual of row {i} has the wrong sign"
        if y_i:
            for j, c in enumerate(coeffs):
                if c:
                    y_a[j] += y_i * c
            y_b += y_i * rhs
    if solution.status == INFEASIBLE:
        if any(v < 0 for v in y_a):
            return "Farkas combination has a negative coefficient"
        if y_b >= 0:
            return "Farkas combination has a nonnegative rhs"
        return None

    x = solution.x
    if x is None or len(x) != len(objective) or any(v < 0 for v in x):
        return "primal point missing, of the wrong length or negative"
    for i, (coeffs, sense, rhs) in enumerate(rows):
        value = sum((c * v for c, v in zip(coeffs, x) if c and v), Fraction(0))
        if (sense == LE and value > rhs) or (sense == GE and value < rhs) or (
            sense == EQ and value != rhs
        ):
            return f"primal point violates row {i}"
    if sum((c * v for c, v in zip(objective, x) if c and v), Fraction(0)) != solution.objective:
        return "objective value differs from the primal point's"
    if any(a < c for a, c in zip(y_a, objective)):
        return "dual combination falls below the objective"
    if y_b != solution.objective:
        return "dual bound differs from the objective value"
    return None
