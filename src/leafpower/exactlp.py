"""Exact linear programming over rationals, sized for certificate work.

A small dense two-phase simplex on ``fractions.Fraction``: no floating point
anywhere, so a returned optimum satisfies every constraint exactly and can be
re-substituted without tolerance.  Bland's rule (smallest index enters, ties
on leaving broken by smallest basis index) guarantees termination.

All structural variables are implicitly nonnegative; senses are per-row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None


def maximize(objective: Sequence[Fraction | int], rows: Sequence[Row]) -> Solution:
    """Maximize objective . x subject to the rows, over x >= 0."""
    n = len(objective)
    cost = [Fraction(c) for c in objective]
    for row_coeffs, sense, _ in rows:
        if len(row_coeffs) != n:
            raise ValueError("row length does not match variable count")
        if sense not in _FLIPPED:
            raise ValueError(f"unknown sense {sense!r}")

    # Column layout: structural | slack/surplus | artificial | rhs.  A row with
    # a negative rhs is negated, which swaps <= and >=; every row that is not
    # <= after that gets an artificial column.
    num_extra = sum(1 for _, s, _ in rows if s != EQ)
    num_art = sum(1 for _, s, v in rows if (_FLIPPED[s] if v < 0 else s) != LE)
    art_start = n + num_extra
    total = art_start + num_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    extra_at, art_at = n, art_start
    for row_coeffs, sense, value in rows:
        sign = -1 if value < 0 else 1
        row = [sign * Fraction(c) for c in row_coeffs] + [Fraction(0)] * (total - n)
        row.append(sign * Fraction(value))
        sense = _FLIPPED[sense] if sign < 0 else sense
        if sense != EQ:
            row[extra_at] = Fraction(1 if sense == LE else -1)
            extra_at += 1
        if sense == LE:
            basis.append(extra_at - 1)
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    def pivot(row: int, col: int) -> None:
        inv = 1 / tableau[row][col]
        tableau[row] = pivot_row = [c * inv for c in tableau[row]]
        for i, other in enumerate(tableau):
            factor = other[col]
            if i != row and factor != 0:
                tableau[i] = [a - factor * b for a, b in zip(other, pivot_row)]
        basis[row] = col

    def simplex(cost_vec: list[Fraction], columns: range) -> str:
        """Bland's rule over ``columns``.  While it runs, the last tableau row
        holds the reduced costs, so every pivot updates them with the rest."""
        reduced = cost_vec + [Fraction(0)] * (total + 1 - len(cost_vec))
        # Basic columns are unit columns: one subtraction per row prices each out.
        for row, b in zip(tableau, basis):
            factor = reduced[b]
            if factor != 0:
                reduced = [r - factor * a for r, a in zip(reduced, row)]
        tableau.append(reduced)
        while (entering := next((j for j in columns if tableau[-1][j] > 0), None)) is not None:
            # Smallest ratio leaves; ties go to the smallest basis index.
            ratios = [
                (row[total] / row[entering], b, i)
                for i, (row, b) in enumerate(zip(tableau, basis))
                if row[entering] > 0
            ]
            if not ratios:
                break
            pivot(min(ratios)[2], entering)
        tableau.pop()
        return OPTIMAL if entering is None else UNBOUNDED

    if num_art:
        phase1_cost = [Fraction(0)] * art_start + [Fraction(-1)] * num_art
        if simplex(phase1_cost, range(total)) != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded")
        if sum(row[total] for row, b in zip(tableau, basis) if b >= art_start) > 0:
            return Solution(status=INFEASIBLE, x=None, objective=None)
        # Drive surviving artificials out of the basis; drop redundant rows.
        for i in reversed(range(len(tableau))):
            if basis[i] >= art_start:
                pivot_col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
                if pivot_col is None:
                    del tableau[i]
                    del basis[i]
                else:
                    pivot(i, pivot_col)

    if simplex(cost, range(art_start)) == UNBOUNDED:
        return Solution(status=UNBOUNDED, x=None, objective=None)

    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = row[total]
    value = sum(c * v for c, v in zip(cost, x))
    return Solution(status=OPTIMAL, x=tuple(x), objective=value)
