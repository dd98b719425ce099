"""Exact linear programming over rationals, sized for certificate work.

A small dense two-phase simplex on a fraction-free tableau of Python ints
(Edmonds 1967; Bareiss 1968): no floating point and no per-entry
normalisation.  Every row and the objective are multiplied by one
``scale``, the least common denominator of the whole program, and the whole
tableau shares one positive denominator ``D``, the last pivot: every entry is
``D`` times its rational value.  A pivot on ``p`` replaces each entry ``a`` of
another row by ``(a*p - f*b) // D``, where ``f`` is the row's entry in the
pivot column and ``b`` the pivot row's in ``a``'s column, a division that is
always exact, and then ``p`` becomes ``D``.  When ``p`` already equals ``D``
that is ``a - f*b // D``, which leaves ``a`` as it is wherever ``b`` is 0: such
a pivot updates in place only the rows with a nonzero ``f``, and only on the
pivot row's nonzero columns.  It gives the same integers as the dense update,
so the pivot sequence is the same.  Rationals appear only in the result: a
returned optimum satisfies every constraint exactly and can be re-substituted
without tolerance.  Bland's rule (smallest index enters, ties on leaving
broken by smallest basis index) guarantees termination.

Phase 1 starts from the slack basis wherever that basis is feasible (Chvátal
1983, ch. 8).  A row is negated, which swaps ``<=`` and ``>=``, when its rhs
is negative or when it is 0 under ``>=``; so ``a.x >= 0`` becomes
``-a.x <= 0``.  Every ``<=`` row then starts on its slack, at its rhs, which
is not negative.  Only ``>=`` rows with a positive rhs and ``==`` rows get an
artificial column, and a program with neither skips phase 1.

Every optimal or infeasible verdict carries a dual vector, one multiplier per
input row, and ``certificate_error`` checks it from the program alone, on
ints: it clears the program's denominators as ``maximize`` does, and those of
the dual and of ``x`` once each.  It checks the program's numbers as
``maximize`` does, and refuses a certificate with an entry that is not an
``int`` or a ``Fraction``.

All structural variables are implicitly nonnegative; senses are per-row; every
number must be an ``int`` or a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# Types that pass the number check without a closer look; subclasses of int,
# bool excepted, and of Fraction pass too, but one entry at a time.
_PLAIN = {int, Fraction}


@dataclass(frozen=True)
class Solution:
    """``dual`` has one multiplier per input row: ``y >= 0`` on ``<=`` rows,
    ``y <= 0`` on ``>=`` rows, free on ``==`` rows.  When optimal, ``y.A >= c``
    and ``y.b == objective``; when infeasible, ``y.A >= 0`` and ``y.b < 0``
    (Farkas); None when unbounded.  ``pivots`` counts the solve's pivots:
    phase 1's, those that drive artificials out, and phase 2's; it takes no
    part in equality."""

    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    dual: tuple[Fraction, ...] | None = None
    pivots: int = field(default=0, compare=False)


def _exact(value: object) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _check_number(value: object, where: str) -> None:
    if not _exact(value):
        raise ValueError(f"{where}: {value!r} is not an int or a Fraction")


def _number_types(values: Sequence[object], where: str) -> set[type]:
    """The types of ``values``, once each is checked to be an int or a Fraction."""
    types = {*map(type, values)}
    if not types <= _PLAIN:
        for value in values:
            _check_number(value, where)
    return types


def _inexact_entry(values: Sequence[object], what: str) -> str | None:
    """What is wrong with the first entry that is not an int or a Fraction."""
    if not {*map(type, values)} <= _PLAIN:
        for i, value in enumerate(values):
            if not _exact(value):
                return f"{what} {i}: {value!r} is not an int or a Fraction"
    return None


def _cleared(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """The least common denominator ``m`` of ``values``, and ``m`` times each."""
    m = lcm(*(v.denominator for v in values))
    return m, [v.numerator * (m // v.denominator) for v in values]


def _integer_program(
    objective: Sequence[Fraction | int], rows: Sequence[Row]
) -> tuple[int, list[int], Sequence[tuple[Sequence[int], str, int]]]:
    """Check the program and clear its denominators once: ``scale``, the least
    common denominator of every number in it, and the objective and the rows
    multiplied by ``scale``, as ints.  Raises ValueError on a row of the wrong
    length, an unknown sense, or a number that is not an int or a Fraction."""
    n = len(objective)
    types = _number_types(objective, "objective")
    for i, (row_coeffs, sense, value) in enumerate(rows):
        if len(row_coeffs) != n:
            raise ValueError("row length does not match variable count")
        if sense not in _FLIPPED:
            raise ValueError(f"unknown sense {sense!r}")
        types |= _number_types((*row_coeffs, value), f"row {i}")
    if types <= {int}:  # nothing to clear, as in every program certify builds
        return 1, list(objective), rows
    scale, flat = _cleared([*objective, *(v for coeffs, _, rhs in rows for v in (*coeffs, rhs))])
    return scale, flat[:n], [
        (flat[k:k + n], sense, flat[k + n])
        for k, (_, sense, _) in zip(range(n, len(flat), n + 1), rows)
    ]


def _pivot(tableau: list[list[int]], denom: int, row: int, col: int) -> int:
    """Pivot on ``tableau[row][col]``, ``p``, where every entry is ``denom``
    times its rational value; returns the new common denominator."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p == denom:
        # Then (a*D - f*b) // D is a - f*b // D, which is a wherever b is 0:
        # only rows with a factor change, and only on the pivot row's nonzero
        # columns.
        nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
        for i, other in enumerate(tableau):
            factor = other[col]
            if factor and i != row:
                for j, b in nonzero:
                    other[j] -= factor * b // denom
        return denom
    # The pivot row keeps its integers (their denominator becomes p); every
    # other row moves to denominator p too, even where f is 0.
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [(a * p - factor * b) // denom for a, b in zip(other, pivot_row)]
        else:
            tableau[i] = [a * p // denom for a in other]
    if p < 0:
        for i, other in enumerate(tableau):
            tableau[i] = [-a for a in other]
    return abs(p)


def maximize(objective: Sequence[Fraction | int], rows: Sequence[Row]) -> Solution:
    """Maximize objective . x subject to the rows, over x >= 0."""
    n = len(objective)
    # Column layout: structural | slack/surplus | artificial | rhs.  Every row
    # and the objective are multiplied by ``scale``, the least common
    # denominator of the program; slacks, surpluses and artificials keep the
    # coefficient +-1, so they stand for ``scale`` times the unscaled ones.
    # Rows are negated by the rule in the module docstring; then every <= row
    # starts the basis on its slack and every other row on an artificial.
    # ``starts[i]`` is the row's starting basic column, a unit column that the
    # duals are read from.
    scale, int_objective, int_rows = _integer_program(objective, rows)
    signs = [-1 if value < 0 or (value == 0 and sense == GE) else 1
             for _, sense, value in int_rows]
    senses = [_FLIPPED[sense] if sign < 0 else sense
              for (_, sense, _), sign in zip(int_rows, signs)]

    num_extra = sum(1 for s in senses if s != EQ)
    num_art = sum(1 for s in senses if s != LE)
    art_start = n + num_extra
    total = art_start + num_art

    tableau: list[list[int]] = []
    basis: list[int] = []
    extra_at, art_at = n, art_start
    for (row_coeffs, _, value), sense, sign in zip(int_rows, senses, signs):
        row = [sign * v for v in row_coeffs] + [0] * (total - n) + [sign * value]
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
    starts = tuple(basis)
    denom = 1  # D: the common denominator of every tableau entry, always > 0
    pivots = 0

    def pivot(row: int, col: int) -> None:
        nonlocal denom, pivots
        denom = _pivot(tableau, denom, row, col)
        basis[row] = col
        pivots += 1

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
                            dual=duals(phase1_cost, reduced), pivots=pivots)
        # Drive surviving artificials out of the basis; drop redundant rows.
        for i in reversed(range(len(tableau))):
            if basis[i] >= art_start:
                pivot_col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
                if pivot_col is None:
                    del tableau[i]
                    del basis[i]
                else:
                    pivot(i, pivot_col)

    cost = int_objective + [0] * (total - n)
    status, reduced = simplex(cost, range(art_start))
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED, x=None, objective=None, pivots=pivots)

    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = Fraction(row[total], denom)
    return Solution(
        status=OPTIMAL,
        x=tuple(x),
        objective=Fraction(-reduced[total], denom * scale),
        dual=duals(cost, reduced),
        pivots=pivots,
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
    otherwise what fails, also when an entry of ``x``, ``y`` or the objective
    value is not an int or a Fraction.  The program is checked as
    ``maximize`` checks it, with the same ValueError.

    Every sum and comparison runs on ints: the program is multiplied by its
    least common denominator ``scale``, as in ``maximize``, and ``y`` and
    ``x`` by theirs, ``m_y`` and ``m_x``.  Zero terms are skipped.
    """
    scale, c, int_rows = _integer_program(objective, rows)
    if solution.status not in (OPTIMAL, INFEASIBLE):
        return f"no certificate for status {solution.status!r}"
    y = solution.dual
    if y is None or len(y) != len(rows):
        return "dual missing or of the wrong length"
    if (error := _inexact_entry(y, "dual entry")) is not None:
        return error
    # y_a and y_b are scale * m_y times y.A and y.b.
    m_y, y_int = _cleared(y)
    y_a = [0] * len(c)
    y_b = 0
    for i, ((coeffs, sense, rhs), y_i) in enumerate(zip(int_rows, y_int)):
        if (sense == LE and y_i < 0) or (sense == GE and y_i > 0):
            return f"dual of row {i} has the wrong sign"
        if y_i:
            for j, a in enumerate(coeffs):
                if a:
                    y_a[j] += y_i * a
            y_b += y_i * rhs
    if solution.status == INFEASIBLE:
        if any(v < 0 for v in y_a):
            return "Farkas combination has a negative coefficient"
        if y_b >= 0:
            return "Farkas combination has a nonnegative rhs"
        return None

    x = solution.x
    if x is not None and (error := _inexact_entry(x, "primal entry")) is not None:
        return error
    if x is None or len(x) != len(objective) or any(v < 0 for v in x):
        return "primal point missing, of the wrong length or negative"
    # Row and objective values of x, times scale * m_x.
    m_x, x_int = _cleared(x)
    support = [(j, v) for j, v in enumerate(x_int) if v]
    for i, (coeffs, sense, rhs) in enumerate(int_rows):
        lhs = sum(coeffs[j] * v for j, v in support)
        rhs *= m_x
        if (sense == LE and lhs > rhs) or (sense == GE and lhs < rhs) or (
            sense == EQ and lhs != rhs
        ):
            return f"primal point violates row {i}"
    value = solution.objective
    if not _exact(value):
        return f"objective value: {value!r} is not an int or a Fraction"
    if sum(c[j] * v for j, v in support) * value.denominator != value.numerator * scale * m_x:
        return "objective value differs from the primal point's"
    if any(a < c_j * m_y for a, c_j in zip(y_a, c)):
        return "dual combination falls below the objective"
    if y_b * value.denominator != value.numerator * scale * m_y:
        return "dual bound differs from the objective value"
    return None
