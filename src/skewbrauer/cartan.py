"""Cartan and q-Cartan matrices with exact determinants.

The q-graded determinant det_q is computed by Kronecker substitution:
one integer Bareiss pass on the matrix evaluated at q = 2*beta + 1,
decoded in balanced digits, where beta = prod_i sum_j |C_ij|_1 bounds
every coefficient.  The ordinary determinant is det_q(1), since
evaluation at 1 is a ring map that sends the q-Cartan matrix to the
ordinary one.
"""
from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Sequence

from .basis import PathBasis
from .quiver import BoundQuiver


class IntPoly:
    """Polynomial in one variable q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @staticmethod
    def const(n: int) -> "IntPoly":
        return IntPoly((n,))

    @staticmethod
    def q_power(k: int, coeff: int = 1) -> "IntPoly":
        return IntPoly((0,) * k + (coeff,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly.const(other)
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPoly([a + b for a, b in pairs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + -other

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def eval_at(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self})"


ONE = IntPoly.const(1)


def det_fraction_free(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Determinant by Kronecker substitution and one integer Bareiss pass.

    Every coefficient of det is at most beta = prod_i sum_j |C_ij|_1 in
    absolute value (the permanent of the 1-norms is at most the product of
    their row sums), so det is read off det(C(B)), B = 2 beta + 1, as
    balanced base-B digits in [-beta, beta].  The pivot is the lowest row
    index with a nonzero entry, and every ``//`` is exact (Sylvester).
    """
    beta, degree = 1, 0
    for row in matrix:
        beta *= sum(abs(c) for p in row for c in p.coeffs)
        degree += max(len(p.coeffs) for p in row) - 1
    base = 2 * beta + 1
    m = [[p.eval_at(base) for p in row] for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return IntPoly()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    value = sign * m[-1][-1] if n else 1
    coeffs = []
    for _ in range(degree + 1):
        digit = (value + beta) % base - beta
        coeffs.append(digit)
        value = (value - digit) // base
    if value:
        raise ArithmeticError("determinant coefficient exceeds the Kronecker bound")
    return IntPoly(coeffs)


class CartanData(NamedTuple):
    """Ordinary and path-length-graded Cartan matrices with their determinants."""
    vertex_labels: tuple[str, ...]
    ordinary: tuple[tuple[int, ...], ...]
    q_graded: tuple[tuple[IntPoly, ...], ...]
    det_ordinary: int
    det_q: IntPoly


def cartan(bq: BoundQuiver, basis: PathBasis) -> CartanData:
    """Entry (x, y) counts basis paths x -> y, graded by q^length."""
    q = bq.quiver
    order = sorted(q.vertices, key=lambda v: v.label)
    index = {v.id: i for i, v in enumerate(order)}
    n = len(order)
    zero = IntPoly()
    q_rows = [[zero] * n for _ in range(n)]
    o_rows = [[0] * n for _ in range(n)]
    for (s, t), block in basis.blocks().items():
        # a block is in basis_paths order, so its last path is the longest
        coeffs = [0] * (len(block[-1]) + 1)
        for p in block:
            coeffs[len(p)] += 1
        i, j = index[s], index[t]
        q_rows[i][j] = IntPoly(coeffs)
        o_rows[i][j] = len(block)
    q_rows = [tuple(row) for row in q_rows]
    o_rows = [tuple(row) for row in o_rows]
    det_q = det_fraction_free(q_rows)
    return CartanData(tuple(v.label for v in order), tuple(o_rows), tuple(q_rows),
                      det_q.eval_at(1), det_q)
