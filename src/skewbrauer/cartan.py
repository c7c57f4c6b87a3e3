"""Cartan and q-Cartan matrices with exact fraction-free determinants.

The q-graded determinant is computed once; the ordinary determinant is
its value at q = 1, since evaluation at 1 is a ring map that sends the
q-Cartan matrix to the ordinary one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] - other[i] for i in range(n)])

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

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises when the remainder is nonzero."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        out = [0] * max(dd - dv + 1, 0)
        lead = other.coeffs[-1]
        for k in range(dd - dv, -1, -1):
            head = rem[k + dv]
            if head % lead != 0:
                raise ArithmeticError("division is not exact")
            f = head // lead
            out[k] = f
            if f:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= f * b
        if any(rem):
            raise ArithmeticError("division is not exact")
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
    """Bareiss one-step determinant; pivot = lowest row index with a nonzero entry.

    An update of a zero entry whose pivot-row or pivot-column entry is
    zero leaves it zero, so it is skipped.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    m = [list(row) for row in matrix]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return IntPoly()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                if not m[i][j] and not (m[i][k] and m[k][j]):
                    continue
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = IntPoly()
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return (-result) if sign < 0 else result


@dataclass(frozen=True)
class CartanData:
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
    counts = [[dict() for _ in range(n)] for _ in range(n)]
    for p in basis.basis_paths:
        i, j = index[p.source(q)], index[p.target(q)]
        counts[i][j][len(p)] = counts[i][j].get(len(p), 0) + 1
    q_rows = []
    o_rows = []
    for i in range(n):
        q_row = []
        o_row = []
        for j in range(n):
            by_len = counts[i][j]
            deg = max(by_len, default=-1)
            q_row.append(IntPoly([by_len.get(k, 0) for k in range(deg + 1)]))
            o_row.append(sum(by_len.values()))
        q_rows.append(tuple(q_row))
        o_rows.append(tuple(o_row))
    det_q = det_fraction_free(q_rows)
    return CartanData(tuple(v.label for v in order), tuple(o_rows), tuple(q_rows),
                      det_q.eval_at(1), det_q)
