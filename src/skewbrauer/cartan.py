"""Cartan and q-Cartan matrices with exact determinants.

det_q is computed by Kronecker substitution: one fraction-free Bareiss
pass (E. H. Bareiss, Math. Comp. 22 (1968)) over the integers on the
matrix at q = B, decoded in balanced base-B digits, B = 2^k >= 2 beta + 1.
Every coefficient of det C is at most beta = ceil(sqrt(prod_i sum_j
|C_ij|_1^2)) (A. J. Goldstein and R. L. Graham, SIAM Rev. 16 (1974)):
by Parseval their squares sum to the mean of |det C(z)|^2 on |z| = 1,
which Hadamard's inequality with |C_ij(z)| <= |C_ij|_1 bounds by that
product.  Rows and columns are permuted alike, in minimum degree order
on the pattern of C + C^T.  Rows are sparse, and one with no entry in
the pivot column k is not touched: step k only scales it by d_k /
d_(k-1), d_k the k-th pivot, so the factors telescope and it catches
up once, from its stage s by d_(k-1) / d_(s-1), when next used.
``cartan`` never swaps rows for a zero pivot: only stationary paths
have length 0, so C(0) = I, and each pivot, a leading principal minor
of P C(B) P^T, is 1 mod B.  The ordinary determinant is det_q(1),
since evaluation at 1 is a ring map that sends the q-Cartan matrix to
the ordinary one.
"""
from __future__ import annotations

from itertools import zip_longest
from math import isqrt, prod
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
    """Determinant of a square matrix by the sparse Bareiss pass of the
    module docstring.  A zero pivot swaps with the first lower row that
    is nonzero in its column; with none, det = 0.  Every ``//`` is exact
    (Sylvester)."""
    sparse = [{j: p for j, p in enumerate(row) if p.coeffs} for row in matrix]
    bound = prod(sum(sum(map(abs, p.coeffs)) ** 2 for p in row.values()) for row in sparse)
    if not bound:
        return IntPoly()    # an all-zero row
    n = len(sparse)
    degree = sum(max(len(p.coeffs) for p in row.values()) - 1 for row in sparse)
    adj = {i: {j for j in range(n) if j != i and (j in sparse[i] or i in sparse[j])}
           for i in range(n)}
    order = []      # minimum degree, ties to the lower index, the first in adj
    while adj:
        v = min(adj, key=lambda i: len(adj[i]))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        order.append(v)
    bits = (2 * (isqrt(bound - 1) + 1)).bit_length()     # B = 2^bits >= 2 beta + 1
    where = {old: new for new, old in enumerate(order)}
    rows = [{where[j]: p.eval_at(1 << bits) for j, p in sparse[i].items()} for i in order]
    # rows[i] is at Bareiss stage stage[i]; piv[s] = d_(s-1), the divisor
    # of the step from stage s
    sign, stage, piv = 1, [0] * n, [1]
    for k in range(n):
        if k not in rows[k]:
            r = next((i for i in range(k + 1, n) if k in rows[i]), None)
            if r is None:
                return IntPoly()
            rows[k], rows[r], stage[k], stage[r] = rows[r], rows[k], stage[r], stage[k]
            sign = -sign
        top = rows[k]
        if stage[k] < k:
            top = {j: v * piv[k] // piv[stage[k]] for j, v in top.items()}
        pivot = top.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            lead = row.pop(k, 0)
            if lead:
                # the step from the row's own stage, catching up on the way
                prev = piv[stage[i]]
                rows[i] = {j: v for j in row.keys() | top.keys()
                           if (v := (row.get(j, 0) * pivot - lead * top.get(j, 0)) // prev)}
                stage[i] = k + 1
        piv.append(pivot)
    value, mask, half = sign * piv[n], (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    for _ in range(degree + 1):
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> bits
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
