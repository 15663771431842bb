"""Exact linear algebra over Q: fraction-free Bareiss rank and
determinant, Gauss-Jordan reduction, nullspace bases."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _int_rows(rows):
    """Clear denominators row by row; rank is unchanged, det scales by
    the product of multipliers (returned).  Entries are ints or
    Fractions, as MultiPoly stores them: an all-int row is copied as it
    is, and a Fraction is never built for an int entry."""
    out = []
    scale = 1
    for row in rows:
        if all(type(c) is int for c in row):
            out.append(list(row))
            continue
        den = lcm(*(c.denominator for c in row))
        out.append([c.numerator * (den // c.denominator) for c in row])
        scale *= den
    return out, scale


def mat_rank(rows) -> int:
    """Rank via fraction-free Bareiss elimination with pivoting."""
    if not rows or not rows[0]:
        return 0
    m, _ = _int_rows(rows)
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[r][c] * pv - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = pv
        rank += 1
        if rank == nr:
            break
    return rank


def mat_det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m, scale = _int_rows(rows)
    sign = 1
    prev = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * pv - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = pv
    return Fraction(sign * m[n - 1][n - 1], scale)


def rref(rows):
    """Reduced row echelon form over Q; returns (matrix, pivot cols)."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m:
        return m, []
    nr, nc = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [c * inv for c in m[r]]
        for i in range(nr):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return m, pivots


def nullspace(rows):
    """Basis of the right kernel, one vector per free column; an
    integral entry is an int, as in _int_rows."""
    if not rows or not rows[0]:
        return []
    nc = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nc
        v[fc] = 1
        for r, pc in enumerate(pivots):
            x = -m[r][fc]
            v[pc] = x.numerator if x.denominator == 1 else x
        basis.append(v)
    return basis
