"""Exact rational linear algebra.

Vectors are tuples of numbers, matrices are tuples of row tuples.  Entries
may be Python ints or ``fractions.Fraction``; everything stays exact, no
floating point anywhere.  ``Rational`` is an alias for ``Fraction``, which
already guarantees the reduced form and positive denominator we rely on.

Normals and basis vectors returned by this module are scaled to primitive
integer vectors: integer entries with gcd 1 and, where a sign convention is
needed, a positive first nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction

Vec = tuple
Mat = tuple


def rational(value) -> Fraction:
    """Parse ints, strings like ``"3/4"``, or Fractions into a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def unit_vectors(dim: int) -> list[Vec]:
    """The standard basis e^1, ..., e^dim as integer tuples."""
    return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def scale_primitive(a: Sequence) -> Vec:
    """Scale by a positive rational so entries are integers with gcd 1.

    The orientation (overall sign) of the vector is preserved.  Integer
    vectors take a gcd divide; anything else goes through Fractions.
    """
    if not all(isinstance(x, int) for x in a):
        fracs = [Fraction(x) for x in a]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        a = [int(f * den) for f in fracs]
    g = gcd(*a)
    return tuple(a) if g < 2 else tuple(v // g for v in a)


def sign_normalize(a: Sequence) -> Vec:
    """Flip the sign, if needed, so the first nonzero entry is positive."""
    for x in a:
        if x != 0:
            return tuple(a) if x > 0 else tuple(-v for v in a)
    return tuple(a)


def canonical_normal(a: Sequence) -> Vec:
    """Primitive integer vector with positive first nonzero entry."""
    return sign_normalize(scale_primitive(a))


def _echelon(rows: list[list[int]], width: int) -> list[int]:
    """In-place Bareiss elimination on integer rows; returns the pivot columns.

    Fraction-free (Bareiss 1968): every division is exact, and entries
    stay integral and bounded by subdeterminants.  Row i of the result
    has its pivot at column ``pivots[i]`` and zeros to its left.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    prev_pivot = 1
    for col in range(width):
        if len(pivots) == n_rows:
            break
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        row_p = rows[rank]
        piv = row_p[col]
        # Bareiss step: every row below is rescaled, even with a zero
        # eliminating coefficient, or later exact divisions break.
        for r in range(rank + 1, n_rows):
            row_r = rows[r]
            factor = row_r[col]
            for c in range(col, width):
                row_r[c] = (piv * row_r[c] - factor * row_p[c]) // prev_pivot
        prev_pivot = piv
        pivots.append(col)
    return pivots


def null_vector(rows: Sequence[Sequence[int]], width: int) -> Vec | None:
    """The kernel direction of an integer matrix of rank ``width - 1``.

    Returns the canonical (primitive, first nonzero entry positive)
    integer vector spanning the 1-dimensional kernel, or None when the
    rank is not ``width - 1``.  Bareiss elimination, then integer back
    substitution: whenever a pivot does not divide its row's partial
    sum, the partial solution is rescaled so it does.
    """
    work = [list(r) for r in rows]
    pivots = _echelon(work, width)
    if len(pivots) != width - 1:
        return None
    x = [0] * width
    x[next(c for c in range(width) if c not in pivots)] = 1
    for row, col in zip(reversed(work[: len(pivots)]), reversed(pivots)):
        s = sum(row[c] * x[c] for c in range(col + 1, width))
        if s:
            g = gcd(s, row[col])
            x = [v * (row[col] // g) for v in x]
            x[col] = -s // g
    return canonical_normal(x)


def rank(matrix: Iterable[Sequence]) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    rows = [list(scale_primitive(row)) for row in matrix]
    return len(_echelon(rows, len(rows[0]))) if rows else 0


def rank_naive(matrix: Iterable[Sequence]) -> int:
    """Rank via plain rational Gaussian elimination (cross-check path)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rnk = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rnk, n_rows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rnk], rows[pivot_row] = rows[pivot_row], rows[rnk]
        piv = rows[rnk][col]
        for r in range(rnk + 1, n_rows):
            if rows[r][col] != 0:
                f = rows[r][col] / piv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rnk])]
        rnk += 1
        if rnk == n_rows:
            break
    return rnk


def rref(matrix: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (nonzero rows, pivot column indices).
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    if not rows:
        return [], pivots
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def nullspace_basis(matrix: Iterable[Sequence]) -> list[Vec]:
    """Basis of ``{x : Mx = 0}`` as primitive integer vectors.

    Each basis vector is sign-normalized (first nonzero entry positive);
    the list is ordered by the free column it corresponds to.
    """
    mat = [tuple(row) for row in matrix]
    if not mat:
        return []
    n_cols = len(mat[0])
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for row, piv_col in zip(reduced, pivots):
            v[piv_col] = -row[free]
        basis.append(canonical_normal(v))
    return basis


def solve(matrix: Iterable[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of ``Mx = b``, or None if inconsistent."""
    mat = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if not mat:
        return []
    n_cols = len(mat[0]) - 1
    reduced, pivots = rref(mat)
    x = [Fraction(0)] * n_cols
    for row, piv in zip(reduced, pivots):
        if piv == n_cols:
            return None
        x[piv] = row[-1]
    return x


def in_span(vector: Sequence, basis: Sequence[Sequence]) -> bool:
    """Exact membership of ``vector`` in the span of ``basis``."""
    if is_zero(vector):
        return True
    base = list(basis)
    return rank(base) == rank(base + [tuple(vector)])


def primitive_normal(
    directions: Sequence[Sequence], ambient_basis: Sequence[Sequence]
) -> Vec | None:
    """Normal of the hyperplane of span(ambient_basis) containing ``directions``.

    Given directions lying in the subspace L spanned by ``ambient_basis``,
    returns the unique (up to sign) primitive integer b in L with b·d = 0
    for every direction, sign-normalized.  Returns None when the directions
    do not span a (dim L - 1)-dimensional space, i.e. no hyperplane of L is
    singled out.

    Raises ValueError if some direction falls outside L.
    """
    basis = [tuple(b) for b in ambient_basis]
    s = len(basis)
    if rank(basis) != s:
        raise ValueError("ambient_basis must be linearly independent")
    dirs = [tuple(d) for d in directions]
    for d in dirs:
        if not in_span(d, basis):
            raise ValueError(f"direction {d} outside the ambient span")
    if rank(dirs) != s - 1:
        return None
    # b = sum t_a basis_a with d·b = 0 for all directions
    system = [[dot(d, b) for b in basis] for d in dirs]
    coeffs = nullspace_basis(system)
    if len(coeffs) != 1:
        return None
    t = coeffs[0]
    b = [Fraction(0)] * len(basis[0])
    for t_a, base_vec in zip(t, basis):
        for j, x in enumerate(base_vec):
            b[j] += t_a * x
    return canonical_normal(b)
