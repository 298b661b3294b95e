"""Closed-form facet description of the SOS2 selection polytope.

For an SOS2 constraint on the unit simplex paired with an encoding H, the
tight relaxation of the pairing is carved out by three row families:

* equations: the simplex equation plus a minimal equation set for the
  affine hull of the codes,
* one pair of general inequalities per linear hyperplane spanned by the
  consecutive code differences inside their span, and
* the nonnegativity bounds that remain facet-defining (index set J).

``build_sos2`` emits exactly those rows; ``padberg``, ``logarithmic`` and
``textbook_cc`` are the named fixed systems used as baselines.  Systems are
compared via ``canonical_form``, which reduces every inequality modulo the
equation rowspace and rescales it to a primitive integer row, so equal
facet sets compare equal regardless of presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .encodings import Encoding, EncodingGeometry, geometry, is_gray_code
from .ratlin import (
    Vec,
    canonical_normal,
    dot,
    is_zero,
    null_vector,
    nullspace_basis,
    rank,
    rref,
    scale_primitive,
    unit_vectors,
)

Row = tuple[tuple, Fraction]  # (coefficients, right-hand side); sense is <=


@dataclass(frozen=True)
class LinearSystem:
    """Equations and <=-inequalities over a fixed ordered variable list."""

    var_names: tuple[str, ...]
    equations: tuple[Row, ...]
    inequalities: tuple[Row, ...]

    def __post_init__(self):
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("duplicate variable name")
        for coeffs, _ in (*self.equations, *self.inequalities):
            if len(coeffs) != self.num_vars:
                raise ValueError("row width does not match variable count")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def bound_flags(self) -> tuple[bool, ...]:
        """Per-inequality marker: True iff the row touches a single variable."""
        return tuple(
            sum(1 for c in coeffs if c != 0) == 1 for coeffs, _ in self.inequalities
        )

    def var_index(self, name: str) -> int:
        return self.var_names.index(name)


@dataclass(frozen=True)
class Formulation:
    """A linear system plus the variables constrained to be integral."""

    system: LinearSystem
    integer_vars: tuple[str, ...]
    name: str = ""
    ideal: bool | None = None

    def __post_init__(self):
        missing = set(self.integer_vars) - set(self.system.var_names)
        if missing:
            raise ValueError(f"unknown integer variables: {sorted(missing)}")


@dataclass(frozen=True)
class SizeReport:
    """Facet counts of a build: general rows, bounds, equations.

    size_B is the number of facet-defining bounds lambda_j >= 0 on the
    selection variables; size_G counts every other inequality row,
    including any facet-defining bound on a code variable y.
    """

    size: int
    size_G: int
    size_B: int
    num_equations: int
    dim_H: int
    k: int
    n: int

    def __post_init__(self):
        expected = self.size_G + self.size_B + 2 * (1 + self.k - self.dim_H)
        if self.size != expected:
            raise ValueError(f"size {self.size} != accounting identity {expected}")


def lambda_names(n: int) -> tuple[str, ...]:
    return tuple(f"lambda_{j}" for j in range(1, n + 2))


def y_names(k: int) -> tuple[str, ...]:
    return tuple(f"y_{l}" for l in range(1, k + 1))


# ---------------------------------------------------------------------------
# hyperplane enumeration


def _distinct_directions(diffs) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for d in diffs:
        if is_zero(d):
            continue
        c = canonical_normal(d)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return sorted(out)


def spanned_hyperplanes(geom: EncodingGeometry) -> list[Vec]:
    """Normals of the hyperplanes of span(diffs) spanned by the differences.

    A hyperplane qualifies when the difference vectors lying inside it span
    it, i.e. some (dim-1)-subset of the distinct directions has full rank
    dim-1.  Normals are primitive integer vectors in the span, first
    nonzero entry positive, each hyperplane listed once, sorted.

    The hyperplanes are the rank-(dim-1) flats of the directions (Oxley,
    *Matroid Theory*): once a subset yields a normal, every (dim-1)-subset
    of the directions orthogonal to it is marked covered, by its rank in
    the lexicographic order of subsets, and never eliminated again.
    """
    s = geom.dim_h
    if s == 0:
        return []
    dirs = _distinct_directions(geom.diffs)
    basis = geom.lh_basis
    full_dim = s == len(basis[0])
    # below full dimension, pair each direction against the basis: the
    # hyperplane condition b = sum_a u_a basis_a, b . d = 0 becomes u . gram(d) = 0
    rows = dirs if full_dim else [tuple(dot(b, d) for b in basis) for d in dirs]
    n_dirs, r = len(dirs), s - 1
    # lexicographic rank of subset c: top - sum_i C(n_dirs - 1 - c_i, r - i)
    top = comb(n_dirs, r) - 1
    weight = [[comb(n_dirs - 1 - c, r - i) for c in range(n_dirs)] for i in range(r)]
    covered = bytearray(top + 1)
    normals: list[Vec] = []
    for index, subset in enumerate(combinations(range(n_dirs), r)):
        if covered[index]:
            continue
        u = null_vector([rows[i] for i in subset], s)
        if u is None:
            continue
        if not full_dim:
            u = canonical_normal([dot(col, u) for col in zip(*basis)])
        normals.append(u)
        flat = [i for i, d in enumerate(dirs) if not sum(map(mul, d, u))]
        for face in combinations(flat, r):
            covered[top - sum(map(list.__getitem__, weight, face))] = 1
    return sorted(normals)


def bound_index_set(geom: EncodingGeometry) -> set[int]:
    """Indices j for which the bound lambda_j >= 0 is facet defining.

    Always contains 1 and n+1; an interior j stays in when dropping the
    difference c^{j-1} does not shrink the span of the differences.
    """
    n = len(geom.diffs) + 1
    j_set = {1, n + 1}
    dirs = list(geom.diffs)
    canon = [None if is_zero(d) else canonical_normal(d) for d in dirs]
    for j in range(2, n + 1):
        c = canon[j - 2]
        if c is None or any(
            other == c for i, other in enumerate(canon) if i != j - 2
        ):
            # removing a zero or duplicated direction never drops the span
            j_set.add(j)
            continue
        rest = [d for i, d in enumerate(dirs) if i != j - 2]
        if rank(rest) == geom.dim_h:
            j_set.add(j)
    return j_set


# ---------------------------------------------------------------------------
# builders


def build_sos2(encoding: Encoding) -> tuple[Formulation, SizeReport]:
    """Tight SOS2 formulation for an arbitrary encoding, with size counts.

    Rows: the simplex equation, one equation per affine-hull normal of the
    codes, a <=/>= pair per spanned hyperplane (padding the code sequence
    with repeated endpoints), and the facet-defining bounds.
    """
    n, k = encoding.n, encoding.k
    geom = geometry(encoding)
    normals = spanned_hyperplanes(geom)
    j_set = bound_index_set(geom)
    names = lambda_names(n) + y_names(k)
    nl = n + 1

    equations: list[Row] = [
        (tuple([1] * nl + [0] * k), Fraction(1)),
    ]
    h1 = encoding[0]
    for g in nullspace_basis(geom.diffs) if geom.diffs else unit_vectors(k):
        equations.append((tuple([0] * nl + list(g)), Fraction(dot(g, h1))))

    inequalities: list[Row] = []
    for b in normals:
        vals = [dot(b, h) for h in encoding]
        padded = [vals[0]] + vals + [vals[-1]]
        lows = [min(padded[j], padded[j + 1]) for j in range(nl)]
        highs = [max(padded[j], padded[j + 1]) for j in range(nl)]
        inequalities.append(
            (tuple(lows) + tuple(-x for x in b), Fraction(0))
        )
        inequalities.append(
            (tuple(-x for x in highs) + tuple(b), Fraction(0))
        )
    for j in sorted(j_set):
        coeffs = [0] * (nl + k)
        coeffs[j - 1] = -1
        inequalities.append((tuple(coeffs), Fraction(0)))

    system = LinearSystem(names, tuple(equations), tuple(inequalities))
    formulation = Formulation(
        system=system, integer_vars=y_names(k), name=f"sos2-embedding-n{n}", ideal=True
    )
    report = SizeReport(
        size=2 * len(normals) + len(j_set) + 2 * (1 + k - geom.dim_h),
        size_G=2 * len(normals),
        size_B=len(j_set),
        num_equations=1 + (k - geom.dim_h),
        dim_H=geom.dim_h,
        k=k,
        n=n,
    )
    return formulation, report


def padberg(n: int) -> Formulation:
    """The reduced unary-encoded system: chained partial-sum inequalities.

    2(n-1) general rows, two bounds, two equations; total size 2n+4.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    nl = n + 1
    names = lambda_names(n) + y_names(n)
    equations: list[Row] = [
        (tuple([1] * nl + [0] * n), Fraction(1)),
        (tuple([0] * nl + [1] * n), Fraction(1)),
    ]
    inequalities: list[Row] = []
    for l in range(1, n):
        lam = [1 if j <= l else 0 for j in range(1, nl + 1)]
        y = [-1 if i <= l else 0 for i in range(1, n + 1)]
        inequalities.append((tuple(lam + y), Fraction(0)))
        lam = [1 if j >= l + 2 else 0 for j in range(1, nl + 1)]
        y = [-1 if i >= l + 1 else 0 for i in range(1, n + 1)]
        inequalities.append((tuple(lam + y), Fraction(0)))
    for j in (1, nl):
        coeffs = [0] * (nl + n)
        coeffs[j - 1] = -1
        inequalities.append((tuple(coeffs), Fraction(0)))
    system = LinearSystem(names, tuple(equations), tuple(inequalities))
    return Formulation(system, y_names(n), name=f"padberg-n{n}", ideal=True)


def logarithmic(n: int, gray_code: Encoding) -> Formulation:
    """Tight system for a unit-distance code on ceil(log2 n) bits."""
    if gray_code.n != n:
        raise ValueError(f"encoding has {gray_code.n} codes, expected {n}")
    if not is_gray_code(gray_code):
        raise ValueError("encoding does not satisfy the gray-code predicate")
    formulation, _ = build_sos2(gray_code)
    return Formulation(
        formulation.system,
        formulation.integer_vars,
        name=f"logarithmic-n{n}",
        ideal=True,
    )


def textbook_cc(n: int) -> Formulation:
    """The classical non-ideal SOS2 system with one indicator per interval."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nl = n + 1
    names = lambda_names(n) + y_names(n)
    equations: list[Row] = [
        (tuple([1] * nl + [0] * n), Fraction(1)),
        (tuple([0] * nl + [1] * n), Fraction(1)),
    ]
    inequalities: list[Row] = []
    for j in range(1, nl + 1):
        # lambda_j <= sum of the adjacent indicators
        coeffs = [0] * (nl + n)
        coeffs[j - 1] = 1
        if j - 2 >= 0 and j - 2 < n:
            coeffs[nl + j - 2] = -1
        if j - 1 < n:
            coeffs[nl + j - 1] = -1
        inequalities.append((tuple(coeffs), Fraction(0)))
    for idx in range(nl + n):
        coeffs = [0] * (nl + n)
        coeffs[idx] = -1
        inequalities.append((tuple(coeffs), Fraction(0)))
    system = LinearSystem(names, tuple(equations), tuple(inequalities))
    return Formulation(system, y_names(n), name=f"textbook-cc-n{n}", ideal=False)


# ---------------------------------------------------------------------------
# face predicate


@dataclass(frozen=True)
class FaceCheck:
    face: bool
    dim: int


def _strictly_feasible(rows: list[tuple]) -> bool:
    """Feasibility of the homogeneous strict system row . t > 0 for all rows.

    Exact Fourier-Motzkin elimination; a surviving all-zero row is the
    contradiction 0 > 0.
    """
    current = []
    for r in rows:
        if is_zero(r):
            return False
        current.append(scale_primitive(r))
    if not current:
        return True
    width = len(current[0])
    for var in range(width):
        pos = [r for r in current if r[var] > 0]
        neg = [r for r in current if r[var] < 0]
        nxt = {r for r in current if r[var] == 0}
        for p in pos:
            for m in neg:
                comb = tuple(
                    -m[var] * a + p[var] * b for a, b in zip(p, m)
                )
                if is_zero(comb):
                    return False
                nxt.add(scale_primitive(comb))
        current = sorted(nxt)
    return True


def face_check(encoding: Encoding, j_minus: set[int], j_plus: set[int]) -> FaceCheck:
    """Decide whether the index pair (J-, J+) selects a face, and its dim.

    A face requires some direction b with b.c^{j-1} = 0 on the overlap,
    strictly negative on J- only, strictly positive on J+ only (with the
    padding c^0 = c^n = 0).  The dimension is |J+ u J-| - 1 plus the rank
    of the overlap differences.
    """
    n, k = encoding.n, encoding.k
    valid = set(range(1, n + 2))
    j_minus, j_plus = set(j_minus), set(j_plus)
    if not j_minus <= valid or not j_plus <= valid:
        raise ValueError("index sets must live in 1..n+1")
    diffs = geometry(encoding).diffs
    padded = [tuple([0] * k)] + list(diffs) + [tuple([0] * k)]

    both = j_minus & j_plus
    only_minus = j_minus - j_plus
    only_plus = j_plus - j_minus
    dim = len(j_minus | j_plus) - 1 + rank([padded[j - 1] for j in both])

    strict = [tuple(-x for x in padded[j - 1]) for j in only_minus]
    strict += [padded[j - 1] for j in only_plus]
    if any(is_zero(r) for r in strict):
        return FaceCheck(face=False, dim=dim)
    eq_dirs = [padded[j - 1] for j in both if not is_zero(padded[j - 1])]
    basis = nullspace_basis(eq_dirs) if eq_dirs else unit_vectors(k)
    if not basis:
        return FaceCheck(face=not strict, dim=dim)
    reduced = [tuple(dot(b, c) for b in basis) for c in strict]
    return FaceCheck(face=_strictly_feasible(reduced), dim=dim)


# ---------------------------------------------------------------------------
# canonical comparison modulo the equation rowspace


def canonical_form(system: LinearSystem) -> tuple[frozenset, frozenset]:
    """(equation set, inequality set) in canonical coordinates.

    Equations: primitive rows of the reduced echelon form of [A | b].
    Inequalities: pivot columns eliminated via those equations, then the
    whole row scaled positively to a primitive integer tuple.  Trivial
    rows (0 <= nonnegative) are dropped; an infeasible reduction raises.
    """
    eq_rows = [
        [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        for coeffs, rhs in system.equations
    ]
    reduced, pivots = rref(eq_rows)
    width = system.num_vars
    if width in pivots:
        raise ValueError("equations are inconsistent")
    equations = frozenset(canonical_normal(row) for row in reduced)

    facets = set()
    for coeffs, rhs in system.inequalities:
        row = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        for eq_row, piv in zip(reduced, pivots):
            f = row[piv]
            if f:
                row = [a - f * b for a, b in zip(row, eq_row)]
        if all(x == 0 for x in row[:width]):
            if row[width] < 0:
                raise ValueError("system is infeasible")
            continue
        facets.add(scale_primitive(row))
    return equations, frozenset(facets)


def systems_equivalent(a: LinearSystem, b: LinearSystem) -> bool:
    """Equality of canonical equation and facet sets."""
    return canonical_form(a) == canonical_form(b)


def substitute(system: LinearSystem, fixed: dict[str, Fraction]) -> LinearSystem:
    """Pin variables to values, folding them into the right-hand sides."""
    idx = {name: system.var_index(name) for name in fixed}
    keep = [i for i in range(system.num_vars) if i not in idx.values()]
    values = {system.var_index(name): Fraction(v) for name, v in fixed.items()}

    def reduce_row(row: Row) -> Row:
        coeffs, rhs = row
        shift = sum(coeffs[i] * v for i, v in values.items())
        return tuple(coeffs[i] for i in keep), Fraction(rhs) - shift

    return LinearSystem(
        tuple(system.var_names[i] for i in keep),
        tuple(reduce_row(r) for r in system.equations),
        tuple(reduce_row(r) for r in system.inequalities),
    )
