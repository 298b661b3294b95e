"""Grid triangulations and formulations for piecewise linear surfaces.

A grid triangulation splits every unit square of an (m+1) x (m+1) grid
into two triangles along one of its diagonals.  Squares are visited
column-fastest ((u, v) with u varying first), and the two triangles of
square (u, v) occupy slots 2(m(v-1) + (u-1)) + t for t in {1, 2}; the
encoding builders pair slot i with code h^i.

The union-jack family alternates diagonals so they form an X around every
odd-odd grid point.  Its modified variant flips the diagonal of the
bottom-left and top-right squares, with the corner triangles inheriting
the codes of the triangles they replace.  Formulations are produced by an
exact convex hull of the embedded selection polytopes, so their tightness
is by construction; ``recover_encoding`` certifies the triangle-code
assignment of any candidate system by slicing it at every 0-1 code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .encodings import Encoding, _reflected_sequence, geometry
from .polyhedra import HRep, VRep, hrep_to_vrep, vrep_to_hrep
from .sos2 import Formulation, LinearSystem, Row, SizeReport, substitute, y_names

Point = tuple[int, int]
Triangle = tuple[Point, Point, Point]


class BudgetError(RuntimeError):
    """Raised when a construction is refused as over the desk-scale budget."""


@dataclass(frozen=True)
class GridTriangulation:
    """2 m^2 triangles splitting the squares of the [1, m+1]^2 grid."""

    m: int
    triangles: tuple[Triangle, ...]

    def __post_init__(self):
        m = self.m
        if m < 1:
            raise ValueError("m must be >= 1")
        if len(self.triangles) != 2 * m * m:
            raise ValueError(f"expected {2 * m * m} triangles")
        for v in range(1, m + 1):
            for u in range(1, m + 1):
                t1 = set(self.square(u, v, 1))
                t2 = set(self.square(u, v, 2))
                corners = {(u, v), (u + 1, v), (u, v + 1), (u + 1, v + 1)}
                if len(t1) != 3 or len(t2) != 3:
                    raise ValueError(f"square ({u},{v}): triangles must have 3 points")
                if t1 | t2 != corners:
                    raise ValueError(f"square ({u},{v}): triangles must cover it")
                diag = t1 & t2
                if diag not in (
                    {(u, v), (u + 1, v + 1)},
                    {(u + 1, v), (u, v + 1)},
                ):
                    raise ValueError(f"square ({u},{v}): shared edge is not a diagonal")

    def slot(self, u: int, v: int, t: int) -> int:
        """1-based index of triangle t of square (u, v)."""
        return 2 * (self.m * (v - 1) + (u - 1)) + t

    def square(self, u: int, v: int, t: int) -> Triangle:
        return self.triangles[self.slot(u, v, t) - 1]

    @property
    def n(self) -> int:
        return len(self.triangles)

    def grid_points(self) -> list[Point]:
        side = self.m + 1
        return [(u, v) for u in range(1, side + 1) for v in range(1, side + 1)]


@dataclass(frozen=True)
class PwlFunction:
    """Grid values of a function that is affine on each triangle."""

    triangulation: GridTriangulation
    values: dict[Point, Fraction]

    def __post_init__(self):
        missing = [p for p in self.triangulation.grid_points() if p not in self.values]
        if missing:
            raise ValueError(f"missing values at grid points {missing[:4]}")


def _tri(*points: Point) -> Triangle:
    return tuple(sorted(points))


def union_jack(m: int) -> GridTriangulation:
    """Diagonals alternate to meet at every odd-odd grid point.

    In each square, triangle 1 takes the (even u, odd v) corner and
    triangle 2 the (odd u, even v) corner, both sharing the diagonal from
    the odd-odd to the even-even corner.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    triangles: list[Triangle] = []
    for v in range(1, m + 1):
        for u in range(1, m + 1):
            odd_u, even_u = (u, u + 1) if u % 2 else (u + 1, u)
            odd_v, even_v = (v, v + 1) if v % 2 else (v + 1, v)
            oo, ee = (odd_u, odd_v), (even_u, even_v)
            triangles.append(_tri(ee, (even_u, odd_v), oo))
            triangles.append(_tri(ee, (odd_u, even_v), oo))
    return GridTriangulation(m=m, triangles=tuple(triangles))


def modified_union_jack(m: int) -> GridTriangulation:
    """Union jack with the bottom-left and top-right squares re-split.

    Those two squares use the opposite diagonal.  In both of them the new
    top-right triangle takes slot 1 and the new bottom-left triangle slot
    2, so under slot-based code assignment the bottom-left triangle of
    the first square inherits the code of the top-left triangle it
    replaces, and the top-right one the bottom-right's.  This fixed slot
    order is the assignment that reproduces the published four-extra-rows
    hulls; certified downstream by the code-recovery slice check.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m % 2:
        raise ValueError("m must be even")
    base = union_jack(m)
    triangles = list(base.triangles)
    triangles[base.slot(1, 1, 1) - 1] = _tri((2, 1), (2, 2), (1, 2))
    triangles[base.slot(1, 1, 2) - 1] = _tri((1, 1), (2, 1), (1, 2))
    triangles[base.slot(m, m, 1) - 1] = _tri((m + 1, m + 1), (m + 1, m), (m, m + 1))
    triangles[base.slot(m, m, 2) - 1] = _tri((m, m), (m + 1, m), (m, m + 1))
    return GridTriangulation(m=m, triangles=tuple(triangles))


def jack_encoding(triangulation: GridTriangulation) -> Encoding:
    """Slot-indexed binary code: one selector bit, then per-axis gray bits.

    Triangle t of square (u, v) receives (t-1, gray(v-1), gray(u-1)) on
    1 + 2 log2(m) bits.  Requires m to be a power of two and the
    triangulation to be the union jack or its modified variant; the
    assignment is certified downstream by the code-recovery slice check
    rather than trusted.
    """
    m = triangulation.m
    if m & (m - 1):
        raise ValueError("jack encodings require m to be a power of two")
    if triangulation not in (union_jack(m), modified_union_jack(m) if m >= 2 else None):
        raise ValueError("unsupported triangulation for the jack encoding")
    codes = _reflected_sequence(m.bit_length() - 1)
    vectors = []
    for v in range(1, m + 1):
        for u in range(1, m + 1):
            for t in (1, 2):
                vectors.append((t - 1,) + codes[v - 1] + codes[u - 1])
    return Encoding(tuple(vectors))


def lambda_grid_names(m: int) -> tuple[str, ...]:
    side = m + 1
    return tuple(
        f"lambda_{u}_{v}" for u in range(1, side + 1) for v in range(1, side + 1)
    )


def selection_family(triangulation: GridTriangulation) -> list[VRep]:
    """Vertex representations of the per-triangle selection polytopes.

    Triangle i selects conv{e_(u,v) : (u,v) in S_i} inside the grid
    simplex; coordinates follow ``lambda_grid_names`` order.
    """
    points = triangulation.grid_points()
    index = {p: i for i, p in enumerate(points)}
    family = []
    for tri in triangulation.triangles:
        verts = []
        for p in tri:
            lam = [0] * len(points)
            lam[index[p]] = 1
            verts.append(tuple(lam))
        family.append(VRep(vertices=tuple(sorted(verts))))
    return family


def embed_and_hull(triangulation: GridTriangulation, encoding: Encoding) -> Formulation:
    """Exact hull of the embedded triangle selectors: the tight system.

    Pairs the selection polytope of slot i with code h^i, runs the
    vertex-to-facet conversion on the union's embedding, and marks the
    code block integral.
    """
    m = triangulation.m
    if m > 8:
        raise BudgetError(f"hull construction for m={m} exceeds the desk-scale budget")
    if encoding.n != triangulation.n:
        raise ValueError(
            f"encoding pairs {encoding.n} codes with {triangulation.n} triangles"
        )
    points = triangulation.grid_points()
    index = {p: i for i, p in enumerate(points)}
    n_lambda = len(points)
    vertices = []
    for i, tri in enumerate(triangulation.triangles):
        h = encoding[i]
        for p in tri:
            lam = [0] * n_lambda
            lam[index[p]] = 1
            vertices.append(tuple(lam) + h)
    hull = vrep_to_hrep(VRep(vertices=tuple(vertices)))
    names = lambda_grid_names(m) + y_names(encoding.k)
    system = LinearSystem(names, hull.equations, hull.inequalities)
    return Formulation(
        system=system,
        integer_vars=y_names(encoding.k),
        name=f"pwl-embedding-m{m}",
        ideal=True,
    )


def hull_size_report(formulation: Formulation, encoding: Encoding) -> SizeReport:
    """Facet counts of a hull-built system, split as ``build_sos2`` splits them.

    size_B counts the bounds on the grid lambda variables: the rows with a
    single nonzero coefficient, on a ``lambda_`` column.  The hull rows are
    facets, so this is the number of facet-defining bounds lambda >= 0,
    the SOS2 meaning of size_B (``bound_index_set``).  Every other row
    counts in size_G, bounds on the code variables y included.
    """
    system = formulation.system
    grid = [name.startswith("lambda_") for name in system.var_names]
    size_b = sum(
        flag and any(c and on_grid for c, on_grid in zip(coeffs, grid))
        for (coeffs, _), flag in zip(system.inequalities, system.bound_flags)
    )
    size_g = len(system.inequalities) - size_b
    dim_h = geometry(encoding).dim_h
    return SizeReport(
        size=size_g + size_b + 2 * (1 + encoding.k - dim_h),
        size_G=size_g,
        size_B=size_b,
        num_equations=len(system.equations),
        dim_H=dim_h,
        k=encoding.k,
        n=encoding.n,
    )


def graph_formulation(pwl: PwlFunction, base: Formulation) -> Formulation:
    """Attach the coordinate and value equations to a selection system.

    Adds x_1, x_2, z with sum(u lam) = x_1, sum(v lam) = x_2 and
    sum(f(u,v) lam) = z; integrality is untouched.
    """
    tri = pwl.triangulation
    names = lambda_grid_names(tri.m)
    if base.system.var_names[: len(names)] != names:
        raise ValueError("base formulation was not built for this triangulation")
    extra = ("x_1", "x_2", "z")
    new_names = base.system.var_names + extra
    pad = (Fraction(0),) * 3

    def widen(row: Row) -> Row:
        coeffs, rhs = row
        return coeffs + pad, rhs

    grid = tri.grid_points()
    tail = len(base.system.var_names) - len(grid)
    link_rows: list[Row] = []
    for pos, value in enumerate(extra):
        if value == "x_1":
            lam = [Fraction(u) for (u, v) in grid]
        elif value == "x_2":
            lam = [Fraction(v) for (u, v) in grid]
        else:
            lam = [Fraction(pwl.values[p]) for p in grid]
        coeffs = (
            tuple(lam)
            + (Fraction(0),) * tail
            + tuple(Fraction(-1) if i == pos else Fraction(0) for i in range(3))
        )
        link_rows.append((coeffs, Fraction(0)))

    system = LinearSystem(
        new_names,
        tuple(widen(r) for r in base.system.equations) + tuple(link_rows),
        tuple(widen(r) for r in base.system.inequalities),
    )
    return Formulation(
        system=system,
        integer_vars=base.integer_vars,
        name=f"{base.name}+graph",
        ideal=base.ideal,
    )


def balas_formulation(family: list[HRep]) -> Formulation:
    """One-continuous-copy-per-polyhedron extended system.

    Each member's rows are activated by its indicator (right-hand sides
    scaled by y_i), the copies sum to the original variables, and the
    indicators sum to one.
    """
    if not family:
        raise ValueError("family must be nonempty")
    d = family[0].dim
    n = len(family)
    if any(h.dim != d for h in family):
        raise ValueError("family members must share one ambient dimension")
    x_vars = tuple(f"x_{j}" for j in range(1, d + 1))
    copy_vars = tuple(
        f"c{i}_{j}" for i in range(1, n + 1) for j in range(1, d + 1)
    )
    yv = y_names(n)
    names = x_vars + copy_vars + yv
    width = len(names)

    def copy_offset(i: int) -> int:
        return d + (i - 1) * d

    equations: list[Row] = []
    inequalities: list[Row] = []
    for i, hrep in enumerate(family, start=1):
        off = copy_offset(i)
        for coeffs, rhs in hrep.equations:
            row = [Fraction(0)] * width
            for j, c in enumerate(coeffs):
                row[off + j] = Fraction(c)
            row[d + n * d + i - 1] = -Fraction(rhs)
            equations.append((tuple(row), Fraction(0)))
        for coeffs, rhs in hrep.inequalities:
            row = [Fraction(0)] * width
            for j, c in enumerate(coeffs):
                row[off + j] = Fraction(c)
            row[d + n * d + i - 1] = -Fraction(rhs)
            inequalities.append((tuple(row), Fraction(0)))
    for j in range(d):
        row = [Fraction(0)] * width
        row[j] = Fraction(1)
        for i in range(1, n + 1):
            row[copy_offset(i) + j] = Fraction(-1)
        equations.append((tuple(row), Fraction(0)))
    row = [Fraction(0)] * width
    for i in range(n):
        row[d + n * d + i] = Fraction(1)
    equations.append((tuple(row), Fraction(1)))

    system = LinearSystem(names, tuple(equations), tuple(inequalities))
    return Formulation(system, yv, name=f"balas-n{n}", ideal=True)


def recover_encoding(
    formulation: Formulation, family: list[VRep]
) -> Encoding | None:
    """Certify a formulation's code assignment by slicing at every 0-1 code.

    For each y in {0,1}^k the relaxation is pinned at y and its vertex set
    compared against the family members, exactly.  Returns the encoding
    pairing member i with its code, or None when some slice matches no
    member, a member is hit twice, or a member is never hit.
    """
    system = formulation.system
    k = len(formulation.integer_vars)
    n = len(family)
    targets = [frozenset(v.vertices) for v in family]
    assignment: dict[int, tuple[int, ...]] = {}
    for code in range(2 ** k):
        h = tuple((code >> l) & 1 for l in range(k))
        sliced = substitute(
            system, {v: Fraction(x) for v, x in zip(formulation.integer_vars, h)}
        )
        vrep = hrep_to_vrep(HRep(sliced.equations, sliced.inequalities))
        if vrep.is_empty:
            continue
        if vrep.rays:
            return None
        got = frozenset(vrep.vertices)
        match = next((i for i, t in enumerate(targets) if t == got), None)
        if match is None or match in assignment:
            return None
        assignment[match] = h
    if len(assignment) != n:
        return None
    return Encoding(tuple(assignment[i] for i in range(n)))
