"""Literal reference systems and shared helpers for the test suite.

The reference systems are transcribed row by row from their published
presentations; tests compare them against constructed systems as
canonical facet sets modulo the equation rowspace.
"""

from fractions import Fraction as F
from itertools import combinations

from embform.encodings import Encoding, EncodingGeometry
from embform.polyhedra import VRep
from embform.ratlin import canonical_normal, dot, is_zero
from embform.sos2 import LinearSystem, lambda_names, y_names


def row(lam, y, rhs=0):
    return tuple(lam) + tuple(y), F(rhs)


def neg_unit(width: int, j: int):
    coeffs = [0] * width
    coeffs[j] = -1
    return tuple(coeffs), F(0)


# chained partial-sum system for n = 4 (the strengthened textbook system)
CC1DSTRONG = LinearSystem(
    lambda_names(4) + y_names(4),
    equations=(row([1] * 5, [0] * 4, 1), row([0] * 5, [1] * 4, 1)),
    inequalities=(
        row([1, 0, 0, 0, 0], [-1, 0, 0, 0]),       # l1 <= y1
        row([-1, -1, 0, 0, 0], [1, 0, 0, 0]),      # y1 <= l1+l2
        row([1, 1, 0, 0, 0], [-1, -1, 0, 0]),      # l1+l2 <= y1+y2
        row([-1, -1, -1, 0, 0], [1, 1, 0, 0]),     # y1+y2 <= l1+l2+l3
        row([1, 1, 1, 0, 0], [-1, -1, -1, 0]),     # l1+l2+l3 <= y1+y2+y3
        row([-1, -1, -1, -1, 0], [1, 1, 1, 0]),    # y1+y2+y3 <= l1+..+l4
        neg_unit(9, 0),
        neg_unit(9, 4),
    ),
)

# two-bit logarithmic system for n = 4, all bounds as published
LOGCC1DSTRONG = LinearSystem(
    lambda_names(4) + y_names(2),
    equations=(row([1] * 5, [0] * 2, 1),),
    inequalities=(
        row([1, 0, 0, 0, 1], [1, 0], 1),     # l1+l5 <= 1-y1
        row([0, 0, 1, 0, 0], [-1, 0], 0),    # l3 <= y1
        row([0, 0, 0, 1, 1], [0, 1], 1),     # l4+l5 <= 1-y2
        row([1, 1, 0, 0, 0], [0, -1], 0),    # l1+l2 <= y2
    )
    + tuple(neg_unit(7, j) for j in range(5)),
)

# the published paired code behind the logarithmic system for n = 4
GRAY4_PAPER = Encoding(((0, 1), (1, 1), (1, 0), (0, 0)))

# nine-member selection system on four bits
H9 = Encoding(
    (
        (0, 1, 1, 1),
        (0, 1, 0, 0),
        (0, 0, 0, 0),
        (0, 1, 0, 1),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (1, 1, 0, 1),
        (1, 0, 1, 1),
        (1, 1, 1, 1),
    )
)


def _le(lam, y):  # lam . l <= y . y
    return tuple(lam) + tuple(-x for x in y), F(0)


def _ge(lam, y):  # lam . l >= y . y
    return tuple(-x for x in lam) + tuple(y), F(0)


NINE = LinearSystem(
    lambda_names(9) + y_names(4),
    equations=(row([1] * 10, [0] * 4, 1),),
    inequalities=(
        _le([0, 0, 0, 0, 1, 1, 1, 1, 1, 1], [1, 0, -1, 1]),
        _ge([0, 0, 0, 1, 1, 1, 2, 2, 1, 1], [1, 0, -1, 1]),
        _le([1, 0, 0, 0, 1, 1, 1, 2, 2, 2], [1, 0, 0, 1]),
        _ge([1, 1, 0, 1, 1, 1, 2, 2, 2, 2], [1, 0, 0, 1]),
        _le([-1, -1, -1, 0, 0, 1, 1, 1, 0, 0], [1, -1, -1, 1]),
        _ge([-1, -1, 0, 0, 1, 1, 1, 1, 1, 0], [1, -1, -1, 1]),
        _le([0, 0, 0, 0, 0, 0, 1, 1, 1, 1], [1, 0, 0, 0]),
        _ge([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], [1, 0, 0, 0]),
        _le([1, 0, 0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 1, 0]),
        _ge([1, 1, 0, 0, 0, 0, 0, 1, 1, 1], [0, 0, 1, 0]),
    )
    + tuple(neg_unit(14, j) for j in range(10) if j != 5),
)

# grid points of the m = 2 square, column-major as in lambda_grid_names
GRID2 = [(u, v) for u in range(1, 4) for v in range(1, 4)]


def _glam(*pts):
    return [1 if p in pts else 0 for p in GRID2]


# published three-bit system for the m = 2 union jack
UNIONJACKEXFORM = LinearSystem(
    tuple(f"lambda_{u}_{v}" for u, v in GRID2) + y_names(3),
    equations=(row([1] * 9, [0] * 3, 1),),
    inequalities=(
        row(_glam((2, 1), (2, 3)), (1, 0, 0), 1),
        row(_glam((1, 2), (3, 2)), (-1, 0, 0), 0),
        row(_glam((1, 1), (2, 1), (3, 1)), (0, 1, 0), 1),
        row(_glam((1, 3), (2, 3), (3, 3)), (0, -1, 0), 0),
        row(_glam((1, 1), (1, 2), (1, 3)), (0, 0, 1), 1),
        row(_glam((3, 1), (3, 2), (3, 3)), (0, 0, -1), 0),
    )
    + tuple(neg_unit(12, j) for j in range(9)),
)

# slot -> code table published for the m = 2 union jack
EXAMPLE2_CODES = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 0),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
)

EXAMPLE2_TRIANGLES = [
    {(2, 2), (2, 1), (1, 1)},
    {(2, 2), (1, 2), (1, 1)},
    {(2, 2), (2, 1), (3, 1)},
    {(2, 2), (3, 2), (3, 1)},
    {(2, 2), (2, 3), (1, 3)},
    {(2, 2), (1, 2), (1, 3)},
    {(2, 2), (2, 3), (3, 3)},
    {(2, 2), (3, 2), (3, 3)},
]

# gray code with no once-flipped bits, from the published n = 8 variant
GRAY8_PAPER = Encoding(
    (
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
        (1, 0, 1),
        (0, 0, 1),
        (0, 0, 0),
    )
)


def embedding_vrep(encoding: Encoding) -> VRep:
    """Vertices (e^j, h^i) for j in {i, i+1} of the selection embedding."""
    n = encoding.n
    verts = []
    for i in range(1, n + 1):
        for j in (i, i + 1):
            lam = [0] * (n + 1)
            lam[j - 1] = 1
            verts.append(tuple(lam) + encoding[i - 1])
    return VRep(vertices=tuple(verts))


def sos2_family(n: int) -> list[VRep]:
    """Selection polytopes conv{e^i, e^{i+1}} as vertex lists."""
    family = []
    for i in range(1, n + 1):
        verts = []
        for j in (i, i + 1):
            lam = [0] * (n + 1)
            lam[j - 1] = 1
            verts.append(tuple(lam))
        family.append(VRep(vertices=tuple(sorted(verts))))
    return family


def _kernel_direction(rows, width):
    """Rational Gaussian elimination, then Fraction back substitution:
    the 1-dim kernel of ``rows`` as a canonical normal, or None."""
    work = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(width):
        pr = next((i for i in range(len(pivots), len(work)) if work[i][col]), None)
        if pr is None:
            continue
        r = len(pivots)
        work[r], work[pr] = work[pr], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    if len(pivots) != width - 1:
        return None
    x = [F(0)] * width
    x[next(c for c in range(width) if c not in pivots)] = F(1)
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        s = sum(work[i][c] * x[c] for c in range(col + 1, width))
        x[col] = -s / work[i][col]
    return canonical_normal(x)


def brute_force_hyperplanes(geom: EncodingGeometry) -> list:
    """Spanned hyperplanes by testing every (dim-1)-subset of directions.

    The package's counter before flat skipping, kept as the reference: no
    subset is skipped, elimination runs on Fractions, and every
    independent subset's normal is collected into a set.
    """
    s = geom.dim_h
    if s == 0:
        return []
    dirs = sorted({canonical_normal(d) for d in geom.diffs if not is_zero(d)})
    basis = geom.lh_basis
    k = len(basis[0])
    # below full dimension, b = sum_a u_a basis_a and b . d = u . gram(d)
    rows = dirs if s == k else [tuple(dot(b, d) for b in basis) for d in dirs]
    normals = set()
    for subset in combinations(range(len(dirs)), s - 1):
        u = _kernel_direction([rows[i] for i in subset], s)
        if u is None:
            continue
        if s < k:
            u = canonical_normal([sum(u_a * base[j] for u_a, base in zip(u, basis)) for j in range(k)])
        normals.add(u)
    return sorted(normals)
