"""Exact dual-description engine for rational polyhedra.

Both conversion directions run the same double description core on a
homogeneous cone, with constraints inserted in lexicographic order:

* ``vrep_to_hrep`` feeds the generators (1, v) / (0, r) as constraints of
  the dual cone; its extreme rays are the facets of the hull.
* ``hrep_to_vrep`` homogenizes the inequality system with a leading t >= 0
  coordinate; extreme rays with t > 0 are vertices, t = 0 are rays.

Equations are eliminated before any cone work: the polyhedron is projected
onto coordinates of its affine hull, so the core always sees a
full-dimensional pointed problem.  All arithmetic is integer/rational and
exact; adjacency during insertion is certified by an algebraic rank test.

Hull jobs honor the ``EMBFORM_BUDGET_SECONDS`` environment variable and
raise :class:`BudgetExceededError` when the cap is hit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction

from .ratlin import (
    Vec,
    canonical_normal,
    dot,
    is_zero,
    nullspace_basis,
    rref,
    scale_primitive,
    unit_vectors,
    vec_sub,
)

Row = tuple[tuple, Fraction]


class BudgetExceededError(RuntimeError):
    """A hull computation ran past its configured time budget."""


@dataclass(frozen=True)
class VRep:
    """Vertices plus recession rays; no vertices means the empty set."""

    vertices: tuple[tuple, ...]
    rays: tuple[tuple, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        if self.vertices:
            return len(self.vertices[0])
        if self.rays:
            return len(self.rays[0])
        return 0


@dataclass(frozen=True)
class HRep:
    """Affine-hull equations plus irredundant facet inequalities."""

    equations: tuple[Row, ...]
    inequalities: tuple[Row, ...]

    @property
    def dim(self) -> int:
        for coeffs, _ in (*self.equations, *self.inequalities):
            return len(coeffs)
        return 0


def _deadline() -> float | None:
    budget = os.environ.get("EMBFORM_BUDGET_SECONDS")
    if not budget:
        return None
    return time.monotonic() + float(budget)


def _check_deadline(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("hull budget exceeded (EMBFORM_BUDGET_SECONDS)")


def _rank_limited(rows: list[tuple], mask: int, target: int) -> int:
    """Rank of the rows selected by ``mask``, stopping at ``target``."""
    selected = []
    i = 0
    m = mask
    while m:
        if m & 1:
            selected.append(list(rows[i]))
        m >>= 1
        i += 1
    if not selected:
        return 0
    width = len(selected[0])
    rank = 0
    prev = 1
    for col in range(width):
        piv_row = None
        for r in range(rank, len(selected)):
            if selected[r][col] != 0:
                piv_row = r
                break
        if piv_row is None:
            continue
        selected[rank], selected[piv_row] = selected[piv_row], selected[rank]
        piv = selected[rank][col]
        # the Bareiss rescale applies to every row, zero coefficient or not
        for r in range(rank + 1, len(selected)):
            f = selected[r][col]
            row_r, row_p = selected[r], selected[rank]
            for c in range(col, width):
                row_r[c] = (piv * row_r[c] - f * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank >= target or rank == len(selected):
            break
    return rank


def dual_description(
    rows: list[tuple], dim: int, deadline: float | None = None
) -> tuple[list[Vec], list[Vec]]:
    """Minimal generators (lineality basis, extreme rays) of {x : r.x >= 0}.

    Rows are inserted in the order given.  Candidate ray pairs pass a
    popcount filter and the exact combinatorial adjacency test; every
    accepted pair is then certified by the algebraic rank test, so a
    disagreement (impossible for a correct implementation) raises.
    """
    rows = [tuple(r) for r in rows]
    lineality = unit_vectors(dim)
    ray_vecs: list[tuple] = []
    ray_tight: list[int] = []

    for idx, a in enumerate(rows):
        _check_deadline(deadline)
        bit = 1 << idx
        if is_zero(a):
            ray_tight = [t | bit for t in ray_tight]
            continue

        lin_vals = [dot(a, v) for v in lineality]
        piv = next((i for i, val in enumerate(lin_vals) if val), None)
        if piv is not None:
            w = lineality.pop(piv)
            wval = lin_vals.pop(piv)
            if wval < 0:
                w = tuple(-x for x in w)
                wval = -wval
            lineality = [
                scale_primitive(tuple(wval * x - val * y for x, y in zip(v, w)))
                for v, val in zip(lineality, lin_vals)
            ]
            updated = []
            for r in ray_vecs:
                rv = dot(a, r)
                if rv:
                    r = scale_primitive(
                        tuple(wval * x - rv * y for x, y in zip(r, w))
                    )
                updated.append(r)
            ray_vecs = updated
            ray_tight = [t | bit for t in ray_tight]
            ray_vecs.append(w)
            ray_tight.append(bit - 1)
            continue

        vals = [dot(a, r) for r in ray_vecs]
        neg_idx = [i for i, v in enumerate(vals) if v < 0]
        if not neg_idx:
            ray_tight = [
                t | bit if v == 0 else t for t, v in zip(ray_tight, vals)
            ]
            continue
        pos_idx = [i for i, v in enumerate(vals) if v > 0]
        zero_idx = [i for i, v in enumerate(vals) if v == 0]
        req = dim - len(lineality) - 2

        new_vecs: list[tuple] = []
        new_tight: list[int] = []
        n_rays = len(ray_vecs)
        checked = 0
        for ip in pos_idx:
            tp = ray_tight[ip]
            vp = vals[ip]
            rp = ray_vecs[ip]
            for im in neg_idx:
                common = tp & ray_tight[im]
                if common.bit_count() < req:
                    continue
                checked += 1
                if not checked % 4096:
                    _check_deadline(deadline)
                adjacent = True
                for i3 in range(n_rays):
                    if i3 != ip and i3 != im and common & ~ray_tight[i3] == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                if _rank_limited(rows, common, req) != req:
                    raise RuntimeError(
                        "combinatorial and algebraic adjacency tests disagree"
                    )
                vm = vals[im]
                rm = ray_vecs[im]
                comb = tuple(vp * y - vm * x for x, y in zip(rp, rm))
                new_vecs.append(scale_primitive(comb))
                new_tight.append(common | bit)

        kept_vecs = [ray_vecs[i] for i in pos_idx]
        kept_tight = [ray_tight[i] for i in pos_idx]
        kept_vecs += [ray_vecs[i] for i in zero_idx]
        kept_tight += [ray_tight[i] | bit for i in zero_idx]
        ray_vecs = kept_vecs + new_vecs
        ray_tight = kept_tight + new_tight

    lin_rows, _ = rref(lineality) if lineality else ([], [])
    lin_basis = sorted(canonical_normal(r) for r in lin_rows)
    return lin_basis, sorted(ray_vecs)


# ---------------------------------------------------------------------------
# V-representation -> H-representation


def vrep_to_hrep(vrep: VRep) -> HRep:
    """Minimal H-representation of conv(vertices) + cone(rays).

    Affine-hull equations come from the nullspace of the difference
    matrix; facets are the extreme rays of the dual cone computed in the
    coordinates of the affine hull, then lifted back.
    """
    if not vrep.vertices:
        raise ValueError("vrep_to_hrep requires at least one vertex")
    deadline = _deadline()
    vertices = sorted(set(tuple(Fraction(x) for x in v) for v in vrep.vertices))
    rays = sorted(set(scale_primitive(r) for r in vrep.rays if not is_zero(r)))
    dim = len(vertices[0])
    v0 = vertices[0]
    directions = [vec_sub(v, v0) for v in vertices[1:]] + list(rays)

    normals = nullspace_basis(directions) if directions else unit_vectors(dim)
    equations = tuple(
        (g, Fraction(dot(g, v0))) for g in sorted(normals)
    )

    _, pivots = rref(directions)
    if not pivots:
        return HRep(equations=equations, inequalities=())

    local_pts = [tuple(v[c] for c in pivots) for v in vertices]
    local_rays = [tuple(r[c] for c in pivots) for r in rays]
    cone_rows = sorted(
        [scale_primitive((Fraction(1),) + p) for p in local_pts]
        + [scale_primitive((Fraction(0),) + r) for r in local_rays]
    )
    lin, dual_rays = dual_description(cone_rows, len(pivots) + 1, deadline)
    if lin:
        raise RuntimeError("dual cone of a full-dimensional hull is pointed")

    inequalities = []
    for z in dual_rays:
        z0, w = z[0], z[1:]
        if is_zero(w):
            continue  # trivial far facet 0 <= z0
        coeffs = [0] * dim
        for c, val in zip(pivots, w):
            coeffs[c] = -val
        inequalities.append((tuple(coeffs), Fraction(z0)))
    inequalities = _rebound(equations, inequalities, dim)
    return HRep(equations=equations, inequalities=tuple(sorted(inequalities)))


def _rebound(equations, inequalities, dim: int) -> list[Row]:
    """Re-express facets as single-variable bounds where the equation
    rowspace allows it, so bound facets read as bounds."""
    if not equations:
        return inequalities
    eq_rows = [
        [Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in equations
    ]
    reduced, pivots = rref(eq_rows)

    def reduce_row(coeffs, rhs):
        row = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        for eq_row, piv in zip(reduced, pivots):
            f = row[piv]
            if f:
                row = [a - f * b for a, b in zip(row, eq_row)]
        return row

    unit_cache: list[tuple[int, int, tuple] | None] = []
    for v in range(dim):
        for sign in (1, -1):
            unit = [Fraction(0)] * dim
            unit[v] = Fraction(sign)
            red = reduce_row(unit, Fraction(0))
            if any(red[:dim]):
                unit_cache.append((v, sign, tuple(red)))

    out = []
    for coeffs, rhs in inequalities:
        if sum(1 for c in coeffs if c != 0) == 1:
            out.append((coeffs, rhs))
            continue
        red = reduce_row(coeffs, rhs)
        direction = scale_primitive(red[:dim])
        replaced = False
        for v, sign, unit_red in unit_cache:
            if scale_primitive(unit_red[:dim]) != direction:
                continue
            # positive factor t with red = t * unit_red on the coeff part
            pivot_idx = next(i for i, x in enumerate(unit_red[:dim]) if x)
            t = Fraction(red[pivot_idx]) / unit_red[pivot_idx]
            if t <= 0:
                continue
            c_val = Fraction(red[dim]) / t - unit_red[dim]
            coeffs_new = [Fraction(0)] * dim
            coeffs_new[v] = Fraction(sign)
            scaled = scale_primitive(tuple(coeffs_new) + (c_val,))
            out.append((scaled[:dim], Fraction(scaled[dim])))
            replaced = True
            break
        if not replaced:
            out.append((coeffs, rhs))
    return out


# ---------------------------------------------------------------------------
# H-representation -> V-representation


def hrep_to_vrep(hrep: HRep) -> VRep:
    """All extreme points (and rays) of the polyhedron, exactly.

    Equations are solved out first; the reduced inequality system is
    homogenized with a leading nonnegative coordinate and handed to the
    double description core.  An infeasible system yields the explicit
    empty result; lineality shows up as opposite ray pairs.
    """
    deadline = _deadline()
    dim = hrep.dim
    if hrep.equations:
        eq_rows = [
            [Fraction(c) for c in coeffs] + [Fraction(rhs)]
            for coeffs, rhs in hrep.equations
        ]
        reduced, pivots = rref(eq_rows)
        if dim in pivots:
            return VRep(vertices=(), rays=())
        x0 = [Fraction(0)] * dim
        for row, piv in zip(reduced, pivots):
            x0[piv] = row[-1]
        basis = nullspace_basis([row[:-1] for row in reduced])
    else:
        x0 = [Fraction(0)] * dim
        basis = unit_vectors(dim)

    s = len(basis)
    rows = [(1,) + (0,) * s]
    for coeffs, rhs in hrep.inequalities:
        shift = Fraction(rhs) - dot(coeffs, x0)
        row = (shift,) + tuple(-Fraction(dot(coeffs, b)) for b in basis)
        rows.append(scale_primitive(row))
    lin, rays = dual_description(sorted(rows), s + 1, deadline)

    def to_ambient(local: tuple) -> tuple:
        pt = list(x0) if local[0] else [Fraction(0)] * dim
        t = local[0]
        for coef, b in zip(local[1:], basis):
            if coef:
                for j, x in enumerate(b):
                    pt[j] += Fraction(coef, t) * x if t else coef * x
        return tuple(pt)

    vertices = []
    ray_dirs = []
    for r in rays:
        if r[0] > 0:
            vertices.append(to_ambient(r))
        else:
            ray_dirs.append(scale_primitive(to_ambient(r)))
    for l in lin:
        d = scale_primitive(to_ambient(l))
        ray_dirs.append(d)
        ray_dirs.append(tuple(-x for x in d))
    if not vertices:
        return VRep(vertices=(), rays=())
    return VRep(vertices=tuple(sorted(vertices)), rays=tuple(sorted(ray_dirs)))


def minimize_hrep(hrep: HRep) -> HRep:
    """Irredundant H-representation: drop implied rows, promote implicit
    equalities to equations.  Runs the conversion round trip."""
    vrep = hrep_to_vrep(hrep)
    if vrep.is_empty:
        width = hrep.dim
        return HRep(
            equations=(),
            inequalities=(((0,) * width, Fraction(-1)),),
        )
    return vrep_to_hrep(vrep)
