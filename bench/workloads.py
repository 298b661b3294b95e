"""The benchmark's workloads: seeded inputs, one timed round, output checks.

Each workload turns (seed, round) into inputs, runs one timed round of
items through embform's public API -- the calls the CLI makes, minus
argument parsing -- and checks every output afterwards, outside the
timed phase.  Calls go through module attributes (``experiments.size_g``
rather than an imported name) so that the tracer's rebinding reaches
them.  README.md says why each workload exists.

Seeded workloads use stratified sampling: a round holds one item per
slot, and a slot accepts a draw whose cost proxy (computed here, never by
the package) lies in the slot's range.  The slot ranges follow the
proxy's population quantiles, so every round has the same cost mix and a
run's throughput does not swing with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

from embform import encodings, experiments, fileio, polyhedra, pwl2d, ratlin, sos2

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

# Warm-up inputs: fixed, cheap, and disjoint from every timed input (other
# widths or other families), so a memo cannot be filled for free.
WARM_SEED = 0x5EED


@dataclass
class Round:
    """Outputs of one timed round, with per-item failures seen while running."""

    items: int
    outputs: list
    errors: dict = field(default_factory=dict)  # item index -> exception text


@dataclass
class Check:
    failed: set
    messages: list
    descriptors: dict
    digests: dict  # key -> {"got", "want"} for every stream compared


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _compare_digest(check: Check, key: str, got: str):
    want = DIGESTS.get(key)
    check.digests[key] = {"got": got, "want": want}
    if got != want:
        check.messages.append(f"digest {key}: {got} != recorded {want}")
        return False
    return True


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# the benchmark's own geometry: input descriptors, cost proxies, checks


def direction_set(vectors) -> frozenset:
    """Distinct consecutive differences of 0-1 codes, first nonzero entry
    made positive (differences of 0-1 vectors are already primitive)."""
    out = set()
    for a, b in zip(vectors, vectors[1:]):
        d = tuple(y - x for x, y in zip(a, b))
        first = next(x for x in d if x)
        out.add(d if first > 0 else tuple(-x for x in d))
    return frozenset(out)


def repeat_ratio(keys) -> float:
    """Share of items whose key was already seen earlier in the list."""
    keys = list(keys)
    return 1 - len(set(keys)) / len(keys) if keys else 0.0


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def cofactor_normal(rows):
    """Integer normal of dim-1 vectors in Z^dim by cofactors; None if they
    are dependent.  Pure integer arithmetic, no package code."""
    width = len(rows[0])
    normal = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(width))
    return normal if any(normal) else None


def ratlin_normal(rows):
    """The same normal through the package's rational kernel only."""
    if ratlin.rank(rows) != len(rows):
        return None
    return ratlin.nullspace_basis(rows)[0]


def hyperplane_count(dirs, dim: int, normal_of) -> int:
    """Linear hyperplanes of R^dim spanned by the directions (their rank
    dim-1 flats).  A (dim-1)-subset inside an already found flat is
    skipped; any other independent subset spans a new flat."""
    dirs = sorted(dirs)
    covered = set()
    count = 0
    for subset in combinations(range(len(dirs)), dim - 1):
        if subset in covered:
            continue
        normal = normal_of([dirs[i] for i in subset])
        if normal is None:
            continue
        count += 1
        flat = [i for i, d in enumerate(dirs) if sum(a * b for a, b in zip(normal, d)) == 0]
        covered.update(combinations(flat, dim - 1))
    return count


def stratified(rng: random.Random, slots, draw, proxy, limit: int = 20000):
    """Fill each (lo, hi) slot with the first draw whose proxy lies in it."""
    filled = [None] * len(slots)
    for _ in range(limit):
        candidate = draw(rng)
        p = proxy(candidate)
        for i, (lo, hi) in enumerate(slots):
            if filled[i] is None and lo <= p < hi:
                filled[i] = (candidate, p)
                break
        if all(f is not None for f in filled):
            return filled
    raise RuntimeError("stratified sampling did not fill every slot")


def embedding(encoding) -> polyhedra.VRep:
    """Vertices (e_j, h_i), j in {i, i+1}, of the embedded selection union."""
    n = encoding.n
    verts = []
    for i in range(n):
        for j in (i, i + 1):
            lam = [0] * (n + 1)
            lam[j] = 1
            verts.append(tuple(lam) + tuple(encoding[i]))
    return polyhedra.VRep(vertices=tuple(verts))


def oracle_size_g(encoding) -> int:
    """General facet count of the hull oracle: facets of the exact hull
    minus those that are lambda bounds, compared modulo the equations."""
    hull = polyhedra.vrep_to_hrep(embedding(encoding))
    width = encoding.n + 1 + encoding.k
    names = tuple(f"v{i}" for i in range(width))
    _, facets = sos2.canonical_form(sos2.LinearSystem(names, hull.equations, hull.inequalities))
    bounds = tuple((tuple(-1 if c == j else 0 for c in range(width)), Fraction(0))
                   for j in range(encoding.n + 1))
    _, bound_facets = sos2.canonical_form(sos2.LinearSystem(names, hull.equations, bounds))
    return len(facets - bound_facets)


# ---------------------------------------------------------------------------
# scan-k3: the exhaustive scan (paper criterion 6)


class ScanExhaustive:
    """``scan_binary_encodings(k, "exhaustive")``; an item is one encoding."""

    def __init__(self, name, k, rows, minimum, oracle_rows):
        self.name, self.k, self.rows, self.minimum, self.oracle_rows = name, k, rows, minimum, oracle_rows

    def inputs(self, seed, rnd):
        # the enumeration is fixed; the seed picks the rows cross-checked
        rng = _rng(self.name, seed, rnd)
        return {"oracle_rows": sorted(rng.sample(range(self.rows), self.oracle_rows))}

    def warm_up(self):
        experiments.scan_binary_encodings(2, "exhaustive")

    def run(self, inputs, mark) -> Round:
        mark(0)
        try:
            result = experiments.scan_binary_encodings(self.k, "exhaustive")
        except Exception as exc:  # counted as failed items, reported
            return Round(self.rows, [None], {0: repr(exc)})
        return Round(self.rows, [result])

    def check(self, inputs, rnd: Round, seed, round_index, compare_digests) -> Check:
        check = Check(set(), [], {}, {})
        result = rnd.outputs[0]
        all_rows = set(range(self.rows))
        if result is None:
            check.failed |= all_rows
            check.messages.append(rnd.errors[0])
            return check
        n, k = 2 ** self.k, self.k
        cube = [tuple((v >> j) & 1 for j in range(k)) for v in range(n)]
        orders = list(permutations(cube))
        check.descriptors["direction_set_repeat_ratio"] = repeat_ratio(direction_set(p) for p in orders)
        if [sid for sid, _ in result.samples] != list(range(self.rows)) or result.min != self.minimum:
            check.failed |= all_rows
            check.messages.append(f"{len(result.samples)} rows, min {result.min}")
            return check
        lower, upper = 2 * k, 2 * comb(n - 1, k - 1)
        for i, (order, (_, value)) in enumerate(zip(orders, result.samples)):
            gray = all(sum(x != y for x, y in zip(a, b)) == 1 for a, b in zip(order, order[1:]))
            if value % 2 or not lower <= value <= upper or (gray and value != lower):
                check.failed.add(i)
        for i in inputs["oracle_rows"]:
            want = oracle_size_g(encodings.Encoding(orders[i]))
            if result.samples[i][1] != want:
                check.failed.add(i)
                check.messages.append(f"row {i}: size_G {result.samples[i][1]} != oracle {want}")
        if compare_digests:
            csv = ("\n".join(result.csv_lines()) + "\n").encode()
            hist = ("\n".join(result.histogram_lines()) + "\n").encode()
            if not (_compare_digest(check, f"{self.name}/csv", _digest(csv))
                    & _compare_digest(check, f"{self.name}/hist", _digest(hist))):
                check.failed |= all_rows
        if len(check.failed) and not check.messages:
            check.messages.append(f"{len(check.failed)} rows out of bounds")
        return check


# ---------------------------------------------------------------------------
# scan-k5: seeded sampling through the general counter path


class ScanSample:
    """``scan_binary_encodings(k, "sample", 1, s, long_run=True)`` per draw.

    Slots are ranges of the number of distinct difference directions,
    which sets the C(dirs, k-1) subsets the counter tests.
    """

    def __init__(self, name, k, slots):
        self.name, self.k, self.slots = name, k, slots

    def inputs(self, seed, rnd):
        n = 2 ** self.k
        rng = _rng(self.name, seed, rnd)

        def draw(rng):
            s = rng.getrandbits(63)
            return s, encodings.random_binary(n, s)

        picked = stratified(rng, self.slots, draw, lambda cand: len(direction_set(cand[1].vectors)))
        return {"draws": [(s, enc.vectors) for (s, enc), _ in picked],
                "cross_check": rng.randrange(len(picked))}

    def warm_up(self):
        experiments.scan_binary_encodings(self.k - 1, "sample", 2, WARM_SEED)

    def run(self, inputs, mark) -> Round:
        rnd = Round(len(inputs["draws"]), [])
        for i, (s, _) in enumerate(inputs["draws"]):
            mark(i)
            try:
                rnd.outputs.append(experiments.scan_binary_encodings(self.k, "sample", 1, s, long_run=True))
            except Exception as exc:  # counted as a failed item, reported
                rnd.outputs.append(None)
                rnd.errors[i] = repr(exc)
        return rnd

    def check(self, inputs, rnd: Round, seed, round_index, compare_digests) -> Check:
        check = Check(set(), list(rnd.errors.values()), {}, {})
        n, k = 2 ** self.k, self.k
        lower, upper = 2 * k, 2 * comb(n - 1, k - 1)
        draws = inputs["draws"]
        check.descriptors["direction_set_repeat_ratio"] = repeat_ratio(direction_set(v) for _, v in draws)
        for i, ((s, _), result) in enumerate(zip(draws, rnd.outputs)):
            if result is None or result.samples[0][0] != s or len(result.samples) != 1:
                check.failed.add(i)
                continue
            value = result.samples[0][1]
            if value % 2 or not lower <= value <= upper:
                check.failed.add(i)
                check.messages.append(f"draw {s}: size_G {value} outside [{lower}, {upper}]")
        i = inputs["cross_check"]
        if i not in check.failed:
            want = 2 * hyperplane_count(direction_set(draws[i][1]), k, ratlin_normal)
            got = rnd.outputs[i].samples[0][1]
            if got != want:
                check.failed.add(i)
                check.messages.append(f"draw {draws[i][0]}: size_G {got} != rank-based count {want}")
        if compare_digests and seed == 0 and round_index == 0:
            blobs = [("\n".join(r.csv_lines() + r.histogram_lines()) + "\n").encode()
                     for r in rnd.outputs if r is not None]
            if not _compare_digest(check, f"{self.name}/r0", _digest(*blobs)):
                check.failed |= set(range(rnd.items))
        return check


# ---------------------------------------------------------------------------
# sos2-k4: closed form against the hull oracle, export, round trip


class Sos2Oracle:
    """One item per seeded ``random_binary(n, s)`` code: ``build_sos2``, the
    ``vrep_to_hrep`` oracle, canonical comparison, LP and JSON export and
    the JSON round trip.

    Slots are ranges of the code's hyperplane count, computed here by
    cofactors; the oracle's cost follows the facet count it produces.
    """

    def __init__(self, name, n, slots):
        self.name, self.n, self.slots = name, n, slots
        self.k = n.bit_length() - 1

    def inputs(self, seed, rnd):
        picked = stratified(
            _rng(self.name, seed, rnd), self.slots,
            lambda rng: encodings.random_binary(self.n, rng.getrandbits(63)),
            lambda enc: hyperplane_count(direction_set(enc.vectors), self.k, cofactor_normal))
        return {"codes": [(enc, embedding(enc), hyp) for enc, hyp in picked]}

    def warm_up(self):
        self._item(encodings.random_binary(self.n // 2, WARM_SEED), None)

    @staticmethod
    def _item(encoding, vrep):
        formulation, report = sos2.build_sos2(encoding)
        hull = polyhedra.vrep_to_hrep(vrep or embedding(encoding))
        system = formulation.system
        oracle = sos2.canonical_form(sos2.LinearSystem(system.var_names, hull.equations, hull.inequalities))
        built = sos2.canonical_form(system)
        lp = fileio.export_lp(formulation).content
        js = fileio.formulation_to_json(formulation).content
        back = fileio.formulation_from_json(js.decode())
        return formulation, report, oracle, built, lp, js, back

    def run(self, inputs, mark) -> Round:
        rnd = Round(len(inputs["codes"]), [])
        for i, (enc, vrep, _) in enumerate(inputs["codes"]):
            mark(i)
            try:
                rnd.outputs.append(self._item(enc, vrep))
            except Exception as exc:  # counted as a failed item, reported
                rnd.outputs.append(None)
                rnd.errors[i] = repr(exc)
        return rnd

    def check(self, inputs, rnd: Round, seed, round_index, compare_digests) -> Check:
        check = Check(set(), list(rnd.errors.values()), {}, {})
        check.descriptors["hyperplane_counts"] = [hyp for _, _, hyp in inputs["codes"]]
        for i, ((enc, _, hyp), out) in enumerate(zip(inputs["codes"], rnd.outputs)):
            if out is None:
                check.failed.add(i)
                continue
            formulation, rep, oracle, built, _, _, back = out
            system = formulation.system
            problems = []
            if oracle != built:
                problems.append("closed form differs from the hull oracle")
            if rep.size != rep.size_G + rep.size_B + 2 * (1 + rep.k - rep.dim_H):
                problems.append("size report breaks the accounting identity")
            if rep.size_G + rep.size_B != len(system.inequalities) or rep.num_equations != len(system.equations):
                problems.append("size report does not count the emitted rows")
            if rep.size_G != 2 * hyp:
                problems.append(f"size_G {rep.size_G} != twice the cofactor count {hyp}")
            if back != formulation:
                problems.append("JSON round trip changed the formulation")
            if problems:
                check.failed.add(i)
                check.messages.append(f"code {enc.vectors}: {'; '.join(problems)}")
        if compare_digests and seed == 0 and round_index == 0:
            blobs = [blob for out in rnd.outputs if out is not None for blob in out[4:6]]
            if not _compare_digest(check, f"{self.name}/r0", _digest(*blobs)):
                check.failed |= set(range(rnd.items))
        return check


# ---------------------------------------------------------------------------
# pwl-m4: hull embedding and slice certification (paper criteria 9 and 10)


class PwlHulls:
    """Jack-coded hulls of the union jack and its modified variant at m,
    slice certification of the modified hull, and the unit-vector pairing
    at m=2 (criterion 9's).  Items are certified family members.  The seed
    draws the grid values of ``graph_formulation`` and its LP export."""

    def __init__(self, name, m, extra_rows):
        self.name, self.m, self.extra_rows = name, m, extra_rows

    def inputs(self, seed, rnd):
        rng = _rng(self.name, seed, rnd)
        base_tri, mod_tri, unary_tri = pwl2d.union_jack(self.m), pwl2d.modified_union_jack(self.m), pwl2d.union_jack(2)
        values = {p: Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for p in mod_tri.grid_points()}
        return {
            "base": (base_tri, pwl2d.jack_encoding(base_tri)),
            "mod": (mod_tri, pwl2d.jack_encoding(mod_tri), pwl2d.selection_family(mod_tri)),
            "unary": (unary_tri, encodings.unary(8), pwl2d.selection_family(unary_tri)),
            "values": values,
        }

    def warm_up(self):
        tri = pwl2d.union_jack(2)
        hull = pwl2d.embed_and_hull(tri, pwl2d.jack_encoding(tri))
        pwl2d.recover_encoding(hull, pwl2d.selection_family(tri))
        values = {p: Fraction(1) for p in tri.grid_points()}
        fileio.export_lp(pwl2d.graph_formulation(pwl2d.PwlFunction(tri, values), hull))

    def run(self, inputs, mark) -> Round:
        mod_tri, mod_enc, mod_family = inputs["mod"]
        unary_tri, unary_enc, unary_family = inputs["unary"]
        rnd = Round(len(mod_family) + len(unary_family), [None, None])
        mark(0)
        try:
            base = pwl2d.embed_and_hull(*inputs["base"])
            mod = pwl2d.embed_and_hull(mod_tri, mod_enc)
            recovered = pwl2d.recover_encoding(mod, mod_family)
            graph = pwl2d.graph_formulation(pwl2d.PwlFunction(mod_tri, inputs["values"]), mod)
            lp = fileio.export_lp(graph).content
            rnd.outputs[0] = (base, mod, recovered, graph, lp)
        except Exception as exc:  # counted as failed items, reported
            rnd.errors[0] = repr(exc)
        mark(1)
        try:
            hull = pwl2d.embed_and_hull(unary_tri, unary_enc)
            rnd.outputs[1] = (hull, pwl2d.recover_encoding(hull, unary_family))
        except Exception as exc:  # counted as failed items, reported
            rnd.errors[1] = repr(exc)
        return rnd

    def check(self, inputs, rnd: Round, seed, round_index, compare_digests) -> Check:
        check = Check(set(), list(rnd.errors.values()), {}, {})
        mod_tri, mod_enc, mod_family = inputs["mod"]
        unary_tri, unary_enc, unary_family = inputs["unary"]
        mod_items = set(range(len(mod_family)))
        unary_items = set(range(len(mod_family), rnd.items))
        slices = {}
        if rnd.outputs[0] is None:
            check.failed |= mod_items
        else:
            base, mod, recovered, graph, lp = rnd.outputs[0]
            slices["modified"] = 2 ** len(mod.integer_vars) / len(mod_family)
            problems, bad = [], False
            extra = len(mod.system.inequalities) - len(base.system.inequalities)
            if extra != self.extra_rows:
                problems.append(f"modified hull has {extra} extra rows, not {self.extra_rows}")
            if recovered is None or recovered.vectors != mod_enc.vectors:
                problems.append("slices do not recover the jack code")
            link = graph.system.equations[len(mod.system.equations):]
            z_row = [link[2][0][i] for i in range(len(mod_tri.grid_points()))]
            if len(link) != 3 or z_row != [inputs["values"][p] for p in mod_tri.grid_points()]:
                problems.append("graph formulation does not carry the grid values")
            if compare_digests:
                hulls = [fileio.formulation_to_json(f).content for f in (base, mod)]
                bad = not _compare_digest(check, f"{self.name}/hulls", _digest(*hulls))
                if seed == 0 and round_index == 0:
                    bad |= not _compare_digest(check, f"{self.name}/lp-r0", _digest(lp))
            if problems or bad:
                check.failed |= mod_items
                check.messages.extend(problems)
        if rnd.outputs[1] is None:
            check.failed |= unary_items
        else:
            hull, recovered = rnd.outputs[1]
            slices["unary"] = 2 ** len(hull.integer_vars) / len(unary_family)
            problems = []
            if len(hull.system.inequalities) != 65:
                problems.append(f"unary hull has {len(hull.system.inequalities)} rows, not 65")
            if recovered is None or recovered.vectors != unary_enc.vectors:
                problems.append("slices do not recover the unit-vector code")
            bad = compare_digests and not _compare_digest(check, f"{self.name}/unary", _digest(fileio.formulation_to_json(hull).content))
            if problems or bad:
                check.failed |= unary_items
                check.messages.extend(problems)
        check.descriptors["slices_per_member_by_input"] = slices
        members = len(mod_family) + len(unary_family)
        check.descriptors["slices_per_member"] = (
            (slices.get("modified", 0) * len(mod_family) + slices.get("unary", 0) * len(unary_family)) / members)
        return check


# slot ranges: population quantiles of the proxy, measured once on 4,000
# (scan-k5) and 3,000 (sos2-k4) draws of random_binary
WORKLOADS = {
    "scan-k3": ScanExhaustive("scan-k3", k=3, rows=40320, minimum=6, oracle_rows=8),
    "scan-k5": ScanSample("scan-k5", k=5, slots=[(23, 24), (24, 25), (25, 26), (26, 27),
                                                 (27, 28), (27, 28), (28, 29), (29, 30)]),
    "sos2-k4": Sos2Oracle("sos2-k4", n=16, slots=[(0, 42), (42, 50), (50, 57), (57, 63),
                                                  (63, 70), (70, 79), (79, 90), (90, 10 ** 9)]),
    "pwl-m4": PwlHulls("pwl-m4", m=4, extra_rows=4),
}

# Small versions of the same code paths for the harness smoke check; their
# outputs are checked but not against digests.
TINY = {
    "scan-k3": ScanExhaustive("scan-k3", k=2, rows=24, minimum=4, oracle_rows=2),
    "scan-k5": ScanSample("scan-k5", k=4, slots=[(0, 99), (0, 99)]),
    "sos2-k4": Sos2Oracle("sos2-k4", n=8, slots=[(0, 10 ** 9), (0, 10 ** 9)]),
    "pwl-m4": PwlHulls("pwl-m4", m=2, extra_rows=6),
}
