"""Encoding scans: size distributions, exhaustive minima, alternating codes.

The scans drive the closed-form general-facet counter over many encodings:

* ``scan_binary_encodings`` walks permutations of the full 0-1 cube,
  either exhaustively (k <= 3, all 40,320 orderings at k = 3) or by
  seeded sampling, recording the general-inequality count of each.
* ``exhaustive_mmc`` enumerates every encoding of n alternatives over a
  range of bit widths and reports the exact minima.
* ``antigray_check`` compares the alternating code's general-facet count
  against twice the number of affine hyperplanes spanned by the 0-1 cube
  one dimension down (brute-force oracle).  The count is a lower bound:
  size_G >= 2 * count, strict for k = 2..5 (the transition steps add
  hyperplanes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .encodings import Encoding, _MASK64, _min_bits, antigray, geometry, random_binary
from .ratlin import canonical_normal, nullspace_basis, rank
from .sos2 import bound_index_set, spanned_hyperplanes


class ScanBudgetError(RuntimeError):
    """Raised when a scan is refused as over the desk-scale budget."""


@dataclass(frozen=True)
class ScanResult:
    """Per-encoding general-facet counts plus summary statistics."""

    n: int
    k: int
    mode: str
    seed: int | None
    samples: tuple[tuple[int, int], ...]  # (encoding id or per-draw seed, size_G)
    min: int
    max: int
    mean: float
    bins: tuple[tuple[int, int], ...]  # (size_G value, count), bin width 2

    def csv_lines(self) -> list[str]:
        lines = ["seed_or_id,size_G"]
        lines += [f"{sid},{sg}" for sid, sg in self.samples]
        return lines

    def histogram_lines(self) -> list[str]:
        return [f"{value} {count}" for value, count in self.bins]


def size_g(encoding: Encoding) -> int:
    """General-inequality count: two facets per spanned hyperplane."""
    return 2 * len(spanned_hyperplanes(geometry(encoding)))


def _direction_bits(k: int) -> list[list[int]]:
    """One bit per canonical difference direction of a pair of cube points.

    Entry [a][b] is the bit of the canonical direction of b - a, for cube
    points given as k-bit integers (bit j is coordinate j).  A direction
    is fixed by the mask m of differing bits and the values on m of the
    endpoint that has a 0 at the lowest bit of m, so a - b maps to the same
    bit.  OR-ing the bits of consecutive pairs packs an encoding's
    direction set into one int.
    """
    table = []
    for a in range(1 << k):
        row = []
        for b in range(1 << k):
            m = a ^ b
            low = b if a & (m & -m) else a
            row.append(1 << ((m << k) | (low & m)))
        table.append(row)
    return table


def _memo_size_g(memo: dict, bits: list[list[int]], cube, perm) -> int:
    """size_G of the encoding listing ``cube[i]`` for i in ``perm``.

    size_G depends only on the set of canonical difference directions, so
    the result is kept in ``memo`` under that set, packed by ``bits``.
    """
    key = 0
    for a, b in zip(perm, perm[1:]):
        key |= bits[a][b]
    sg = memo.get(key)
    if sg is None:
        sg = memo[key] = size_g(Encoding(tuple(cube[i] for i in perm)))
    return sg


def _summarize(n, k, mode, seed, samples) -> ScanResult:
    values = [sg for _, sg in samples]
    lo, hi = min(values), max(values)
    trivial_max = 2 * comb(n - 1, k - 1)
    lower = 2 * _min_bits(n)
    if hi > trivial_max or lo < lower:
        raise AssertionError(
            f"size_G range [{lo}, {hi}] violates the proven bounds "
            f"[{lower}, {trivial_max}]"
        )
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return ScanResult(
        n=n,
        k=k,
        mode=mode,
        seed=seed,
        samples=tuple(samples),
        min=lo,
        max=hi,
        mean=sum(values) / len(values),
        bins=tuple(sorted(counts.items())),
    )


def scan_binary_encodings(
    k: int, mode: str, count: int = 0, seed: int = 0, long_run: bool = False
) -> ScanResult:
    """size_G across permutations of {0,1}^k.

    Exhaustive mode enumerates the (2^k)! orderings in lexicographic
    order of the permuted cube and is refused for k >= 4; it sizes each
    distinct direction set once (2,595 for the 40,320 orderings at k = 3,
    about a second in all).  Sample mode draws ``count`` encodings,
    sample i being random_binary(n, seed + i), so any row of the output
    can be reproduced standalone.  Sampling at k = 5 costs about a tenth
    of a second per encoding and at k = 6 tens of seconds; both must be
    opted into with ``long_run``; larger widths are refused outright.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 6:
        raise ScanBudgetError(f"scans at k={k} are beyond the desk-scale budget")
    if k >= 5 and not long_run:
        raise ScanBudgetError(
            f"sampling at k={k} needs the long-run flag "
            "(about 0.1 s per encoding at k=5, tens of seconds at k=6)"
        )
    n = 2 ** k
    if mode == "exhaustive":
        if k > 3:
            raise ScanBudgetError(
                f"exhaustive scan at k={k} means {n}! encodings; refused (k <= 3 only)"
            )
        cube = [tuple((v >> j) & 1 for j in range(k)) for v in range(n)]
        memo: dict[int, int] = {}
        bits = _direction_bits(k)
        samples = [
            (i, _memo_size_g(memo, bits, cube, perm))
            for i, perm in enumerate(permutations(range(n)))
        ]
        return _summarize(n, k, mode, None, samples)
    if mode == "sample":
        if count < 1:
            raise ValueError("sample mode needs count >= 1")
        samples = []
        for i in range(count):
            draw_seed = (seed + i) & _MASK64
            samples.append((draw_seed, size_g(random_binary(n, draw_seed))))
        return _summarize(n, k, mode, seed, samples)
    raise ValueError(f"unknown scan mode {mode!r}")


# ---------------------------------------------------------------------------
# alternating-code check


def _affine_hyperplanes_spanned(dim: int) -> int:
    """Count affine hyperplanes of R^dim spanned by points of {0,1}^dim.

    Brute force: every dim-subset of cube points of full affine rank
    spans one; hyperplanes are deduplicated by their canonical
    (normal, offset) pair.  dim = 0 has no hyperplanes.
    """
    if dim == 0:
        return 0
    points = [tuple((v >> j) & 1 for j in range(dim)) for v in range(2 ** dim)]
    if dim == 1:
        return len(points)
    seen = set()
    for subset in combinations(points, dim):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        if rank(diffs) != dim - 1:
            continue
        normal = nullspace_basis(diffs)[0]
        offset = sum(a * b for a, b in zip(normal, base))
        seen.add((canonical_normal(normal), offset))
    return len(seen)


@dataclass(frozen=True)
class AntigrayCheck:
    size_G: int
    affine_hyperplane_count: int
    equal: bool


def antigray_check(k: int) -> AntigrayCheck:
    """size_G of the alternating code on 2^k entries vs the hyperplane count.

    ``equal`` reports whether size_G equals twice the number of affine
    hyperplanes spanned by {0,1}^(k-1); both quantities are computed
    independently (closed form vs brute-force point enumeration).  Always
    size_G >= 2 * count: the pair step (g,0) -> (complement of g, 1) has
    difference (1-2g, 1) for every g in {0,1}^(k-1), so homogenizing maps
    each affine hyperplane spanned by {+-1}^(k-1), an affine image of
    {0,1}^(k-1), to a distinct linear hyperplane spanned by the code's
    differences, each giving a pair of rows.  The transition differences
    only add hyperplanes; for k = 2..5 they do, and ``equal`` is False.
    """
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    sg = size_g(antigray(2 ** k))
    count = _affine_hyperplanes_spanned(k - 1)
    return AntigrayCheck(size_G=sg, affine_hyperplane_count=count, equal=sg == 2 * count)


# ---------------------------------------------------------------------------
# exhaustive minima


@dataclass(frozen=True)
class MmcResult:
    n: int
    k_range: tuple[int, ...]
    min_size_G: int
    min_size: int
    argmin_size_G: tuple[Encoding, ...]
    argmin_size: tuple[Encoding, ...]
    encodings_seen: int


def exhaustive_mmc(n: int, k_max: int) -> MmcResult:
    """Exact minima of size_G and size over all encodings with k <= k_max.

    Enumerates ordered tuples of distinct vectors from {0,1}^k for every
    admissible k; refused above n = 5 or k_max = 4 (the enumeration is
    factorial).  Keeps every minimizing encoding.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > 5 or k_max > 4:
        raise ScanBudgetError(
            f"exhaustive enumeration refused for n={n}, k_max={k_max} "
            "(budget is n <= 5, k_max <= 4)"
        )
    k_lo = _min_bits(n)
    if k_max < k_lo:
        raise ValueError(f"k_max must be at least {k_lo}")
    best_g: int | None = None
    best_s: int | None = None
    argmin_g: list[Encoding] = []
    argmin_s: list[Encoding] = []
    seen = 0
    for k in range(k_lo, k_max + 1):
        cube = [tuple((v >> j) & 1 for j in range(k)) for v in range(2 ** k)]
        memo: dict[int, int] = {}
        bits = _direction_bits(k)
        for perm in permutations(range(2 ** k), n):
            seen += 1
            sg = _memo_size_g(memo, bits, cube, perm)
            enc = Encoding(tuple(cube[i] for i in perm))
            geom = geometry(enc)
            size = sg + len(bound_index_set(geom)) + 2 * (1 + k - geom.dim_h)
            if best_g is None or sg < best_g:
                best_g, argmin_g = sg, [enc]
            elif sg == best_g:
                argmin_g.append(enc)
            if best_s is None or size < best_s:
                best_s, argmin_s = size, [enc]
            elif size == best_s:
                argmin_s.append(enc)
    # postconditions proven for these ranges: the minimum general count is
    # twice the bit floor, the minimum size sits in the known bracket
    if best_g != 2 * k_lo:
        raise AssertionError(f"min size_G {best_g} != {2 * k_lo}")
    if not n + 3 + k_lo <= best_s <= n + 3 + 2 * k_lo:
        raise AssertionError(
            f"min size {best_s} outside [{n + 3 + k_lo}, {n + 3 + 2 * k_lo}]"
        )
    return MmcResult(
        n=n,
        k_range=tuple(range(k_lo, k_max + 1)),
        min_size_G=best_g,
        min_size=best_s,
        argmin_size_G=tuple(argmin_g),
        argmin_size=tuple(argmin_s),
        encodings_seen=seen,
    )
