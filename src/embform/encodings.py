"""0-1 encodings of a selection among n alternatives, and their geometry.

An encoding is an ordered family of n pairwise-distinct 0-1 vectors of a
common bit width k >= ceil(log2 n).  The constructors below cover the
named families used throughout the package:

* ``unary(n)``   -- unit vectors, k = n.
* ``gray(n)``    -- a unit-distance code on k = ceil(log2 n) bits.  The
  default is the standard reflected binary sequence traversed in reverse;
  every downstream builder accepts *any* code passing ``is_gray_code``.
* ``antigray(n)`` -- consecutive Hamming distances alternate k, k-1, k, ...
  (full flip inside each odd/even pair), built by interleaving a reflected
  code with its complement.
* ``random_binary(n, seed)`` -- a uniformly random permutation of {0,1}^k
  for n = 2^k, drawn with a fixed splitmix64 generator so identical seeds
  reproduce identical encodings on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ratlin import Vec, canonical_normal, is_zero, rank, vec_sub


class EncodingError(ValueError):
    """Raised for families that violate the encoding invariants."""


def _min_bits(n: int) -> int:
    """Smallest k with 2^k >= n, in exact integer arithmetic."""
    return 0 if n <= 1 else (n - 1).bit_length()


@dataclass(frozen=True)
class Encoding:
    """Ordered family of n distinct 0-1 vectors in {0,1}^k."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vectors:
            raise EncodingError("encoding must contain at least one vector")
        k = len(self.vectors[0])
        for v in self.vectors:
            if len(v) != k:
                raise EncodingError("all vectors must share one bit width")
            if any(x not in (0, 1) for x in v):
                raise EncodingError(f"non 0-1 entry in {v}")
        if len(set(self.vectors)) != len(self.vectors):
            raise EncodingError("vectors must be pairwise distinct")
        if k < _min_bits(len(self.vectors)):
            raise EncodingError(
                f"bit width {k} too small for {len(self.vectors)} vectors"
            )

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def k(self) -> int:
        return len(self.vectors[0])

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.vectors[i]


@dataclass(frozen=True)
class EncodingGeometry:
    """Consecutive difference vectors and the linear space they span."""

    diffs: tuple[Vec, ...]
    lh_basis: tuple[Vec, ...]
    dim_h: int


def geometry(encoding: Encoding) -> EncodingGeometry:
    """Difference vectors c^i = h^{i+1} - h^i, a basis of their span, its dim.

    The span is the linear space parallel to the affine hull of the codes;
    its dimension is the affine dimension of the encoding.
    """
    vecs = encoding.vectors
    diffs = tuple(vec_sub(vecs[i + 1], vecs[i]) for i in range(len(vecs) - 1))
    basis: list[Vec] = []
    for d in diffs:
        if is_zero(d):
            continue
        if rank(basis + [d]) > len(basis):
            basis.append(canonical_normal(d))
    return EncodingGeometry(diffs=diffs, lh_basis=tuple(basis), dim_h=len(basis))


def unary(n: int) -> Encoding:
    """Unit-vector encoding: the i-th alternative gets e^i in {0,1}^n."""
    if n < 1:
        raise EncodingError("n must be >= 1")
    return Encoding(
        tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    )


def _reflected_sequence(bits: int) -> list[tuple[int, ...]]:
    """Standard reflected binary sequence on ``bits`` bits, LSB first."""
    seq: list[tuple[int, ...]] = [()]
    for _ in range(bits):
        seq = [v + (0,) for v in seq] + [v + (1,) for v in reversed(seq)]
    return seq


def gray(n: int) -> Encoding:
    """Reversed reflected binary code truncated to n entries.

    Consecutive vectors differ in exactly one bit.  The reversed traversal
    is the convention under which the n=4 code generates the classical
    logarithmic SOS2 system verbatim; any unit-distance code is equally
    valid for the downstream builders.
    """
    if n < 1:
        raise EncodingError("n must be >= 1")
    seq = _reflected_sequence(_min_bits(n))
    return Encoding(tuple(seq[n - 1 - i] for i in range(n)))


def antigray(n: int) -> Encoding:
    """Alternating-distance code: pairs flip all k bits, transitions k-1.

    Built from the forward reflected code g on k-1 bits by interleaving
    (g^i, 0) with its complement; defined only for n = 2^k.
    """
    if n < 2 or n & (n - 1):
        raise EncodingError("anti-gray codes require n to be a power of two")
    k = _min_bits(n)
    half = _reflected_sequence(k - 1)
    vectors: list[tuple[int, ...]] = []
    for g in half:
        odd = g + (0,)
        vectors.append(odd)
        vectors.append(tuple(1 - b for b in odd))
    return Encoding(tuple(vectors))


def is_gray_code(encoding: Encoding) -> bool:
    """True iff consecutive vectors are at Hamming distance exactly 1
    and the bit width is the minimum ceil(log2 n)."""
    if encoding.k != _min_bits(max(encoding.n, 2)):
        return False
    vecs = encoding.vectors
    return all(
        sum(abs(a - b) for a, b in zip(vecs[i], vecs[i + 1])) == 1
        for i in range(len(vecs) - 1)
    )


def is_antigray_code(encoding: Encoding) -> bool:
    """True iff consecutive Hamming distances alternate k, k-1, k, ..."""
    n, k = encoding.n, encoding.k
    if n < 2 or n & (n - 1) or k != _min_bits(n):
        return False
    vecs = encoding.vectors
    for i in range(n - 1):
        dist = sum(abs(a - b) for a, b in zip(vecs[i], vecs[i + 1]))
        if dist != (k if i % 2 == 0 else k - 1):
            return False
    return True


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator; returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_binary(n: int, seed: int) -> Encoding:
    """Uniformly random permutation of {0,1}^k under splitmix64.

    Fisher-Yates with draws from splitmix64 seeded by ``seed``; the result
    is a pure function of (n, seed), identical on all platforms.
    """
    if n < 2 or n & (n - 1):
        raise EncodingError("random binary encodings require n to be a power of two")
    k = _min_bits(n)
    cube = [tuple((v >> j) & 1 for j in range(k)) for v in range(n)]
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, out = _splitmix64(state)
        j = out % (i + 1)
        cube[i], cube[j] = cube[j], cube[i]
    return Encoding(tuple(cube))


def affinely_equivalent(h: Encoding, g: Encoding) -> bool:
    """Existence of an affine bijection conv(H) -> conv(G) matching pairs.

    True iff some affine map sends h^i to g^i for every i and the two
    families have equal affine dimension (so the map is invertible between
    the hulls).
    """
    if h.n != g.n:
        raise EncodingError("encodings must pair the same number of alternatives")
    h_geo = geometry(h)
    g_geo = geometry(g)
    if h_geo.dim_h != g_geo.dim_h:
        return False
    # A exists iff every linear relation among the h-differences also
    # holds among the g-differences; stacking pairs makes that a rank test.
    stacked = [tuple(dh) + tuple(dg) for dh, dg in zip(h_geo.diffs, g_geo.diffs)]
    return rank(stacked) == rank(h_geo.diffs)


def bits_changed_once(encoding: Encoding) -> int:
    """Count coordinates flipped at exactly one consecutive transition."""
    vecs = encoding.vectors
    count = 0
    for bit in range(encoding.k):
        flips = sum(
            1
            for i in range(len(vecs) - 1)
            if vecs[i][bit] != vecs[i + 1][bit]
        )
        if flips == 1:
            count += 1
    return count
