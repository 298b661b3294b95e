"""Property tests: the counters and the exact kernel against slow oracles.

Encodings are drawn over any n and k, not only powers of two, and include
codes whose affine hull is not full-dimensional (unary codes, codes with
duplicated or constant bit columns), which take the Gram path of the
hyperplane counter.
"""

import json
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embform.encodings import Encoding, EncodingError, geometry, gray, unary
from embform.experiments import (
    _direction_bits,
    scan_binary_encodings,
    size_g,
)
from embform.fileio import (
    FormatError,
    encoding_from_json,
    formulation_from_json,
    formulation_to_json,
    triangulation_from_json,
)
from embform.polyhedra import vrep_to_hrep
from embform.ratlin import (
    canonical_normal,
    null_vector,
    nullspace_basis,
    rank,
    rank_naive,
    scale_primitive,
    sign_normalize,
    unit_vectors,
)
from embform.sos2 import LinearSystem, build_sos2, canonical_form, spanned_hyperplanes

from _golden import brute_force_hyperplanes, embedding_vrep

QUICK = settings(max_examples=60, deadline=None)


@st.composite
def encodings(draw, max_n=12):
    """n distinct codes on k bits, optionally widened by copied or
    constant columns so the affine hull drops dimension."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2, min(2**k, max_n)))
    order = draw(st.permutations(range(2**k)))
    codes = [[(v >> j) & 1 for j in range(k)] for v in order[:n]]
    for extra in draw(st.lists(st.integers(-2, k - 1), max_size=2)):
        for code in codes:
            # -2, -1: constant 0 / 1 column; j >= 0: a copy of column j
            code.append(code[extra] if extra >= 0 else extra + 2)
    return Encoding(tuple(tuple(c) for c in codes))


def oracle_general_facets(encoding: Encoding) -> int:
    """Facets of the exact hull of the embedding that are not lambda
    bounds, compared modulo the equations."""
    hull = vrep_to_hrep(embedding_vrep(encoding))
    width = encoding.n + 1 + encoding.k
    names = tuple(f"v{i}" for i in range(width))
    _, facets = canonical_form(LinearSystem(names, hull.equations, hull.inequalities))
    bounds = tuple(
        (tuple(-1 if c == j else 0 for c in range(width)), F(0))
        for j in range(encoding.n + 1)
    )
    _, bound_facets = canonical_form(LinearSystem(names, hull.equations, bounds))
    return len(facets - bound_facets)


# ---------------------------------------------------------------------------
# hyperplane counter


@QUICK
@given(encodings())
def test_spanned_hyperplanes_equals_brute_force(encoding):
    geom = geometry(encoding)
    assert spanned_hyperplanes(geom) == brute_force_hyperplanes(geom)


@QUICK
@given(st.integers(2, 12))
def test_spanned_hyperplanes_unary_equals_brute_force(n):
    geom = geometry(unary(n))
    assert geom.dim_h < n
    assert spanned_hyperplanes(geom) == brute_force_hyperplanes(geom)


@settings(max_examples=25, deadline=None)
@given(encodings(max_n=8))
def test_size_g_equals_hull_oracle(encoding):
    assert size_g(encoding) == oracle_general_facets(encoding)


def test_direction_bits_identify_canonical_directions():
    for k in (1, 2, 3, 4):
        cube = [tuple((v >> j) & 1 for j in range(k)) for v in range(2**k)]
        bits = _direction_bits(k)
        pairs = [(a, b) for a in range(2**k) for b in range(2**k) if a != b]
        direction = {
            (a, b): canonical_normal([y - x for x, y in zip(cube[a], cube[b])])
            for a, b in pairs
        }
        for p in pairs:
            assert bits[p[0]][p[1]].bit_count() == 1
            for q in pairs:
                assert (bits[p[0]][p[1]] == bits[q[0]][q[1]]) == (direction[p] == direction[q])


def test_memoised_exhaustive_scan_equals_unmemoised():
    cube = [tuple((v >> j) & 1 for j in range(2)) for v in range(4)]
    direct = tuple(
        (i, size_g(Encoding(perm))) for i, perm in enumerate(permutations(cube))
    )
    assert scan_binary_encodings(2, "exhaustive").samples == direct


@pytest.fixture(scope="module")
def scan_k3():
    return scan_binary_encodings(3, "exhaustive")


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 40319))
def test_memoised_exhaustive_scan_row_k3(scan_k3, index):
    cube = [tuple((v >> j) & 1 for j in range(3)) for v in range(8)]
    # the index-th permutation in lexicographic order, by factorial digits
    pool, perm, rest = list(cube), [], index
    for size in range(8, 0, -1):
        fact = 1
        for f in range(2, size):
            fact *= f
        perm.append(pool.pop(rest // fact))
        rest %= fact
    assert scan_k3.samples[index] == (index, size_g(Encoding(tuple(perm))))


# ---------------------------------------------------------------------------
# exact kernel

ints = st.integers(-50, 50)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@QUICK
@given(st.lists(ints, min_size=1, max_size=8))
def test_int_fast_paths_equal_fraction_paths(vec):
    as_fractions = [F(x) for x in vec]
    assert scale_primitive(vec) == scale_primitive(as_fractions)
    assert canonical_normal(vec) == canonical_normal(as_fractions)
    assert canonical_normal(vec) == sign_normalize(scale_primitive(as_fractions))
    assert all(type(x) is int for x in canonical_normal(vec))


@QUICK
@given(st.lists(rationals, min_size=1, max_size=8))
def test_scale_primitive_rational_vectors(vec):
    v = scale_primitive(vec)
    assert all(type(x) is int for x in v)
    if any(vec):
        # a positive multiple of the input, primitive
        t = next(F(a) / b for a, b in zip(v, vec) if b)
        assert t > 0 and all(F(a) == t * b for a, b in zip(v, vec))
        assert scale_primitive(v) == v
        assert canonical_normal(vec) == canonical_normal(v)
    else:
        assert not any(v)


@QUICK
@given(st.integers(1, 6).flatmap(
    lambda w: st.lists(st.lists(st.integers(-4, 4), min_size=w, max_size=w), max_size=w + 1)
    .map(lambda rows: (rows, w))
))
def test_null_vector_equals_rational_nullspace(case):
    rows, width = case
    assert rank(rows) == rank_naive(rows)
    kernel = nullspace_basis(rows) if rows else unit_vectors(width)
    assert null_vector(rows, width) == (kernel[0] if len(kernel) == 1 else None)


# ---------------------------------------------------------------------------
# readers raise FormatError (or EncodingError for a valid but bad encoding)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
keys = st.sampled_from(
    ["var_names", "equations", "inequalities", "integer_vars", "coeffs", "rhs",
     "vectors", "n", "k", "m", "triangles"]
)
documents = st.dictionaries(keys, json_values, max_size=5)


@settings(max_examples=200, deadline=None)
@given(documents | json_values)
def test_json_readers_raise_only_format_errors(doc):
    text = json.dumps(doc)
    for reader in (formulation_from_json, encoding_from_json, triangulation_from_json):
        try:
            reader(text)
        except (FormatError, EncodingError):
            pass


VALID_FORMULATION = json.loads(formulation_to_json(build_sos2(gray(4))[0]).text)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["var_names", "equations", "inequalities", "integer_vars", "name"]),
    st.integers(0, 20),
    st.sampled_from([None, "coeffs", "rhs"]),
    json_values,
)
def test_formulation_reader_with_one_field_replaced(key, index, field, value):
    doc = json.loads(json.dumps(VALID_FORMULATION))
    target = doc[key]
    if field is not None and isinstance(target, list) and key.endswith("equalities"):
        target[index % len(target)][field] = value
    elif isinstance(target, list):
        target[index % len(target)] = value
    else:
        doc[key] = value
    try:
        formulation_from_json(json.dumps(doc))
    except FormatError:
        pass
