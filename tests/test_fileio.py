import json
from fractions import Fraction as F

import pytest

from embform.encodings import gray, unary
from embform.fileio import (
    FormatError,
    encoding_from_json,
    encoding_to_json,
    export_lp,
    formulation_from_json,
    formulation_to_json,
    grid_values_from_csv,
    parse_polyfile,
    polyfile_from_hrep,
    polyfile_from_vrep,
    triangulation_from_json,
    triangulation_to_json,
)
from embform.polyhedra import HRep, VRep
from embform.pwl2d import union_jack
from embform.sos2 import Formulation, LinearSystem, build_sos2, padberg

from _golden import H9


def test_encoding_json_round_trip():
    enc = gray(6)
    assert encoding_from_json(encoding_to_json(enc)) == enc


def test_encoding_json_consistency_checks():
    with pytest.raises(FormatError):
        encoding_from_json('{"n": 3, "k": 1, "vectors": [[0], [1]]}')
    with pytest.raises(FormatError):
        encoding_from_json("not json")


def test_formulation_json_round_trip_nine():
    formulation, _ = build_sos2(H9)
    doc = formulation_to_json(formulation)
    back = formulation_from_json(doc.text)
    assert back == formulation
    assert formulation_to_json(back).content == doc.content


def test_formulation_json_fractions_survive():
    system = LinearSystem(
        ("a", "b"),
        equations=(((F(1, 3), F(-2, 7)), F(5, 11)),),
        inequalities=(((F(0), F(1)), F(1, 3)),),
    )
    form = Formulation(system, ("b",))
    back = formulation_from_json(formulation_to_json(form).text)
    assert back.system.equations[0][0][0] == F(1, 3)
    assert back.system.inequalities[0][1] == F(1, 3)


def test_formulation_json_rejects_duplicate_names():
    text = (
        '{"var_names": ["x", "x"], "equations": [], '
        '"inequalities": [], "integer_vars": []}'
    )
    with pytest.raises(FormatError):
        formulation_from_json(text)


def test_formulation_json_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        formulation_from_json('{"var_names": ["x"],\n  broken')
    assert "line" in str(err.value)


def test_triangulation_json_round_trip():
    tri = union_jack(2)
    assert triangulation_from_json(triangulation_to_json(tri)) == tri


def test_grid_values_csv():
    tri = union_jack(1)
    pwl = grid_values_from_csv(
        "u,v,value\n1,1,0\n1,2,1/3\n2,1,2.5\n2,2,-4\n", tri
    )
    assert pwl.values[(1, 2)] == F(1, 3)
    assert pwl.values[(2, 1)] == F(5, 2)


def test_grid_values_csv_missing_point():
    with pytest.raises(FormatError):
        grid_values_from_csv("1,1,0\n", union_jack(1))


def test_polyfile_vrep_round_trip():
    vrep = VRep(vertices=((F(1, 2), 0), (0, 1)), rays=((1, 1),))
    text = polyfile_from_vrep(vrep)
    back = parse_polyfile(text)
    assert isinstance(back, VRep)
    assert set(back.vertices) == {(F(1, 2), 0), (0, 1)}
    assert back.rays == ((1, 1),)


def test_polyfile_hrep_round_trip():
    hrep = HRep(
        equations=(((1, 1), F(1)),),
        inequalities=(((F(-1, 2), 0), F(0)),),
    )
    back = parse_polyfile(polyfile_from_hrep(hrep))
    assert isinstance(back, HRep)
    assert back.equations == (((1, 1), F(1)),)
    assert back.inequalities == (((F(-1, 2), 0), F(0)),)


def test_polyfile_rejects_mixed_and_bad_lines():
    with pytest.raises(FormatError):
        parse_polyfile("V 0 0\nI 1 0 <= 1\n")
    with pytest.raises(FormatError):
        parse_polyfile("Q 1 2\n")
    with pytest.raises(FormatError):
        parse_polyfile("")
    with pytest.raises(FormatError):
        parse_polyfile("V 1 1/0\n")


# ---------------------------------------------------------------------------
# LP export


def parse_lp(text: str):
    """Minimal LP reader for round-trip checks: returns (equations,
    inequalities, bounds, generals) with rows as {name: coeff} plus rhs."""
    lines = [l.strip() for l in text.splitlines()]
    section = None
    equations, inequalities, bounds, generals = [], [], [], []
    for line in lines:
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            section = "obj"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "general":
            section = "general"
            continue
        if low == "end":
            break
        if section == "rows":
            label, _, rest = line.partition(":")
            sense = "=" if " = " in rest else "<="
            lhs, _, rhs = rest.rpartition(sense)
            row = {}
            sign = 1
            coeff = None
            for token in lhs.split():
                if token == "+":
                    sign = 1
                elif token == "-":
                    sign = -1
                elif token.lstrip("-").isdigit():
                    coeff = int(token)
                else:
                    value = sign * (coeff if coeff is not None else 1)
                    row[token] = row.get(token, 0) + value
                    sign, coeff = 1, None
            (equations if sense == "=" else inequalities).append(
                (row, int(rhs.strip()))
            )
        elif section == "bounds":
            bounds.append(line)
        elif section == "general":
            generals.extend(line.split())
    return equations, inequalities, bounds, generals


def test_lp_export_padberg_counts():
    model = export_lp(padberg(4))
    equations, inequalities, bounds, generals = parse_lp(model.text)
    assert len(equations) == 2
    assert len(inequalities) == 6
    assert sum(1 for b in bounds if ">=" in b or "<=" in b) == 2
    assert generals == list(padberg(4).integer_vars)


def test_lp_export_round_trip_matrix():
    from embform.fileio import _integerize

    formulation, _ = build_sos2(gray(4))
    model = export_lp(formulation)
    equations, inequalities, bounds, generals = parse_lp(model.text)
    system = formulation.system
    names = system.var_names

    def as_dict(coeffs):
        return {n: int(c) for n, c in zip(names, coeffs) if c}

    # each exported row, scaled back by its positive factor, equals the
    # source row exactly
    source_eqs = []
    for coeffs, rhs in system.equations:
        icoeffs, irhs, scale = _integerize(coeffs, rhs)
        assert scale > 0
        assert tuple(F(c, scale) for c in icoeffs) == tuple(map(F, coeffs))
        assert F(irhs, scale) == F(rhs)
        source_eqs.append((as_dict(icoeffs), irhs))
    assert sorted(map(repr, source_eqs)) == sorted(map(repr, equations))

    multi = []
    for coeffs, rhs in system.inequalities:
        icoeffs, irhs, scale = _integerize(coeffs, rhs)
        assert tuple(F(c, scale) for c in icoeffs) == tuple(map(F, coeffs))
        if sum(1 for c in icoeffs if c) > 1:
            multi.append((as_dict(icoeffs), irhs))
    assert sorted(map(repr, multi)) == sorted(map(repr, inequalities))


def test_lp_export_every_variable_bounded_or_free():
    formulation, _ = build_sos2(unary(4))
    model = export_lp(formulation)
    _, _, bounds, _ = parse_lp(model.text)
    mentioned = set()
    for b in bounds:
        for token in b.split():
            if token in formulation.system.var_names:
                mentioned.add(token)
    assert mentioned == set(formulation.system.var_names)


def test_lp_export_fractional_rows_integerized():
    system = LinearSystem(
        ("x", "y"),
        equations=(),
        inequalities=(((F(1, 2), F(1, 3)), F(1, 6)),),
    )
    model = export_lp(Formulation(system, ()))
    assert "3 x + 2 y <= 1" in model.text


def test_empty_system_export():
    system = LinearSystem(("x",), equations=(), inequalities=())
    model = export_lp(Formulation(system, ()))
    assert "Subject To" in model.text and "End" in model.text


def test_json_readers_reject_non_integer_fields():
    # a float bit used to be truncated silently: 0.9 read as 0
    for text in ('{"vectors": [[0.9, 1], [1, 0]]}', '{"vectors": [["1", 0], [0, 0]]}'):
        with pytest.raises(FormatError):
            encoding_from_json(text)
    good = {"m": 1, "triangles": [[[1, 1], [2, 1], [1, 2]], [[2, 2], [2, 1], [1, 2]]]}
    assert triangulation_from_json(json.dumps(good)).m == 1
    for bad in (dict(good, m=1.5), dict(good, m="1"), dict(good, triangles=[[[1.0, 1], [2, 1], [1, 2]]])):
        with pytest.raises(FormatError):
            triangulation_from_json(json.dumps(bad))
    # a float coefficient used to become its binary expansion, 0.1 read as
    # 3602879701896397/36028797018963968
    doc = {"var_names": ["a"], "equations": [], "integer_vars": [],
           "inequalities": [{"coeffs": [0.1], "rhs": "1"}]}
    with pytest.raises(FormatError):
        formulation_from_json(json.dumps(doc))
