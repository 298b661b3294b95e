"""Serialization: JSON schemas, LP export, and polyhedron exchange files.

Formats (all deterministic byte-for-byte given equal inputs):

* encoding JSON      {"n": int, "k": int, "vectors": [[0|1, ...], ...]}
* formulation JSON   variables, equations, inequalities, integer block;
                     rationals as "p/q" strings, lossless round trip
* triangulation JSON {"m": int, "triangles": [[[u,v],[u,v],[u,v]], ...]}
* grid values CSV    lines "u,v,value" with exact fractions allowed
* polyhedron files   one item per line:
                       V a/b a/b ...          vertex
                       R a/b a/b ...          ray
                       I a/b ... <= a/b       inequality
                       E a/b ... = a/b        equation
                     '#' starts a comment; a file is either a vertex file
                     (V/R) or an inequality file (I/E)
* LP model text      objective 0, integerized constraint rows, a Bounds
                     section for single-variable rows with integral
                     bounds, and a General section for the integer block
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .encodings import Encoding
from .polyhedra import HRep, VRep
from .pwl2d import GridTriangulation, PwlFunction
from .sos2 import Formulation, LinearSystem


class FormatError(ValueError):
    """Raised for malformed input files."""


@dataclass(frozen=True)
class ExportedModel:
    format: str
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode()


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_frac(token: str, where: str) -> Fraction:
    if isinstance(token, float):
        raise FormatError(f"{where}: {token!r} is a float; write rationals as 'p/q'")
    try:
        return Fraction(token)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad rational {token!r}") from exc


def _json_int(value) -> int:
    """A JSON integer as is; a float, string or boolean raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# encoding JSON


def encoding_to_json(encoding: Encoding) -> str:
    doc = {
        "n": encoding.n,
        "k": encoding.k,
        "vectors": [list(v) for v in encoding.vectors],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def encoding_from_json(text: str) -> Encoding:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"encoding JSON: {exc}") from exc
    try:
        vectors = tuple(tuple(_json_int(b) for b in v) for v in doc["vectors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("encoding JSON: missing or malformed 'vectors'") from exc
    enc = Encoding(vectors)
    if "n" in doc and doc["n"] != enc.n:
        raise FormatError(f"encoding JSON: n={doc['n']} but {enc.n} vectors")
    if "k" in doc and doc["k"] != enc.k:
        raise FormatError(f"encoding JSON: k={doc['k']} but width {enc.k}")
    return enc


# ---------------------------------------------------------------------------
# formulation JSON


def formulation_to_json(formulation: Formulation) -> ExportedModel:
    system = formulation.system

    def rows(items):
        return [
            {"coeffs": [_frac_str(c) for c in coeffs], "rhs": _frac_str(rhs)}
            for coeffs, rhs in items
        ]

    doc = {
        "format": "embform-formulation-v1",
        "name": formulation.name,
        "var_names": list(system.var_names),
        "equations": rows(system.equations),
        "inequalities": rows(system.inequalities),
        "integer_vars": list(formulation.integer_vars),
    }
    if formulation.ideal is not None:
        doc["ideal"] = formulation.ideal
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return ExportedModel(format="json", content=text.encode())


def formulation_from_json(text: str) -> Formulation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"formulation JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError("formulation JSON: expected an object")
    for key in ("var_names", "equations", "inequalities", "integer_vars"):
        if key not in doc:
            raise FormatError(f"formulation JSON: missing {key!r}")
        if not isinstance(doc[key], list):
            raise FormatError(f"formulation JSON: {key!r} must be a list")
    names = tuple(str(v) for v in doc["var_names"])
    if len(set(names)) != len(names):
        raise FormatError("formulation JSON: duplicate variable name")

    def rows(items, what):
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or not isinstance(item.get("coeffs"), list):
                raise FormatError(f"{what}[{i}]: expected an object with a 'coeffs' list")
            coeffs = tuple(_parse_frac(c, f"{what}[{i}]") for c in item["coeffs"])
            if len(coeffs) != len(names):
                raise FormatError(f"{what}[{i}]: expected {len(names)} coefficients")
            out.append((coeffs, _parse_frac(item.get("rhs", "0"), f"{what}[{i}]")))
        return tuple(out)

    system = LinearSystem(
        names, rows(doc["equations"], "equations"), rows(doc["inequalities"], "inequalities")
    )
    try:
        return Formulation(
            system=system,
            integer_vars=tuple(str(v) for v in doc["integer_vars"]),
            name=str(doc.get("name", "")),
            ideal=doc.get("ideal"),
        )
    except ValueError as exc:
        raise FormatError(f"formulation JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# triangulation JSON and grid values CSV


def triangulation_to_json(tri: GridTriangulation) -> str:
    doc = {
        "m": tri.m,
        "triangles": [[list(p) for p in t] for t in tri.triangles],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def triangulation_from_json(text: str) -> GridTriangulation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"triangulation JSON: {exc}") from exc
    try:
        triangles = tuple(
            tuple(sorted((_json_int(u), _json_int(v)) for u, v in t)) for t in doc["triangles"]
        )
        m = _json_int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("triangulation JSON: malformed document") from exc
    try:
        return GridTriangulation(m=m, triangles=triangles)
    except ValueError as exc:
        raise FormatError(f"triangulation JSON: {exc}") from exc


def grid_values_from_csv(text: str, tri: GridTriangulation) -> PwlFunction:
    values: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("u,"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise FormatError(f"values CSV line {lineno}: expected 'u,v,value'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"values CSV line {lineno}: bad grid point") from exc
        values[(u, v)] = _parse_frac(parts[2], f"values CSV line {lineno}")
    try:
        return PwlFunction(triangulation=tri, values=values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# polyhedron exchange files


def polyfile_from_vrep(vrep: VRep) -> str:
    lines = []
    for v in vrep.vertices:
        lines.append("V " + " ".join(_frac_str(x) for x in v))
    for r in vrep.rays:
        lines.append("R " + " ".join(_frac_str(x) for x in r))
    return "\n".join(lines) + "\n"


def polyfile_from_hrep(hrep: HRep) -> str:
    lines = []
    for coeffs, rhs in hrep.equations:
        lines.append(
            "E " + " ".join(_frac_str(x) for x in coeffs) + " = " + _frac_str(rhs)
        )
    for coeffs, rhs in hrep.inequalities:
        lines.append(
            "I " + " ".join(_frac_str(x) for x in coeffs) + " <= " + _frac_str(rhs)
        )
    return "\n".join(lines) + "\n"


def parse_polyfile(text: str) -> VRep | HRep:
    vertices, rays = [], []
    equations, inequalities = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"polyfile line {lineno}"
        kind, _, rest = line.partition(" ")
        tokens = rest.split()
        if kind in ("V", "R"):
            vec = tuple(_parse_frac(t, where) for t in tokens)
            (vertices if kind == "V" else rays).append(vec)
        elif kind in ("I", "E"):
            sep = "<=" if kind == "I" else "="
            if sep not in tokens:
                raise FormatError(f"{where}: missing {sep!r}")
            at = tokens.index(sep)
            coeffs = tuple(_parse_frac(t, where) for t in tokens[:at])
            rhs_tokens = tokens[at + 1 :]
            if len(rhs_tokens) != 1:
                raise FormatError(f"{where}: expected one right-hand side")
            row = (coeffs, _parse_frac(rhs_tokens[0], where))
            (inequalities if kind == "I" else equations).append(row)
        else:
            raise FormatError(f"{where}: unknown line type {kind!r}")
    has_v = bool(vertices or rays)
    has_h = bool(equations or inequalities)
    if has_v and has_h:
        raise FormatError("polyfile mixes V/R and I/E lines")
    if not has_v and not has_h:
        raise FormatError("polyfile is empty")
    widths = {len(v) for v in vertices + rays} or {
        len(c) for c, _ in equations + inequalities
    }
    if len(widths) != 1:
        raise FormatError("polyfile rows have inconsistent dimensions")
    if has_v:
        return VRep(vertices=tuple(vertices), rays=tuple(rays))
    return HRep(equations=tuple(equations), inequalities=tuple(inequalities))


# ---------------------------------------------------------------------------
# LP export


def _integerize(coeffs, rhs) -> tuple[tuple[int, ...], int, int]:
    """Scale a row by the LCM of its denominators; returns (coeffs, rhs, scale)."""
    fracs = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    return tuple(ints[:-1]), ints[-1], den


def _lp_terms(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        if not parts:
            parts.append(f"{c} {name}" if c != 1 else name)
            if c == -1:
                parts[-1] = f"- {name}"
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign} {mag} {name}" if mag != 1 else f"{sign} {name}")
    return " ".join(parts) if parts else "0 " + names[0]


def export_lp(formulation: Formulation) -> ExportedModel:
    """LP-format text with integer coefficients only.

    Every row is pre-scaled by the least common multiple of its
    denominators.  Single-variable rows whose scaled bound is integral go
    to the Bounds section; every variable is otherwise declared free, so
    the file carries exactly the system's rows.
    """
    system = formulation.system
    names = system.var_names
    lines = [f"\\ {formulation.name or 'embform model'}", "Minimize", " obj: 0"]
    lines.append("Subject To")
    lower: dict[str, int] = {}
    upper: dict[str, int] = {}
    con = 0
    for coeffs, rhs in system.equations:
        icoeffs, irhs, _ = _integerize(coeffs, rhs)
        con += 1
        lines.append(f" e{con}: {_lp_terms(icoeffs, names)} = {irhs}")
    for coeffs, rhs in system.inequalities:
        icoeffs, irhs, _ = _integerize(coeffs, rhs)
        support = [i for i, c in enumerate(icoeffs) if c]
        if len(support) == 1:
            i = support[0]
            c = icoeffs[i]
            if irhs % c == 0:
                name = names[i]
                value = irhs // c
                side = upper if c > 0 else lower
                if name not in side:
                    side[name] = value
                    continue
        con += 1
        lines.append(f" c{con}: {_lp_terms(icoeffs, names)} <= {irhs}")
    # every variable gets an explicit bound line: the LP format's implicit
    # lower bound of zero must never sneak in
    lines.append("Bounds")
    for name in names:
        lo, up = lower.get(name), upper.get(name)
        if lo is None and up is None:
            lines.append(f" {name} free")
        elif up is None:
            lines.append(f" {name} >= {lo}")
        elif lo is None:
            lines.append(f" -infinity <= {name} <= {up}")
        else:
            lines.append(f" {lo} <= {name} <= {up}")
    if formulation.integer_vars:
        lines.append("General")
        lines.append(" " + " ".join(formulation.integer_vars))
    lines.append("End")
    return ExportedModel(format="lp", content=("\n".join(lines) + "\n").encode())
