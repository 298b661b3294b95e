"""Command line driver.

Subcommands:

* ``sos2 build``  -- construct a tight selection system for an encoding
* ``sos2 verify`` -- oracle check: integral vertices + slice validity
* ``pwl build``   -- grid-triangulation hull, optionally with values
* ``scan``        -- size distribution over binary encodings
* ``hull``        -- polyhedron file conversion between representations
* ``mmc``         -- exhaustive minima over all small encodings

Exit codes: 0 success, 2 malformed input or usage, 3 budget refusal,
4 invalid encoding, 5 verification failure, 1 internal error.  Errors
print one machine-parsable line ``error:<code>:<message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fileio
from .encodings import (
    Encoding,
    EncodingError,
    antigray,
    gray,
    is_gray_code,
    random_binary,
    unary,
)
from .experiments import ScanBudgetError, exhaustive_mmc, scan_binary_encodings
from .polyhedra import (
    BudgetExceededError,
    HRep,
    VRep,
    hrep_to_vrep,
    vrep_to_hrep,
)
from .pwl2d import (
    BudgetError,
    embed_and_hull,
    graph_formulation,
    hull_size_report,
    jack_encoding,
    modified_union_jack,
    recover_encoding,
    union_jack,
)
from .sos2 import Formulation, build_sos2

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_ENCODING = 4
EXIT_VERIFY = 5

# ``sos2 build`` refuses larger n before building anything: the system has
# (n + 1 + k)-wide rows and unary(128) alone takes about 20 s to build.
SOS2_MAX_N = 128


class VerificationFailure(RuntimeError):
    pass


def _load_encoding(spec: str, n: int) -> Encoding:
    if spec == "unary":
        return unary(n)
    if spec == "gray":
        return gray(n)
    if spec == "antigray":
        return antigray(n)
    if spec.startswith("random:"):
        seed = int(spec.split(":", 1)[1])
        return random_binary(n, seed)
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        enc = fileio.encoding_from_json(path.read_text())
        if enc.n != n:
            raise EncodingError(f"encoding file has n={enc.n}, expected {n}")
        return enc
    raise fileio.FormatError(f"unknown encoding spec {spec!r}")


def _write_model(formulation: Formulation, out: str):
    path = Path(out)
    if path.suffix == ".lp":
        path.write_bytes(fileio.export_lp(formulation).content)
    elif path.suffix == ".json":
        path.write_bytes(fileio.formulation_to_json(formulation).content)
    else:
        raise fileio.FormatError(f"unknown model extension {path.suffix!r}")


def _sos2_family(n: int) -> list[VRep]:
    family = []
    for i in range(1, n + 1):
        verts = []
        for j in (i, i + 1):
            lam = [0] * (n + 1)
            lam[j - 1] = 1
            verts.append(tuple(lam))
        family.append(VRep(vertices=tuple(sorted(verts))))
    return family


def _cmd_sos2_build(args) -> int:
    if args.n > SOS2_MAX_N:
        raise BudgetError(f"sos2 build refused for n={args.n} (budget is n <= {SOS2_MAX_N})")
    encoding = _load_encoding(args.encoding, args.n)
    formulation, report = build_sos2(encoding)
    if args.report:
        print(
            f"n={report.n} k={report.k} dim_H={report.dim_H} "
            f"size={report.size} size_G={report.size_G} size_B={report.size_B} "
            f"equations={report.num_equations}"
        )
    if args.out:
        _write_model(formulation, args.out)
    elif not args.report:
        sys.stdout.write(fileio.formulation_to_json(formulation).text)
    return EXIT_OK


def _cmd_sos2_verify(args) -> int:
    formulation = fileio.formulation_from_json(Path(args.path).read_text())
    system = formulation.system
    k = len(formulation.integer_vars)
    n = system.num_vars - k - 1
    if n < 1:
        raise fileio.FormatError("not a selection system: too few variables")
    int_idx = {system.var_index(v) for v in formulation.integer_vars}
    vrep = hrep_to_vrep(HRep(system.equations, system.inequalities))
    if vrep.is_empty:
        raise VerificationFailure("relaxation is empty")
    fractional = [
        v
        for v in vrep.vertices
        if any(Fraction(v[i]) not in (0, 1) for i in int_idx)
    ]
    if fractional:
        raise VerificationFailure(
            f"relaxation has {len(fractional)} vertices with fractional "
            f"integer block, e.g. {fractional[0]}"
        )
    print(f"ideal: all {len(vrep.vertices)} relaxation vertices are 0-1 integral")
    recovered = recover_encoding(formulation, _sos2_family(n))
    if recovered is None:
        raise VerificationFailure("integer slices do not match the selection family")
    print(f"valid: slices recover an encoding with n={recovered.n} k={recovered.k}")
    return EXIT_OK


def _cmd_pwl_build(args) -> int:
    if args.triangulation == "unionjack":
        tri = union_jack(args.m)
    elif args.triangulation == "modified":
        tri = modified_union_jack(args.m)
    elif args.triangulation.startswith("file:"):
        tri = fileio.triangulation_from_json(
            Path(args.triangulation.split(":", 1)[1]).read_text()
        )
        if tri.m != args.m:
            raise fileio.FormatError(f"triangulation file has m={tri.m}")
    else:
        raise fileio.FormatError(f"unknown triangulation {args.triangulation!r}")
    try:
        encoding = jack_encoding(tri)
    except ValueError as exc:
        raise EncodingError(str(exc)) from exc
    formulation = embed_and_hull(tri, encoding)
    report = hull_size_report(formulation, encoding)
    print(
        f"m={tri.m} n={report.n} k={report.k} size={report.size} "
        f"size_G={report.size_G} size_B={report.size_B} "
        f"equations={report.num_equations}"
    )
    if args.values:
        pwl = fileio.grid_values_from_csv(Path(args.values).read_text(), tri)
        formulation = graph_formulation(pwl, formulation)
    if args.out:
        _write_model(formulation, args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.exhaustive:
        result = scan_binary_encodings(args.k, "exhaustive", long_run=args.long_run)
    else:
        if not args.samples:
            raise fileio.FormatError("scan needs --exhaustive or --samples C")
        result = scan_binary_encodings(
            args.k, "sample", args.samples, args.seed, long_run=args.long_run
        )
    Path(args.out).write_text("\n".join(result.csv_lines()) + "\n")
    summary = {
        "n": result.n,
        "k": result.k,
        "mode": result.mode,
        "seed": result.seed,
        "count": len(result.samples),
        "min": result.min,
        "max": result.max,
        "mean": result.mean,
        "bins": [[v, c] for v, c in result.bins],
    }
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    if args.summary:
        Path(args.summary).write_text(text + "\n")
    else:
        print(text)
    if args.hist:
        Path(args.hist).write_text("\n".join(result.histogram_lines()) + "\n")
    return EXIT_OK


def _cmd_hull(args) -> int:
    poly = fileio.parse_polyfile(Path(args.path).read_text())
    if args.vrep:
        if not isinstance(poly, VRep):
            raise fileio.FormatError("--vrep expects a vertex (V/R) file")
        out = fileio.polyfile_from_hrep(vrep_to_hrep(poly))
    else:
        if not isinstance(poly, HRep):
            raise fileio.FormatError("--hrep expects an inequality (I/E) file")
        vrep = hrep_to_vrep(poly)
        if vrep.is_empty:
            raise VerificationFailure("polyhedron is empty")
        out = fileio.polyfile_from_vrep(vrep)
    Path(args.out).write_text(out)
    return EXIT_OK


def _cmd_mmc(args) -> int:
    result = exhaustive_mmc(args.n, args.kmax)
    sample = result.argmin_size_G[0]
    print(
        f"n={result.n} k_range={list(result.k_range)} "
        f"encodings={result.encodings_seen} "
        f"min_size_G={result.min_size_G} min_size={result.min_size}"
    )
    print(
        f"argmin example: {list(sample.vectors)} "
        f"(gray code: {is_gray_code(sample)})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embform",
        description="Construct, size and verify tight mixed-integer "
        "formulations for unions of polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sos2 = sub.add_parser("sos2", help="selection-constraint systems")
    sos2_sub = sos2.add_subparsers(dest="subcommand", required=True)
    b = sos2_sub.add_parser("build", help="construct a tight system")
    b.add_argument("--n", type=int, required=True, help=f"intervals, at most {SOS2_MAX_N}")
    b.add_argument(
        "--encoding",
        required=True,
        help="unary | gray | antigray | random:SEED | file:PATH",
    )
    b.add_argument("--out", help="output model (.lp or .json)")
    b.add_argument("--report", action="store_true", help="print the size report")
    b.set_defaults(func=_cmd_sos2_build)
    v = sos2_sub.add_parser("verify", help="oracle idealness + validity check")
    v.add_argument("path", help="formulation JSON file")
    v.set_defaults(func=_cmd_sos2_verify)

    pwl = sub.add_parser("pwl", help="two-variable piecewise linear systems")
    pwl_sub = pwl.add_subparsers(dest="subcommand", required=True)
    pb = pwl_sub.add_parser("build", help="hull of a grid triangulation")
    pb.add_argument(
        "--triangulation", required=True, help="unionjack | modified | file:PATH"
    )
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--values", help="grid values CSV (u,v,value)")
    pb.add_argument("--out", help="output model (.lp or .json)")
    pb.set_defaults(func=_cmd_pwl_build)

    scan = sub.add_parser("scan", help="size distribution over binary encodings")
    scan.add_argument("--k", type=int, required=True)
    scan.add_argument("--exhaustive", action="store_true")
    scan.add_argument("--samples", type=int)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--out", required=True, help="CSV output path")
    scan.add_argument("--summary", help="summary JSON path (default: stdout)")
    scan.add_argument("--hist", help="gnuplot-ready histogram path")
    scan.add_argument(
        "--long-run",
        action="store_true",
        help="allow expensive widths (k of 5 or 6)",
    )
    scan.set_defaults(func=_cmd_scan)

    hull = sub.add_parser("hull", help="convert polyhedron exchange files")
    direction = hull.add_mutually_exclusive_group(required=True)
    direction.add_argument(
        "--vrep", action="store_true", help="input is a vertex file; emit facets"
    )
    direction.add_argument(
        "--hrep", action="store_true", help="input is a facet file; emit vertices"
    )
    hull.add_argument("path")
    hull.add_argument("--out", required=True)
    hull.set_defaults(func=_cmd_hull)

    mmc = sub.add_parser("mmc", help="exhaustive minima over small encodings")
    mmc.add_argument("--n", type=int, required=True)
    mmc.add_argument("--kmax", type=int, required=True)
    mmc.set_defaults(func=_cmd_mmc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (fileio.FormatError, FileNotFoundError, ValueError) as exc:
        if isinstance(exc, EncodingError):
            print(f"error:{EXIT_ENCODING}:{exc}", file=sys.stderr)
            return EXIT_ENCODING
        print(f"error:{EXIT_MALFORMED}:{exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (ScanBudgetError, BudgetError, BudgetExceededError) as exc:
        print(f"error:{EXIT_BUDGET}:{exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationFailure as exc:
        print(f"error:{EXIT_VERIFY}:{exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:
        # the documented last resort: one error line, never a traceback
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"error:{EXIT_INTERNAL}:{message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
