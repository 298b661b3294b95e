import json

from embform.cli import main
from embform.fileio import (
    formulation_from_json,
    formulation_to_json,
    parse_polyfile,
    polyfile_from_vrep,
)
from embform.polyhedra import HRep, VRep
from embform.sos2 import build_sos2, systems_equivalent, textbook_cc
from embform.encodings import gray


def test_sos2_build_report(capsys):
    assert main(["sos2", "build", "--n", "4", "--encoding", "gray", "--report"]) == 0
    out = capsys.readouterr().out
    assert "size_G=4" in out and "size=10" in out


def test_sos2_build_lp_and_json(tmp_path):
    lp = tmp_path / "m.lp"
    js = tmp_path / "m.json"
    assert main(["sos2", "build", "--n", "4", "--encoding", "unary", "--out", str(lp)]) == 0
    assert main(["sos2", "build", "--n", "4", "--encoding", "unary", "--out", str(js)]) == 0
    assert lp.read_text().startswith("\\")
    form = formulation_from_json(js.read_text())
    built, _ = build_sos2(__import__("embform.encodings", fromlist=["unary"]).unary(4))
    assert systems_equivalent(form.system, built.system)


def test_sos2_build_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sos2", "build", "--n", "8", "--encoding", "random:7", "--out", str(a)])
    main(["sos2", "build", "--n", "8", "--encoding", "random:7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sos2_build_encoding_file(tmp_path):
    from embform.fileio import encoding_to_json

    path = tmp_path / "enc.json"
    path.write_text(encoding_to_json(gray(4)))
    out = tmp_path / "m.json"
    assert main(
        ["sos2", "build", "--n", "4", "--encoding", f"file:{path}", "--out", str(out)]
    ) == 0


def test_sos2_build_invalid_encoding_exit_code(capsys):
    # anti-gray needs a power of two
    assert main(["sos2", "build", "--n", "6", "--encoding", "antigray"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:4:")


def test_sos2_verify_accepts_tight_system(tmp_path, capsys):
    form, _ = build_sos2(gray(4))
    path = tmp_path / "form.json"
    path.write_bytes(formulation_to_json(form).content)
    assert main(["sos2", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ideal" in out and "valid" in out


def test_sos2_verify_rejects_textbook(tmp_path, capsys):
    path = tmp_path / "cc.json"
    path.write_bytes(formulation_to_json(textbook_cc(4)).content)
    assert main(["sos2", "verify", str(path)]) == 5
    assert "error:5:" in capsys.readouterr().err


def test_sos2_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["sos2", "verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:2:")


def test_pwl_build_report_and_model(tmp_path, capsys):
    out = tmp_path / "uj.json"
    assert main(
        ["pwl", "build", "--triangulation", "unionjack", "--m", "2", "--out", str(out)]
    ) == 0
    assert "size_G=6" in capsys.readouterr().out
    form = formulation_from_json(out.read_text())
    assert len(form.system.inequalities) == 15


def test_pwl_build_with_values(tmp_path):
    csv = tmp_path / "vals.csv"
    rows = ["u,v,value"]
    for u in range(1, 4):
        for v in range(1, 4):
            rows.append(f"{u},{v},{u * v}")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "graph.json"
    assert main(
        [
            "pwl", "build", "--triangulation", "modified", "--m", "2",
            "--values", str(csv), "--out", str(out),
        ]
    ) == 0
    form = formulation_from_json(out.read_text())
    assert {"x_1", "x_2", "z"} <= set(form.system.var_names)


def test_pwl_build_budget_exit(capsys):
    assert main(["pwl", "build", "--triangulation", "unionjack", "--m", "16"]) == 3
    assert capsys.readouterr().err.startswith("error:3:")


def test_pwl_build_from_triangulation_file(tmp_path, capsys):
    from embform.fileio import triangulation_to_json
    from embform.pwl2d import union_jack

    path = tmp_path / "tri.json"
    path.write_text(triangulation_to_json(union_jack(2)))
    assert main(
        ["pwl", "build", "--triangulation", f"file:{path}", "--m", "2"]
    ) == 0
    assert "size_G=6" in capsys.readouterr().out


def test_pwl_build_file_without_jack_encoding(tmp_path, capsys):
    from embform.fileio import triangulation_to_json
    from embform.pwl2d import GridTriangulation

    # a valid triangulation outside the jack family: no code assignment
    tri = GridTriangulation(
        m=1,
        triangles=(
            tuple(sorted([(1, 1), (2, 1), (1, 2)])),
            tuple(sorted([(2, 2), (2, 1), (1, 2)])),
        ),
    )
    path = tmp_path / "tri.json"
    path.write_text(triangulation_to_json(tri))
    assert main(["pwl", "build", "--triangulation", f"file:{path}", "--m", "1"]) == 4
    assert capsys.readouterr().err.startswith("error:4:")


def test_scan_cli(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    summary = tmp_path / "scan.summary.json"
    hist = tmp_path / "scan.hist"
    assert main(
        [
            "scan", "--k", "2", "--exhaustive",
            "--out", str(out), "--summary", str(summary), "--hist", str(hist),
        ]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed_or_id,size_G"
    assert len(lines) == 25
    doc = json.loads(summary.read_text())
    assert doc["min"] == 4
    assert hist.read_text().strip()


def test_scan_budget_exit(tmp_path, capsys):
    assert main(["scan", "--k", "4", "--exhaustive", "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("error:3:")


def test_scan_sampled(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["scan", "--k", "3", "--samples", "20", "--seed", "5", "--out", str(out)]
    ) == 0
    assert len(out.read_text().splitlines()) == 21


def test_hull_round_trip_via_files(tmp_path):
    vfile = tmp_path / "v.poly"
    hfile = tmp_path / "h.poly"
    v2file = tmp_path / "v2.poly"
    vfile.write_text(polyfile_from_vrep(VRep(vertices=((0, 0), (1, 0), (0, 1)))))
    assert main(["hull", "--vrep", str(vfile), "--out", str(hfile)]) == 0
    hrep = parse_polyfile(hfile.read_text())
    assert isinstance(hrep, HRep)
    assert main(["hull", "--hrep", str(hfile), "--out", str(v2file)]) == 0
    back = parse_polyfile(v2file.read_text())
    assert set(back.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_hull_wrong_direction_exit(tmp_path, capsys):
    vfile = tmp_path / "v.poly"
    vfile.write_text("V 0 0\nV 1 0\n")
    assert main(["hull", "--hrep", str(vfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:2:")


def test_mmc_cli(capsys):
    assert main(["mmc", "--n", "3", "--kmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "min_size_G=4" in out


def test_mmc_budget_exit(capsys):
    assert main(["mmc", "--n", "5", "--kmax", "5"]) == 3
    assert capsys.readouterr().err.startswith("error:3:")


def test_missing_file_exit(capsys, tmp_path):
    assert main(["sos2", "verify", str(tmp_path / "nope.json")]) == 2


def test_sos2_verify_wrong_field_types(tmp_path, capsys):
    form, _ = build_sos2(gray(4))
    good = json.loads(formulation_to_json(form).text)
    for key, value in (("equations", "x"), ("inequalities", [[1, 2]]), ("var_names", 3)):
        doc = dict(good, **{key: value})
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(doc))
        assert main(["sos2", "verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:2:") and err.count("\n") == 1


def test_internal_error_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    from embform import polyhedra

    # an engine fault: the algebraic adjacency test contradicts the
    # combinatorial one, which the DD core reports as a RuntimeError
    monkeypatch.setattr(polyhedra, "_rank_limited", lambda rows, mask, target: -1)
    path = tmp_path / "square.txt"
    path.write_text("V 0 0\nV 1 0\nV 0 1\nV 1 1\n")
    assert main(["hull", "--vrep", str(path), "--out", str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:1:RuntimeError: combinatorial and algebraic")
    assert err.count("\n") == 1


def test_sos2_build_huge_n_refused_fast(capsys):
    import time

    from embform.cli import SOS2_MAX_N

    start = time.perf_counter()
    assert main(["sos2", "build", "--n", str(10**12), "--encoding", "unary"]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error:3:")
    assert main(["sos2", "build", "--n", str(SOS2_MAX_N + 1), "--encoding", "gray"]) == 3
