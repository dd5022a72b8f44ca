import json

import pytest

from pairmds import d6, pairmetric
from pairmds.cli import _code_file, main
from pairmds.gf import field_of_order
from pairmds.linalg import LinearCode, rs_parity_check
from pairmds.pairmetric import ROUTE_MDS, PairCertificate


def run(args):
    return main(args)


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert run(["construct", "--q", "5", "--n", "13", "--dpair", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["q"] == 5 and doc["n"] == 13 and doc["d_pair"] == 5 and doc["dimension"] == 10
    assert doc["construction"] == "d5"
    assert all(all(0 <= x < 5 for x in row) for row in doc["parity_check"])
    assert run(["verify", str(out)]) == 0
    assert "verified" in capsys.readouterr().out


def test_construct_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run(["construct", "--q", "11", "--n", "15", "--dpair", "12", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_of_range_exit_2_names_bound(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run(["construct", "--q", "3", "--n", "14", "--dpair", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "q^2+q+1" in err
    assert not out.exists()


def test_corrupted_matrix_detected(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(["construct", "--q", "3", "--n", "9", "--dpair", "5", "--out", str(out)])
    doc = json.loads(out.read_text())
    # duplicate one column into another
    for row in doc["parity_check"]:
        row[4] = row[5]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    msg = capsys.readouterr().out
    assert "condition-1" in msg and "witness" in msg


def test_truncated_file_exit_2(tmp_path):
    out = tmp_path / "code.json"
    run(["construct", "--q", "3", "--n", "9", "--dpair", "5", "--out", str(out)])
    trunc = tmp_path / "trunc.json"
    trunc.write_text(out.read_text()[:40])
    assert run(["verify", str(trunc)]) == 2


def test_verify_with_oracle(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(["construct", "--q", "3", "--n", "8", "--dpair", "5", "--out", str(out)])
    assert run(["verify", str(out), "--oracle"]) == 0
    assert "oracle agrees" in capsys.readouterr().out


def test_table_d5_q3(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["table", "--q", "3", "--dpair", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "q,n,d_pair,k,route,verified,millis"
    assert len(lines) - 1 == 9  # n = 5..13
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "3" and fields[2] == "5" and fields[5] == "true"


def test_table_d6_q4(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["table", "--q", "4", "--dpair", "6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) - 1 == 12  # n = 6..17
    ns = [int(line.split(",")[1]) for line in lines[1:]]
    assert ns == sorted(ns) == list(range(6, 18))


def test_table_high_dpair_mixes_routes(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["table", "--q", "11", "--dpair", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    routes = {line.split(",")[4] for line in lines[1:]}
    assert routes == {"mds-hamming", "ec-algebraic"}
    ns = [int(line.split(",")[1]) for line in lines[1:]]
    assert ns == list(range(8, 16))  # up to N(q) - 3 = 15


def test_table_unsupported_q(tmp_path):
    assert run(["table", "--q", "6", "--dpair", "5"]) == 2


def test_ec_search(capsys):
    assert run(["ec-search", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "rational points: 10" in out
    assert run(["ec-search", "--q", "8"]) == 0
    assert "rational points: 14" in capsys.readouterr().out
    assert run(["ec-search", "--q", "2048"]) == 2


def test_rs_route(tmp_path, capsys):
    out = tmp_path / "rs.json"
    assert run(["construct", "--q", "9", "--n", "10", "--dpair", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["construction"] == "rs"
    assert doc["certificate"]["route"] == "mds-hamming"
    assert run(["verify", str(out), "--oracle"]) == 0


def test_long_rs_file_verifies(tmp_path, capsys):
    # every 4 of the 90 columns must be checked independent: C(90, 4) is
    # 2.6M minors, far past what a scan of all 4-subsets can afford
    f = field_of_order(97)
    h = rs_parity_check(f, 90, 4)
    cert = PairCertificate(
        q=97, n=90, d_pair=6, dim_exponent=86, route=ROUTE_MDS, ok=True, checks={"d_H": 5}
    )
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(_code_file(f, LinearCode(h), cert, {"construction": "rs"})))
    assert run(["verify", str(path)]) == 0
    assert "verified (mds-hamming)" in capsys.readouterr().out


def test_search_cap_is_inconclusive_exit_2(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rs.json"
    assert run(["construct", "--q", "9", "--n", "10", "--dpair", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pairmetric, "_SUBSET_SCAN_CAP", 10)
    assert run(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ")
    assert captured.err.count("\n") == 1 and not captured.out


def _set(*path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "base,mutate",
    [
        ("d5", _set("parity_check", 0, 0, value="1")),
        ("d5", _set("parity_check", 0, 0, value=1.0)),
        ("d5", _set("certificate", value=None)),
        ("d5", _set("parity_check", value=5)),
        ("d5", _set("q", value="5")),
        ("d5", _set("d_pair", value="5")),
        ("ec", _set("provenance", "points", 1, value=[1])),
        ("ec", _set("provenance", "points", 0, 0, value=10**30)),
        ("ec", _set("provenance", "k", value=1.5)),
    ],
    ids=["string-entry", "float-entry", "null-certificate", "scalar-matrix",
         "string-q", "string-dpair", "short-ec-point", "ec-point-out-of-field",
         "float-ec-k"],
)
def test_malformed_code_file_exit_2(tmp_path, capsys, base, mutate):
    q, n, dpair = {"d5": ("5", "13", "5"), "ec": ("11", "14", "9")}[base]
    out = tmp_path / "code.json"
    assert run(["construct", "--q", q, "--n", n, "--dpair", dpair, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and not captured.out


def test_spent_ordering_budget_is_inconclusive_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(d6, "DEFAULT_MAX_STATES", 10)
    out = tmp_path / "d6.json"
    assert run(["construct", "--q", "7", "--n", "30", "--dpair", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ")
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


def test_ec_route_verify_detects_window_tamper(tmp_path, capsys):
    out = tmp_path / "ec.json"
    run(["construct", "--q", "13", "--n", "17", "--dpair", "13", "--out", str(out)])
    doc = json.loads(out.read_text())
    # reorder the evaluation points so an inverse pair becomes adjacent:
    # swapping two points leaves the code but breaks the window property
    # captured by the certificate
    pts = doc["provenance"]["points"]
    k = doc["provenance"]["k"]
    swapped = None
    from pairmds.ecmds import EllipticCurve, EvalArrangement, window_check
    from pairmds.gf import field_of_order

    f = field_of_order(13)
    curve = EllipticCurve(f, *doc["provenance"]["curve"])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cand = [tuple(p) for p in pts]
            cand[i], cand[j] = cand[j], cand[i]
            if not window_check(EvalArrangement(curve, tuple(cand), k)):
                swapped = (i, j)
                break
        if swapped:
            break
    assert swapped is not None
    i, j = swapped
    pts[i], pts[j] = pts[j], pts[i]
    # the parity check no longer matches the reordered points either; patch
    # only the points so the product check fires
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1


def test_unknown_subcommand_usage_error():
    assert run(["frobnicate"]) == 2
