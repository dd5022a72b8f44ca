import functools
import hashlib
import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pairmds import cli, d6, ecmds, linalg, pairmetric
from pairmds.cli import _code_file, _reverify, build_parser, main
from pairmds.gf import field_of_order
from pairmds.linalg import DEFAULT_ENUM_CAP, LinearCode, null_space, rs_parity_check
from pairmds.pairmetric import ROUTE_EC, ROUTE_MDS, PairCertificate

from reference import ec_sum


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
    # q = 2^61 - 1 is prime: rejected by the field-order bound, not by factoring
    code = run(["construct", "--q", str(2**61 - 1), "--n", "13", "--dpair", "5", "--out", str(out)])
    assert code == 2
    assert "65536" in capsys.readouterr().err
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


@pytest.mark.parametrize("q,count", [(128, 150), (512, 558)])
def test_ec_search_largest_binary_fields(capsys, q, count):
    assert run(["ec-search", "--q", str(q)]) == 0
    assert f"rational points: {count} (N(q) = {count})" in capsys.readouterr().out


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


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_dimension_one_rs_file_exit_2(tmp_path, capsys, oracle):
    # r = n - 1: the one word of the code, up to scale, has pair weight
    # n = 6, short of the r + 2 = 7 that the file and its certificate claim
    f = field_of_order(7)
    h = rs_parity_check(f, 6, 5)
    cert = PairCertificate(
        q=7, n=6, d_pair=7, dim_exponent=1, route=ROUTE_MDS, ok=True, checks={"d_H": 6}
    )
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(_code_file(f, LinearCode(h), cert, {"construction": "rs"})))
    assert run(["verify", str(path)] + oracle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need n >= r + 2, got n=6, r=5 rows\n"


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_dimension_one_elliptic_file_exit_2(tmp_path, capsys, oracle):
    # k = 1 on five points of the maximal curve over GF(7): the constant
    # words have pair weight n = 5, short of the n - k + 2 = 6 that the file
    # claims, and the verdict refuses the claim before it decides anything
    f = field_of_order(7)
    curve = ecmds.find_maximal_curve(f)
    points = ecmds.ec_points(curve)[1:6]
    h = null_space(ecmds.generator_matrix(ecmds.EvalArrangement(curve, tuple(points), 1)))
    assert pairmetric.min_pair_distance_bruteforce(LinearCode(h)) == 5
    cert = PairCertificate(q=7, n=5, d_pair=6, dim_exponent=1, route=ROUTE_EC, ok=True)
    provenance = {
        "construction": "elliptic",
        "curve": list(curve.coefficients()),
        "points": [list(p) for p in points],
        "k": 1,
    }
    path = tmp_path / "ec.json"
    path.write_text(json.dumps(_code_file(f, LinearCode(h), cert, provenance)))
    assert run(["verify", str(path)] + oracle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the elliptic verdict needs k >= 2, got k=1\n"


def test_search_cap_is_inconclusive_exit_2(tmp_path, capsys, monkeypatch):
    # row 1 of the Reed-Solomon matrix scaled by 2: the same MDS code, but
    # its columns are off the normal rational curve, so the check searches
    out = tmp_path / "rs.json"
    assert run(["construct", "--q", "9", "--n", "10", "--dpair", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    f = field_of_order(9)
    doc["parity_check"][1] = [f.mul(2, x) for x in doc["parity_check"][1]]
    out.write_text(json.dumps(doc))
    monkeypatch.setattr(pairmetric, "_SUBSET_SCAN_CAP", 10)
    assert run(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ")
    assert captured.err.count("\n") == 1 and not captured.out


def test_rs_file_verifies_without_the_dependent_set_search(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rs.json"
    assert run(["construct", "--q", "9", "--n", "10", "--dpair", "8", "--out", str(out)]) == 0
    capsys.readouterr()

    def search(*args):
        raise AssertionError("the dependent-set search ran")

    monkeypatch.setattr(pairmetric, "_SUBSET_SCAN_CAP", 10)
    monkeypatch.setattr(pairmetric, "_first_dependent_subset", search)
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "verified (mds-hamming): (10, 8)_9 MDS symbol-pair code\n"


def _set(*path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


# parity_check reshaped, the declared n and dimension left as they were
def _drop_column(doc):
    doc["parity_check"] = [row[:-1] for row in doc["parity_check"]]


def _append_duplicate_row(doc):
    doc["parity_check"].append(list(doc["parity_check"][0]))


def _transpose(doc):
    doc["parity_check"] = [list(col) for col in zip(*doc["parity_check"])]


_RESHAPES = {"column-dropped": _drop_column, "row-duplicated": _append_duplicate_row,
             "transposed": _transpose}


def _redeclare(doc):
    # n and dimension made to agree with the reshaped matrix
    m = doc["parity_check"]
    doc["n"] = len(m[0])
    doc["dimension"] = len(m[0]) - len(m)


@pytest.mark.parametrize(
    "base,mutate",
    [
        ("d5", _set("parity_check", 0, 0, value="1")),
        ("d5", _set("parity_check", 0, 0, value=1.0)),
        ("d5", _set("parity_check", 1, 2, value=1.5)),
        ("d5", _set("parity_check", 1, 2, value=True)),
        ("d5", _set("parity_check", 1, 2, value=[1])),
        ("d5", _set("parity_check", 1, 2, value=None)),
        ("d5", _set("certificate", value=None)),
        ("d5", _set("parity_check", value=5)),
        ("d5", _set("q", value="5")),
        ("d5", _set("d_pair", value="5")),
        ("ec", _set("provenance", "points", 1, value=[1])),
        ("ec", _set("provenance", "points", 0, 0, value=10**30)),
        ("ec", _set("provenance", "k", value=1.5)),
        ("d5", lambda doc: doc.update(p=7, a=9)),
        ("ec", _set("provenance", "curve", 0, value=0.0)),
        ("d5", lambda doc: doc.update(
            n=4, dimension=1, parity_check=[r[:4] for r in doc["parity_check"]])),
        ("d5", lambda doc: doc.update(
            n=3, dimension=0, parity_check=[r[:3] for r in doc["parity_check"]],
            certificate={"route": "mds-hamming"})),
        ("d5", _set("q", value=2**61 - 1)),
        ("ec", _drop_column),
        ("ec", _append_duplicate_row),
        ("ec", _transpose),
    ],
    ids=["string-entry", "float-entry", "fraction-entry", "bool-entry", "list-entry",
         "null-entry", "null-certificate", "scalar-matrix",
         "string-q", "string-dpair", "short-ec-point", "ec-point-out-of-field",
         "float-ec-k", "foreign-field", "float-curve-coefficient", "n-below-d-H-plus-2",
         "dimension-0", "huge-prime-q", "ec-column-dropped", "ec-row-duplicated",
         "ec-transposed"],
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


@pytest.mark.parametrize("bad, shown", [
    (True, "of type bool"), (1.0, "of type float"), (-1, "-1"), (5, "5"),
    (2**70, str(2**70)), ("3", "of type str"), (None, "of type NoneType"),
])
@pytest.mark.parametrize("slot", [0, 6, 12])
def test_bad_matrix_entry_names_the_entry(tmp_path, capsys, bad, shown, slot):
    out = tmp_path / "code.json"
    assert run(["construct", "--q", "5", "--n", "13", "--dpair", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["parity_check"][1][slot] = bad
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(bad_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: bad parity-check matrix: element code {shown} is not an integer in 0..4\n"
    )
    assert not captured.out


def test_deeply_nested_code_file_exit_2(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 200_000)
    assert run(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read code file: ")
    assert captured.err.count("\n") == 1 and not captured.out


def test_elliptic_file_above_curve_bound_exit_2(tmp_path, capsys):
    # a (12, 9) evaluation code on y^2 + xy = x^3 + 1 over GF(2^11): its
    # group table would have about 2^22 entries
    f = field_of_order(2048)
    curve = ecmds.EllipticCurve(f, 1, 0, 0, 0, 1)
    points = ecmds.ec_points(curve)[1:13]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    # the staircase 1, x, y, x^2, xy of L(5O) at the points
    rows = [[1] * 12, xs, ys, f.mul_rows(xs, xs), f.mul_rows(xs, ys)]
    h = null_space(linalg.CodeMatrix.from_rows(f, rows))
    cert = PairCertificate(q=2048, n=12, d_pair=9, dim_exponent=5, route=ROUTE_EC, ok=True)
    provenance = {
        "construction": "elliptic",
        "curve": list(curve.coefficients()),
        "points": [list(p) for p in points],
        "k": 5,
    }
    path = tmp_path / "ec.json"
    path.write_text(json.dumps(_code_file(f, LinearCode(h), cert, provenance)))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "1024" in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_spent_ordering_budget_is_inconclusive_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(d6, "DEFAULT_MAX_STATES", 10)
    out = tmp_path / "d6.json"
    assert run(["construct", "--q", "7", "--n", "30", "--dpair", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ")
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


def test_spent_ordering_budget_is_inconclusive_with_the_ovoid_built_earlier(
    tmp_path, capsys, monkeypatch
):
    d6.elliptic_quadric(field_of_order(7))
    monkeypatch.setattr(d6, "DEFAULT_MAX_STATES", 10)
    out = tmp_path / "d6.json"
    assert run(["construct", "--q", "7", "--n", "30", "--dpair", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ")
    assert not captured.out and not out.exists()


def test_consecutive_calls_share_the_parser_but_not_arguments(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    out = tmp_path / "code.json"
    assert run(["construct", "--q", "5", "--n", "13", "--dpair", "5", "--out", str(out)]) == 0
    # --out does not carry over: the next construct writes to stdout
    assert run(["construct", "--q", "5", "--n", "13", "--dpair", "5"]) == 0
    assert capsys.readouterr().out == out.read_text()
    caps = []

    def oracle(code, cap):
        caps.append(cap)
        return 5

    monkeypatch.setattr(cli, "min_pair_distance_bruteforce", oracle)
    assert run(["verify", str(out), "--oracle", "--enum-cap", "10"]) == 0
    assert "oracle agrees" in capsys.readouterr().out
    assert run(["verify", str(out)]) == 0
    assert "oracle" not in capsys.readouterr().out
    assert run(["verify", str(out), "--oracle"]) == 0
    assert caps == [10, DEFAULT_ENUM_CAP]


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


@pytest.mark.parametrize(
    "argv,line",
    [
        ("construct --q 6 --n 7 --dpair 5", "6 is not a prime power"),
        (
            "construct --q 131072 --n 7 --dpair 5",
            "field order 131072 exceeds supported maximum 65536",
        ),
        ("construct --q 7 --n 4 --dpair 5", "n must lie in [5, q^2+q+1] = [5, 57], got 4"),
        ("table --q 6 --dpair 5", "6 is not a prime power"),
        ("table --q 7 --dpair 4", "no length sweep for d_pair=4"),
        ("ec-search --q 2048", "elliptic curves are supported for q <= 1024"),
        ("ec-search --q 6", "6 is not a prime power"),
    ],
)
def test_parameter_errors_print_one_error_line_and_exit_2(capsys, argv, line):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("command", ["construct --q 5 --n 9 --dpair 5", "table --q 3 --dpair 5"])
@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_prints_one_error_line_and_exit_2(
    tmp_path, capsys, monkeypatch, command, target, reason
):
    # the path is checked before any construction starts
    def construct(*args):
        raise AssertionError("constructed before the output path was checked")

    monkeypatch.setattr(cli, "_construct", construct)
    out = str(tmp_path / target)
    assert run(command.split() + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"


@pytest.mark.parametrize("command", ["construct --q 7 --n 4 --dpair 5", "table --q 7 --dpair 4"])
def test_checked_out_path_is_left_absent_when_the_work_fails(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    assert run(command.split() + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_checked_out_path_keeps_an_existing_file_until_written(tmp_path, capsys):
    out = tmp_path / "out.txt"
    out.write_text("old")
    assert run(["construct", "--q", "7", "--n", "4", "--dpair", "5", "--out", str(out)]) == 2
    assert out.read_text() == "old"


# one small valid code file per construction route: (q, n, d_pair)
_BASES = {
    "d5": ("5", "13", "5"),
    "ovoid": ("5", "12", "6"),
    "rs": ("9", "10", "8"),
    "elliptic": ("11", "14", "9"),
}


@functools.lru_cache(maxsize=None)
def _base_text(base):
    q, n, dpair = _BASES[base]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run(["construct", "--q", q, "--n", n, "--dpair", dpair]) == 0
    return out.getvalue()


@pytest.mark.parametrize("base", sorted(_BASES))
def test_file_certificate_equals_reverified(base):
    doc = json.loads(_base_text(base))
    _h, cert = _reverify(doc)
    want = doc["certificate"]
    if base == "elliptic":
        # verify re-derives the verdict; the subset-sum count and d_H are
        # construct-time fields, checked here against the provenance
        f = field_of_order(doc["q"])
        prov = doc["provenance"]
        a = ecmds.EvalArrangement(
            ecmds.EllipticCurve(f, *prov["curve"]), tuple(map(tuple, prov["points"])), prov["k"]
        )
        count = want["checks"]["subset_sum_count"]
        assert count == ecmds.subset_sum_count(a)
        assert want["checks"]["d_H"] == (a.n - a.k if count > 0 else a.n - a.k + 1)
        assert set(cert.checks) == {"window_check"}
        want = dict(want, checks={"window_check": want["checks"]["window_check"]})
    assert cert.to_json_dict() == want


def test_verifying_an_elliptic_file_builds_only_its_parity_check(monkeypatch):
    # no subset-sum count, and G's rows are not rebuilt as an entry-checked matrix
    doc = json.loads(_base_text("elliptic"))
    counts = {"subset_sum_count": 0, "CodeMatrix": 0}
    count_sums = ecmds.subset_sum_count
    post_init = linalg.CodeMatrix.__post_init__

    def counted_sums(a):
        counts["subset_sum_count"] += 1
        return count_sums(a)

    def counted_post_init(self):
        counts["CodeMatrix"] += 1
        post_init(self)

    monkeypatch.setattr(ecmds, "subset_sum_count", counted_sums)
    monkeypatch.setattr(linalg.CodeMatrix, "__post_init__", counted_post_init)
    _h, cert = _reverify(doc)
    assert cert.ok
    assert counts == {"subset_sum_count": 0, "CodeMatrix": 1}


@pytest.mark.parametrize("argv, mutate, message", [
    ("verify", _set("q", value=10**4000),
     "field order of 4001 digits exceeds supported maximum 65536"),
    ("verify", _set("parity_check", 0, 0, value=10**4000),
     "element code of 4001 digits is not an integer in 0..4"),
    ("verify", _set("p", value=10**4000),
     "declared p of 4001 digits, a 1 is not the field of order 5"),
    ("construct --n 13 --dpair 5 --q {big}", None, "field order of 4001 digits exceeds"),
    ("table --dpair 5 --q {big}", None, "field order of 4001 digits exceeds"),
    ("ec-search --q {big}", None, "field order of 4001 digits exceeds"),
    ("construct --q 5 --dpair 5 --n {big}", None, "= [5, 31], got of 4001 digits"),
    ("construct --q 9 --dpair 6 --n {big}", None, "= [6, 82], got of 4001 digits"),
    ("construct --q 7 --n 10 --dpair {big}", None, "n must be at least d_pair of 4001 digits"),
    ("table --q 7 --dpair -{big}", None, "no length sweep for d_pair=of 4001 digits"),
], ids=["verify-q", "verify-entry", "verify-p", "construct", "table", "ec-search",
        "construct-n-d5", "construct-n-d6", "construct-dpair", "table-dpair"])
def test_long_integer_is_named_by_its_digit_count(tmp_path, capsys, argv, mutate, message):
    # a 4,001-digit order, p, length or pair distance from the command line
    # or a code file, or a 4,001-digit matrix entry, would otherwise fill a
    # 4 kB error line
    if mutate is None:
        args = argv.format(big=10**4000).split()
    else:
        doc = json.loads(_base_text("d5"))
        mutate(doc)
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc))
        args = [argv, str(bad)]
    capsys.readouterr()
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200 and not captured.out
    assert message in captured.err, captured.err


def test_long_claimed_pair_distance_is_named_by_its_digit_count(tmp_path, capsys):
    doc = json.loads(_base_text("d5"))
    doc["d_pair"] = 10**4000
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "claimed d_pair of 4001 digits but certificate proves 5\n"
    assert not captured.err


def _set_route(doc, value):
    doc["certificate"]["route"] = value


def _set_provenance(key, doc, value):
    doc["provenance"][key] = value


def _set_first_point(doc, value):
    doc["provenance"]["points"][0] = value


@pytest.mark.parametrize("mutate, value, message", [
    (_set_route, "r" * 10**6, "certificate route of type str is not one of "),
    (functools.partial(_set_provenance, "curve"), ["c" * 100] * 10_000,
     "curve is not a list of 5 field elements"),
    (functools.partial(_set_provenance, "k"), ["c" * 100] * 10_000,
     "k of type list is not an integer"),
    (_set_first_point, [1] * 100_000, "point is not a list of 2 field elements"),
    (functools.partial(_set_provenance, "curve"), [1] * 100_000,
     "curve is not a list of 5 field elements"),
], ids=["route", "curve-strings", "k", "long-point", "long-curve"])
def test_hostile_elliptic_file_gets_a_short_error_line(tmp_path, capsys, mutate, value, message):
    # the message names a bad value by its type or its expected shape, never
    # by its repr, which would be as long as the file
    doc = json.loads(_base_text("elliptic"))
    mutate(doc, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200 and not captured.out
    assert message in captured.err, captured.err


def _duplicate_row(doc):
    doc["parity_check"][1] = list(doc["parity_check"][0])


def _change_entry(doc):
    row = doc["parity_check"][0]
    row[3] = (row[3] + 1) % doc["q"]


@pytest.mark.parametrize(
    "mutate,check",
    [(_duplicate_row, "parity-rank"), (_change_entry, "parity-generator-product")],
)
def test_ec_verify_names_failed_parity_check(tmp_path, capsys, mutate, check):
    doc = json.loads(_base_text("elliptic"))
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    assert capsys.readouterr().out == f"verification FAILED: {check}\n"


_DELETE = object()
_HOSTILE = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.sampled_from([-(10**30), 10**30]),
    st.floats(),
    st.text(max_size=2),
    st.lists(st.integers(-1, 12), max_size=3),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=1),
)


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_code_file_ends_with_one_message_line(tmp_path, data):
    # one field of a valid file replaced by a hostile value or deleted, an
    # elliptic file's matrix perhaps reshaped first: any such file ends in
    # exit 0, 1 or 2 with one line of output, no traceback
    base = data.draw(st.sampled_from(sorted(_BASES)))
    doc = json.loads(_base_text(base))
    if base == "elliptic":
        reshape = data.draw(st.sampled_from([None] + sorted(_RESHAPES)))
        if reshape is not None:
            _RESHAPES[reshape](doc)
            if data.draw(st.booleans()):
                _redeclare(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_HOSTILE)
    if not path:
        doc = None if value is _DELETE else value
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["verify", str(bad)])
    assert code in (0, 1, 2)
    assert (out.getvalue() + err.getvalue()).count("\n") == 1


# one code file per route at full size: (q, n, d_pair); d5 and the ovoid
# file reach the 3- and 4-row certificate, the elliptic ones have 35 points
# and 147 points at k = 138, and the Reed-Solomon one has 257 columns of 5
# rows, C(257, 4) = 1.8e8 projections for a full dependent-set search
_LARGE_BASES = {
    "d5": ("25", "651", "5"),
    "ovoid": ("16", "257", "6"),
    "elliptic": ("27", "35", "7"),
    "elliptic-128": ("128", "147", "9"),
    "rs": ("256", "257", "7"),
}

# seconds one verify of a mutated full-size file may take: an unmutated one
# takes 2-15 ms in process on a 2-CPU guest, and a mutated one stops sooner
_LARGE_VERIFY_LIMIT_S = 2.0


@functools.lru_cache(maxsize=None)
def _large_base_text(base):
    q, n, dpair = _LARGE_BASES[base]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run(["construct", "--q", q, "--n", n, "--dpair", dpair]) == 0
    return out.getvalue()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_full_size_file_ends_with_one_message_line(tmp_path, data):
    # a column of a full-size matrix zeroed, given a first entry of 0 or of
    # neither 0 nor 1, or made a copy of another column; or a point of the
    # elliptic file's list repeated
    base = data.draw(st.sampled_from(sorted(_LARGE_BASES)))
    doc = json.loads(_large_base_text(base))
    h = doc["parity_check"]
    n, q = len(h[0]), doc["q"]
    j = data.draw(st.integers(0, n - 1))
    kinds = ["zero-column", "first-zero", "first-other", "repeated-column"]
    if base.startswith("elliptic"):
        kinds.append("repeated-point")
    kind = data.draw(st.sampled_from(kinds))
    other = (j + data.draw(st.integers(1, n - 1))) % n
    if kind == "zero-column":
        for row in h:
            row[j] = 0
    elif kind == "first-zero":
        h[0][j] = 0
    elif kind == "first-other":
        h[0][j] = data.draw(st.integers(2, q - 1))
    elif kind == "repeated-column":
        for row in h:
            row[j] = row[other]
    else:
        points = doc["provenance"]["points"]
        points[j] = list(points[other])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["verify", str(bad)])
    assert time.perf_counter() - start < _LARGE_VERIFY_LIMIT_S
    assert code in (0, 1, 2)
    assert (out.getvalue() + err.getvalue()).count("\n") == 1


@pytest.mark.parametrize(
    "reshape,code,message",
    [
        ("column-dropped", 1, "verification FAILED: parity-generator-product"),
        ("row-duplicated", 1, "verification FAILED: parity-rank"),
        ("transposed", 2, "error: a code needs dimension >= 1"),
    ],
)
def test_reshaped_elliptic_matrix_with_matching_declaration(
    tmp_path, capsys, reshape, code, message
):
    # n and dimension agree with the reshaped matrix, so it reaches the
    # certificate, whose block of h on the last n - k columns is gathered only
    # once h has n columns
    doc = json.loads(_base_text("elliptic"))
    _RESHAPES[reshape](doc)
    _redeclare(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == code
    captured = capsys.readouterr()
    assert (captured.out + captured.err) == message + "\n"


def test_elliptic_file_with_a_first_window_summing_to_o_fails_the_window_check(
    tmp_path, capsys
):
    # q=11, n=14 > q + 1, so some k-subset of the points sums to O; moved to
    # the front it is window 0, the window whose sum decides whether G's
    # first k columns are a basis
    doc = json.loads(_base_text("elliptic"))
    prov = doc["provenance"]
    curve = ecmds.EllipticCurve(field_of_order(doc["q"]), *prov["curve"])
    points = [tuple(p) for p in prov["points"]]
    k = prov["k"]
    assert len(points) > doc["q"] + 1
    front = next(
        s for s in itertools.combinations(points, k) if ec_sum(curve, s) is None
    )
    prov["points"] = [list(p) for p in front] + [list(p) for p in points if p not in front]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert (captured.out + captured.err) == "verification FAILED: window-check\n"


def _count_eliminations(monkeypatch):
    """The (rows, columns) of every matrix that linalg's elimination kernel
    is given, in call order."""
    shapes = []
    forward = linalg._forward

    def counted(f, rows):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return forward(f, rows)

    monkeypatch.setattr(linalg, "_forward", counted)
    return shapes


def test_elliptic_construct_and_verify_eliminate_each_matrix_once(tmp_path, monkeypatch):
    # q=27, n=35, d_pair=7: G is 30 x 35, H is 5 x 35, and H_F, the block of H
    # on the last n - k columns, is 5 x 5
    shapes = _count_eliminations(monkeypatch)
    out = tmp_path / "ec.json"
    assert run(["construct", "--q", "27", "--n", "35", "--dpair", "7", "--out", str(out)]) == 0
    # null_space(G), then H_F in the certificate; LinearCode reads the rank
    # the certificate recorded
    assert shapes == [(30, 35), (5, 5)]
    shapes.clear()
    # rank G = k comes from Riemann-Roch, so verify eliminates H_F alone
    assert run(["verify", str(out)]) == 0
    assert shapes == [(5, 5)]


@pytest.mark.parametrize("q,n,dpair", [(5, 9, 5), (5, 10, 6), (11, 9, 7), (11, 13, 11)])
def test_linear_code_reads_the_rank_a_passing_certificate_recorded(
    tmp_path, monkeypatch, q, n, dpair
):
    # d5, ovoid, Reed-Solomon and elliptic files: neither construct nor
    # verify --oracle eliminates H to build its LinearCode; the oracle's
    # null space of H is the one elimination of H
    h_shape = (dpair - 2, n)
    shapes = _count_eliminations(monkeypatch)
    out = tmp_path / "code.json"
    assert run(["construct", "--q", str(q), "--n", str(n), "--dpair", str(dpair),
                "--out", str(out)]) == 0
    assert h_shape not in shapes
    shapes.clear()
    assert run(["verify", str(out), "--oracle"]) == 0
    assert shapes.count(h_shape) == 1


def test_every_benchmark_code_file_is_byte_identical(tmp_path):
    # every (q, n, d_pair) the benchmark's workloads can request, with the
    # sha256 of its code file at a commit whose files were known good
    path = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    digests = json.loads(path.read_text(encoding="ascii"))["digests"]
    assert digests
    out = tmp_path / "code.json"
    wrong = []
    for key, want in sorted(digests.items()):
        q, n, d_pair = key.split(",")
        assert run(["construct", "--q", q, "--n", n, "--dpair", d_pair, "--out", str(out)]) == 0, key
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            wrong.append(key)
    assert not wrong, f"{len(wrong)} of {len(digests)} code files changed, first {wrong[:5]}"
