"""Command-line front end: construct, verify, sweep, and curve search.

Code files are self-contained JSON (schema below): the matrix, the claimed
parameters, the certificate, and enough provenance to re-verify without
regenerating.  Identical commands produce byte-identical files.  Exit codes:
0 success/verified, 1 verification failure, 2 usage/parameter/file error or
a search that ran out of its cap ("inconclusive").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import d5, d6, ecmds
from .errors import ConstructionError, ParameterError
from .gf import FieldError, FieldSpec, field_of_order
from .linalg import (
    CodeMatrix,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    LinearCode,
    dot,
    rank,
    rs_parity_check,
)
from .pairmetric import (
    ROUTE_EC,
    ROUTE_MDS,
    ROUTE_THEOREM,
    PairCertificate,
    check_mds_conditions,
    check_theorem_conditions,
    min_pair_distance_bruteforce,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _field(q: int) -> FieldSpec:
    try:
        return field_of_order(q)
    except FieldError as exc:
        raise _CliError(str(exc)) from exc


def _construct(f: FieldSpec, n: int, d_pair: int):
    """Dispatch: d_pair 5 and 6 have dedicated constructions, short lengths
    use Reed-Solomon, everything else the elliptic-curve family."""
    if d_pair == 5:
        return d5.construct_d5(f, n)
    if d_pair == 6:
        return d6.construct_d6(f, n)
    if d_pair < 3:
        raise ParameterError("pair distance must be at least 3")
    if n < d_pair:
        raise ParameterError(f"n must be at least d_pair = {d_pair}")
    if n <= f.q + 1:
        h = rs_parity_check(f, n, d_pair - 2)
        cert = check_mds_conditions(h)
        if not cert.ok:  # pragma: no cover - Vandermonde is MDS
            raise ConstructionError("Reed-Solomon matrix failed MDS verification")
        return LinearCode(h), cert, {"construction": "rs", "redundancy": d_pair - 2}
    if d_pair < 7:
        raise ParameterError(
            f"d_pair={d_pair} with n > q+1 requires the dedicated constructions"
        )
    return ecmds.construct_ec(f, n, d_pair - 2)


def _code_file(f: FieldSpec, code: LinearCode, cert: PairCertificate, provenance: Dict) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "q": f.q,
        "p": f.p,
        "a": f.a,
        "modulus": list(f.modulus),
        "n": code.n,
        "d_pair": cert.d_pair,
        "dimension": code.k,
        "construction": provenance.get("construction"),
        "parity_check": [list(row) for row in code.parity_check.entries],
        "certificate": cert.to_json_dict(),
        "provenance": provenance,
    }


def _dump(doc: Dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_construct(args) -> int:
    f = _field(args.q)
    try:
        code, cert, provenance = _construct(f, args.n, args.dpair)
    except ParameterError as exc:
        raise _CliError(str(exc)) from exc
    doc = _code_file(f, code, cert, provenance)
    _dump(doc, args.out)
    print(
        f"constructed ({code.n}, {cert.d_pair})_{f.q} symbol-pair code: "
        f"dimension {code.k}, route {cert.route}",
        file=sys.stderr,
    )
    return EXIT_OK


_INT_FIELDS = ("q", "p", "a", "n", "d_pair", "dimension")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_code_file(path: str) -> Dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot read code file: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError("code file is not a JSON object")
    for key in _INT_FIELDS + ("parity_check", "certificate"):
        if key not in doc:
            raise _CliError(f"code file missing field {key!r}")
    for key in _INT_FIELDS:
        if not _is_int(doc[key]):
            raise _CliError(f"code file field {key!r} is not an integer")
    matrix = doc["parity_check"]
    if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)):
        raise _CliError("parity_check is not a list of rows")
    if not all(_is_int(x) for row in matrix for x in row):
        raise _CliError("parity_check holds a non-integer entry")
    for key in ("certificate", "provenance"):
        if not isinstance(doc.get(key, {}), dict):
            raise _CliError(f"code file field {key!r} is not an object")
    return doc


def _reverify(doc: Dict) -> Tuple[CodeMatrix, PairCertificate]:
    """The parsed parity-check matrix and the certificate recomputed from it."""
    f = _field(doc["q"])
    if doc.get("modulus", list(f.modulus)) != list(f.modulus):
        raise _CliError("code file was produced with a different field basis")
    try:
        h = CodeMatrix.from_rows(f, doc["parity_check"])
    except (ValueError, FieldError) as exc:
        raise _CliError(f"bad parity-check matrix: {exc}") from exc
    n = doc["n"]
    if h.cols != n or h.rows != n - doc["dimension"]:
        raise _CliError("matrix shape disagrees with the declared parameters")
    route = doc["certificate"].get("route")
    if route == ROUTE_THEOREM:
        return h, check_theorem_conditions(h, h.rows)
    if route == ROUTE_MDS:
        return h, check_mds_conditions(h)
    if route == ROUTE_EC:
        return h, _reverify_ec(f, doc, h)
    raise _CliError(f"unknown certificate route {route!r}")


def _reverify_ec(f: FieldSpec, doc: Dict, h: CodeMatrix) -> PairCertificate:
    prov = doc.get("provenance", {})
    try:
        coeffs = prov["curve"]
        pts = [tuple(f.check(c) for c in p) for p in prov["points"]]
        k = prov["k"]
        if not _is_int(k):
            raise TypeError(f"k = {k!r} is not an integer")
        curve = ecmds.EllipticCurve(f, *coeffs)
        arrangement = ecmds.EvalArrangement(curve, tuple(pts), k)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"elliptic provenance is unusable: {exc}") from exc
    n = h.cols
    failure_checks: Dict[str, object] = {}
    window_ok = ecmds.window_check(arrangement)
    g = ecmds.generator_matrix(arrangement)
    # H must annihilate the evaluation code and have complementary rank
    product_zero = g.cols == n and all(
        dot(f, hrow, grow) == 0 for hrow in h.entries for grow in g.entries
    )
    rank_ok = rank(h) == n - k
    nss = ecmds.subset_sum_count(arrangement)
    ok = window_ok and product_zero and rank_ok
    if not window_ok:
        failure_checks["failed"] = "window-check"
    elif not product_zero:
        failure_checks["failed"] = "parity-generator-product"
    elif not rank_ok:
        failure_checks["failed"] = "parity-rank"
    return PairCertificate(
        q=f.q,
        n=n,
        d_pair=n - k + 2,
        dim_exponent=k,
        route=ROUTE_EC,
        ok=ok,
        failed_condition=failure_checks.get("failed"),
        checks={
            "window_check": window_ok,
            "subset_sum_count": nss,
            "d_H": n - k if nss > 0 else n - k + 1,
        },
    )


def cmd_verify(args) -> int:
    doc = _load_code_file(args.path)
    h, cert = _reverify(doc)
    claimed = doc["d_pair"]
    if cert.ok and cert.d_pair != claimed:
        print(f"claimed d_pair {claimed} but certificate proves {cert.d_pair}")
        return EXIT_VERIFY_FAILED
    if not cert.ok:
        print(
            f"verification FAILED: {cert.failed_condition}"
            + (f" witness={list(cert.failing_set)}" if cert.failing_set else "")
        )
        return EXIT_VERIFY_FAILED
    if args.oracle:
        try:
            brute = min_pair_distance_bruteforce(LinearCode(h), cap=args.enum_cap)
        except EnumerationCapExceeded:
            print(f"verified ({cert.route}); oracle skipped: q^k above cap")
            return EXIT_OK
        if brute != claimed:
            print(f"oracle FAILED: brute-force pair distance {brute} != {claimed}")
            return EXIT_VERIFY_FAILED
        print(f"verified ({cert.route}); oracle agrees: pair distance {brute}")
        return EXIT_OK
    print(f"verified ({cert.route}): ({doc['n']}, {claimed})_{doc['q']} MDS symbol-pair code")
    return EXIT_OK


def _feasible_lengths(f: FieldSpec, d_pair: int) -> List[int]:
    q = f.q
    if d_pair == 5:
        return list(range(5, q * q + q + 2))
    if d_pair == 6:
        if q < 3:
            raise ParameterError("pair distance 6 needs q >= 3")
        return list(range(6, q * q + 2))
    if d_pair >= 7:
        return list(range(d_pair, ecmds.n_max(f) - 2))
    raise ParameterError(f"no length sweep for d_pair={d_pair}")


def cmd_table(args) -> int:
    f = _field(args.q)
    try:
        lengths = _feasible_lengths(f, args.dpair)
    except ParameterError as exc:
        raise _CliError(str(exc)) from exc
    rows = []
    for n in lengths:
        t0 = time.perf_counter()
        try:
            code, cert, provenance = _construct(f, n, args.dpair)
            verified = cert.ok
            route = cert.route
        except (ParameterError, ConstructionError) as exc:
            raise _CliError(f"sweep failed at n={n}: {exc}") from exc
        millis = int((time.perf_counter() - t0) * 1000)
        rows.append((f.q, n, args.dpair, code.k, route, verified, millis))
    lines = ["q,n,d_pair,k,route,verified,millis"]
    for row in rows:
        lines.append(",".join(str(x).lower() if isinstance(x, bool) else str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_ec_search(args) -> int:
    f = _field(args.q)
    try:
        curve = ecmds.find_maximal_curve(f)
    except ParameterError as exc:
        raise _CliError(str(exc)) from exc
    count = ecmds.ec_point_count(curve)
    a1, a2, a3, a4, a6 = curve.coefficients()
    print(
        f"maximal curve over GF({f.q}): "
        f"y^2 + {a1}*x*y + {a3}*y = x^3 + {a2}*x^2 + {a4}*x + {a6}"
    )
    print(f"rational points: {count} (N(q) = {ecmds.n_max(f)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairmds",
        description="Construct and verify linear MDS symbol-pair codes over GF(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="construct a code and write a code file")
    p_con.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p_con.add_argument("--n", type=int, required=True, help="code length")
    p_con.add_argument("--dpair", type=int, required=True, help="pair distance")
    p_con.add_argument("--out", default=None, help="output path (default stdout)")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-verify a code file from the matrix alone")
    p_ver.add_argument("path", help="code file to verify")
    p_ver.add_argument("--oracle", action="store_true", help="also brute-force the pair distance")
    p_ver.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("table", help="sweep all feasible lengths for one pair distance")
    p_tab.add_argument("--q", type=int, required=True)
    p_tab.add_argument("--dpair", type=int, required=True)
    p_tab.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_tab.set_defaults(func=cmd_table)

    p_ec = sub.add_parser("ec-search", help="find a maximal elliptic curve over GF(q)")
    p_ec.add_argument("--q", type=int, required=True)
    p_ec.set_defaults(func=cmd_ec_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParameterError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        print(f"internal construction failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except EnumerationCapExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
