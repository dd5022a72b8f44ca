"""Command-line front end: construct, verify, sweep, and curve search.

Code files are self-contained JSON (schema below): the matrix, the claimed
parameters, the certificate, and enough provenance to re-verify without
regenerating.  Identical commands produce byte-identical files.  Exit codes:
0 success/verified, 1 verification failure, 2 usage/parameter/file error or
a search that ran out of its cap ("inconclusive").
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import d5, d6, ecmds
from .errors import ConstructionError, ParameterError
from .gf import FieldError, FieldSpec, _shown, field_of_order
from .linalg import (
    CodeMatrix,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    LinearCode,
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
    """A usage or code-file error: main prints it and exits 2."""


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
        raise ParameterError(f"n must be at least d_pair {_shown(d_pair)}")
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


def _cannot_write(out: str, exc: OSError) -> _CliError:
    return _CliError(f"cannot write {out}: {exc.strerror}")


def _check_out(out: Optional[str]) -> None:
    """Fail before any work when the file `out` cannot be opened for writing.

    The probe opens it for writing without truncating it, which leaves a
    file that exists as it is, and removes a file that it created."""
    if out is None or out == "-":
        return
    existed = os.path.lexists(out)
    try:
        os.close(os.open(out, os.O_WRONLY | os.O_CREAT))
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    if not existed:
        os.remove(out)


def _dump(text: str, out: Optional[str]) -> None:
    """Write `text` to the file `out`, or to stdout when `out` is None or "-";
    a file that cannot be written is a usage error."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise _cannot_write(out, exc) from exc


def cmd_construct(args) -> int:
    _check_out(args.out)
    f = field_of_order(args.q)
    code, cert, provenance = _construct(f, args.n, args.dpair)
    doc = _code_file(f, code, cert, provenance)
    _dump(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", args.out)
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
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder's stack
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
    for key in ("certificate", "provenance"):
        if not isinstance(doc.get(key, {}), dict):
            raise _CliError(f"code file field {key!r} is not an object")
    return doc


def _reverify(doc: Dict) -> Tuple[CodeMatrix, PairCertificate]:
    """The parsed parity-check matrix and the certificate recomputed from it."""
    f = field_of_order(doc["q"])
    if (doc["p"], doc["a"]) != (f.p, f.a):
        raise _CliError(
            f"declared p {_shown(doc['p'])}, a {_shown(doc['a'])} is not the field of order {f.q}"
        )
    if doc.get("modulus", list(f.modulus)) != list(f.modulus):
        raise _CliError("code file was produced with a different field basis")
    try:
        h = CodeMatrix.from_rows(f, doc["parity_check"])
    except (ValueError, FieldError) as exc:
        raise _CliError(f"bad parity-check matrix: {exc}") from exc
    n = doc["n"]
    if h.cols != n or h.rows != n - doc["dimension"]:
        raise _CliError("matrix shape disagrees with the declared parameters")
    if doc["dimension"] < 1:
        raise _CliError("a code needs dimension >= 1")
    route = doc["certificate"].get("route")
    if route in (ROUTE_THEOREM, ROUTE_MDS):
        try:
            if route == ROUTE_MDS:
                return h, check_mds_conditions(h)
            return h, check_theorem_conditions(h, h.rows)
        except ValueError as exc:  # parameters outside the certificate's range
            raise _CliError(str(exc)) from exc
    if route == ROUTE_EC:
        return h, _reverify_ec(f, doc, h)
    # a value from the file is named by its type: its repr could be as long as the file
    raise _CliError(
        f"certificate route of type {type(route).__name__} is not one of "
        f"{ROUTE_THEOREM!r}, {ROUTE_MDS!r}, {ROUTE_EC!r}"
    )


def _elements(f: FieldSpec, values: object, size: int, name: str) -> Tuple[int, ...]:
    if not (isinstance(values, list) and len(values) == size):
        raise TypeError(f"{name} is not a list of {size} field elements")
    return tuple(map(f.check, values))


def _reverify_ec(f: FieldSpec, doc: Dict, h: CodeMatrix) -> PairCertificate:
    prov = doc.get("provenance", {})
    try:
        coeffs = _elements(f, prov["curve"], 5, "curve")
        pts = [_elements(f, p, 2, "point") for p in prov["points"]]
        k = prov["k"]
        if not _is_int(k):
            raise TypeError(f"k of type {type(k).__name__} is not an integer")
        curve = ecmds.EllipticCurve(f, *coeffs)
        arrangement = ecmds.EvalArrangement(curve, tuple(pts), k)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"elliptic provenance is unusable: {exc}") from exc
    # the verdict alone: the subset-sum count and d_H are construct-time
    # certificate fields that the pair distance does not rest on
    return ecmds.ec_verdict(arrangement, h)


def cmd_verify(args) -> int:
    doc = _load_code_file(args.path)
    h, cert = _reverify(doc)
    claimed = doc["d_pair"]
    if cert.ok and cert.d_pair != claimed:
        print(f"claimed d_pair {_shown(claimed)} but certificate proves {cert.d_pair}")
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
    raise ParameterError(f"no length sweep for d_pair={_shown(d_pair)}")


def cmd_table(args) -> int:
    _check_out(args.out)
    f = field_of_order(args.q)
    rows = []
    for n in _feasible_lengths(f, args.dpair):
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
    _dump("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_ec_search(args) -> int:
    f = field_of_order(args.q)
    curve = ecmds.find_maximal_curve(f)
    count = ecmds.ec_point_count(curve)
    a1, a2, a3, a4, a6 = curve.coefficients()
    print(
        f"maximal curve over GF({f.q}): "
        f"y^2 + {a1}*x*y + {a3}*y = x^3 + {a2}*x^2 + {a4}*x + {a6}"
    )
    print(f"rational points: {count} (N(q) = {ecmds.n_max(f)})")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each ``parse_args``
    call still returns a fresh namespace."""
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
    except (_CliError, ParameterError, FieldError) as exc:
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
