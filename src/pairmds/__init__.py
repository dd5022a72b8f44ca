"""Linear MDS symbol-pair codes over GF(q): constructions and verification.

Three construction families plus a Reed-Solomon fallback:

* pair distance 5 for every length 5 <= n <= q^2 + q + 1 (module ``d5``),
* pair distance 6 for 6 <= n <= q^2 + 1 via ovoids of PG(3, q) (``d6``),
* any pair distance d+2 with 7 <= d+2 <= n <= N(q) - 3 via evaluation codes
  on maximal elliptic curves (``ecmds``).

Every construction is certified by the independent checker in ``pairmetric``
and, at brute-forceable sizes, by full codeword enumeration.
"""

from .errors import ConstructionError, ParameterError
from .gf import FieldError, FieldSpec, field, field_of_order
from .linalg import (
    CodeMatrix,
    EnumerationCapExceeded,
    LinearCode,
    enumerate_codewords,
    null_space,
    rank,
    rs_parity_check,
)
from .pairmetric import (
    PairCertificate,
    check_mds_conditions,
    check_theorem_conditions,
    min_pair_distance_bruteforce,
    pair_distance,
    pair_weight,
)
from .d5 import build_h, build_h_full, construct_d5
from .d6 import Ovoid, construct_d6, elliptic_quadric, order_points
from .ecmds import (
    EllipticCurve,
    EvalArrangement,
    arrange,
    construct_ec,
    ec_add,
    ec_points,
    find_maximal_curve,
    n_max,
    subset_sum_count,
    window_check,
)

__all__ = [
    "ConstructionError",
    "ParameterError",
    "FieldError",
    "FieldSpec",
    "field",
    "field_of_order",
    "CodeMatrix",
    "LinearCode",
    "EnumerationCapExceeded",
    "enumerate_codewords",
    "null_space",
    "rank",
    "rs_parity_check",
    "PairCertificate",
    "check_mds_conditions",
    "check_theorem_conditions",
    "min_pair_distance_bruteforce",
    "pair_distance",
    "pair_weight",
    "build_h",
    "build_h_full",
    "construct_d5",
    "Ovoid",
    "construct_d6",
    "elliptic_quadric",
    "order_points",
    "EllipticCurve",
    "EvalArrangement",
    "arrange",
    "construct_ec",
    "ec_add",
    "ec_points",
    "find_maximal_curve",
    "n_max",
    "subset_sum_count",
    "window_check",
]

__version__ = "0.1.0"
