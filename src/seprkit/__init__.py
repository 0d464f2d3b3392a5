"""seprkit: exact sign patterns of principal minors of Hermitian matrices.

The toolkit computes, for an n-by-n Hermitian matrix with Gaussian-rational
entries, the per-order sign summary of all principal minors (terms A*, A+,
A-, N, S*, S+, S-), classifies which short patterns can never occur,
verifies a catalog of 75 witness matrices, and searches for matrices
attaining target patterns.  All arithmetic is exact.
"""

from .exact import (
    GaussianRational,
    I,
    Rational,
    Sqrt5Rational,
    format_rational,
    parse_rational,
    sign_of_real,
)
from .matrix import (
    HermitianMatrix,
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
)
from .sepr import (
    EprSequence,
    EprTerm,
    SeprSequence,
    SeprTerm,
    compute_epr,
    compute_sepr,
    parse_sequence,
)
from .classify import (
    Field,
    Verdict,
    classify_sequence,
    epr_forbidden_order3,
    forbidden_order2,
    forbidden_order3,
    scan_for_forbidden,
)
from .catalog import (
    WitnessRecord,
    build_witness,
    families,
    get_record,
    verify_all,
    verify_witness,
    witness_ids,
)
from .search import (
    DEFAULT_SEED,
    SearchConfig,
    attainability_census,
    find_witness,
    hunt_counterexamples,
)

__version__ = "0.1.0"
