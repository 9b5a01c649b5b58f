"""Nested gradient codes: construction, exact latency analysis, cluster
simulation, and coded gradient descent with exact full-gradient recovery."""

from .codes import (
    DecodingRow,
    EncodingMatrix,
    NestedGradientCode,
    build_cyclic_encoding,
    build_ngc,
    code_from_json,
    code_to_json,
    decode_row,
    encode_response,
    identity_encoding,
    load_code,
    save_code,
    verify_gradient_code,
    verify_nesting,
)
from .descent import (
    Dataset,
    DescentState,
    coded_iteration,
    dataset_loss,
    make_dataset,
    partial_gradient,
    partition,
    plain_descent,
    run_descent,
    default_learning_rate,
)
from .latency import (
    ClusterParams,
    LatencyCurve,
    Scheme,
    failure_count_pmf,
    latency_curve,
    ngc_latency_cdf_zero_shift,
    parse_scheme,
)
from .simulator import IterationOutcome, run_experiment, simulate_ngc_iteration

__version__ = "0.1.0"
