"""Hybrid quantum k-Means: statevector-simulated cluster assignment circuits
with the classical k-Means machinery around them."""

from .circuits import (
    AssignmentHistogram,
    CircuitPlan,
    CircuitStats,
    EstimationFailure,
    build_qc3,
    circuit_layout,
    circuit_stats,
    decode_qc2,
    decode_qc3,
    estimate_distance,
    postselection_probability,
    simulate,
)
from .clustering import (
    ClusteringParams,
    ClusteringRun,
    Strategy,
    assign_classical,
    assign_delta,
    assign_q11,
    assign_q1k,
    assign_qmk,
    derive_seed,
    kmeanspp_init,
    run,
)
from .data import Dataset, builtin, gen_aniso, gen_blobs, gen_moons, load_csv
from .encoding import (
    EncodingContext,
    PreparedVectors,
    encode_vector,
    isp,
    prepare_vectors,
    recover_distance,
    standardize,
)
from .metrics import (
    MetricsReport,
    PairConfusion,
    elbow,
    pair_confusion,
    silhouette,
    sse,
    summarize_run,
    v_measure,
)
from .simulator import (
    Analytic,
    Gate,
    Histogram,
    Sampled,
    StateVector,
    apply_gate,
    h,
    measure,
    new_state,
    probabilities,
    ry,
    x,
)

__version__ = "0.1.0"
