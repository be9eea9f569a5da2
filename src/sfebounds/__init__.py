"""Cheating-probability lower bounds for secure function evaluation.

Four pieces: finite SFE tasks with their black-box baselines (``tasks``),
the trade-off curve and security-constant solver (``bounds``), numerical
verification of the measurement-disturbance machinery (``measurements``),
and a die-rolling reduction harness over an ideal SFE oracle
(``dierolling``).  ``cli`` exposes all of it as the ``sfe-bounds`` command.
"""

from .bounds import (
    BoundReport,
    CurvePoint,
    FixedPointResult,
    InsecureTaskError,
    bound_report,
    ca_crossing,
    cb_from_ca,
    emit_curve,
    solve_fixed_point,
    write_curve_csv,
)
from .dierolling import (
    DrStats,
    KitaevBound,
    blind_alice,
    kitaev_bound,
    oracle_alice,
    run_cheating_alice,
    run_cheating_bob,
    run_honest,
)
from .measurements import (
    GentleReport,
    LearnReport,
    Povm,
    QuantumEncoding,
    SequentialReport,
    averaged_strategy_success,
    check_gentle,
    check_sequential,
    combined_povm,
    hs_inner,
    matrix_sqrt,
    operator_norm,
    random_density,
    random_encoding,
    random_povm,
    sequential_operator,
    trace_norm,
)
from .tasks import (
    MATERIALIZE_CAP,
    FamilySpec,
    SfeTask,
    TaskError,
    a_rand,
    answer_vector,
    b_rand,
    b_rand_bruteforce,
    b_rand_closed_form,
    load_task,
    make_family,
    validate_task,
)

__version__ = "0.1.0"

# the public API is every name imported above; the submodules are not part of it
__all__ = sorted(
    name
    for name in globals()
    if not name.startswith("_") and name not in {"bounds", "dierolling", "measurements", "tasks"}
)
