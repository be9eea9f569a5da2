"""Cheating-probability lower bounds for secure function evaluation.

Four pieces: finite SFE tasks with their black-box baselines (``tasks``),
the trade-off curve and security-constant solver (``bounds``), numerical
verification of the measurement-disturbance machinery (``measurements``),
and a die-rolling reduction harness over an ideal SFE oracle
(``dierolling``).  ``cli`` exposes all of it as the ``sfe-bounds`` command.

Importing the package imports no submodule.  Each public name below is
looked up in its submodule on first use (PEP 562), so a caller that needs
only bounds and family tasks never loads numpy, which the tables and the
quantum matrices need.
"""

import importlib

__version__ = "0.1.0"

# every public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "BoundReport",
            "CurvePoint",
            "FixedPointResult",
            "InsecureTaskError",
            "bound_report",
            "ca_crossing",
            "cb_from_ca",
            "emit_curve",
            "solve_fixed_point",
            "write_curve_csv",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        (
            "DrStats",
            "blind_alice",
            "run_cheating_alice",
            "run_cheating_bob",
            "run_honest",
        ),
        "dierolling",
    ),
    **dict.fromkeys(
        (
            "GentleReport",
            "LearnReport",
            "Povm",
            "QuantumEncoding",
            "SequentialReport",
            "averaged_strategy_success",
            "check_gentle",
            "check_sequential",
            "combined_povm",
            "matrix_sqrt",
            "random_density",
            "random_encoding",
            "random_povm",
        ),
        "measurements",
    ),
    **dict.fromkeys(
        (
            "MATERIALIZE_CAP",
            "FamilySpec",
            "SfeTask",
            "TaskError",
            "a_rand",
            "b_rand",
            "b_rand_bruteforce",
            "b_rand_closed_form",
            "load_task",
            "make_family",
            "validate_task",
        ),
        "tasks",
    ),
}

# the public API is every name above; the submodules are not part of it
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # a submodule name still resolves, as it did when the package imported them all
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
