"""Dense Hermitian linear algebra and randomized measurement-disturbance checks.

Everything here operates on small (dim <= 16) complex matrices held as
numpy arrays.  The module provides matrix square roots, checkers for the
two gentle-measurement inequalities, the combined outcome-tuple POVM built
by sandwiching the first measurement inside the square roots of the others,
and seeded generators for randomized verification campaigns.  The trace and
operator norms the bounds are written in are private stacked kernels.

Stacked kernel: square roots, measurement-operator checks, the sandwich
``op = r @ op @ r`` and the gentle and sequential checks take stacks of
shape (..., d, d) and broadcast over the leading axes, so one numpy call
covers every element of every POVM of an instance, and in a campaign of
every instance of one shape.  There are two sandwich layouts: ``_sandwich``
conjugates a stack by a sequence of roots (the gentle and sequential
checks), and ``_combined_stack`` lays each POVM's outcomes on an axis of
its own (the combined POVM, its audit, and the learn-everything strategy,
whose correct elements are one-outcome POVMs).  numpy's stacked matmul,
eigh, eigvalsh and svd make the same BLAS/LAPACK call on each matrix as a
2-D call does, so stacked results are bit-identical to matrix-at-a-time
ones (the tests keep the matrix-at-a-time loops as references).  Sums over
elements add in Python's left-to-right ``sum`` order: ``_element_sum`` lays
its one reduction out so that the element axis is never numpy's inner loop,
the only axis numpy sums pairwise.  Inner products stay per-matrix
``np.vdot`` calls, and an instance's scalar sums run per instance in its own
order, for the same reason: ``einsum`` and other axis reductions may add in
another order.  The axis reductions left are minima, maxima, and sums along
the last axis of each matrix (traces, singular values), which add the same
entries in the same order for a stack as for one matrix.

Campaigns: a campaign is a pair ``(draw, kernel)``: ``draw`` takes one
instance's random numbers from its own seeded generators, and ``kernel``
turns a list of draws into records.  A draw takes one size, ``max_dim``:
its dimension is drawn from 2 to ``max_dim``, and the sequential and
learning draws take at most 4 operators.  Each step stacks the chunk by the
shape it depends on, and every step below a kernel takes stacks.  The
densities of the whole chunk are built first, one stack per (d, rank).
The gentle and sequential kernels then build and check the operators per
shape of their Gaussians, (2, d, d) or (n, 2, d, d).  The learning kernel
builds, validates and roots the POVMs of each (b, d) as one stack, sorted
by n, and splits it by n only for the strategy and the audit, which
combine an instance's POVMs.  One runner, ``_records``, passes ``_CHUNK``
draws per kernel call, which bounds the stacks and the memory.  An
instance function is the kernel on one draw, so a replay runs the code
the campaign ran.  A chunk that fails, in a draw or in the kernel, reruns
one instance at a time, so a campaign raises what its lowest-index
failing instance raises.  ``run_campaign`` runs the instances in one
process per CPU (``_fanout``); as no record depends on chunking, the
records are those of one process.

Generators: every stream is the one ``np.random.default_rng(seed)`` gives,
but numpy hashes one seed at a time, which costs more than most draws.
``_rng`` sets the seed's PCG64 state on one reused generator per thread.
While ``_records`` draws a chunk, the first request for a seed ``instance +
tail``, a list of Python ints, hashes that tail for the chunk's instances
in one pass (``_pcg64_states``, which takes only such lists), and the others
find their state in a table that is emptied when the draws end.  The table
is only a cache: any other seed takes the state of ``np.random.PCG64(seed)``,
which checks the seed and hashes one faster than a pass over a group of one,
so no stream depends on chunking or reruns; None is refused.  As the
generator is reused, a draw finishes with one before it asks for the next.

Tolerance scheme: linear-algebra identities are trusted to 1e-9/1e-10,
verification inequalities get a decade of extra headroom (1e-8) so stacked
roundoff cannot produce false violations, and eigenvalues in [-1e-10, 0)
are treated as roundoff while anything below -1e-8 is a hard error.  A
stacked check applies the 2-D check to every matrix, and the first failing
matrix in C order raises with the message the 2-D check gives.

Inputs are checked once, where they are built or taken, with those
tolerances: a measurement operator is Hermitian within HERMITIAN_TOL with
spectrum in [-PSD_CLAMP_TOL, 1 + PSD_CLAMP_TOL]; a Povm's elements are
such operators, summing to the identity within COMPLETENESS_TOL in the
operator norm, checked in its constructor; and the public gentle and
sequential checks take only measurement operators and a density whose
trace is 1 within COMPLETENESS_TOL.  The campaign kernels check nothing
of their draws but the learning POVMs, which go through the Povm check
stacked.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .tasks import COUNT_RANGES, _integer

HERMITIAN_TOL = 1e-12
PSD_CLAMP_TOL = 1e-10
PSD_HARD_TOL = 1e-8
COMPLETENESS_TOL = 1e-10
CHECK_TOL = 1e-8

Seed = Union[int, Sequence[int]]


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _dagger(a))


def _hermitian_defect(a: np.ndarray) -> np.ndarray:
    """Largest entry of |a - a*| for every matrix in a stack."""
    return np.abs(a - _dagger(a)).max(axis=(-2, -1))


def _first(mask: np.ndarray) -> tuple:
    """Index of the first true entry of ``mask`` in C order."""
    return np.unravel_index(np.argmax(mask), mask.shape)


def _stacks(items: Sequence) -> Iterable:
    """``items`` grouped by shape, in order of first appearance: for each
    group, its indices and the stack of its items."""
    groups = {}
    for i, a in enumerate(items):
        groups.setdefault(np.shape(a), []).append(i)
    for rows in groups.values():
        yield rows, np.array([items[i] for i in rows])


def _stacked(fn: Callable[[np.ndarray], np.ndarray], items: Sequence) -> list:
    """``[fn(a) for a in items]`` with one call per group of ``_stacks``;
    ``fn`` maps a stack to one result per item.  Used for densities only."""
    out = [None] * len(items)
    for rows, stack in _stacks(items):
        for i, value in zip(rows, fn(stack)):
            out[i] = value
    return out


def _measurement_ok(stack: np.ndarray) -> np.ndarray:
    """Hermitian with spectrum in [-PSD_CLAMP_TOL, 1 + PSD_CLAMP_TOL], per matrix of a stack."""
    evals = np.linalg.eigvalsh(stack)
    hermitian = ~(_hermitian_defect(stack) > HERMITIAN_TOL)
    low, high = evals.min(axis=-1), evals.max(axis=-1)
    return hermitian & (low >= -PSD_CLAMP_TOL) & (high <= 1.0 + PSD_CLAMP_TOL)


class _PovmFields(NamedTuple):
    elements: tuple
    labels: tuple = ()


class Povm(_PovmFields):
    """Finite outcome-indexed measurement: PSD elements summing to identity.

    ``__new__``, which ``_replace`` goes through too, is its one check: it
    refuses no elements, elements of mixed dimensions or a label count that
    differs, and then, by ``_validate_stack``, an element that is not a
    measurement operator or elements whose sum is not the identity within
    COMPLETENESS_TOL.  So every Povm that exists is one, of ``dim`` x
    ``dim`` elements, and no caller checks it again.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple, labels: tuple = ()):
        elements = tuple(_as_matrix(e) for e in elements)
        if not elements:
            raise ValueError("a POVM needs at least one element")
        if any(e.shape != elements[0].shape for e in elements):
            raise ValueError("POVM elements have mixed dimensions")
        labels = labels or tuple(range(len(elements)))
        if len(labels) != len(elements):
            raise ValueError("labels and elements differ in length")
        _validate_stack(np.array(elements), labels)
        return super().__new__(cls, elements, tuple(labels))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


class _EncodingFields(NamedTuple):
    probs: np.ndarray
    states: tuple
    functions: tuple


class QuantumEncoding(_EncodingFields):
    """Distribution over classical inputs with one quantum state per input.

    ``functions[i][x]`` is the outcome index the i-th target function
    assigns to input x.  The classical register is never materialized:
    all expectations are taken blockwise over x.  ``__new__``, which
    ``_replace`` goes through too, checks that the states are square
    matrices of one shape, that probs is a distribution over them and that
    every function is total.  It does not check that each state is a
    density: every campaign instance builds its encoding here.
    """

    __slots__ = ()

    def __new__(cls, probs: np.ndarray, states: tuple, functions: tuple):
        probs = np.asarray(probs, dtype=float)
        states = tuple(_as_matrix(s) for s in states)
        if any(s.shape != states[0].shape for s in states):
            raise ValueError("states have mixed dimensions")
        functions = tuple(tuple(f) for f in functions)
        if probs.ndim != 1 or len(probs) != len(states):
            raise ValueError("probs and states must have matching length")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        for f in functions:
            if len(f) != len(states):
                raise ValueError("every function must be total over the inputs")
        return super().__new__(cls, probs, states, functions)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def x_count(self) -> int:
        return len(self.states)


class GentleReport(NamedTuple):
    epsilon: float
    disturbance: float
    bound: float  # 2 * sqrt(epsilon)
    holds: bool


class SequentialReport(NamedTuple):
    epsilons: tuple
    expectation: float
    lower_bound: float  # 1 - eps_1 - 2 * sum(sqrt(eps_i), i >= 2)
    holds: bool


class LearnReport(NamedTuple):
    """Success accounting for the learn-everything strategy.

    ``bound`` is p - 2*(n-1)*sqrt(1-p) for the average individual success
    p; ``achieved`` is the measured success of the middle-averaged
    combined strategy, which ``holds`` when ``achieved - bound`` is at
    least ``-CHECK_TOL``.
    """

    individual_success: tuple
    average: float
    bound: float
    achieved: float
    holds: bool
    averaged_bound: float


# ---------------------------------------------------------------------------
# norms and roots
# ---------------------------------------------------------------------------


def _same_shape(a: np.ndarray, b: np.ndarray) -> tuple:
    """``a`` and ``b`` as square complex matrices of one shape."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


def _element_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the element axis of POVMs stacked as (..., b, d, d), bit for
    bit ``sum(povm.elements)``.

    One ``np.add.reduce`` over the element axis of a C-contiguous float64
    view (..., b, d, 2d), real and imaginary parts side by side.  numpy sums
    pairwise only along the axis its inner loop runs on, which is the axis
    of smallest stride; here that is the last, of 2d >= 2 entries, so the
    element axis, of larger stride, is never the inner loop, also for 1x1
    matrices (whose complex axes numpy would drop, leaving the element axis
    innermost).  Each entry is then added one element at a time in index
    order: the additions of Python's sum, in its order, whatever the
    leading axes or the strides of ``stack``.  Python's sum starts from 0,
    and 0 + r equals that sum whether numpy starts from 0 or from the first
    element: a leading +0.0 only turns an entry that is -0.0 in every
    prefix into +0.0.
    """
    parts = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
    return 0 + np.add.reduce(parts, axis=-3).view(complex)


def _validate_stack(stack: np.ndarray, labels: Sequence) -> None:
    """The POVM check, for POVMs stacked as (..., b, d, d), all labelled by
    ``labels``: the Povm constructor passes one, the learning kernel every
    POVM of a shape group.

    The first invalid POVM in C order raises: for its first element that is
    not a measurement operator, else for its completeness defect.
    """
    ok = _measurement_ok(stack)
    defect = _operator_norms(_element_sum(stack) - np.eye(stack.shape[-1]))
    bad = ~ok.all(axis=-1) | (defect > COMPLETENESS_TOL)
    if bad.any():
        i = _first(bad)
        if not ok[i].all():
            label = labels[int(np.argmin(ok[i]))]
            raise ValueError(f"element {label!r} is not a measurement operator")
        raise ValueError(f"POVM completeness defect {defect[i]:.3e} exceeds {COMPLETENESS_TOL:.0e}")


def _psd_roots(stack: np.ndarray) -> np.ndarray:
    """PSD square roots of a stack of matrices via Hermitian eigendecomposition.

    Every matrix must be Hermitian within HERMITIAN_TOL.  Eigenvalues in
    [-1e-10, 0) are clamped to zero as roundoff; anything below
    -PSD_HARD_TOL is rejected as a genuinely indefinite input.
    """
    defect = _hermitian_defect(stack)
    evals, vecs = np.linalg.eigh(stack)
    low = evals.min(axis=-1)
    bad = (defect > HERMITIAN_TOL) | (low < -PSD_HARD_TOL)
    if bad.any():
        i = _first(bad)
        if defect[i] > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect[i]:.3e})")
        raise ValueError(f"matrix has eigenvalue {low[i]:.3e}, not PSD")
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ _dagger(vecs)
    return _hermitian_part(root)


def matrix_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD square root of one matrix; see ``_psd_roots`` for the checks."""
    return _psd_roots(_as_matrix(a))


def _sandwich(op: np.ndarray, roots) -> np.ndarray:
    """Conjugate ``op`` by each root in turn, the first innermost.

    ``op`` and the roots broadcast over their leading axes, so one call
    sandwiches a whole stack.
    """
    for root in roots:
        op = root @ op @ root
    return op


# ---------------------------------------------------------------------------
# gentle-measurement checks
# ---------------------------------------------------------------------------


def _checked_inputs(rho: np.ndarray, lams: Sequence[np.ndarray]) -> tuple:
    """``rho`` as a complex matrix and ``lams`` as a stack of its shape, or
    ValueError: the gentle and sequential lemmas cover only measurement
    operators, 0 <= L <= I, and a density rho, PSD of trace 1 within
    COMPLETENESS_TOL.  A refusal names the first bad operator's index, or
    rho."""
    rho = _as_matrix(rho)
    lams = np.array([_same_shape(lam, rho)[0] for lam in lams])
    ok = _measurement_ok(lams)
    if not ok.all():
        raise ValueError(f"operator {int(np.argmin(ok))} is not a measurement operator")
    if not (_measurement_ok(rho) and abs(np.trace(rho).real - 1.0) <= COMPLETENESS_TOL):
        raise ValueError("rho is not a density matrix")
    return rho, lams


def _epsilon(lam: np.ndarray, rho: np.ndarray) -> float:
    """1 - <lam, rho>, clamped to [0, 1] against roundoff: a bare
    ``np.vdot``, as in every inner product of the checks."""
    return min(max(1.0 - complex(np.vdot(lam, rho)).real, 0.0), 1.0)


def _gentle_reports(rhos: np.ndarray, lams: np.ndarray) -> list:
    """``check_gentle`` on each (rho, lam) pair of the (k, d, d) complex
    stacks ``rhos`` and ``lams``: every epsilon, then the roots and the
    trace norms of the whole stack.  Inner products are bare ``np.vdot``
    calls, one per pair."""
    epsilons = [_epsilon(lam, rho) for rho, lam in zip(rhos, lams)]
    disturbances = _trace_norms(rhos - _sandwich(rhos, [_psd_roots(lams)]))
    reports = []
    for epsilon, disturbance in zip(epsilons, disturbances):
        disturbance = float(disturbance)
        bound = 2.0 * float(np.sqrt(epsilon))
        reports.append(
            GentleReport(
                epsilon=epsilon,
                disturbance=disturbance,
                bound=bound,
                holds=bool(disturbance <= bound + CHECK_TOL),
            )
        )
    return reports


def check_gentle(rho: np.ndarray, lam: np.ndarray) -> GentleReport:
    """Verify the disturbance bound for one (state, measurement) pair.

    epsilon = 1 - <lam, rho>; disturbance is the trace-norm distance from
    rho to sqrt(lam) rho sqrt(lam); the bound is 2*sqrt(epsilon).  Refuses,
    with ValueError, a lam of another shape than rho, a lam that is not a
    measurement operator (``operator 0 is not a measurement operator``) and
    a rho that is not a density (``rho is not a density matrix``): the
    lemma says nothing of them.
    """
    rho, lams = _checked_inputs(rho, [lam])
    return _gentle_reports(rho[None], lams)[0]


def _sequential_operators(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Hermitian parts of sqrt(L_m)...sqrt(L_1) L_0 sqrt(L_1)...sqrt(L_m), L_0
    the (..., d, d) stack ``first`` and L_1..L_m the (..., m, d, d) ``rest``."""
    roots = _psd_roots(rest)
    return _hermitian_part(_sandwich(first, np.moveaxis(roots, -3, 0)))


def _sequential_reports(rhos: np.ndarray, lams: np.ndarray) -> list:
    """``check_sequential`` on each state of the (k, d, d) complex stack
    ``rhos`` with its n operators in the (k, n, d, d) stack ``lams``: every
    epsilon, then the sandwiched operators of the whole stack."""
    epsilons = [[_epsilon(lam, rho) for lam in row] for rho, row in zip(rhos, lams)]
    ops = _sequential_operators(lams[:, 0], lams[:, 1:])
    reports = []
    for rho, op, eps in zip(rhos, ops, epsilons):
        expectation = complex(np.vdot(rho, op)).real
        lower = 1.0 - eps[0] - 2.0 * float(sum(np.sqrt(e) for e in eps[1:]))
        reports.append(
            SequentialReport(
                epsilons=tuple(eps),
                expectation=expectation,
                lower_bound=lower,
                holds=bool(expectation >= lower - CHECK_TOL),
            )
        )
    return reports


def check_sequential(rho: np.ndarray, lams: Sequence[np.ndarray]) -> SequentialReport:
    """Verify the cumulative-disturbance bound for a measurement sequence.

    With eps_k = 1 - <L_k, rho>, the sandwiched expectation must stay
    above 1 - eps_1 - 2*sum_{k>=2} sqrt(eps_k).  Refuses, with ValueError,
    fewer than two operators, then what ``check_gentle`` refuses, naming
    the first bad operator by its index in ``lams``.
    """
    if len(lams) < 2:
        raise ValueError("sequential check needs at least two operators")
    rho, lams = _checked_inputs(rho, lams)
    return _sequential_reports(rho[None], lams[None])[0]


# ---------------------------------------------------------------------------
# combined POVM and the learn-everything strategy
# ---------------------------------------------------------------------------


def _combined_stack(
    elements: Sequence[np.ndarray], roots: Sequence[np.ndarray], middle: int
) -> np.ndarray:
    """Combined elements for one middle choice, in ``itertools.product`` order.

    ``elements[i]`` and ``roots[i]`` are POVM i's (..., b_i, d, d) stacks,
    with the same leading axes for every i.  POVM i's outcomes lie along
    axis i of a broadcast grid, so one sandwich builds all prod(b_i)
    elements and computes each partial product once.  The result is the raw
    sandwich: callers that audit it as a POVM take its Hermitian part.
    """
    n = len(elements)

    def on_axis(stack: np.ndarray, i: int) -> np.ndarray:
        grid = (1,) * i + stack.shape[-3:-2] + (1,) * (n - 1 - i)
        return stack.reshape(stack.shape[:-3] + grid + stack.shape[-2:])

    outer = [on_axis(roots[i], i) for i in range(n) if i != middle]
    op = _sandwich(on_axis(elements[middle], middle), outer)
    return op.reshape(op.shape[: op.ndim - 2 - n] + (-1,) + op.shape[-2:])


def combined_povm(povms: Sequence[Povm]) -> Povm:
    """Outcome-tuple POVM with the first input POVM sandwiched innermost.

    Element for tuple (b_1, ..., b_n) is the first POVM's b_1 element
    conjugated by the square roots of the others' elements, innermost to
    outermost in input order; completeness telescopes.  The learning
    campaign's strategy and audit put each POVM innermost in turn
    (``_combined_stack``).  Every input was checked when it was built, and
    the result is checked as any Povm is, so a sum that drifts from the
    identity by more than COMPLETENESS_TOL raises instead of returning.
    """
    n = len(povms)
    if n == 0:
        raise ValueError("need at least one POVM")
    if n == 1:
        return povms[0]
    dim = povms[0].dim
    if any(p.dim != dim for p in povms):
        raise ValueError("POVMs have mixed dimensions")

    stacks = [np.array(p.elements) for p in povms]
    roots = [None] + [_psd_roots(stack) for stack in stacks[1:]]
    elements = _hermitian_part(_combined_stack(stacks, roots, 0))
    labels = tuple(itertools.product(*(p.labels for p in povms)))
    return Povm(elements=tuple(elements), labels=labels)


def averaged_strategy_success(enc: QuantumEncoding, povms: Sequence[Povm]) -> LearnReport:
    """Measure the learn-everything strategy against its guarantee.

    For each input x only the correct-outcome-tuple element matters, so
    the success is accumulated blockwise per x instead of materializing
    the classical register: for middle choice j the element is the
    j-th POVM's correct element conjugated by the other correct elements'
    square roots.  ``achieved`` averages uniformly over the middle choice.
    Each POVM was checked when it was built, and the encoding's states
    share one shape, so this checks only that the POVMs match the states'
    dimension and that each function maps into its POVM's outcomes.
    """
    n = len(povms)
    if n == 0:
        raise ValueError("need at least one POVM")
    if len(enc.functions) != n:
        raise ValueError(f"encoding provides {len(enc.functions)} functions for {n} POVMs")
    dim = enc.dim
    for i, p in enumerate(povms):
        if p.dim != dim:
            raise ValueError(f"POVM {i} dimension {p.dim} does not match states ({dim})")
        for x in range(enc.x_count):
            if not 0 <= enc.functions[i][x] < len(p.elements):
                raise ValueError(f"function {i} maps x={x} outside POVM {i}'s outcomes")

    stacks = [np.array(p.elements)[None] for p in povms]
    roots = [_psd_roots(stack) for stack in stacks]
    return _learn_reports([enc], stacks, roots)[0]


def _learn_reports(encs: Sequence, elements: Sequence, roots: Sequence) -> list:
    """``averaged_strategy_success`` of k instances with n POVMs each:
    ``encs`` are their encodings, and ``elements[i]`` and ``roots[i]`` are
    POVM i's (k, b_i, d, d) element and root stacks.  The sandwiches of every
    instance and input are one stack; the sums keep one instance's order."""
    n = len(elements)
    instance = np.repeat(np.arange(len(encs)), [enc.x_count for enc in encs])
    picks = [np.concatenate([enc.functions[i] for enc in encs]) for i in range(n)]
    # row (instance, x) of at and ops: at[.][i] is POVM i's element for f_i(x),
    # and ops[.][j], for middle choice j, is the combined POVM of the n
    # correct elements taken as one-outcome POVMs
    correct = [e[instance, f][:, None] for e, f in zip(elements, picks)]
    correct_roots = [r[instance, f][:, None] for r, f in zip(roots, picks)]
    at = np.concatenate(correct, axis=1)
    ops = np.concatenate([_combined_stack(correct, correct_roots, j) for j in range(n)], axis=1)

    reports = []
    start = 0
    for enc in encs:
        # Python floats: the IEEE operations np.float64 makes, so the same bits
        probs = enc.probs.tolist()
        xs = range(enc.x_count)
        at_x, ops_x = at[start : start + enc.x_count], ops[start : start + enc.x_count]
        start += enc.x_count
        individual = [
            sum(probs[x] * complex(np.vdot(enc.states[x], at_x[x][i])).real for x in xs)
            for i in range(n)
        ]
        achieved = 0.0
        for j in range(n):
            for x in xs:
                achieved += probs[x] * complex(np.vdot(enc.states[x], ops_x[x][j])).real
        achieved /= n

        average = sum(individual) / n
        bound = average - 2.0 * (n - 1) * math.sqrt(max(1.0 - average, 0.0))
        epsilons = [min(max(1.0 - p, 0.0), 1.0) for p in individual]
        averaged_bound = 1.0 - sum(epsilons) / n - (2.0 * (n - 1) / n) * sum(
            map(math.sqrt, epsilons)
        )
        reports.append(
            LearnReport(
                individual_success=tuple(individual),
                average=average,
                bound=bound,
                achieved=achieved,
                holds=bool(achieved - bound >= -CHECK_TOL),
                averaged_bound=averaged_bound,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# seeded generators
#
# Each generator is a draw, which takes every random number from its seeded
# stream, and a build, which does the linear algebra on a stack of draws.
# ---------------------------------------------------------------------------


_HASH_A = (0x43B0D7E5, 0x931E8875)  # start and multiplier of the entropy hash
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for the output words
_MIX = (0xCA01F9DD, 0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy_words(seed: Sequence[int]) -> list:
    """The uint32 words numpy's ``SeedSequence`` reads from a sequence of
    Python ints: each entry little-endian, 0 as one word 0.  A negative
    entry raises numpy's ValueError."""
    words = []
    for n in seed:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return words


@functools.cache
def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """start * mult**j mod 2**32 for j < count: the j-th call of a hash uses
    entries j and j + 1."""
    consts = [start]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False  # cached, so shared by every caller
    return consts


def _hashed(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash call per entry of the last axis, call k with ``consts[k]``
    and ``consts[k + 1]``; ``values`` broadcasts against ``consts[1:]``."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX[0]) * x - np.uint32(_MIX[1]) * y
    return r ^ (r >> np.uint32(16))


def _pcg64_states(seeds: Sequence) -> list:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for each seed, a list of Python ints.

    numpy hashes a seed with ``SeedSequence`` (O'Neill's ``seed_seq_fe``,
    NEP 19), one seed at a time.  Here seeds with the same number of
    entropy words hash together, in uint32 arithmetic over the group: the
    hash constants depend on the call count alone, so every seed of a group
    takes the same ones.  The pool of 4 words takes the first 4 (zeros past
    the end), then mixes each word into the other three, then each further
    word into all four; 8 output words give PCG64's initial state and
    increment, which are seeded in Python ints.
    """
    words = [_entropy_words(seed) for seed in seeds]
    groups = {}
    for i, w in enumerate(words):
        groups.setdefault(len(w), []).append(i)
    out = [None] * len(seeds)
    for count, rows in groups.items():
        entropy = np.array([words[i] for i in rows], dtype=np.uint32)
        consts = _hash_consts(*_HASH_A, 17 + 4 * max(count - 4, 0))
        first = np.zeros((len(rows), 4), dtype=np.uint32)
        first[:, : min(count, 4)] = entropy[:, :4]
        pool = _hashed(first, consts[:5])
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            hashed = _hashed(pool[:, src : src + 1], consts[4 + 3 * src : 8 + 3 * src])
            pool[:, dst] = _mixed(pool[:, dst], hashed)
        for w in range(4, count):
            j = 16 + 4 * (w - 4)
            pool = _mixed(pool, _hashed(entropy[:, w : w + 1], consts[j : j + 5]))
        state = _hashed(np.tile(pool, 2), _hash_consts(*_HASH_B, 9))
        for i, (u0, u1, u2, u3) in zip(rows, state.view(np.uint64).tolist()):
            inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
            out[i] = ((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128, inc
    return out


class _Streams(threading.local):
    """One thread's generator and the PCG64 states of the chunk that
    ``_records`` is drawing there."""

    def __init__(self):
        self.chunk = []  # the chunk's instance seeds, as tuples of ints
        self.states = {}  # tuple(seed) -> (state, inc), for seeds instance + tail

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        # built on first use, so that importing the module leaves numpy.random alone
        return np.random.Generator(np.random.PCG64(0))


_streams = _Streams()


@contextlib.contextmanager
def _chunk_streams(chunk: Sequence):
    """Let ``_rng`` compute the states of the instance seeds in ``chunk`` a
    seed tail at a time while the block runs."""
    _streams.chunk = [
        tuple(seed)
        for seed in chunk
        if isinstance(seed, (list, tuple)) and all(type(v) is int for v in seed)
    ]
    try:
        yield
    finally:
        _streams.chunk, _streams.states = [], {}


def _state(seed: Seed) -> tuple:
    """The PCG64 state of ``seed``: for a list of Python ints that extends a
    chunk instance, from the chunk's table, filled on a miss from that instance
    on; else numpy's, which checks the seed.  None (fresh entropy) is refused."""
    if _streams.chunk and type(seed) is list and all(type(v) is int for v in seed):
        key = tuple(seed)
        if key in _streams.states:
            return _streams.states.pop(key)
        for i, instance in enumerate(_streams.chunk):
            if key[: len(instance)] == instance:
                tail = key[len(instance) :]
                keys = [c + tail for c in _streams.chunk[i:]]
                _streams.states.update(zip(keys, _pcg64_states(keys)))
                return _streams.states.pop(key)
    if seed is None:
        raise TypeError("seed must be an int or a sequence of ints, not None")
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def _rng(seed: Seed) -> np.random.Generator:
    """The stream of ``np.random.default_rng(seed)``.

    The generator is this thread's one ``Generator``, set to the seed's
    PCG64 state, so it is valid until the next call: a draw takes all it
    needs from one generator before it asks for the next.
    """
    state, inc = _state(seed)
    _streams.generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _streams.generator


def _complex_gaussians(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex Gaussians: all real parts, then all imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _densities(g: np.ndarray) -> np.ndarray:
    """GG*/Tr(GG*) for a stack (..., d, r) of complex Gaussian matrices G."""
    rho = g @ _dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _dim(dim) -> int:
    """A generator's ``dim`` by ``tasks._integer``: 1 to the ``max_dim``
    cap of ``COUNT_RANGES``, 16."""
    return _integer("dim", dim, 1, COUNT_RANGES["max_dim"][1])


def random_density(dim: int, rank: int, seed: Seed) -> np.ndarray:
    """GG*/Tr(GG*) for a dim x rank matrix of standard complex Gaussians.

    ``dim`` (1 to 16) and ``rank`` (1 to ``dim``) go through
    ``tasks._integer``."""
    dim = _dim(dim)
    rank = _integer("rank", rank, 1, dim)
    return _densities(_complex_gaussians(_rng(seed), (dim, rank)))


def _povm_draw(rng: np.random.Generator, dim: int, outcomes: int) -> np.ndarray:
    # one draw in the order of per-part draws: real, then imaginary, per part
    z = rng.standard_normal((outcomes, 2, dim, dim))
    return z[:, 0] + 1j * z[:, 1]


def _povm_elements(g: np.ndarray) -> np.ndarray:
    """``random_povm``'s elements from a stack (..., b, d, d) of its Gaussians."""
    outcomes, dim = g.shape[-3], g.shape[-1]
    parts = g @ _dagger(g)
    total = _element_sum(parts) + 1e-9 * np.eye(dim)
    evals, vecs = np.linalg.eigh(total)
    inv_root = ((vecs / np.sqrt(evals)[..., None, :]) @ _dagger(vecs))[..., None, :, :]
    elements = inv_root @ parts @ inv_root
    residue = np.eye(dim) - _element_sum(elements)
    return _hermitian_part(elements) + residue[..., None, :, :] / outcomes


def random_povm(dim: int, outcomes: int, seed: Seed) -> Povm:
    """Random POVM from Gaussian PSD parts conjugated by their inverse-root sum.

    The sum is regularized by +1e-9 I before the inverse square root; the
    tiny completeness residue that leaves is redistributed evenly across
    the elements so the identity defect stays at roundoff level.  ``dim``
    (1 to 16) and ``outcomes`` (at least 1) go through ``tasks._integer``.
    """
    dim, outcomes = _dim(dim), _integer("outcomes", outcomes, 1)
    return Povm(elements=tuple(_povm_elements(_povm_draw(_rng(seed), dim, outcomes))))


def _encoding_draw(x_count: int, dim: int, n_functions: int, b_size: int, seed: Seed) -> tuple:
    rng = _rng(seed)
    probs = rng.dirichlet(np.ones(x_count))
    gaussians = []
    for _ in range(x_count):
        rank = int(rng.integers(1, dim + 1))
        gaussians.append(_complex_gaussians(rng, (dim, rank)))
    functions = tuple(
        tuple(int(v) for v in rng.integers(0, b_size, size=x_count)) for _ in range(n_functions)
    )
    return probs, gaussians, functions


def _encodings(draws: Sequence) -> list:
    """The encodings of ``_encoding_draw`` results, their states built stacked."""
    states = iter(_stacked(_densities, [g for _, gaussians, _ in draws for g in gaussians]))
    return [
        QuantumEncoding(
            probs=probs,
            states=tuple(itertools.islice(states, len(gaussians))),
            functions=functions,
        )
        for probs, gaussians, functions in draws
    ]


def random_encoding(
    x_count: int, dim: int, n_functions: int, b_size: int, seed: Seed
) -> QuantumEncoding:
    """Dirichlet-uniform input distribution, independent random states of
    random rank, and uniformly random total functions into range(b_size).

    ``dim`` (1 to 16) and the other counts (each at least 1) go through
    ``tasks._integer``."""
    x_count = _integer("x_count", x_count, 1)
    dim = _dim(dim)
    n_functions = _integer("n_functions", n_functions, 1)
    b_size = _integer("b_size", b_size, 1)
    return _encodings([_encoding_draw(x_count, dim, n_functions, b_size, seed)])[0]


# ---------------------------------------------------------------------------
# randomized verification campaigns
#
# Every instance derives its randomness from (campaign seed, instance
# index, slot), so results are identical no matter how instances are
# scheduled.  Records are JSON-ready dicts sharing the core keys
# {seed, dims, n, epsilons, bound, achieved, holds}.
# ---------------------------------------------------------------------------

# Instances per kernel call, so each process's slice of a campaign of 100 is
# one call.  A call holds its chunk's draws and densities and one shape
# group's stacks; with 128, the peak RSS (VmHWM) of a process that runs 10000
# learning instances is about 2.3 MB above that of running them one at a
# time: 50.2 against 47.9 MB on Python 3.11 and numpy 2.4, on one CPU.  On
# two, the parent, which runs 5000 and holds all the records, also peaks at
# 50.2 MB, and its child at 41.3.
_CHUNK = 128


# the sequential and learning draws take at most _MAX_N operators
_MAX_N = 4


def _meta(seed: list, max_dim: int) -> tuple:
    """An instance's meta generator and the dimension it draws first, from
    2 to ``max_dim``.  Refuses a ``max_dim`` outside its ``COUNT_RANGES``
    range, 2 to 16, before any generator."""
    max_dim = _integer("max_dim", max_dim, *COUNT_RANGES["max_dim"])
    meta = _rng(seed + [0])
    return meta, int(meta.integers(2, max_dim + 1))


def _operator_draw(dim: int, seed: list) -> tuple:
    return _rng(seed + [0]).uniform() ** 2, _povm_draw(_rng(seed + [1]), dim, 2)


def _measurement_operators(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Random POVM elements pulled toward the identity by t, which spreads
    epsilon over [0, 1]: t has shape (...,) and g, the POVMs' Gaussians,
    (..., 2, d, d)."""
    t = np.asarray(t)[..., None, None]
    return (1.0 - t) * np.eye(g.shape[-1]) + t * _povm_elements(g)[..., 0, :, :]


def _records(campaign: tuple, seeds: Iterable, **kwargs) -> list[dict]:
    """The records of the instances seeded by ``seeds``, in order, for a
    campaign ``(draw, kernel)``, drawn ``_CHUNK`` instances per kernel call.

    A chunk that fails, in a draw or in the kernel, runs again one instance
    at a time, so its lowest-index failing instance raises: a stacked step
    raises for the first failure in its own shape group, not the chunk's.
    """
    draw, kernel = campaign
    seeds = iter(seeds)
    records = []
    while chunk := list(itertools.islice(seeds, _CHUNK)):
        try:
            with _chunk_streams(chunk):
                drawn = [draw(seed, **kwargs) for seed in chunk]
            records += kernel(drawn)
        except ValueError:
            for seed in chunk:
                kernel([draw(seed, **kwargs)])
            raise
    return records


def _instance(kernel: Callable[[list], list]):
    """Make a draw function into its campaign's instance function: the
    record that ``kernel`` gives for one draw.  Its ``campaign`` attribute,
    ``(draw, kernel)``, lets ``run_campaign`` pass many draws to one call."""

    def decorate(draw: Callable[..., tuple]) -> Callable[..., dict]:
        @functools.wraps(draw)
        def instance(seed: Sequence[int], **kwargs) -> dict:
            return kernel([draw(seed, **kwargs)])[0]

        instance.campaign = draw, kernel
        return instance

    return decorate


def _operator_kernel(reports: Callable, record: Callable) -> Callable[[list], list]:
    """The kernel of a campaign whose draws are a state and its measurement
    operators: it builds the chunk's densities, then, per shape of the
    operators' Gaussians, the operators, and checks their stacks with
    ``reports``; ``record`` turns a seed, a dimension and a report into the
    instance's record."""

    def kernel(drawn: list) -> list[dict]:
        seeds, rho_gaussians, ts, gs = zip(*drawn)
        densities = _stacked(_densities, rho_gaussians)
        records = [None] * len(drawn)
        for rows, g in _stacks(gs):
            rhos = np.array([densities[i] for i in rows])
            lams = _measurement_operators(np.array([ts[i] for i in rows]), g)
            for i, r in zip(rows, reports(rhos, lams)):
                records[i] = record(seeds[i], g.shape[-1], r)
        return records

    return kernel


def _gentle_record(seed: list, dim: int, report: GentleReport) -> dict:
    """The record of one gentle instance from its report."""
    return {
        "seed": seed,
        "dims": dim,
        "n": 1,
        "epsilons": [report.epsilon],
        "bound": report.bound,
        "achieved": report.disturbance,
        "holds": report.holds,
    }


_gentle_kernel = _operator_kernel(_gentle_reports, _gentle_record)


@_instance(_gentle_kernel)
def gentle_instance(seed: Sequence[int], max_dim: int = 8):
    """One random state and measurement operator through ``check_gentle``."""
    seed = list(seed)
    meta, dim = _meta(seed, max_dim)
    rank = int(meta.integers(1, dim + 1))
    t, g = _operator_draw(dim, seed + [2])
    return seed, _complex_gaussians(_rng(seed + [1]), (dim, rank)), t, g


def _sequential_record(seed: list, dim: int, report: SequentialReport) -> dict:
    """The record of one sequential instance from its report."""
    return {
        "seed": seed,
        "dims": dim,
        "n": len(report.epsilons),
        "epsilons": list(report.epsilons),
        "bound": report.lower_bound,
        "achieved": report.expectation,
        "holds": report.holds,
    }


_sequential_kernel = _operator_kernel(_sequential_reports, _sequential_record)


@_instance(_sequential_kernel)
def sequential_instance(seed: Sequence[int], max_dim: int = 6):
    """One random state and 2 to ``_MAX_N`` measurement operators through
    ``check_sequential``."""
    seed = list(seed)
    meta, dim = _meta(seed, max_dim)
    n = int(meta.integers(2, _MAX_N + 1))
    rank = int(meta.integers(1, dim + 1))
    rho_gaussians = _complex_gaussians(_rng(seed + [1]), (dim, rank))
    ts, gs = zip(*(_operator_draw(dim, seed + [2, k]) for k in range(n)))
    return seed, rho_gaussians, ts, np.array(gs)


def _audit(elements: Sequence, roots: Sequence) -> np.ndarray:
    """Largest completeness defect and smallest eigenvalue over the combined
    POVMs of every middle choice, for k instances with n POVMs: POVM i's
    element and root stacks are ``elements[i]`` and ``roots[i]``, of shape
    (k, b, d, d).  The result has shape (k, 2)."""
    n, dim = len(elements), elements[0].shape[-1]
    defect, low = [], []
    for j in range(n):
        # combined_povm returns a lone POVM unchanged
        tilde = elements[0] if n == 1 else _hermitian_part(_combined_stack(elements, roots, j))
        defect.append(_operator_norms(_element_sum(tilde) - np.eye(dim)))
        low.append(np.linalg.eigvalsh(tilde).min(axis=(-2, -1)))
    return np.stack([np.max(defect, axis=0), np.min(low, axis=0)], axis=-1)


def _learning_kernel(drawn: list) -> list[dict]:
    # the POVMs of one (b, d) group are one stack, sorted by n so that the
    # instances of each n, which _learn_reports and _audit combine, are one
    # run of it; only one group's stacks are held at a time
    encs = _encodings([enc for _, enc, _ in drawn])
    groups = {}
    for k, (_, _, gaussians) in enumerate(drawn):
        groups.setdefault(gaussians.shape[1:], []).append(k)
    records = [None] * len(drawn)
    for rows in groups.values():
        rows.sort(key=lambda k: len(drawn[k][2]))
        elements = _povm_elements(np.concatenate([drawn[k][2] for k in rows]))  # (m, b, d, d)
        # before the roots, as Povm checks one, so a bad POVM raises what Povm raises
        _validate_stack(elements, range(elements.shape[-3]))
        roots = _psd_roots(elements)
        stacks, start = (elements, roots), 0
        for n, run in itertools.groupby(rows, key=lambda k: len(drawn[k][2])):
            run = list(run)
            stop = start + len(run) * n
            shape = (len(run), n) + elements.shape[1:]
            per_povm = [list(a[start:stop].reshape(shape).swapaxes(0, 1)) for a in stacks]
            start = stop
            reports = _learn_reports([encs[k] for k in run], *per_povm)
            for k, report, audit in zip(run, reports, _audit(*per_povm).tolist()):
                records[k] = _learning_record(drawn[k][0], shape[-1], report, *audit)
    return records


def _learning_record(
    seed: list, dim: int, report: LearnReport, max_defect: float, min_eig: float
) -> dict:
    """The record of one learning instance from its report and its audit."""
    n = len(report.individual_success)
    epsilons = [1.0 - p for p in report.individual_success]
    cs_lhs = sum(math.sqrt(max(e, 0.0)) for e in epsilons)
    cs_rhs = math.sqrt(n) * math.sqrt(max(sum(epsilons), 0.0))
    holds = bool(
        report.holds
        and report.achieved >= report.averaged_bound - CHECK_TOL
        and max_defect <= COMPLETENESS_TOL
        and min_eig >= -PSD_CLAMP_TOL
        and cs_lhs <= cs_rhs + 1e-12
    )
    return {
        "seed": seed,
        "dims": dim,
        "n": n,
        "epsilons": epsilons,
        "bound": report.bound,
        "achieved": report.achieved,
        "holds": holds,
        "averaged_bound": report.averaged_bound,
        "completeness_defect": max_defect,
        "min_eigenvalue": min_eig,
        "cauchy_schwarz_gap": cs_rhs - cs_lhs,
    }


@_instance(_learning_kernel)
def learning_instance(seed: Sequence[int], max_dim: int = 6):
    """One encoding and 1 to ``_MAX_N`` POVMs with full combined-POVM audits."""
    seed = list(seed)
    meta, dim = _meta(seed, max_dim)
    n = int(meta.integers(1, _MAX_N + 1))
    x_count = int(meta.integers(2, 7))
    b_size = int(meta.integers(2, 4))
    enc = _encoding_draw(x_count, dim, n, b_size, seed + [1])
    povms = np.array([_povm_draw(_rng(seed + [2, i]), dim, b_size) for i in range(n)])
    return seed, enc, povms


def _slice_records(part: range, instance_fn: Callable[..., dict], seed: int, kwargs: dict) -> list[dict]:
    """The records of instances ``part`` of a campaign: one slice of
    ``run_campaign``, which a helper process runs from a pickled request."""
    return _records(instance_fn.campaign, ([seed, idx] for idx in part), **kwargs)


def run_campaign(
    instance_fn: Callable[..., dict], instances: int, seed: int, **kwargs
) -> list[dict]:
    """Run ``instances`` independent instances of a campaign of this module,
    seeded from (seed, index): the records that calling ``instance_fn`` once
    per instance, with ``kwargs``, gives, computed many instances per kernel
    call, in one process per CPU (``_fanout``).  The one keyword an instance
    function takes is ``max_dim``, the largest dimension it draws (2 to 16).
    ``instances`` (0 to 10^5, as the records stay in memory) and ``seed``
    (at least 0) go through ``tasks._integer`` over their ``COUNT_RANGES``
    ranges before any work, so each is a Python int, which the seed hash
    takes and a record holds.

    The first campaign that fans out forks one helper process per extra
    slice, and later campaigns in the process reuse them: a helper gets the
    instance function (by reference), ``seed``, ``kwargs`` and its slice,
    and runs the module as it was when it was forked.  Helpers point their
    stdio at /dev/null and are reaped when the process exits; a helper that
    fails is reaped at once and its slice rerun here."""
    instances = _integer("instances", instances, *COUNT_RANGES["instances"])
    seed = _integer("seed", seed, *COUNT_RANGES["seed"])
    from . import _fanout  # on first use: every command compiles this module

    return _fanout.run_slices(_slice_records, instances, instance_fn, seed, kwargs)
