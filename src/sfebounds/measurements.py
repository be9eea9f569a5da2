"""Dense Hermitian linear algebra and randomized measurement-disturbance checks.

Everything here operates on small (dim <= 16) complex matrices held as
numpy arrays.  The module provides the norms and square roots the
disturbance bounds are written in, checkers for the two gentle-measurement
inequalities, the combined outcome-tuple POVM built by sandwiching one
measurement inside the square roots of the others, and seeded generators
for randomized verification campaigns.

Stacked kernel: square roots, measurement-operator checks and the sandwich
``op = r @ op @ r`` take stacks of shape (..., d, d) and broadcast over the
leading axes, so one numpy call covers every element of every POVM of an
instance; ``matrix_sqrt`` is the 2-D case.  numpy's stacked matmul, eigh,
eigvalsh and svd make the same BLAS/LAPACK call on each matrix as a 2-D
call does, so stacked results are bit-identical to matrix-at-a-time ones
(the tests keep the matrix-at-a-time loops as references).
Sums over elements keep Python's left-to-right ``sum`` order and inner
products stay per-matrix ``np.vdot`` calls for the same reason (``einsum``
and axis reductions may add in another order).

Tolerance scheme: linear-algebra identities are trusted to 1e-9/1e-10,
verification inequalities get a decade of extra headroom (1e-8) so stacked
roundoff cannot produce false violations, and eigenvalues in [-1e-10, 0)
are treated as roundoff while anything below -1e-8 is a hard error.  A
stacked check applies the 2-D check to every matrix, and the first failing
matrix in C order raises with the message the 2-D check gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

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


def _measurement_ok(stack: np.ndarray, tol: float = PSD_CLAMP_TOL) -> np.ndarray:
    """Hermitian with spectrum inside [-tol, 1 + tol], for every matrix in a stack."""
    evals = np.linalg.eigvalsh(stack)
    hermitian = ~(_hermitian_defect(stack) > HERMITIAN_TOL)
    return hermitian & (evals.min(axis=-1) >= -tol) & (evals.max(axis=-1) <= 1.0 + tol)


@dataclass(frozen=True)
class Povm:
    """Finite outcome-indexed measurement: PSD elements summing to identity."""

    elements: tuple
    labels: tuple = ()

    def __post_init__(self):
        elements = tuple(_as_matrix(e) for e in self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("a POVM needs at least one element")
        labels = self.labels or tuple(range(len(elements)))
        if len(labels) != len(elements):
            raise ValueError("labels and elements differ in length")
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def validate(self, tol: float = COMPLETENESS_TOL) -> None:
        """Raise unless every element is a measurement operator of common
        dimension and the elements sum to the identity within ``tol``."""
        odd = next((i for i, e in enumerate(self.elements) if e.shape[0] != self.dim), None)
        if odd is not None:
            # the elements before the first odd one are checked first
            _validate_stack(np.array(self.elements[:odd]), self.labels, tol=np.inf)
            raise ValueError("POVM elements have mixed dimensions")
        _validate_stack(np.array(self.elements), self.labels, tol)

    def completeness_defect(self) -> float:
        return operator_norm(sum(self.elements) - np.eye(self.dim))


@dataclass(frozen=True)
class QuantumEncoding:
    """Distribution over classical inputs with one quantum state per input.

    ``functions[i][x]`` is the outcome index the i-th target function
    assigns to input x.  The classical register is never materialized:
    all expectations are taken blockwise over x.
    """

    probs: np.ndarray
    states: tuple
    functions: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", tuple(np.asarray(s, dtype=complex) for s in self.states))
        object.__setattr__(self, "functions", tuple(tuple(f) for f in self.functions))
        if probs.ndim != 1 or len(probs) != len(self.states):
            raise ValueError("probs and states must have matching length")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        for f in self.functions:
            if len(f) != len(self.states):
                raise ValueError("every function must be total over the inputs")

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def x_count(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class GentleReport:
    epsilon: float
    disturbance: float
    bound: float  # 2 * sqrt(epsilon)
    holds: bool


@dataclass(frozen=True)
class SequentialReport:
    epsilons: tuple
    expectation: float
    lower_bound: float  # 1 - eps_1 - 2 * sum(sqrt(eps_i), i >= 2)
    holds: bool


@dataclass(frozen=True)
class LearnReport:
    """Success accounting for the learn-everything strategy.

    ``bound`` is p - 2*(n-1)*sqrt(1-p) for the average individual success
    p; ``achieved`` is the measured success of the middle-averaged
    combined strategy; ``slack`` their difference.
    """

    individual_success: tuple
    average: float
    bound: float
    achieved: float
    slack: float
    holds: bool
    averaged_bound: float = field(default=float("nan"))


# ---------------------------------------------------------------------------
# norms and roots
# ---------------------------------------------------------------------------


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace inner product Tr(a* b)."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(_as_matrix(a), compute_uv=False).sum())


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(_operator_norms(_as_matrix(a)))


def _element_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the element axis of POVMs stacked as (..., b, d, d), in the
    order of ``sum(povm.elements)``."""
    return sum(np.moveaxis(stack, -3, 0))


def _validate_stack(stack: np.ndarray, labels: Sequence, tol: float = COMPLETENESS_TOL) -> None:
    """``Povm.validate`` for POVMs stacked as (..., b, d, d), all labelled
    by ``labels``.

    The first invalid POVM in C order raises: for its first element that is
    not a measurement operator, else for its completeness defect.
    """
    ok = _measurement_ok(stack)
    defect = _operator_norms(_element_sum(stack) - np.eye(stack.shape[-1]))
    bad = ~ok.all(axis=-1) | (defect > tol)
    if bad.any():
        i = _first(bad)
        if not ok[i].all():
            label = labels[int(np.argmin(ok[i]))]
            raise ValueError(f"element {label!r} is not a measurement operator")
        raise ValueError(f"POVM completeness defect {defect[i]:.3e} exceeds {tol:.0e}")


def _psd_roots(stack: np.ndarray, hard_tol: float = PSD_HARD_TOL) -> np.ndarray:
    """PSD square roots of a stack of matrices via Hermitian eigendecomposition.

    Every matrix must be Hermitian within HERMITIAN_TOL.  Eigenvalues in
    [-1e-10, 0) are clamped to zero as roundoff; anything below
    ``-hard_tol`` is rejected as a genuinely indefinite input.
    """
    defect = _hermitian_defect(stack)
    evals, vecs = np.linalg.eigh(stack)
    low = evals.min(axis=-1)
    bad = (defect > HERMITIAN_TOL) | (low < -hard_tol)
    if bad.any():
        i = _first(bad)
        if defect[i] > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect[i]:.3e})")
        raise ValueError(f"matrix has eigenvalue {low[i]:.3e}, not PSD")
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ _dagger(vecs)
    return _hermitian_part(root)


def matrix_sqrt(a: np.ndarray, hard_tol: float = PSD_HARD_TOL) -> np.ndarray:
    """PSD square root of one matrix; see ``_psd_roots`` for the checks."""
    return _psd_roots(_as_matrix(a), hard_tol)


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


def check_gentle(rho: np.ndarray, lam: np.ndarray, tol: float = CHECK_TOL) -> GentleReport:
    """Verify the disturbance bound for one (state, measurement) pair.

    epsilon = 1 - <lam, rho>; disturbance is the trace-norm distance from
    rho to sqrt(lam) rho sqrt(lam); the bound is 2*sqrt(epsilon).
    """
    rho, lam = _as_matrix(rho), _as_matrix(lam)
    if rho.shape != lam.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {lam.shape}")
    p = hs_inner(lam, rho).real
    if not -PSD_CLAMP_TOL <= p <= 1.0 + PSD_CLAMP_TOL:
        raise ValueError(f"<lam, rho> = {p} outside [0, 1]")
    epsilon = min(max(1.0 - p, 0.0), 1.0)
    disturbance = trace_norm(rho - _sandwich(rho, [matrix_sqrt(lam)]))
    bound = 2.0 * float(np.sqrt(epsilon))
    return GentleReport(
        epsilon=epsilon,
        disturbance=disturbance,
        bound=bound,
        holds=bool(disturbance <= bound + tol),
    )


def sequential_operator(lams: Sequence[np.ndarray]) -> np.ndarray:
    """Sandwiched product sqrt(L_n)...sqrt(L_2) L_1 sqrt(L_2)...sqrt(L_n),
    with the first operator innermost."""
    if not lams:
        raise ValueError("need at least one measurement operator")
    mats = [_as_matrix(lam) for lam in lams]
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValueError("measurement operators have mixed dimensions")
    roots = _psd_roots(np.array(mats[1:]).reshape(-1, dim, dim))
    return _hermitian_part(_sandwich(mats[0], roots))


def check_sequential(
    rho: np.ndarray, lams: Sequence[np.ndarray], tol: float = CHECK_TOL
) -> SequentialReport:
    """Verify the cumulative-disturbance bound for a measurement sequence.

    With eps_k = 1 - <L_k, rho>, the sandwiched expectation must stay
    above 1 - eps_1 - 2*sum_{k>=2} sqrt(eps_k).
    """
    if len(lams) < 2:
        raise ValueError("sequential check needs at least two operators")
    rho = _as_matrix(rho)
    epsilons = []
    for lam in lams:
        p = hs_inner(lam, rho).real
        epsilons.append(min(max(1.0 - p, 0.0), 1.0))
    expectation = hs_inner(rho, sequential_operator(lams)).real
    lower = 1.0 - epsilons[0] - 2.0 * float(sum(np.sqrt(e) for e in epsilons[1:]))
    return SequentialReport(
        epsilons=tuple(epsilons),
        expectation=expectation,
        lower_bound=lower,
        holds=bool(expectation >= lower - tol),
    )


# ---------------------------------------------------------------------------
# combined POVM and the learn-everything strategy
# ---------------------------------------------------------------------------


def _combined_stack(
    elements: Sequence[np.ndarray], roots: Sequence[np.ndarray], middle: int
) -> np.ndarray:
    """Combined elements for one middle choice, in ``itertools.product`` order.

    ``elements[i]`` and ``roots[i]`` are POVM i's (b_i, d, d) stacks.  POVM i's
    outcomes lie along axis i of a broadcast grid, so one sandwich builds all
    prod(b_i) elements and computes each partial product once.
    """
    n = len(elements)

    def on_axis(stack: np.ndarray, i: int) -> np.ndarray:
        return stack.reshape((1,) * i + (len(stack),) + (1,) * (n - 1 - i) + stack.shape[1:])

    outer = [on_axis(roots[i], i) for i in range(n) if i != middle]
    op = _hermitian_part(_sandwich(on_axis(elements[middle], middle), outer))
    return op.reshape((-1,) + op.shape[-2:])


def combined_povm(povms: Sequence[Povm], middle: int = 0) -> Povm:
    """Outcome-tuple POVM with one input POVM sandwiched innermost.

    Element for tuple (b_1, ..., b_n) is built by conjugating the middle
    POVM's b_middle element with the square roots of the others' elements,
    innermost to outermost in ascending input order.  Completeness
    telescopes regardless of the chosen middle.
    """
    n = len(povms)
    if n == 0:
        raise ValueError("need at least one POVM")
    if not 0 <= middle < n:
        raise ValueError(f"middle index {middle} out of range for {n} POVMs")
    for p in povms:
        p.validate()
    if n == 1:
        return povms[0]
    dim = povms[0].dim
    if any(p.dim != dim for p in povms):
        raise ValueError("POVMs have mixed dimensions")

    stacks = [np.array(p.elements) for p in povms]
    roots = [None if i == middle else _psd_roots(stack) for i, stack in enumerate(stacks)]
    elements = _combined_stack(stacks, roots, middle)
    labels = tuple(itertools.product(*(p.labels for p in povms)))
    return Povm(elements=tuple(elements), labels=labels)


def averaged_strategy_success(enc: QuantumEncoding, povms: Sequence[Povm]) -> LearnReport:
    """Measure the learn-everything strategy against its guarantee.

    For each input x only the correct-outcome-tuple element matters, so
    the success is accumulated blockwise per x instead of materializing
    the classical register: for middle choice j the element is the
    j-th POVM's correct element conjugated by the other correct elements'
    square roots.  ``achieved`` averages uniformly over the middle choice.
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
        if any(e.shape[0] != dim for e in p.elements):
            raise ValueError(f"POVM {i} elements have mixed dimensions")
        for x in range(enc.x_count):
            if not 0 <= enc.functions[i][x] < len(p.elements):
                raise ValueError(f"function {i} maps x={x} outside POVM {i}'s outcomes")

    stacks = [np.array(p.elements) for p in povms]
    return _learn_report(enc, stacks, [_psd_roots(stack) for stack in stacks])


def _learn_report(
    enc: QuantumEncoding, elements: Sequence[np.ndarray], roots: Sequence[np.ndarray]
) -> LearnReport:
    """``averaged_strategy_success`` on POVM i's (b_i, d, d) element and
    root stacks ``elements[i]`` and ``roots[i]``."""
    n = len(elements)
    picks = [list(f) for f in enc.functions]
    individual = []
    for i in range(n):
        p_i = sum(
            enc.probs[x] * hs_inner(enc.states[x], elements[i][picks[i][x]]).real
            for x in range(enc.x_count)
        )
        individual.append(p_i)

    achieved = 0.0
    for j in range(n):
        outer = [roots[i][picks[i]] for i in range(n) if i != j]
        ops = _sandwich(elements[j][picks[j]], outer)
        for x in range(enc.x_count):
            achieved += enc.probs[x] * hs_inner(enc.states[x], ops[x]).real
    achieved /= n

    average = sum(individual) / n
    bound = average - 2.0 * (n - 1) * float(np.sqrt(max(1.0 - average, 0.0)))
    epsilons = [min(max(1.0 - p, 0.0), 1.0) for p in individual]
    averaged_bound = 1.0 - sum(epsilons) / n - (2.0 * (n - 1) / n) * float(
        sum(np.sqrt(e) for e in epsilons)
    )
    slack = achieved - bound
    return LearnReport(
        individual_success=tuple(individual),
        average=average,
        bound=bound,
        achieved=achieved,
        slack=slack,
        holds=bool(slack >= -CHECK_TOL),
        averaged_bound=averaged_bound,
    )


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_density(dim: int, rank: int, seed: Seed) -> np.ndarray:
    """GG*/Tr(GG*) for a dim x rank matrix of standard complex Gaussians."""
    if dim < 1 or not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    rng = _rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_povm(dim: int, outcomes: int, seed: Seed) -> Povm:
    """Random POVM from Gaussian PSD parts conjugated by their inverse-root sum.

    The sum is regularized by +1e-9 I before the inverse square root; the
    tiny completeness residue that leaves is redistributed evenly across
    the elements so the identity defect stays at roundoff level.
    """
    if dim < 1 or outcomes < 1:
        raise ValueError("dim and outcomes must be positive")
    # one draw in the order of per-part draws: real, then imaginary, per part
    z = _rng(seed).standard_normal((outcomes, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    parts = g @ _dagger(g)
    total = sum(parts) + 1e-9 * np.eye(dim)
    evals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(evals)) @ vecs.conj().T
    elements = inv_root @ parts @ inv_root
    residue = np.eye(dim) - sum(elements)
    return Povm(elements=tuple(_hermitian_part(elements) + residue / outcomes))


def random_encoding(
    x_count: int, dim: int, n_functions: int, b_size: int, seed: Seed
) -> QuantumEncoding:
    """Dirichlet-uniform input distribution, independent random states of
    random rank, and uniformly random total functions into range(b_size)."""
    if min(x_count, dim, n_functions, b_size) < 1:
        raise ValueError("all parameters must be positive")
    rng = _rng(seed)
    probs = rng.dirichlet(np.ones(x_count))
    states = []
    for _ in range(x_count):
        rank = int(rng.integers(1, dim + 1))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    functions = tuple(
        tuple(int(v) for v in rng.integers(0, b_size, size=x_count)) for _ in range(n_functions)
    )
    return QuantumEncoding(probs=probs, states=tuple(states), functions=functions)


def encoding_to_jsonable(enc: QuantumEncoding) -> dict:
    """Canonical JSON form, used for reproducibility checks."""
    return {
        "probs": [float(p) for p in enc.probs],
        "states": [
            [[[float(v.real), float(v.imag)] for v in row] for row in s] for s in enc.states
        ],
        "functions": [list(f) for f in enc.functions],
    }


# ---------------------------------------------------------------------------
# randomized verification campaigns
#
# Every instance derives its randomness from (campaign seed, instance
# index, slot), so results are identical no matter how instances are
# scheduled.  Records are JSON-ready dicts sharing the core keys
# {seed, dims, n, epsilons, bound, achieved, holds}.
# ---------------------------------------------------------------------------


def _random_measurement_operator(dim: int, seed: Sequence[int]) -> np.ndarray:
    """A generic measurement operator: a random POVM element pulled toward
    the identity by a random amount, spreading epsilon over [0, 1]."""
    seed = list(seed)
    rng = _rng(seed + [0])
    t = rng.uniform() ** 2
    element = random_povm(dim, 2, seed + [1]).elements[0]
    return (1.0 - t) * np.eye(dim) + t * element


def gentle_instance(seed: Sequence[int], min_dim: int = 2, max_dim: int = 8) -> dict:
    seed = list(seed)
    meta = _rng(seed + [0])
    dim = int(meta.integers(min_dim, max_dim + 1))
    rank = int(meta.integers(1, dim + 1))
    rho = random_density(dim, rank, seed + [1])
    lam = _random_measurement_operator(dim, seed + [2])
    report = check_gentle(rho, lam)
    return {
        "seed": seed,
        "dims": dim,
        "n": 1,
        "epsilons": [report.epsilon],
        "bound": report.bound,
        "achieved": report.disturbance,
        "holds": report.holds,
    }


def sequential_instance(
    seed: Sequence[int], min_dim: int = 2, max_dim: int = 6, max_n: int = 4
) -> dict:
    seed = list(seed)
    meta = _rng(seed + [0])
    dim = int(meta.integers(min_dim, max_dim + 1))
    n = int(meta.integers(2, max_n + 1))
    rank = int(meta.integers(1, dim + 1))
    rho = random_density(dim, rank, seed + [1])
    lams = [_random_measurement_operator(dim, seed + [2, k]) for k in range(n)]
    report = check_sequential(rho, lams)
    return {
        "seed": seed,
        "dims": dim,
        "n": n,
        "epsilons": list(report.epsilons),
        "bound": report.lower_bound,
        "achieved": report.expectation,
        "holds": report.holds,
    }


def learning_instance(
    seed: Sequence[int], min_dim: int = 2, max_dim: int = 6, max_n: int = 4
) -> dict:
    """One encoding-plus-POVMs instance with full combined-POVM audits."""
    seed = list(seed)
    meta = _rng(seed + [0])
    dim = int(meta.integers(min_dim, max_dim + 1))
    n = int(meta.integers(1, max_n + 1))
    x_count = int(meta.integers(2, 7))
    b_size = int(meta.integers(2, 4))
    enc = random_encoding(x_count, dim, n, b_size, seed + [1])
    povms = [random_povm(dim, b_size, seed + [2, i]) for i in range(n)]
    elements = np.array([p.elements for p in povms])  # (n, b, d, d)
    roots = _psd_roots(elements)
    report = _learn_report(enc, elements, roots)
    # after the roots, so a bad POVM raises what the public functions raised
    _validate_stack(elements, povms[0].labels)
    if n == 1:
        tilde = elements  # combined_povm returns a lone POVM unchanged
    else:
        tilde = np.array([_combined_stack(elements, roots, j) for j in range(n)])
    max_defect = float(_operator_norms(_element_sum(tilde) - np.eye(dim)).max())
    min_eig = float(np.linalg.eigvalsh(tilde).min())

    epsilons = [1.0 - p for p in report.individual_success]
    cs_lhs = float(sum(np.sqrt(max(e, 0.0)) for e in epsilons))
    cs_rhs = float(np.sqrt(n) * np.sqrt(max(sum(epsilons), 0.0)))
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
        "min_eigenvalue": float(min_eig),
        "cauchy_schwarz_gap": float(cs_rhs - cs_lhs),
    }


def run_campaign(
    instance_fn: Callable[..., dict], instances: int, seed: int, **kwargs
) -> list[dict]:
    """Run ``instances`` independent instances seeded from (seed, index)."""
    return [instance_fn([seed, idx], **kwargs) for idx in range(instances)]
