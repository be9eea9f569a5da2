import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfebounds import measurements as m
from sfebounds.measurements import (
    Povm,
    QuantumEncoding,
    averaged_strategy_success,
    check_gentle,
    check_sequential,
    combined_povm,
    matrix_sqrt,
    random_density,
    random_encoding,
    random_povm,
)


def random_psd(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# references: the matrix-at-a-time loops that the stacked kernel replaced
# ---------------------------------------------------------------------------


def loop_matrix_sqrt(a):
    a = np.asarray(a, dtype=complex)
    defect = np.abs(a - a.conj().T).max()
    if defect > m.HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    evals, vecs = np.linalg.eigh(a)
    if evals.min() < -m.PSD_HARD_TOL:
        raise ValueError(f"matrix has eigenvalue {evals.min():.3e}, not PSD")
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def loop_random_povm(dim, outcomes, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(g @ g.conj().T)
    total = sum(parts) + 1e-9 * np.eye(dim)
    evals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(evals)) @ vecs.conj().T
    elements = [inv_root @ a @ inv_root for a in parts]
    residue = np.eye(dim) - sum(elements)
    elements = [0.5 * (e + e.conj().T) + residue / outcomes for e in elements]
    return Povm(elements=tuple(elements))


def loop_measurement_operator(dim, seed):
    t = np.random.default_rng(seed + [0]).uniform() ** 2
    element = loop_random_povm(dim, 2, seed + [1]).elements[0]
    return (1.0 - t) * np.eye(dim) + t * element


def completeness_defect(povm):
    """Operator-norm distance of the element sum from the identity."""
    return float(m._operator_norms(sum(povm.elements) - np.eye(povm.dim)))


def loop_validate(elements, labels):
    elements = [np.asarray(e, dtype=complex) for e in elements]
    for label, e in zip(labels, elements):
        if not (
            np.abs(e - e.conj().T).max() <= m.HERMITIAN_TOL
            and np.linalg.eigvalsh(e).min() >= -m.PSD_CLAMP_TOL
            and np.linalg.eigvalsh(e).max() <= 1.0 + m.PSD_CLAMP_TOL
        ):
            raise ValueError(f"element {label!r} is not a measurement operator")
    defect = float(m._operator_norms(sum(elements) - np.eye(len(elements[0]))))
    if defect > m.COMPLETENESS_TOL:
        raise ValueError(f"POVM completeness defect {defect:.3e} exceeds {m.COMPLETENESS_TOL:.0e}")


def stacked_sequential_operator(lams):
    """The stacked kernel on one sequence of operators, the first innermost."""
    first = np.asarray(lams[0], dtype=complex)
    rest = np.array(lams[1:], dtype=complex).reshape(-1, *first.shape)
    return m._sequential_operators(first, rest)


def loop_sequential_operator(lams):
    op = np.asarray(lams[0], dtype=complex)
    for lam in lams[1:]:
        root = loop_matrix_sqrt(lam)
        op = root @ op @ root
    return 0.5 * (op + op.conj().T)


def loop_combined_povm(povms, middle=0):
    for p in povms:
        loop_validate(p.elements, p.labels)
    n = len(povms)
    if n == 1:
        return povms[0]
    outer = [i for i in range(n) if i != middle]
    roots = {i: [loop_matrix_sqrt(e) for e in povms[i].elements] for i in outer}
    elements = []
    labels = []
    for combo in itertools.product(*(range(len(p.elements)) for p in povms)):
        op = povms[middle].elements[combo[middle]]
        for i in outer:
            root = roots[i][combo[i]]
            op = root @ op @ root
        elements.append(0.5 * (op + op.conj().T))
        labels.append(tuple(povms[i].labels[combo[i]] for i in range(n)))
    return Povm(elements=tuple(elements), labels=tuple(labels))


def loop_averaged_strategy_success(enc, povms):
    n = len(povms)
    roots = [[loop_matrix_sqrt(e) for e in p.elements] for p in povms]
    individual = []
    for i in range(n):
        p_i = sum(
            enc.probs[x] * np.vdot(enc.states[x], povms[i].elements[enc.functions[i][x]]).real
            for x in range(enc.x_count)
        )
        individual.append(p_i)
    achieved = 0.0
    for j in range(n):
        outer = [i for i in range(n) if i != j]
        for x in range(enc.x_count):
            op = povms[j].elements[enc.functions[j][x]]
            for i in outer:
                root = roots[i][enc.functions[i][x]]
                op = root @ op @ root
            achieved += enc.probs[x] * np.vdot(enc.states[x], op).real
    achieved /= n
    average = sum(individual) / n
    bound = average - 2.0 * (n - 1) * float(np.sqrt(max(1.0 - average, 0.0)))
    epsilons = [min(max(1.0 - p, 0.0), 1.0) for p in individual]
    averaged_bound = 1.0 - sum(epsilons) / n - (2.0 * (n - 1) / n) * float(
        sum(np.sqrt(e) for e in epsilons)
    )
    return m.LearnReport(
        individual_success=tuple(individual),
        average=average,
        bound=bound,
        achieved=achieved,
        holds=bool(achieved - bound >= -m.CHECK_TOL),
        averaged_bound=averaged_bound,
    )


def loop_sequential_instance(seed, max_dim=6):
    seed = list(seed)
    meta = np.random.default_rng(seed + [0])
    dim = int(meta.integers(2, max_dim + 1))
    n = int(meta.integers(2, 5))
    rank = int(meta.integers(1, dim + 1))
    rho = random_density(dim, rank, seed + [1])
    lams = [loop_measurement_operator(dim, seed + [2, k]) for k in range(n)]
    epsilons = [min(max(1.0 - np.vdot(lam, rho).real, 0.0), 1.0) for lam in lams]
    expectation = np.vdot(rho, loop_sequential_operator(lams)).real
    lower = 1.0 - epsilons[0] - 2.0 * float(sum(np.sqrt(e) for e in epsilons[1:]))
    return {
        "seed": seed,
        "dims": dim,
        "n": n,
        "epsilons": epsilons,
        "bound": lower,
        "achieved": expectation,
        "holds": bool(expectation >= lower - m.CHECK_TOL),
    }


def loop_learning_instance(seed, max_dim=6):
    seed = list(seed)
    meta = np.random.default_rng(seed + [0])
    dim = int(meta.integers(2, max_dim + 1))
    n = int(meta.integers(1, 5))
    x_count = int(meta.integers(2, 7))
    b_size = int(meta.integers(2, 4))
    enc = random_encoding(x_count, dim, n, b_size, seed + [1])
    povms = [loop_random_povm(dim, b_size, seed + [2, i]) for i in range(n)]
    report = loop_averaged_strategy_success(enc, povms)
    max_defect = 0.0
    min_eig = np.inf
    for j in range(n):
        tilde = loop_combined_povm(povms, middle=j)
        max_defect = max(max_defect, completeness_defect(tilde))
        for e in tilde.elements:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(e).min()))
    epsilons = [1.0 - p for p in report.individual_success]
    cs_lhs = float(sum(np.sqrt(max(e, 0.0)) for e in epsilons))
    cs_rhs = float(np.sqrt(n) * np.sqrt(max(sum(epsilons), 0.0)))
    holds = bool(
        report.holds
        and report.achieved >= report.averaged_bound - m.CHECK_TOL
        and max_defect <= m.COMPLETENESS_TOL
        and min_eig >= -m.PSD_CLAMP_TOL
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


def error_message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_defining_property_random(self):
        a = random_psd(5, 11)
        root = matrix_sqrt(a)
        assert m._operator_norms(root @ root - a) <= 1e-9
        assert np.linalg.eigvalsh(root).min() >= -1e-12

    def test_idempotence_chain_many_dims(self):
        rng = np.random.default_rng(0)
        for i in range(1000):
            dim = int(rng.integers(2, 9))
            a = random_psd(dim, int(rng.integers(0, 2**31)))
            a /= np.trace(a).real  # keep norms comparable across dims
            root = matrix_sqrt(a)
            assert m._operator_norms(root @ root - a) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.diag([1.0, -1e-3]))

    def test_clamps_tiny_negative_eigenvalues(self):
        root = matrix_sqrt(np.diag([1.0, -1e-11]))
        assert np.linalg.eigvalsh(root).min() >= 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNorms:
    def test_trace_norm_diagonal(self):
        assert m._trace_norms(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_operator_norm_identity(self):
        for dim in (2, 5, 9):
            assert m._operator_norms(np.eye(dim)) == pytest.approx(1.0, abs=1e-12)

    def test_stacked_norms_are_the_eigenvalue_forms(self):
        # on Hermitian matrices the singular values are the absolute
        # eigenvalues, one row of norms per matrix of the stack
        rng = np.random.default_rng(8)
        g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        stack = g + np.conj(np.swapaxes(g, -1, -2))
        eigs = np.abs(np.linalg.eigvalsh(stack))
        assert m._trace_norms(stack).shape == (6,)
        assert np.allclose(m._trace_norms(stack), eigs.sum(axis=-1), rtol=0, atol=1e-12)
        assert np.allclose(m._operator_norms(stack), eigs.max(axis=-1), rtol=0, atol=1e-12)


class TestShapes:
    def test_non_square_matrix_refused(self):
        message = error_message(matrix_sqrt, np.ones((2, 3)))
        assert message == "expected a square matrix, got shape (2, 3)"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_gentle(np.eye(2) / 2, np.eye(3))
        with pytest.raises(ValueError, match=r"dimension mismatch: \(3, 3\) vs \(2, 2\)"):
            check_sequential(np.eye(2) / 2, [np.eye(2), np.eye(3)])


class TestGentle:
    def test_identity_measurement_no_disturbance(self):
        rho = random_density(4, 4, seed=1)
        report = check_gentle(rho, np.eye(4))
        assert report.epsilon == 0.0
        assert report.disturbance <= 1e-12
        assert report.holds

    def test_projector_onto_pure_state(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        report = check_gentle(rho, rho)  # rank-1 projector equals the support
        assert report.epsilon <= 1e-12
        assert report.disturbance <= 1e-9
        assert report.holds

    def test_random_pairs_all_hold(self):
        records = m.run_campaign(m.gentle_instance, 200, seed=1)
        assert all(r["holds"] for r in records)
        assert {r["dims"] for r in records} <= set(range(2, 9))

    def test_holder_inequality_step(self):
        # |<rho - sqrt(L) rho sqrt(L), L'>| <= ||diff||_tr * ||L'||_op
        for i in range(200):
            rec_seed = [77, i]
            meta = np.random.default_rng(rec_seed)
            dim = int(meta.integers(2, 7))
            rho = random_density(dim, int(meta.integers(1, dim + 1)), rec_seed + [1])
            lam = random_povm(dim, 2, rec_seed + [2]).elements[0]
            lam2 = random_povm(dim, 2, rec_seed + [3]).elements[1]
            root = matrix_sqrt(lam)
            diff = rho - root @ rho @ root
            lhs = abs(np.vdot(diff, lam2))
            rhs = m._trace_norms(diff) * m._operator_norms(lam2)
            assert lhs <= rhs + 1e-9


class TestSequential:
    def test_single_operator_returned(self):
        lam = random_povm(3, 2, seed=4).elements[0]
        assert np.allclose(stacked_sequential_operator([lam]), lam)

    def test_all_identity(self):
        assert np.allclose(stacked_sequential_operator([np.eye(4)] * 3), np.eye(4))

    def test_commuting_diagonal_closed_form(self):
        diags = [np.diag([0.9, 0.5, 0.1]), np.diag([0.8, 0.7, 0.2]), np.diag([1.0, 0.3, 0.6])]
        expected = np.diag(np.diag(diags[0]) * np.diag(diags[1]) * np.diag(diags[2]))
        assert np.allclose(stacked_sequential_operator(diags), expected, atol=1e-12)

    def test_certain_outcomes_keep_expectation_high(self):
        rho = random_density(4, 2, seed=6)
        report = check_sequential(rho, [np.eye(4), np.eye(4), np.eye(4)])
        assert report.expectation >= 1 - 1e-8
        assert report.holds

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            check_sequential(np.eye(2) / 2, [np.eye(2)])

    def test_random_instances_all_hold(self):
        records = m.run_campaign(m.sequential_instance, 200, seed=2)
        assert all(r["holds"] for r in records)
        assert {r["n"] for r in records} <= {2, 3, 4}

    def test_permuting_operators_never_breaks_validity(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            seed = [55, i]
            meta = np.random.default_rng(seed)
            dim = int(meta.integers(2, 6))
            rho = random_density(dim, dim, seed + [1])
            lams = [m._measurement_operators(*m._operator_draw(dim, seed + [2, k])) for k in range(3)]
            base = check_sequential(rho, lams)
            perm = list(rng.permutation(3))
            shuffled = check_sequential(rho, [lams[p] for p in perm])
            assert base.holds and shuffled.holds


class TestCombinedPovm:
    def test_single_input_unchanged(self):
        pov = random_povm(3, 2, seed=5)
        assert combined_povm([pov]) is pov

    def test_commuting_projective_pair(self):
        basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        pov = Povm(elements=tuple(basis))
        tilde = combined_povm([pov, pov])
        for element, label in zip(tilde.elements, tilde.labels):
            b1, b2 = label
            expected = basis[b1] @ basis[b2]
            assert np.allclose(element, expected, atol=1e-12)

    def test_random_pair_completeness(self):
        povs = [random_povm(3, 2, seed=[5, i]) for i in range(2)]
        tilde = combined_povm(povs)
        assert completeness_defect(tilde) <= 1e-10
        assert len(tilde.elements) == 4
        for element in tilde.elements:
            assert np.linalg.eigvalsh(element).min() >= -1e-10

    def test_every_middle_choice_is_complete(self):
        # the learning audit puts each POVM innermost in turn
        povs = [random_povm(2, 2, seed=[6, i]) for i in range(3)]
        stacks = [np.array(p.elements) for p in povs]
        roots = [m._psd_roots(stack) for stack in stacks]
        for middle in range(3):
            tilde = Povm(m._hermitian_part(m._combined_stack(stacks, roots, middle)))
            assert completeness_defect(tilde) <= 1e-10
            assert len(tilde.elements) == 8

    def test_invalid_input_povm_rejected(self):
        # refused when it is built, so no combined_povm call can take it
        with pytest.raises(ValueError, match=r"^POVM completeness defect 1\.000e\+00 exceeds 1e-10$"):
            Povm(elements=(np.eye(2), np.eye(2)))


class TestLearnStrategy:
    def test_single_function_no_sequencing(self):
        enc = random_encoding(3, 3, 1, 2, seed=12)
        pov = random_povm(3, 2, seed=13)
        report = averaged_strategy_success(enc, [pov])
        assert report.achieved == pytest.approx(report.individual_success[0], abs=1e-12)
        assert report.bound == pytest.approx(report.individual_success[0], abs=1e-12)
        assert report.holds

    def test_perfectly_distinguishable_states(self):
        states = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        enc = QuantumEncoding(
            probs=np.array([0.5, 0.5]), states=states, functions=((0, 1), (0, 1))
        )
        pvm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        report = averaged_strategy_success(enc, [pvm, pvm])
        assert report.achieved == pytest.approx(1.0, abs=1e-10)
        assert report.bound == pytest.approx(1.0, abs=1e-10)
        assert report.holds

    def test_random_encodings_all_hold(self):
        records = m.run_campaign(m.learning_instance, 100, seed=3)
        assert all(r["holds"] for r in records)
        for r in records:
            assert r["completeness_defect"] <= 1e-10
            assert r["min_eigenvalue"] >= -1e-10
            assert r["cauchy_schwarz_gap"] >= -1e-12
            assert r["achieved"] >= r["bound"] - 1e-8

    def test_function_range_checked(self):
        enc = QuantumEncoding(
            probs=np.array([1.0]), states=(np.eye(2) / 2,), functions=((5,),)
        )
        with pytest.raises(ValueError):
            averaged_strategy_success(enc, [random_povm(2, 2, seed=0)])

    def test_dimension_mismatch_rejected(self):
        enc = random_encoding(2, 3, 1, 2, seed=1)
        with pytest.raises(ValueError, match=r"^POVM 0 dimension 4 does not match states \(3\)$"):
            averaged_strategy_success(enc, [random_povm(4, 2, seed=0)])
        # the kernel's bare inner products rely on states of one shape,
        # which the encoding checks when it is built
        with pytest.raises(ValueError, match="^states have mixed dimensions$"):
            QuantumEncoding(
                probs=np.array([0.5, 0.5]), states=(np.eye(2) / 2, np.eye(3) / 3), functions=((0, 1),)
            )

    def test_a_non_povm_is_never_scored(self):
        # (I, I) sums to 2I; scored, two copies read holds=True with
        # individual success 1.0
        enc = random_encoding(3, 2, 2, 2, seed=1)
        with pytest.raises(ValueError, match="^POVM completeness defect"):
            averaged_strategy_success(enc, [Povm(elements=(np.eye(2), np.eye(2)))] * 2)


class TestGenerators:
    def test_random_density_properties(self):
        rho = random_density(4, 4, seed=0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        low = random_density(5, 2, seed=1)
        assert np.linalg.matrix_rank(low, tol=1e-10) == 2

    def test_random_density_deterministic(self):
        assert np.array_equal(random_density(3, 2, seed=42), random_density(3, 2, seed=42))

    def test_random_povm_properties(self):
        pov = random_povm(3, 2, seed=0)  # checked when it is built
        assert completeness_defect(pov) <= 1e-10

    def test_invalid_generator_parameters(self):
        with pytest.raises(ValueError):
            random_density(3, 5, seed=0)
        with pytest.raises(ValueError):
            random_povm(0, 2, seed=0)
        with pytest.raises(ValueError):
            random_encoding(2, 2, 0, 2, seed=0)

    def test_encoding_serialization_reproducible(self):
        first, second = (random_encoding(4, 3, 2, 2, seed=9) for _ in range(2))
        assert np.array_equal(first.probs, second.probs)
        assert np.array_equal(first.states, second.states)
        assert first.functions == second.functions

    def test_campaign_records_are_order_independent(self):
        full = m.run_campaign(m.gentle_instance, 10, seed=5)
        alone = m.gentle_instance([5, 7])
        assert full[7] == alone

    def test_campaign_records_serialize(self):
        for fn in (m.gentle_instance, m.sequential_instance, m.learning_instance):
            record = fn([0, 0])
            parsed = json.loads(json.dumps(record, sort_keys=True))
            assert parsed["holds"] is True


class TestPovmType:
    def test_validate_passes_for_generated(self):
        # a generated POVM passes the constructor's check again when rebuilt
        assert Povm(*random_povm(4, 3, seed=2)).dim == 4

    def test_validate_rejects_incomplete(self):
        with pytest.raises(ValueError, match="^POVM completeness defect"):
            Povm(elements=(np.eye(2) / 2, np.eye(2) / 3))

    def test_labels_default_and_custom(self):
        pov = Povm(elements=(np.eye(2) / 2, np.eye(2) / 2), labels=("yes", "no"))
        assert pov.labels == ("yes", "no")
        assert Povm(elements=(np.eye(2),)).labels == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Povm(elements=())

    def test_povm_and_encoding_are_built_through_their_checks(self):
        pov = Povm(elements=(np.eye(2) / 2, np.eye(2) / 2), labels=("yes", "no"))
        assert pov._replace(labels=["a", "b"]).labels == ("a", "b")
        with pytest.raises(ValueError, match="^labels and elements differ in length$"):
            pov._replace(labels=("yes",))
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2,\)$"):
            Povm._make(([[1, 0]],))
        with pytest.raises(ValueError, match="^POVM elements have mixed dimensions$"):
            pov._replace(elements=(np.eye(2), np.eye(3)))
        enc = QuantumEncoding(probs=[1.0], states=(np.eye(1),), functions=((0,),))
        assert enc._replace(functions=[[0]]).functions == ((0,),)
        with pytest.raises(ValueError, match="^probs must be nonnegative and sum to 1$"):
            enc._replace(probs=[0.5])
        with pytest.raises(AttributeError):
            pov.labels = ()


HALF = np.eye(2) / 2

# each public refusal, called with the least input that reaches it
REFUSALS = {
    "gentle-above-one": (
        lambda: check_gentle(HALF, 2 * np.eye(2)),
        "operator 0 is not a measurement operator",
    ),
    # -I has no root either: the inputs are checked before any root is taken
    "gentle-below-zero": (
        lambda: check_gentle(HALF, -np.eye(2)),
        "operator 0 is not a measurement operator",
    ),
    # <lam, rho> = 0.95 lies in [0, 1], and the lemma's bound is not for this lam
    "gentle-not-measurement": (
        lambda: check_gentle(HALF, np.diag([1.9, 0.0])),
        "operator 0 is not a measurement operator",
    ),
    "gentle-trace-two": (
        lambda: check_gentle(np.eye(2), HALF),
        "rho is not a density matrix",
    ),
    "sequential-not-measurement": (
        lambda: check_sequential(HALF, [np.eye(2), np.diag([1.9, 0.0])]),
        "operator 1 is not a measurement operator",
    ),
    "sequential-one-operator": (
        lambda: check_sequential(HALF, [np.eye(2)]),
        "sequential check needs at least two operators",
    ),
    "sequential-mixed": (
        lambda: check_sequential(HALF, [np.eye(2), np.eye(3)]),
        "dimension mismatch: (3, 3) vs (2, 2)",
    ),
    "combined-empty": (lambda: combined_povm([]), "need at least one POVM"),
    "combined-mixed": (
        lambda: combined_povm([random_povm(2, 2, seed=0), random_povm(3, 2, seed=1)]),
        "POVMs have mixed dimensions",
    ),
    "learning-empty": (
        lambda: averaged_strategy_success(random_encoding(2, 2, 1, 2, seed=1), []),
        "need at least one POVM",
    ),
    "learning-function-count": (
        lambda: averaged_strategy_success(
            random_encoding(2, 2, 1, 2, seed=1), [random_povm(2, 2, seed=0)] * 2
        ),
        "encoding provides 1 functions for 2 POVMs",
    ),
    "encoding-lengths": (
        lambda: QuantumEncoding(probs=[0.5, 0.5], states=(HALF,), functions=()),
        "probs and states must have matching length",
    ),
    "encoding-negative-probs": (
        lambda: QuantumEncoding(probs=[1.5, -0.5], states=(HALF, HALF), functions=()),
        "probs must be nonnegative and sum to 1",
    ),
    "encoding-probs-sum": (
        lambda: QuantumEncoding(probs=[0.5, 0.4], states=(HALF, HALF), functions=()),
        "probs must be nonnegative and sum to 1",
    ),
    "encoding-mixed": (
        lambda: QuantumEncoding(
            probs=[0.5, 0.5], states=(HALF, np.eye(3) / 3), functions=((0, 1),)
        ),
        "states have mixed dimensions",
    ),
    "encoding-partial-function": (
        lambda: QuantumEncoding(probs=[0.5, 0.5], states=(HALF, HALF), functions=((0,),)),
        "every function must be total over the inputs",
    ),
    "povm-mixed": (
        lambda: Povm(elements=(np.eye(3) / 2, np.eye(2) / 2)),
        "POVM elements have mixed dimensions",
    ),
    "povm-not-measurement": (
        lambda: Povm(elements=(np.eye(2), np.eye(2))),
        "POVM completeness defect 1.000e+00 exceeds 1e-10",
    ),
    "povm-labels": (
        lambda: Povm(elements=(np.eye(2),), labels=("a", "b")),
        "labels and elements differ in length",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_public_refusals(name):
    call, message = REFUSALS[name]
    assert error_message(call) == message


DIMS = st.integers(1, 6)
OUTCOMES = st.lists(st.integers(1, 3), min_size=1, max_size=4)
SEEDS = st.integers(0, 2**32 - 1)


def povm_family(dim, outcomes, seed):
    return [random_povm(dim, b, [seed, i]) for i, b in enumerate(outcomes)]


class TestStackedKernelMatchesLoops:
    """The stacked kernel gives the loops' results bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 3), SEEDS)
    def test_random_povm(self, dim, outcomes, seed):
        got = random_povm(dim, outcomes, seed).elements
        want = loop_random_povm(dim, outcomes, seed).elements
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DIMS, st.integers(1, 4), SEEDS)
    def test_roots_and_sequential_operator(self, dim, count, seed):
        lams = [m._measurement_operators(*m._operator_draw(dim, [seed, k])) for k in range(count)]
        for lam in lams:
            assert np.array_equal(matrix_sqrt(lam), loop_matrix_sqrt(lam))
        assert np.array_equal(stacked_sequential_operator(lams), loop_sequential_operator(lams))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DIMS, OUTCOMES, SEEDS)
    def test_combined_povm(self, dim, outcomes, seed):
        povms = povm_family(dim, outcomes, seed)
        got = combined_povm(povms)
        want = loop_combined_povm(povms)
        assert got.labels == want.labels
        assert len(got.elements) == len(want.elements)
        assert all(np.array_equal(a, b) for a, b in zip(got.elements, want.elements))
        # every other middle choice, as the learning audit builds it
        stacks = [np.array(p.elements) for p in povms]
        roots = [m._psd_roots(stack) for stack in stacks]
        for middle in range(1, len(povms)):
            got = m._hermitian_part(m._combined_stack(stacks, roots, middle))
            want = loop_combined_povm(povms, middle).elements
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DIMS, OUTCOMES, st.integers(1, 6), SEEDS)
    def test_learn_report(self, dim, outcomes, inputs, seed):
        rng = np.random.default_rng([seed, 99])
        enc = QuantumEncoding(
            probs=rng.dirichlet(np.ones(inputs)),
            states=tuple(
                random_density(dim, int(rng.integers(1, dim + 1)), [seed, 98, x])
                for x in range(inputs)
            ),
            functions=tuple(
                tuple(int(v) for v in rng.integers(0, b, size=inputs)) for b in outcomes
            ),
        )
        povms = povm_family(dim, outcomes, seed)
        got = averaged_strategy_success(enc, povms)
        want = loop_averaged_strategy_success(enc, povms)
        assert got._asdict() == want._asdict()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.integers(1, 81),
        st.integers(1, 6),
        st.lists(st.integers(1, 3), max_size=2),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.sampled_from(["contiguous", "swapped", "reversed"]),
        SEEDS,
    )
    def test_element_sum(self, count, dim, leading, zeros, layout, seed):
        # real and imaginary parts over six decades, a share ``zeros`` of
        # them zeros of either sign: a sum that started from another zero,
        # or added in another order, would show; the learning kernel passes
        # swapped views, and a reversed one adds against its memory order
        rng = np.random.default_rng(seed)
        shape = (*leading, count, dim, dim, 2)
        parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        parts[rng.random(shape) < zeros] = 0.0
        parts = np.where(rng.random(shape) < 0.5, -parts, parts)
        stack = parts.view(np.complex128)[..., 0]
        if layout == "swapped":
            stack = np.ascontiguousarray(stack.swapaxes(0, 1)).swapaxes(0, 1)
        elif layout == "reversed":
            stack = stack[..., ::-1, :, :]
        want = sum(stack[..., i, :, :] for i in range(count))
        got = m._element_sum(stack)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "instance,reference",
        [
            (m.learning_instance, loop_learning_instance),
            (m.sequential_instance, loop_sequential_instance),
        ],
    )
    @pytest.mark.parametrize("dims", [{}, {"max_dim": 2}])
    def test_campaign_records(self, instance, reference, dims):
        got = m.run_campaign(instance, 60, seed=4, **dims)
        want = [reference([4, idx], **dims) for idx in range(60)]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize(
        "lams",
        [
            [np.eye(2), np.diag([1.0, -1e-3]), np.array([[0.0, 1.0], [0.0, 0.0]])],
            [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1e-3])],
            [np.eye(3), np.eye(3), np.diag([0.5, -2e-8, 1.0])],
        ],
    )
    def test_first_bad_root_reported(self, lams):
        assert error_message(stacked_sequential_operator, lams) == error_message(
            loop_sequential_operator, lams
        )

    @pytest.mark.parametrize(
        "elements",
        [
            (np.eye(2) / 2, np.eye(2) / 3),
            (np.eye(2), np.diag([0.0, 2.0]), -np.eye(2)),
            (np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]])),
        ],
    )
    def test_first_validation_failure_reported(self, elements):
        labels = tuple("abc"[: len(elements)])
        assert error_message(Povm, elements, labels) == error_message(loop_validate, elements, labels)


CAMPAIGNS = [m.gentle_instance, m.sequential_instance, m.learning_instance]


class TestCampaignKernels:
    """run_campaign passes many instances to one stacked kernel call; every
    record is the one its instance function gives alone."""

    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_every_record_replays_alone(self, instance):
        records = m.run_campaign(instance, 300, seed=8)
        alone = [instance([8, idx]) for idx in range(300)]
        assert json.dumps(records, sort_keys=True) == json.dumps(alone, sort_keys=True)

    # one full chunk and a chunk of one, at the module's own chunk size
    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_full_chunk_plus_one_replays_alone(self, instance):
        count = m._CHUNK + 1
        records = m.run_campaign(instance, count, seed=12)
        alone = [instance([12, idx]) for idx in range(count)]
        assert json.dumps(records) == json.dumps(alone)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(CAMPAIGNS),
        st.sampled_from([{}, {"max_dim": 2}, {"max_dim": 4}]),
        st.integers(1, 9),
        st.lists(st.integers(0, 39), max_size=24),
    )
    def test_records_do_not_depend_on_chunks_or_groups(self, instance, dims, chunk, picks):
        want = [instance([9, idx], **dims) for idx in picks]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(m, "_CHUNK", chunk)
            got = m._records(instance.campaign, [[9, idx] for idx in picks], **dims)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    # numpy's scalars print as Python's in JSON, but a caller that keeps a
    # record sees their type
    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_records_hold_python_scalars(self, instance):
        def python(value):
            if type(value) is list:
                return all(type(v) in (int, float, bool) for v in value)
            return type(value) in (int, float, bool)

        for record in m.run_campaign(instance, 100, seed=3):
            assert {key: type(v) for key, v in record.items() if not python(v)} == {}

    def test_learn_report_holds_python_floats(self):
        enc = random_encoding(3, 2, 2, 2, seed=4)
        report = averaged_strategy_success(enc, [random_povm(2, 2, [4, i]) for i in range(2)])
        assert {type(p) for p in report.individual_success} == {float}
        assert {type(v) for v in (report.average, report.bound, report.achieved, report.averaged_bound)} == {float}

    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_zero_instances(self, instance):
        assert m.run_campaign(instance, 0, seed=1) == []

    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_negative_count_refused(self, instance):
        message = error_message(m.run_campaign, instance, -3, 0)
        assert message == "instances must be at least 0, got -3"

    @pytest.mark.parametrize("count", [True, False, 2.0, "3", None])
    def test_non_integer_count_refused(self, count):
        message = error_message(m.run_campaign, m.gentle_instance, count, 0)
        assert message == f"instances must be an integer, got {count!r}"

    def test_numpy_int_count_gives_the_python_int_records(self):
        want = m.run_campaign(m.sequential_instance, 7, 2)
        assert json.dumps(m.run_campaign(m.sequential_instance, np.int64(7), 2)) == json.dumps(want)

    # the draws share one generator, reset by each _rng call: a draw that
    # held two generators at once would read the wrong stream here
    @pytest.mark.parametrize("chunk", [1, 7, 64, 128])
    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_one_generator_at_a_time(self, monkeypatch, instance, chunk):
        monkeypatch.setattr(m, "_CHUNK", chunk)
        got = m.run_campaign(instance, 70, 6)
        monkeypatch.setattr(m, "_rng", np.random.default_rng)
        want = m.run_campaign(instance, 70, 6)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_lowest_failing_instance_raises_across_shape_groups(self):
        draw, kernel = m.gentle_instance.campaign

        def failing(seed, dim):
            # lam = 2E - I with rho on the top eigenvector of E: the kernel
            # checks no input, and the root of lam fails on its eigenvalue
            # 2 e_min - 1 < 0
            seed, _, _, gaussians = draw(seed, max_dim=dim)
            assert gaussians.shape[-1] == dim
            evals, vecs = np.linalg.eigh(m._povm_elements(gaussians)[0])
            assert evals[0] < 0.45 and evals[-1] > 0.55
            return seed, vecs[:, -1:], 2.0, gaussians

        # instances 0 and 2 form the dimension-2 group, instance 1 the dimension-3 one
        good = draw([5, 0], max_dim=2)
        drawn = [good, failing([5, 2], 3), failing([5, 5], 2)]
        alone = [error_message(kernel, [one]) for one in drawn[1:]]
        assert alone[0].startswith("matrix has eigenvalue") and alone[0] != alone[1]
        assert error_message(m._records, (lambda idx: drawn[idx], kernel), range(3)) == alone[0]

    @pytest.mark.parametrize(
        "draw_fails,kernel_fails,message",
        [(2, 1, "kernel fails at 1"), (0, 1, "draw fails at 0")],
    )
    def test_lowest_failing_instance_raises_from_draw_or_kernel(
        self, draw_fails, kernel_fails, message
    ):
        def draw(idx):
            if idx == draw_fails:
                raise ValueError(f"draw fails at {idx}")
            return idx

        def kernel(drawn):
            if kernel_fails in drawn:
                raise ValueError(f"kernel fails at {kernel_fails}")
            return [{"index": idx} for idx in drawn]

        assert error_message(m._records, (draw, kernel), range(4)) == message


class TestCampaignParameters:
    """Each draw refuses a ``max_dim`` that is not an integer from 2 to 16
    (the module's ``dim <= 16``), before it builds a generator."""

    @pytest.mark.parametrize(
        "instance,max_dim,message",
        [
            (m.gentle_instance, 1, "max_dim must be at least 2, got 1"),
            (m.sequential_instance, 0, "max_dim must be at least 2, got 0"),
            (m.learning_instance, -3, "max_dim must be at least 2, got -3"),
            (m.gentle_instance, 17, "max_dim must be at most 16, got 17"),
            (m.sequential_instance, 10**30, f"max_dim must be at most 16, got {10**30}"),
            (m.learning_instance, np.int64(17), "max_dim must be at most 16, got 17"),
            (m.gentle_instance, 2.5, "max_dim must be an integer, got 2.5"),
            (m.sequential_instance, 8.0, "max_dim must be an integer, got 8.0"),
            (m.learning_instance, True, "max_dim must be an integer, got True"),
            (m.gentle_instance, "8", "max_dim must be an integer, got '8'"),
        ],
    )
    def test_bad_sizes_raise_before_any_generator(self, monkeypatch, instance, max_dim, message):
        def no_generator(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(m, "_rng", no_generator)
        assert error_message(lambda: m.run_campaign(instance, 5, 3, max_dim=max_dim)) == message
        assert error_message(lambda: instance([3, 0], max_dim=max_dim)) == message

    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_largest_and_numpy_int_sizes_run(self, instance):
        records = m.run_campaign(instance, 7, 3, max_dim=16)
        assert max(r["dims"] for r in records) <= 16
        assert json.dumps(m.run_campaign(instance, 7, 3, max_dim=np.int64(16))) == json.dumps(records)

    @pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
    def test_smallest_sizes_run(self, instance):
        records = m.run_campaign(instance, 7, 3, max_dim=2)
        assert [r["dims"] for r in records] == [2] * 7

    @pytest.mark.parametrize("seed", [0, 7, [3, 1], [5, 17, 2, 1]])
    def test_generator_is_the_default_rng_stream(self, seed):
        assert np.array_equal(
            m._rng(seed).standard_normal(16), np.random.default_rng(seed).standard_normal(16)
        )


def campaign_draws(rng):
    return [
        rng.standard_normal(5),
        rng.integers(0, 9, size=5),
        rng.uniform(size=3),
        rng.dirichlet(np.ones(3)),
    ]


def is_int_list(seed) -> bool:
    return isinstance(seed, list) and all(type(v) is int for v in seed)


def raised(fn, seed):
    try:
        fn(seed)
    except Exception as error:  # noqa: BLE001 - the type is the result
        return type(error)
    return None


# entries at the word edges; 2**64 and above take three words or more
ENTRIES = st.sampled_from([0, 1, 2**32 - 1, 2**32]) | st.integers(2**64, 2**200)
SEED_VALUES = st.one_of(
    st.integers(0, 2**130),
    st.lists(ENTRIES, max_size=7),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    st.just([[7, 2**32], [], 0, [[5]]]),
)
BAD_ENTRIES = st.one_of(
    st.integers(max_value=-1),
    st.integers(-128, -1).map(np.int8),
    st.floats(),
    st.floats().map(np.float64),
)


class TestSeedStates:
    """``_pcg64_states`` and ``_rng`` reach the PCG64 state that
    ``np.random.default_rng`` reaches, or raise the same type of error."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(SEED_VALUES, min_size=1, max_size=8))
    def test_states_and_streams_are_numpys(self, seeds):
        # the batch hash takes only the lists of Python ints a chunk holds
        int_lists = [s for s in seeds if is_int_list(s)]
        for seed, (state, inc) in zip(int_lists, m._pcg64_states(int_lists)):
            want = np.random.default_rng(seed).bit_generator.state["state"]
            assert want == {"state": state, "inc": inc}
        for seed in seeds:
            want = np.random.default_rng(seed)
            for got, drawn in zip(campaign_draws(m._rng(seed)), campaign_draws(want)):
                assert np.array_equal(got, drawn)

    def test_each_thread_draws_its_own_streams(self):
        seeds = list(range(4))
        want = [m.run_campaign(m.gentle_instance, 70, seed) for seed in seeds]
        got = [None] * len(seeds)

        def work(i):
            got[i] = m.run_campaign(m.gentle_instance, 70, seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    # numpy refuses a str seed, and any type but int, list, tuple, range or
    # array, but parses a str inside a sequence as an int
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(ENTRIES, max_size=5),
        BAD_ENTRIES | st.text(max_size=3) | st.sampled_from([b"7", {3: 4}, {5}]),
        st.integers(0, 5),
    )
    def test_bad_seeds_raise_numpys_error_type(self, entries, bad, at):
        seeds = [bad]
        if not isinstance(bad, (str, bytes, dict, set)):
            seeds.append(entries[:at] + [bad] + entries[at:])
        for seed in seeds:
            want = raised(np.random.default_rng, seed)
            assert want in (TypeError, ValueError)
            assert raised(m._rng, seed) is want
            if is_int_list(seed):  # a negative entry
                assert raised(m._pcg64_states, [[0], seed]) is want

    def test_none_is_refused(self):
        # numpy would draw fresh entropy, so no record could be replayed
        with pytest.raises(TypeError, match="not None$"):
            m.random_density(2, 1, None)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), 2**70])
    def test_campaign_seeds_are_numpys_and_json_ready(self, seed, monkeypatch):
        instances = {m.gentle_instance: 70, m.sequential_instance: 10, m.learning_instance: 5}
        got = [m.run_campaign(fn, count, seed) for fn, count in instances.items()]
        monkeypatch.setattr(m, "_rng", np.random.default_rng)
        want = [m.run_campaign(fn, count, seed) for fn, count in instances.items()]
        assert json.dumps(got) == json.dumps(want)


SRC = Path(m.__file__).resolve().parents[1]

# In a fresh interpreter: run the learning campaign, then print the peak RSS
# in KB less the size of the records, which grow with any implementation.
# VmHWM is this process's own peak: ru_maxrss would include the RSS of the
# process that spawned it.
MEMORY_CHILD = """
import os
import sys
from sfebounds import measurements

def size(obj, seen):
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return sys.getsizeof(obj) + sum(size(item, seen) for item in items)

# one CPU, so that every instance runs in this process and counts in its peak
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
records = measurements.run_campaign(
    measurements.learning_instance, int(sys.argv[1]), 0, max_dim=4
)
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak - size(records, set()) // 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_campaign_memory_does_not_grow_with_instances():
    # the kernel holds one chunk of instances at a time: 10x the instances
    # may not add 2 MB beyond the records (holding all 2000 at once adds ~14)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", MEMORY_CHILD, str(count)], stdout=subprocess.PIPE, env=env
        )
        for count in (200, 2000)
    ]
    small, large = (int(child.communicate(timeout=120)[0]) for child in children)
    assert abs(large - small) < 2 * 1024
