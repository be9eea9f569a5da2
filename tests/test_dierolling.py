import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sfebounds import dierolling as dr
from sfebounds.tasks import TaskError, make_family


def standard_error(p, trials):
    return math.sqrt(p * (1 - p) / trials)


def honest_histogram(task, trials, seed):
    """Outcome counts of (b + y) mod |Y| over the documented per-trial draws:
    x, then y, then b, from the Philox stream keyed by [seed, 0]."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0])))
    rng.integers(0, task.x_size, size=trials)
    ys = rng.integers(0, task.y_size, size=trials)
    bs = rng.integers(0, task.y_size, size=trials)
    return tuple(int(c) for c in np.bincount((bs + ys) % task.y_size, minlength=task.y_size))


class TestHonestRuns:
    def test_never_aborts_and_near_uniform(self):
        task = make_family("eq", n=3)
        stats = dr.run_honest(task, 100_000, seed=0)
        assert stats.abort_count == 0
        assert sum(stats.outcome_histogram) == stats.trials
        assert {type(c) for c in stats.outcome_histogram} == {int}  # Python ints, not numpy's
        assert stats.tv_distance_from_uniform < 4 / math.sqrt(stats.trials)

    def test_transcript_arithmetic(self):
        task = make_family("ot", alphabet=2, n=2)
        stats = dr.run_honest(task, 200, seed=1)
        assert stats.abort_count == 0
        assert stats.outcome_histogram == honest_histogram(task, 200, seed=1)

    def test_single_trial_outcome_recomputable(self):
        task = make_family("mp", n=4)
        stats = dr.run_honest(task, 1, seed=9)
        assert stats.abort_count == 0
        assert stats.outcome_histogram == honest_histogram(task, 1, seed=9)

    def test_deterministic_given_seed(self):
        task = make_family("ot", alphabet=2, n=2)
        first = dr.run_honest(task, 50_000, seed=42)
        second = dr.run_honest(task, 50_000, seed=42)
        assert first == second
        assert dr.run_honest(task, 50_000, seed=43) != first

    def test_requires_materialized_table(self):
        with pytest.raises(TaskError):
            dr.run_honest(make_family("mp", n=10**9), 10, seed=0)

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            dr.run_honest(make_family("eq", n=3), 0, seed=0)


RUNNERS = {
    "honest": dr.run_honest,
    "cheating_alice": dr.run_cheating_alice,
    "cheating_bob": lambda task, trials, seed=0: dr.run_cheating_bob(task, "full", trials, seed),
}

SIZES_REFUSED = TaskError, r"^die-rolling needs y_size <= 1000000 and x_size < 2\*\*63$"
TRIALS_REFUSED = ValueError, "^trials must be at least 1, got 0$"


TWO_ARRAY_RUNNERS = {
    "honest": dr.run_honest,
    "cheating_alice": dr.run_cheating_alice,
    "cheating_bob_honest": lambda task, trials: dr.run_cheating_bob(task, "honest", trials),
}


@pytest.mark.parametrize("runner", TWO_ARRAY_RUNNERS)
@pytest.mark.parametrize("family,params", [("ot", dict(alphabet=2, n=14)), ("ip", dict(n=9))])
def test_peak_is_two_trial_arrays(runner, family, params):
    # two int64 arrays of 10**5 trials are 1.6 MB: ys and bs, or ys and the
    # sender's guesses.  Holding the xs, the honest receiver's required
    # reveals, or sums apart from the ys or bs, would add a third of 0.8 MB
    run = TWO_ARRAY_RUNNERS[runner]
    task = make_family(family, **params)
    run(task, 1)  # warm-up: the first call imports numpy.random
    assert traced_peak(run, task, 10**5) < 2.5 * 8 * 10**5


# SHA-256 over the repr of each DrStats of test_drstats_are_pinned, in its order
DRSTATS_DIGEST = "96278f7944f23018cde504fd66ed03559fd0d77c0317564b34f70059ad19432e"


def test_drstats_are_pinned():
    # the three runners, the receiver with "full", "honest" and {0, 1}, over
    # eq 3, ot 2,3, ip 3 and mp 4; the draws are integer Philox draws, so no
    # BLAS kernel moves them
    runners = [dr.run_honest, dr.run_cheating_alice] + [
        lambda task, trials, seed, learner=learner: dr.run_cheating_bob(task, learner, trials, seed)
        for learner in ("full", "honest", {0, 1})
    ]
    tasks = [make_family("eq", n=3), make_family("ot", alphabet=2, n=3)]
    tasks += [make_family("ip", n=3), make_family("mp", n=4)]
    digest = hashlib.sha256()
    for runner, task, seed, trials in itertools.product(runners, tasks, range(21), (1, 7, 1000, 12345)):
        digest.update(repr(runner(task, trials, seed)).encode())
    assert digest.hexdigest() == DRSTATS_DIGEST


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize(
    "family,params,trials,refusal",
    [
        # ot 2,70 has x_size 2**70, beyond int64; knot 2,40,20 has y_size
        # comb(40, 20), about 1.4e11 histogram bins
        pytest.param("ot", dict(alphabet=2, n=70), 10, SIZES_REFUSED, id="ot-params0"),
        pytest.param("knot", dict(alphabet=2, n=40, k=20), 10, SIZES_REFUSED, id="knot-params1"),
        pytest.param("eq", dict(n=3), 0, TRIALS_REFUSED, id="eq-no-trials"),
        # the trial count is checked before the sizes
        pytest.param("ot", dict(alphabet=2, n=70), 0, TRIALS_REFUSED, id="ot-no-trials"),
    ],
)
def test_every_runner_refuses_sizes_it_cannot_draw(runner, family, params, trials, refusal):
    error, message = refusal
    with pytest.raises(error, match=message):
        RUNNERS[runner](make_family(family, **params), trials)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize(
    "name, value",
    [("trials", 2.5), ("trials", True), ("trials", "5"), ("trials", np.float64(5))]
    + [("seed", "3"), ("seed", True), ("seed", 1.5), ("seed", None)],
)
def test_every_runner_refuses_trials_or_seed_not_an_integer(runner, name, value):
    # checked before the sizes, so before anything is drawn
    args = {"trials": 5, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        RUNNERS[runner](make_family("ot", alphabet=2, n=70), **args)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_takes_numpy_integers_as_python_ints(runner):
    task = make_family("ip", n=3)
    stats = RUNNERS[runner](task, np.int64(300), np.uint32(5))
    assert stats == RUNNERS[runner](task, 300, 5)
    assert type(stats.trials) is type(stats.seed) is int
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        RUNNERS[runner](task, 300, np.int64(-1))


class TestCheatingAlice:
    def test_blind_guesser_hits_inverse_y(self):
        task = make_family("eq", n=3)
        trials = 100_000
        stats = dr.run_cheating_alice(task, trials, seed=0)
        assert stats.abort_count == 0
        se = standard_error(1 / 3, trials)
        assert abs(stats.forcing_rate - 1 / 3) < 3 * se

    def test_posterior_argmax_matches_enumeration(self):
        # the sender sees her input alone; the posterior over the receiver's
        # input given it is uniform, so the best deterministic guess wins
        # exactly 1/|Y| of the time, and so does her blind guess
        task = make_family("mp", n=4)
        exact = Fraction(0)
        for x in range(task.x_size):
            posterior = [Fraction(1, task.y_size)] * task.y_size
            exact += Fraction(1, task.x_size) * max(posterior)
        assert exact == Fraction(1, 3)

        trials = 100_000
        stats = dr.run_cheating_alice(task, trials, seed=2)
        se = standard_error(float(exact), trials)
        assert abs(stats.forcing_rate - float(exact)) < 3 * se

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**64 + 5])
    def test_equals_a_run_that_draws_the_shifts_too(self, seed):
        # the shifts come last in stream 0, so leaving them undrawn moves
        # neither the xs nor the ys; the guesses come from stream 1
        task = make_family("ip", n=3)
        rng = dr._trial_rng(seed, 0)
        rng.integers(0, task.x_size, size=500)  # the xs
        ys = rng.integers(0, task.y_size, size=500)
        rng.integers(0, task.y_size, size=500)  # the shifts
        guesses = dr._trial_rng(seed, 1).integers(0, task.y_size, size=500)
        reference = dr._stats((ys - guesses) % task.y_size, task.y_size, seed)
        assert dr.run_cheating_alice(task, 500, seed=seed) == reference


class TestCheatingBob:
    def test_full_knowledge_forces_always(self):
        for family, params in [("eq", dict(n=3)), ("ot", dict(alphabet=2, n=2))]:
            task = make_family(family, **params)
            stats = dr.run_cheating_bob(task, "full", 10_000, seed=0)
            assert stats.forcing_rate == 1.0
            assert stats.abort_count == 0

    def test_honest_knowledge_rate(self):
        task = make_family("ot", alphabet=2, n=3)
        trials = 100_000
        stats = dr.run_cheating_bob(task, "honest", trials, seed=0)
        se = standard_error(1 / 3, trials)
        assert abs(stats.forcing_rate - 1 / 3) < 3 * se

    def test_declared_set_rate(self):
        task = make_family("eq", n=3)
        trials = 100_000
        stats = dr.run_cheating_bob(task, {0, 1}, trials, seed=0)
        se = standard_error(2 / 3, trials)
        assert abs(stats.forcing_rate - 2 / 3) < 3 * se
        assert stats.abort_count == 0

    @pytest.mark.parametrize("learner", ["full", "honest", {1, 4}])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31])
    def test_equals_a_trial_by_trial_reference(self, learner, seed):
        # xs, ys and bs from stream 0, then each trial's reveal on its own
        task = make_family("ip", n=3)
        rng = dr._trial_rng(seed, 0)
        xs, ys, bs = (rng.integers(0, n, size=500) for n in (task.x_size, task.y_size, task.y_size))
        outcomes = []
        for x, y, b in zip(xs.tolist(), ys.tolist(), bs.tolist()):
            if learner == "full":
                known = range(task.y_size)
            elif learner == "honest":
                known = {y}
            else:
                known = learner
            required = -b % task.y_size
            revealed = required if required in known else min(known)
            outcomes.append((b + revealed) % task.y_size)
        reference = dr._stats(np.array(outcomes), task.y_size, seed)
        assert dr.run_cheating_bob(task, learner, 500, seed=seed) == reference

    @pytest.mark.parametrize("learner", ["full", "honest", {0, 3, 100}])
    def test_peak_is_three_trial_arrays(self, learner):
        # ys, bs and the required reveals, 0.8 MB each at 10**5 trials; the
        # xs, a revealed copy or outcomes apart from the shifts would add a fourth
        task = make_family("ip", n=9)
        dr.run_cheating_bob(task, learner, 1)  # warm-up: the first call imports numpy.random
        assert traced_peak(dr.run_cheating_bob, task, learner, 10**5) < 3.5 * 8 * 10**5

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            dr.run_cheating_bob(make_family("eq", n=3), set(), 10, seed=0)

    def test_set_outside_range_rejected(self):
        with pytest.raises(ValueError):
            dr.run_cheating_bob(make_family("eq", n=3), {5}, 10, seed=0)

    @pytest.mark.parametrize("known", [np.array([0, 1]), [np.int64(1), np.uint8(0)], (1, 0, 1)])
    def test_any_collection_of_integers_is_the_declared_set(self, known):
        task = make_family("eq", n=3)
        want = dr.run_cheating_bob(task, {0, 1}, 1000, seed=1)
        assert dr.run_cheating_bob(task, known, 1000, seed=1) == want

    @pytest.mark.parametrize("learner", ["other", "", "Full"])
    def test_other_strings_refused(self, learner):
        message = f'^learner must be "full", "honest" or a set of inputs, got {re.escape(repr(learner))}$'
        with pytest.raises(ValueError, match=message):
            dr.run_cheating_bob(make_family("eq", n=3), learner, 10, seed=0)

    @pytest.mark.parametrize("entry", [0.5, 1.9, "1", True, np.float64(1), None])
    def test_known_input_not_an_integer_refused(self, entry):
        # each would otherwise be taken as int(entry): {0.5} as {0}, {1.9}, ["1"] and {True} as {1}
        message = f"^known input must be an integer, got {re.escape(repr(entry))}$"
        with pytest.raises(ValueError, match=message):
            dr.run_cheating_bob(make_family("eq", n=3), [2, entry], 1000, seed=1)

    @pytest.mark.parametrize("learner", ["other", {0.5}, set(), {7}])
    def test_learner_refused_before_any_trial_is_drawn(self, learner):
        # a million trials would take 24 MB for their three arrays
        def refused():
            with pytest.raises(ValueError):
                dr.run_cheating_bob(make_family("eq", n=3), learner, 10**6)

        assert traced_peak(refused) < 10**5

    def test_callable_learner_is_not_iterable(self):
        # knowledge is declared, never computed from a trial's inputs
        with pytest.raises(TypeError, match="object is not iterable$"):
            dr.run_cheating_bob(make_family("eq", n=3), lambda t, x, y: {y}, 10, seed=0)


@st.composite
def unreduced_sums(draw):
    """|Y| in 1..50 and at least one sum b + y in [0, 2|Y|)."""
    y_size = draw(st.integers(1, 50))
    return y_size, draw(st.lists(st.integers(0, 2 * y_size - 1), min_size=1, max_size=60))


class TestStatsOutput:
    def test_jsonable_keys_and_round_trip(self):
        stats = dr.run_honest(make_family("eq", n=3), 1000, seed=0)
        obj = dr.stats_to_jsonable(stats)
        assert set(obj) == {"trials", "histogram", "aborts", "tv_distance", "forcing_rate", "seed"}
        text = json.dumps(obj, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=40).filter(any))
    @example([1, 2, 0])  # a bin exactly at T/Y
    @example([5, 5, 5, 5])  # uniform: 0
    @example([7])
    def test_tv_distance_is_the_exact_sum_correctly_rounded(self, hist):
        trials, y_size = sum(hist), len(hist)
        outcomes = np.repeat(np.arange(y_size), hist)
        exact = Fraction(sum(abs(y_size * h - trials) for h in hist), 2 * trials * y_size)
        stats = dr._stats(outcomes, y_size, seed=0)
        assert stats.outcome_histogram == tuple(hist)
        assert stats.tv_distance_from_uniform == float(exact)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(unreduced_sums())
    @example((1, [1, 1, 1]))  # every sum in the upper half
    @example((7, [7, 8, 13, 13]))
    @example((5, [5] * 6))  # every sum equal to |Y|: all of it folds onto bin 0
    def test_folded_sums_give_the_stats_of_their_outcomes(self, case):
        # the runners hand _stats each trial's b + y unreduced
        y_size, sums = case
        outcomes = np.array(sums) % y_size
        stats = dr._stats(np.array(sums), y_size, seed=3)
        assert stats == dr._stats(outcomes, y_size, seed=3)
        assert stats.outcome_histogram == tuple(np.bincount(outcomes, minlength=y_size).tolist())

    def test_histogram_plus_aborts_accounts_for_trials(self):
        stats = dr.run_cheating_bob(make_family("eq", n=4), {1}, 2000, seed=1)
        assert sum(stats.outcome_histogram) + stats.abort_count == stats.trials
