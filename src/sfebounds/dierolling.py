"""Die rolling built on top of an ideal SFE oracle.

Two parties turn one SFE round into a shared uniform value in
{0, ..., |Y|-1}: they run the SFE on uniform inputs, Alice sends a uniform
shift b, Bob reveals his input y together with his output f(x, y), Alice
aborts unless the revealed output matches her own evaluation, and both
output (b + y) mod |Y|.  The runners hand the statistics each trial's
b + y unreduced, in [0, 2|Y|), and the histogram folds them.

The SFE subroutine here is an ideal classical oracle (Bob receives exactly
f(x, y), nothing else leaks), so the harness checks the wrapper logic and
the classical cheating identities, not any particular protocol: a blind
guesser forces a fixed outcome at rate 1/|Y|, and a receiver who can
produce the answers for a declared set S of inputs forces it at |S|/|Y|.
The receiver's knowledge is declared once, for every trial, and does not
depend on the sender's input, which he never sees.

The trials' inputs and shifts come from one counter-based Philox stream
keyed by the master seed: all xs, then all ys, then all shifts b.  Results
are reproducible for a given seed and trial count.  A longer run does not
extend a shorter one: its ys and bs start where its xs end, so only the
first xs are shared.  Every runner takes ``trials`` and ``seed`` through
one check: each is an integer, not a bool, and becomes a Python int, and
there is at least one trial.
"""

from __future__ import annotations

import operator
from numbers import Integral
from typing import Callable, Collection, NamedTuple, Union

import numpy as np

from .tasks import MATERIALIZE_CAP, SfeTask, TaskError


class DrStats(NamedTuple):
    trials: int
    outcome_histogram: tuple
    abort_count: int
    tv_distance_from_uniform: float
    forcing_rate: float  # fraction of trials forcing outcome 0 without abort
    seed: int


class AliceView(NamedTuple):
    """What a cheating sender sees: the task, her inputs and a strategy RNG.

    The receiver's inputs are not in it, so a strategy cannot read them.
    """

    task: SfeTask
    xs: np.ndarray
    rng: np.random.Generator


AliceStrategy = Callable[[AliceView], np.ndarray]
BobKnowledge = Union[str, Collection[int]]


def _trial_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def _checked(trials, seed) -> tuple[int, int]:
    """``trials`` and ``seed`` as Python ints.  ValueError naming the one
    that is not an integer (a bool included), then on fewer than one
    trial; numpy refuses a negative seed when the stream is keyed."""
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    return operator.index(trials), operator.index(seed)


def _draw_trials(task: SfeTask, trials: int, seed: int):
    """Yield each trial's x, then its y, then its shift b, as one array
    each, for ``_checked`` trials and seed.  An array is drawn only when
    asked for, and the generator keeps none of them: a caller holds just
    the arrays it binds, and the stream stops before those it never asks
    for.  No table is read: the histogram has 2·y_size bins before its
    fold and the inputs are drawn as int64, which bounds the sizes."""
    if task.y_size > MATERIALIZE_CAP or task.x_size >= 2**63:
        raise TaskError(f"die-rolling needs y_size <= {MATERIALIZE_CAP} and x_size < 2**63")
    rng = _trial_rng(seed, 0)
    yield rng.integers(0, task.x_size, size=trials)
    yield rng.integers(0, task.y_size, size=trials)
    yield rng.integers(0, task.y_size, size=trials)


def _stats(sums: np.ndarray, y_size: int, seed: int) -> DrStats:
    """Statistics of at least one trial, from each trial's unreduced sum
    b + y in [0, 2|Y|): its outcome is the sum mod |Y|.

    One bincount of 2|Y| bins is folded in place, the upper half onto the
    lower, so no trial is reduced on its own, and the forcing rate is read
    from bin 0.  The fold costs 2|Y| bins where the reduced outcomes would
    take |Y|, so at |Y| far above the trial count it is the slower way:
    at |Y| = 10^6 over 10^5 trials the histogram takes 1.2 ms and 16 MB,
    against 0.75 ms and 8.8 MB reducing every trial first, beside about
    14 ms for the whole call, most of it the histogram's tuple.

    No trial ever aborts: the oracle is ideal, so every output the receiver
    reveals matches the sender's own evaluation, and abort_count is 0.
    """
    trials = len(sums)
    bins = np.bincount(sums, minlength=2 * y_size)
    hist = bins[:y_size]
    hist += bins[y_size:]
    # TV = Σ|Y·h − T| / (2·T·Y), rounded once by an int division.  As
    # Σ(Y·h − T) = 0, the bins with Y·h ≥ T (h ≥ ⌈T/Y⌉) carry half the sum:
    # if N of them hold S trials, TV = (Y·S − T·N) / (T·Y).  numpy sums
    # only counts, which stay at most T; Python ints form the rest
    high = hist >= -(-trials // y_size)
    above, heavy = int(hist[high].sum()), int(np.count_nonzero(high))
    tv = (y_size * above - trials * heavy) / (trials * y_size)
    forcing = int(hist[0]) / trials
    return DrStats(
        trials=trials,
        outcome_histogram=tuple(hist.tolist()),
        abort_count=0,
        tv_distance_from_uniform=tv,
        forcing_rate=forcing,
        seed=seed,
    )


def run_honest(task: SfeTask, trials: int, seed: int = 0) -> DrStats:
    """Both parties honest: never aborts, outcomes exactly (b + y) mod |Y|.

    Holds two trial arrays, ys and bs: the xs are drawn, since they fix
    where ys and bs start in the stream, but let go unread, and the sums
    b + y, which ``_stats`` reduces, are formed in place in bs.
    """
    trials, seed = _checked(trials, seed)
    draws = _draw_trials(task, trials, seed)
    next(draws)  # the xs
    ys, bs = draws
    bs += ys
    return _stats(bs, task.y_size, seed)


def blind_alice(view: AliceView) -> np.ndarray:
    """Guess the receiver's input uniformly, ignoring everything."""
    return view.rng.integers(0, view.task.y_size, size=len(view.xs))


def run_cheating_alice(
    task: SfeTask, guesser: AliceStrategy, trials: int, seed: int = 0
) -> DrStats:
    """Cheating sender tries to force outcome 0 against an honest receiver.

    She guesses the receiver's input y and sends the shift b = -guess mod
    |Y|, succeeding exactly when the guess is right.  The receiver is
    honest, so nothing triggers an abort.  ``guesser`` maps an AliceView
    to one guess per trial (vectorized).
    """
    trials, seed = _checked(trials, seed)
    draws = _draw_trials(task, trials, seed)
    xs, ys = next(draws), next(draws)  # the shifts come last and are never drawn
    view = AliceView(task=task, xs=xs, rng=_trial_rng(seed, 1))
    guesses = np.asarray(guesser(view), dtype=np.int64)
    if guesses.shape != (trials,):
        raise ValueError(f"strategy returned shape {guesses.shape}, expected ({trials},)")
    if guesses.min() < 0 or guesses.max() >= task.y_size:
        raise ValueError("strategy guessed outside the input range")
    # b + y with b = |Y| - guess, the shift -guess mod |Y| unreduced
    sums = ys - guesses
    sums += task.y_size
    return _stats(sums, task.y_size, seed)


def _revealed(
    task: SfeTask, learner: BobKnowledge, required: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """The input the receiver reveals in each trial: the required one when
    its answer is known, else the least known input.  A declared
    collection forms it in ``required``, which the caller does not read
    again."""
    if learner == "full":
        return required
    if learner == "honest":
        return ys
    s = sorted(set(int(y) for y in learner))
    if not s:
        raise ValueError("knowledge set must not be empty")
    if s[0] < 0 or s[-1] >= task.y_size:
        raise ValueError("knowledge set outside the input range")
    # a table of unknown inputs: one byte per input, where np.isin would
    # take two temporary trial arrays
    unknown = np.ones(task.y_size, dtype=bool)
    unknown[s] = False
    required[unknown[required]] = s[0]
    return required


def run_cheating_bob(
    task: SfeTask, learner: BobKnowledge, trials: int, seed: int = 0
) -> DrStats:
    """Cheating receiver tries to force outcome 0 against an honest sender.

    Forcing outcome 0 requires revealing y = -b mod |Y| along with the
    correct f(x, y).  ``learner`` declares, before any trial, which answer
    entries the receiver can produce: "full" (all of them),
    "honest" (only the entry for his honest input), or an explicit
    collection of y indices.  When the required entry is unknown he
    reveals a known one instead, which keeps the sender from aborting but
    forfeits the forcing attempt, so the forcing rate converges to
    |S|/|Y|.  ValueError on a known input outside range(|Y|) and on an
    empty collection; a learner that is not iterable, such as a callable,
    raises TypeError.

    Holds three trial arrays, ys, bs and the required reveals: the xs are
    drawn, since they fix where ys and bs start in the stream, but let go
    unread.  The sums b + y, which ``_stats`` reduces, are formed in place
    in bs.
    """
    trials, seed = _checked(trials, seed)
    draws = _draw_trials(task, trials, seed)
    next(draws)  # the xs
    ys, bs = draws
    required = np.negative(bs)
    required %= task.y_size
    bs += _revealed(task, learner, required, ys)
    return _stats(bs, task.y_size, seed)


def stats_to_jsonable(stats: DrStats) -> dict:
    return {
        "trials": stats.trials,
        "histogram": list(stats.outcome_histogram),
        "aborts": stats.abort_count,
        "tv_distance": stats.tv_distance_from_uniform,
        "forcing_rate": stats.forcing_rate,
        "seed": stats.seed,
    }
