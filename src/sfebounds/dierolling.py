"""Die rolling built on top of an ideal SFE oracle.

Two parties turn one SFE round into a shared uniform value in
{0, ..., |Y|-1}: they run the SFE on uniform inputs, Alice sends a uniform
shift b, Bob reveals his input y together with his output f(x, y), Alice
aborts unless the revealed output matches her own evaluation, and both
output (b + y) mod |Y|.  The runners hand the statistics each trial's
b + y unreduced, in [0, 2|Y|), and the histogram folds them.

The SFE subroutine here is an ideal classical oracle (Bob receives exactly
f(x, y), nothing else leaks), so the harness checks the wrapper logic and
the classical cheating identities, not any particular protocol.  The
sender learns nothing about y, so every strategy of hers forces a fixed
outcome at rate 1/|Y|, and she guesses blind.  A receiver who can produce
the answers for a declared set S of inputs forces it at |S|/|Y|.  The
receiver's knowledge is declared once, for every trial, and does not
depend on the sender's input, which he never sees.

The trials' inputs and shifts come from one counter-based Philox stream
keyed by the master seed: all xs, then all ys, then all shifts b.  No
runner reads the xs, but they are drawn, since they fix where the ys and
bs start.  The sender's guesses come from a second stream, keyed by the
seed and 1.  Results are reproducible for a given seed and trial count.
A longer run does not extend a shorter one: its ys and bs start where its
xs end.  Every runner takes ``trials`` and ``seed`` through
one check, the library's integer rule (``tasks._integer``) over their
``COUNT_RANGES`` ranges: 1 to 10^8 trials, whose two int64 arrays hold
1.6 GB at the cap, and a seed of at least 0.  Each becomes a Python int.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Union

import numpy as np

from .tasks import COUNT_RANGES, MATERIALIZE_CAP, SfeTask, TaskError, _integer


class DrStats(NamedTuple):
    trials: int
    outcome_histogram: tuple
    abort_count: int
    tv_distance_from_uniform: float
    forcing_rate: float  # fraction of trials forcing outcome 0 without abort
    seed: int


BobKnowledge = Union[str, Collection[int]]


def _trial_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def _checked(trials, seed) -> tuple[int, int]:
    """``trials`` and ``seed`` as Python ints, or ValueError naming the first
    that breaks ``_integer`` over its ``COUNT_RANGES`` range."""
    named = ("trials", trials), ("seed", seed)
    return tuple(_integer(name, value, *COUNT_RANGES[name]) for name, value in named)


def _draw_trials(task: SfeTask, trials: int, seed: int):
    """Yield each trial's y, then its shift b, as one array each, for
    ``_checked`` trials and seed.  The xs are drawn first and dropped here,
    since they fix where ys and bs start in the stream.  An array is drawn
    only when asked for, and the generator keeps none of them: a caller
    holds just the arrays it binds, and the stream stops before those it
    never asks for.  No table is read: the histogram has 2·y_size bins
    before its fold and the inputs are drawn as int64, which bounds the
    sizes."""
    if task.y_size > MATERIALIZE_CAP or task.x_size >= 2**63:
        raise TaskError(f"die-rolling needs y_size <= {MATERIALIZE_CAP} and x_size < 2**63")
    rng = _trial_rng(seed, 0)
    rng.integers(0, task.x_size, size=trials)
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

    It is the honest receiver's run, ``run_cheating_bob(task, "honest",
    trials, seed)``, which holds two trial arrays, ys and bs, and forms the
    sums b + y, which ``_stats`` reduces, in place in bs.
    """
    return run_cheating_bob(task, "honest", trials, seed)


def run_cheating_alice(task: SfeTask, trials: int, seed: int = 0) -> DrStats:
    """Cheating sender tries to force outcome 0 against an honest receiver.

    She guesses the receiver's input y and sends the shift b = -guess mod
    |Y|, succeeding exactly when the guess is right.  The oracle tells her
    nothing about y, so she guesses blind: uniformly, from the stream keyed
    by the seed and 1.  The receiver is honest, so nothing triggers an
    abort.  Holds two trial arrays, ys and the guesses; the shifts are
    never drawn, and the sums b + y, which ``_stats`` reduces, are formed
    in place in ys.
    """
    trials, seed = _checked(trials, seed)
    ys = next(_draw_trials(task, trials, seed))
    guesses = _trial_rng(seed, 1).integers(0, task.y_size, size=trials)
    # b + y with b = |Y| - guess, the shift -guess mod |Y| unreduced
    ys -= guesses
    ys += task.y_size
    return _stats(ys, task.y_size, seed)


def _declared(task: SfeTask, learner: BobKnowledge) -> Union[str, list[int]]:
    """``learner`` checked, with the refusals run_cheating_bob lists: "full"
    or "honest", or its known inputs, distinct and ascending."""
    if isinstance(learner, str):
        if learner not in ("full", "honest"):
            raise ValueError(
                f'learner must be "full", "honest" or a set of inputs, got {learner!r}'
            )
        return learner
    known = sorted({_integer("known input", y) for y in learner})
    if not known:
        raise ValueError("knowledge set must not be empty")
    if known[0] < 0 or known[-1] >= task.y_size:
        raise ValueError("knowledge set outside the input range")
    return known


def _revealed(
    task: SfeTask, learner: Union[str, list[int]], bs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """The input the receiver reveals in each trial, for a ``_declared``
    learner: the required one, -b mod |Y|, when its answer is known, else
    the least known input.  The honest receiver reveals his own ys, so no
    required array is formed for him; "full" and a declared collection
    form it in a new array, which a collection then overwrites in place."""
    if learner == "honest":
        return ys
    required = np.negative(bs)
    required %= task.y_size
    if learner == "full":
        return required
    # a table of unknown inputs: one byte per input, where np.isin would
    # take two temporary trial arrays
    unknown = np.ones(task.y_size, dtype=bool)
    unknown[learner] = False
    required[unknown[required]] = learner[0]
    return required


def run_cheating_bob(
    task: SfeTask, learner: BobKnowledge, trials: int, seed: int = 0
) -> DrStats:
    """Cheating receiver tries to force outcome 0 against an honest sender.

    Forcing outcome 0 requires revealing y = -b mod |Y| along with the
    correct f(x, y).  ``learner`` declares, before any trial, which answer
    entries the receiver can produce: "full" (all of them),
    "honest" (only the entry for his honest input), or an explicit
    collection of y indices, such as a set or a numpy array.  When the
    required entry is unknown he reveals a known one instead, which keeps
    the sender from aborting but forfeits the forcing attempt, so the
    forcing rate converges to |S|/|Y|.  ``trials`` and ``seed`` are checked
    first, as in every runner, then ``learner``, before any trial is drawn:
    ValueError on any other string, on a known input that is not an
    integer by ``tasks._integer`` (a bool included), on one outside
    range(|Y|) and on an empty collection; a learner that is not iterable,
    such as a callable, raises TypeError.

    Holds three trial arrays, ys, bs and the required reveals, or two, ys
    and bs, for the honest receiver, which is ``run_honest``.  The sums
    b + y, which ``_stats`` reduces, are formed in place in bs.
    """
    trials, seed = _checked(trials, seed)
    learner = _declared(task, learner)
    ys, bs = _draw_trials(task, trials, seed)
    bs += _revealed(task, learner, bs, ys)
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
