"""Tests for dataset generation: strata draws, event times, cutoff censoring."""

import math
import re

import numpy as np
import pytest
from scipy.stats import kstest

import stratsurv.simulate as sim
from stratsurv import datagen
from _oracles import naive_trial
from stratsurv.datagen import (
    RngStream,
    TrialDataset,
    _censor_at_event,
    generate_trial,
    generate_trials,
    stable_argsort,
    stream_states,
    stream_uniforms,
)
from stratsurv.errors import InvalidParameterError
from stratsurv.trial import ScenarioSpec, TrialDesign, control_rate_table


class _FixedUniform:
    """Stand-in generator whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def _strata(weights, n, seed):
    """Stratum indices of ``n`` subjects drawn by generate_trial."""
    design = TrialDesign(true_hr=0.5, target_events=1, sample_size=n,
                         allocation_weights=weights)
    return generate_trial(design, ScenarioSpec.no_prognostic(),
                          RngStream(seed, 0)).stratum_index


def _latent(true_hr, n, seed):
    """Latent event times and arms of ``n`` subjects, one 16-month stratum."""
    design = TrialDesign(true_hr=true_hr, target_events=1, sample_size=n)
    ds = generate_trial(design, ScenarioSpec.no_prognostic(16.0), RngStream(seed, 0))
    return ds.latent_event_time, ds.arm


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(123, 7).generator().random(10)
        b = RngStream(123, 7).generator().random(10)
        assert np.array_equal(a, b)

    def test_distinct_replicates_distinct_draws(self):
        a = RngStream(123, 0).generator().random(10)
        b = RngStream(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1, 0)

    @pytest.mark.parametrize("bad", [7.0, 7.5, "7", None, True])
    def test_non_integer_seed_or_index_rejected(self, bad):
        # SeedSequence would raise a TypeError only when the stream is built
        with pytest.raises(InvalidParameterError, match="seed must be a nonnegative integer"):
            RngStream(bad, 0)
        with pytest.raises(InvalidParameterError,
                           match="replicate_index must be a nonnegative integer"):
            RngStream(7, bad)

    def test_numpy_integers_accepted(self):
        a = RngStream(np.int64(123), np.uint32(7)).generator().random(10)
        assert np.array_equal(a, RngStream(123, 7).generator().random(10))


def _reference_uniforms(seed, indices, n):
    """The (4, B, N) block of the reference streams ``RngStream(seed, i)``."""
    return np.stack([RngStream(seed, i).generator().random((4, n)) for i in indices], axis=1)


class TestBatchedStreams:
    """The Monte Carlo path's streams against the SeedSequence reference, bit for bit.

    ``stream_states`` transcribes numpy's spawn-key hash and ``generate_state``;
    ``stream_uniforms`` hands each row to numpy's own ``PCG64`` seeding. These
    tests are the contract: a numpy release that changed the hash would fail them.
    """

    # seeds of 1, 2, 3, 4 (the pool size), 5 and 7 uint32 words
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 + 3, 2**96 + 9, 2**128 + 5,
             2**200 + 11]
    # the first and the last 40 indices of one spawn word
    RANGES = [(0, 40), (2**32 - 40, 2**32)]

    @pytest.mark.parametrize("lo, hi", RANGES, ids=["one_word", "last_one_word"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_equal_reference(self, seed, lo, hi):
        got = stream_uniforms(stream_states(seed, lo, hi), 5)
        assert np.array_equal(got, _reference_uniforms(seed, range(lo, hi), 5))

    def test_states_are_generate_state_words(self):
        for seed, index in [(0, 0), (2**64 + 3, 2**32 - 1)]:
            want = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64)
            assert np.array_equal(stream_states(seed, index, index + 1), [want])

    def test_any_integer_layout_of_states_draws_the_same(self):
        # PCG64 reads its seed words through their raw data pointer
        seed, lo, hi = 2**63 + 7, 10, 16
        states = stream_states(seed, lo, hi)
        spread = np.zeros((2 * len(states), 4), np.uint64)
        spread[::2] = states
        want = _reference_uniforms(seed, range(lo, hi), 5)
        for layout in (states.astype(">u8"), states.astype(np.int64), spread[::2]):
            assert np.array_equal(stream_uniforms(layout, 5), want), layout.dtype

    def test_seed_words_refuse_other_requests(self):
        states = stream_states(3, 0, 2)
        words = datagen._seed_words()(states[0])
        assert words.generate_state(4, "uint64") is words.words
        for n_words, dtype in [(4, np.uint32), (2, np.uint64), (8, np.uint64)]:
            with pytest.raises(RuntimeError, match=f"asked for {n_words} {np.dtype(dtype)} seed"):
                words.generate_state(n_words, dtype)
        # rows of 3 words: PCG64 asks for 4
        with pytest.raises(RuntimeError, match="asked for 4 uint64 seed words"):
            stream_uniforms(states[:, :3], 5)

    def test_range_past_2_32_refused(self):
        # no row may hold that many replicates (MAX_REPLICATES); a range that
        # would need a second spawn word is refused, not hashed
        design = TrialDesign.from_event_target(0.6, 12)
        config = sim.SimConfig(scenario=ScenarioSpec.multiplicative_covariates(),
                               design=design, replicates=sim.MAX_REPLICATES,
                               master_seed=2**63 + 7)
        lo, hi = 2**32 - 2, 2**32 + 2
        with pytest.raises(InvalidParameterError, match="past 2\\*\\*32 - 1"):
            stream_states(config.master_seed, lo, hi)
        with pytest.raises(InvalidParameterError, match="past 2\\*\\*32 - 1"):
            sim._replicate_range(config, lo, hi)

    def test_one_seed_sequence_per_batch(self, monkeypatch):
        # the harness hashes each batch's spawn keys at once and builds no
        # SeedSequence per replicate (README, "Determinism")
        design = TrialDesign.from_event_target(0.6, 12)
        config = sim.SimConfig(scenario=ScenarioSpec.multiplicative_covariates(),
                               design=design, replicates=11, master_seed=5)
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 5 * design.sample_size)
        built = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        sim._replicate_range(config, 0, 11)  # batches of 5, 5 and 1
        assert len(built) == 3


class TestStableArgsort:
    """``stable_argsort`` against its oracle ``np.argsort(kind="stable")``.

    The layouts and the event cutoff sort through the helper, and so does the
    one-trial replay the fuzz tests compare with, so this test is the guard
    on the order itself.
    """

    SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])

    def _values(self, rng, rows, n):
        kind = rng.integers(5)
        if kind == 0:  # integer-valued, heavily tied
            return rng.integers(0, int(rng.integers(1, 5)), (rows, n)).astype(float)
        if kind == 1:  # distinct values
            return rng.random((rows, n))
        if kind == 2:  # nothing but the special values
            return rng.choice(self.SPECIALS, (rows, n))
        if kind == 3:  # month-rounded times, a few specials mixed in
            values = np.ceil(rng.exponential(12.0, (rows, n)))
            special = rng.random((rows, n)) < 0.1
            values[special] = rng.choice(self.SPECIALS, int(special.sum()))
            return values
        return np.repeat(rng.random((rows, 1)), n, axis=1)  # one value per row

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_stable_argsort(self, seed):
        # A fixed input whose ties numpy's default argsort reorders in every
        # row, so the tie repair is known to run; then random ones.
        tied = np.tile([2.0, np.nan, -0.0, 0.0, 1.0], (3, 40))
        tied[1] = tied[1, ::-1]
        stable = np.argsort(tied, axis=-1, kind="stable")
        assert not np.any(np.all(np.argsort(tied, axis=-1) == stable, axis=-1))
        inputs = [tied]
        rng = np.random.default_rng([20261019, seed])
        for _ in range(500):
            rows = int(rng.choice([1, int(rng.integers(2, 9))]))
            n = int(rng.choice([0, 1, 2, int(rng.integers(3, 200))]))
            inputs.append(self._values(rng, rows, n))
        for values in inputs:
            got = stable_argsort(values)
            want = np.argsort(values, axis=-1, kind="stable")
            assert got.dtype == want.dtype and np.array_equal(got, want), values


class TestAssignStratum:
    """Stratum assignment as generate_trial draws it."""

    def test_degenerate_weights(self):
        weights = (1.0,) + (0.0,) * 11
        assert np.all(_strata(weights, 25, 0) == 0)

    def test_zero_weight_stratum_never_drawn(self):
        weights = [1.0] * 12
        weights[4] = 0.0
        draws = set(_strata(weights, 3000, 1).tolist())
        assert 4 not in draws
        assert len(draws) == 11

    def test_balanced_frequencies(self):
        n = 60_000
        counts = np.bincount(_strata((1.0,) * 12, n, 2), minlength=12)
        se = math.sqrt((1 / 12) * (11 / 12) / n)
        assert np.all(np.abs(counts / n - 1 / 12) < 4 * se)

    @pytest.mark.parametrize("weights", [
        (1.0,) * 12,
        # a total of 16, so that u = k / 64 puts u * total on the cdf entries
        (1.0, 1.0, 2.0, 0.0, 0.0, 4.0, 1.0, 1.0, 2.0, 0.0, 2.0, 2.0),
        (0.0,) * 11 + (3.0,),
        (0.0, 5.0) + (0.0,) * 10,
    ])
    def test_draw_equals_searchsorted(self, weights):
        # zero weights repeat a cdf entry; a draw on an entry takes the next stratum
        design = TrialDesign(true_hr=0.5, target_events=1, sample_size=80,
                             allocation_weights=weights)
        uniforms = np.random.default_rng(8).random((4, 3, 80))
        uniforms[0, 0, :64] = np.arange(64) / 64
        cdf = np.cumsum(weights)
        assert np.isin(uniforms[0] * cdf[-1], cdf).any()
        got = generate_trials(design, ScenarioSpec.no_prognostic(), uniforms).stratum_index
        want = np.searchsorted(cdf, uniforms[0] * cdf[-1], side="right")
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_unbalanced_ratio(self):
        weights = (1.0,) * 6 + (7.0,) * 6
        n = 100_000
        hits = int(np.sum(_strata(weights, n, 3) == 7))
        p = 7.0 / 48.0
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestDrawEventTime:
    """Exponential latent event times as generate_trial draws them."""

    def test_fixed_uniform_hits_median(self):
        # u = 0.5 everywhere: every subject is control and -log(u)/rate is
        # exactly the 16-month median.
        design = TrialDesign(true_hr=0.5, target_events=1, sample_size=3)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(16.0), _FixedUniform(0.5))
        assert not ds.arm.any()
        assert ds.latent_event_time == pytest.approx([16.0] * 3, rel=1e-12)

    def test_sample_median_sixteen_months(self):
        latent, _ = _latent(1.0, 100_000, 11)
        assert abs(np.median(latent) - 16.0) < 0.3

    def test_treatment_multiplier_scales_median(self):
        latent, arm = _latent(0.5, 200_000, 12)
        assert abs(np.median(latent[arm == 1]) - 32.0) < 0.6
        assert abs(np.median(latent[arm == 0]) - 16.0) < 0.3

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_rate(self, bad):
        # Every control rate comes from a median or a hazard ratio the
        # scenario validates, so no invalid rate reaches generation.
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.no_prognostic(bad)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.multiplicative_covariates(hr_x2_level2=bad)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.stratum_baselines((16.0,) * 11 + (bad,))

    def test_zero_uniform_guarded(self):
        design = TrialDesign(true_hr=0.5, target_events=1, sample_size=3)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), _FixedUniform(0.0))
        assert np.all(np.isfinite(ds.latent_event_time))
        assert np.all(ds.latent_event_time > 0)


class TestApplyCutoff:
    """The D-th-event cutoff, applied to each row of a batch on its own."""

    # Two trials with different cutoffs, censored as one batch: row 0 has
    # calendar event times 2, 5, 9 and row 1 enrolls a subject after its cutoff.
    PAIR_ENROLL = [[0.5, 2.0, 3.0], [0.0, 0.0, 10.0]]
    PAIR_LATENT = [[1.5, 3.0, 6.0], [1.0, 2.0, 1.0]]

    def _cut(self, enrolls, latents, d):
        """(observed_time, event, cutoff) of each row of the batch."""
        return _censor_at_event(np.asarray(enrolls, dtype=float),
                                np.asarray(latents, dtype=float), d)

    def _pair_row(self, row):
        """Row ``row`` of the pair, which must equal that row censored alone."""
        batch = self._cut(self.PAIR_ENROLL, self.PAIR_LATENT, d=2)
        alone = self._cut(self.PAIR_ENROLL[row:row + 1], self.PAIR_LATENT[row:row + 1], d=2)
        for got, want in zip(batch, alone):
            assert np.array_equal(got[row], want[0])
        return tuple(values[row] for values in batch)

    def test_three_subject_order_statistic(self):
        # the second smallest calendar event time sets the cutoff
        observed, event, cutoff = self._pair_row(0)
        assert cutoff == 5.0
        assert list(event) == [True, True, False]
        assert observed[2] == pytest.approx(5.0 - 3.0)
        assert event.sum() == 2

    def test_all_events_when_d_equals_n(self):
        observed, event, _ = self._cut([[0.0, 1.0, 2.0]], [[5.0, 1.0, 4.0]], d=3)
        assert event.sum() == 3
        assert np.array_equal(observed[0], [5.0, 1.0, 4.0])

    def test_post_cutoff_enrollee_clamped_to_zero(self):
        observed, event, cutoff = self._pair_row(1)
        assert cutoff == 2.0
        assert observed[2] == 0.0
        assert not event[2]

    def test_tied_calendar_times_keep_exactly_d(self):
        _, event, _ = self._cut([[0.0, 0.0, 0.0, 0.0]], [[3.0, 3.0, 3.0, 1.0]], d=2)
        event = event[0]
        assert event.sum() == 2
        # tie at calendar time 3 broken by subject position: 0 events, 1 and 2 do not
        assert bool(event[3]) and bool(event[0])
        assert not event[1] and not event[2]
        # a row long enough that numpy's unstable sorts reorder ties: D = 15
        # takes the ten times 1 and the first five of the ten tied times 2
        latent = np.tile([2.0, 1.0, 3.0], 10)
        _, event, _ = self._cut([np.zeros(30)], [latent], d=15)
        assert np.array_equal(np.flatnonzero(event[0] & (latent == 2.0)), [0, 3, 6, 9, 12])

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_cutoffs_repaired_to_the_stable_order(self, monkeypatch, seed):
        # Whole-unit calendar times tie at the cutoff in most rows; the rows
        # whose cutoff is tied (or NaN), and only those, take the stable order,
        # and every row equals the stable-argsort reference bit for bit.
        rng = np.random.default_rng(seed)
        rows, n, d = 40, 60, 25
        enroll = np.floor(rng.uniform(0.0, 4.0, (rows, n)))
        latent = np.ceil(rng.exponential(6.0, (rows, n)))
        latent[:5] = rng.exponential(6.0, (5, n))  # untied rows
        latent[5, :] = np.nan                      # a NaN cutoff
        zeros = np.where(rng.random((4, n)) < 0.5, -0.0, 0.0)
        enroll[6:10], latent[6:10] = zeros, zeros  # -0.0 and 0.0 tie
        latent[6:10, ::3] = 1.0
        repaired = []
        monkeypatch.setattr(datagen, "stable_argsort",
                            lambda values: repaired.append(values) or stable_argsort(values))
        got = _censor_at_event(enroll, latent, d)
        calendar = enroll + latent
        first = np.argsort(calendar, axis=1, kind="stable")[:, :d]
        cutoff = np.take_along_axis(calendar, first[:, -1:], axis=1)
        event = np.zeros((rows, n), dtype=bool)
        np.put_along_axis(event, first, True, axis=1)
        with np.errstate(invalid="ignore"):
            observed = np.where(event, latent, np.maximum(cutoff - enroll, 0.0))
        for values, want in zip(got, (observed, event, cutoff[:, 0])):
            assert values.dtype == want.dtype and values.tobytes() == want.tobytes()
        tied = np.count_nonzero(calendar == cutoff, axis=1) != 1
        assert not tied[:5].any() and tied[5:10].all() and tied.sum() > 20
        assert len(repaired) == 1
        assert np.array_equal(repaired[0], calendar[tied], equal_nan=True)

    def test_d_out_of_range(self):
        # the design validates D against N, so no out-of-range D reaches the cutoff
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=3, sample_size=2)
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=0, sample_size=2)


_UNEQUAL = (1.0,) * 6 + (7.0,) * 6
_DESIGNS = {
    "balanced": TrialDesign(true_hr=0.6, target_events=30, sample_size=43),
    "unequal_7_to_1": TrialDesign(true_hr=0.6, target_events=30, sample_size=43,
                                  allocation_weights=_UNEQUAL),
    "all_events": TrialDesign(true_hr=0.6, target_events=25, sample_size=25),
}
_SCENARIOS = {
    "no_prognostic": ScenarioSpec.no_prognostic(),
    "multiplicative": ScenarioSpec.multiplicative_covariates(),
    "stratum_baselines": ScenarioSpec.stratum_baselines(),
}


def _assert_matches_oracle(fields, row, design, scenario, stream):
    """Row ``row`` of ``fields`` (a batch or, with row None, a dataset) equals
    the oracle's trial on ``stream``, bit for bit."""
    want = naive_trial(design, scenario, stream.generator())
    for field, value in want.items():
        if field == "subject_id" and row is not None:
            continue  # a batch row's subject ids are its positions
        got = getattr(fields, field)
        got = got if row is None else got[row]
        assert np.array_equal(got, value), field


class TestGenerationOracle:
    """Batched generation against the four-draw single-trial oracle."""

    @pytest.mark.parametrize("scenario", _SCENARIOS, ids=str)
    @pytest.mark.parametrize("design", _DESIGNS, ids=str)
    def test_trials_match_oracle(self, design, scenario):
        # generate_trial and every row of one batch, on the same 20 streams
        design, scenario = _DESIGNS[design], _SCENARIOS[scenario]
        streams = [RngStream(31, index) for index in range(20)]
        batch = generate_trials(design, scenario,
                                _reference_uniforms(31, range(20), design.sample_size))
        assert batch.event.shape == (20, design.sample_size)
        for row, stream in enumerate(streams):
            _assert_matches_oracle(batch, row, design, scenario, stream)
            _assert_matches_oracle(generate_trial(design, scenario, stream), None,
                                   design, scenario, stream)

    def test_replicate_batches_match_oracle(self, monkeypatch):
        # the batches the Monte Carlo runner generates, row by row
        design, scenario = _DESIGNS["unequal_7_to_1"], _SCENARIOS["multiplicative"]
        config = sim.SimConfig(scenario=scenario, design=design, replicates=20,
                               master_seed=33)
        batches = []

        def recording(*args):
            batches.append(generate_trials(*args))
            return batches[-1]

        monkeypatch.setattr(sim, "generate_trials", recording)
        # batches of 5 replicates: 3..20 crosses the boundaries at 8, 13 and 18
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 5 * design.sample_size)
        sim._replicate_range(config, 3, 20)
        assert [len(batch.event) for batch in batches] == [5, 5, 5, 2]
        rows = [(batch, row) for batch in batches for row in range(len(batch.event))]
        for index, (batch, row) in zip(range(3, 20), rows):
            _assert_matches_oracle(batch, row, design, scenario, RngStream(33, index))


class TestGenerateTrial:
    def test_exact_event_count(self):
        design = TrialDesign.from_event_target(0.5, 66)
        for rep in range(5):
            ds = generate_trial(design, ScenarioSpec.no_prognostic(),
                                RngStream(2024, rep))
            assert ds.events_observed == 66
            assert ds.n_subjects == 95

    def test_bit_identical_reruns(self):
        design = TrialDesign.from_event_target(0.6, 120)
        a = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                           RngStream(7, 3))
        b = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                           RngStream(7, 3))
        for field in ("subject_id", "stratum_index", "arm", "enroll_time",
                      "observed_time", "event", "latent_event_time"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.cutoff_calendar_time == b.cutoff_calendar_time

    def test_generated_dataset_validates(self):
        # bit for bit the oracle's trial on the same stream, inside the cutoff
        design = TrialDesign.from_event_target(0.5, 66)
        scenario = ScenarioSpec.stratum_baselines()
        ds = generate_trial(design, scenario, RngStream(3, 1))
        _assert_matches_oracle(ds, None, design, scenario, RngStream(3, 1))
        inside = ds.enroll_time + ds.observed_time <= ds.cutoff_calendar_time + 1e-9
        late = ds.observed_time == 0.0
        assert np.all(inside | late)

    def test_arm_fraction_binomial(self):
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=100_000)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(41, 0))
        frac = ds.arm.astype(float).mean()
        assert abs(frac - 0.5) <= 3 * 0.5 / math.sqrt(100_000)

    def test_zero_weight_strata_not_assigned(self):
        weights = (1.0,) + (0.0,) * 11
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=500,
                             allocation_weights=weights)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(4, 0))
        assert set(np.unique(ds.stratum_index)) == {0}

    def test_latent_times_exponential_per_cell(self):
        # Kolmogorov-Smirnov on the uncensored latent times, per stratum/arm
        # cell, against the scenario's intended exponential, at the 0.1% level.
        scenario = ScenarioSpec.multiplicative_covariates()
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=120_000)
        ds = generate_trial(design, scenario, RngStream(90, 0))
        worst = 1.0
        for stratum, base in enumerate(control_rate_table(scenario)):
            for arm, rate in ((0, base), (1, base * design.true_hr)):
                cell = (ds.stratum_index == stratum) & (ds.arm == arm)
                assert cell.sum() > 3000
                stat = kstest(ds.latent_event_time[cell], "expon",
                              args=(0.0, 1.0 / rate))
                worst = min(worst, stat.pvalue)
        assert worst > 0.001


class TestTrialDataset:
    def test_arrays_are_read_only(self):
        design = TrialDesign.from_event_target(0.5, 20)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(8, 0))
        with pytest.raises(ValueError):
            ds.observed_time[0] = 1.0

    def test_stratum_bounds_checked(self):
        with pytest.raises(InvalidParameterError):
            TrialDataset(subject_id=[0], stratum_index=[12], arm=[0],
                         enroll_time=[0.0], observed_time=[1.0], event=[True])

    def test_field_lengths_checked(self):
        with pytest.raises(InvalidParameterError, match="observed_time must have length 2"):
            TrialDataset(subject_id=[0, 1], stratum_index=[0, 1], arm=[0, 1],
                         enroll_time=[0.0, 0.0], observed_time=[1.0], event=[0, 1])

    @pytest.mark.parametrize("arm", [-1, 2])
    def test_arm_values_checked(self, arm):
        with pytest.raises(InvalidParameterError, match="arm values must be 0 or 1"):
            TrialDataset(subject_id=[0, 1], stratum_index=[0, 0], arm=[0, arm],
                         enroll_time=[0.0, 0.0], observed_time=[1.0, 2.0], event=[True, True])

    @pytest.mark.parametrize("field,values,message", [
        ("stratum_index", [0, 1.7], "stratum_index values must be integers in [0, 12)"),
        ("arm", [0, 0.5], "arm values must be 0 or 1"),
        ("event", [0, 0.5], "event values must be 0 or 1"),
        ("event", [1, 2], "event values must be 0 or 1"),
    ])
    def test_values_checked_before_conversion(self, field, values, message):
        # an integer or bool conversion would turn 1.7 into 1 and 0.5 into 0 or True
        fields = dict(subject_id=[0, 1], stratum_index=[0, 1], arm=[0, 1],
                      enroll_time=[0.0, 0.0], observed_time=[1.0, 2.0], event=[0, 1])
        fields[field] = values
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            TrialDataset(**fields)

    # The constructor's checks are the import's only range checks on the
    # stratum, arm and event columns, which it reads as int64.
    @staticmethod
    def _fields(**changed):
        fields = dict(subject_id=np.array([0, 1]), stratum_index=np.array([0, 1]),
                      arm=np.array([0, 1]), enroll_time=np.zeros(2),
                      observed_time=np.array([1.0, 2.0]), event=np.array([0, 1]))
        fields.update(changed)
        return fields

    def test_whole_float_stratum_accepted(self):
        ds = TrialDataset(**self._fields(stratum_index=np.array([3.0, 11.0])))
        assert ds.stratum_index.dtype == np.int64
        assert ds.stratum_index.tolist() == [3, 11]

    def test_fractional_float_stratum_rejected(self):
        with pytest.raises(InvalidParameterError, match="stratum_index values must"):
            TrialDataset(**self._fields(stratum_index=np.array([0.0, 1.5])))

    @pytest.mark.parametrize("stratum", [-1, 12, 2**40])
    def test_int64_stratum_out_of_range_rejected(self, stratum):
        with pytest.raises(InvalidParameterError, match="stratum_index values must"):
            TrialDataset(**self._fields(stratum_index=np.array([0, stratum])))

    @pytest.mark.parametrize("field", ["arm", "event"])
    @pytest.mark.parametrize("value", [2, -1])
    def test_int64_arm_or_event_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} values must be 0 or 1"):
            TrialDataset(**self._fields(**{field: np.array([1, value])}))

    @pytest.mark.parametrize("dtypes", [
        {"stratum_index": np.int64, "arm": np.int8, "event": np.bool_},  # the stored dtypes
        {"stratum_index": np.float64, "arm": np.int64, "event": np.int64},
    ])
    def test_caller_arrays_neither_frozen_nor_modified(self, dtypes):
        given = {name: np.array([0, 1], dtype=dtype) for name, dtype in dtypes.items()}
        ds = TrialDataset(**self._fields(**given))
        for name, values in given.items():
            assert values.flags.writeable
            assert values.tolist() == [0, 1]
            assert not np.shares_memory(values, getattr(ds, name))
            values[0] = 1
            assert getattr(ds, name)[0] == 0
            assert not getattr(ds, name).flags.writeable
