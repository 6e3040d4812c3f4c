import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from shmtwin import decimator
from shmtwin.decimator import (
    DecimatorSpec,
    FilterDesignError,
    ChainState,
    FilterStage,
    cascade,
    design_decimator,
    int16_output,
    run_chain,
    save_stages,
    warmup_input_samples,
)
from shmtwin.scenario import measure_enob
from shmtwin.signals import AdcSpec, SensorSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        DecimatorSpec(total_decim=255)                     # rate mismatch
    with pytest.raises(ValueError):
        DecimatorSpec(cutoff_hz=60.0)                      # beyond output Nyquist


def test_default_stage_split():
    spec = DecimatorSpec()
    assert spec.stage_decims == (2, 2, 2, 2, 4, 4)
    assert int(np.prod(spec.stage_decims)) == 256


def test_rates_and_split_follow_the_total_decimation():
    spec = dataclasses.replace(DecimatorSpec(), total_decim=128)
    assert spec.f_out_hz == 200.0
    assert spec.stage_decims == (2, 2, 2, 2, 2, 4)


def test_stage_split_has_at_most_one_stage_per_prime_factor():
    assert DecimatorSpec(n_stages=2, total_decim=12, f_in_hz=1200.0).stage_decims == (3, 4)
    assert DecimatorSpec(n_stages=1, total_decim=1, f_in_hz=100.0).stage_decims == (1,)
    # a large prime factor is found by trial division up to its square root;
    # its one stage's Kaiser estimate is ~7.7e8 taps, so the budget is raised
    big = DecimatorSpec(n_stages=1, total_decim=10000019, f_in_hz=10000019.0, cutoff_hz=0.5,
                        coeff_budget=2**53)
    assert big.stage_decims == (10000019,)
    for n_stages, total_decim, n_factors in ((100000, 256, 8), (7, 64, 6), (2, 1, 0)):
        with pytest.raises(ValueError, match=f"n_stages = {n_stages} is more than "
                                             f"total_decim = {total_decim} has prime "
                                             f"factors \\({n_factors}\\)"):
            DecimatorSpec(n_stages=n_stages, total_decim=total_decim, f_in_hz=25600.0)


def test_split_is_factored_once_per_spec(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return factors(n)

    factors = decimator._prime_factors
    monkeypatch.setattr(decimator, "_prime_factors", counted)
    spec = DecimatorSpec()
    for _ in range(3):
        assert spec.stage_decims == (2, 2, 2, 2, 4, 4)
    assert calls == [256]


def test_total_decimation_above_the_cap_is_rejected_before_it_is_factored(monkeypatch):
    cap = decimator.MAX_TOTAL_DECIM
    assert DecimatorSpec(n_stages=31, total_decim=cap, f_in_hz=float(cap),
                         cutoff_hz=0.5).stage_decims == (2,) * 31

    def no_factoring(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(decimator, "_prime_factors", no_factoring)
    for total in (cap + 1, 9007199254740881):
        with pytest.raises(ValueError, match=f"total_decim = {total} is above the cap "
                                             f"{cap} \\(2\\*\\*31\\)"):
            DecimatorSpec(n_stages=1, total_decim=total, f_in_hz=float(total), cutoff_hz=0.5)


@st.composite
def _accepted_specs(draw):
    total = draw(st.one_of(st.integers(1, decimator.MAX_TOTAL_DECIM),
                           st.lists(st.integers(2, 12), max_size=12).map(math.prod)
                           .filter(lambda n: n <= decimator.MAX_TOTAL_DECIM)))
    n_stages = draw(st.integers(1, max(len(decimator._prime_factors(total)), 1)))
    f_in = float(total * draw(st.integers(1, 2**20)))
    f_out = f_in / total
    # up to f_out, so that the spec's own check decides which cutoffs pass
    cutoff = f_out * draw(st.floats(0.0, 1.0, exclude_min=True))
    try:  # a budget that no chain's Kaiser floor reaches, so the floor rejects none
        return DecimatorSpec(n_stages=n_stages, total_decim=total, f_in_hz=f_in,
                             cutoff_hz=cutoff, coeff_budget=2**53)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_accepted_specs())
def test_every_stage_of_an_accepted_spec_has_a_transition_band(spec):
    # the stage rates design_decimator walks, without designing a filter
    f_protect = spec.protected_edge_hz
    fs = spec.f_in_hz
    for d in spec.stage_decims:
        if d > 1:
            fs /= d
            assert fs - f_protect > f_protect


def test_designed_chain_meets_targets(default_chain):
    spec, stages, report = default_chain
    assert len(stages) == 6
    assert report.total_coeffs <= spec.coeff_budget
    assert report.passband_ripple_db <= spec.passband_ripple_db
    assert report.stopband_atten_db >= spec.stopband_atten_db
    for st in stages:
        assert np.allclose(st.coeffs, st.coeffs[::-1], atol=1e-12)


def test_budget_too_small_fails_loudly():
    # below the Kaiser floor of 214 the spec refuses the budget
    with pytest.raises(ValueError, match="chain needs at least 214 coefficients, budget is 20"):
        DecimatorSpec(coeff_budget=20)
    spec = DecimatorSpec(coeff_budget=215)  # the design needs 218
    for _ in range(2):  # a failed design is not cached: it fails every time
        with pytest.raises(FilterDesignError, match="chain needs 218 coefficients, budget is 215"):
            design_decimator(spec)


def test_budget_is_checked_before_any_window_is_designed(monkeypatch):
    # a prime decimation leaves one stage whose Kaiser estimate is ~38 M taps
    def no_window(*args):
        raise AssertionError("a window was designed")

    monkeypatch.setattr(decimator, "_kaiser_lowpass", no_window)
    with pytest.raises(ValueError, match=r"needs at least \d{8} coefficients, budget is 1000"):
        DecimatorSpec(n_stages=1, total_decim=1000003, f_in_hz=100000300.0)


def test_spec_refuses_a_budget_below_its_kaiser_floor():
    # the Kaiser floor is the sum of the first tap counts design starts from
    spec = DecimatorSpec()
    assert [n for *_, n in spec._plan[3]] == [9, 9, 9, 11, 21, 155]
    assert DecimatorSpec(coeff_budget=214)._plan == spec._plan
    with pytest.raises(ValueError, match="needs at least 214 coefficients, budget is 213"):
        DecimatorSpec(coeff_budget=213)


def test_kaiser_beta_stays_below_35_at_the_tightest_accepted_targets():
    # the ceiling is checked before beta, so the stopband deviation is at
    # least 1e-12; the tightest ripple whose deviation is not 0 takes beta
    # to its most, far below I0's overflow near 709.8
    def spec(ripple, atten=237.0):
        return DecimatorSpec(n_stages=1, total_decim=2, f_in_hz=200.0, cutoff_hz=45.0,
                             passband_ripple_db=ripple, stopband_atten_db=atten,
                             coeff_budget=10**6)

    lo, hi = 0.0, 1e-14  # refused, accepted
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        try:
            spec(mid)
            hi = mid
        except ValueError:
            lo = mid
    with pytest.raises(ValueError, match="per-stage deviation 0.0 is not a positive float"):
        spec(lo)
    beta = spec(hi)._plan[2]
    assert 34 < beta < 35
    assert math.isfinite(decimator._i0(beta))
    assert spec(1.0)._plan[2] == pytest.approx(25.5, abs=0.05)  # 237 dB sets it
    with pytest.raises(ValueError, match="is above 237.0 dB"):
        spec(hi, atten=math.nextafter(237.0, math.inf))


def test_alias_sweep_above_the_cap_fails_before_any_window_or_band(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the chain was designed or its bands listed")

    monkeypatch.setattr(decimator, "_kaiser_lowpass", forbidden)
    monkeypatch.setattr(decimator, "_alias_bands", forbidden)
    # ~1.07e9 alias bands of 901 points each at the 512 Hz output rate
    spec = DecimatorSpec(total_decim=2**31, f_in_hz=2.0**40, coeff_budget=5000)
    with pytest.raises(FilterDesignError, match=r"the alias sweep needs \d{12} points, "
                                                r"above the cap 4194304 \(2\*\*22\)"):
        design_decimator(spec)


def test_sweep_cap_counts_the_points_the_sweep_takes(monkeypatch):
    # the default chain: 128 bands of 901 points, the last cut to 451
    spec = DecimatorSpec()
    bands = decimator._alias_bands(spec)
    assert sum(max(int((hi - lo) / 0.1), 64) + 1 for lo, hi in bands) == 114878
    monkeypatch.setattr(decimator, "MAX_SWEEP_POINTS", 128 * 901 - 1)
    with pytest.raises(FilterDesignError, match="needs 115328 points, above the cap 115327"):
        design_decimator.__wrapped__(spec)  # past the cache, which holds the default chain
    monkeypatch.setattr(decimator, "MAX_SWEEP_POINTS", 128 * 901)
    assert design_decimator.__wrapped__(spec)[1] == design_decimator(spec)[1]


def test_equal_specs_share_one_design():
    stages, report = design_decimator(DecimatorSpec())
    again, report_again = design_decimator(DecimatorSpec(n_stages=6))
    assert isinstance(stages, tuple)
    assert again is stages and report_again is report
    assert all(a is b for a, b in zip(again, stages))


def test_different_specs_get_different_designs(default_chain):
    _, stages, _ = default_chain
    tighter, _ = design_decimator(DecimatorSpec(stopband_atten_db=80.0))
    assert [st.n_taps for st in tighter] != [st.n_taps for st in stages]


def test_designed_stages_are_read_only(default_chain):
    _, stages, _ = default_chain
    before = stages[0].coeffs.copy()
    with pytest.raises(ValueError):
        stages[0].coeffs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stages[0].decim = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        stages[0].coeffs = before
    assert np.array_equal(stages[0].coeffs, before)


def test_stage_keeps_a_private_copy_of_its_taps():
    taps = np.array([0.25, 0.5, 0.25])
    st = FilterStage(taps, 2)
    taps[0] = 9.0
    assert st.coeffs[0] == 0.25
    assert taps.flags.writeable


def test_cascade_equals_naive_filter_then_decimate(default_chain):
    _, stages, _ = default_chain
    rng = np.random.default_rng(5)
    x = rng.standard_normal(25600)
    y = cascade(x, stages)
    ref = x
    for st in stages:
        ref = sp_signal.lfilter(st.coeffs, [1.0], ref)[:: st.decim]
    assert y.shape == ref.shape
    assert np.max(np.abs(y - ref)) < 1e-12


# (record length, block sizes in turn): no length is a multiple of any
# stage's decimation
_BLOCKINGS = [
    (9_001, [1]),
    (1_048_583, [4103]),
    (1_048_583, [65536]),
    (1_048_583, [1, 2, 255, 1000, 4103, 12345, 7, 65536]),
    # 4095 outputs of the first stage held back, then a whole piece: the
    # most a stage's phase buffers must hold
    (1_048_583, [8190, 65536]),
]


@pytest.mark.parametrize("chain", ["designed", "edge"])
def test_chain_state_blocks_equal_whole_cascade(default_chain, monkeypatch, chain):
    stages = default_chain[1]
    if chain == "edge":  # a one-tap decimator carries no history; decim 1 passes through
        stages = (FilterStage([0.5], 3), FilterStage([0.25, 0.5, 0.25], 1), *stages[:2])
    runs = {id(st.coeffs): [] for st in stages}  # outputs of each filtering run
    real = decimator._fir_decimate

    def counting(taps, phases, first, k):
        runs[id(taps)].append(k)
        return real(taps, phases, first, k)

    rng = np.random.default_rng(8)
    for n, sizes in _BLOCKINGS:
        x = rng.standard_normal(n)
        whole = cascade(x, stages)
        monkeypatch.setattr(decimator, "_fir_decimate", counting)
        for r in runs.values():
            r.clear()
        state = ChainState(stages, n)
        parts, i = [], 0
        while i < len(x):
            size = sizes[len(parts) % len(sizes)]
            parts.append(state.push(x[i:i + size]))
            i += size
        monkeypatch.undo()
        assert np.concatenate(parts).tobytes() == whole.tobytes(), (n, sizes)
        # each stage waits for a run of outputs; only its last run, which
        # the end of the record flushes, may be shorter
        for st in stages:
            assert all(k >= decimator._MIN_RUN for k in runs[id(st.coeffs)][:-1])
        assert len(runs[id(stages[-1].coeffs)]) < len(parts)


def test_chain_state_rejects_a_block_past_the_record(default_chain):
    _, stages, _ = default_chain
    state = ChainState(stages, 10_000)
    state.push(np.zeros(9_000))
    with pytest.raises(ValueError, match="past the end"):
        state.push(np.zeros(1_001))


def test_chain_state_keeps_no_view_of_a_held_block(default_chain):
    _, stages, _ = default_chain
    x = np.random.default_rng(4).standard_normal(20_000)
    state = ChainState(stages, len(x))
    parts = []
    block = np.empty(1_000)
    for i in range(0, len(x), len(block)):  # one buffer, refilled per block
        block[:] = x[i:i + len(block)]
        parts.append(state.push(block))
    assert np.concatenate(parts).tobytes() == cascade(x, stages).tobytes()


def test_run_chain_state_must_match_its_stages(default_chain):
    _, stages, _ = default_chain
    state = ChainState(stages, 10_000)
    codes = np.zeros(10, dtype=int)
    with pytest.raises(ValueError, match="other stages"):
        run_chain(codes, stages[:3], AdcSpec(), SensorSpec(), state)
    # equal taps are not the same stages: the state holds the objects it was built for
    copies = tuple(FilterStage(st.coeffs, st.decim) for st in stages)
    with pytest.raises(ValueError, match="other stages"):
        run_chain(codes, copies, AdcSpec(), SensorSpec(), state)


def test_90hz_tone_rejected_below_minus_60_dbfs(default_chain):
    spec, stages, _ = default_chain
    fs = spec.f_in_hz
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * 90.0 * t)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    resid = np.max(np.abs(y[settle:]))
    assert 20 * np.log10(resid) <= -60.0


def test_passband_tone_amplitude_preserved(default_chain):
    spec, stages, _ = default_chain
    fs = spec.f_in_hz
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * 10.0 * t)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    body = y[settle:-settle]
    body = body[: len(body) - len(body) % 10]       # integer periods at 10 Hz
    amp = np.sqrt(2.0) * np.sqrt(np.mean(body**2))
    assert abs(20 * np.log10(amp)) < 0.05


def test_constant_input_settles_to_dc_gain(default_chain):
    spec, stages, _ = default_chain
    x = np.full(int(4 * spec.f_in_hz), 0.37)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    assert np.allclose(y[settle:], 0.37, atol=1e-9)


@pytest.mark.parametrize("spec, stage_meets, message", [
    # a one-stage chain's stage check judges its taps as the composite
    # check does, so only a check that accepts every window reaches the
    # composite's ripple refusal: the first window, at Kaiser's estimate,
    # peaks above the budget
    (DecimatorSpec(n_stages=1, total_decim=4, f_in_hz=400.0, cutoff_hz=45.0,
                   passband_ripple_db=0.0015), True,
     "composite ripple 0.00150162 dB exceeds 0.0015 dB"),
    # near 190 dB the 3 dB design margin no longer covers what the 0.1 Hz
    # alias sweep finds between the stage check's 2048 stopband points
    (DecimatorSpec(n_stages=1, total_decim=64, f_in_hz=6400.0, cutoff_hz=20.0,
                   stopband_atten_db=190.0, coeff_budget=2000), None,
     "composite attenuation 189.77 dB below 190.0 dB"),
    # the spec refuses a target the stage check cannot measure, so only a
    # check that rejects every window reaches the loop's bound
    (DecimatorSpec(n_stages=1, total_decim=2, f_in_hz=200.0, cutoff_hz=5.0), False,
     "stage at 200.0 Hz did not converge by 301 taps"),
], ids=["ripple", "attenuation", "no-convergence"])
def test_design_that_misses_its_spec_says_what_it_missed(monkeypatch, spec, stage_meets, message):
    if stage_meets is not None:
        monkeypatch.setattr(decimator, "_stage_meets", lambda *args: stage_meets)
        design_decimator.cache_clear()  # a spec designed before would not be designed again
    with pytest.raises(FilterDesignError, match=f"^{re.escape(message)}$"):
        design_decimator(spec)


def test_one_stage_meets_a_ripple_budget_it_met_between_grid_points():
    # its stage check once sampled the passband at 512 points, between
    # which this chain's first window peaked 0.00150162 dB
    _, report = design_decimator(DecimatorSpec(
        n_stages=1, total_decim=4, f_in_hz=400.0, cutoff_hz=45.0, passband_ripple_db=0.0015))
    assert report.stage_taps == (113,)
    assert report.passband_ripple_db <= 0.0015


@st.composite
def _one_stage_specs(draw):
    total = draw(st.integers(2, 8))
    f_out = float(draw(st.integers(1, 1000)))
    try:
        return DecimatorSpec(
            n_stages=1, total_decim=total, f_in_hz=total * f_out,
            cutoff_hz=f_out * draw(st.floats(0.05, 0.5)),
            passband_ripple_db=10.0 ** draw(st.floats(-4.0, 0.0)),
            stopband_atten_db=draw(st.floats(1.0, decimator.MAX_STOPBAND_ATTEN_DB)),
            coeff_budget=5000)
    except ValueError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(_one_stage_specs())
def test_no_one_stage_chain_is_refused_for_composite_ripple(spec):
    try:
        (stage,), report = design_decimator.__wrapped__(spec)  # past the cache
    except FilterDesignError as e:
        assert not str(e).startswith("composite ripple"), (spec, str(e))
        return
    # the stage check reads the stored taps' ripple as the composite check
    # reads it, to the bit: it passes at that budget and fails just below
    fs, _, f_stop, _ = spec._plan[3][0]
    meets = [decimator._stage_meets(stage.coeffs, fs, spec.protected_edge_hz, f_stop, budget,
                                    -math.inf)
             for budget in (report.passband_ripple_db, np.nextafter(report.passband_ripple_db, 0))]
    assert meets == [True, False], spec


def test_spec_refuses_an_attenuation_its_design_cannot_measure():
    # the stage check counts no gain below 1e-12, so it reads at most
    # 240 dB, and each stage aims 3 dB above the spec
    assert decimator.MAX_STOPBAND_ATTEN_DB == 237.0
    DecimatorSpec(stopband_atten_db=237.0, coeff_budget=100000)
    with pytest.raises(ValueError, match=r"^stopband_atten_db = 238.0 is above 237.0 dB, "
                                         r"the most the design can verify$"):
        DecimatorSpec(stopband_atten_db=238.0, coeff_budget=100000)


def test_identity_spec_reports_zero_margins():
    spec = DecimatorSpec(n_stages=1, total_decim=1, f_in_hz=100.0, cutoff_hz=50.0)
    _, report = design_decimator(spec)
    assert report.stopband_atten_db == 0.0   # no alias bands exist; reported honestly


def _report_band_by_band(stages, spec):
    """measure_response as one sweep per alias band, the plain form of it."""
    fs = spec.f_in_hz
    gain = decimator._gain(stages, fs, np.linspace(0.0, spec.protected_edge_hz, 2001))
    sweeps = (np.linspace(lo, hi, max(int((hi - lo) / 0.1), 64) + 1)
              for lo, hi in decimator._alias_bands(spec))
    return decimator.FilterReport(
        passband_ripple_db=decimator._ripple_db(gain),
        stopband_atten_db=min((decimator._atten_db(decimator._gain(stages, fs, w))
                               for w in sweeps), default=0.0),
        group_delay_samples_out=decimator._delay_input_samples(stages) / spec.total_decim,
        stage_taps=tuple(st.n_taps for st in stages),
    )


@pytest.mark.parametrize("spec", [
    DecimatorSpec(),
    DecimatorSpec(total_decim=128),
    DecimatorSpec(n_stages=8, total_decim=512, cutoff_hz=20.0),
    DecimatorSpec(stopband_atten_db=80.0),
    DecimatorSpec(n_stages=4),
    DecimatorSpec(cutoff_hz=40.0, passband_ripple_db=0.05),
    DecimatorSpec(n_stages=1, total_decim=1, f_in_hz=100.0, cutoff_hz=50.0),
])
def test_one_sweep_report_equals_the_band_by_band_report(spec, monkeypatch):
    stages, report = design_decimator(spec)
    expected = _report_band_by_band(stages, spec)
    assert report == expected  # every float by ==
    # the report keeps only extremes, so count the points the sweep evaluates
    gain, counted = decimator._gain, []

    def counting_gain(stages, fs, freqs):
        counted.append(len(freqs))
        return gain(stages, fs, freqs)

    monkeypatch.setattr(decimator, "_gain", counting_gain)
    assert decimator.measure_response(stages, spec) == expected
    points = sum(max(int((hi - lo) / 0.1), 64) + 1 for lo, hi in decimator._alias_bands(spec))
    assert counted[0] == 2001 and sum(counted[1:]) == points
    if spec.total_decim > 1:  # the sweep spans several chunks, the last one partial
        assert points > 2 * decimator._SWEEP_CHUNK and points % decimator._SWEEP_CHUNK


def test_run_chain_scaling_and_dtype(default_chain):
    spec, stages, _ = default_chain
    adc, sensor = AdcSpec(), SensorSpec()
    codes = np.full(int(2 * spec.f_in_hz), adc.midscale + 64)
    counts = run_chain(codes, stages, adc, sensor, ChainState(stages, len(codes)))
    assert counts.dtype == np.float64
    out = int16_output(counts)
    assert out.dtype == np.int16
    # 64 ADC LSB above midscale = 64 * (3.3/4096) / 0.66 g = 78.1 mg;
    # output counts at 2 g full scale: 78.1 mg * 32768 / 2 = 1280.
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    assert abs(int(np.median(out[settle:])) - 1280) <= 1
    # the word saturates at both ends and rounds half to even
    assert int16_output(np.array([4e4, -4e4, 2.5, -0.5])).tolist() == [32767, -32768, 2, 0]


def test_run_chain_rejects_short_input(default_chain):
    # run_chain takes a ChainState, which refuses a record the chain cannot fill
    _, stages, _ = default_chain
    need = warmup_input_samples(stages)
    ChainState(stages, need)
    with pytest.raises(ValueError, match=f"shorter than the chain warm-up \\({need}\\)"):
        ChainState(stages, need - 1)
    with pytest.raises(ValueError, match="warm-up"):
        cascade(np.zeros(need - 1), stages)


def test_stage_file_round_trip(tmp_path, default_chain):
    _, stages, _ = default_chain
    path = tmp_path / "stages.txt"
    save_stages(path, stages)
    back = []                                   # (decim, taps) per stage
    for line in path.read_text().splitlines():
        if line.startswith("decim "):
            back.append((int(line.split()[1]), []))
        elif line and not line.startswith(("#", "stage ", "taps ")):
            back[-1][1].append(float(line))
    assert len(back) == len(stages)
    for a, (decim, taps) in zip(stages, back):
        assert a.decim == decim
        assert np.array_equal(a.coeffs, np.array(taps))


def test_enob_default_chain_exceeds_15_bits(default_chain):
    _, stages, _ = default_chain
    enob_int16, _ = measure_enob(stages)
    assert enob_int16 >= 15.0


def test_enob_needs_a_whole_number_of_samples_per_tone_period():
    # 25.6 kHz / 100 = 256 Hz: 25.6 output samples per 10 Hz period
    stages, _ = design_decimator(DecimatorSpec(n_stages=4, total_decim=100))
    with pytest.raises(ValueError, match="256.0 Hz"):
        measure_enob(stages)


def test_enob_needs_256_output_samples_past_the_warm_up():
    # a 10 Hz output gives 400 samples; a warm-up of 70 of them skips 148
    stages = (FilterStage(np.ones(1), 256), FilterStage(np.ones(1401), 10))
    with pytest.raises(ValueError, match="^record too short for a meaningful SINAD estimate$"):
        measure_enob(stages)


def test_oversampling_law_half_bit_per_octave():
    # On the float path (before 16-bit output rounding), doubling the
    # decimation factor should buy about half an effective bit.
    enobs = []
    for total in (64, 128, 256):
        stages, _ = design_decimator(DecimatorSpec(total_decim=total))
        enobs.append(measure_enob(stages)[1])
    deltas = np.diff(enobs)
    assert np.all(deltas > 0.35) and np.all(deltas < 0.65)


def test_stage_without_coefficients_or_decimation_rejected():
    with pytest.raises(ValueError, match="stage needs a non-empty 1-D coefficient vector"):
        FilterStage(np.zeros(0), 2)
    with pytest.raises(ValueError, match="decimation factor must be >= 1, got 0"):
        FilterStage(np.ones(3), 0)
