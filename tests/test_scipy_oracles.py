"""The numpy stand-ins for scipy.signal, checked against scipy bit for bit.

The dwell path designs its filters, decimates and picks peaks without
scipy.signal; these tests hold each stand-in to the scipy routine it
replaces, so a given scenario and seed keep writing the same bytes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, special

from shmtwin import decimator, modal
from shmtwin.decimator import DecimatorSpec, design_decimator

# one attenuation per branch of Kaiser's beta formula: <= 21, 21-50, > 50 dB
ATTENS_DB = (15.0, 35.0, 66.0)
# (rate, cutoff) pairs: the default chain's first and last stage, and others
RATES_CUTOFFS = ((25600.0, 6400.0), (400.0, 50.0), (1000.0, 3.0), (2.0, 0.61))


def _designed_stages():
    specs = (DecimatorSpec(), DecimatorSpec(stopband_atten_db=80.0),
             DecimatorSpec(n_stages=4, total_decim=100), DecimatorSpec(total_decim=64))
    return [(spec, st) for spec in specs for st in design_decimator(spec)[0]]


def test_kaiser_beta_matches_scipy():
    for a in np.linspace(0.0, 120.0, 2401).tolist():
        assert decimator._kaiser_beta(a) == signal.kaiser_beta(a)


def test_i0_matches_scipy_special():
    x = np.concatenate((np.random.default_rng(0).uniform(0.0, 40.0, 20_000),
                        np.linspace(0.0, 16.0, 4001), [-3.0, -9.5]))
    ours = np.array([decimator._i0(v) for v in x.tolist()])
    assert ours.tobytes() == special.i0(x).tobytes()


@pytest.mark.parametrize("atten_db", ATTENS_DB)
def test_kaiser_lowpass_matches_firwin(atten_db):
    beta = decimator._kaiser_beta(atten_db)
    for fs, cutoff in RATES_CUTOFFS:
        for n in range(3, 402, 2):
            ours = decimator._kaiser_lowpass(n, cutoff, beta, fs)
            ref = signal.firwin(n, cutoff, window=("kaiser", beta), fs=fs)
            assert ours.tobytes() == ref.tobytes(), (fs, cutoff, n)


def test_response_matches_freqz():
    for spec, st in _designed_stages():
        fs = spec.f_in_hz
        for freqs in (np.linspace(0.0, fs / 2.0, 2048), np.linspace(3.1, 47.7, 333)):
            ours = decimator._response(st.coeffs, freqs, fs)
            _, ref = signal.freqz(st.coeffs, worN=freqs, fs=fs)
            # freqz also divides by a = 1 + 0j, which can flip only the sign
            # of a zero part; the magnitudes are the same bits
            assert np.array_equal(ours, ref)
            assert np.abs(ours).tobytes() == np.abs(ref).tobytes()


def test_cascade_gain_matches_freqz():
    for spec in (DecimatorSpec(), DecimatorSpec(total_decim=128)):
        stages, _ = design_decimator(spec)
        freqs = np.linspace(0.0, spec.f_in_hz / 2.0, 4001)
        ref = np.ones(len(freqs), dtype=complex)
        dc, fs = 1.0, spec.f_in_hz
        for st in stages:
            ref *= signal.freqz(st.coeffs, worN=freqs, fs=fs)[1]
            dc *= np.sum(st.coeffs)
            fs /= st.decim
        ours = decimator._gain(stages, spec.f_in_hz, freqs)
        assert ours.tobytes() == (np.abs(ref) / abs(dc)).tobytes()


def _phases(x, d):
    """x split by phase, as ``_fir_decimate`` reads it: x[i] at [i % d, i // d]."""
    x = np.concatenate((x, np.zeros(-len(x) % d)))
    return np.ascontiguousarray(x.reshape(-1, d).T)


def test_tap_loop_matches_upfirdn():
    x = np.random.default_rng(3).standard_normal(50_001)
    for _, st in _designed_stages():
        d = st.decim
        ref = signal.upfirdn(st.coeffs, x, up=1, down=d)
        n = -(-len(x) // d)  # outputs at input indices 0, d, ... < len(x)
        ours = decimator._fir_decimate(st.coeffs, _phases(x, d), 0, n)
        assert ours.tobytes() == ref[:n].tobytes()
        # started part-way, with all of the first output's history present
        k = -(-(st.n_taps - 1) // d) + 5
        ours = decimator._fir_decimate(st.coeffs, _phases(x[3:], d), k * d - 3, n - k)
        assert ours.tobytes() == ref[k:n].tobytes()


# the default chain's stages, and a decim-3 stage whose 7 taps split
# unevenly over its phases
_STAGES = (*design_decimator(DecimatorSpec())[0],
           decimator.FilterStage(np.random.default_rng(9).standard_normal(7), 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tap_loop_from_any_start_matches_upfirdn(data):
    stage = data.draw(st.sampled_from(_STAGES))
    d, taps = stage.decim, stage.coeffs
    first = data.draw(st.integers(0, stage.n_taps + d - 1))  # the early ones lack history
    n = data.draw(st.integers(1, 300))
    tail = data.draw(st.integers(0, 2 * d))  # inputs past the last output's
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        first + (n - 1) * d + 1 + tail)
    lead = -first % d  # zeros in front put output k of upfirdn at x[first + k * d]
    ref = signal.upfirdn(taps, np.concatenate((np.zeros(lead), x)), up=1, down=d)
    k = (first + lead) // d
    ours = decimator._fir_decimate(taps, _phases(x, d), first, n)
    assert ours.tobytes() == ref[k:k + n].tobytes()


def test_blocks_of_uneven_phase_lengths_equal_the_whole_cascade():
    stages = (_STAGES[-1], *_STAGES[:-1])  # 768x: the decim-3 stage first
    x = np.random.default_rng(10).standard_normal(400_003)
    state = decimator.ChainState(stages, len(x))
    parts, i = [], 0
    for size in itertools.cycle((1, 3, 4095, 65_537)):
        if i >= len(x):
            break
        parts.append(state.push(x[i:i + size]))
        i += size
    whole = decimator.cascade(x, stages)
    assert whole.size == -(-len(x) // 768)
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# few distinct levels, so that ties, plateaus and maxima at either end are common
_LEVELS = st.lists(st.integers(0, 6), min_size=1, max_size=60).map(
    lambda v: np.array(v, dtype=float) * 0.37)
_FLOATS = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60).map(
    np.array)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(_LEVELS, _FLOATS), height=st.floats(-1.0, 3.0))
def test_local_maxima_and_height_gate_match_find_peaks(x, height):
    peaks = modal._local_maxima(x)
    ref, _ = signal.find_peaks(x)
    assert peaks.tolist() == ref.tolist()
    assert peaks[x[peaks] >= height].tolist() == signal.find_peaks(x, height=height)[0].tolist()
