"""Spectral peak extraction and mode tracking on the decimated output.

Works on the 100 Hz series the node would log or transmit: mean removal,
windowed zero-padded FFT, peak picking against a median-based floor, then
sub-bin refinement by fitting a parabola through the three log-magnitude
points around each maximum.  Mode shifts between two estimates drive the
damage verdict.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class Verdict(enum.Enum):
    NO_DAMAGE = "NO_DAMAGE"
    LIGHT = "LIGHT"
    MODERATE = "MODERATE"


@dataclass(frozen=True)
class ModalSpec:
    """Peak picking and damage thresholds; each field is the scenario key
    of the same name."""

    max_peaks: int = 8
    min_prominence: float = 10.0
    light_shift_pct: float = 1.0
    moderate_shift_pct: float = 10.0

    def __post_init__(self):
        if self.max_peaks < 1:
            raise ValueError(f"max_peaks must be >= 1, got {self.max_peaks}")
        if not 0.0 <= self.min_prominence < math.inf:
            raise ValueError(f"min_prominence must be in [0, inf), got {self.min_prominence}")
        if not 0.0 < self.light_shift_pct < self.moderate_shift_pct:
            raise ValueError("need 0 < light_shift_pct < moderate_shift_pct")


@dataclass(frozen=True)
class Spectrum:
    mags: np.ndarray
    f_s_hz: float
    res_hz: float         # true resolution, f_s / record length

    @property
    def nfft(self) -> int:
        return 2 * (len(self.mags) - 1)  # the FFT length is even

    @property
    def df_hz(self) -> float:
        """Grid spacing after zero padding."""
        return self.f_s_hz / self.nfft

    @property
    def freqs(self) -> np.ndarray:
        """Bin frequencies, built on each access: only bundle writing reads
        them all, so a run without a bundle never holds them."""
        return np.fft.rfftfreq(self.nfft, 1.0 / self.f_s_hz)


@dataclass(frozen=True)
class ModalEstimate:
    peaks: tuple[float, ...]  # refined peak frequencies in Hz, ascending


@dataclass(frozen=True)
class ModeShift:
    baseline_hz: float
    current_hz: float | None  # None: no peak matched the mode

    @property
    def shift_hz(self) -> float | None:
        return None if self.current_hz is None else self.current_hz - self.baseline_hz

    @property
    def shift_pct(self) -> float | None:
        return None if self.current_hz is None else self.shift_hz / self.baseline_hz * 100.0


@dataclass(frozen=True)
class DamageReport:
    shifts: tuple[ModeShift, ...]
    verdict: Verdict

    @property
    def missing(self) -> tuple[float, ...]:
        """Baseline modes no peak matched."""
        return tuple(s.baseline_hz for s in self.shifts if s.current_hz is None)

    def worst_shift_pct(self) -> float:
        vals = [s.shift_pct for s in self.shifts if s.shift_pct is not None]
        return max(vals, key=abs) if vals else 0.0


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def compute_spectrum(samples: np.ndarray, f_s_hz: float = 100.0) -> Spectrum:
    """Amplitude spectrum of a record, mean-removed, Hann-windowed and
    zero-padded 4x.  The window is the one ``_under_skirt`` models.

    FFT length is the next power of two at or above the record length,
    times four; the padding refines the grid the parabolic interpolation
    works on.  Magnitudes are scaled so an in-band sine of amplitude A
    shows a peak of about A.
    """
    x = np.array(samples, dtype=float)
    if len(x) < 1024:
        raise ValueError(f"record of {len(x)} samples is too short (need >= 1024)")
    w = np.hanning(len(x))
    # Mean removal and windowing run in place and each padded-length array
    # is dropped once the next one exists, so the magnitudes, not the
    # temporaries, set this stage's peak memory.
    x -= np.mean(x)
    x *= w
    scale = 2.0 / np.sum(w)
    del w
    n = len(x)
    nfft = 4 * _next_pow2(n)
    bins = np.fft.rfft(x, nfft)
    del x
    mags = np.abs(bins)
    del bins
    mags *= scale
    return Spectrum(mags=mags, f_s_hz=f_s_hz, res_hz=f_s_hz / n)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the samples higher than both neighbours, in order.

    A run of equal samples higher than the samples on either side of it is
    one maximum, at its midpoint rounded down; the first and last samples
    never are.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    v = x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    return (starts[top] + ends[top]) // 2


def _parabolic_refine(mags: np.ndarray, k: int) -> float:
    """Bin of the vertex of the parabola through the log-magnitudes at
    (k-1, k, k+1), where k is a local maximum: a flat top stays at k."""
    a, b, c = np.log10(np.maximum(mags[k - 1:k + 2], 1e-300))
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(k)
    # a <= b and c <= b, so |a - c| <= |denom|: the vertex moves at most half
    # a bin, up to rounding
    return k + 0.5 * (a - c) / denom


def _under_skirt(mags: np.ndarray, spectrum: Spectrum, k: int, k_stronger: int) -> bool:
    """True if bin k could be a window sidelobe of the stronger peak.

    Envelope for the Hann window: first sidelobe near -31.5 dB falling about
    18 dB per octave of offset.  The gate sits a few dB above that so real
    secondary modes pass while sidelobes, which hug the envelope, do not.
    """
    k_res = abs(k - k_stronger) * spectrum.df_hz / spectrum.res_hz
    env_db = -26.0 - 18.0 * np.log2(max(k_res, 2.36) / 2.36)
    return mags[k] < mags[k_stronger] * 10.0 ** (env_db / 20.0)


def detect_peaks(spectrum: Spectrum, spec: ModalSpec = ModalSpec()) -> ModalEstimate:
    """Pick at most spec.max_peaks spectral peaks, refined to sub-bin frequency.

    A local maximum qualifies if its magnitude exceeds spec.min_prominence
    times the median spectral magnitude; the median is a robust stand-in for
    the noise floor.  Because zero padding resolves the sidelobes of a strong
    tone into local maxima of their own, candidates are accepted strongest
    first and anything lying under the window-skirt envelope of an already
    accepted peak is discarded as a sidelobe.  Returned peaks are ordered
    by frequency and lie strictly inside (0, f_s/2).
    """
    mags = spectrum.mags
    floor = float(np.median(mags))
    # second gate: 100 dB below the strongest bin; keeps FFT arithmetic
    # noise out of otherwise noiseless records
    height = max(spec.min_prominence * floor, float(np.max(mags)) * 1e-5)
    idx = _local_maxima(mags)
    idx = idx[mags[idx] >= height]
    # below ~3 resolution widths a record holds too few cycles to estimate,
    # and mean removal leaves a notch skirt there
    k_min = int(np.ceil(3.0 * spectrum.res_hz / spectrum.df_hz))
    idx = idx[(idx > k_min) & (idx < len(mags) - 1)]
    if idx.size == 0:
        return ModalEstimate(peaks=())

    accepted: list[int] = []
    for k in idx[np.argsort(mags[idx])[::-1]]:
        if all(not _under_skirt(mags, spectrum, int(k), ka) for ka in accepted):
            accepted.append(int(k))
        if len(accepted) == spec.max_peaks:
            break

    # local maxima lie at least two bins apart and refinement moves each by
    # less than one, so bin order is frequency order; f_top is rfftfreq's last bin
    f_top = (len(mags) - 1) * (1.0 / (spectrum.nfft * (1.0 / spectrum.f_s_hz)))
    freqs = (float(_parabolic_refine(mags, k) * spectrum.df_hz) for k in sorted(accepted))
    return ModalEstimate(peaks=tuple(f for f in freqs if 0.0 < f < f_top))


def compare_modes(
    baseline_hz: Sequence[float],
    current_hz: Sequence[float],
    spec: ModalSpec = ModalSpec(),
) -> DamageReport:
    """Pair modes by nearest frequency (Hz) and classify the worst relative shift.

    Each baseline mode matches the nearest current peak within +/-20 % of the
    baseline frequency; a current peak is consumed by at most one baseline
    mode.  Baseline modes with no candidate are reported missing and do not
    contribute a shift.
    """
    cur = list(current_hz)
    used = [False] * len(cur)
    shifts: list[ModeShift] = []
    for f_b in baseline_hz:
        best_j, best_d = -1, 0.2 * f_b
        for j, f_c in enumerate(cur):
            d = abs(f_c - f_b)
            if not used[j] and d <= best_d:
                best_j, best_d = j, d
        if best_j < 0:
            shifts.append(ModeShift(f_b, None))
            continue
        used[best_j] = True
        shifts.append(ModeShift(f_b, cur[best_j]))

    worst = max((abs(s.shift_pct) for s in shifts if s.shift_pct is not None),
                default=0.0)
    if worst >= spec.moderate_shift_pct:
        verdict = Verdict.MODERATE
    elif worst >= spec.light_shift_pct:
        verdict = Verdict.LIGHT
    else:
        verdict = Verdict.NO_DAMAGE
    return DamageReport(shifts=tuple(shifts), verdict=verdict)


def verdict_line(report: DamageReport) -> str:
    """One-line machine-readable summary, stable field order."""
    matched = sum(1 for s in report.shifts if s.current_hz is not None)
    return (
        f"verdict={report.verdict.value} "
        f"worst_shift_pct={report.worst_shift_pct():+.4f} "
        f"matched={matched} missing={len(report.missing)}"
    )
