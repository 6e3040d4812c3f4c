"""Spectral peak extraction and mode tracking on the decimated output.

Works on the 100 Hz series the node would log or transmit: mean removal,
windowed zero-padded FFT, peak picking against a median-based floor, then
sub-bin refinement by fitting a parabola through the three log-magnitude
points around each maximum.  Mode shifts between two estimates drive the
damage verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import signal


class Verdict(enum.Enum):
    NO_DAMAGE = "NO_DAMAGE"
    LIGHT = "LIGHT"
    MODERATE = "MODERATE"


@dataclass(frozen=True)
class Spectrum:
    mags: np.ndarray
    nfft: int
    f_s_hz: float
    res_hz: float         # true resolution, f_s / record length

    def __post_init__(self):
        if len(self.mags) != self.nfft // 2 + 1:
            raise ValueError("mags length does not match the FFT length")

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
class Peak:
    freq_hz: float
    magnitude: float
    prominence: float


@dataclass(frozen=True)
class ModalEstimate:
    peaks: tuple[Peak, ...]

    def freqs(self) -> list[float]:
        return [p.freq_hz for p in self.peaks]


@dataclass(frozen=True)
class ModeShift:
    baseline_hz: float
    current_hz: float | None
    shift_hz: float | None
    shift_pct: float | None


@dataclass(frozen=True)
class DamageReport:
    shifts: tuple[ModeShift, ...]
    missing: tuple[float, ...]
    verdict: Verdict

    def worst_shift_pct(self) -> float:
        vals = [s.shift_pct for s in self.shifts if s.shift_pct is not None]
        return max(vals, key=abs) if vals else 0.0


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def compute_spectrum(
    samples: np.ndarray,
    f_s_hz: float = 100.0,
    window: str = "hann",
) -> Spectrum:
    """Amplitude spectrum of a record, mean-removed and zero-padded 4x.

    FFT length is the next power of two at or above the record length,
    times four; the padding refines the grid the parabolic interpolation
    works on.  Magnitudes are scaled so an in-band sine of amplitude A
    shows a peak of about A.
    """
    x = np.array(samples, dtype=float)
    if len(x) < 1024:
        raise ValueError(f"record of {len(x)} samples is too short (need >= 1024)")
    if window == "hann":
        w = np.hanning(len(x))
    elif window == "rect":
        w = np.ones(len(x))
    else:
        raise ValueError(f"unknown window {window!r}")
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
    return Spectrum(mags=mags, nfft=nfft, f_s_hz=f_s_hz, res_hz=f_s_hz / n)


def _parabolic_refine(mags: np.ndarray, k: int) -> tuple[float, float]:
    """Vertex of the parabola through the log-magnitudes at (k-1, k, k+1).

    Returns (bin, log-mag).
    """
    a, b, c = np.log10(np.maximum(mags[k - 1:k + 2], 1e-300))
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(k), b
    delta = 0.5 * (a - c) / denom
    if not -1.0 < delta < 1.0:
        return float(k), b
    return k + delta, b - 0.25 * (a - c) * delta


def _under_skirt(mags: np.ndarray, spectrum: Spectrum, k: int, k_stronger: int) -> bool:
    """True if bin k could be a window sidelobe of the stronger peak.

    Envelope for the Hann window: first sidelobe near -31.5 dB falling about
    18 dB per octave of offset.  The gate sits a few dB above that so real
    secondary modes pass while sidelobes, which hug the envelope, do not.
    """
    k_res = abs(k - k_stronger) * spectrum.df_hz / spectrum.res_hz
    env_db = -26.0 - 18.0 * np.log2(max(k_res, 2.36) / 2.36)
    return mags[k] < mags[k_stronger] * 10.0 ** (env_db / 20.0)


def detect_peaks(
    spectrum: Spectrum,
    max_peaks: int = 8,
    min_prominence: float = 10.0,
) -> ModalEstimate:
    """Pick at most max_peaks spectral peaks, refined to sub-bin frequency.

    A local maximum qualifies if its magnitude exceeds min_prominence times
    the median spectral magnitude; the median is a robust stand-in for the
    noise floor.  Because zero padding resolves the sidelobes of a strong
    tone into local maxima of their own, candidates are accepted strongest
    first and anything lying under the window-skirt envelope of an already
    accepted peak is discarded as a sidelobe.  Returned peaks are ordered
    by frequency and lie strictly inside (0, f_s/2).
    """
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    mags = spectrum.mags
    floor = float(np.median(mags))
    # second gate: 100 dB below the strongest bin; keeps FFT arithmetic
    # noise out of otherwise noiseless records
    height = max(min_prominence * floor, float(np.max(mags)) * 1e-5)
    idx, _ = signal.find_peaks(mags, height=height)
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
        if len(accepted) == max_peaks:
            break
    idx = np.array(sorted(accepted))
    proms = signal.peak_prominences(mags, idx)[0]

    f_top = spectrum.freqs[-1]
    peaks = []
    for k, prom in zip(idx, proms):
        kref, logmag = _parabolic_refine(mags, int(k))
        f = kref * spectrum.df_hz
        if 0.0 < f < f_top:
            peaks.append(Peak(freq_hz=float(f), magnitude=float(10.0 ** logmag),
                              prominence=float(prom)))
    peaks.sort(key=lambda p: p.freq_hz)
    return ModalEstimate(peaks=tuple(peaks))


def compare_modes(
    baseline: ModalEstimate,
    current: ModalEstimate,
    light_pct: float = 1.0,
    moderate_pct: float = 10.0,
) -> DamageReport:
    """Pair modes by nearest frequency and classify the worst relative shift.

    Each baseline mode matches the nearest current peak within +/-20 % of the
    baseline frequency; a current peak is consumed by at most one baseline
    mode.  Baseline modes with no candidate are reported missing and do not
    contribute a shift.
    """
    if not 0.0 < light_pct < moderate_pct:
        raise ValueError("need 0 < light_pct < moderate_pct")
    cur = list(current.freqs())
    used = [False] * len(cur)
    shifts: list[ModeShift] = []
    missing: list[float] = []
    for f_b in baseline.freqs():
        best_j, best_d = -1, 0.2 * f_b
        for j, f_c in enumerate(cur):
            d = abs(f_c - f_b)
            if not used[j] and d <= best_d:
                best_j, best_d = j, d
        if best_j < 0:
            missing.append(f_b)
            shifts.append(ModeShift(f_b, None, None, None))
            continue
        used[best_j] = True
        f_c = cur[best_j]
        shifts.append(ModeShift(
            baseline_hz=f_b,
            current_hz=f_c,
            shift_hz=f_c - f_b,
            shift_pct=(f_c - f_b) / f_b * 100.0,
        ))

    worst = max((abs(s.shift_pct) for s in shifts if s.shift_pct is not None),
                default=0.0)
    if worst >= moderate_pct:
        verdict = Verdict.MODERATE
    elif worst >= light_pct:
        verdict = Verdict.LIGHT
    else:
        verdict = Verdict.NO_DAMAGE
    return DamageReport(shifts=tuple(shifts), missing=tuple(missing), verdict=verdict)


def verdict_line(report: DamageReport) -> str:
    """One-line machine-readable summary, stable field order."""
    matched = sum(1 for s in report.shifts if s.current_hz is not None)
    return (
        f"verdict={report.verdict.value} "
        f"worst_shift_pct={report.worst_shift_pct():+.4f} "
        f"matched={matched} missing={len(report.missing)}"
    )
