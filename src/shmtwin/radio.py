"""NB-IoT uplink model: coverage classes, packets, energy.

The protocol surface is deliberately small.  Connection establishment and
release dominate the energy bill, so the model is calibrated around three
measured constants (connect-plus-first-transmission, per-packet
transmission, session wind-down through connected discontinuous reception)
plus a deep-sleep floor current.  Radio conditions enter as a coverage
class derived from RSSI; worse coverage scales session energy by a measured
multiplier and doubles modeled airtime per extended-coverage level.

The measured session tail covers connected-mode eDRX, idle-mode eDRX and
the fall into power saving mode (PSM).  No radio timer is simulated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .seriesio import write_csv_columns


class CoverageClass(enum.Enum):
    GOOD = "GOOD"
    MEDIUM = "MEDIUM"
    BAD = "BAD"


def classify_coverage(rssi_dbm: float) -> CoverageClass:
    """Coverage class from RSSI; boundary values fall to the worse class."""
    if not math.isfinite(rssi_dbm):
        raise ValueError(f"RSSI must be finite, got {rssi_dbm}")
    if rssi_dbm > -95.0:
        return CoverageClass.GOOD
    if rssi_dbm > -110.0:
        return CoverageClass.MEDIUM
    return CoverageClass.BAD


# Session energy in BAD coverage measures 3.8x GOOD and 2.8x MEDIUM, which
# pins MEDIUM at 3.8/2.8 of GOOD.
_COVERAGE_MULT = {
    CoverageClass.GOOD: 1.0,
    CoverageClass.MEDIUM: 3.8 / 2.8,
    CoverageClass.BAD: 3.8,
}
_COVERAGE_ECL = {CoverageClass.GOOD: 0, CoverageClass.MEDIUM: 1, CoverageClass.BAD: 2}


@dataclass(frozen=True)
class EnergyParams:
    """Measured energy constants of the radio module and acquisition path.

    Energies are in millijoules as measured; helpers hand out joules.
    """

    e_acq_1s_mj: float = 52.596          # one second of acquisition activity
    e_sd_write_mj: float = 2.1816        # storing one packet's samples
    e_connect_first_tx_mj: float = 659.72
    e_packet_tx_mj: float = 450.83
    e_session_tail_mj: float = 616.97    # connected-eDRX wind-down and release
    i_sleep_ua: float = 34.0
    v_supply_v: float = 3.3
    t_connect_s: float = 6.0             # with per-packet time: 26 s radio for
    t_packet_s: float = 2.0              # a 10-packet session, matching the
                                         # measured 91 s active split 65 + 26

    def __post_init__(self):
        for name in ("e_acq_1s_mj", "e_sd_write_mj", "e_connect_first_tx_mj",
                     "e_packet_tx_mj", "e_session_tail_mj", "i_sleep_ua",
                     "v_supply_v", "t_connect_s", "t_packet_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def sleep_power_w(self) -> float:
        return self.v_supply_v * self.i_sleep_ua * 1e-6

    def coverage_multiplier(self, coverage: CoverageClass) -> float:
        return _COVERAGE_MULT[coverage]

    def ecl(self, coverage: CoverageClass) -> int:
        return _COVERAGE_ECL[coverage]

    def radio_window_s(self, n_packets: int, coverage: CoverageClass) -> float:
        """Connect time plus n packets of airtime, each repeated 2**ecl times."""
        return self.t_connect_s + n_packets * self.t_packet_s * 2 ** self.ecl(coverage)


def epb_uj_per_bit(payload_bytes: int, energy_j: float) -> float:
    """Microjoules spent per payload bit."""
    if payload_bytes <= 0:
        raise ValueError(f"payload must be positive, got {payload_bytes}")
    if energy_j < 0:
        raise ValueError("energy cannot be negative")
    return energy_j / (8.0 * payload_bytes) * 1e6


# ---------------------------------------------------------------------------
# packets

SAMPLES_PER_PACKET = 650
PACKET_BYTES = SAMPLES_PER_PACKET * 2  # 16-bit little-endian samples


@dataclass(frozen=True)
class Packet:
    session_id: int
    seq: int
    payload: bytes
    pad_samples: int = 0

    def __post_init__(self):
        if len(self.payload) != PACKET_BYTES:
            raise ValueError(
                f"payload must be exactly {PACKET_BYTES} bytes, got {len(self.payload)}"
            )
        if not 0 <= self.pad_samples < SAMPLES_PER_PACKET:
            raise ValueError(f"pad_samples out of range: {self.pad_samples}")

    def samples(self) -> np.ndarray:
        """Payload decoded to int16, padding stripped."""
        arr = np.frombuffer(self.payload, dtype="<i2")
        return arr[: SAMPLES_PER_PACKET - self.pad_samples].copy()


def packetize(samples: np.ndarray, session_id: int = 0) -> list[Packet]:
    """Split a 16-bit series into fixed-size packets, zero-padding the last."""
    x = np.ascontiguousarray(np.asarray(samples), dtype="<i2")
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a non-empty 1-D sample array")
    n_pkt = -(-x.size // SAMPLES_PER_PACKET)
    packets = []
    for k in range(n_pkt):
        chunk = x[k * SAMPLES_PER_PACKET : (k + 1) * SAMPLES_PER_PACKET]
        pad = SAMPLES_PER_PACKET - chunk.size
        if pad:
            chunk = np.concatenate([chunk, np.zeros(pad, dtype="<i2")])
        packets.append(Packet(session_id=session_id, seq=k,
                              payload=chunk.tobytes(), pad_samples=pad))
    return packets


def reassemble(packets: list[Packet]) -> np.ndarray:
    """Concatenate payloads in sequence order, stripping trailing padding."""
    if not packets:
        return np.zeros(0, dtype=np.int16)
    ordered = sorted(packets, key=lambda p: p.seq)
    return np.concatenate([p.samples() for p in ordered])


# ---------------------------------------------------------------------------
# uplink sessions

# Lognormal dispersion such that the 95th percentile of per-packet energy
# is twice its mean: solve 1.645*s - s^2/2 = ln 2.
DEFAULT_DISPERSION_SIGMA = 1.645 - math.sqrt(1.645**2 - 2.0 * math.log(2.0))


@dataclass(frozen=True)
class PacketTx:
    seq: int
    energy_j: float
    t_s: float  # airtime start, from the start of the session


@dataclass(frozen=True)
class UplinkRecord:
    session_id: int
    packets: tuple[PacketTx, ...]
    energy_j: float
    duration_s: float

    def __post_init__(self):
        if abs(self.energy_j - sum(p.energy_j for p in self.packets)) > 1e-9 * max(self.energy_j, 1.0):
            raise ValueError("session energy must equal the sum of per-packet energies")


def uplink_session(
    packets: list[Packet],
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
    mode: str = "deterministic",
    seed: int = 0,
) -> UplinkRecord:
    """Transmit one session's packets and account energy and airtime.

    Deterministic mode books class-mean energies: connect plus first
    transmission on the first packet, the session wind-down on the last,
    a flat per-packet cost in between.  Stochastic mode scatters each
    per-packet cost with a mean-preserving lognormal whose dispersion
    puts the 95th percentile at twice the mean.

    Airtime per packet doubles per extended-coverage level (2**ecl
    repetitions); energy scaling is already captured by the class
    multiplier, so repetitions affect duration only.
    """
    if not packets:
        raise ValueError("a session needs at least one packet")
    if mode not in ("deterministic", "stochastic"):
        raise ValueError(f"unknown mode {mode!r}")
    mult = params.coverage_multiplier(coverage)

    means_mj = [params.e_connect_first_tx_mj]
    means_mj += [params.e_packet_tx_mj] * (len(packets) - 1)
    means_mj[-1] += params.e_session_tail_mj
    means_j = [mult * m * 1e-3 for m in means_mj]

    if mode == "stochastic":
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(len(means_j))
        s = DEFAULT_DISPERSION_SIGMA
        energies = [m * math.exp(s * zi - 0.5 * s * s) for m, zi in zip(means_j, z)]
    else:
        energies = means_j

    txs = tuple(PacketTx(seq=p.seq, energy_j=e, t_s=params.radio_window_s(i, coverage))
                for i, (p, e) in enumerate(zip(packets, energies)))
    return UplinkRecord(
        session_id=packets[0].session_id,
        packets=txs,
        energy_j=float(sum(energies)),
        duration_s=params.radio_window_s(len(packets), coverage),
    )


def session_energy_j(
    n_packets: int,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    """Closed-form deterministic session energy for n packets, joules."""
    if n_packets < 0:
        raise ValueError("packet count cannot be negative")
    if n_packets == 0:
        return 0.0
    mult = params.coverage_multiplier(coverage)
    mj = (params.e_connect_first_tx_mj + params.e_session_tail_mj
          + (n_packets - 1) * params.e_packet_tx_mj)
    return mult * mj * 1e-3


# ---------------------------------------------------------------------------
# sink

@dataclass(frozen=True)
class SinkReport:
    delivered: tuple[Packet, ...]
    missing_seqs: tuple[int, ...]
    samples: np.ndarray

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)


def deliver(packets: list[Packet], loss_prob: float = 0.0, seed: int = 0) -> SinkReport:
    """Drop packets independently with loss_prob and reassemble the rest."""
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss probability must be in [0, 1), got {loss_prob}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(packets)) >= loss_prob
    got = [p for p, k in zip(packets, keep) if k]
    lost = tuple(p.seq for p, k in zip(packets, keep) if not k)
    return SinkReport(
        delivered=tuple(got),
        missing_seqs=lost,
        samples=reassemble(got),
    )


# ---------------------------------------------------------------------------
# event log

EVENT_LOG_FIELDS = ["timestamp_s", "node_id", "session_id", "seq", "energy_j", "delivered"]


def event_rows(record: UplinkRecord, sink: SinkReport | None = None) -> list[dict]:
    """One row per packet transmission of node 1, stamped at its airtime
    start from the start of the session."""
    missing = set(sink.missing_seqs) if sink is not None else set()
    return [{
        "timestamp_s": round(tx.t_s, 6),
        "node_id": 1,
        "session_id": record.session_id,
        "seq": tx.seq,
        "energy_j": tx.energy_j,
        "delivered": int(tx.seq not in missing),
    } for tx in record.packets]


def write_event_log(path, rows: list[dict]) -> None:
    """The event rows as CSV columns, in EVENT_LOG_FIELDS order."""
    write_csv_columns(path, {k: [r[k] for r in rows] for k in EVENT_LOG_FIELDS})
