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
from operator import attrgetter
from typing import ClassVar, NamedTuple

import numpy as np

from . import presets
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


# Session energy over GOOD's.  BAD measures BAD_OVER_GOOD (3.8) times GOOD
# and BAD_OVER_MEDIUM (2.8) times MEDIUM, which pins MEDIUM at their ratio.
COVERAGE_MULT = {
    CoverageClass.GOOD: 1.0,
    CoverageClass.MEDIUM: presets.BAD_OVER_GOOD / presets.BAD_OVER_MEDIUM,
    CoverageClass.BAD: presets.BAD_OVER_GOOD,
}
# Extended-coverage level: each packet's airtime repeats 2**ecl times.
COVERAGE_ECL = {CoverageClass.GOOD: 0, CoverageClass.MEDIUM: 1, CoverageClass.BAD: 2}
_MJ = presets.ENERGY_CONTRIBUTIONS_MJ


@dataclass(frozen=True)
class EnergyParams:
    """The fixed, measured energy constants of the radio module and acquisition path.

    Energies are in millijoules as measured; helpers hand out joules.
    """

    e_acq_1s_mj: ClassVar[float] = _MJ["e_acq_1s_mj"]  # one second of acquisition activity
    e_sd_write_mj: ClassVar[float] = _MJ["e_sd_write_mj"]  # storing one packet's samples
    e_connect_first_tx_mj: ClassVar[float] = _MJ["e_connect_first_tx_mj"]
    e_packet_tx_mj: ClassVar[float] = _MJ["e_packet_tx_mj"]
    e_session_tail_mj: ClassVar[float] = _MJ["e_session_tail_mj"]  # connected-eDRX wind-down
    i_sleep_ua: ClassVar[float] = 34.0
    v_supply_v: ClassVar[float] = 3.3
    t_connect_s: ClassVar[float] = 6.0  # with 2 s per packet, 26 s of radio in a 10-packet
    t_packet_s: ClassVar[float] = 2.0   # session: the measured 91 s active is 65 + 26

    @property
    def sleep_power_w(self) -> float:
        return self.v_supply_v * self.i_sleep_ua * 1e-6

    def radio_window_s(self, n_packets: int | np.ndarray, coverage: CoverageClass):
        """Connect time plus n packets of airtime, each repeated 2**ecl times;
        elementwise, in the same operations, for an integer array of n."""
        return self.t_connect_s + n_packets * self.t_packet_s * 2 ** COVERAGE_ECL[coverage]


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


class Packet(NamedTuple):
    session_id: int
    seq: int
    samples: np.ndarray  # read-only int16 view of the packetized series


def packetize(samples: np.ndarray, session_id: int = 0) -> list[Packet]:
    """Split a 16-bit series into packets of SAMPLES_PER_PACKET samples; the
    last is shorter when the series does not fill it.  The packets are
    read-only views of one private copy of the series."""
    x = np.array(samples, dtype=np.int16)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a non-empty 1-D sample array")
    x.setflags(write=False)
    return [Packet(session_id, k, x[i:i + SAMPLES_PER_PACKET])
            for k, i in enumerate(range(0, x.size, SAMPLES_PER_PACKET))]


def reassemble(packets: list[Packet]) -> np.ndarray:
    """Concatenate the packets' samples in sequence order."""
    if not packets:
        return np.zeros(0, dtype=np.int16)
    return np.concatenate([p.samples for p in sorted(packets, key=attrgetter("seq"))])


# ---------------------------------------------------------------------------
# uplink sessions

# Lognormal dispersion such that the 95th percentile of per-packet energy
# is GOOD_P95_OVER_MEAN (2) times its mean: solve 1.645*s - s^2/2 = ln 2.
DEFAULT_DISPERSION_SIGMA = 1.645 - math.sqrt(1.645**2 - 2.0 * math.log(presets.GOOD_P95_OVER_MEAN))


class PacketTx(NamedTuple):
    seq: int
    energy_j: float
    t_s: float  # airtime start, from the radio window's start (the connect)


@dataclass(frozen=True)
class UplinkRecord:
    session_id: int
    packets: tuple[PacketTx, ...]
    duration_s: float

    @property
    def energy_j(self) -> float:
        """Session energy: the per-packet energies summed in order."""
        return sum(p.energy_j for p in self.packets)


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
    mult = COVERAGE_MULT[coverage]
    n = len(packets)

    means_mj = [params.e_connect_first_tx_mj]
    means_mj += [params.e_packet_tx_mj] * (n - 1)
    means_mj[-1] += params.e_session_tail_mj
    means_j = [mult * m * 1e-3 for m in means_mj]

    if mode == "stochastic":
        z = np.random.default_rng(seed).standard_normal(n).tolist()
        s = DEFAULT_DISPERSION_SIGMA
        half_s2 = 0.5 * s * s
        energies = [m * math.exp(s * zi - half_s2) for m, zi in zip(means_j, z)]
    else:
        energies = means_j

    # packet i starts when a window of i packets would end; the window of
    # all n is the record's duration
    edges = params.radio_window_s(np.arange(n + 1), coverage).tolist()
    txs = tuple(map(PacketTx, [p.seq for p in packets], energies, edges[:n]))
    return UplinkRecord(session_id=packets[0].session_id, packets=txs, duration_s=edges[n])


# ---------------------------------------------------------------------------
# sink

@dataclass(frozen=True)
class SinkReport:
    delivered_count: int
    missing_seqs: tuple[int, ...]
    samples: np.ndarray


def deliver(packets: list[Packet], loss_prob: float = 0.0, seed: int = 0) -> SinkReport:
    """Drop packets independently with loss_prob and reassemble the rest."""
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss probability must be in [0, 1), got {loss_prob}")
    keep = (np.random.default_rng(seed).random(len(packets)) >= loss_prob).tolist()
    got = [p for p, k in zip(packets, keep) if k]
    lost = tuple(p.seq for p, k in zip(packets, keep) if not k)
    return SinkReport(delivered_count=len(got), missing_seqs=lost, samples=reassemble(got))


# ---------------------------------------------------------------------------
# event log

EVENT_LOG_FIELDS = ["timestamp_s", "node_id", "session_id", "seq", "energy_j", "delivered"]


def event_rows(record: UplinkRecord, sink: SinkReport) -> dict[str, list]:
    """The event log's columns, in EVENT_LOG_FIELDS order: one entry per
    packet transmission of node 1, stamped at its airtime start, counted
    from the start of the radio window (the connect, which follows the
    session's acquisition blocks), with whether the sink got it."""
    txs = record.packets
    n = len(txs)
    missing = set(sink.missing_seqs)
    seqs = [tx.seq for tx in txs]
    return {
        "timestamp_s": [round(tx.t_s, 6) for tx in txs],
        "node_id": [1] * n,
        "session_id": [record.session_id] * n,
        "seq": seqs,
        "energy_j": [tx.energy_j for tx in txs],
        "delivered": [int(seq not in missing) for seq in seqs],
    }


def write_event_log(path, columns: dict[str, list]) -> None:
    """The event log's columns as CSV, in EVENT_LOG_FIELDS order."""
    write_csv_columns(path, {k: columns[k] for k in EVENT_LOG_FIELDS})
