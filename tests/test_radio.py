import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmtwin.presets import PAYLOAD_EPB_ROWS
from shmtwin.radio import (
    DEFAULT_DISPERSION_SIGMA,
    EVENT_LOG_FIELDS,
    PACKET_BYTES,
    CoverageClass,
    EnergyParams,
    Packet,
    classify_coverage,
    deliver,
    epb_uj_per_bit,
    event_rows,
    packetize,
    reassemble,
    session_energy_j,
    uplink_session,
    write_event_log,
)


def test_coverage_classification():
    assert classify_coverage(-60.0) is CoverageClass.GOOD
    assert classify_coverage(-94.9) is CoverageClass.GOOD
    assert classify_coverage(-95.0) is CoverageClass.MEDIUM   # boundary -> worse
    assert classify_coverage(-109.9) is CoverageClass.MEDIUM
    assert classify_coverage(-110.0) is CoverageClass.BAD
    assert classify_coverage(-140.0) is CoverageClass.BAD
    with pytest.raises(ValueError):
        classify_coverage(float("nan"))
    with pytest.raises(ValueError):
        classify_coverage(float("inf"))


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(e_packet_tx_mj=0.0)
    with pytest.raises(ValueError):
        EnergyParams(i_sleep_ua=-1.0)
    p = EnergyParams()
    assert p.sleep_power_w == pytest.approx(34e-6 * 3.3)
    assert p.coverage_multiplier(CoverageClass.BAD) == 3.8
    assert p.ecl(CoverageClass.MEDIUM) == 1


def test_packet_shapes():
    assert packetize(np.arange(650, dtype=np.int16))[0].pad_samples == 0
    assert len(packetize(np.arange(650, dtype=np.int16))) == 1
    two = packetize(np.arange(651, dtype=np.int16))
    assert len(two) == 2 and two[-1].pad_samples == 649
    ten = packetize(np.arange(6000, dtype=np.int16), session_id=7)
    assert len(ten) == 10
    assert ten[-1].pad_samples == 500
    assert all(len(p.payload) == PACKET_BYTES for p in ten)
    assert [p.seq for p in ten] == list(range(10))
    assert all(p.session_id == 7 for p in ten)
    with pytest.raises(ValueError):
        packetize(np.zeros(0, dtype=np.int16))
    with pytest.raises(ValueError):
        Packet(0, 0, b"\x00" * 12)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=2100))
def test_packetize_round_trip(values):
    x = np.array(values, dtype=np.int16)
    back = reassemble(packetize(x))
    assert back.dtype == np.int16
    assert np.array_equal(back, x)


def test_reassemble_orders_by_seq():
    x = np.arange(1300, dtype=np.int16)
    pkts = packetize(x)
    assert np.array_equal(reassemble(list(reversed(pkts))), x)


def test_session_energy_reference_points():
    assert session_energy_j(1) == pytest.approx(1.27669, abs=1e-9)
    assert session_energy_j(10) == pytest.approx(5.33416, abs=1e-9)
    assert session_energy_j(65) == pytest.approx(30.12981, abs=1e-9)
    assert session_energy_j(0) == 0.0
    bad = session_energy_j(10, CoverageClass.BAD)
    assert bad == pytest.approx(3.8 * 5.33416, rel=1e-12)
    med = session_energy_j(10, CoverageClass.MEDIUM)
    assert bad / med == pytest.approx(2.8, rel=1e-12)


def test_uplink_deterministic_matches_closed_form():
    for n in (1, 2, 10, 65):
        pkts = packetize(np.zeros(650 * n, dtype=np.int16))
        rec = uplink_session(pkts)
        assert rec.energy_j == pytest.approx(session_energy_j(n), rel=1e-12)
        assert rec.duration_s == 6.0 + 2.0 * n
    rec = uplink_session(packetize(np.zeros(6500, dtype=np.int16)),
                         coverage=CoverageClass.BAD)
    assert rec.energy_j == pytest.approx(3.8 * 5.33416, rel=1e-9)
    assert rec.duration_s == 6.0 + 10 * 2.0 * 4     # ECL 2 repeats airtime only


def test_uplink_rejects_bad_args():
    with pytest.raises(ValueError):
        uplink_session([])
    with pytest.raises(ValueError):
        uplink_session(packetize(np.zeros(650, dtype=np.int16)), mode="fuzzy")


def test_stochastic_mean_and_dispersion():
    pkts = packetize(np.zeros(6500, dtype=np.int16))
    totals, middles = [], []
    for seed in range(800):
        rec = uplink_session(pkts, mode="stochastic", seed=seed)
        totals.append(rec.energy_j)
        middles.extend(tx.energy_j for tx in rec.packets[1:-1])
    assert np.mean(totals) == pytest.approx(5.33416, rel=0.02)
    ratio = np.percentile(middles, 95) / np.mean(middles)
    assert 1.8 < ratio < 2.2


def test_stochastic_seed_determinism():
    pkts = packetize(np.zeros(1950, dtype=np.int16))
    a = uplink_session(pkts, mode="stochastic", seed=11)
    b = uplink_session(pkts, mode="stochastic", seed=11)
    c = uplink_session(pkts, mode="stochastic", seed=12)
    assert a.energy_j == b.energy_j
    assert a.energy_j != c.energy_j


def test_epb_decreases_with_payload():
    epbs = [epb_uj_per_bit(n_bytes, e_j) for n_bytes, e_j, _ in PAYLOAD_EPB_ROWS]
    assert all(a > b for a, b in zip(epbs, epbs[1:]))
    assert epb_uj_per_bit(10, 0.7130) == pytest.approx(8912.5, rel=1e-9)


def test_deliver_lossless_and_lossy():
    x = np.arange(6000, dtype=np.int16)
    pkts = packetize(x)
    clean = deliver(pkts, loss_prob=0.0)
    assert clean.delivered_count == 10
    assert clean.missing_seqs == ()
    assert np.array_equal(clean.samples, x)

    fracs = []
    for seed in range(20):
        rep = deliver(pkts, loss_prob=0.1, seed=seed)
        assert rep.delivered_count + len(rep.missing_seqs) == 10
        fracs.append(rep.delivered_count / 10.0)
    assert 0.84 <= np.mean(fracs) <= 0.96


def test_event_log_round_trip(tmp_path):
    pkts = packetize(np.arange(1950, dtype=np.int16), session_id=4)
    rec = uplink_session(pkts, mode="stochastic", seed=2)
    sink = deliver(pkts, loss_prob=0.5, seed=9)
    rows = event_rows(rec, sink)
    assert [list(r.keys()) for r in rows] == [EVENT_LOG_FIELDS] * 3
    assert rows[0]["timestamp_s"] == 6.0        # the connect time
    path = tmp_path / "uplink.csv"
    write_event_log(path, rows)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert len(back) == 3
    for orig, rt in zip(rows, back):
        assert float(rt["energy_j"]) == orig["energy_j"]
        assert int(rt["delivered"]) == orig["delivered"]
        assert int(rt["node_id"]) == 1


def test_dispersion_sigma_value():
    # P95 at twice the mean for a mean-preserving lognormal
    s = DEFAULT_DISPERSION_SIGMA
    assert math.exp(1.645 * s - 0.5 * s * s) == pytest.approx(2.0, rel=1e-6)


def test_event_log_stamps_come_from_the_session_params():
    params = EnergyParams(t_connect_s=3.0)
    rec = uplink_session(packetize(np.arange(1300, dtype=np.int16)), params=params)
    stamps = [r["timestamp_s"] for r in event_rows(rec)]
    assert stamps[0] == 3.0                     # the record's own connect time
    assert all(t < rec.duration_s for t in stamps)
