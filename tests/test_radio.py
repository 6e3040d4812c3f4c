import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmtwin.energy import SessionPlan, session
from shmtwin.presets import PAYLOAD_EPB_ROWS
from shmtwin.radio import (
    COVERAGE_ECL,
    COVERAGE_MULT,
    DEFAULT_DISPERSION_SIGMA,
    EVENT_LOG_FIELDS,
    CoverageClass,
    EnergyParams,
    classify_coverage,
    deliver,
    epb_uj_per_bit,
    event_rows,
    packetize,
    reassemble,
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
    # the measured constants are fixed: no instance sets one
    assert dataclasses.fields(EnergyParams) == ()
    with pytest.raises(TypeError):
        EnergyParams(t_connect_s=3.0)
    p = EnergyParams()
    assert p == EnergyParams()
    assert p.sleep_power_w == pytest.approx(34e-6 * 3.3)
    assert COVERAGE_MULT[CoverageClass.BAD] == 3.8
    assert COVERAGE_ECL[CoverageClass.MEDIUM] == 1


def test_packet_shapes():
    one = packetize(np.arange(650, dtype=np.int16))
    assert len(one) == 1 and len(one[0].samples) == 650
    two = packetize(np.arange(651, dtype=np.int16))
    assert [len(p.samples) for p in two] == [650, 1]
    ten = packetize(np.arange(6000, dtype=np.int16), session_id=7)
    assert [len(p.samples) for p in ten] == [650] * 9 + [150]
    assert all(p.samples.dtype == np.int16 for p in ten)
    assert [p.seq for p in ten] == list(range(10))
    assert all(p.session_id == 7 for p in ten)
    with pytest.raises(ValueError):
        packetize(np.zeros(0, dtype=np.int16))


def test_packets_are_read_only_views_of_their_own_copy():
    x = np.arange(1950, dtype=np.int16)
    pkts = packetize(x)
    sink = deliver(pkts)
    x[:] = -1  # the caller reuses its array
    assert np.array_equal(reassemble(pkts), np.arange(1950))
    assert np.array_equal(sink.samples, np.arange(1950))
    with pytest.raises(ValueError, match="read-only"):
        pkts[0].samples[0] = 7


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=2100))
def test_packetize_round_trip(values):
    x = np.array(values, dtype=np.int16)
    back = reassemble(packetize(x))
    assert back.dtype == np.int16
    assert np.array_equal(back, x)


def test_a_sink_that_gets_no_packet_reassembles_an_empty_series():
    sink = deliver(packetize(np.zeros(10)), loss_prob=0.99, seed=0)
    assert (sink.delivered_count, sink.missing_seqs) == (0, (0,))
    assert sink.samples.dtype == np.int16 and sink.samples.size == 0


def test_reassemble_orders_by_seq():
    x = np.arange(1300, dtype=np.int16)
    pkts = packetize(x)
    assert np.array_equal(reassemble(list(reversed(pkts))), x)


def _radio_j(n_packets, coverage=CoverageClass.GOOD):
    """The deterministic radio bill of a session of n full packets."""
    _, _, _, e_radio = session(SessionPlan(t_acq_s=6.5 * n_packets), coverage)
    return e_radio


def test_session_energy_reference_points():
    assert _radio_j(1) == pytest.approx(1.27669, abs=1e-9)
    assert _radio_j(10) == pytest.approx(5.33416, abs=1e-9)
    assert _radio_j(65) == pytest.approx(30.12981, abs=1e-9)
    bad = _radio_j(10, CoverageClass.BAD)
    assert bad == pytest.approx(3.8 * 5.33416, rel=1e-12)
    med = _radio_j(10, CoverageClass.MEDIUM)
    assert bad / med == pytest.approx(2.8, rel=1e-12)


def test_uplink_deterministic_matches_closed_form():
    for n in (1, 2, 10, 65):
        pkts = packetize(np.zeros(650 * n, dtype=np.int16))
        rec = uplink_session(pkts)
        assert rec.energy_j == pytest.approx(_radio_j(n), rel=1e-12)
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
    cols = event_rows(rec, sink)
    assert list(cols) == EVENT_LOG_FIELDS
    assert [len(c) for c in cols.values()] == [3] * len(EVENT_LOG_FIELDS)
    assert cols["timestamp_s"][0] == 6.0        # the connect time
    path = tmp_path / "uplink.csv"
    write_event_log(path, cols)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert len(back) == 3
    for k, rt in enumerate(back):
        assert float(rt["energy_j"]) == cols["energy_j"][k]
        assert int(rt["delivered"]) == cols["delivered"][k]
        assert int(rt["node_id"]) == 1


# sha256 of uplink.csv for a 12-packet stochastic session that loses 6
# packets, pinned from the row-by-row writer the column form replaced
EVENT_LOG_SHA256 = {
    (6.0, CoverageClass.GOOD):
        "b62c634fe39cda20547c64c0fc2643f594cefbb9c32623b74cc1541b998e9661",
    (6.0, CoverageClass.MEDIUM):
        "b907597c80c3eb858030316ff61a6413ddfd1fc7343a6f5110fde6187a417b52",
    (6.0, CoverageClass.BAD):
        "0c39b85b5dab7a2b338943be450b085f75f74e405bf3b45369cd445f578f449a",
}


@pytest.mark.parametrize("t_connect_s, coverage", list(EVENT_LOG_SHA256))
def test_event_log_bytes_in_every_coverage_class(tmp_path, t_connect_s, coverage):
    params = EnergyParams()
    assert params.t_connect_s == t_connect_s
    pkts = packetize(np.arange(-3000, 4250, dtype=np.int16), session_id=7)
    rec = uplink_session(pkts, coverage, params, mode="stochastic", seed=11)
    sink = deliver(pkts, loss_prob=0.3, seed=12)
    assert len(pkts) == 12 and len(sink.missing_seqs) == 6
    for i, tx in enumerate(rec.packets):
        assert tx.t_s == params.radio_window_s(i, coverage)
    path = tmp_path / "uplink.csv"
    write_event_log(path, event_rows(rec, sink))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == EVENT_LOG_SHA256[t_connect_s, coverage])


def test_dispersion_sigma_value():
    # P95 at twice the mean for a mean-preserving lognormal
    s = DEFAULT_DISPERSION_SIGMA
    assert math.exp(1.645 * s - 0.5 * s * s) == pytest.approx(2.0, rel=1e-6)


def test_event_log_stamps_come_from_the_session_params():
    pkts = packetize(np.arange(1300, dtype=np.int16))
    rec = uplink_session(pkts)
    stamps = event_rows(rec, deliver(pkts, loss_prob=0.0))["timestamp_s"]
    assert stamps[0] == EnergyParams.t_connect_s == 6.0  # the record's own connect time
    assert all(t < rec.duration_s for t in stamps)


@pytest.mark.parametrize("coverage", list(CoverageClass))
def test_radio_window_over_an_array_is_the_scalar_window_bit_for_bit(coverage):
    # uplink_session takes every airtime start and its duration from one
    # array call; each must be the window of that many packets
    params = EnergyParams()
    n = np.arange(2000)
    edges = params.radio_window_s(n, coverage).tolist()
    assert edges == [params.radio_window_s(i, coverage) for i in range(2000)]
    rec = uplink_session(packetize(np.zeros(650 * 37, dtype=np.int16)), coverage, params)
    assert [tx.t_s for tx in rec.packets] == edges[:37]
    assert rec.duration_s == edges[37]
    assert all(type(tx.t_s) is float for tx in rec.packets) and type(rec.duration_s) is float


def test_energy_per_bit_rejects_an_empty_payload_and_negative_energy():
    with pytest.raises(ValueError, match="payload must be positive, got 0"):
        epb_uj_per_bit(0, 1.0)
    with pytest.raises(ValueError, match="energy cannot be negative"):
        epb_uj_per_bit(100, -1e-9)


@pytest.mark.parametrize("loss_prob", [-0.1, 1.0, float("nan"), float("inf")])
def test_deliver_rejects_a_loss_probability_outside_0_1(loss_prob):
    pkts = packetize(np.arange(1300, dtype=np.int16))
    with pytest.raises(ValueError, match=r"loss probability must be in \[0, 1\)"):
        deliver(pkts, loss_prob=loss_prob)
