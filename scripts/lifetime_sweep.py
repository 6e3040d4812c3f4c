#!/usr/bin/env python3
"""Battery lifetime versus acquisition time and session count.

Prints the curve family for the primary cell (4 to 20 minutes, 1/2/4/6
sessions per day) as years.  ``shmtwin repro fig5`` writes the same curve
to fig5_curve.csv.
"""

from shmtwin.energy import DAYS_PER_YEAR, LS336000, lifetime_curve
from shmtwin.presets import LIFETIME_SESSION_COUNTS, LIFETIME_TACQ_GRID_S


def main() -> None:
    rows = lifetime_curve(LIFETIME_TACQ_GRID_S, LIFETIME_SESSION_COUNTS, LS336000)
    by_sessions: dict[int, list[tuple[float, float]]] = {}
    for t_acq, n_sess, days in rows:
        by_sessions.setdefault(n_sess, []).append((t_acq, days))
    header = "t_acq_min " + "  ".join(f"{n}x/day" for n in sorted(by_sessions))
    print(header)
    for i, t_acq in enumerate(LIFETIME_TACQ_GRID_S):
        cells = [f"{by_sessions[n][i][1] / DAYS_PER_YEAR:7.2f}y" for n in sorted(by_sessions)]
        print(f"{t_acq / 60:9.0f} " + " ".join(cells))


if __name__ == "__main__":
    main()
