"""Command-line entry point.

Subcommands: run a scenario file, reproduce a published artifact, design
and inspect the decimation chain, or query battery lifetime for a plan.
Exit codes: 0 success, 2 configuration error, 3 pipeline stage failure,
4 reproduction check failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import presets
from .decimator import DecimatorSpec, design_decimator, save_stages
from .energy import DAYS_PER_YEAR, SessionPlan, battery_life_days, energy_day
from .radio import CoverageClass
from .repro import TARGETS, run_repro
from .scenario import ConfigError, StageError, load_scenario, run_scenario, stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ACCEPT = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shmtwin",
                                 description="Digital twin of an NB-IoT vibration sensor node.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file end to end")
    p_run.add_argument("scenario_file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--outputs", default=None, help="override the output directory")

    p_rep = sub.add_parser("repro", help="reproduce a published table or figure")
    p_rep.add_argument("target", choices=sorted(TARGETS) + ["all"])
    p_rep.add_argument("--outdir", default="repro_out", help="where to write CSV reports")

    p_des = sub.add_parser("design-filter", help="design the decimation chain and report compliance")
    p_des.add_argument("--save", default=None, help="write stage coefficients to this file")
    p_des.add_argument("--budget", type=int, default=DecimatorSpec.coeff_budget,
                       help="total coefficient budget")

    p_life = sub.add_parser("lifetime", help="battery lifetime for an acquisition plan")
    p_life.add_argument("--tacq", type=float, required=True, help="seconds of acquisition per session")
    p_life.add_argument("--sessions", type=int, required=True, help="sessions per day")
    p_life.add_argument("--battery", choices=sorted(presets.BATTERIES), default="LS336000")
    p_life.add_argument("--k-acq", type=float, default=SessionPlan.k_acq, dest="k_acq")
    p_life.add_argument("--coverage", choices=[c.name for c in CoverageClass], default="GOOD")
    return ap


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario_file)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if args.outputs is not None:
        sc = replace(sc, outputs=args.outputs)
    r = run_scenario(sc)
    print(f"scenario {sc.label}: wrote {r.outputs}")
    print(f"  peaks_hz = {[round(p.freq_hz, 4) for p in r.estimate.peaks]}")
    print(f"  verdict = {r.report.verdict.name}")
    print(f"  e_day_j = {r.breakdown.e_day_j:.4f}  battery_life_days = {r.life_days:.1f}")
    return EXIT_OK


def _cmd_repro(args) -> int:
    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    all_ok = True
    for t in targets:
        with stage("repro"):
            rows, ok = run_repro(t, outdir=args.outdir)
        all_ok &= ok
        print(f"{t}: {'PASS' if ok else 'FAIL'}")
        for r in rows:
            mark = "PASS" if r.ok else "FAIL"
            print(f"  [{mark}] {r.name}: published={r.published} "
                  f"computed={r.computed:.6g} tol={r.tolerance}")
    return EXIT_OK if all_ok else EXIT_ACCEPT


def _cmd_design_filter(args) -> int:
    spec = DecimatorSpec(coeff_budget=args.budget)
    with stage("design"):
        stages, rep = design_decimator(spec)
    print(f"stages = {len(stages)}  decims = {tuple(st.decim for st in stages)}")
    print(f"taps per stage = {rep.stage_taps}  total = {rep.total_coeffs}")
    print(f"passband ripple = {rep.passband_ripple_db:.4f} dB "
          f"(budget {spec.passband_ripple_db} dB)")
    print(f"stopband attenuation = {rep.stopband_atten_db:.2f} dB "
          f"(target {spec.stopband_atten_db} dB)")
    print(f"group delay = {rep.group_delay_samples_out:.2f} output samples")
    if args.save:
        with stage("write"):
            save_stages(args.save, stages)
        print(f"coefficients written to {args.save}")
    return EXIT_OK


def _cmd_lifetime(args) -> int:
    plan = SessionPlan(n_sessions_per_day=args.sessions, t_acq_s=args.tacq,
                       k_acq=args.k_acq)
    battery = presets.BATTERIES[args.battery]
    coverage = CoverageClass[args.coverage]
    bd = energy_day(plan, coverage)
    days = battery_life_days(plan, battery, coverage)
    print(f"plan: {args.sessions} x {args.tacq:g} s/day, {plan.n_packets} packets/session, "
          f"coverage {coverage.name}")
    print(f"e_day = {bd.e_day_j:.4f} J  data = {plan.daily_data_bytes()} B/day")
    print(f"battery {battery.name}: {days:.1f} days = {days / DAYS_PER_YEAR:.2f} years")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "repro": _cmd_repro,
        "design-filter": _cmd_design_filter,
        "lifetime": _cmd_lifetime,
    }
    # a ValueError no stage wrapped comes from a bad argument
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as e:
        print(f"stage failure: {e}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
