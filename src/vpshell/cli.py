"""Command-line front end.

Subcommands:
  design  emit a certificate from target constants (--t selects the
          fixed-mass recipe, otherwise small-data)
  init    sample the initial ensemble for a run config and validate it
  run     integrate a run config and write CSV/manifest output; data
          outside a non-exploratory certificate's class is not run
  verify  check a completed run directory against a certificate
  oracle  run the randomized bound-vs-reference property suite

Exit codes, mapped from exceptions in main alone: 0 success / all
checks pass, 1 a check failed or the run (a step below dt_min or too
short to advance t, out of steps) or the oracle aborted, 2 usage error
or refusal (bad argument, missing file or key, unread run config key,
t_end beyond MAX_STEPS steps of dt_max, a grid too large to allocate, a
certificate its recipe does not remake, inconsistent run record, run
not made from the certificate, by its manifest's class or its own
certificate.ini, or with no snapshot at exactly T); a certificate
marked exploratory by hand only claims less.

--threads is accepted for interface compatibility; the computation is
deterministic and its results do not depend on it.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .design import (
    InadmissibleParameterError,
    RefusalError,
    check_membership,
    design_fixed_mass,
    design_small_data,
    verify_focusing_run,
)
from .dynamics import OracleError, StepBudgetError, StiffnessError, integrate
from .initial_data import InitialData, sample_ensemble
from .reporting import (
    load_certificate,
    load_run_config,
    load_run_data,
    require_manifest_matches,
    save_certificate,
    save_membership_report,
    save_oracle_summary,
    save_run,
    save_snapshot,
    save_verification_report,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpshell",
        description="spherical-shell focusing simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="emit a certificate from target constants")
    p_design.add_argument("--c1", type=float, required=True, help="initial-bound / mass constant")
    p_design.add_argument("--c2", type=float, required=True, help="growth target at time T")
    p_design.add_argument("--t", type=float, default=None, help="time horizon (fixed-mass recipe)")
    p_design.add_argument("--eps", type=float, default=None, help="shell thinness (default: half the admissible max)")
    p_design.add_argument("--exploratory", action="store_true", help="allow eps beyond the admissible bound")
    p_design.add_argument("--out", default="certificate.ini", help="certificate output path")

    p_init = sub.add_parser("init", help="sample and validate the initial ensemble")
    p_init.add_argument("--config", required=True, help="run config file")
    p_init.add_argument("--out", required=True, help="output directory")
    p_init.add_argument("--threads", type=int, default=1, help="accepted, has no effect on results")

    p_run = sub.add_parser("run", help="integrate a configured run")
    p_run.add_argument("--config", required=True, help="run config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=int, default=1, help="accepted, has no effect on results")

    p_verify = sub.add_parser("verify", help="check a run directory against a certificate")
    p_verify.add_argument("run_dir", help="directory written by `vpshell run`")
    p_verify.add_argument("certificate", help="certificate file")

    p_oracle = sub.add_parser("oracle", help="run the bound-vs-reference property suite")
    p_oracle.add_argument("--cases", type=int, default=1000, help="number of random draws")
    p_oracle.add_argument("--seed", type=int, default=1234, help="draw seed")
    p_oracle.add_argument("--out", default=None, help="optional summary file")

    return parser


def _cmd_design(args) -> int:
    if args.t is None:
        cert = design_small_data(args.c1, args.c2, eps=args.eps, exploratory=args.exploratory)
    else:
        cert = design_fixed_mass(args.c1, args.c2, args.t, eps=args.eps, exploratory=args.exploratory)
    path = save_certificate(cert, args.out)
    print(f"certificate ({cert.recipe}{', exploratory' if cert.exploratory else ''}) -> {path}")
    print(f"  a0 = {cert.spec.a0!r}, a1 = {cert.spec.a1!r}, eps = {cert.spec.eps!r}")
    print(f"  T = {cert.t_horizon!r}, eps admissible max = {cert.eps_admissible_max!r}")
    if cert.c0 is not None:
        print(f"  C0 = {cert.c0!r}, eta = {cert.eta!r}")
    print(f"  confinement radius at T <= {cert.sup_r_bound!r}")
    print(f"  certified lower bounds at T: rho >= {cert.rhot_lower!r}, E >= {cert.et_lower!r}")
    return 0


def _load_setup(config_path: str):
    """The run config at config_path, its certificate, and the
    (IntegratorConfig, marks) the two resolve to."""
    setup = load_run_config(config_path)
    cert_path = Path(setup.certificate_path)
    if not cert_path.is_absolute():
        cert_path = Path(config_path).parent / cert_path
    cert = load_certificate(cert_path)
    try:
        resolved = setup.resolve(cert)
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from exc
    return setup, cert, resolved


def _cmd_init(args) -> int:
    setup, cert, _ = _load_setup(args.config)
    data = InitialData.from_spec(cert.spec)
    ensemble = sample_ensemble(data, setup.n_r, setup.n_w, setup.n_ell)
    report = check_membership(data, ensemble)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_snapshot(ensemble, out / "initial.csv")
    save_membership_report(report, out / "membership.ini")
    print(f"{len(ensemble)} shells, total mass {ensemble.total_mass!r}")
    print(report)
    return 0 if report.passed else CHECK_FAILED


def _cmd_run(args) -> int:
    setup, cert, (config, marks) = _load_setup(args.config)
    data = InitialData.from_spec(cert.spec)
    ensemble = sample_ensemble(data, setup.n_r, setup.n_w, setup.n_ell)
    # exempt exploratory certificates, whose initial-data stages verify skips
    if not cert.exploratory:
        report = check_membership(data, ensemble)
        if not report.passed:
            print(report)
            print("run not started: the sampled data misses the class", file=sys.stderr)
            return CHECK_FAILED
    result = integrate(ensemble, config, mark_times=marks)
    out = save_run(result, cert, setup, args.out)
    last = result.rows[-1]
    print(
        f"run complete: {len(ensemble)} shells, {result.steps} steps, "
        f"{len(result.rows)} rows -> {out}"
    )
    print(
        f"  final t = {last.t!r}: r in [{last.r_min:.6g}, {last.r_max:.6g}], "
        f"rho certified {last.rho_sup_certified:.6g}, E sup {last.e_sup_exact:.6g}"
    )
    return 0


def _cmd_verify(args) -> int:
    cert = load_certificate(args.certificate)
    run = load_run_data(args.run_dir)
    require_manifest_matches(args.run_dir, run, cert, args.certificate)
    report = verify_focusing_run(run, cert)
    out = Path(args.run_dir) / "verification.ini"
    save_verification_report(report, out)
    print(report)
    print(f"report -> {out}")
    return 0 if report.passed else CHECK_FAILED


def _cmd_oracle(args) -> int:
    from .oracle_suite import run_oracle_suite

    result = run_oracle_suite(n_cases=args.cases, seed=args.seed)
    print(f"oracle suite: {result.summary()}")
    for outcome in result.violations[:10]:
        print(f"  violation in {outcome.label}: {outcome.detail}")
    if args.out is not None:
        save_oracle_summary(result, args.out)
        print(f"summary -> {args.out}")
    return 0 if result.passed else CHECK_FAILED


def main(argv=None) -> int:
    """Run one subcommand; the only place exceptions become exit codes."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "design": _cmd_design,
        "init": _cmd_init,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (StiffnessError, StepBudgetError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except OracleError as exc:
        print(f"oracle aborted: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InadmissibleParameterError as exc:  # only design's flags reach the recipe
        print(
            f"{args.command} error ({exc.constraint}): {exc}; pass --exploratory to force it",
            file=sys.stderr,
        )
        return USAGE_ERROR
    except KeyError as exc:
        print(f"{args.command} error: missing key {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, configparser.Error, MemoryError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
