"""Serialization layer: certificates, run configs, manifests, CSV output.

All file formats are human-readable: INI (key/value with sections) for
configuration, certificates, manifests, and verification reports; CSV
for the diagnostics time series, per-shell summaries, and snapshots.
Floats are written as repr(float(x)), which round-trips exactly, so a
rerun of the same configuration reproduces output byte for byte.  The
manifest deliberately omits wall-clock times and thread counts: results
do not depend on them and reruns must compare equal.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .design import BoundsCertificate, RefusalError, StageResult, VerificationReport
from .dynamics import DiagnosticsRow, IntegratorConfig, RunResult, SnapshotLookup
from .initial_data import ClassSpec
from .phase_space import Ensemble

ROWS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))
SHELLS_COLUMNS = (
    "id",
    "ell",
    "weight",
    "turning_time",
    "r_min",
    "t_at_r_min",
    "r_final",
    "w_final",
)
SNAPSHOT_COLUMNS = ("id", "r", "w", "ell", "weight")


def _fmt(x: float) -> str:
    return repr(float(x))


def _new_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    return parser


def _write_ini(parser: configparser.ConfigParser, path: Path):
    with open(path, "w", newline="\n") as handle:
        parser.write(handle)


def _class_section(spec: ClassSpec) -> dict:
    """The [class] section shared by certificates and run manifests."""
    section = {"a0": _fmt(spec.a0), "a1": _fmt(spec.a1), "eps": _fmt(spec.eps)}
    if spec.target_mass is not None:
        section["target_mass"] = _fmt(spec.target_mass)
    return section


def _read_class(section) -> ClassSpec:
    return ClassSpec(
        a0=float(section["a0"]),
        a1=float(section["a1"]),
        eps=float(section["eps"]),
        target_mass=float(section["target_mass"]) if "target_mass" in section else None,
    )


# ---------------------------------------------------------------- certificates

def save_certificate(cert: BoundsCertificate, path) -> Path:
    path = Path(path)
    parser = _new_parser()
    parser["certificate"] = {
        "recipe": cert.recipe,
        "c1": _fmt(cert.c1),
        "c2": _fmt(cert.c2),
        "t_horizon": _fmt(cert.t_horizon),
        "eps_admissible_max": _fmt(cert.eps_admissible_max),
        "exploratory": "true" if cert.exploratory else "false",
        "sup_r_bound": _fmt(cert.sup_r_bound),
        "rhot_lower": _fmt(cert.rhot_lower),
        "et_lower": _fmt(cert.et_lower),
        "mass_used": _fmt(cert.mass_used),
    }
    for key in ("rho0_sup_bound", "e0_sup_bound", "c0", "eta"):
        value = getattr(cert, key)
        if value is not None:
            parser["certificate"][key.lower()] = _fmt(value)
    parser["class"] = _class_section(cert.spec)
    _write_ini(parser, path)
    return path


def load_certificate(path) -> BoundsCertificate:
    parser = _new_parser()
    if not parser.read(path):
        raise FileNotFoundError(f"certificate file not found: {path}")
    c = parser["certificate"]

    def opt(key: str) -> Optional[float]:
        return float(c[key]) if key in c else None

    return BoundsCertificate(
        recipe=c["recipe"],
        c1=float(c["c1"]),
        c2=float(c["c2"]),
        spec=_read_class(parser["class"]),
        t_horizon=float(c["t_horizon"]),
        eps_admissible_max=float(c["eps_admissible_max"]),
        exploratory=c["exploratory"] == "true",
        sup_r_bound=float(c["sup_r_bound"]),
        rhot_lower=float(c["rhot_lower"]),
        et_lower=float(c["et_lower"]),
        mass_used=float(c["mass_used"]),
        rho0_sup_bound=opt("rho0_sup_bound"),
        e0_sup_bound=opt("e0_sup_bound"),
        c0=opt("c0"),
        eta=opt("eta"),
    )


# ----------------------------------------------------------------- run configs

@dataclass(frozen=True)
class RunSetup:
    """Parsed run configuration: certificate reference plus numerics."""

    certificate_path: str
    n_r: int = 40
    n_w: int = 44
    n_ell: int = 28
    t_end: Optional[float] = None  # default: certificate t_horizon
    dt_max: Optional[float] = None  # default: t_end / 50
    cfl: float = 0.2
    output_stride: int = 1
    n_bins: int = 256
    mark_times: tuple = ()  # default: (certificate t_horizon,)

    def resolve(self, cert: BoundsCertificate):
        """Fill defaults from the certificate; returns (config, marks)."""
        t_end = self.t_end if self.t_end is not None else cert.t_horizon
        dt_max = self.dt_max if self.dt_max is not None else t_end / 50.0
        marks = self.mark_times if self.mark_times else (cert.t_horizon,)
        marks = tuple(m for m in marks if m <= t_end)
        config = IntegratorConfig(
            t_end=t_end, dt_max=dt_max, cfl=self.cfl, output_stride=self.output_stride
        )
        return config, marks


def save_run_config(setup: RunSetup, path) -> Path:
    path = Path(path)
    parser = _new_parser()
    parser["certificate"] = {"file": setup.certificate_path}
    parser["sampling"] = {
        "n_r": str(setup.n_r),
        "n_w": str(setup.n_w),
        "n_ell": str(setup.n_ell),
    }
    integ = {"cfl": _fmt(setup.cfl), "output_stride": str(setup.output_stride)}
    if setup.t_end is not None:
        integ["t_end"] = _fmt(setup.t_end)
    if setup.dt_max is not None:
        integ["dt_max"] = _fmt(setup.dt_max)
    parser["integrator"] = integ
    parser["diagnostics"] = {
        "n_bins": str(setup.n_bins),
        "mark_times": ",".join(_fmt(m) for m in setup.mark_times),
    }
    _write_ini(parser, path)
    return path


def load_run_config(path) -> RunSetup:
    parser = _new_parser()
    if not parser.read(path):
        raise FileNotFoundError(f"run config not found: {path}")
    integ = parser["integrator"] if "integrator" in parser else {}
    diag = parser["diagnostics"] if "diagnostics" in parser else {}
    marks_raw = diag.get("mark_times", "")
    marks = tuple(float(s) for s in marks_raw.split(",") if s.strip())
    return RunSetup(
        certificate_path=parser["certificate"]["file"],
        n_r=int(parser["sampling"]["n_r"]),
        n_w=int(parser["sampling"]["n_w"]),
        n_ell=int(parser["sampling"]["n_ell"]),
        t_end=float(integ["t_end"]) if "t_end" in integ else None,
        dt_max=float(integ["dt_max"]) if "dt_max" in integ else None,
        cfl=float(integ.get("cfl", "0.2")),
        output_stride=int(integ.get("output_stride", "1")),
        n_bins=int(diag.get("n_bins", "256")),
        mark_times=marks,
    )


# ------------------------------------------------------------------ run output

def _write_csv(path: Path, header, rows_iter):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows_iter:
            writer.writerow(row)


def save_snapshot(ens: Ensemble, path) -> Path:
    """Write one ensemble state as a snapshot CSV."""
    path = Path(path)
    _write_csv(
        path,
        SNAPSHOT_COLUMNS,
        (
            [
                str(int(ens.ids[i])),
                _fmt(ens.r[i]),
                _fmt(ens.w[i]),
                _fmt(ens.ell[i]),
                _fmt(ens.weight[i]),
            ]
            for i in range(len(ens))
        ),
    )
    return path


def save_run(
    result: RunResult,
    cert: BoundsCertificate,
    setup: RunSetup,
    out_dir,
) -> Path:
    """Write manifest.ini, rows.csv, shells.csv, and snapshot files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out / "rows.csv",
        ROWS_COLUMNS,
        ([_fmt(getattr(row, name)) for name in ROWS_COLUMNS] for row in result.rows),
    )

    final = result.final
    _write_csv(
        out / "shells.csv",
        SHELLS_COLUMNS,
        (
            [
                str(int(final.ids[i])),
                _fmt(final.ell[i]),
                _fmt(final.weight[i]),
                _fmt(result.turning_time[i]),
                _fmt(result.r_min_shell[i]),
                _fmt(result.t_at_r_min[i]),
                _fmt(final.r[i]),
                _fmt(final.w[i]),
            ]
            for i in range(len(final))
        ),
    )

    snapshot_files = []
    for k, (time, ens) in enumerate(result.snapshots):
        name = f"snapshot_{k:03d}.csv"
        save_snapshot(ens, out / name)
        snapshot_files.append((name, time))

    parser = _new_parser()
    parser["manifest"] = {"format": "1", "version": __version__}
    cert_path = Path(out / "certificate.ini")
    save_certificate(cert, cert_path)
    parser["run"] = {
        "n_r": str(setup.n_r),
        "n_w": str(setup.n_w),
        "n_ell": str(setup.n_ell),
        "n_shells": str(len(final)),
        "n_bins": str(setup.n_bins),
        "cfl": _fmt(setup.cfl),
        "output_stride": str(setup.output_stride),
        "steps": str(result.steps),
    }
    config, marks = setup.resolve(cert)
    parser["run"]["t_end"] = _fmt(config.t_end)
    parser["run"]["dt_max"] = _fmt(config.dt_max)
    parser["run"]["mark_times"] = ",".join(_fmt(m) for m in marks)
    parser["class"] = _class_section(cert.spec)
    parser["snapshots"] = {
        "count": str(len(snapshot_files)),
        "files": ",".join(name for name, _ in snapshot_files),
        "times": ",".join(_fmt(t) for _, t in snapshot_files),
    }
    _write_ini(parser, out / "manifest.ini")
    return out


def _load_snapshot(path: Path, time: float) -> Ensemble:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != SNAPSHOT_COLUMNS:
            raise ValueError(f"unexpected snapshot columns in {path}: {header}")
        data = list(reader)
    ids = np.array([int(row[0]) for row in data], dtype=np.int64)
    cols = np.array([[float(v) for v in row[1:]] for row in data], dtype=float)
    return Ensemble(
        r=cols[:, 0], w=cols[:, 1], ell=cols[:, 2], weight=cols[:, 3], ids=ids, time=time
    )


@dataclass
class RunSummary(SnapshotLookup):
    """Reloaded run record exposing the same surface verify needs."""

    rows: list
    snapshots: list  # of (time, Ensemble)
    turning_time: np.ndarray
    r_min_shell: np.ndarray
    t_at_r_min: np.ndarray
    manifest: configparser.ConfigParser
    final: Ensemble = field(init=False)

    def __post_init__(self):
        self.final = self.snapshots[-1][1]


def load_run_data(out_dir) -> RunSummary:
    out = Path(out_dir)
    manifest = _new_parser()
    if not manifest.read(out / "manifest.ini"):
        raise FileNotFoundError(f"no manifest.ini under {out}")

    rows = []
    with open(out / "rows.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != ROWS_COLUMNS:
            raise ValueError(f"unexpected rows.csv columns: {header}")
        for row in reader:
            rows.append(DiagnosticsRow(*[float(v) for v in row]))

    with open(out / "shells.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != SHELLS_COLUMNS:
            raise ValueError(f"unexpected shells.csv columns: {header}")
        data = list(reader)
    turning = np.array([float(row[3]) for row in data], dtype=float)
    r_min_shell = np.array([float(row[4]) for row in data], dtype=float)
    t_at_r_min = np.array([float(row[5]) for row in data], dtype=float)

    snaps = manifest["snapshots"]
    files = snaps["files"].split(",")
    times = [float(s) for s in snaps["times"].split(",")]
    snapshots = [
        (time, _load_snapshot(out / name, time)) for name, time in zip(files, times)
    ]
    return RunSummary(
        rows=rows,
        snapshots=snapshots,
        turning_time=turning,
        r_min_shell=r_min_shell,
        t_at_r_min=t_at_r_min,
        manifest=manifest,
    )


def require_manifest_matches(summary: RunSummary, cert: BoundsCertificate):
    """Refuse to verify a run against a certificate it was not produced
    from: the class parameters recorded in the manifest must agree."""
    recorded = _read_class(summary.manifest["class"])
    if recorded != cert.spec:
        raise RefusalError(
            f"run manifest class parameters {recorded} do not match "
            f"certificate {cert.spec}"
        )


# -------------------------------------------------------- validation reports

def save_membership_report(report, path) -> Path:
    """Write a data-validation report (one section per condition)."""
    path = Path(path)
    parser = _new_parser()
    parser["membership"] = {"passed": "true" if report.passed else "false"}
    for check in report.checks:
        section = f"check:{check.name}"
        parser[section] = {
            "passed": "true" if check.passed else "false",
            "hard": "true" if check.hard else "false",
            "detail": check.detail,
        }
        if check.witness is not None:
            parser[section]["witness"] = ",".join(repr(v) for v in check.witness)
    _write_ini(parser, path)
    return path


def save_oracle_summary(result, path) -> Path:
    """Write the outcome counts of an oracle-suite run."""
    path = Path(path)
    parser = _new_parser()
    parser["oracle-suite"] = {
        "cases": str(result.n_cases),
        "violations": str(len(result.violations)),
        "passed": "true" if result.passed else "false",
    }
    _write_ini(parser, path)
    return path


def save_verification_report(report: VerificationReport, path) -> Path:
    path = Path(path)
    parser = _new_parser()
    parser["verification"] = {
        "passed": "true" if report.passed else "false",
        "exploratory": "true" if report.exploratory else "false",
    }
    for stage in report.stages:
        section = f"stage:{stage.name}"
        parser[section] = {"status": stage.status, "detail": stage.detail}
        if stage.witness_id is not None:
            parser[section]["witness_shell"] = str(stage.witness_id)
    _write_ini(parser, path)
    return path


def load_verification_report(path) -> VerificationReport:
    parser = _new_parser()
    if not parser.read(path):
        raise FileNotFoundError(f"verification report not found: {path}")
    stages = []
    for section in parser.sections():
        if not section.startswith("stage:"):
            continue
        s = parser[section]
        stages.append(
            StageResult(
                name=section[len("stage:"):],
                status=s["status"],
                detail=s["detail"],
                witness_id=int(s["witness_shell"]) if "witness_shell" in s else None,
            )
        )
    return VerificationReport(
        stages=tuple(stages),
        exploratory=parser["verification"]["exploratory"] == "true",
    )
