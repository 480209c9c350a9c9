"""Serialization layer: certificates, run configs, manifests, CSV tables.

INI (key/value with sections) holds configuration, certificates,
manifests, and verification reports; CSV holds the run record's tables:
rows.csv (diagnostics), shells.csv (per-shell summary), and snapshots
(initial.csv included).  Each record is described once: the rows.csv
columns and the [certificate] and [class] keys are dataclass fields,
SHELLS_COLUMNS and SNAPSHOT_COLUMNS map columns to attributes, and all
tables share _write_table and _read_table.  Ids are written as integers,
other values as repr(float(x)), which round-trips exactly, so a rerun
reproduces output byte for byte.  save_run formats each distinct column
once per run (the snapshots and shells.csv share their id, ell and weight
arrays, and shells.csv repeats the final r and w) and joins rows with
str.join.  _read_table parses a table with one np.loadtxt call, which
rounds as float() does; a table it cannot parse, a blank line and a
non-ASCII line are refused with RecordError naming the file and, for a
wrong field count, the line.  The manifest deliberately omits wall-clock
times and thread counts: results do not depend on them and reruns must
compare equal.  load_run_data raises RecordError for a run directory
whose tables disagree with the manifest or with each other.  Every INI
reader raises RecordError starting with the file's path for a file it
cannot decode or parse, a missing section or key, and a value that is not
a finite number, true or false where one is expected.
"""

from __future__ import annotations

import configparser
import contextlib
import itertools
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .design import BoundsCertificate, RefusalError, StageResult, VerificationReport
from .dynamics import DiagnosticsRow, IntegratorConfig, RunResult, SnapshotLookup
from .initial_data import ClassSpec
from .phase_space import Ensemble

ROWS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))
# column -> Ensemble attribute
SNAPSHOT_COLUMNS = {"id": "ids", "r": "r", "w": "w", "ell": "ell", "weight": "weight"}
# column -> run-record attribute; the "final." columns repeat the last snapshot
SHELLS_COLUMNS = {
    "id": "final.ids",
    "ell": "final.ell",
    "weight": "final.weight",
    "turning_time": "turning_time",
    "r_min": "r_min_shell",
    "t_at_r_min": "t_at_r_min",
    "r_final": "final.r",
    "w_final": "final.w",
}


class RecordError(ValueError):
    """A CSV table or run directory is malformed or inconsistent."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _new_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    return parser


@contextlib.contextmanager
def _reading_ini(path, not_found: str):
    """Parse the INI file at path; a file that cannot be decoded or parsed,
    and a missing or bad value read inside the block, raise RecordError
    naming path."""
    parser = _new_parser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise FileNotFoundError(not_found)
        yield parser
    except KeyError as exc:
        raise RecordError(f"{path}: missing section or key {exc}") from exc
    except (ValueError, ArithmeticError, configparser.Error) as exc:
        message = " ".join(str(exc).split())  # configparser's span several lines
        raise RecordError(f"{path}: {message}") from exc


def _float(text: str) -> float:
    """A float INI value; every one this package writes is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{text!r} is neither true nor false")
    return text == "true"


def _write_ini(parser: configparser.ConfigParser, path: Path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        parser.write(handle)


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else _fmt(value)


def _to_section(record, skip: str = "") -> dict:
    """INI section of a dataclass's fields, leaving out skip and None values."""
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.init and f.name != skip}
    return {key: _ini_value(value) for key, value in values.items() if value is not None}


def _from_section(cls, section, skip: str = "") -> dict:
    """Keyword arguments for cls read back from a _to_section section."""
    types = get_type_hints(cls)
    parse = {bool: _bool, str: str}
    return {
        f.name: parse.get(types[f.name], _float)(section[f.name])
        for f in fields(cls)
        if f.init and f.name != skip and (f.name in section or f.default is MISSING)
    }


def _read_class(section) -> ClassSpec:
    return ClassSpec(**_from_section(ClassSpec, section))


# ---------------------------------------------------------------- certificates

def save_certificate(cert: BoundsCertificate, path) -> Path:
    path = Path(path)
    parser = _new_parser()
    parser["certificate"] = _to_section(cert, skip="spec")
    parser["class"] = _to_section(cert.spec)
    _write_ini(parser, path)
    return path


def load_certificate(path) -> BoundsCertificate:
    with _reading_ini(path, f"certificate file not found: {path}") as parser:
        values = _from_section(BoundsCertificate, parser["certificate"], skip="spec")
        return BoundsCertificate(spec=_read_class(parser["class"]), **values)


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
        marks = self.mark_times if self.mark_times else (cert.t_horizon,)
        marks = tuple(m for m in marks if m <= t_end)
        return self._config(t_end), marks

    def _config(self, t_end: float) -> IntegratorConfig:
        dt_max = self.dt_max if self.dt_max is not None else t_end / 50.0
        return IntegratorConfig(
            t_end=t_end, dt_max=dt_max, cfl=self.cfl, output_stride=self.output_stride
        )


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
    with _reading_ini(path, f"run config not found: {path}") as parser:
        integ = parser["integrator"] if "integrator" in parser else {}
        diag = parser["diagnostics"] if "diagnostics" in parser else {}
        marks_raw = diag.get("mark_times", "")
        marks = tuple(_float(s) for s in marks_raw.split(",") if s.strip())
        setup = RunSetup(
            certificate_path=parser["certificate"]["file"],
            n_r=int(parser["sampling"]["n_r"]),
            n_w=int(parser["sampling"]["n_w"]),
            n_ell=int(parser["sampling"]["n_ell"]),
            t_end=_float(integ["t_end"]) if "t_end" in integ else None,
            dt_max=_float(integ["dt_max"]) if "dt_max" in integ else None,
            cfl=_float(integ.get("cfl", "0.2")),
            output_stride=int(integ.get("output_stride", "1")),
            n_bins=int(diag.get("n_bins", "256")),
            mark_times=marks,
        )
        # refuse here, naming this file, what the run would refuse later;
        # the certificate's horizon fills an absent t_end, so 1.0 stands in
        if min(setup.n_r, setup.n_w, setup.n_ell) < 2 or setup.n_bins < 1:
            raise ValueError("need n_r, n_w and n_ell >= 2 and n_bins >= 1")
        for m in marks:
            if not m > 0.0:
                raise ValueError(f"mark time {m!r} is not after the start t = 0")
        setup._config(1.0 if setup.t_end is None else setup.t_end)
        return setup


# ------------------------------------------------------------------ run output

def _codec(name: str):
    """(dtype, parse, format) of a table column: ids are integers, the rest
    floats.  np.loadtxt parses a table; parse is the Python function whose
    results it reproduces bitwise, used to find the cell a refusal names."""
    return (np.int64, int, str) if name == "id" else (np.float64, float, repr)


class _Cells:
    """Text cells of the columns of consecutive tables, each column object
    formatted once while consecutive tables share it.

    The tables of one run share columns: every snapshot holds the same id,
    ell and weight arrays (Ensemble.advanced passes them on), and shells.csv,
    written after the snapshots, repeats the final one's.  The cells of the
    previous table's columns are kept, keyed by object identity; the cache
    holds each column, so its id cannot be reused meanwhile.
    """

    def __init__(self):
        self._previous = {}  # key -> (column, cells)

    def __call__(self, columns: dict) -> list:
        """The cells of each column of a table, in order."""
        keys = [(id(column), _codec(name)[2]) for name, column in columns.items()]
        # drop the previous columns this table does not share before formatting
        previous = self._previous
        self._previous = current = {key: previous[key] for key in keys if key in previous}
        for key, (name, column) in zip(keys, columns.items()):
            if key not in current:
                dtype, _, fmt = _codec(name)
                current[key] = (column, list(map(fmt, np.asarray(column, dtype=dtype).tolist())))
        return [current[key][1] for key in keys]


def _write_table(path: Path, columns: dict, cells: Optional[_Cells] = None) -> Path:
    """Write a CSV table from a mapping of column name to 1-D column; cells
    shares formatted columns between the tables of one run."""
    cells = _Cells() if cells is None else cells
    rows = zip(*cells(columns))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(row) + "\n" for row in rows)
    return path


def _data_lines(handle):
    """The data lines of an open table, raising at a line np.loadtxt must not
    see: it skips a blank line, and it misreads some non-ASCII characters
    as digits or crashes on them (numpy 2.4).  A table is ASCII; other
    bytes decode to U+FFFD, so they reach the non-ASCII check."""
    for number, line in enumerate(handle, start=2):
        if line == "\n":
            raise ValueError(f"line {number} is blank")
        if not line.isascii():
            raise ValueError(f"line {number} is not ASCII")
        yield line


def _read_table(path: Path, names) -> dict:
    """Read a table written by _write_table; maps each name to its column."""
    names = tuple(names)
    dtype = np.dtype([(name, _codec(name)[0]) for name in names])
    with open(path, encoding="ascii", errors="replace") as handle:
        header = handle.readline().rstrip("\n")
        if tuple(header.split(",")) != names:
            raise RecordError(f"{path}: columns {header}, expected {','.join(names)}")
        lines = _data_lines(handle)
        try:
            first = next(lines, None)  # np.loadtxt warns on a table with no rows
            with warnings.catch_warnings():
                # older numpy reads an id such as 1.0 or 2.7 through a float and
                # only warns; refuse it whatever the caller's warning filters
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                data = np.empty(0, dtype) if first is None else np.loadtxt(
                    itertools.chain((first,), lines),
                    dtype=dtype, delimiter=",", comments=None, ndmin=1,
                )
        except (ValueError, DeprecationWarning) as exc:
            raise _refusal(path, names, exc) from exc
    return {name: np.ascontiguousarray(data[name]) for name in names}


def _refusal(path: Path, names: tuple, exc: Exception) -> RecordError:
    """The RecordError for a table _read_table could not parse: the first
    line with a wrong field count, else the first cell, column by column,
    that parse refuses, else exc, the reason _read_table stopped."""
    with open(path, encoding="ascii", errors="replace") as handle:
        handle.readline()
        rows = [line.rstrip("\n") for line in handle]
    rows = [line.split(",") if line else [] for line in rows]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(names):
            return RecordError(f"{path}: line {number} has {len(row)} fields, expected {len(names)}")
    for name, column in zip(names, zip(*rows)):
        parse = _codec(name)[1]
        try:
            for cell in column:
                parse(cell)
        except ValueError as cell_exc:
            return RecordError(f"{path}: column {name}: {cell_exc}")
    return RecordError(f"{path}: {exc}")


def _columns(record, attributes: dict) -> dict:
    return {name: attrgetter(attr)(record) for name, attr in attributes.items()}


def save_snapshot(ens: Ensemble, path, *, cells: Optional[_Cells] = None) -> Path:
    """Write one ensemble state as a snapshot CSV."""
    return _write_table(Path(path), _columns(ens, SNAPSHOT_COLUMNS), cells)


def save_run(
    result: RunResult,
    cert: BoundsCertificate,
    setup: RunSetup,
    out_dir,
) -> Path:
    """Write manifest.ini, rows.csv, shells.csv, and snapshot files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = {name: [getattr(row, name) for row in result.rows] for name in ROWS_COLUMNS}
    _write_table(out / "rows.csv", rows)
    cells = _Cells()
    snapshot_files = []
    for k, (time, ens) in enumerate(result.snapshots):
        name = f"snapshot_{k:03d}.csv"
        save_snapshot(ens, out / name, cells=cells)
        snapshot_files.append((name, time))
    _write_table(out / "shells.csv", _columns(result, SHELLS_COLUMNS), cells)

    parser = _new_parser()
    parser["manifest"] = {"format": "1", "version": __version__}
    save_certificate(cert, out / "certificate.ini")
    config, marks = setup.resolve(cert)
    parser["run"] = {
        "n_r": str(setup.n_r),
        "n_w": str(setup.n_w),
        "n_ell": str(setup.n_ell),
        "n_shells": str(len(result.final)),
        "n_bins": str(setup.n_bins),
        "cfl": _fmt(setup.cfl),
        "output_stride": str(setup.output_stride),
        "steps": str(result.steps),
        "t_end": _fmt(config.t_end),
        "dt_max": _fmt(config.dt_max),
        "mark_times": ",".join(_fmt(m) for m in marks),
    }
    parser["class"] = _to_section(cert.spec)
    parser["snapshots"] = {
        "count": str(len(snapshot_files)),
        "files": ",".join(name for name, _ in snapshot_files),
        "times": ",".join(_fmt(t) for _, t in snapshot_files),
    }
    _write_ini(parser, out / "manifest.ini")
    return out


def _load_snapshot(path: Path, time: float) -> Ensemble:
    table = _read_table(path, SNAPSHOT_COLUMNS)
    return Ensemble(time=time, **{attr: table[name] for name, attr in SNAPSHOT_COLUMNS.items()})


@dataclass
class RunSummary(SnapshotLookup):
    """Reloaded run record exposing the same surface verify needs."""

    rows: list
    snapshots: list  # of (time, Ensemble)
    turning_time: np.ndarray
    r_min_shell: np.ndarray
    t_at_r_min: np.ndarray
    spec: ClassSpec  # the manifest's [class]
    manifest_path: Path

    @property
    def final(self) -> Ensemble:
        return self.snapshots[-1][1]


def load_run_data(out_dir) -> RunSummary:
    """Reload a run directory, refusing one that is incomplete or inconsistent.

    Raises RecordError unless the manifest lists [snapshots] count files
    and ascending times from the first to the last time of rows.csv,
    every snapshot and shells.csv has [run] n_shells rows, and the id,
    ell, weight, r_final and w_final columns of shells.csv are bitwise
    equal to the final snapshot's.
    """
    out = Path(out_dir)
    table = _read_table(out / "rows.csv", ROWS_COLUMNS)
    rows = [DiagnosticsRow(*values) for values in zip(*(c.tolist() for c in table.values()))]

    with _reading_ini(out / "manifest.ini", f"no manifest.ini under {out}") as manifest:
        snaps = manifest["snapshots"]
        files = snaps["files"].split(",")
        times = [_float(s) for s in snaps["times"].split(",")]
        count = int(snaps["count"])
        if not len(files) == len(times) == count:
            raise ValueError(
                f"{len(files)} snapshot files and {len(times)} times listed, "
                f"[snapshots] count is {count}"
            )
        span = (rows[0].t, rows[-1].t) if rows else None
        if (times[0], times[-1]) != span or any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError(f"[snapshots] times {times} do not ascend over rows.csv's {span}")
        n_shells = int(manifest["run"]["n_shells"])
        spec = _read_class(manifest["class"])
    snapshots = [
        (time, _load_snapshot(out / name, time)) for name, time in zip(files, times)
    ]
    shells = _read_table(out / "shells.csv", SHELLS_COLUMNS)

    lengths = [("shells.csv", len(shells["id"]))]
    lengths += [(name, len(ens)) for name, (_, ens) in zip(files, snapshots)]
    for name, length in lengths:
        if length != n_shells:
            raise RecordError(f"{out / name}: {length} rows, [run] n_shells is {n_shells}")

    summary = RunSummary(
        rows=rows,
        snapshots=snapshots,
        spec=spec,
        manifest_path=out / "manifest.ini",
        **{attr: shells[name] for name, attr in SHELLS_COLUMNS.items() if "." not in attr},
    )
    for name, column in _columns(summary, SHELLS_COLUMNS).items():
        if column.tobytes() != shells[name].tobytes():
            raise RecordError(f"{out / 'shells.csv'}: column {name} differs from {files[-1]}")
    return summary


def require_manifest_matches(summary: RunSummary, cert: BoundsCertificate):
    """Refuse to verify a run against a certificate it was not produced
    from (the class parameters recorded in the manifest must agree), or a
    run that holds no snapshot at the certificate's horizon T."""
    if summary.spec != cert.spec:
        raise RefusalError(
            f"{summary.manifest_path}: class parameters {summary.spec} do not match "
            f"certificate {cert.spec}"
        )
    try:
        summary.snapshot_at(cert.t_horizon)
    except KeyError:
        raise RefusalError(
            f"run has no snapshot at T = {cert.t_horizon!r}; it ends at t = {summary.final.time!r}"
        ) from None


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
    with _reading_ini(path, f"verification report not found: {path}") as parser:
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
            exploratory=_bool(parser["verification"]["exploratory"]),
        )
