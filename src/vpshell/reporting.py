"""Serialization layer: certificates, run configs, manifests, CSV tables.

INI (key/value with sections) holds configuration, certificates,
manifests, and membership and verification reports; CSV holds the run
record's tables: rows.csv (diagnostics), shells.csv (per-shell summary),
and snapshots (initial.csv included).  Each record is described once:
the rows.csv columns, the [certificate] and [class] keys and the report
sections' keys are dataclass fields, SHELLS_COLUMNS and SNAPSHOT_COLUMNS
map columns to attributes, _RUN_KEYS maps run.ini's keys to fields for
its writer and reader alike, and _STAGE_KEYS maps the keys of each
[stage:<name>] section of membership.ini and verification.ini to
StageResult's fields.  Every table is written by _write_table and read
by _read_table, every INI file is written by _write_ini and read inside
_reading_ini, and _ini_value is the one rule by which an INI value
becomes text.  Ids and ints are written as digits, other numbers as
repr(float(x)), which round-trips exactly, so a rerun reproduces output
byte for byte; a field declared float is written as a float even where
it holds an int.  save_run calls repr once per distinct float bit
pattern of the run's tables, gathers each column's cells from that one
text table and joins rows with str.join.  _read_table parses a table
with one np.loadtxt call, which rounds as float() does; a table it
cannot parse, a blank line and a non-ASCII line are refused with
RecordError naming the file and, for a wrong field count, the line.  The
manifest deliberately omits wall-clock times and thread counts: results
do not depend on them and reruns must compare equal.  load_run_data
reads a run directory back as the dynamics.RunResult integrate returned,
every field of it, and raises RecordError for one whose tables disagree
with the manifest or with each other; require_manifest_matches reads the
manifest's [class] and the run's own certificate.ini to refuse a
certificate the run was not made from.
Every INI reader raises RecordError starting with the file's path for a
file it cannot decode or parse, a missing section or key, and a value
that is not a finite number, true or false where one is expected;
load_run_config also refuses a key it does not read,
load_verification_report a stage status other than pass, fail or
skipped, and load_certificate a certificate design.rederive does not
remake.  RunSetup refuses a grid size that is not an integer, which
run.ini could not read back.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import itertools
import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .design import (
    STAGE_STATUSES,
    BoundsCertificate,
    InadmissibleParameterError,
    MembershipReport,
    RefusalError,
    StageResult,
    VerificationReport,
    rederive,
)
from .dynamics import DiagnosticsRow, IntegratorConfig, RunResult
from .field import N_BINS
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


def _ini_value(value) -> str:
    """The text of an INI value: true or false, an int's digits, a str as
    it is, a tuple's entries joined by commas, any other number as
    repr(float(x)), which round-trips exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_ini_value, value))
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    return repr(float(value))


def _write_ini(path, sections: dict) -> Path:
    """Write {section: {key: value}} as an INI file, leaving out None values."""
    parser = _new_parser()
    for name, values in sections.items():
        parser[name] = {key: _ini_value(v) for key, v in values.items() if v is not None}
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        parser.write(handle)
    return path


# declared field type -> parse of its INI text; every other field is a float
_PARSE = {
    bool: _bool, str: str, int: int, Optional[int]: int,
    tuple[float, ...]: lambda text: tuple(_float(s) for s in text.split(",") if s.strip()),
}
_FLOAT_TYPES = (float, Optional[float])


@functools.cache
def _field_types(cls) -> dict:
    """Declared type of each init field of a dataclass, resolved once."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def _to_section(record, skip: str = "") -> dict:
    """The init fields of a dataclass but skip, by name; a field declared
    float, or tuple[float, ...], holds floats even where given ints."""
    types = _field_types(type(record))
    section = {name: getattr(record, name) for name in types if name != skip}
    for name, value in section.items():
        if value is not None and types[name] in _FLOAT_TYPES:
            section[name] = float(value)
        elif types[name] == tuple[float, ...]:
            section[name] = tuple(map(float, value))
    return section


def _from_section(cls, section, skip: str = "") -> dict:
    """Keyword arguments for cls read back from a _to_section section."""
    types = _field_types(cls)
    return {
        f.name: _PARSE.get(types[f.name], _float)(section[f.name])
        for f in fields(cls)
        if f.init and f.name != skip and (f.name in section or f.default is MISSING)
    }


def _read_class(section) -> ClassSpec:
    return ClassSpec(**_from_section(ClassSpec, section))


# ---------------------------------------------------------------- certificates

def _certificate_sections(cert: BoundsCertificate) -> dict:
    return {"certificate": _to_section(cert, skip="spec"), "class": _to_section(cert.spec)}


def save_certificate(cert: BoundsCertificate, path) -> Path:
    return _write_ini(path, _certificate_sections(cert))


def _differing_keys(cert: BoundsCertificate, other: BoundsCertificate) -> str:
    """The keys, comma-separated, at which the two certificates' files differ."""
    mine, theirs = _certificate_sections(cert), _certificate_sections(other)
    return ", ".join(k for s, v in mine.items() for k in v if v[k] != theirs[s][k])


def load_certificate(path) -> BoundsCertificate:
    with _reading_ini(path, f"certificate file not found: {path}") as parser:
        values = _from_section(BoundsCertificate, parser["certificate"], skip="spec")
        cert = BoundsCertificate(spec=_read_class(parser["class"]), **values)
        try:
            derived = rederive(cert)
        except InadmissibleParameterError as exc:
            raise ValueError(f"{exc}; set exploratory = true to force it") from exc
        differ = _differing_keys(cert, derived)
        if differ:
            raise ValueError(f"a {cert.recipe} certificate that differs from its recipe at {differ}")
        return cert


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
    cfl: float = IntegratorConfig.cfl
    mark_times: tuple[float, ...] = ()  # default: (certificate t_horizon,)

    def __post_init__(self):
        # a grid size run.ini could not read back as written is refused here
        for name in _RUN_KEYS["sampling"].values():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")

    def resolve(self, cert: BoundsCertificate):
        """Fill defaults from the certificate and check the result; returns
        (config, marks), what the manifest's [run] records, as floats.

        The default mark, the certificate's horizon, is left out of a run
        that ends before it; an explicit mark at or before the start t = 0
        or after t_end is refused, as is what IntegratorConfig refuses.
        """
        t_end = self.t_end if self.t_end is not None else cert.t_horizon
        for m in self.mark_times:
            if not m > 0.0:
                raise ValueError(f"mark time {m!r} is not after the start t = 0")
            if m > t_end:
                raise ValueError(f"mark time {m!r} is after t_end = {t_end!r}")
        marks = tuple(float(m) for m in self.mark_times or (cert.t_horizon,) if m <= t_end)
        dt_max = float(self.dt_max) if self.dt_max is not None else t_end / 50.0
        return IntegratorConfig(t_end=float(t_end), dt_max=dt_max, cfl=float(self.cfl)), marks


# run.ini: section -> {key: RunSetup field}, in written order.  Every
# [certificate] and [sampling] key is required, since RunSetup's grid
# defaults are not the run config's; the others fall back to RunSetup's.
_RUN_KEYS = {
    "certificate": {"file": "certificate_path"},
    "sampling": {"n_r": "n_r", "n_w": "n_w", "n_ell": "n_ell"},
    "integrator": {"cfl": "cfl", "t_end": "t_end", "dt_max": "dt_max"},
    "diagnostics": {"mark_times": "mark_times"},
}
_RUN_REQUIRED = ("certificate", "sampling")


def save_run_config(setup: RunSetup, path) -> Path:
    values = _to_section(setup)
    return _write_ini(path, {
        section: {key: values[name] for key, name in keys.items()}
        for section, keys in _RUN_KEYS.items()
    })


def load_run_config(path) -> RunSetup:
    """Parse a run config; RunSetup.resolve checks the values against the
    certificate.  A key this reads nowhere is refused, so a misspelt or
    retired one is never run silently at its default."""
    with _reading_ini(path, f"run config not found: {path}") as parser:
        for section in parser.sections():
            for key in parser[section]:
                if key not in _RUN_KEYS.get(section, ()):
                    raise ValueError(f"[{section}] {key} is not a run config key")
        text = {
            name: parser[section][key]
            for section, keys in _RUN_KEYS.items()
            for key, name in keys.items()
            if section in _RUN_REQUIRED or parser.has_option(section, key)
        }
        setup = RunSetup(**_from_section(RunSetup, text))
        if min(setup.n_r, setup.n_w, setup.n_ell) < 2:
            raise ValueError("need n_r, n_w and n_ell >= 2")
        return setup


# ------------------------------------------------------------------ run output

def _codec(name: str):
    """(dtype, parse) of a table column: ids are integers, the rest floats.
    np.loadtxt parses a table; parse is the Python function whose results it
    reproduces bitwise, used to find the cell a refusal names."""
    return (np.int64, int) if name == "id" else (np.float64, float)


def _float_bits(column) -> np.ndarray:
    return np.asarray(column, dtype=np.float64).view(np.int64)


class _FloatText:
    """repr of each distinct float of some tables, formatted once.

    A run's tables repeat most values: the initial r, w and ell are a few
    grid values, the snapshots share ell and weight, and shells.csv repeats
    the final r and w.  Keys are bit patterns, so -0.0 and each NaN payload
    keep their own text.  Only columns of the tables can be looked up.
    """

    def __init__(self, *tables):
        columns = {id(c): c for table in tables for name, c in table.items() if name != "id"}
        # a sort, not np.unique, which hashes int64 keys about 15x slower
        keys = np.sort(np.concatenate([_float_bits(c) for c in columns.values()]))
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self._keys = keys[first]
        self._text = np.array(list(map(repr, self._keys.view(np.float64).tolist())), dtype=object)

    def __call__(self, column) -> list:
        return self._text[np.searchsorted(self._keys, _float_bits(column))].tolist()


def _write_table(path: Path, columns: dict, text: Optional[_FloatText] = None) -> Path:
    """Write a CSV table from a mapping of column name to 1-D column; text
    formats the float columns, by default built from this table alone."""
    text = _FloatText(columns) if text is None else text
    cells = [
        text(column) if name != "id" else list(map(str, np.asarray(column, np.int64).tolist()))
        for name, column in columns.items()
    ]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells))
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


def save_snapshot(ens: Ensemble, path, *, text: Optional[_FloatText] = None) -> Path:
    """Write one ensemble state as a snapshot CSV."""
    return _write_table(Path(path), _columns(ens, SNAPSHOT_COLUMNS), text)


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
    shells = _columns(result, SHELLS_COLUMNS)
    snapshots = [_columns(ens, SNAPSHOT_COLUMNS) for _, ens in result.snapshots]
    text = _FloatText(rows, shells, *snapshots)
    _write_table(out / "rows.csv", rows, text)
    names = tuple(f"snapshot_{k:03d}.csv" for k in range(len(result.snapshots)))
    for name, (_, ens) in zip(names, result.snapshots):
        save_snapshot(ens, out / name, text=text)
    _write_table(out / "shells.csv", shells, text)

    save_certificate(cert, out / "certificate.ini")
    config, marks = setup.resolve(cert)
    times = tuple(float(time) for time, _ in result.snapshots)
    _write_ini(out / "manifest.ini", {
        "manifest": {"format": 1, "version": __version__},
        "run": {
            "n_r": setup.n_r, "n_w": setup.n_w, "n_ell": setup.n_ell,
            "n_shells": len(result.final), "n_bins": N_BINS, "cfl": config.cfl,
            "output_stride": 1,  # every state has a row
            "steps": result.steps, "t_end": config.t_end, "dt_max": config.dt_max,
            "mark_times": marks,
        },
        "class": _to_section(cert.spec),
        "snapshots": {"count": len(names), "files": names, "times": times},
    })
    return out


def _load_snapshot(path: Path, time: float) -> Ensemble:
    table = _read_table(path, SNAPSHOT_COLUMNS)
    return Ensemble(time=time, **{attr: table[name] for name, attr in SNAPSHOT_COLUMNS.items()})


def load_run_data(out_dir) -> RunResult:
    """Reload a run directory as the RunResult integrate returned, refusing
    a record that is incomplete or inconsistent.

    Raises RecordError unless the manifest lists [snapshots] count files
    and ascending times from the first to the last time of rows.csv,
    [run] steps is one less than rows.csv's rows (a step adds exactly
    one), every snapshot and shells.csv has [run] n_shells rows, the
    id, ell and weight columns of every snapshot, which a run never
    changes, and the r_final and w_final columns of shells.csv are
    bitwise equal to the final snapshot's.
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
        steps = int(manifest["run"]["steps"])
        if steps != len(rows) - 1:
            count = "few" if steps < len(rows) - 1 else "many"
            raise ValueError(f"[run] steps = {steps} is too {count} for rows.csv's {len(rows)} rows")
    snapshots = [
        (time, _load_snapshot(out / name, time)) for name, time in zip(files, times)
    ]
    shells = _read_table(out / "shells.csv", SHELLS_COLUMNS)

    lengths = [("shells.csv", len(shells["id"]))]
    lengths += [(name, len(ens)) for name, (_, ens) in zip(files, snapshots)]
    for name, length in lengths:
        if length != n_shells:
            raise RecordError(f"{out / name}: {length} rows, [run] n_shells is {n_shells}")
    final = _columns(snapshots[-1][1], SNAPSHOT_COLUMNS)
    for name, (_, ens) in zip(files, snapshots):
        for column in ("id", "ell", "weight"):
            if getattr(ens, SNAPSHOT_COLUMNS[column]).tobytes() != final[column].tobytes():
                raise RecordError(f"{out / name}: column {column} differs from {files[-1]}")

    run = RunResult(
        rows=rows,
        snapshots=snapshots,
        **{attr: shells[name] for name, attr in SHELLS_COLUMNS.items() if "." not in attr},
    )
    for name, column in _columns(run, SHELLS_COLUMNS).items():
        if column.tobytes() != shells[name].tobytes():
            raise RecordError(f"{out / 'shells.csv'}: column {name} differs from {files[-1]}")
    return run


def require_manifest_matches(out_dir, run: RunResult, cert: BoundsCertificate, cert_path):
    """Refuse to verify run, read from out_dir, against a certificate it was
    not produced from: the class parameters recorded in the manifest must
    agree, and the run's own certificate.ini must load and equal cert but
    for exploratory, a mark that only weakens a claim.  Also refuse a run
    that holds no snapshot at the certificate's horizon T.  cert_path
    names the certificate's file in the refusal."""
    manifest_path = Path(out_dir) / "manifest.ini"
    with _reading_ini(manifest_path, f"no manifest.ini under {out_dir}") as manifest:
        spec = _read_class(manifest["class"])
    if spec != cert.spec:
        raise RefusalError(
            f"{manifest_path}: class parameters {spec} do not match "
            f"certificate {cert_path}: {cert.spec}"
        )
    own_path = Path(out_dir) / "certificate.ini"
    try:
        own = load_certificate(own_path)
    except (RecordError, FileNotFoundError) as exc:
        raise RefusalError(f"{exc}; the run cannot be checked against {cert_path}") from None
    differ = _differing_keys(replace(own, exploratory=cert.exploratory), cert)
    if differ:
        raise RefusalError(f"{own_path}: the run's certificate differs from {cert_path} at {differ}")
    try:
        run.snapshot_at(cert.t_horizon)
    except KeyError:
        raise RefusalError(
            f"{manifest_path}: run has no snapshot at certificate {cert_path}'s "
            f"T = {cert.t_horizon!r}; it ends at t = {run.final.time!r}"
        ) from None


# -------------------------------------------------------- validation reports

def save_oracle_summary(result, path) -> Path:
    """Write the outcome counts of an oracle-suite run."""
    counts = {
        "cases": result.n_cases, "violations": len(result.violations), "passed": result.passed,
    }
    return _write_ini(path, {"oracle-suite": counts})


# [stage:<name>] key -> StageResult field, in membership.ini and
# verification.ini alike; their head section holds passed and the
# report's fields but stages
_STAGE_KEYS = {"status": "status", "detail": "detail", "witness_shell": "witness_id"}


def _save_stages(report, head: str, path) -> Path:
    sections = {head: {"passed": report.passed, **_to_section(report, skip="stages")}}
    for s in report.stages:
        sections[f"stage:{s.name}"] = {key: getattr(s, name) for key, name in _STAGE_KEYS.items()}
    return _write_ini(path, sections)


def save_membership_report(report: MembershipReport, path) -> Path:
    return _save_stages(report, "membership", path)


def save_verification_report(report: VerificationReport, path) -> Path:
    return _save_stages(report, "verification", path)


def load_verification_report(path) -> VerificationReport:
    with _reading_ini(path, f"verification report not found: {path}") as parser:
        stages = []
        for section, s in parser.items():
            if section.startswith("stage:"):
                text = {name: s[key] for key, name in _STAGE_KEYS.items() if key in s}
                values = _from_section(StageResult, text, skip="name")
                if values["status"] not in STAGE_STATUSES:
                    raise ValueError(
                        f"[{section}] status {values['status']!r} is not one of "
                        f"{', '.join(STAGE_STATUSES)}"
                    )
                stages.append(StageResult(name=section[len("stage:"):], **values))
        head = _from_section(VerificationReport, parser["verification"], skip="stages")
        return VerificationReport(tuple(stages), **head)
