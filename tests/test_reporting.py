import csv
import dataclasses
import filecmp
import io
import re
import warnings
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpshell import (
    InitialData,
    IntegratorConfig,
    RefusalError,
    design_fixed_mass,
    design_small_data,
    integrate,
    sample_ensemble,
    verify_focusing_run,
)
from vpshell.design import StageResult, VerificationReport
from vpshell.dynamics import DiagnosticsRow, RunResult
from vpshell.phase_space import Ensemble
from vpshell.reporting import (
    SHELLS_COLUMNS,
    SNAPSHOT_COLUMNS,
    RecordError,
    RunSetup,
    _read_table,
    _write_table,
    load_certificate,
    load_run_config,
    load_run_data,
    load_verification_report,
    require_manifest_matches,
    save_certificate,
    save_membership_report,
    save_run,
    save_run_config,
    save_snapshot,
    save_verification_report,
)


@pytest.fixture(scope="module")
def small_run():
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, 8, 8, 6)
    setup = RunSetup(certificate_path="certificate.ini", n_r=8, n_w=8, n_ell=6)
    config, marks = setup.resolve(cert)
    result = integrate(ens, config, mark_times=marks)
    return cert, setup, result


class TestCertificateFiles:
    def test_small_data_round_trip(self, tmp_path):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        path = save_certificate(cert, tmp_path / "cert.ini")
        assert load_certificate(path) == cert

    def test_fixed_mass_round_trip(self, tmp_path):
        cert = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        loaded = load_certificate(save_certificate(cert, tmp_path / "cert.ini"))
        assert loaded == cert
        assert loaded.exploratory
        assert loaded.c0 == cert.c0 and loaded.eta == cert.eta
        assert loaded.spec.target_mass == 1.0

    def test_optional_fields_absent_for_fixed_mass(self, tmp_path):
        cert = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        loaded = load_certificate(save_certificate(cert, tmp_path / "cert.ini"))
        assert loaded.rho0_sup_bound is None
        assert loaded.e0_sup_bound is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_certificate(tmp_path / "nope.ini")


class TestRunConfigFiles:
    def test_round_trip_with_explicit_fields(self, tmp_path):
        setup = RunSetup(
            certificate_path="cert.ini",
            n_r=10, n_w=12, n_ell=8,
            t_end=0.02, dt_max=1e-4, cfl=0.15,
            output_stride=3, n_bins=64,
            mark_times=(0.005, 0.02),
        )
        path = save_run_config(setup, tmp_path / "run.ini")
        assert load_run_config(path) == setup

    def test_round_trip_with_defaults(self, tmp_path):
        setup = RunSetup(certificate_path="cert.ini")
        loaded = load_run_config(save_run_config(setup, tmp_path / "run.ini"))
        assert loaded == setup
        assert loaded.t_end is None and loaded.dt_max is None

    def test_resolve_fills_from_certificate(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        config, marks = RunSetup(certificate_path="x").resolve(cert)
        assert config.t_end == cert.t_horizon
        assert config.dt_max == cert.t_horizon / 50.0
        assert marks == (cert.t_horizon,)

    def test_resolve_drops_marks_beyond_horizon(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        setup = RunSetup(certificate_path="x", t_end=cert.t_horizon / 2.0)
        _, marks = setup.resolve(cert)
        assert marks == ()


class TestRunRecord:
    def test_round_trip(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        summary = load_run_data(out)

        assert summary.rows == result.rows
        assert np.isinf(result.turning_time).any()  # shells that never turned
        assert np.array_equal(summary.turning_time, result.turning_time)
        assert np.array_equal(summary.r_min_shell, result.r_min_shell)
        assert np.array_equal(summary.t_at_r_min, result.t_at_r_min)
        assert len(summary.snapshots) == len(result.snapshots)
        for (ta, ea), (tb, eb) in zip(summary.snapshots, result.snapshots):
            assert ta == tb
            assert np.array_equal(ea.r, eb.r)
            assert np.array_equal(ea.w, eb.w)
            assert np.array_equal(ea.ell, eb.ell)
            assert np.array_equal(ea.weight, eb.weight)
            assert np.array_equal(ea.ids, eb.ids)
        assert summary.final.total_mass == result.final.total_mass

    def test_verification_agrees_after_reload(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        summary = load_run_data(out)
        require_manifest_matches(summary, cert)
        a = verify_focusing_run(result, cert)
        b = verify_focusing_run(summary, cert)
        assert [s.status for s in a.stages] == [s.status for s in b.stages]
        assert a.passed and b.passed

    def test_manifest_mismatch_refused(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        summary = load_run_data(out)
        other = design_small_data(c1=32.0, c2=1e-7, eps=0.1)
        with pytest.raises(RefusalError):
            require_manifest_matches(summary, other)

    def test_rerun_is_byte_identical(self, tmp_path, small_run):
        cert, setup, result = small_run
        out1 = save_run(result, cert, setup, tmp_path / "a")
        out2 = save_run(result, cert, setup, tmp_path / "b")
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_manifest_has_no_environment_dependent_keys(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        text = (out / "manifest.ini").read_text()
        for banned in ("thread", "timestamp", "date", "hostname"):
            assert banned not in text.lower()

    def test_rows_header_is_diagnostics_row_fields(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        header = (out / "rows.csv").read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in dataclasses.fields(DiagnosticsRow)]

    def test_class_section_is_one_text(self, tmp_path, small_run):
        def class_section(path):
            # sections are written one after another, each closed by a blank line
            text = path.read_text()
            return text[text.index("[class]\n"):].split("\n\n")[0]

        small, setup, result = small_run
        fixed = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        for cert in (small, fixed):
            out = save_run(result, cert, setup, tmp_path / cert.recipe)
            manifest = class_section(out / "manifest.ini")
            assert manifest == class_section(out / "certificate.ini")
            assert ("target_mass" in manifest) == (cert.spec.target_mass is not None)

    def test_snapshot_writer_standalone(self, tmp_path, small_run):
        _, _, result = small_run
        path = save_snapshot(result.final, tmp_path / "snap.csv")
        header = path.read_text().splitlines()[0]
        assert header == "id,r,w,ell,weight"


class TestTables:
    def test_ids_and_infinities_round_trip(self, tmp_path):
        columns = {"id": np.array([3, 0, 7]), "t": np.array([np.inf, -0.0, 1e-300])}
        table = _read_table(_write_table(tmp_path / "t.csv", columns), ("id", "t"))
        assert (tmp_path / "t.csv").read_text() == "id,t\n3,inf\n0,-0.0\n7,1e-300\n"
        assert table["id"].dtype == np.int64 and table["id"].tolist() == [3, 0, 7]
        assert table["t"].tobytes() == columns["t"].tobytes()

    def test_wrong_header_names_the_file(self, tmp_path):
        path = _write_table(tmp_path / "t.csv", {"id": [1], "r": [2.0]})
        with pytest.raises(ValueError, match="t.csv"):
            _read_table(path, ("id", "w"))

    def test_short_row_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,r\n1,2.0\n2\n")
        with pytest.raises(ValueError, match="t.csv: line 3"):
            _read_table(path, ("id", "r"))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2.0\n\n3,4.0\n", "line 3 has 0 fields, expected 2"),
            ("1,2.0\n3,4.0\n\n", "line 4 has 0 fields, expected 2"),
            ("1,2.0\n \n3,4.0\n", "line 3 has 1 fields, expected 2"),
            ("1,2.0\n# a note\n3,4.0\n", "line 3 has 1 fields, expected 2"),
            ("#1,2.0\n3,4.0\n", "column id: "),
            ("1,2.0\n2\n", "line 3 has 1 fields, expected 2"),
            ("1,2.0\n2,3.0,4.0\n", "line 3 has 3 fields, expected 2"),
            ("1,2.0\n2,\n", "column r: "),
            ("1,2.0\n2,abc\n", "column r: "),
            ("1,2.0\n2.0,3.0\n", "column id: "),
            ("1,2.0\n\U000108be,3.0\n", "column id: "),
        ],
        ids=["blank-line", "trailing-blank-line", "space-line", "comment-line",
             "comment-row", "short-row", "long-row", "empty-cell", "non-numeric-cell",
             "float-id", "non-ascii-id"],
    )
    def test_malformed_row_is_refused(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text("id,r\n" + body)
        with pytest.raises(RecordError, match=re.escape(f"{path}: {message}")):
            _read_table(path, ("id", "r"))

    @pytest.mark.parametrize(
        "cell", ["\u0663".encode(), b"\xff"], ids=["arabic-indic-digit", "invalid-utf-8"]
    )
    def test_non_ascii_cell_is_refused(self, tmp_path, cell):
        """A table is ASCII: refused are an Arabic-Indic digit, which float()
        reads as 3.0, and a byte that does not decode at all."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,r\n1,2.0\n2," + cell + b"\n")
        with pytest.raises(RecordError, match=re.escape(f"{path}: column r: ")):
            _read_table(path, ("id", "r"))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("cell", ["1.0", "2.7", "1e3"])
    def test_float_id_is_refused_whatever_the_warning_filters(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"id,r\n1,2.0\n{cell},3.0\n")
        with pytest.raises(RecordError, match=re.escape(f"{path}: column id: ")):
            _read_table(path, ("id", "r"))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_float_id_is_refused_where_numpy_only_warns(self, tmp_path, monkeypatch):
        """Older numpy reads an int64 cell such as 2.7 through a float and
        only emits a DeprecationWarning; the table is still refused."""

        def loadtxt(lines, dtype, **kwargs):
            rows = [line.rstrip("\n").split(",") for line in lines]
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([(int(float(i)), float(r)) for i, r in rows], dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path = tmp_path / "t.csv"
        path.write_text("id,r\n1,2.0\n2.7,3.0\n")
        with pytest.raises(RecordError, match=re.escape(f"{path}: column id: ")):
            _read_table(path, ("id", "r"))

    @pytest.mark.parametrize(
        "text, found",
        [("id,w\n1,2.0\n", "id,w"), ("", ""), ("\n1,2.0\n", "")],
        ids=["wrong-header", "empty-file", "blank-header"],
    )
    def test_bad_header_is_refused(self, tmp_path, text, found):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(RecordError, match=re.escape(f"{path}: columns {found}, expected id,r")):
            _read_table(path, ("id", "r"))

    @given(
        cell=st.one_of(
            st.text(st.characters(blacklist_characters="\",\r\n", blacklist_categories=("Cs",)),
                    max_size=8),
            st.floats().map(repr),
            st.integers().map(str),
        ),
        column=st.sampled_from(["id", "r"]),
    )
    def test_cell_reads_as_python_parses_it(self, tmp_path_factory, cell, column):
        """A table is refused, or its cell reads bitwise as int() or float() parses it."""
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        path.write_text("id,r\n" + (f"{cell},1.0\n" if column == "id" else f"1,{cell}\n"))
        try:
            table = _read_table(path, ("id", "r"))
        except RecordError:
            return
        if column == "id":
            assert table["id"].tolist() == [int(cell)]
        else:
            assert table["r"].tobytes() == np.array([float(cell)]).tobytes()

    def test_header_only_is_an_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,r\n")
        table = _read_table(path, ("id", "r"))
        assert table["id"].dtype == np.int64 and table["id"].size == 0
        assert table["r"].dtype == np.float64 and table["r"].size == 0

    def test_reloaded_rows_hold_python_floats(self, tmp_path, small_run):
        cert, setup, result = small_run
        summary = load_run_data(save_run(result, cert, setup, tmp_path / "out"))
        for row in summary.rows:
            assert all(type(getattr(row, f.name)) is float for f in dataclasses.fields(row))


def _csv_writer_table(columns) -> bytes:
    """Reference bytes of a table: the csv-module writer the codec replaced."""
    cells = []
    for name, column in columns.items():
        if name == "id":
            cells.append(list(map(str, np.asarray(column, dtype=np.int64).tolist())))
        else:
            cells.append(list(map(repr, np.asarray(column, dtype=np.float64).tolist())))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buffer.getvalue().encode()


def _assert_round_trip(read, written):
    """read is bitwise equal to written, except that any nan reads as a nan."""
    written = np.asarray(written, dtype=np.float64)
    nan = np.isnan(written)
    assert read.tobytes() == np.where(nan, read, written).tobytes()
    assert np.isnan(read[nan]).all()


# repr switches to exponent notation at 1e16 and below 1e-4; the smallest
# subnormal and normal numbers, each with its neighbours; the special values
_EDGES = [
    x
    for base in (1e16, 1e-5, 1e-4, 5e-324, 2.2250738585072014e-308)
    for x in (np.nextafter(base, 0.0), base, np.nextafter(base, np.inf))
] + [0.0, 1.7976931348623157e308, np.inf, np.nan]
_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from(_EDGES).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 12))
    floats = st.lists(_FLOATS, min_size=n, max_size=n)
    return {
        "id": np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                       dtype=np.int64),
        "a": np.array(draw(floats), dtype=np.float64),
        "b": draw(floats),  # a list, as rows.csv's columns are
    }


class TestTableWriter:
    @given(columns=_tables())
    def test_bytes_match_csv_writer_and_round_trip(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("tables") / "t.csv"
        _write_table(path, columns)
        assert path.read_bytes() == _csv_writer_table(columns)
        table = _read_table(path, columns)
        assert table["id"].dtype == np.int64 and table["id"].tolist() == columns["id"].tolist()
        for name in ("a", "b"):
            assert table[name].dtype == np.float64
            _assert_round_trip(table[name], columns[name])

    def test_snapshots_with_distinct_columns(self, tmp_path):
        """Snapshots that share no array, not even ell: each file holds its own values."""
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        setup = RunSetup(certificate_path="certificate.ini", n_r=1, n_w=1, n_ell=3)
        snapshots = [
            (t, Ensemble(r=np.array([1.0, 2.0, 3.0]) + t, w=np.array([-0.5, 0.0, 1e-5]) * (1 + t),
                         ell=np.array([0.25, 1e16, 5e-324]) * (1 + t), weight=np.array([0.1, 0.2, 0.3]),
                         ids=np.array([4, 9, 2]), time=t))
            for t in (0.0, 0.5, 1.0)
        ]
        final = snapshots[-1][1]
        result = RunResult(
            rows=[DiagnosticsRow(t, 1.0, 2.0, 3.0, 0.5, 4.0, 0.0, 0.1) for t, _ in snapshots],
            snapshots=snapshots,
            final=final,
            turning_time=np.array([0.3, np.inf, 0.7]),
            r_min_shell=final.r - 0.5,
            t_at_r_min=np.array([0.3, 1.0, 0.7]),
            steps=2,
        )
        out = save_run(result, cert, setup, tmp_path / "out")
        shells = {name: attrgetter(attr)(result) for name, attr in SHELLS_COLUMNS.items()}
        assert (out / "shells.csv").read_bytes() == _csv_writer_table(shells)
        for k, (_, ens) in enumerate(snapshots):
            columns = {name: getattr(ens, attr) for name, attr in SNAPSHOT_COLUMNS.items()}
            assert (out / f"snapshot_{k:03d}.csv").read_bytes() == _csv_writer_table(columns)
        summary = load_run_data(out)
        for (_, read), (_, written) in zip(summary.snapshots, snapshots):
            assert read.ell.tobytes() == written.ell.tobytes()


def _drop_last_lines(name, k=3):
    def edit(out):
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines[:-k]))
    return edit


def _swap_first_rows(out):
    lines = (out / "shells.csv").read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    (out / "shells.csv").write_text("".join(lines))


def _bump_r_final(out):
    table = _read_table(out / "shells.csv", SHELLS_COLUMNS)
    table["r_final"][0] = np.nextafter(table["r_final"][0], np.inf)
    _write_table(out / "shells.csv", table)


def _edit_manifest(old, new):
    def edit(out):
        text = (out / "manifest.ini").read_text()
        assert old in text
        (out / "manifest.ini").write_text(text.replace(old, new))
    return edit


class TestRunDirectoryIntegrity:
    @pytest.mark.parametrize(
        "tamper",
        [
            _drop_last_lines("shells.csv"),
            _drop_last_lines("snapshot_001.csv"),
            _swap_first_rows,
            _bump_r_final,
            _edit_manifest("count = 2", "count = 3"),
            _edit_manifest("files = snapshot_000.csv,snapshot_001.csv", "files = snapshot_000.csv"),
        ],
        ids=["short-shells", "short-snapshot", "reordered-shells", "r-final-off-by-1ulp",
             "count", "files"],
    )
    def test_inconsistent_directory_is_refused(self, tmp_path, small_run, tamper):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        load_run_data(out)
        tamper(out)
        with pytest.raises(RecordError):
            load_run_data(out)


class TestReports:
    def test_verification_report_round_trip(self, tmp_path):
        report = VerificationReport(
            stages=(
                StageResult("initial-sup-norms", "pass", "ok"),
                StageResult("turning-after-T", "fail", "one early", witness_id=17),
                StageResult("total-mass", "skipped", "exploratory certificate"),
            ),
            exploratory=True,
        )
        loaded = load_verification_report(
            save_verification_report(report, tmp_path / "v.ini")
        )
        assert loaded == report
        assert not loaded.passed
        assert loaded.first_failure().witness_id == 17

    def test_membership_report_file(self, tmp_path, small_run):
        from vpshell import InitialData, check_membership

        cert, _, result = small_run
        data = InitialData.from_spec(cert.spec)
        report = check_membership(data, result.snapshots[0][1])
        path = save_membership_report(report, tmp_path / "m.ini")
        text = path.read_text()
        assert "[membership]" in text
        assert "passed = true" in text
        assert "[check:support-ellipse]" in text


@given(st.floats(allow_nan=False, allow_infinity=True))
def test_float_formatting_round_trips(x):
    from vpshell.reporting import _fmt

    assert float(_fmt(x)) == x
