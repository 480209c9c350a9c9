import configparser
import csv
import dataclasses
import filecmp
import io
import re
import warnings
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vpshell import (
    InitialData,
    IntegratorConfig,
    RefusalError,
    cli,
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
    _read_class,
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


# how a drawn certificate's eps is chosen: the recipe's default, drawn
# below the admissible bound, drawn past it and marked exploratory, or
# drawn below it and then marked exploratory by hand, which only weakens
# the claim
EPS_CHOICES = ("default", "admissible", "exploratory", "hand-marked")


def _drawn_certificate(seed):
    """A certificate from log-uniform draws of c1, c2, T and eps, redrawn
    until the recipe accepts them; seed picks the recipe and EPS_CHOICES."""
    rng = np.random.default_rng(seed)
    recipe = design_fixed_mass if seed % 2 else design_small_data
    choice = EPS_CHOICES[seed // 2 % len(EPS_CHOICES)]
    while True:
        c1, c2, t = 10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(-9, 0), 10.0 ** rng.uniform(-2, 1)
        targets = (c1, c2, t) if recipe is design_fixed_mass else (c1, c2)
        scale = 10.0 ** rng.uniform(0, 1.5) if choice == "exploratory" else rng.uniform(0.01, 1)
        try:
            cert = recipe(*targets)
            if choice != "default":
                eps = scale * cert.eps_admissible_max
                cert = recipe(*targets, eps=eps, exploratory=choice == "exploratory")
        except ValueError:  # a shell too thin to resolve, or T <= 0 at an admissible eps
            continue
        return dataclasses.replace(cert, exploratory=True) if choice == "hand-marked" else cert


CERTIFICATE_SEEDS = range(48)


class TestCertificateFiles:
    @pytest.mark.parametrize("seed", CERTIFICATE_SEEDS)
    def test_drawn_certificate_round_trips(self, tmp_path, seed):
        cert = _drawn_certificate(seed)
        path = save_certificate(cert, tmp_path / "cert.ini")
        assert load_certificate(path) == cert

    def test_drawn_certificates_cover_every_choice(self):
        """Both recipes with every EPS_CHOICES entry, exploratory and not,
        and small-data certificates whose T is not positive."""
        certs = [_drawn_certificate(seed) for seed in CERTIFICATE_SEEDS]
        assert {(c.recipe, c.exploratory) for c in certs} == {
            (recipe, marked) for recipe in ("small-data", "fixed-mass") for marked in (False, True)
        }
        assert any(c.recipe == "small-data" and c.t_horizon <= 0 for c in certs)

    def test_unmarked_inadmissible_certificate_is_refused(self, tmp_path, capsys):
        """eps = 0.2 is past the admissible 1.25e-7 of C1 = 32, C2 = 1: with
        its exploratory mark flipped to false the recipe refuses it."""
        cert = tmp_path / "cert.ini"
        design = ["design", "--c1", "32", "--c2", "1", "--eps", "0.2", "--exploratory"]
        assert cli.main([*design, "--out", str(cert)]) == 0
        cert.write_text(cert.read_text().replace("exploratory = true", "exploratory = false"))
        config = save_run_config(
            RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6), tmp_path / "run.ini"
        )
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run error: {cert}: eps = 0.2 is not below the admissible bound")
        assert err.count("\n") == 1 and "Traceback" not in err
        # the remedy is the file's own, not design's flag
        assert err.endswith("; set exploratory = true to force it\n")

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
            mark_times=(0.005, 0.02),
        )
        path = save_run_config(setup, tmp_path / "run.ini")
        assert load_run_config(path) == setup

    def test_round_trip_with_defaults(self, tmp_path):
        setup = RunSetup(certificate_path="cert.ini")
        loaded = load_run_config(save_run_config(setup, tmp_path / "run.ini"))
        assert loaded == setup
        assert loaded.t_end is None and loaded.dt_max is None

    @pytest.mark.parametrize("size", [8.0, True, "8", None])
    def test_non_integer_grid_size_is_refused(self, size):
        for name in ("n_r", "n_w", "n_ell"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                RunSetup(certificate_path="cert.ini", **{name: size})

    def test_integer_grid_sizes_round_trip(self, tmp_path):
        """Every grid size RunSetup accepts, numpy integers too, is written
        as digits that load_run_config reads back."""
        setup = RunSetup(certificate_path="cert.ini", n_r=np.int64(8), n_w=9, n_ell=np.int32(6))
        path = save_run_config(setup, tmp_path / "run.ini")
        assert "n_r = 8\n" in path.read_text()
        assert load_run_config(path) == setup

    def test_absent_t_end_leaves_the_step_budget_to_the_run(self, tmp_path):
        """The certificate's horizon fills t_end, so 1e8 steps of 1e-8 are
        not counted against dt_max alone."""
        setup = RunSetup(certificate_path="cert.ini", dt_max=1e-8)
        assert load_run_config(save_run_config(setup, tmp_path / "run.ini")) == setup

    def test_readme_example_is_the_default_config(self, tmp_path):
        """The README's run.ini example is what save_run_config writes for
        the defaults, up to trailing spaces, and loads back as them."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        setup = RunSetup(certificate_path="certificate.ini")
        written = save_run_config(setup, tmp_path / "run.ini").read_text()
        assert [line.rstrip() for line in example.rstrip().splitlines()] == [
            line.rstrip() for line in written.rstrip().splitlines()
        ]
        (tmp_path / "example.ini").write_text(example)
        assert load_run_config(tmp_path / "example.ini") == setup

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

    def test_resolve_refuses_explicit_marks_after_t_end(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        setup = RunSetup(certificate_path="x", t_end=0.004, mark_times=(0.002, 0.5))
        with pytest.raises(ValueError, match=r"mark time 0\.5 is after t_end = 0\.004"):
            setup.resolve(cert)
        setup = RunSetup(certificate_path="x", t_end=0.004, mark_times=(0.002, 0.004))
        assert setup.resolve(cert)[1] == (0.002, 0.004)


def _bits(value):
    """value as bytes, nested through lists, tuples and dataclasses, so that
    == compares floats and arrays bit for bit."""
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return np.asarray(value).tobytes()


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

    def test_manifest_alone_reproduces_the_run(self, tmp_path, small_run):
        """Sampling from the manifest's [class] and [run] grid and
        integrating with its [run] t_end, dt_max, cfl and mark_times gives
        load_run_data's RunResult, every field bit for bit."""
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        manifest = configparser.ConfigParser()
        manifest.optionxform = str
        manifest.read(out / "manifest.ini", encoding="utf-8")
        run = manifest["run"]
        data = InitialData.from_spec(_read_class(manifest["class"]))
        ens = sample_ensemble(data, *(int(run[key]) for key in ("n_r", "n_w", "n_ell")))
        config = IntegratorConfig(*(float(run[key]) for key in ("t_end", "dt_max", "cfl")))
        marks = [float(m) for m in run["mark_times"].split(",") if m]
        replay = integrate(ens, config, mark_times=marks)
        loaded = load_run_data(out)
        for f in dataclasses.fields(RunResult):
            assert _bits(getattr(replay, f.name)) == _bits(getattr(loaded, f.name)), f.name

    def test_verification_agrees_after_reload(self, tmp_path, small_run):
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        summary = load_run_data(out)
        require_manifest_matches(out, summary, cert, "cert.ini")
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
            require_manifest_matches(out, summary, other, "other.ini")

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
            turning_time=np.array([0.3, np.inf, 0.7]),
            r_min_shell=final.r - 0.5,
            t_at_r_min=np.array([0.3, 1.0, 0.7]),
        )
        out = save_run(result, cert, setup, tmp_path / "out")
        shells = {name: attrgetter(attr)(result) for name, attr in SHELLS_COLUMNS.items()}
        assert (out / "shells.csv").read_bytes() == _csv_writer_table(shells)
        for k, (_, ens) in enumerate(snapshots):
            columns = {name: getattr(ens, attr) for name, attr in SNAPSHOT_COLUMNS.items()}
            assert (out / f"snapshot_{k:03d}.csv").read_bytes() == _csv_writer_table(columns)
        for k, (_, written) in enumerate(snapshots):
            read = _read_table(out / f"snapshot_{k:03d}.csv", SNAPSHOT_COLUMNS)
            assert read["ell"].tobytes() == written.ell.tobytes()
        # a run never changes ell, so its record is not one a run makes
        with pytest.raises(RecordError, match=r"snapshot_000\.csv: column ell differs"):
            load_run_data(out)


@st.composite
def _shared_runs(draw):
    """A RunResult whose tables share values, as a run's do: every float is
    drawn from one small pool holding each value's upward neighbour too, the
    snapshots may share their ell and weight arrays, and r_min may equal the
    final r without being the same array."""
    n = draw(st.integers(0, 8))
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=5))
    with np.errstate(over="ignore"):  # the largest float's neighbour is inf
        pool += [float(np.nextafter(x, np.inf)) for x in pool]
    column = st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(np.array)
    # Ensemble refuses a negative or NaN weight
    weights = column.map(lambda c: np.where(np.isnan(c), 0.0, np.abs(c)))
    ell, weight = draw(column), draw(weights)
    shared = draw(st.booleans())
    with np.errstate(over="ignore"):  # total_mass may overflow to inf
        snapshots = [
            (float(k), Ensemble(r=draw(column), w=draw(column),
                                ell=ell if shared else draw(column),
                                weight=weight if shared else draw(weights),
                                ids=np.arange(n) * 3 - 5, time=float(k)))
            for k in range(draw(st.integers(1, 3)))
        ]
    final = snapshots[-1][1]
    n_fields = len(dataclasses.fields(DiagnosticsRow))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n_fields, max_size=n_fields),
                         min_size=1, max_size=4))
    return RunResult(
        rows=[DiagnosticsRow(*row) for row in rows],
        snapshots=snapshots,
        turning_time=draw(column),
        r_min_shell=final.r.copy() if draw(st.booleans()) else draw(column),
        t_at_r_min=draw(column),
    )


class TestRunWriter:
    @settings(max_examples=60, deadline=None)
    @given(result=_shared_runs())
    def test_every_table_matches_csv_writer(self, tmp_path_factory, result):
        """Tables that share values, among them -0.0, infinities, nan,
        subnormals, neighbouring floats and repr's exponent switch points."""
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        setup = RunSetup(certificate_path="certificate.ini", n_r=1, n_w=1, n_ell=1)
        out = save_run(result, cert, setup, tmp_path_factory.mktemp("run"))
        tables = {
            "rows.csv": {f.name: [getattr(row, f.name) for row in result.rows]
                         for f in dataclasses.fields(DiagnosticsRow)},
            "shells.csv": {name: attrgetter(attr)(result) for name, attr in SHELLS_COLUMNS.items()},
        }
        for k, (_, ens) in enumerate(result.snapshots):
            tables[f"snapshot_{k:03d}.csv"] = {
                name: getattr(ens, attr) for name, attr in SNAPSHOT_COLUMNS.items()
            }
        for name, columns in tables.items():
            assert (out / name).read_bytes() == _csv_writer_table(columns), name


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


def _edit_snapshot_0(column, edit):
    def tamper(out):
        table = _read_table(out / "snapshot_000.csv", SNAPSHOT_COLUMNS)
        table[column] = edit(table[column])
        _write_table(out / "snapshot_000.csv", table)
    return tamper


def _set_manifest_steps(steps):
    def edit(out):
        text = (out / "manifest.ini").read_text()
        (out / "manifest.ini").write_text(re.sub(r"^steps = \d+$", f"steps = {steps}", text, flags=re.M))
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

    @pytest.mark.parametrize(
        "tamper, refusal",
        [
            (_edit_snapshot_0("id", lambda ids: np.concatenate([[999999], ids[1:]])),
             r"snapshot_000\.csv: column id differs from snapshot_001\.csv"),
            (_edit_snapshot_0("ell", lambda ell: ell * 2.0),
             r"snapshot_000\.csv: column ell differs from snapshot_001\.csv"),
            (_edit_snapshot_0("weight", lambda weight: weight * 0.5),
             r"snapshot_000\.csv: column weight differs from snapshot_001\.csv"),
            (_set_manifest_steps(-5),
             r"manifest\.ini: \[run\] steps = -5 is too few for rows\.csv's \d+ rows"),
            (_set_manifest_steps(1000000),
             r"manifest\.ini: \[run\] steps = 1000000 is too many for rows\.csv's \d+ rows"),
        ],
        ids=["snapshot-0-id", "snapshot-0-ell-doubled", "snapshot-0-weight-halved", "steps-negative",
             "steps-too-many"],
    )
    def test_record_no_run_makes_is_refused_naming_its_file(
        self, tmp_path, small_run, tamper, refusal
    ):
        """A run never changes a shell's id, ell or weight, and each step
        adds exactly one row."""
        cert, setup, result = small_run
        out = save_run(result, cert, setup, tmp_path / "out")
        tamper(out)
        with pytest.raises(RecordError, match=refusal):
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
        assert [s.witness_id for s in loaded.stages if s.status == "fail"] == [17]

    @pytest.mark.parametrize("status", ["bogus", "PASS", ""])
    def test_unknown_stage_status_is_refused(self, tmp_path, status):
        report = VerificationReport(
            stages=(StageResult("total-mass", "pass", "ok"),), exploratory=False
        )
        path = save_verification_report(report, tmp_path / "v.ini")
        text = path.read_text()
        assert "status = pass\n" in text
        path.write_text(text.replace("status = pass\n", f"status = {status}\n"))
        with pytest.raises(RecordError, match=r"v\.ini: \[stage:total-mass\] status") as info:
            load_verification_report(path)
        assert str(path) in str(info.value)

    def test_membership_report_file(self, tmp_path, small_run):
        from vpshell import InitialData, check_membership

        cert, _, result = small_run
        data = InitialData.from_spec(cert.spec)
        report = check_membership(data, result.snapshots[0][1])
        path = save_membership_report(report, tmp_path / "m.ini")
        text = path.read_text()
        assert "[membership]" in text
        assert "passed = true" in text
        assert "[stage:support-ellipse]\nstatus = pass\n" in text


@given(st.floats(allow_nan=False, allow_infinity=True))
def test_float_formatting_round_trips(x):
    from vpshell.reporting import _ini_value

    assert float(_ini_value(x)) == x
