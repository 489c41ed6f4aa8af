import math

import numpy as np
import pytest

from qleak.baseline import (
    _CSV_HEADER,
    BACKENDS,
    DEFAULT_QC_VARIANCE,
    DEFAULT_SIM_VARIANCE,
    GROVER_KEYS,
    GroverVariant,
    HARDWARE,
    SIMULATOR,
    BaselineEntry,
    BaselineTable,
    TableFormatError,
    bundled_table_path,
    catalog_matrices,
    grover_catalog,
    grover_key_offset,
    load_table,
    nearest_neighbor_requirement,
    pairwise_matrix,
)
from qleak.csvout import write_csv
from qleak.stats import TimingDistribution


class TestTable:
    def test_bundled_shape(self, table):
        assert len(table) == 26
        assert table.sim_variance == DEFAULT_SIM_VARIANCE
        assert table.qc_variance == DEFAULT_QC_VARIANCE

    def test_entry_lookup(self, table):
        e = table.entry("GHZ")
        assert e.latency(SIMULATOR) == pytest.approx(0.168084145)
        assert e.latency(HARDWARE) == pytest.approx(2.779299043)
        with pytest.raises(ValueError):
            table.entry("nope")

    def test_roundtrip(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, _CSV_HEADER, (
            [e.name, e.sim_latency, e.qc_latency, e.sim_required, e.qc_required]
            for e in table.entries
        ), digits=12)
        again = load_table(path)
        for a, b in zip(table.entries, again.entries):
            assert a.name == b.name
            for backend in BACKENDS:
                assert a.latency(backend) == pytest.approx(
                    b.latency(backend), rel=1e-8
                )

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TableFormatError):
            load_table(p)

    def test_duplicate_names_rejected(self):
        e = BaselineEntry("x", 1.0, 2.0, None, None)
        with pytest.raises(TableFormatError):
            BaselineTable((e, e))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            BaselineEntry("x", -1.0, 2.0, None, None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN requirement once printed a NaN rel_err in reproduce-table
        for args in ((bad, 2.0), (1.0, bad), (1.0, 2.0, bad), (1.0, 2.0, None, bad)):
            with pytest.raises(TableFormatError):
                BaselineEntry("x", *args)
        e = BaselineEntry("x", 1.0, 2.0)
        for variances in ((bad, 0.3), (0.003, bad)):
            with pytest.raises(TableFormatError):
                BaselineTable((e,), *variances)


class TestColumns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_column_holds_each_entrys_model(self, table, backend):
        column = table.column(backend)
        assert column == tuple(
            (e.name, TimingDistribution(e.latency(backend), table.variance(backend)))
            for e in table.entries
        )
        for i, name in enumerate(table.names):
            assert table.timing(name, backend) is column[i][1]

    def test_unknown_backend(self, table):
        with pytest.raises(ValueError, match="simulator.*hardware.*'gpu'"):
            table.column("gpu")

    def test_unknown_circuit(self, table):
        with pytest.raises(ValueError) as info:
            table.entry("nope")
        assert info.value.args == ("unknown circuit 'nope'",)

    def test_fields_alone_decide_equality_and_repr(self, table):
        again = BaselineTable(table.entries, table.sim_variance, table.qc_variance)
        assert again == table and hash(again) == hash(table)
        assert repr(again) == repr(table)
        assert "_columns" not in repr(table)


class TestLoadErrors:
    """A rejected row is reported as `<path>:<line>: <reason>`."""

    @pytest.mark.parametrize("row,reason", [
        ("GHZ,0.1,2.7", "expected 5 fields, got 3"),
        ("GHZ,fast,2.7,,", "bad sim_latency_s value 'fast'"),
        ("GHZ,0.1,2.7,x,", "bad sim_required value 'x'"),
        (",0.1,2.7,,", "empty circuit name"),
        ("GHZ,-0.1,2.7,,", "GHZ: latencies must be positive and finite (-0.1, 2.7)"),
    ], ids=["short-row", "bad-latency", "bad-required", "empty-name",
            "negative-latency"])
    def test_row_error_names_file_and_line(self, tmp_path, row, reason):
        p = tmp_path / "t.csv"
        # the blank line counts: the bad row is on line 4
        p.write_text(f"{','.join(_CSV_HEADER)}\nQFT,1.0,2.0,,\n\n{row}\n")
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == f"{p}:4: {reason}"

    def test_repeated_name_names_both_lines(self, tmp_path):
        text = bundled_table_path().read_text(encoding="utf-8")
        bv = text.splitlines()[2]
        assert bv.startswith("Bernstein-Vazirani Algorithm,")
        p = tmp_path / "t.csv"
        p.write_text(text + bv + "\n", encoding="utf-8")
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == (
            f"{p}:28: duplicate circuit name 'Bernstein-Vazirani Algorithm' "
            "(first on line 3)")

    @pytest.mark.parametrize("text,reason", [
        ("", "empty file"), (",".join(_CSV_HEADER) + "\n", "no data rows"),
    ], ids=["empty", "header-only"])
    def test_no_rows(self, tmp_path, text, reason):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == f"{p}: {reason}"

    def test_field_past_the_csv_limit_names_its_line(self, tmp_path):
        # the csv module's own error once escaped as a traceback
        p = tmp_path / "t.csv"
        p.write_text(f"{','.join(_CSV_HEADER)}\nGHZ,{'1' * 200_000},2.7,,\n")
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == f"{p}:2: field larger than field limit (131072)"

    def test_row_after_a_multi_line_field_names_its_own_line(self, tmp_path):
        # line 2's quoted qc_required cell runs on to line 3 and strips to
        # empty; the bad row starts on line 4, the table's third record
        p = tmp_path / "t.csv"
        p.write_text(f'{",".join(_CSV_HEADER)}\nA,1.0,2.0,,"\n"\nC,x,3.0,,\n')
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == f"{p}:4: bad sim_latency_s value 'x'"

    def test_name_with_a_line_break_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f'{",".join(_CSV_HEADER)}\nQFT,1.0,2.0,,\n"A\nB",1.0,2.0,,\n')
        with pytest.raises(TableFormatError) as info:
            load_table(p)
        assert str(info.value) == f"{p}:3: circuit name 'A\\nB' holds a line break"

    def test_empty_requirement_cells_are_absent(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"{','.join(_CSV_HEADER)}\nGHZ,0.1,2.7,2495.7,198.5\nQFT, 1.0 ,2.0,, \n")
        e = load_table(p).entry("QFT")
        assert (e.sim_latency, e.sim_required, e.qc_required) == (1.0, None, None)


class TestRequirements:
    def test_nearest_neighbor_ghz_sim(self, table):
        name, n = nearest_neighbor_requirement(table, "GHZ", SIMULATOR)
        assert name == "Hidden Shift Application Benchmark"
        assert n == pytest.approx(2495.773047, rel=1e-6)

    def test_nearest_neighbor_hidden_shift_sim(self, table):
        name, n = nearest_neighbor_requirement(
            table, "Hidden Shift Application Benchmark", SIMULATOR
        )
        assert n == pytest.approx(4957.915673, rel=1e-6)

    def test_grover_sim(self, table):
        _, n = nearest_neighbor_requirement(
            table, "Grover Search Algorithm Benchmark", SIMULATOR
        )
        assert n == pytest.approx(188580.9963, rel=1e-4)

    def test_floor_cells(self, table):
        # cleanly separated circuits report a single measurement
        _, n = nearest_neighbor_requirement(table, "Tphi Dephase Benchmark", SIMULATOR)
        assert n == 1.0
        for name in ("Rabi Oscillations", "T1/Qubit Lifetimes", "T2/Decoherence"):
            _, n = nearest_neighbor_requirement(table, name, HARDWARE)
            assert n == 1.0

    def test_pairwise_matrix(self, table):
        m = pairwise_matrix(table, SIMULATOR)
        k = len(table)
        assert m.shape == (k, k)
        assert np.all(np.isnan(np.diag(m)))
        off = m[~np.isnan(m)]
        assert np.all(off >= 1.0)
        assert np.allclose(m, m.T, equal_nan=True)

    def test_pairwise_matrix_needs_two_entries(self, table):
        with pytest.raises(ValueError, match="need at least two entries"):
            pairwise_matrix(BaselineTable(table.entries[:1]), SIMULATOR)


class TestGroverCatalog:
    def test_structure(self):
        cat = grover_catalog()
        assert len(cat) == 24
        assert [v.index for v in cat] == list(range(1, 25))
        assert {v.iterations for v in cat} == {1, 2, 3}
        assert sorted({v.key for v in cat}) == sorted(GROVER_KEYS)

    def test_index_derived(self):
        t = TimingDistribution(2.0, 0.3)
        assert GroverVariant("110", 2, t).index == 15
        with pytest.raises(ValueError):
            GroverVariant("1100", 2, t)
        with pytest.raises(ValueError):
            GroverVariant("110", 4, t)

    def test_key_offsets_centered_and_even(self):
        offs = [grover_key_offset(k, 0.0035) for k in GROVER_KEYS]
        assert sum(offs) == pytest.approx(0.0, abs=1e-15)
        steps = np.diff(offs)
        assert np.allclose(steps, steps[0])
        assert max(offs) - min(offs) == pytest.approx(0.0035)

    def test_mean_ordering(self):
        cat = grover_catalog()
        means = [v.timing.mean for v in cat]
        assert means == sorted(means)

    def test_matrices(self):
        cat = grover_catalog()
        ovl_m, req_m = catalog_matrices(cat)
        assert ovl_m.shape == req_m.shape == (24, 24)
        assert np.allclose(ovl_m, ovl_m.T)
        assert np.all(np.diag(ovl_m) == 1.0)
        off = req_m[~np.isnan(req_m)]
        assert np.all(off > 0)

    def test_same_iteration_overlap_extreme(self):
        cat = grover_catalog()
        ovl_m, _ = catalog_matrices(cat)
        for v in cat:
            for w in cat:
                if v.iterations == w.iterations and v.index != w.index:
                    assert ovl_m[v.index - 1, w.index - 1] > 0.99
