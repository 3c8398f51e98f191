import dataclasses
import math
import re
from pathlib import Path

import pytest

from mpshor import bench
from mpshor import cli
from mpshor import mps
from mpshor.circuit import ORDERINGS, reorder_registers, shor_order_circuit
from mpshor.mps import TruncationPolicy
from mpshor.pipeline import RunConfig


def strip_volatile(record):
    return dataclasses.replace(
        record,
        timestamp="",
        circuit_build_seconds=0.0,
        simulation_seconds=0.0,
        postprocess_seconds=0.0,
    )


class TestBenchSweep:
    def test_single_target_success_record(self):
        records = bench.bench_sweep([15], RunConfig(seed=3))
        assert len(records) == 1
        r = records[0]
        assert (r.n_value, r.bit_length, r.mode, r.status) == (15, 4, "preselected", "success")
        assert r.a_used == 4
        assert r.shots == 8
        assert r.peak_chi >= 2
        assert r.swap_count > 0
        assert r.simulation_seconds > 0

    def test_both_modes_two_records(self):
        records = bench.bench_sweep([15], RunConfig(seed=3), modes=("preselected", "random"))
        assert [r.mode for r in records] == ["preselected", "random"]
        assert all(r.n_value == 15 for r in records)

    def test_records_in_target_order(self):
        records = bench.bench_sweep([33, 15, 21], RunConfig(seed=0))
        assert [r.n_value for r in records] == [33, 15, 21]
        assert all(r.status == "success" for r in records)

    def test_timeout_recorded_not_fatal(self):
        records = bench.bench_sweep([15, 21], RunConfig(seed=0, timeout_seconds=1e-4))
        assert [r.status for r in records] == ["timeout", "timeout"]

    def test_invalid_target_recorded_as_exhausted(self, monkeypatch):
        # the sweep rejects an invalid target before any run, not as an exhausted row
        def no_run(n, config):
            raise AssertionError("factor() called before targets were validated")

        monkeypatch.setattr(bench, "factor", no_run)
        with pytest.raises(ValueError, match="N=17 is prime"):
            bench.bench_sweep([15, 17], RunConfig(seed=0))

    def test_deterministic_modulo_timing_fields(self):
        cfg = RunConfig(seed=11, mode="random")
        a = bench.bench_sweep([15, 21], cfg, modes=("preselected", "random"))
        b = bench.bench_sweep([15, 21], cfg, modes=("preselected", "random"))
        assert [strip_volatile(r) for r in a] == [strip_volatile(r) for r in b]

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            bench.bench_sweep([], RunConfig())


class TestRecordSerialization:
    def _records(self):
        return bench.bench_sweep([15], RunConfig(seed=3), modes=("preselected", "random"))

    def test_csv_round_trip(self):
        records = self._records()
        back = bench.records_from_csv(bench.records_to_csv(records))
        assert back == records

    def test_jsonl_round_trip(self):
        records = self._records()
        back = bench.records_from_jsonl(bench.records_to_jsonl(records))
        assert back == records

    def test_csv_has_trend_columns(self):
        columns = [
            "n_value", "bit_length", "mode", "a_used", "shots", "status",
            "circuit_build_seconds", "simulation_seconds", "postprocess_seconds",
            "peak_chi", "swap_count", "timestamp", "seed",
        ]
        text = bench.records_to_csv(self._records())
        assert text.splitlines()[0] == ",".join(columns)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert ", ".join(columns) in re.sub(r"\s+", " ", readme)

    def test_none_a_used_round_trips(self):
        records = [
            bench.BenchRecord(
                n_value=15, bit_length=4, mode="random", a_used=None, shots=8,
                status="timeout", circuit_build_seconds=0.0, simulation_seconds=0.0,
                postprocess_seconds=0.0, peak_chi=1, swap_count=0, timestamp="", seed=0,
            )
        ]
        assert bench.records_from_csv(bench.records_to_csv(records)) == records
        assert bench.records_from_jsonl(bench.records_to_jsonl(records)) == records

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            bench.BenchRecord(
                n_value=15, bit_length=4, mode="preselected", a_used=4, shots=8,
                status="meh", circuit_build_seconds=0, simulation_seconds=0,
                postprocess_seconds=0, peak_chi=1, swap_count=0, timestamp="", seed=0,
            )


class TestHistogramReport:
    def test_two_bins_for_preselected(self):
        rep = bench.histogram_report(15, 4, shots=1024, backend="dense", seed=1)
        assert set(rep.counts) == {0, 128}
        assert rep.expected_peaks == [0, 128]
        assert rep.order == 2
        for c in rep.counts.values():
            assert 412 <= c <= 612  # ~512 each
        table = bench.format_histogram_table(rep)
        assert "128" in table and "ideal peaks" in table

    def test_mps_matches_dense_support(self):
        rep = bench.histogram_report(15, 7, shots=512, backend="mps", seed=2)
        # order of 7 mod 15 is 4: ideal peaks at multiples of 64
        assert rep.order == 4
        assert rep.expected_peaks == [0, 64, 128, 192]
        assert set(rep.counts) <= {0, 64, 128, 192}

    def test_cluster_count_matches_order(self):
        # order 6 does not divide 2^t, so mass clusters within +-1 of
        # the ideal peaks instead of hitting them exactly
        rep = bench.histogram_report(
            21, 2, shots=2048, backend="mps", seed=3,
            truncation=TruncationPolicy(chi_max=256),
        )
        assert rep.order == 6
        assert len(rep.expected_peaks) == 6
        total = sum(rep.counts.values())
        near = sum(
            c
            for y, c in rep.counts.items()
            if min(abs(y - p) for p in rep.expected_peaks) <= 1
        )
        assert near / total >= 0.9


class TestEntropyReport:
    def test_all_orderings_bounds_and_labels(self):
        reports = bench.entropy_report(15, 4)
        assert [r.ordering for r in reports] == list(ORDERINGS)
        for rep in reports:
            labels = {label for label, _, _ in rep.rows}
            assert "prep" in labels and "iqft" in labels and "mult-0" in labels
            for label, cut, s in rep.rows:
                assert 0.0 <= s <= min(cut, 18 - cut) + 1e-9
            assert rep.mean_entropy >= 0

    def test_prep_checkpoint_product_state(self):
        (rep,) = bench.entropy_report(15, 4, orderings=("upper-lower-ancilla",))
        prep_rows = [s for label, _, s in rep.rows if label == "prep"]
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in prep_rows)

    def test_upper_boundary_cut_identical_across_shared_orderings(self):
        # both orderings isolate the counting register on the left, so the
        # entropy at its boundary is the same bipartition
        reports = bench.entropy_report(
            15, 4, orderings=("upper-lower-ancilla", "upper-ancilla-lower")
        )
        by_ordering = {
            rep.ordering: [(label, s) for label, cut, s in rep.rows if cut == 8]
            for rep in reports
        }
        a = by_ordering["upper-lower-ancilla"]
        b = by_ordering["upper-ancilla-lower"]
        assert len(a) == len(b)
        for (la, sa), (lb, sb) in zip(a, b):
            assert la == lb
            assert sa == pytest.approx(sb, abs=1e-8)

    def test_csv_and_jsonl_emission(self):
        reports = bench.entropy_report(15, 4, orderings=("upper-lower-ancilla",))
        text = bench.entropy_reports_to_csv(reports)
        assert text.splitlines()[0].startswith("n_value,a,ordering")
        assert len(text.splitlines()) == 1 + len(reports[0].rows)
        jl = bench.entropy_reports_to_jsonl(reports)
        assert '"ordering": "upper-lower-ancilla"' in jl

    @pytest.mark.parametrize("a", [4, 7])
    def test_rows_match_gate_by_gate_reference(self, a):
        reports = bench.entropy_report(15, a)
        assert [r.ordering for r in reports] == list(ORDERINGS)
        for rep in reports:
            circ = reorder_registers(shor_order_circuit(15, a), rep.ordering)
            state = mps.init_state(circ.width)
            rows = []
            for label, gates in circ.segments():
                for g in gates:
                    mps.apply_gate(state, g)
                for cut in circ.layout.boundary_cuts():
                    rows.append((label, cut, mps.bond_entropy(state, cut)))
            assert rep.rows == rows
            assert rep.mean_entropy == sum(s for _, _, s in rows) / len(rows)

    def test_bad_ordering_rejected_before_any_run(self, monkeypatch):
        def no_run(state, circ, deadline=None):
            raise AssertionError("run_circuit called before the orderings were checked")

        monkeypatch.setattr(mps, "run_circuit", no_run)
        with pytest.raises(ValueError, match="unknown ordering 'sideways'"):
            bench.entropy_report(15, 4, orderings=("upper-lower-ancilla", "sideways"))

    def test_lambda_dump(self, tmp_path):
        path = tmp_path / "lam.txt"
        bench.entropy_report(
            15, 4, orderings=("upper-lower-ancilla",),
            lambda_dump={"upper-lower-ancilla": str(path)},
        )
        assert path.exists()
        assert path.read_text().startswith("# bond rank")


class TestResolveTargets:
    def test_explicit_values(self):
        assert bench.resolve_targets([15, 21], None, 2, 0) == [15, 21]

    def test_bit_range(self):
        vals = bench.resolve_targets([], "4:6", 2, seed=1)
        assert all(4 <= v.bit_length() <= 6 for v in vals)

    def test_rejects_both(self):
        with pytest.raises(ValueError):
            bench.resolve_targets([15], "4:6", 1, 0)
        with pytest.raises(ValueError):
            bench.resolve_targets([], None, 1, 0)

    def test_rejects_invalid_value(self):
        with pytest.raises(ValueError):
            bench.resolve_targets([16], None, 1, 0)


class TestCli:
    def test_factor_success(self, capsys):
        code = cli.cli_main(["factor", "15", "--mode", "preselected"])
        assert code == 0
        assert "15 = 3 × 5" in capsys.readouterr().out

    def test_factor_failure_exit_one(self, capsys):
        code = cli.cli_main(["factor", "15", "--timeout-seconds", "0.0001"])
        assert code == 1
        assert "timeout" in capsys.readouterr().out

    def test_factor_jsonl_record(self, tmp_path):
        out = tmp_path / "run.jsonl"
        code = cli.cli_main(["factor", "15", "--output", "jsonl", "--out", str(out)])
        assert code == 0
        from mpshor.pipeline import outcome_from_json

        outcome = outcome_from_json(out.read_text())
        assert outcome.factors == (3, 5)

    def test_preselect(self, capsys):
        assert cli.cli_main(["preselect", "9997"]) == 0
        assert capsys.readouterr().out.strip() == "768"

    def test_preselect_invalid_usage_error(self, capsys):
        assert cli.cli_main(["preselect", "16"]) == 2

    def test_order(self, capsys):
        assert cli.cli_main(["order", "93", "80"]) == 0
        assert capsys.readouterr().out.strip() == "30"

    def test_capacity(self, capsys):
        assert cli.cli_main(["capacity", "100"]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_histogram_table(self, capsys):
        assert cli.cli_main(
            ["histogram", "15", "4", "--shots", "64", "--backend", "dense"]
        ) == 0
        out = capsys.readouterr().out
        assert "ideal peaks" in out

    def test_entropy_csv_out(self, tmp_path):
        out = tmp_path / "ent.csv"
        code = cli.cli_main(
            ["entropy", "15", "4", "--orderings", "upper-lower-ancilla", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("n_value,a,ordering")

    def test_entropy_base_defaults_to_preselected(self, tmp_path):
        given, default = tmp_path / "given.csv", tmp_path / "default.csv"
        for argv, out in ((["15", "4"], given), (["15"], default)):
            code = cli.cli_main(
                ["entropy", *argv, "--orderings", "upper-lower-ancilla", "--out", str(out)]
            )
            assert code == 0
        assert default.read_text() == given.read_text()

    def test_entropy_bad_ordering(self):
        assert cli.cli_main(["entropy", "15", "4", "--orderings", "sideways"]) == 2

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.cli_main(
            ["bench", "15", "21", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        records = bench.records_from_csv(out.read_text())
        assert [r.n_value for r in records] == [15, 21]
        assert all(r.status == "success" for r in records)

    def test_bench_bad_mode_usage_error(self, capsys):
        assert cli.cli_main(["bench", "15", "--modes", "preselected,bogus"]) == 2
        assert "mode must be one of" in capsys.readouterr().err

    def test_bench_requires_targets(self, capsys):
        assert cli.cli_main(["bench"]) == 2

    def test_usage_error_exit_two(self):
        assert cli.cli_main(["frobnicate"]) == 2
        assert cli.cli_main([]) == 2
        assert cli.cli_main(["factor"]) == 2
