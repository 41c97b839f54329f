"""Tests for the command-line interface."""

import io
import struct
import zlib

import pytest

from repro.cli import main
from repro.core.serialization import jsonio, xmi


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTables:
    def test_all(self):
        code, text = run_cli("tables")
        assert code == 0
        for marker in ("Table 1", "Table 2", "Table 3"):
            assert marker in text

    def test_single(self):
        code, text = run_cli("tables", "2")
        assert code == 0
        assert "Table 2" in text and "Table 1" not in text


class TestFigures:
    def test_all_plantuml(self):
        code, text = run_cli("figures")
        assert code == 0
        assert text.count("-- Figure") == 7
        assert "@startuml" in text

    def test_single_mermaid(self):
        code, text = run_cli("figures", "7", "--format", "mermaid")
        assert code == 0
        assert "flowchart" in text

    def test_mermaid_unavailable_figure(self):
        code, text = run_cli("figures", "2", "--format", "mermaid")
        assert code == 0
        assert "no mermaid variant" in text


class TestModelCommands:
    @pytest.fixture()
    def model_path(self, builder, tmp_path):
        path = tmp_path / "model.json"
        jsonio.dump(builder.model, str(path))
        return str(path)

    @pytest.fixture()
    def xmi_path(self, builder, tmp_path):
        path = tmp_path / "model.xmi"
        xmi.dump(builder.model, str(path))
        return str(path)

    def test_validate_clean_model(self, model_path):
        code, text = run_cli("validate", model_path)
        assert code == 0
        assert "OK" in text

    def test_validate_xmi_flavour(self, xmi_path):
        code, __ = run_cli("validate", xmi_path)
        assert code == 0

    def test_validate_broken_model_exits_nonzero(self, builder, tmp_path):
        builder.model.dq_constraints[0].lower_bound = 99999
        path = tmp_path / "broken.json"
        jsonio.dump(builder.model, str(path))
        code, text = run_cli("validate", str(path))
        assert code == 1
        assert "ERROR" in text

    def test_transform_with_output_and_trace(self, model_path, tmp_path):
        design_path = tmp_path / "design.json"
        code, text = run_cli(
            "transform", model_path, "-o", str(design_path), "--trace"
        )
        assert code == 0
        assert "design 'Shop'" in text
        assert "case2form" in text
        assert design_path.exists()

    def test_codegen_roundtrip(self, model_path, tmp_path):
        design_path = tmp_path / "design.json"
        run_cli("transform", model_path, "-o", str(design_path))
        module_path = tmp_path / "app.py"
        code, text = run_cli(
            "codegen", str(design_path), "-o", str(module_path)
        )
        assert code == 0
        source = module_path.read_text()
        compile(source, str(module_path), "exec")

    def test_codegen_to_stdout(self, model_path, tmp_path):
        design_path = tmp_path / "design.json"
        run_cli("transform", model_path, "-o", str(design_path))
        code, text = run_cli("codegen", str(design_path))
        assert code == 0
        assert "def build_app" in text


class TestDemo:
    def test_demo_runs(self):
        code, text = run_cli("demo", "--count", "30", "--seed", "3")
        assert code == 0
        assert "DQ-aware" in text
        assert "catch rate 100%" in text
        assert "DQ scorecard" in text


class TestSrsAndAssess:
    @pytest.fixture()
    def model_path(self, builder, tmp_path):
        path = tmp_path / "model.json"
        jsonio.dump(builder.model, str(path))
        return str(path)

    def test_srs_to_stdout(self, model_path):
        code, text = run_cli("srs", model_path)
        assert code == 0
        assert "# Software Requirements Specification" in text
        assert "Traceability matrix" in text

    def test_srs_to_file(self, model_path, tmp_path):
        out_path = tmp_path / "srs.md"
        code, text = run_cli("srs", model_path, "-o", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert "## 4. Data quality requirements" in out_path.read_text()

    def test_assess_complete_model(self, model_path):
        code, text = run_cli("assess", model_path)
        assert code == 0
        assert "methodology completion: 100%" in text

    def test_assess_incomplete_model_exits_nonzero(self, builder, tmp_path):
        builder.web_process("ownerless")
        path = tmp_path / "incomplete.json"
        jsonio.dump(builder.model, str(path))
        code, text = run_cli("assess", str(path))
        assert code == 1
        assert "[~]" in text


class TestDiff:
    @pytest.fixture()
    def two_models(self, builder, tmp_path):
        from repro.core.diff import clone_tree

        left_path = tmp_path / "left.json"
        jsonio.dump(builder.model, str(left_path))
        edited = clone_tree(builder.model)
        edited.dq_constraints[0].upper_bound = 2030
        right_path = tmp_path / "right.json"
        jsonio.dump(edited, str(right_path))
        return str(left_path), str(right_path)

    def test_identical_models_exit_zero(self, builder, tmp_path):
        path = tmp_path / "m.json"
        jsonio.dump(builder.model, str(path))
        code, text = run_cli("diff", str(path), str(path))
        assert code == 0
        assert "identical" in text

    def test_changed_models_listed(self, two_models):
        left, right = two_models
        code, text = run_cli("diff", left, right)
        assert code == 1
        assert "upper_bound" in text
        assert "1 change(s)" in text

    def test_impact_mode(self, two_models):
        left, right = two_models
        code, text = run_cli("diff", left, right, "--impact")
        assert code == 1
        assert "-> affects" in text


class TestFigureMermaidVariants:
    def test_figure1_mermaid(self):
        code, text = run_cli("figures", "1", "--format", "mermaid")
        assert code == 0
        assert "classDiagram" in text

    def test_figure6_mermaid(self):
        code, text = run_cli("figures", "6", "--format", "mermaid")
        assert code == 0
        assert "graph LR" in text


class TestClusterBench:
    def test_prints_comparison_and_speedup(self):
        code, text = run_cli(
            "cluster-bench", "--count", "120", "--preload", "40",
            "--shards", "2",
        )
        assert code == 0
        assert "1 shard (baseline, uncached)" in text
        assert "2 shards (cached)" in text
        assert "speedup:" in text

    def test_metrics_flag_prints_per_configuration_metrics(self):
        code, text = run_cli(
            "cluster-bench", "--count", "80", "--preload", "20",
            "--metrics",
        )
        assert code == 0
        assert "-- 4 shards (cached) --" in text
        assert "Shard | Requests" in text
        assert "cache:" in text

    def test_faults_flag_adds_the_degraded_row(self):
        code, text = run_cli(
            "cluster-bench", "--count", "120", "--preload", "40",
            "--shards", "2", "--faults",
        )
        assert code == 0
        assert "2 shards (cached, shard 0 down)" in text
        assert "under faults:" in text
        assert "of healthy throughput retained" in text


    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("mode, runner, extra, expected", [
        ("hotpath", "run_hotpath_bench", [],
         {"shard_count": 4, "seed": 23}),
        ("validate", "run_validation_bench", [], {"seed": 23}),
        ("dqtelemetry", "run_dqtelemetry_bench", ["--shards", "2"],
         {"shard_count": 2, "seed": 23}),
        ("durability", "run_durability_bench",
         ["--backend", "sqlite", "--records", "50"],
         {"shard_count": 4, "records": 50, "backend": "sqlite", "seed": 23}),
        ("replication", "run_replication_bench", ["--shards", "8"],
         {"shard_count": 4, "seed": 23}),
        ("columnar", "run_columnar_bench", ["--seed", "5"], {"seed": 5}),
    ])
    def test_bench_modes_dispatch_and_exit_one_on_a_missed_floor(
        self, monkeypatch, mode, runner, extra, expected, held
    ):
        import repro.cluster
        from repro.cluster import BenchReport

        captured = {}

        def fake_runner(**kwargs):
            captured.update(kwargs)
            return BenchReport(
                "comparison", "stub bench", 23, [],
                {"cached_vs_baseline": 2.0 if held else 1.9,
                 "faulted_retention": 0.5},
            )

        monkeypatch.setattr(repro.cluster, runner, fake_runner)
        code, text = run_cli("cluster-bench", f"--{mode}", *extra)
        assert captured == expected
        assert code == (0 if held else 1)
        assert "floor cached_vs_baseline: " in text


class TestChaos:
    def test_clean_run_reports_zero_violations_and_exits_zero(self):
        code, text = run_cli(
            "chaos", "--seed", "11", "--count", "150", "--preload", "12",
        )
        assert code == 0
        assert "chaos run — seed 11" in text
        assert "fault schedule" in text
        assert "zero violations" in text

    def test_metrics_flag_prints_the_snapshot(self):
        code, text = run_cli(
            "chaos", "--seed", "11", "--count", "100", "--preload", "10",
            "--metrics",
        )
        assert code == 0
        assert '"resilience"' in text


class TestBadInput:
    """Bad input exits 2 with one argparse-style error line."""

    def assert_usage_error(self, capsys, argv, *fragments):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        last = err.rstrip("\n").splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: ")
        for fragment in fragments:
            assert fragment in last
        return err

    def test_chaos_rejects_zero_shards(self, capsys):
        self.assert_usage_error(
            capsys, ["chaos", "--shards", "0"],
            "--shards", "must be a positive integer",
        )

    def test_cluster_bench_rejects_zero_shards(self, capsys):
        self.assert_usage_error(
            capsys, ["cluster-bench", "--shards", "0"],
            "--shards", "must be a positive integer",
        )

    @pytest.mark.parametrize("argv, fragments", [
        (["cluster-bench", "--count", "0"], ["--count", "positive"]),
        (["cluster-bench", "--threads", "0"], ["--threads", "positive"]),
        (["cluster-bench", "--durability", "--records", "0"],
         ["--records", "positive"]),
        (["cluster-bench", "--preload", "-1"], ["--preload", "non-negative"]),
        (["cluster-bench", "--cache-capacity", "-3"],
         ["--cache-capacity", "must be a non-negative integer, got '-3'"]),
        (["cluster-bench", "--validate", "--columnar"],
         ["--columnar", "not allowed with argument --validate"]),
        (["cluster-bench", "--smoke", "--hotpath"],
         ["--hotpath", "not allowed with argument --smoke"]),
        (["chaos", "--count", "0"], ["--count", "positive"]),
        (["chaos", "--threads", "0"], ["--threads", "positive"]),
        (["chaos", "--preload", "-1"], ["--preload", "non-negative"]),
        (["chaos", "--kills", "-1"], ["--kills", "non-negative"]),
        (["chaos", "--topology", "--replicas", "-1"],
         ["--replicas", "non-negative"]),
        (["chaos", "--topology", "--staleness-bound", "-1"],
         ["--staleness-bound", "non-negative"]),
        (["chaos", "--count", "many"],
         ["--count", "must be a positive integer, got 'many'"]),
        (["demo", "--count", "-3"], ["--count", "positive"]),
        (["experiments", "--count", "-1"], ["--count", "positive"]),
    ])
    def test_out_of_range_numbers_and_clashing_modes(
        self, capsys, argv, fragments
    ):
        err = self.assert_usage_error(capsys, argv, *fragments)
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage, fragment", [
        ("corrupt", "snapshot.json unreadable: undecodable payload"),
        ("missing ids", "has no 'ids'"),
        ("row layout", "has no 'fields'"),
        ("flipped byte", "snapshot.json unreadable: CRC mismatch"),
        ("truncated", "snapshot.json unreadable: short payload"),
        ("unframed", "snapshot.json unreadable: short payload"),
    ])
    def test_chaos_refuses_an_unrecoverable_data_dir(
        self, capsys, tmp_path, damage, fragment
    ):
        from repro.casestudy import easychair
        from repro.persistence import (
            capture_state,
            encode_payload,
            encode_record,
        )
        from repro.runtime.dqengine import build_app

        snapshot = capture_state(build_app(easychair.build_design()))
        snapshot["last_seq"] = 0
        name, state = next(iter(snapshot["entities"].items()))
        if damage == "missing ids":
            del state["ids"]
        elif damage == "row layout":
            # one [id, data, metadata, version] row per record
            snapshot["entities"][name] = {
                "records": [[1, {}, {"stored_by": "chair"}, 1]],
                "allocator": state["allocator"],
            }
        if damage == "corrupt":
            # a frame whose checksum matches bytes that do not decode
            body = b'{"entities": {'
            payload = struct.pack("<II", len(body), zlib.crc32(body)) + body
        elif damage == "flipped byte":
            payload = bytearray(encode_record(snapshot))
            payload[-2] ^= 0x01
        elif damage == "truncated":
            payload = encode_record(snapshot)[:-1]
        elif damage == "unframed":
            # the layout a data directory had before snapshots were framed
            payload = encode_payload(snapshot)
        else:
            payload = encode_record(snapshot)
        (tmp_path / "shard-0").mkdir()
        (tmp_path / "shard-0" / "snapshot.json").write_bytes(payload)
        err = self.assert_usage_error(
            capsys,
            ["chaos", "--durability", "--data-dir", str(tmp_path),
             "--count", "20", "--preload", "2"],
            "unrecoverable durable state", fragment,
        )
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        "validate", "transform", "codegen", "srs", "assess", "diff",
    ])
    def test_missing_model_file(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.json")
        models = [missing, missing] if command == "diff" else [missing]
        err = self.assert_usage_error(
            capsys, [command, *models],
            "cannot read model", "missing.json",
            "No such file or directory",
        )
        assert len(err.splitlines()) == 1
