"""Tests for the verification module and the library CLI."""

import pytest

from repro.__main__ import main as cli_main
from repro.core import smartmem_optimize
from repro.runtime.verify import verify_equivalence


class TestVerify:
    def test_pass_on_identical(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        report = verify_equivalence(attention_graph, result.graph)
        assert report.passed
        assert "PASS" in report.summary()
        assert report.worst_abs_error < 1e-3

    def test_fail_on_divergence(self, linear_graph):
        broken = linear_graph.clone()
        node = next(n for n in broken.iter_nodes() if n.op_type == "unary")
        node.attrs["func"] = "sigmoid"
        report = verify_equivalence(linear_graph, broken)
        assert not report.passed
        assert "FAIL" in report.summary()
        assert any(not c.matches for c in report.checks)

    def test_multiple_seeds_checked(self, linear_graph):
        report = verify_equivalence(linear_graph, linear_graph.clone(),
                                    seeds=(0, 1, 2))
        assert report.seeds == (0, 1, 2)
        assert report.passed

    def test_every_output_reported(self, multi_consumer_graph):
        result = smartmem_optimize(multi_consumer_graph)
        report = verify_equivalence(multi_consumer_graph, result.graph)
        assert len(report.checks) == len(multi_consumer_graph.outputs)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "Swin" in out
        assert "tesla-v100" in out

    def test_no_model_lists(self, capsys):
        assert cli_main([]) == 0
        assert "models:" in capsys.readouterr().out

    def test_optimize_small_model(self, capsys):
        assert cli_main(["ResNext"]) == 0
        out = capsys.readouterr().out
        assert "SmartMem:" in out
        assert "GMACS" in out

    def test_compare_flag(self, capsys):
        assert cli_main(["ResNext", "--compare"]) == 0
        out = capsys.readouterr().out
        for fw in ("MNN", "NCNN", "DNNF"):
            assert fw in out

    def test_device_selection(self, capsys):
        assert cli_main(["ResNext", "--device", "tesla-v100"]) == 0
        assert "tesla-v100" in capsys.readouterr().out

    def test_save_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["ResNext", "--save", "module.json"])
        assert exit_info.value.code == 2
        assert "--save" in capsys.readouterr().err

    def test_unknown_model_errors(self):
        with pytest.raises(KeyError):
            cli_main(["NotAModel"])
