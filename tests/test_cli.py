import json

from myproc.cli import main


class TestVerbs:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["run", "no-such-thing"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        for name in ("pitman-discrete", "my-generator", "supq-limit", "hoogenboom-det"):
            assert name in out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestRun:
    def test_run_writes_report_and_tables(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["run", "pitman-discrete", "--q", "8", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["q"] == 8
        assert report["config"]["seed"] == 20240801
        assert (out / "distribution.csv").exists()
        assert report["details"]["law_at_n_max"]["0"] == "7/128"
        printed = capsys.readouterr().out
        assert "[PASS]" in printed

    def test_outputs_bit_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "tree-samelaw", "--seed", "5", "--out", str(out)]) == 0
        assert (out1 / "kernel_rate.csv").read_bytes() == (out2 / "kernel_rate.csv").read_bytes()
        # reports agree except for the echoed output directory itself
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 6, "seed": 3}))
        out = tmp_path / "res"
        assert main(["run", "pitman-discrete", "--config", str(cfg), "--q", "4",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["q"] == 4      # flag wins
        assert report["config"]["seed"] == 3   # config applies

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qq": 6}))
        assert main(["run", "pitman-discrete", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_positive_numbers_are_usage_errors(self, tmp_path, capsys):
        assert main(["run", "conditional-law", "--dt", "0", "--out", str(tmp_path / "a")]) == 2
        assert main(["run", "supq-limit", "--dt", "-0.001", "--out", str(tmp_path / "b")]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0}))
        assert main(["run", "conditional-law", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.count("dt must be positive") == 3
        assert not any((tmp_path / d).exists() for d in "abc")

    def test_provenance_on_every_check(self, tmp_path):
        out = tmp_path / "res"
        main(["run", "toda-identity", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert all("provenance" in c for c in report["checks"])
