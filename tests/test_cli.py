import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depnorm import TimeSeriesSample, load_sample, write_csv
from depnorm.cli import main


def _generate(tmp_path, name="data.csv", extra=()):
    out = tmp_path / name
    rc = main([
        "generate", "--family", "gumbel", "--dim", "2", "--len", "400",
        "--seed", "11", "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


class TestGenerate:
    def test_csv_output(self, tmp_path):
        out = _generate(tmp_path)
        sample = load_sample(out)
        assert (sample.p, sample.n) == (2, 400)

    def test_binary_output(self, tmp_path):
        out = _generate(tmp_path, name="data.dnts")
        assert out.read_bytes()[:4] == b"DNTS"
        sample = load_sample(out)
        assert (sample.p, sample.n) == (2, 400)

    def test_deterministic(self, tmp_path):
        a = _generate(tmp_path, name="a.csv")
        b = _generate(tmp_path, name="b.csv")
        assert a.read_text() == b.read_text()

    def test_no_color_flag(self, tmp_path):
        a = _generate(tmp_path, name="a.csv")
        b = _generate(tmp_path, name="b.csv", extra=("--no-color",))
        assert a.read_text() != b.read_text()

    def test_default_rho_by_family(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["generate", "--family", "clayton", "--dim", "2",
                   "--len", "300", "--seed", "3", "--out", str(out)])
        assert rc == 0


class TestTest:
    @pytest.mark.parametrize("kind,dim", [("iid", 2), ("colored1", 1), ("colored2", 2)])
    def test_kinds_run_and_emit_json(self, tmp_path, capsys, kind, dim):
        out = tmp_path / "d.csv"
        main(["generate", "--family", "clayton", "--dim", str(dim),
              "--len", "400", "--seed", "5", "--out", str(out)])
        rc = main(["test", "--in", str(out), "--kind", kind, "--alpha", "0.05",
                   "--calib-reps", "150", "--seed", "9", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "statistic", "z", "p_value", "reject", "null_mean", "null_var",
            "null_source", "null_se_mean", "null_se_var", "null_clipping_norm",
        }
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_human_readable_line(self, tmp_path, capsys):
        out = _generate(tmp_path)
        rc = main(["test", "--in", str(out), "--kind", "iid"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "B_2" in text and "p =" in text

    def test_degenerate_sample_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_csv(TimeSeriesSample(np.vstack([np.arange(50.0),
                                              np.arange(50.0) * 2])), bad)
        rc = main(["test", "--in", str(bad), "--kind", "iid"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCalibrate:
    def test_json_record(self, tmp_path, capsys):
        out = _generate(tmp_path)
        rc = main(["calibrate", "--in", str(out), "--reps", "200", "--seed", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "mean", "variance", "se_mean", "se_variance", "replicates",
            "clipping_norm",
        }
        assert payload["replicates"] == 200
        assert payload["variance"] > 0

    def test_power_of_two_scale_changes_nothing(self, tmp_path, capsys):
        # the lags are taken at a power-of-two scale, so 2^900 neither
        # overflows the covariance sequence nor moves a bit of the record
        out = _generate(tmp_path)
        scaled = tmp_path / "scaled.csv"
        write_csv(TimeSeriesSample(np.ldexp(load_sample(out).data, 900)), scaled)
        payloads = []
        for path in (out, scaled):
            assert main(["calibrate", "--in", str(path), "--reps", "200", "--seed", "4"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]


class TestExperiment:
    def test_runs_from_config_file(self, tmp_path, capsys):
        cfg = {
            "family": "gumbel", "rho": 5.0, "source_dim": 2,
            "projection_dim": 1, "temporal_coloring": False, "N": 300,
            "M": 40, "realizations": 1, "seed": 12, "calib_replicates": 150,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.json"
        rc = main(["experiment", "--config", str(path), "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["rates"]) == {"colored1", "iid"}
        assert report["config"]["M"] == 40

    def test_prints_without_out(self, tmp_path, capsys):
        cfg = {"family": "clayton", "rho": 2.0, "source_dim": 2,
               "projection_dim": 1, "temporal_coloring": False, "N": 300,
               "M": 20, "realizations": 1, "seed": 12}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(path)])
        assert rc == 0
        assert "rates" in json.loads(capsys.readouterr().out)


class TestInputErrors:
    """Invalid input and malformed configs exit with 2 and an error line,
    not a traceback."""

    def _config(self, tmp_path, **changes):
        cfg = {"family": "gumbel", "source_dim": 2, "projection_dim": 1,
               "temporal_coloring": False, "N": 300, "M": 5}
        cfg.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        return path

    def _fails(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_config_missing_required_key(self, tmp_path, capsys):
        path = self._config(tmp_path, source_dim=None)
        self._fails(capsys, ["experiment", "--config", str(path)], "source_dim")

    def test_config_unknown_key(self, tmp_path, capsys):
        path = self._config(tmp_path, calib_replicate=150)
        self._fails(capsys, ["experiment", "--config", str(path)], "calib_replicate")

    def test_config_too_few_calibration_replicates(self, tmp_path, capsys):
        path = self._config(tmp_path, source_dim=3, projection_dim=2,
                            temporal_coloring=True, N=200, M=2, calib_replicates=1)
        self._fails(capsys, ["experiment", "--config", str(path)], "calib_replicates")

    def test_config_without_tests(self, tmp_path, capsys):
        # a study that runs no test would report no rates
        path = self._config(tmp_path, tests=[])
        self._fails(capsys, ["experiment", "--config", str(path)],
                    "tests must be one or more distinct test kinds, got []")

    @pytest.mark.parametrize("text", ["5", "null", "[{}]", '"abc"'])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        self._fails(capsys, ["experiment", "--config", str(path)],
                    "experiment config must be a JSON object")

    def test_config_rho_not_finite(self, tmp_path, capsys):
        # JSON reads 1e400 as inf
        path = self._config(tmp_path)
        path.write_text(path.read_text().replace("}", ', "rho": 1e400}'))
        self._fails(capsys, ["experiment", "--config", str(path)], "rho must be finite")

    @pytest.mark.parametrize("family", ["gumbel", "clayton"])
    def test_generate_rho_not_finite(self, tmp_path, capsys, family):
        self._fails(capsys, ["generate", "--family", family, "--rho", "inf",
                             "--out", str(tmp_path / "x.csv")], "rho must be finite, got inf")
        assert not (tmp_path / "x.csv").exists()

    def test_kind_dimension_mismatch(self, tmp_path, capsys):
        out = _generate(tmp_path)
        self._fails(capsys, ["test", "--in", str(out), "--kind", "colored1"],
                    "colored1 requires p=1, got p=2")

    def test_sample_too_short(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        write_csv(TimeSeriesSample(np.array([[0.0, 1.0, 3.0], [2.0, -1.0, 0.5]])), short)
        self._fails(capsys, ["test", "--in", str(short), "--kind", "colored2"],
                    "colored2 needs p >= 1 and N >= p+2, got p=2, N=3")

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        path = self._config(tmp_path, max_lag="30")
        self._fails(capsys, ["experiment", "--config", str(path)],
                    "'max_lag' must be an integer, got '30'")

    @pytest.mark.parametrize("p", [1, 2])
    def test_calibrate_sample_too_short(self, tmp_path, capsys, p):
        # the null of a 3-point sample does not depend on the data
        short = tmp_path / "short.csv"
        write_csv(TimeSeriesSample(np.array([[0.0, 1.0, 3.0], [2.0, -1.0, 0.5]])[:p]), short)
        self._fails(capsys, ["calibrate", "--in", str(short)],
                    f"calibration needs p >= 1 and N >= p+2, got p={p}, N=3")

    def test_missing_input_file(self, tmp_path, capsys):
        self._fails(capsys, ["test", "--in", str(tmp_path / "absent.csv")], "absent.csv")


class TestReproduceTables:
    def test_prints_each_table_after_its_path(self, tmp_path, capsys, monkeypatch):
        def fake_reproduce(out, fast, seed):
            path = tmp_path / "table1.csv"
            path.write_text("copula,test,alpha,rate,paper_rate,abs_diff\n"
                            "gumbel,iid,0.05,0.1200,0.1242,0.0042\n")
            report = tmp_path / "report.json"
            report.write_text("{}")
            return {"table1": path, "report": report}

        monkeypatch.setattr("depnorm.cli.reproduce_tables", fake_reproduce)
        rc = main(["reproduce-tables", "--out", str(tmp_path), "--fast"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"table1: {tmp_path / 'table1.csv'}",
            "  copula     test       alpha   rate      paper_rate   abs_diff",
            "  gumbel     iid        0.05    0.1200    0.1242       0.0042",
            f"report: {tmp_path / 'report.json'}",
        ]


class TestParsing:
    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["test", "--in", "x.csv", "--kind", "bogus"])

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "m.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "depnorm.cli", "generate", "--family",
             "gumbel", "--dim", "2", "--len", "300", "--seed", "2",
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_leaves_out_scipy_signal_and_stats(self):
        # scipy.signal and scipy.stats cost about half a second and 50 MB at
        # import, scipy.fft about 30 ms and 1.4 MB more
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, depnorm; "
                "print(sorted({'scipy.fft', 'scipy.signal', 'scipy.stats'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "depnorm", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: depnorm")
