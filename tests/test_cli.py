"""CLI behaviour: exit codes, file outputs, determinism, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkexpand import analysis
from gkexpand.cli import main

TABLE_N4_CSV = (
    "1,1,1,1,1,1,1,1\n"
    "1,-1,1,-1,1,-1,1,-1\n"
    "1,1,-1,-1,1,1,-1,-1\n"
    "1,-1,-1,1,1,-1,-1,1\n"
    "1,1,1,1,-1,-1,-1,-1\n"
    "1,-1,1,-1,-1,1,-1,1\n"
    "1,1,-1,-1,-1,-1,1,1\n"
    "1,-1,-1,1,-1,1,1,-1\n"
)


def _dir_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestExitCodes:
    def test_reconstruct_raw_passes(self, tmp_path):
        assert main(["reconstruct", "--scheme", "raw", "--horizon", "80",
                     "--range", "-2:2", "--step", "0.5",
                     "--out-dir", str(tmp_path)]) == 0

    def test_bounded_outside_domain_is_domain_error(self, tmp_path, capsys):
        code = main(["reconstruct", "--scheme", "bounded", "--range", "-5:5",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "defined on [0, 3.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["nan:1", "0:inf", "-inf:0"])
    def test_non_finite_range_is_domain_error(self, tmp_path, capsys, span):
        # nan:1 ended in a ValueError traceback, 0:inf in an OverflowError
        code = main(["reconstruct", "--range", span, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--scheme", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_weights_p3_honest_failure(self, tmp_path, monkeypatch):
        # the correct construction sits inside the rigorous finite-n ratio
        # bracket (its block 4 -> 5 ratio is provably > 10% off 4^(1-p),
        # so the asymptote is no gate) ...
        argv = ["weights", "--p", "3", "--max-block", "6"]
        assert main(argv + ["--out-dir", str(tmp_path / "ok")]) == 0
        doc = json.loads((tmp_path / "ok" / "weights_summary.json").read_text())
        assert doc["passed"] and doc["notes"] == []

        # ... and a block mass off by 1e-3 must still be reported
        true_mass = analysis.block_mass

        def skewed(e, n, p):
            return true_mass(e, n, p) * (1.0 + 1e-3 if n == 4 else 1.0)

        monkeypatch.setattr(analysis, "block_mass", skewed)
        assert main(argv + ["--out-dir", str(tmp_path / "bad")]) == 1
        doc = json.loads((tmp_path / "bad" / "weights_summary.json").read_text())
        assert not doc["passed"]
        assert any(note.startswith("G(5,3.0)/G(4,3.0)=") for note in doc["notes"])

    def test_weights_p2_passes(self, tmp_path):
        assert main(["weights", "--p", "2", "--max-block", "6",
                     "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("p, max_block", [("400", "5"), ("60", "8")])
    def test_weights_p_beyond_double_range_rejected(self, tmp_path, capsys, p, max_block):
        # p = 400 overflowed sqrt(90 pi)^p; at p = 60 G(8, p) underflowed
        # to 0.0 and failed the bracket gate on a correct expansion
        code = main(["weights", "--p", p, "--max-block", max_block,
                     "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"--max-block {max_block}" in err
        assert not (tmp_path / "weights_summary.json").exists()

    @pytest.mark.parametrize("edge", ["1", "2"])
    def test_norms_bounded_envelope_touch_passes(self, tmp_path, edge):
        # the envelope touches h_k0 by construction; the touch point's
        # rounding used to fail the gate
        assert main(["norms", "--scheme", "bounded", "--domain-edge", edge,
                     "--out-dir", str(tmp_path)]) == 0


class TestSigns:
    def test_golden_table_bytes(self, tmp_path):
        assert main(["signs", "--n", "4", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "signs_n4.csv").read_text() == TABLE_N4_CSV

    def test_large_matrix_ok(self, tmp_path):
        assert main(["signs", "--n", "10", "--out-dir", str(tmp_path)]) == 0

    def test_over_cap_rejected_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the memory cap check")

        monkeypatch.setattr(np, "arange", no_alloc)
        assert main(["signs", "--n", "16", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestProbeCommand:
    def test_build_then_verify_file(self, tmp_path):
        assert main(["probe", "--kernel", "laplace", "--psi", "cos",
                     "--epsilon", "0.1", "--n", "200",
                     "--out-dir", str(tmp_path)]) == 0
        cert = tmp_path / "probe_laplace_cos_n200.json"
        assert cert.exists()
        assert main(["probe", "--verify", str(cert)]) == 0

    def test_verify_missing_file(self, capsys):
        assert main(["probe", "--verify", "/nonexistent/cert.json"]) == 1


class TestOutputs:
    def test_reconstruct_files(self, tmp_path):
        main(["reconstruct", "--scheme", "raw", "--horizon", "60",
              "--range", "-1:1", "--step", "0.5", "--out-dir", str(tmp_path)])
        csv_lines = (tmp_path / "reconstruct.csv").read_text().splitlines()
        assert csv_lines[0] == "x,y,exact,series,abs_error,tail_bound"
        doc = json.loads((tmp_path / "reconstruct_summary.json").read_text())
        assert doc["bound_satisfied"] is True
        assert doc["grid"]["points"] == 25
        assert len(csv_lines) == 1 + doc["grid"]["points"]

    def test_json_data_format(self, tmp_path):
        main(["bumpcheck", "--indices", "100,1000", "--format", "json",
              "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "bumpcheck.json").read_text())
        assert doc["schema_version"] == 1
        assert [row["k"] for row in doc["rows"]] == ["100", "1000"]

    def test_norms_summary(self, tmp_path):
        assert main(["norms", "--scheme", "combo", "--max-block", "3",
                     "--rows", "2", "--slots", "2", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "norms_summary.json").read_text())
        assert doc["passed"] is True

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKEXPAND_OUT_DIR", str(tmp_path / "envdir"))
        assert main(["signs", "--n", "2"]) == 0
        assert (tmp_path / "envdir" / "signs_n2.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 60, "range": "-1:1", "step": "0.5"}))
        assert main(["reconstruct", "--scheme", "raw", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reconstruct_summary.json").read_text())
        assert doc["horizon"] == 60

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 60}))
        assert main(["reconstruct", "--scheme", "raw", "--horizon", "90",
                     "--range", "-1:1", "--step", "0.5",
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reconstruct_summary.json").read_text())
        assert doc["horizon"] == 90


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--scheme", "raw", "--horizon", "60",
             "--range", "-1.5:1.5", "--step", "0.25"],
            ["norms", "--scheme", "combo", "--max-block", "3",
             "--rows", "2", "--slots", "2"],
            ["weights", "--p", "1", "--max-block", "4"],
            ["signs", "--n", "5"],
            ["probe", "--kernel", "gaussian", "--psi", "cos", "--n", "50"],
            ["bumpcheck", "--indices", "100,1000"],
        ],
        ids=["reconstruct", "norms", "weights", "signs", "probe", "bumpcheck"],
    )
    def test_repeat_and_thread_invariance(self, tmp_path, argv):
        outs = []
        for i, threads in enumerate(("1", "1", "4")):
            d = tmp_path / f"run{i}"
            assert main(argv + ["--threads", threads, "--out-dir", str(d)]) == 0
            outs.append(_dir_bytes(d))
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--scheme", "combo", "--max-block", "4", "--rows", "2", "--slots", "4"],
            ["reconstruct", "--scheme", "combo", "--max-block", "3"],
        ],
        ids=["norms", "reconstruct"],
    )
    def test_blas_thread_count_invariance(self, tmp_path, argv):
        # OpenBLAS reads its thread count once, when numpy loads, so each
        # setting needs a fresh interpreter
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            d = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "gkexpand.cli", *argv, "--out-dir", str(d)],
                env=env, capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append((proc.stdout, _dir_bytes(d)))
        assert outs[0] == outs[1]
