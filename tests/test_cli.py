"""CLI behaviour: exit codes, file outputs, determinism, config handling."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkexpand import analysis, blocks, cli, probe
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


def _src_env(**extra: str) -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_capped(argv: list[str], out_dir: Path) -> subprocess.CompletedProcess:
    """Run the CLI in a child capped at 1 GiB of address space, with a
    timeout: an oversized request then ends quickly in a MemoryError or a
    timeout, not in taking the machine's memory."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "gkexpand.cli", *argv, "--out-dir", str(out_dir)],
        env=_src_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=60, preexec_fn=cap_memory,
    )


def _one_error_line(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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

    def test_bounded_default_range_is_its_domain(self, tmp_path):
        # the default grid was -3:3, outside [0, 3]: exit 1 with no flags
        assert main(["reconstruct", "--scheme", "bounded", "--out-dir", str(tmp_path / "default")]) == 0
        assert main(["reconstruct", "--scheme", "bounded", "--range", "0:3",
                     "--out-dir", str(tmp_path / "explicit")]) == 0
        assert _dir_bytes(tmp_path / "default") == _dir_bytes(tmp_path / "explicit")

    @pytest.mark.parametrize("eta", ["0.5", "2", "0.3333333333333333", "3"])
    def test_bounded_default_range_rescales_into_its_domain(self, tmp_path, eta):
        # the default 0:3 was rescaled by 1/sqrt(eta) after the domain
        # check: eta 0.5 exited 1 with "defined on [0, 3.0], got 4.24...".
        # It is now 0:3 sqrt(eta), one ulp lower at eta 3 (where
        # 3 sqrt(3) / sqrt(3) rounds above 3)
        assert main(["reconstruct", "--scheme", "bounded", "--eta", eta,
                     "--out-dir", str(tmp_path)]) == 0
        grid = json.loads((tmp_path / "reconstruct_summary.json").read_text())["grid"]
        hi = grid["x"][1]
        assert grid["x"] == grid["y"] == [0.0, hi]
        assert hi * (1.0 / math.sqrt(float(eta))) <= 3.0
        assert hi == pytest.approx(3.0 * math.sqrt(float(eta)), rel=4e-16)

    def test_grid_stops_at_its_end(self, tmp_path):
        # 187 steps of 3/187 round to 3.0000000000000004, past the bounded
        # domain [0, 3]: exit 1.  The last grid point is now the range's end
        assert main(["reconstruct", "--scheme", "bounded", "--range", "0:3",
                     "--step", "0.016042780748663103", "--format", "json",
                     "--out-dir", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "reconstruct.json").read_text())["rows"]
        xs = sorted({float(row["x"]) for row in rows})
        assert len(xs) == 188 and xs[-1] == 3.0 and xs[-2] < 3.0

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--threads", "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["nan:1", "0:inf", "-inf:0"])
    def test_non_finite_range_is_domain_error(self, tmp_path, capsys, span):
        # nan:1 ended in a ValueError traceback, 0:inf in an OverflowError
        code = main(["reconstruct", "--range", span, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("span, step", [("0:1", "1e-300"), ("0:1e10", "1e-300"), ("0:1000", "0.5")])
    def test_oversized_grid_is_range_error(self, tmp_path, span, step):
        # 0:1 built a 10^300-entry list until killed, 0:1e10 ended in an
        # OverflowError traceback
        proc = _run_capped(["reconstruct", "--range", span, "--step", step], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "1000000 pairs" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norms", "--scheme", "bounded", "--k-max", "10000000000"], "--k-max 10000000000 exceeds 1000000 table rows"),
            (["norms", "--scheme", "bounded", "--k-max", "100000000"], "--k-max 100000000 exceeds 1000000 table rows"),
            (["norms", "--scheme", "raw", "--horizon", "10000000000"], "--horizon 10000000000 exceeds 1000000 table rows"),
            (["reconstruct", "--scheme", "raw", "--horizon", "10000000000"], "horizon 10000000000 exceeds 10000000 terms"),
            (["reconstruct", "--scheme", "bounded", "--horizon", "10000000000"], "horizon 10000000000 exceeds 10000000 terms"),
            (["reconstruct", "--scheme", "raw", "--horizon", "3000000"], "25 grid columns of 3000000 terms exceed 536870912 bytes"),
            (["reconstruct", "--scheme", "bounded", "--horizon", "3000000", "--range", "0:3"], "13 grid columns of 3000000 terms exceed 536870912 bytes"),
            (["bumpcheck", "--window", "1e12"], "window halfwidth 1000000000000.0 exceeds 1000.0"),
            (["bumpcheck", "--window", "inf"], "window halfwidth inf exceeds 1000.0"),
        ],
        ids=["norms-k-max-1e10", "norms-k-max-1e8", "norms-raw-horizon", "reconstruct-raw",
             "reconstruct-bounded", "reconstruct-raw-columns", "reconstruct-bounded-columns",
             "bumpcheck-window", "bumpcheck-inf-window"],
    )
    def test_oversized_count_is_range_error(self, tmp_path, argv, message):
        # each ended in a MemoryError traceback under the 1 GiB cap (the raw
        # norms table after a minute of looping; the reconstruct columns after
        # building a full-horizon pair per column); window inf in an OverflowError
        proc = _run_capped(argv, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_norms_rows_clamped_to_block(self, tmp_path):
        # --rows 10^10 asked np.linspace for 74.5 GiB; from rows = r on,
        # every row of a block is sampled once, so the clamp moves no byte
        proc = _run_capped(["norms", "--scheme", "combo", "--max-block", "2",
                            "--rows", "10000000000"], tmp_path / "huge")
        assert proc.returncode == 0, proc.stderr
        assert main(["norms", "--scheme", "combo", "--max-block", "2", "--rows", "270",
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert _dir_bytes(tmp_path / "huge") == _dir_bytes(tmp_path / "r")

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--scheme", "combo", "--rows", "0"],
            ["norms", "--scheme", "combo", "--slots", "0"],
            ["norms", "--scheme", "combo", "--max-block", "0"],
            ["norms", "--scheme", "raw", "--horizon", "0"],
            ["norms", "--scheme", "combo", "--rows", "-1"],
        ],
        ids=["rows", "slots", "max-block", "horizon", "negative-rows"],
    )
    def test_norms_empty_table_is_domain_error(self, tmp_path, capsys, argv):
        # each zero count wrote a header-only table and passed its gate
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert "must be >= 1" in _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norms", "--scheme", "bounded", "--domain-edge", "inf"], "positive and finite"),
            (["norms", "--scheme", "bounded", "--domain-edge", "1e200"], "k_max must exceed"),
            (["reconstruct", "--scheme", "bounded", "--domain-edge", "inf"], "positive and finite"),
        ],
        ids=["norms-inf", "norms-1e200", "reconstruct-inf"],
    )
    def test_non_finite_domain_edge_is_domain_error(self, tmp_path, capsys, argv, message):
        # norms ended in an OverflowError traceback at int(floor(2 e N^2));
        # reconstruct passed on [0, inf]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert message in _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norms", "--scheme", "bounded", "--domain-edge", "1e-300"],
             "domain edge 1e-300 is too small: 2 e N^2 underflows below the normal range"),
            (["norms", "--scheme", "bounded", "--domain-edge", "1e-160"],
             "domain edge 1e-160 is too small: 2 e N^2 underflows below the normal range"),
            (["probe", "--delta", "1e-300"],
             "delta=1e-300 is too small: its square underflows below the normal range"),
            (["probe", "--delta", "1e-160"],
             "delta=1e-160 is too small: its square underflows below the normal range"),
        ],
        ids=["domain-edge-zero", "domain-edge-subnormal", "delta-zero", "delta-subnormal"],
    )
    def test_a_square_that_underflows_is_domain_error(self, tmp_path, capsys, argv, message):
        # a square of 0 ended in a ZeroDivisionError traceback: ln(k0 / 2eN^2)
        # in the envelope fit, (1 + eps) / (n delta^2) in the weight bound; a
        # subnormal one in B = inf and a FAIL, or weight_bound=inf and a PASS
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert _one_error_line(capsys) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "5"], "epsilon=5.0; it must lie in (0, 1)"),
            (["--delta", "0"], "delta=0.0; it must lie in (0, 1)"),
            (["--n", "0"], "n=0; n must be >= 1"),
        ],
        ids=["epsilon", "delta", "n"],
    )
    def test_probe_rules_name_the_value(self, tmp_path, capsys, flags, message):
        assert main(["probe", *flags, "--out-dir", str(tmp_path)]) == 1
        assert _one_error_line(capsys) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reconstruct", "--range", "foo"], "range must look like 'lo:hi', got 'foo'"),
            (["reconstruct", "--range", "5:1"], "empty grid range"),
            (["reconstruct", "--scheme", "raw", "--horizon", "3000000"],
             "25 grid columns of 3000000 terms exceed 536870912 bytes"),
            (["reconstruct", "--scheme", "combo", "--max-block", "8", "--range", "900:1100", "--step", "2"],
             "101 grid columns of up to 3574333440 bytes of block values exceed 536870912 bytes"),
            (["norms", "--scheme", "raw", "--horizon", "1000001"], "--horizon 1000001 exceeds 1000000 table rows"),
            (["norms", "--scheme", "bounded", "--k-max", "10000001"], "--k-max 10000001 exceeds 1000000 table rows"),
            (["bumpcheck", "--indices", ","], "no indices given"),
        ],
        ids=["range-malformed", "range-empty", "reconstruct-columns", "reconstruct-combo-columns", "norms-raw-rows",
             "norms-bounded-rows", "bumpcheck-no-indices"],
    )
    def test_documented_limit_exits_in_one_line(self, tmp_path, capsys, argv, message):
        # the same limits as the capped child runs above, in process
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert _one_error_line(capsys) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bumpcheck_non_integer_index_is_domain_error(self, tmp_path, capsys):
        # was a ValueError traceback
        assert main(["bumpcheck", "--indices", "a,b", "--out-dir", str(tmp_path)]) == 1
        assert "'a,b'" in _one_error_line(capsys)

    @pytest.mark.parametrize("index", ["100000000000000000000", "1" + "0" * 400])
    def test_bumpcheck_index_past_exact_doubles_is_range_error(self, tmp_path, capsys, index):
        # 10^20 printed PASS with last=inf, 10^400 ended in an OverflowError traceback
        assert main(["bumpcheck", "--indices", f"100,{index}", "--out-dir", str(tmp_path)]) == 1
        assert _one_error_line(capsys) == (
            f"error: basis index {index} exceeds 2^53 = 9007199254740992, "
            "the largest index a double holds exactly\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index, allowance", [("1000000000", "1.841e-05"), ("9007199254740992", "4.332e+127")],
                             ids=["1e9", "2^53"])
    def test_bumpcheck_index_past_log_psi_accuracy_is_range_error(self, tmp_path, capsys, index, allowance):
        # both printed PASS on rounding error: last=4.79e-06 and last=5.320482e+11
        assert main(["bumpcheck", "--indices", f"100,{index}", "--out-dir", str(tmp_path)]) == 1
        assert _one_error_line(capsys) == (
            f"error: basis index {index} is past log psi's accuracy: its bump error over "
            f"window 2.0 is within the rounding allowance {allowance}\n")
        assert list(tmp_path.iterdir()) == []

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

        def skewed(n, p):
            return true_mass(n, p) * (1.0 + 1e-3 if n == 4 else 1.0)

        monkeypatch.setattr(analysis, "block_mass", skewed)
        assert main(argv + ["--out-dir", str(tmp_path / "bad")]) == 1
        doc = json.loads((tmp_path / "bad" / "weights_summary.json").read_text())
        assert not doc["passed"]
        assert any(note.startswith("G(5,3.0)/G(4,3.0)=") for note in doc["notes"])

    def test_weights_p2_passes(self, tmp_path):
        assert main(["weights", "--p", "2", "--max-block", "6",
                     "--out-dir", str(tmp_path)]) == 0

    def test_weights_p1_sums_each_block_mass_once(self, tmp_path, monkeypatch):
        # the table takes the divergence profile's masses: 8 block sums at
        # block 8, not 16
        calls = []
        true_mass = analysis.block_mass

        def spy(n, p):
            calls.append((n, p))
            return true_mass(n, p)

        monkeypatch.setattr(analysis, "block_mass", spy)
        assert main(["weights", "--p", "1", "--max-block", "8",
                     "--out-dir", str(tmp_path)]) == 0
        assert calls == [(n, 1.0) for n in range(1, 9)]

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_weights_builds_no_expansion(self, tmp_path, monkeypatch, p):
        # the masses are per-row sums: no combo expansion is built
        def refuse(max_block):
            raise AssertionError("weights built a combo expansion")

        monkeypatch.setattr(cli, "build_combo", refuse)
        assert main(["weights", "--p", p, "--max-block", "8",
                     "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("max_block, message", [
        ("0", "block number must be >= 1, got 0"),
        ("9", "max_block 9 exceeds cap 8"),
        ("30", "max_block 30 exceeds cap 8"),  # checked before block_spec's 64-bit range
    ])
    def test_weights_block_range(self, tmp_path, capsys, max_block, message):
        code = main(["weights", "--max-block", max_block, "--out-dir", str(tmp_path)])
        assert code == 1
        assert _one_error_line(capsys) == f"error: {message}\n"
        assert not (tmp_path / "weights_summary.json").exists()

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

    def test_weights_infinite_p_rejected(self, tmp_path, capsys):
        # the mass bracket at p = inf was (nan, nan); at --max-block 1 the
        # prediction 0 * inf = nan was reported as below the normal range
        for extra in ([], ["--max-block", "1"]):
            code = main(["weights", "--p", "inf", *extra, "--out-dir", str(tmp_path)])
            assert code == 1
            assert _one_error_line(capsys) == "error: p must be finite and >= 1, got inf\n"
            assert not (tmp_path / "weights_summary.json").exists()

    @pytest.mark.parametrize("max_block", ["1", "8"])
    def test_weights_nan_p_rejected(self, tmp_path, capsys, max_block):
        # was "p=nan is too large ... prediction nan is below the normal range"
        code = main(["weights", "--p", "nan", "--max-block", max_block,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert _one_error_line(capsys) == "error: p must be finite and >= 1, got nan\n"
        assert not (tmp_path / "weights_summary.json").exists()

    def test_norms_block_past_sign_cap_fails_first(self, tmp_path, capsys, monkeypatch):
        # block 13 was rejected inside a worker, after blocks 1-12 had run
        calls = []
        monkeypatch.setattr(blocks, "row_sup_norms", lambda *a: calls.append(a) or [])
        code = main(["norms", "--scheme", "combo", "--max-block", "13", "--rows", "64",
                     "--slots", "4", "--out-dir", str(tmp_path)])
        assert code == 1
        assert _one_error_line(capsys).startswith("error: sign pattern for block 13 ")
        assert calls == []
        assert not (tmp_path / "norms.csv").exists()

    @pytest.mark.parametrize("edge", ["1", "2"])
    def test_norms_bounded_envelope_touch_passes(self, tmp_path, edge):
        # the envelope touches h_k0 by construction; the touch point's
        # rounding used to fail the gate
        assert main(["norms", "--scheme", "bounded", "--domain-edge", edge,
                     "--out-dir", str(tmp_path)]) == 0


# Every numeric flag of every subcommand, at the edges of its type: zero,
# signed zero, the smallest subnormal, values whose squares underflow, the
# first integer a double cannot hold, 2^63, the double range's end, the
# infinities and NaN, and an integer past every float.
_SWEEP_FLOATS = {"0": "0", "-0.0": "-0.0", "5e-324": "5e-324", "1e-300": "1e-300",
                 "1e-160": "1e-160", "1": "1", "2^53+1": str(2**53 + 1), "2^63": str(2**63),
                 "1e308": "1e308", "inf": "inf", "-inf": "-inf", "nan": "nan"}
_SWEEP_INTS = {"0": "0", "-1": "-1", "1": "1", "2^53+1": str(2**53 + 1), "2^63": str(2**63),
               "10^400": "1" + "0" * 400}
# The only cases left out, with their time on 2 shared vCPUs: --rows is
# clamped to each block's rows, so these run the full 6-block table
# (test_norms_rows_clamped_to_block checks the clamp at block 2).  The
# table takes about 2.8 s; the sweep's tracemalloc makes it 27-29 s.
_SWEEP_SLOW = {("norms", "--rows", "2^53+1"): "27 s", ("norms", "--rows", "2^63"): "28 s",
               ("norms", "--rows", "10^400"): "29 s"}
# A rejected value fails before any large allocation: the traced peak of
# every case that exits 1 stays under this (the largest seen is 0.6 MB).
_SWEEP_REJECT_PEAK = 64 << 20


def _sweep_cases() -> list:
    cli._build_parser()
    cases = []
    for command, parser in sorted(cli._SUBPARSERS.items()):
        for action in parser._actions:
            if action.type not in (int, float) and action.dest != "indices":
                continue
            flag = action.option_strings[-1]
            values = _SWEEP_FLOATS if action.type is float else _SWEEP_INTS
            cases += [pytest.param(command, flag, text, id=f"{command}{flag}={label}")
                      for label, text in values.items() if (command, flag, label) not in _SWEEP_SLOW]
    return cases


class TestFlagSweep:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, flag, value", _sweep_cases())
    def test_exits_in_one_line(self, tmp_path, capsys, command, flag, value):
        # bumpcheck --indices=2^63 ended in a RuntimeWarning, 10^400 in an
        # OverflowError traceback, and 2^53+1 passed on a rounded index
        extra = ["--n=2"] if command == "signs" and flag != "--n" else []
        tracemalloc.start()
        try:
            code = main([command, f"{flag}={value}", *extra, "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code in (0, 1)
        assert code == 0 or peak < _SWEEP_REJECT_PEAK, peak
        if code == 1 and err:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            status = "PASS" if code == 0 else "FAIL"
            assert err == "" and out.startswith(f"{command}: {status} ") and out.count("\n") == 1, out


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


def _built_certificate(tmp_path: Path, capsys) -> Path:
    assert main(["probe", "--n", "20", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path / "probe_gaussian_cos_n20.json"


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {"schema_version": 1}, "lacks kernel, template"),
            (lambda doc: {**doc, "kernel": "sinc"}, "unknown kernel 'sinc'"),
            (lambda doc: {**doc, "template": "saw"}, "unknown template 'saw'"),
            (lambda doc: {**doc, "points": ["x"] * doc["n"]}, "malformed value"),
            (lambda doc: [doc], "JSON object"),
            (lambda doc: {**doc, "n": 0, "points": [], "coefficients": []}, "n must be >= 1"),
            (lambda doc: {**doc, "points": [*doc["points"][:-1], float("inf")]}, "non-finite"),
            (lambda doc: {**doc, "coefficients": [float("nan"), *doc["coefficients"][1:]]},
             "non-finite"),
            (lambda doc: {**doc, "delta": 0.0}, "delta=0.0; it must lie in (0, 1)"),
            (lambda doc: {**doc, "delta": 1e-300},
             "delta=1e-300 is too small: its square underflows below the normal range"),
            (lambda doc: {**doc, "epsilon": 5.0}, "epsilon=5.0; it must lie in (0, 1)"),
            (lambda doc: {**doc, "n": 5.7}, "n must be an integer"),
            (lambda doc: {**doc, "epsilon": "0.1", "delta": "0.9"},
             "epsilon='0.1' is not a JSON number"),
            (lambda doc: {**doc, "n": 3, "points": "123"}, "points is not an array"),
            (lambda doc: {**doc, "quad_form": True}, "quad_form=True is not a JSON number"),
            (lambda doc: {**doc, "coefficients": [str(doc["coefficients"][0]),
                                                  *doc["coefficients"][1:]]},
             "coefficients is not an array"),
        ],
        ids=["only-schema", "unknown-kernel", "unknown-template", "bad-point", "not-an-object",
             "no-points", "infinite-point", "nan-coefficient", "zero-delta", "tiny-delta",
             "large-epsilon",
             "fractional-n", "string-eps-delta", "string-points", "bool-quad-form",
             "string-coefficient"],
    )
    def test_verify_malformed_certificate_is_domain_error(self, tmp_path, capsys, edit, message):
        # the first three ended in KeyError tracebacks, an infinite point in
        # a math domain error, and the last three in a vacuous PASS
        cert = _built_certificate(tmp_path, capsys)
        cert.write_text(json.dumps(edit(json.loads(cert.read_text()))))
        assert main(["probe", "--verify", str(cert)]) == 1
        assert message in _one_error_line(capsys)

    def test_verify_invalid_json_is_domain_error(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text('{"schema_version": 1,')
        assert main(["probe", "--verify", str(cert)]) == 1
        assert "not valid JSON" in _one_error_line(capsys)

    def test_verify_too_few_points_fails_without_row_sums(self, tmp_path, capsys):
        # verification reported size_mismatch, then the row sums raised
        # IndexError on the missing points
        cert = _built_certificate(tmp_path, capsys)
        doc = json.loads(cert.read_text())
        doc["points"] = doc["points"][:5]
        cert.write_text(json.dumps(doc))
        assert main(["probe", "--verify", str(cert)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == f"probe: FAIL verify {cert}: inequalities=size_mismatch row_bounds=skipped\n"


    def test_verify_past_row_1023_fails_row_bounds_in_one_line(self, tmp_path, capsys):
        # a valid 1,100-point Gaussian certificate: its budgets underflow to
        # 0.0 from about row 1,080 on, and 2.0**i once raised OverflowError
        n = 1100
        pts = tuple(100.0 * math.pi * k for k in range(1, n + 1))
        cert = probe._certify(probe.PROFILES["gaussian"], probe.TEMPLATES["cos"], 0.1, 0.9, n, pts)
        path = tmp_path / "cert.json"
        probe.certificate_to_json(cert, path)
        assert main(["probe", "--verify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == f"probe: FAIL verify {path}: inequalities=ok row_bounds=violated\n"


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
        assert doc["pair_paths"] == {"head": 0, "narrow": 25, "wide": 0, "disjoint": 0}

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

    @pytest.mark.parametrize("flag", ["--max", "--max-b", "--max=3", "--max-block=3"])
    def test_abbreviated_flags_beat_config(self, tmp_path, flag):
        # argparse takes --max for --max-block; the config's block 5 won
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_block": 5}))
        value = [] if "=" in flag else ["3"]
        assert main(["weights", flag, *value, "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "weights_summary.json").read_text())
        assert doc["max_block"] == 3

    @pytest.mark.parametrize(
        "text, message",
        [("{\"horizon\": 60", "not valid JSON"), ('{"horizon": "abc"}', "horizon='abc'"),
         ("[1]", "error: config file must contain a JSON object\n")],
        ids=["malformed-json", "bad-value", "not-an-object"],
    )
    def test_bad_config_is_domain_error(self, tmp_path, capsys, text, message):
        # JSONDecodeError and ValueError tracebacks before
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, cfg_doc, message",
        [
            (["reconstruct"], {"scheme": "foo"}, "scheme='foo' is not one of --scheme"),
            (["reconstruct"], {"horizon": 1.5}, "horizon=1.5 is not valid for --horizon"),
            (["norms", "--scheme", "raw"], {"horizon": [3]}, "horizon=[3] is not valid"),
            (["reconstruct"], {"threads": 2}, "config key 'threads' is not a flag of gkexpand reconstruct"),
            (["reconstruct"], {"horizn": 5}, "config key 'horizn' is not a flag of gkexpand reconstruct"),
        ],
        ids=["bad-choice", "float-for-int", "list-for-int", "threads", "misspelt-key"],
    )
    def test_config_value_meets_its_flag_checks(self, tmp_path, capsys, command, cfg_doc, message):
        # {"scheme": "foo"} passed as combo, {"horizn": 5} passed with the
        # default horizon; the others were TypeError tracebacks
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(command + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg_doc, message",
        [
            ({"out_dir": None}, "out_dir=None is not valid for --out-dir"),
            ({"n": True}, "n=True is not valid for --n"),
            ({"n": [2]}, "n=[2] is not valid for --n"),
            ({"out_dir": {"path": "x"}}, "out_dir={'path': 'x'} is not valid for --out-dir"),
        ],
        ids=["null", "boolean", "array", "object"],
    )
    def test_non_scalar_config_value_rejected(self, tmp_path, capsys, monkeypatch, cfg_doc, message):
        # {"out_dir": null} wrote signs_n2.csv into a directory named None
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GKEXPAND_OUT_DIR", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["signs", "--n", "2", "--config", str(cfg)]) == 1
        assert message in _one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_value_gives_the_flag_bytes(self, tmp_path):
        # the integer step is converted as the text "1" would be: 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 60, "step": 1, "scheme": "raw"}))
        base = ["reconstruct", "--range", "-1:1"]
        assert main(base + ["--config", str(cfg), "--out-dir", str(tmp_path / "cfg")]) == 0
        assert main(base + ["--horizon", "60", "--step", "1", "--scheme", "raw",
                            "--out-dir", str(tmp_path / "flag")]) == 0
        assert _dir_bytes(tmp_path / "cfg") == _dir_bytes(tmp_path / "flag")
        assert '"step": 1.0' in (tmp_path / "cfg" / "reconstruct_summary.json").read_text()


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
        for i in range(3):
            d = tmp_path / f"run{i}"
            assert main(argv + ["--out-dir", str(d)]) == 0
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
        outs = []
        for threads in ("1", "2"):
            d = tmp_path / f"blas{threads}"
            env = _src_env(OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "gkexpand.cli", *argv, "--out-dir", str(d)],
                env=env, capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append((proc.stdout, _dir_bytes(d)))
        assert outs[0] == outs[1]
