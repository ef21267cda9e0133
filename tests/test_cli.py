"""CLI and file-format tests: TNSR round trips, exit codes, determinism."""

import csv
import json
import re
import struct

import numpy as np
import pytest

from tensorreg.cli import main
from tensorreg.errors import DomainError, ParseError
from tensorreg.io import (
    parse_tensor_file,
    read_covariates_csv,
    read_response_csv,
    write_bic_table_csv,
    write_covariates_csv,
    write_pgm,
    write_response_csv,
    write_tensor_file,
)
from tensorreg.model import effective_parameters, load_model
from tensorreg.shapes import STUDY_COLUMNS
from tensorreg.tensor_core import DenseTensor


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stack = [DenseTensor.from_array(rng.standard_normal((3, 4))) for _ in range(5)]
        path = tmp_path / "x.tnsr"
        write_tensor_file(path, stack)
        back = parse_tensor_file(path)
        assert len(back) == 5
        for a, b in zip(stack, back):
            assert a.dims == b.shape
            np.testing.assert_array_equal(a.to_array(), b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError, match="magic"):
            parse_tensor_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tnsr"
        header = b"TNSR" + struct.pack("<II", 2, 2) + struct.pack("<2I", 3, 4)
        path.write_bytes(header + b"\x00" * (8 * 12))  # one sample missing
        with pytest.raises(ParseError, match="require"):
            parse_tensor_file(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.tnsr"
        path.write_bytes(b"TNSR" + struct.pack("<II", 1, 2) + struct.pack("<2I", 3, 0))
        with pytest.raises(ParseError):
            parse_tensor_file(path)


class TestCsvFiles:
    def test_response_round_trip(self, tmp_path):
        y = np.array([1.5, -2.25, 0.1234567890123])
        path = tmp_path / "y.csv"
        write_response_csv(path, y)
        np.testing.assert_array_equal(read_response_csv(path), y)

    def test_response_header_required(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ParseError, match="header"):
            read_response_csv(path)

    @pytest.mark.parametrize("read, text, message", [
        (read_response_csv, "y\n0.5\n1.0,junk\n",
         "line 3 has 2 fields, the header has 1"),
        (read_response_csv, "y\n0.5\n\n2.0\n",
         "line 3 has 0 fields, the header has 1"),
        (read_covariates_csv, "z1,z2\n1.0,2.0\n3.0,4.0\n5.0\n",
         "line 4 has 1 fields, the header has 2"),
        (read_response_csv, "y\n0.5\njunk\n",
         "line 3: could not convert string to float: 'junk'"),
        (read_covariates_csv, "z1,z2\n1.0,2.0\n3.0,junk\n",
         "line 3: could not convert string to float: 'junk'"),
    ], ids=["response_extra_field", "response_blank_line", "covariates_ragged",
            "response_bad_cell", "covariates_bad_cell"])
    def test_row_of_the_wrong_width_names_its_line(self, tmp_path, read, text,
                                                   message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"data.csv: {message}$"):
            read(path)

    def test_bic_table_round_trip(self, tmp_path):
        table = [
            {"rank": 1, "bic": 12.5, "loglik": -0.1 - 0.2, "converged": True,
             "error": None},
            {"rank": 2, "bic": None, "loglik": None, "converged": False,
             "error": "block 1, cycle 3: design is singular"},
        ]
        path = tmp_path / "bic_table.csv"
        write_bic_table_csv(path, table)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["rank", "bic", "loglik", "converged", "error"],
            ["1", "12.5", repr(-0.1 - 0.2), "True", ""],
            ["2", "", "", "False", "block 1, cycle 3: design is singular"],
        ]

    def test_covariates_round_trip(self, tmp_path):
        z = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
        path = tmp_path / "z.csv"
        write_covariates_csv(path, z)
        names, back = read_covariates_csv(path)
        assert names == ["z1", "z2", "z3"]
        np.testing.assert_array_equal(back, z)


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, m)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        header, pixels = blob.rsplit(b"255\n", 1)
        assert b"2 2" in header
        assert pixels == bytes([0, 64, 128, 255])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_is_named_and_nothing_written(self, tmp_path, value):
        m = np.arange(12.0).reshape(3, 4)
        m[1, 2] = value
        m[2, 0] = np.nan
        path = tmp_path / "img.pgm"
        with pytest.raises(DomainError, match=r"entry \(1, 2\)"):
            write_pgm(path, m)
        assert not path.exists()


class TestMalformedFiles:
    @pytest.mark.parametrize("content, read, message", [
        pytest.param(b"TNSR" + b"\x00" * 4, parse_tensor_file,
                     "truncated header (8 bytes, need 12)", id="header"),
        pytest.param(b"TNSR" + struct.pack("<II", 0, 2), parse_tensor_file,
                     "invalid header n=0, D=2 at byte 4", id="n-0"),
        pytest.param(b"TNSR" + struct.pack("<II", 1, 3) + struct.pack("<I", 4),
                     parse_tensor_file, "truncated dims block (16 bytes, need 24)",
                     id="dims"),
        pytest.param(b"", read_response_csv, "empty CSV", id="empty-csv"),
        pytest.param(b"z1,\n1,2\n", read_covariates_csv,
                     "covariate header must name every column", id="unnamed-column"),
    ])
    def test_is_named(self, tmp_path, content, read, message):
        path = tmp_path / "file"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            read(path)

    def test_pgm_of_a_vector_is_refused(self, tmp_path):
        with pytest.raises(DomainError, match="PGM needs a 2-d array, got ndim=1"):
            write_pgm(tmp_path / "v.pgm", np.zeros(3))
        assert not (tmp_path / "v.pgm").exists()


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = run_cli(
        ["simulate", "--shape", "square", "--size", 16, "--family", "normal",
         "--n", 150, "--gamma-dim", 2, "--seed", 3, "--output-dir", out]
    )
    assert rc == 0
    return out


class TestCliFit:
    def test_fit_round_trip_predictions(self, sim_dir, tmp_path):
        outdir = tmp_path / "fitted"
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--covariates", sim_dir / "covariates.csv",
             "--family", "normal", "--rank", 1, "--restarts", 1, "--seed", 0,
             "--output-dir", outdir]
        )
        assert rc == 0
        assert (outdir / "trace.csv").exists()
        assert (outdir / "coefficients.pgm").exists()
        model = load_model(outdir / "model.json")
        model2 = load_model(outdir / "model.json")
        from tensorreg.io import parse_tensor_file as ptf
        from tensorreg.model import TensorGlmDataset

        ds = TensorGlmDataset(
            read_response_csv(sim_dir / "response.csv"),
            ptf(sim_dir / "x.tnsr"),
            read_covariates_csv(sim_dir / "covariates.csv")[1],
        )
        np.testing.assert_array_equal(
            model.linear_predictor(ds), model2.linear_predictor(ds)
        )

    def test_rank_zero_is_usage_error(self, sim_dir, tmp_path):
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--rank", 0, "--output-dir", tmp_path]
        )
        assert rc == 1

    def test_unknown_flag_is_usage_error(self, sim_dir, tmp_path):
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--output-dir", tmp_path, "--frobnicate", 1]
        )
        assert rc == 1

    def test_sample_count_mismatch_names_files(self, sim_dir, tmp_path, capsys):
        short = tmp_path / "short.csv"
        write_response_csv(short, np.ones(7))
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response", short,
             "--output-dir", tmp_path]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "short.csv" in err and "x.tnsr" in err

    def test_missing_file_is_input_error(self, tmp_path):
        rc = run_cli(
            ["fit", "--tensors", tmp_path / "nope.tnsr", "--response",
             tmp_path / "nope.csv", "--output-dir", tmp_path]
        )
        assert rc == 1

    def test_inspect_recomputes_bic(self, sim_dir, tmp_path, capsys):
        outdir = tmp_path / "fitted"
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--covariates", sim_dir / "covariates.csv",
             "--rank", 1, "--restarts", 1, "--output-dir", outdir]
        )
        assert rc == 0
        capsys.readouterr()
        rc = run_cli(["inspect", "--model", outdir / "model.json"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        model = load_model(outdir / "model.json")
        p_e = effective_parameters(model.dims, model.rank, model.p0)
        want = -2.0 * model.loglik + np.log(model.n) * p_e
        assert float(fields["bic_recomputed"]) == pytest.approx(want, rel=1e-12)
        assert float(fields["bic_stored"]) == pytest.approx(want, rel=1e-12)
        assert int(fields["effective_parameters"]) == p_e


class TestCliSimulate:
    def test_outputs_exist_and_parse(self, sim_dir):
        xs = parse_tensor_file(sim_dir / "x.tnsr")
        assert xs.shape == (150, 16, 16)
        y = read_response_csv(sim_dir / "response.csv")
        assert y.size == 150
        names, z = read_covariates_csv(sim_dir / "covariates.csv")
        assert z.shape == (150, 2)
        sig = parse_tensor_file(sim_dir / "signal.tnsr")
        assert sig.shape == (1, 16, 16)

    def test_deterministic_bytes(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        rc = run_cli(
            ["simulate", "--shape", "square", "--size", 16, "--family", "normal",
             "--n", 150, "--gamma-dim", 2, "--seed", 3, "--output-dir", out2]
        )
        assert rc == 0
        for name in ("x.tnsr", "response.csv", "covariates.csv", "signal.tnsr"):
            assert (out2 / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_negative_gamma_dim_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(
            ["simulate", "--shape", "square", "--size", 16, "--n", 50,
             "--gamma-dim", -1, "--output-dir", tmp_path]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--gamma-dim" in err
        assert not (tmp_path / "x.tnsr").exists()

    def test_write_path_allocates_less_than_the_payload(self, tmp_path, monkeypatch):
        import tracemalloc

        import tensorreg.cli as cli

        args = ["simulate", "--shape", "square", "--size", 32, "--family", "normal",
                "--n", 600, "--gamma-dim", 2, "--seed", 3, "--output-dir"]
        real_simulate, drawn = cli.simulate, []

        def simulate_once(spec):
            if not drawn:
                drawn.append(real_simulate(spec))
            return drawn[0]

        monkeypatch.setattr(cli, "simulate", simulate_once)
        assert run_cli(args + [tmp_path / "a"]) == 0
        payload = drawn[0].x_matrix().nbytes
        tracemalloc.start()
        try:
            assert run_cli(args + [tmp_path / "b"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload, (peak, payload)
        assert (tmp_path / "b" / "x.tnsr").read_bytes() == (
            tmp_path / "a" / "x.tnsr"
        ).read_bytes()


class TestCliBenchmark:
    def test_schema_and_determinism(self, tmp_path):
        args = ["benchmark", "--shape", "square", "--dims", 16, "--sizes", "120,160",
                "--replicates", 2, "--family", "normal", "--rank", 1,
                "--restarts", 1, "--gamma-dim", 2, "--seed", 17]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", a]) == 0
        assert run_cli(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "shape,n,param,mean_rmse,sd_rmse,rank_selected_mode"
        assert len(lines) == 1 + 4  # 2 sizes x 2 parameter groups

    def test_negative_gamma_dim_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(
            ["benchmark", "--shape", "square", "--dims", 16, "--sizes", "100",
             "--rank", 1, "--gamma-dim", -1, "--output", tmp_path / "s.csv"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--gamma-dim" in err
        assert not (tmp_path / "s.csv").exists()

    def test_sizes_must_be_integers(self, tmp_path, capsys):
        rc = run_cli(["benchmark", "--shape", "square", "--sizes", "100,x", "--rank", 1,
                      "--output", tmp_path / "s.csv"])
        assert rc == 1
        assert "expected comma-separated integers: 100,x" in capsys.readouterr().err

    def test_failed_replicates_are_warned(self, tmp_path, capsys):
        # n = 20 is too few observations for a 16 x 16 rank-1 fit
        out = tmp_path / "s.csv"
        rc = run_cli(["benchmark", "--shape", "square", "--dims", 16, "--sizes", "20",
                      "--replicates", 2, "--rank", 1, "--output", out])
        assert rc == 0
        err = capsys.readouterr().err
        for rep in (0, 1):
            assert f"warning: replicate {rep} at n=20 failed: n=20 too small" in err
        assert out.read_text().strip().splitlines() == [",".join(STUDY_COLUMNS)]

    def test_rank_flags_mutually_exclusive(self, tmp_path):
        rc = run_cli(
            ["benchmark", "--shape", "square", "--sizes", "100", "--rank", 1,
             "--max-rank", 2, "--output", tmp_path / "c.csv"]
        )
        assert rc == 1

    def test_rank_or_max_rank_required(self, tmp_path, capsys):
        rc = run_cli(
            ["benchmark", "--shape", "square", "--sizes", "100",
             "--output", tmp_path / "c.csv"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--rank --max-rank" in err
        assert not (tmp_path / "c.csv").exists()


class TestCliRankSelect:
    def test_writes_table_and_model(self, sim_dir, tmp_path):
        outdir = tmp_path / "sel"
        rc = run_cli(
            ["rank-select", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--covariates", sim_dir / "covariates.csv",
             "--max-rank", 2, "--restarts", 1, "--output-dir", outdir]
        )
        assert rc == 0
        table = (outdir / "bic_table.csv").read_text().strip().splitlines()
        assert table[0] == "rank,bic,loglik,converged,error"
        assert len(table) == 3
        model = load_model(outdir / "model.json")
        assert model.rank == 1  # square signal


@pytest.mark.parametrize("command", ["fit", "rank-select", "simulate", "benchmark"])
def test_negative_seed_is_usage_error(command, sim_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = {
        "fit": ["--tensors", sim_dir / "x.tnsr", "--response",
                sim_dir / "response.csv", "--output-dir", out],
        "rank-select": ["--tensors", sim_dir / "x.tnsr", "--response",
                        sim_dir / "response.csv", "--output-dir", out],
        "simulate": ["--shape", "square", "--size", 16, "--n", 50,
                     "--output-dir", out],
        "benchmark": ["--shape", "square", "--dims", 16, "--sizes", "100",
                      "--rank", 1, "--output", out],
    }[command]
    rc = run_cli([command, *args, "--seed", -1])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "rank-select"])
class TestCliRho:
    def run(self, command, sim_dir, outdir, *flags):
        return run_cli(
            [command, "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--restarts", 1, "--output-dir", outdir,
             *flags]
        )

    def test_negative_rho_is_usage_error(self, command, sim_dir, tmp_path, capsys):
        rc = self.run(command, sim_dir, tmp_path, "--penalty", "lasso", "--rho", -1)
        assert rc == 1
        assert "--rho" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_nonfinite_rho_is_usage_error(self, command, sim_dir, tmp_path, capsys,
                                          rho):
        rc = self.run(command, sim_dir, tmp_path, "--penalty", "lasso", "--rho", rho)
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--rho" in err and rho in err
        assert not (tmp_path / "model.json").exists()

    def test_rho_without_penalty_is_input_error(self, command, sim_dir, tmp_path,
                                                 capsys):
        rc = self.run(command, sim_dir, tmp_path, "--rho", 5)
        assert rc == 1
        err = capsys.readouterr().err
        assert "--rho" in err and "--penalty" in err
        assert not (tmp_path / "model.json").exists()

    def test_zero_rho_means_no_penalty(self, command, sim_dir, tmp_path):
        rc = self.run(command, sim_dir, tmp_path, "--penalty", "lasso", "--rho", 0)
        assert rc == 0
        assert load_model(tmp_path / "model.json").penalty is None


class TestCliExitCodes:
    def test_nonconvergence_exits_2_but_writes_model(self, sim_dir, tmp_path):
        outdir = tmp_path / "stunted"
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--covariates", sim_dir / "covariates.csv",
             "--rank", 1, "--restarts", 1, "--epsilon", 1e-300,
             "--max-outer-iters", 1, "--output-dir", outdir]
        )
        assert rc == 2
        model = load_model(outdir / "model.json")
        assert not model.converged

    def test_penalized_fit_via_cli(self, sim_dir, tmp_path):
        outdir = tmp_path / "lasso"
        rc = run_cli(
            ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
             sim_dir / "response.csv", "--covariates", sim_dir / "covariates.csv",
             "--rank", 1, "--restarts", 1, "--penalty", "lasso", "--rho", 5.0,
             "--output-dir", outdir]
        )
        assert rc == 0
        model = load_model(outdir / "model.json")
        assert model.penalty is not None
        assert model.penalty.family == "power" and model.penalty.lam == 1.0

    def test_bridge_fits_the_given_lam(self, sim_dir, tmp_path, capsys):
        def run(outdir, penalty, lam):
            return run_cli(
                ["fit", "--tensors", sim_dir / "x.tnsr", "--response",
                 sim_dir / "response.csv", "--rank", 1, "--restarts", 1,
                 "--max-outer-iters", 5, "--penalty", penalty, "--rho", 5.0,
                 "--lam", lam, "--output-dir", outdir]
            )

        assert run(tmp_path / "bridge", "bridge", 0.3) in (0, 2)
        model = load_model(tmp_path / "bridge" / "model.json")
        assert model.penalty.family == "power" and model.penalty.lam == 0.3
        capsys.readouterr()
        assert run(tmp_path / "lasso", "lasso", 0.3) == 1
        err = capsys.readouterr().err
        assert "lasso is the power penalty with lam 1, got lam 0.3" in err
        assert not (tmp_path / "lasso").exists()
