import json

import numpy as np
import pytest

from factordiff.cli import main
from factordiff.matrixio import load_matrix, save_matrix
from factordiff import hs_norm


def write(tmp_path, name, a):
    path = tmp_path / name
    save_matrix(path, np.asarray(a, dtype=float))
    return str(path)


class TestFactorCommand:
    def test_qr_identity(self, tmp_path, capsys):
        inp = write(tmp_path, "a.csv", np.eye(2))
        out = str(tmp_path / "out")
        assert main(["factor", "--kind", "qr", "--input", inp, "--output", out]) == 0
        assert np.allclose(load_matrix(out + "_q.csv"), np.eye(2))
        assert np.allclose(load_matrix(out + "_r.csv"), np.eye(2))

    def test_ldu_domain_error_exit_2(self, tmp_path, capsys):
        inp = write(tmp_path, "a.csv", [[0.0, 1.0], [1.0, 0.0]])
        code = main(["factor", "--kind", "ldu", "--input", inp, "--output", str(tmp_path / "o")])
        assert code == 2
        assert "NotInDomainP k=1" in capsys.readouterr().err

    def test_cholesky_hand_example(self, tmp_path):
        inp = write(tmp_path, "a.csv", [[4.0, 2.0], [2.0, 5.0]])
        out = str(tmp_path / "chol")
        assert main(["factor", "--kind", "cholesky", "--input", inp, "--output", out]) == 0
        assert np.allclose(load_matrix(out + "_l.csv"), [[2.0, 0.0], [1.0, 2.0]])

    def test_cholesky_domain_errors(self, tmp_path, capsys):
        indef = write(tmp_path, "indef.csv", [[1.0, 2.0], [2.0, 1.0]])
        code = main(["factor", "--kind", "cholesky", "--input", indef, "--output", str(tmp_path / "x")])
        assert code == 2
        assert "NotPositiveSemiDefinite" in capsys.readouterr().err
        asym = write(tmp_path, "asym.csv", [[1.0, 0.5], [0.0, 1.0]])
        code = main(["factor", "--kind", "cholesky", "--input", asym, "--output", str(tmp_path / "y")])
        assert code == 2
        assert "NotSymmetric" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        a = np.array([[2.0, 1.0], [4.0, 5.0]])
        path = tmp_path / "a.json"
        save_matrix(path, a, fmt="json")
        out = str(tmp_path / "f")
        code = main([
            "factor", "--kind", "ldu", "--input", str(path),
            "--output", out, "--format", "json",
        ])
        assert code == 0
        l = load_matrix(out + "_l.json")
        d = load_matrix(out + "_d.json")
        u = load_matrix(out + "_u.json")
        assert np.allclose(l @ d @ u, a, atol=1e-12)

    def test_round_trip_audit(self, tmp_path):
        rng = np.random.default_rng(191)
        a = rng.uniform(-1.0, 1.0, (5, 5))
        inp = write(tmp_path, "a.csv", a)
        out = str(tmp_path / "f")
        assert main(["factor", "--kind", "qr", "--input", inp, "--output", out]) == 0
        q = load_matrix(out + "_q.csv")
        r = load_matrix(out + "_r.csv")
        assert hs_norm(q @ r - a) <= 1e-10 * (1.0 + hs_norm(a))

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1

    def test_json_bool_n_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": true, "entries": [5]}')
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output",
                     str(tmp_path / "o"), "--format", "json"])
        assert code == 1
        assert capsys.readouterr().err == 'error: "n" must be a positive integer\n'

    def test_json_non_numeric_entries_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "entries": [{}]}')
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output",
                     str(tmp_path / "o"), "--format", "json"])
        assert code == 1
        assert capsys.readouterr().err == 'error: "entries" must all be numbers\n'

    def test_json_entry_beyond_float64_exit_1(self, tmp_path, capsys):
        # unchecked, an integer past float64's range ended in an OverflowError traceback
        bad = tmp_path / "big.json"
        bad.write_text('{"n": 1, "entries": [1' + "0" * 400 + "]}")
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output",
                     str(tmp_path / "o"), "--format", "json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: matrix is not convertible")

    def test_csv_underscore_cell_exit_1(self, tmp_path, capsys):
        # unchecked, Python's float read the cell 1_0 as 10
        bad = tmp_path / "bad.csv"
        bad.write_text("1_0,0\n0,1\n")
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1: not a comma-separated row of numbers\n"

    def test_csv_non_ascii_digit_exit_1(self, tmp_path, capsys):
        # unchecked, Python's float read the Arabic-Indic and full-width ones as 1
        bad = tmp_path / "bad.csv"
        bad.write_text("\u0661,0\n0,\uff11\n", encoding="utf-8")
        code = main(["factor", "--kind", "qr", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1: not a comma-separated row of numbers\n"

    def test_missing_input_exit_1(self, tmp_path):
        code = main([
            "factor", "--kind", "qr",
            "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o"),
        ])
        assert code == 1


class TestDerivativeCommand:
    def test_qr_hand_example(self, tmp_path, capsys):
        inp = write(tmp_path, "a.csv", np.eye(2))
        pert = write(tmp_path, "e.csv", [[0.0, 0.0], [1.0, 0.0]])
        out = str(tmp_path / "d")
        code = main([
            "derivative", "--kind", "qr", "--input", inp,
            "--perturbation", pert, "--output", out,
        ])
        assert code == 0
        assert np.array_equal(load_matrix(out + "_u.csv"), [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(load_matrix(out + "_v.csv"), [[0.0, 1.0], [0.0, 0.0]])
        assert float((tmp_path / "d_residual.txt").read_text()) == 0.0

    def test_zero_perturbation(self, tmp_path):
        inp = write(tmp_path, "a.csv", [[2.0, 1.0], [4.0, 5.0]])
        pert = write(tmp_path, "e.csv", np.zeros((2, 2)))
        out = str(tmp_path / "d")
        for kind in ("qr", "cholesky", "ldu"):
            if kind == "cholesky":
                inp_k = write(tmp_path, "spd.csv", [[4.0, 2.0], [2.0, 5.0]])
            else:
                inp_k = inp
            code = main([
                "derivative", "--kind", kind, "--input", inp_k,
                "--perturbation", pert, "--output", out,
            ])
            assert code == 0
            assert float((tmp_path / "d_residual.txt").read_text()) == 0.0

    def test_residual_over_its_bound_exit_3(self, tmp_path, capsys):
        # l's entry 3e4 makes the LDU solve lose digits; at 1e5 the input is
        # refused instead (exit 2)
        l = np.array([[1.0, 0.0], [3e4, 1.0]])
        inp = write(tmp_path, "a.csv", l @ l.T)
        pert = write(tmp_path, "e.csv", np.random.default_rng(1).standard_normal((2, 2)))
        out = str(tmp_path / "d")
        code = main([
            "derivative", "--kind", "ldu", "--input", inp,
            "--perturbation", pert, "--output", out,
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "residual exceeds its bound" in captured.err
        assert "residual=8.0858969078815373e-08" in captured.out
        assert float((tmp_path / "d_residual.txt").read_text()) == 8.0858969078815373e-08

    def test_outside_domain_exit_2(self, tmp_path):
        inp = write(tmp_path, "a.csv", [[0.0, 1.0], [1.0, 0.0]])
        pert = write(tmp_path, "e.csv", np.eye(2))
        code = main([
            "derivative", "--kind", "ldu", "--input", inp,
            "--perturbation", pert, "--output", str(tmp_path / "d"),
        ])
        assert code == 2


class TestTrackCommand:
    def test_constant_family(self, tmp_path):
        inp = write(tmp_path, "a.csv", np.eye(2))
        out = tmp_path / "traj.csv"
        code = main([
            "track", "--kind", "qr", "--input", inp, inp, "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,norm_q,norm_r,newton_iters,residual"
        assert len(lines) == 66  # header + 65 samples
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[-1]) == 0.0

    def test_endpoint_matches_factor_command(self, tmp_path):
        rng = np.random.default_rng(193)
        noise = rng.uniform(-1.0, 1.0, (4, 4))
        noise = 0.4 * noise / hs_norm(noise)
        a0 = np.eye(4)
        a1 = np.eye(4) + noise
        start = write(tmp_path, "a0.csv", a0)
        end = write(tmp_path, "a1.csv", a1)
        out = tmp_path / "traj.csv"
        code = main(["track", "--kind", "qr", "--input", start, end, "--output", str(out)])
        assert code == 0
        fout = str(tmp_path / "direct")
        assert main(["factor", "--kind", "qr", "--input", end, "--output", fout]) == 0
        r_direct = load_matrix(fout + "_r.csv")
        last = out.read_text().strip().splitlines()[-1].split(",")
        assert abs(float(last[2]) - hs_norm(r_direct)) <= 1e-8 * (1.0 + hs_norm(r_direct))

    def test_singular_midpoint_exit_2(self, tmp_path, capsys):
        # each row is written as its sample is accepted: the refusal at t=0.5
        # leaves the header and the rows before it
        start = write(tmp_path, "a0.csv", np.eye(2))
        end = write(tmp_path, "a1.csv", -np.eye(2))
        out = tmp_path / "t.csv"
        code = main([
            "track", "--kind", "qr", "--input", start, end, "--steps", "4",
            "--output", str(out),
        ])
        assert code == 2
        assert "t=0.5" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == "t,norm_q,norm_r,newton_iters,residual"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.25]

    @pytest.mark.parametrize("kind", ["qr", "cholesky", "ldu"])
    def test_refusal_at_start_leaves_no_file(self, tmp_path, capsys, kind):
        start = write(tmp_path, "zero.csv", np.zeros((3, 3)))
        end = write(tmp_path, "eye.csv", np.eye(3))
        out = tmp_path / "t.csv"
        code = main(["track", "--kind", kind, "--input", start, end, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.endswith(" at t=0\n")
        assert not out.exists()

    def test_custom_samples_family(self, tmp_path):
        s0 = write(tmp_path, "s0.csv", np.eye(2))
        s1 = write(tmp_path, "s1.csv", [[1.2, 0.1], [0.0, 1.1]])
        s2 = write(tmp_path, "s2.csv", [[1.4, 0.0], [0.1, 0.9]])
        out = tmp_path / "traj.csv"
        code = main([
            "track", "--kind", "qr", "--family", "custom-samples",
            "--input", s0, s1, s2, "--steps", "32", "--output", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 34

    def test_wrong_endpoint_count_exit_1(self, tmp_path):
        s0 = write(tmp_path, "s0.csv", np.eye(2))
        code = main(["track", "--kind", "qr", "--input", s0, "--output", str(tmp_path / "t.csv")])
        assert code == 1

    @pytest.mark.parametrize(
        "dims, message",
        [
            ([2], "custom-samples family needs at least two matrix files"),
            ([2, 3], "family samples must share one dimension"),
        ],
        ids=["one-sample", "mixed-dimensions"],
    )
    def test_bad_custom_samples_exit_1(self, tmp_path, capsys, dims, message):
        files = [write(tmp_path, f"s{i}.csv", np.eye(n)) for i, n in enumerate(dims)]
        code = main([
            "track", "--kind", "qr", "--family", "custom-samples",
            "--input", *files, "--output", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_correction_exit_3(self, tmp_path, capsys):
        # one step across a rotation by 3 radians: halved four times, the
        # step from t=7/16 to t=0.5 still fails to correct
        c, s = np.cos(3.0), np.sin(3.0)
        start = write(tmp_path, "a0.csv", np.diag([1.0, 2.0]))
        end = write(tmp_path, "a1.csv", np.array([[c, -s], [s, c]]) @ np.diag([1.0, 2.0]))
        code = main([
            "track", "--kind", "qr", "--steps", "1", "--input", start, end,
            "--output", str(tmp_path / "t.csv"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "NoConvergence correction failed at t=0.5 after 4 step halvings\n"
        )


class TestVerifyCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--seed", "0", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload) == 6
        assert all(entry["passed"] for entry in payload)
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_byte_identical_reports(self, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["verify", "--seed", "0", "--report", str(r1)]) == 0
        assert main(["verify", "--seed", "0", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_unwritable_report_exit_1(self, tmp_path):
        code = main([
            "verify", "--seed", "0",
            "--report", str(tmp_path / "missing_dir" / "r.json"),
        ])
        assert code == 1


class TestUsage:
    """argparse's usage errors exit 1, a parse failure, since 2 is the
    domain refusal's code; --help still exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [["factor", "--kind", "bogus", "--input", "a.csv", "--output", "o"], [], ["bogus"]],
        ids=["unknown-kind", "no-subcommand", "unknown-subcommand"],
    )
    def test_usage_error_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["track", "--help"]])
    def test_help_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: factordiff")
