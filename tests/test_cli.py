"""Command line interface tests (in-process via main())."""

import itertools
import json

import numpy as np
import pytest

from lptensor.cli import _shared_parser, build_parser, main


def write_tensor(path, dims, values):
    path.write_text(json.dumps({"dims": dims, "values": values}))
    return str(path)


@pytest.fixture
def ones_tensor(tmp_path):
    return write_tensor(tmp_path / "ones.json", [2, 2, 2], [1.0] * 8)


@pytest.fixture
def diag_matrix(tmp_path):
    return write_tensor(tmp_path / "diag.json", [2, 2], [3.0, 0.0, 0.0, 1.0])


@pytest.fixture
def diag_tensor(tmp_path):
    return write_tensor(
        tmp_path / "diag3.json", [2, 2, 2], [1.0, 0, 0, 0, 0, 0, 0, 2.0]
    )


class TestEval:
    def test_all_ones(self, ones_tensor, capsys):
        assert main(["eval", ones_tensor, "1,1", "1,1", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_identity_off_diagonal(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "eye.json", [2, 2], [1.0, 0.0, 0.0, 1.0])
        assert main(["eval", path, "1,0", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_seventeen_digits(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "t.json", [2, 2], [1 / 3, 0.0, 0.0, 0.0])
        assert main(["eval", path, "1,0", "1,0"]) == 0
        assert capsys.readouterr().out.strip() == "0.33333333333333331"

    def test_dimension_mismatch_exits_2_naming_mode(self, ones_tensor, capsys):
        assert main(["eval", ones_tensor, "1,1", "1,1,1", "1,1"]) == 2
        assert "mode 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["eval", "/nonexistent/tensor.json", "1,1"]) == 2


class TestSingular:
    def test_diagonal_matrix_reports_both_sigmas(self, diag_matrix, capsys):
        assert main(["singular", diag_matrix, "--p", "2", "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        sigmas = sorted(round(r["sigma"], 8) for r in report["results"])
        assert sigmas == [1.0, 3.0]
        assert all("residual" in r for r in report["results"])

    def test_single_entry_tensor_p3(self, tmp_path, capsys):
        path = write_tensor(
            tmp_path / "e1.json", [2, 2, 2], [3.0, 0, 0, 0, 0, 0, 0, 0]
        )
        assert main(["singular", path, "--p", "3", "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["results"][0]["sigma"] - 3.0) < 1e-9

    def test_per_mode_exponent_list(self, tmp_path, capsys):
        path = write_tensor(
            tmp_path / "m.json", [2, 2, 2], [3.0, 0, 0, 0, 0, 0, 0, 0]
        )
        assert main(["singular", path, "--p", "2,3,4", "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["p"] == [2, 3, 4]
        assert abs(report["results"][0]["sigma"] - 3.0) < 1e-9

    def test_wrong_exponent_count_exits_2(self, diag_matrix, capsys):
        assert main(["singular", diag_matrix, "--p", "2,3,4"]) == 2

    def test_byte_identical_reports(self, diag_matrix, capsys):
        args = ["singular", diag_matrix, "--p", "2", "--restarts", "4", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestEigen:
    def test_symmetric_solver(self, diag_tensor, capsys):
        assert main(["eigen", diag_tensor, "--p", "3", "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = sorted(round(r["lambda"], 8) for r in report["results"])
        assert values == [1.0, 2.0]

    def test_nonsymmetric_without_mode_exits_4(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "ns.json", [2, 2], [2.0, 1.0, 0.0, 1.0])
        assert main(["eigen", path, "--p", "2"]) == 4

    def test_symmetry_atol_accepts_rounded_symmetrization(self, tmp_path, capsys):
        arr = np.random.default_rng(0).standard_normal((3, 3, 3))
        averaged = sum(arr.transpose(perm) for perm in itertools.permutations(range(3))) / 6
        path = write_tensor(tmp_path / "avg.json", [3, 3, 3], averaged.reshape(-1).tolist())
        args = ["eigen", path, "--p", "2", "--restarts", "8"]
        assert main(args) == 4
        capsys.readouterr()
        assert main(args + ["--symmetry-atol", "1e-12"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]

    def test_integral_float_exponent_reads_as_integer(self, diag_tensor, capsys):
        args = ["eigen", diag_tensor, "--restarts", "8", "--p"]
        assert main(args + ["3"]) == 0
        as_int = capsys.readouterr().out
        assert main(args + ["3.0"]) == 0
        as_float = capsys.readouterr().out
        assert as_float == as_int
        assert json.loads(as_float)["config"]["p"] == 3

    def test_non_integral_exponent_exits_2(self, diag_tensor, capsys):
        assert main(["eigen", diag_tensor, "--p", "2.5"]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_unparsable_exponent_exits_2(self, diag_tensor, capsys):
        assert main(["eigen", diag_tensor, "--p", "abc"]) == 2
        assert "could not parse --p value" in capsys.readouterr().err

    def test_nonsymmetric_with_mode(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "ns.json", [2, 2], [2.0, 1.0, 0.0, 1.0])
        assert main(["eigen", path, "--p", "2", "--mode", "1", "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = sorted(round(r["lambda"], 8) for r in report["results"])
        assert values == [1.0, 2.0]
        assert all(r["mode"] == 1 for r in report["results"])


class TestPerron:
    def test_all_ones(self, ones_tensor, capsys):
        assert main(["perron", ones_tensor, "--restarts", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["lambda"] == 4.0
        assert report["results"][0]["converged"] is True

    def test_reducible_exits_4(self, diag_tensor, capsys):
        assert main(["perron", diag_tensor]) == 4
        assert "force" in capsys.readouterr().err

    def test_force_overrides(self, diag_tensor, capsys):
        code = main(["perron", diag_tensor, "--force", "--restarts", "2"])
        assert code in (0, 3)

    def test_negative_entries_exit_4(self, tmp_path):
        path = write_tensor(
            tmp_path / "neg.json", [2, 2, 2], [1.0, -1.0, 1, 1, 1, 1, 1, 1]
        )
        assert main(["perron", path]) == 4


class TestCheck:
    def test_diagonal_tensor_report(self, diag_tensor, capsys):
        assert main(["check", diag_tensor]) == 0
        report = json.loads(capsys.readouterr().out)
        entry = report["results"][0]
        assert entry["symmetric"] is True
        assert entry["nonnegative"] is True
        assert entry["reducing_set"] == [1]
        assert entry["irreducible"] is False

    def test_planted_set_at_n20(self, tmp_path, capsys):
        n, planted = 20, [3, 11, 17]
        arr = np.random.default_rng(7).uniform(0.1, 1.0, (n, n, n))
        outside = np.setdiff1d(np.arange(n), planted)
        arr[np.ix_(outside, planted, planted)] = 0.0
        path = write_tensor(tmp_path / "planted.json", [n, n, n], arr.ravel().tolist())
        assert main(["check", path]) == 0
        entry = json.loads(capsys.readouterr().out)["results"][0]
        assert entry["reducing_set"] == [4, 12, 18]
        assert entry["irreducible"] is False
        assert main(["perron", path]) == 4

    def test_non_cubical(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "r.json", [2, 3], [1.0] * 6)
        assert main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["irreducible"] is None


class TestOracle:
    def test_diagonal_matrix(self, diag_matrix, capsys):
        assert main(["oracle", diag_matrix, "--p", "2", "--resolution", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = sorted(round(r["value"], 8) for r in report["results"])
        assert values == [1.0, 3.0]

    @pytest.mark.parametrize("mode", ["0", "4"])
    def test_eigen_mode_out_of_range_exits_2(self, diag_tensor, mode, capsys):
        argv = ["oracle", diag_tensor, "--kind", "eigen", "--mode", mode]
        assert main(argv + ["--resolution", "8"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_empty_result_exits_3_with_warning(self, tmp_path, capsys):
        values = (np.random.default_rng(126).standard_normal(8) * 1e-6).tolist()
        path = write_tensor(tmp_path / "tiny.json", [2, 2, 2], values)
        assert main(["oracle", path, "--p", "3", "--resolution", "20"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == []
        assert report["warnings"] == ["none of 1000 polished seeds converged to tol=1e-09"]


class TestHyperdet:
    def test_two_corner_tensor(self, tmp_path, capsys):
        path = write_tensor(
            tmp_path / "c.json", [2, 2, 2], [1.0, 0, 0, 0, 0, 0, 0, 1.0]
        )
        assert main(["hyperdet", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_wrong_shape_exits_2(self, diag_matrix):
        assert main(["hyperdet", diag_matrix]) == 2


class TestTextFormat:
    def test_singular_text(self, diag_matrix, capsys):
        assert main(
            ["singular", diag_matrix, "--p", "2", "--restarts", "4", "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "command: singular" in out
        assert "sigma=" in out


class TestRepeatedMain:
    """main() reuses one parser, so no call may leak state into the next."""

    def test_force_does_not_stick(self, diag_tensor, capsys):
        assert main(["perron", diag_tensor, "--force", "--restarts", "2"]) in (0, 3)
        capsys.readouterr()
        assert main(["perron", diag_tensor]) == 4
        assert "force" in capsys.readouterr().err

    def test_format_does_not_stick(self, diag_tensor, capsys):
        assert main(["check", diag_tensor, "--format", "text"]) == 0
        assert capsys.readouterr().out.startswith("command: check\n")
        assert main(["check", diag_tensor]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "check"
        assert report["results"][0]["reducing_set"] == [1]

    def test_bad_arguments_then_good_call(self, ones_tensor, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perron", ones_tensor, "--restarts", "many"])
        assert exc.value.code == 2
        assert main(["perron", ones_tensor, "--restarts", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["restarts"] == 2

    def test_one_shared_parser_and_fresh_builds(self):
        assert _shared_parser() is _shared_parser()
        assert build_parser() is not build_parser()
