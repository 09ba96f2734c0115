import json
import math

import numpy as np
import pytest

from gielab import cli, verify
from gielab.cli import main
from gielab.errors import GielabError
from gielab.gie import gie_closed_form
from gielab.states import make_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_sym_glems_point(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "sym-glems"
        assert np.isclose(record["gie_closed_nats"], 0.05889151782819164, atol=1e-15)
        assert record["verified"] is True

    def test_round_trip_is_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5")
        record = json.loads(out)
        recomputed = gie_closed_form(make_family("sym_glems", a=record["a"], kp=record["kp"]))
        assert record["gie_closed_nats"] == recomputed

    def test_asym_with_gr2_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "asym-glems", "--a", "2", "--b", "1.5", "--with-gr2"
        )
        assert code == 0
        record = json.loads(out)
        assert np.isclose(record["gie_closed_nats"], 0.3364722366212129, atol=1e-15)
        assert record["gap"] < 1e-12

    def test_pure_boundary_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "pure", "--a", "1")
        assert code == 0
        assert json.loads(out)["gie_closed_nats"] == 0.0

    def test_bits_conversion_on_output_only(self, capsys):
        _, nats_out, _ = run_cli(capsys, "compute", "--family", "pure", "--a", "2")
        _, bits_out, _ = run_cli(capsys, "compute", "--family", "pure", "--a", "2", "--bits")
        nats = json.loads(nats_out)["gie_closed_nats"]
        bits = json.loads(bits_out)["gie_closed_nats"]
        assert np.isclose(bits, nats / math.log(2.0), atol=1e-15)
        assert np.isclose(bits, 1.0, atol=1e-12)  # ln 2 nats = 1 bit

    def test_numeric_flag_reports_eve_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5",
            "--numeric", "--grid", "9",
        )
        assert code == 0
        record = json.loads(out)
        assert record["eve_optimum"] == "homodyne x_E"
        assert abs(record["gie_numeric_nats"] - record["gie_closed_nats"]) < 2e-5

    def test_physical_asym_glems_near_a_equals_b_at_large_a(self, capsys):
        # nu2 = 1 here; the unfactored discriminant put it at 0.9999999 and rejected the state
        code, out, _ = run_cli(capsys, "compute", "--family", "asym-glems", "--a", "12", "--b", "11.999999962052668")
        assert code == 0
        assert json.loads(out)["gie_closed_nats"] > 0

    def test_asym_glems_at_large_a_passes_the_triangle_check(self, capsys):
        # a_3 = 1 + |a - b| is off by about one ulp of a, past an absolute 1e-12 slack
        code, out, _ = run_cli(
            capsys, "compute", "--family", "asym-glems", "--a", "32257.08033420893", "--b", "1964.337545195124",
            "--with-gr2",
        )
        assert code == 0
        assert json.loads(out)["gap"] < 1e-12

    def test_asym_glems_at_equal_purities_takes_the_pure_path(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "asym-glems", "--a", "2", "--b", "2", "--numeric")
        assert code == 0
        record = json.loads(out)
        assert abs(record["gie_numeric_nats"] - math.log(2.0)) < 1e-12
        assert record["eve_optimum"] == "heterodyne" and record["verified"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "asym-glems", "--a", "3", "--b", "3"),
            ("--family", "sym-sq-thermal", "--a", "3", "--k", "2.8284271247461903"),
        ],
    )
    def test_pure_edge_past_the_mixed_state_bound_is_verified(self, capsys, argv):
        # sqrt(ab) = a = 3 lies past the mixed-state bound 2.41, but both states are
        # pure, where GIE = ln a is proven: the closed-form and numeric records agree
        for numeric in ((), ("--numeric",)):
            code, out, _ = run_cli(capsys, "compute", *argv, *numeric, "--strict")
            assert code == 0
            record = json.loads(out)
            assert record["verified"] is True and abs(record["gie_closed_nats"] - math.log(3.0)) < 1e-12
        assert record["eve_optimum"] == "heterodyne"
        assert abs(record["gie_numeric_nats"] - math.log(3.0)) < 1e-12

    def test_pure_state_at_large_a_is_not_purified(self, capsys):
        # purify's Williamson residual here, 3.2e-8, fails its 1e-8 gate
        code, out, _ = run_cli(capsys, "compute", "--family", "pure", "--a", "2e4", "--numeric")
        assert code == 0
        record = json.loads(out)
        assert record["eve_optimum"] == "heterodyne" and record["verified"]

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "sym-glems", "--a", "1.5")
        assert code == 1
        assert "kp" in err

    def test_strict_rejects_unproven_domain(self, capsys):
        code, _, _ = run_cli(
            capsys, "compute", "--family", "sym-sq-thermal", "--a", "3.0", "--k", "2.5", "--strict"
        )
        assert code == 2
        # a mixed state next to the pure edge a = b = 3, with and without the numeric verdict
        for numeric in ((), ("--numeric",)):
            code, out, err = run_cli(
                capsys, "compute", "--family", "asym-glems", "--a", "3", "--b", "3.000000001", *numeric, "--strict"
            )
            assert code == 2 and out == "" and "validity domain" in err

    def test_unverified_point_still_reported_without_strict(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "sym-sq-thermal", "--a", "3.0", "--k", "2.5")
        assert code == 0
        record = json.loads(out)
        assert record["verified"] is False
        assert record["gie_closed_nats"] > 0


class TestSweep:
    def test_row_count_and_derived_parameter(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "sym-sq-thermal", "--a", "1.1:2.4:0.05",
            "--k", "a-0.7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "family,a,b,kx,kp,gie_closed_nats,gie_numeric_nats,gr2_nats,gap,verified,eve_optimum"
        assert len(lines) == 1 + 27
        assert all(line.split(",")[9] == "true" for line in lines[1:])

    def test_rows_beyond_domain_flagged_unverified(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "sym-sq-thermal", "--a", "2.3:2.5:0.1",
            "--k", "a-0.7", "--out", str(out_path),
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
        flags = [row[9] for row in rows]
        assert flags == ["true", "true", "false"]  # a = 2.3, 2.4 in, 2.5 out

    def test_empty_range_gives_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "pure", "--a", "2.0:1.0:0.5", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().strip().splitlines() == [
            "family,a,b,kx,kp,gie_closed_nats,gie_numeric_nats,gr2_nats,gap,verified,eve_optimum"
        ]

    def test_csv_round_trip_is_bit_exact(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--family", "sym-glems", "--a", "1.3:1.7:0.2", "--kp", "0.4",
                "--out", str(out_path))
        for line in out_path.read_text().strip().splitlines()[1:]:
            cols = line.split(",")
            a, kp, closed = float(cols[1]), float(cols[4]), float(cols[5])
            assert closed == gie_closed_form(make_family("sym_glems", a=a, kp=kp))

    def test_runs_are_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--family", "sym-glems", "--a", "1.2:1.8:0.2",
                "--kp", "0.3", "--with-gr2", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unphysical_rows_carry_error_marker(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "sym-sq-thermal", "--a", "1.05:1.15:0.05",
            "--k", "a-0.7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[9] == "false" and "error" in first[10]  # a = 1.05 is unphysical

    def test_two_axes_run_a_major(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "asym-glems", "--a", "1.2:1.6:0.2", "--b", "1.1:1.5:0.2",
            "--out", str(out_path),
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
        a_values = [1.2, 1.4, 1.6]
        b_values = [1.1, 1.3, 1.5]
        expected = [(a, b) for a in a_values for b in b_values]
        assert [(float(row[1]), float(row[2])) for row in rows] == pytest.approx(expected, abs=1e-12)

    def test_strict_belongs_to_compute_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "pure", "--a", "2", "--strict")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("numeric", ((), ("--numeric",)))
    def test_unwritable_path_is_io_error(self, capsys, monkeypatch, tmp_path, numeric):
        # --out is opened before the first point, so no point is evaluated
        calls = []
        monkeypatch.setattr(cli, "gie_numeric", lambda *args: calls.append(args))
        code, _, err = run_cli(
            capsys, "sweep", "--family", "pure", "--a", "1.5", *numeric,
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert "cannot write" in err
        assert calls == []


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "sym-sq-thermal", "--k", "a-0.7"),  # an offset of a without --a
        ("sweep", "--family", "pure", "--a", "a+1"),
        ("sweep", "--family", "pure", "--a", "1:2"),
        ("sweep", "--family", "pure", "--a", "1:2:x"),
        ("sweep", "--family", "pure", "--a", "1:inf:1"),
        ("sweep", "--family", "pure", "--a", "2", "--grid", "0"),
        ("compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5", "--numeric", "--grid", "-3"),
        ("compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5", "--numeric", "--grid", "0"),
        ("verify", "fast", "--grid", "-2"),
        ("compute", "--family", "sym-glems", "--a", "nan", "--kp", "0.5", "--numeric"),
        ("compute", "--family", "pure", "--a", "inf"),
        ("compute", "--family", "pure", "--a", "2", "--kp", "0.5"),  # a flag the family does not take
        ("sweep", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5", "--b", "1:3:1", "--r", "0:1:0.5"),
        ("sweep", "--family", "cv-ghz", "--r", "a+1"),  # cv-ghz has no --a to offset
        ("compute", "--family", "pure", "--a", "2", "--out", "never-written.json"),  # --out needs --numeric
    ])
    def test_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "fast")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == 9
        assert all(line.startswith("PASS") for line in lines)

    def test_mutated_closed_form_fails_fast_suite(self, capsys, monkeypatch):
        # simulate a 1e-3 error in the squeezed-thermal formula
        mutated = tuple(
            (tag, params, expected + (1e-3 if tag == "sym_sq_thermal" else 0.0))
            for tag, params, expected in verify.WORKED_POINTS
        )
        monkeypatch.setattr(verify, "WORKED_POINTS", mutated)
        code, out, err = run_cli(capsys, "verify", "fast")
        assert code == 4
        assert any(line.startswith("FAIL  closed-form identities") for line in out.splitlines())
        assert "failed" in err

    def test_grid_reaches_the_gcmi_check(self, capsys, monkeypatch):
        seen = []

        def first_form_only(cond, points):
            seen.append(points)
            raise GielabError("stopped at the first GCMI form")

        monkeypatch.setattr(verify, "gcmi_numeric", first_form_only)
        code, _, err = run_cli(capsys, "verify", "fast", "--grid", "9")
        assert (code, seen) == (1, [9])
        assert "stopped at the first GCMI form" in err
