import json
import math

import numpy as np

from gielab import verify
from gielab.cli import main
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

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "sym-glems", "--a", "1.5")
        assert code == 1
        assert "kp" in err

    def test_strict_rejects_unproven_domain(self, capsys):
        code, _, _ = run_cli(
            capsys, "compute", "--family", "sym-sq-thermal", "--a", "3.0", "--k", "2.5", "--strict"
        )
        assert code == 2

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

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "pure", "--a", "1.5",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert "cannot write" in err


class TestConfigEnv:
    def test_missing_config_file_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GIELAB_CONFIG", "/nonexistent/gielab.conf")
        code, _, err = run_cli(capsys, "compute", "--family", "pure", "--a", "2")
        assert code == 1
        assert "config" in err

    def test_config_file_sets_grid_default(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "gielab.conf"
        path.write_text("points = 9\n")
        monkeypatch.setenv("GIELAB_CONFIG", str(path))
        code, out, _ = run_cli(
            capsys, "compute", "--family", "sym-glems", "--a", "1.5", "--kp", "0.5", "--numeric"
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["gie_numeric_nats"] - record["gie_closed_nats"]) < 2e-5


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
