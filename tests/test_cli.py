"""File formats and the command-line interface."""
import json
import subprocess
import sys

import pytest

from skewbrauer import formats
from skewbrauer.cli import main
from skewbrauer.errors import ParseError

from helpers import BQ_FIXTURES, DIS_FIXTURES, SBG_FIXTURES, fixture_path, load


class TestRoundTrips:
    @pytest.mark.parametrize("name", BQ_FIXTURES + ["loop.bq"])
    def test_bq(self, name):
        bq = load(name)
        text = formats.serialize_bq(bq)
        again = formats.serialize_bq(formats.parse_bq(text))
        assert text == again

    @pytest.mark.parametrize("name", SBG_FIXTURES)
    def test_sbg(self, name):
        g = load(name)
        text = formats.serialize_sbg(g)
        again = formats.serialize_sbg(formats.parse_sbg(text))
        assert text == again

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_dis(self, name):
        d = load(name)
        text = formats.serialize_dis(d)
        again = formats.serialize_dis(formats.parse_dis(text))
        assert text == again

    def test_parse_error_cites_line(self):
        with pytest.raises(ParseError) as err:
            formats.parse_bq("vertex 1\nnonsense here\n", "f.bq")
        assert "f.bq:2" in str(err.value)


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


class TestCli:
    def test_classify_fig1(self, capsys):
        code = main(["classify", fixture_path("fig1.sbg")])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "Infinite (reason: ≥2 distinguished vertices)"

    def test_classify_band_witness(self, capsys):
        code = main(["classify", fixture_path("gamma1_m2.sbg")])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("Infinite (reason:")
        assert "band witness" in out

    def test_classify_parallel(self, capsys):
        files = [fixture_path(n) for n in
                 ("fig1.sbg", "sbtree_line4.sbg", "btree_m3.sbg")]
        code = main(["classify", *files])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(out) == 3
        assert any("Finite" in line for line in out)

    def test_cartan_golden(self, capsys):
        code = main(["cartan", fixture_path("sec73_B.bq"), "--q", "--det"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "det_q = 1 - q^2; det = 0"

    def test_cartan_sec73_A(self, capsys):
        code = main(["cartan", fixture_path("sec73_A.bq"), "--q", "--det"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "det_q = 1; det = 1"

    def test_iso_identity(self, capsys):
        code = main(["iso", fixture_path("a2.bq"), fixture_path("a2.bq")])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "isomorphic (identity)"

    def test_iso_negative_exit_code(self, capsys):
        code = main(["iso", fixture_path("a2.bq"), fixture_path("kronecker.bq")])
        out = capsys.readouterr().out.strip()
        assert code == 1
        assert out == "not isomorphic"

    def test_check_bq(self, capsys):
        code = main(["check", fixture_path("toy.bq")])
        out = capsys.readouterr().out
        assert code == 0
        assert "skew-gentle: yes" in out

    def test_check_dis(self, capsys):
        code = main(["check", fixture_path("torus.dis")])
        out = capsys.readouterr().out
        assert code == 0 and "valid" in out

    def test_build_then_trivext_consistency(self, tmp_path, capsys):
        out_bq = tmp_path / "fig1.bq"
        code = main(["build", fixture_path("fig1.sbg"), "--output", str(out_bq)])
        assert code == 0
        code = main(["trivext", fixture_path("toy.bq"), "--output",
                     str(tmp_path / "t.bq")])
        assert code == 0
        code = main(["iso", str(out_bq), str(tmp_path / "t.bq")])
        out = capsys.readouterr().out.strip()
        assert code == 0 and out.startswith("isomorphic")

    def test_trivext_sidecar(self, capsys):
        code = main(["trivext", fixture_path("a2.bq")])
        out = capsys.readouterr().out
        assert code == 0
        assert "newarrow B1 := a" in out

    def test_cuts_limit_and_good(self, capsys):
        code = main(["cuts", fixture_path("toy.bq"), "--good", "--limit", "3"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 3
        assert all(line.startswith("cut: ") for line in out)

    def test_quotient_by_new_arrows(self, capsys):
        code = main(["quotient", fixture_path("a2.bq"), "--cut", "B1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrow a: 1 -> 2" in out

    def test_reflect_cli(self, capsys):
        code = main(["reflect", fixture_path("sec74.bq"), "--vertex", "1",
                     "--direction", "minus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "special-loop" in out

    def test_dissect(self, capsys):
        code = main(["dissect", fixture_path("torus.dis")])
        out = capsys.readouterr().out
        assert code == 0
        assert "vertex 4 special" in out

    def test_move_roundtrip(self, capsys):
        code = main(["move", fixture_path("annulus.dis"),
                     "--polygon", "0", "--angle", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert formats.parse_dis(out).run(0) == load("annulus_tau.dis").run(0)

    def test_projectives(self, capsys):
        code = main(["projectives", fixture_path("fig1.sbg"), "--vertex", "2+"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "P[2+]: dim 6; layers [2+ | 1+, 1- | 4 | 3 | 2+]"

    def test_json_mirror(self, capsys):
        code = main(["--json", "classify", fixture_path("fig1.sbg")])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert list(data.values())[0].startswith("Infinite")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bq"
        bad.write_text("arrow x: nowhere\n")
        code = main(["check", str(bad)])
        assert code == 2

    def test_domain_error_exit_1(self, capsys):
        code = main(["quotient", fixture_path("a2.bq"), "--cut", "nope"])
        assert code == 1

    def test_bare_vertex_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bare.sbg"
        bad.write_text("vertex #1 distinguished\n")
        code = main(["check", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:1: vertex <label> [mult=<m>] [distinguished]\n")

    def test_move_without_boundary_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "noboundary.dis"
        bad.write_text("arc 1\narc 2\npolygon: 1, 2, 1, 2\n")
        code = main(["move", str(bad), "--polygon", "0", "--angle", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: polygon 0 has 0 boundary sides\n"

    def test_env_cap_respected(self, monkeypatch, capsys):
        monkeypatch.setenv("SKEWBRAUER_LENGTH_CAP", "3")
        code = main(["cartan", fixture_path("toy.bq"), "--det"])
        # cap 3 is below the nilpotency bound, so the computation fails
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "length cap 3, e.g. " in err
        monkeypatch.delenv("SKEWBRAUER_LENGTH_CAP")

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrauer.cli", "classify",
             fixture_path("sbtree_line4.sbg")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("Finite")
