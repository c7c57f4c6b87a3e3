"""File formats and the command-line interface."""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbrauer import formats
from skewbrauer.cli import main
from skewbrauer.dissection import contraction_addition
from skewbrauer.errors import ParseError, SkewBrauerError
from skewbrauer.quiver import BoundQuiver, Quiver, Relation

from helpers import (BQ_FIXTURES, DIS_FIXTURES, FIXTURES, SBG_FIXTURES, P, diff,
                     family_graphs, fixture_path, load)


def sign_pair() -> tuple[BoundQuiver, BoundQuiver]:
    """Four commuting squares A, and B with g*e + h*f in place of g*e - h*f."""
    q = Quiver.build(["1", "2", "3", "4", "5", "6"],
                     [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4"),
                      ("e", "2", "5"), ("f", "3", "5"), ("g", "6", "2"), ("h", "6", "3")])
    rels = (diff(q, ("a", "b"), ("c", "d")), diff(q, ("a", "e"), ("c", "f")),
            diff(q, ("g", "b"), ("h", "d")))
    total = Relation(((Fraction(1), P(q, "g", "e")), (Fraction(1), P(q, "h", "f"))))
    return (BoundQuiver(q, rels + (diff(q, ("g", "e"), ("h", "f")),)),
            BoundQuiver(q, rels + (total,)))


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

    def test_bq_binomial_sign(self):
        a, b = sign_pair()
        assert b.relations[-1].label(b.quiver) == "g*e + h*f"
        text_a, text_b = formats.serialize_bq(a), formats.serialize_bq(b)
        assert "rel h*f - g*e" in text_a and "rel h*f + g*e" in text_b
        for bq, text in ((a, text_a), (b, text_b)):
            again = formats.parse_bq(text)
            assert formats.serialize_bq(again) == text
            assert ({r.canonical() for r in again.relations}
                    == {r.canonical() for r in bq.relations})

    def test_bq_refuses_other_scalars(self):
        a, _ = sign_pair()
        q = a.quiver
        double = Relation(((Fraction(1), P(q, "g", "e")), (Fraction(2), P(q, "h", "f"))))
        with pytest.raises(SkewBrauerError, match="g\\*e \\+ 2\\*h\\*f"):
            formats.serialize_bq(a.relabelled(relations=a.relations[:-1] + (double,)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sbg_family_graphs(self, seed):
        for name, text in family_graphs(seed):
            canonical = formats.serialize_sbg(formats.parse_sbg(text, name))
            assert formats.serialize_sbg(formats.parse_sbg(canonical)) == canonical

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_dis_after_every_move(self, name):
        d = load(name)
        moves = []
        for polygon in range(len(d.polygons)):
            if d.is_trivial(polygon):
                continue
            run = d.run(polygon)
            moves += [(polygon, {"angle": k}) for k in range(len(run))]
            moves += [(polygon, {"pendant": d.arc(a).label}) for a in run
                      if d.arc(a).kind == "pendant"]
        assert moves
        for polygon, move in moves:
            text = formats.serialize_dis(contraction_addition(d, polygon, **move))
            assert formats.serialize_dis(formats.parse_dis(text)) == text

    def test_parse_error_cites_line(self):
        with pytest.raises(ParseError) as err:
            formats.parse_bq("vertex 1\nnonsense here\n", "f.bq")
        assert "f.bq:2" in str(err.value)

    @pytest.mark.parametrize("parse, text, message", [
        (formats.parse_bq, "vertex 1\nvertex 1\n", "f:2: duplicate vertex 1"),
        (formats.parse_bq, "vertex 1\narrow a: 1 -> 1\narrow a: 1 -> 1\n",
         "f:3: duplicate arrow a"),
        (formats.parse_bq, "vertex 1\n\narrow a: 1 -> 9\n",
         "f:3: arrow a uses an unknown vertex 9"),
        (formats.parse_bq, "vertex 1\nvertex 2\narrow f: 1 -> 2 special-loop\n",
         "f:3: special-loop f is not a loop"),
        (formats.parse_sbg, "vertex x\nvertex x\n", "f:2: duplicate vertex x"),
        (formats.parse_sbg, "vertex x\nedge 1 x x\nedge 1 x x\n", "f:3: duplicate edge 1"),
        (formats.parse_sbg, "vertex x\n# y is missing\nedge 1 x y\n",
         "f:3: edge 1 uses an unknown vertex"),
        (formats.parse_dis, "arc a\narc b\narc a special\n", "f:3: duplicate arc a"),
        (formats.parse_sbg, "vertex x\nedge 1 x x\norder x: 1#1, 1#2\norder x: 1#2, 1#1\n",
         "f:4: duplicate order for vertex x"),
        (formats.parse_dis, "arc a\npolygon: a, a, BOUNDARY\npuncture p: a\n\npuncture p: a\n",
         "f:5: duplicate puncture p"),
    ], ids=["bq-vertex", "bq-arrow", "bq-endpoint", "bq-special-loop", "sbg-vertex",
            "sbg-edge", "sbg-endpoint", "dis-arc", "sbg-order", "dis-puncture"])
    def test_label_error_cites_its_line(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text, "f")
        assert str(err.value) == message

    def test_polygon_directive_is_the_whole_word(self):
        with pytest.raises(ParseError) as err:
            formats.parse_dis("arc 1\npolygonfoo bar: 1, BOUNDARY\n", "f")
        assert str(err.value) == "f:2: unknown directive polygonfoo"
        d = formats.parse_dis("arc 1\npolygon p: 1, BOUNDARY\npolygon:1, BOUNDARY\n")
        assert formats.serialize_dis(d) == (
            "arc 1\npolygon: 1, BOUNDARY\npolygon: 1, BOUNDARY\n")


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

    @pytest.mark.parametrize("args", [["trivext"], ["cuts"], ["cuts", "--good"]])
    def test_special_mark_without_loop(self, args, tmp_path, capsys):
        # a plain .bq whose special vertex carries no special loop is refused,
        # not read as a gentle algebra with its mark dropped
        path = tmp_path / "marked.bq"
        path.write_text("vertex 1 special\nvertex 2\narrow a: 1 -> 2\n", encoding="utf-8")
        code = main([args[0], str(path), *args[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == ("error: special vertex 1 is marked on a presentation "
                                "with no duplication bookkeeping\n")

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

    def test_iso_budget_exhaustion_reports_nodes(self, monkeypatch, capsys):
        from skewbrauer import cli, iso
        monkeypatch.setattr(cli, "are_isomorphic",
                            lambda a, b: iso.are_isomorphic(a, b, budget=1))
        toy = fixture_path("toy.bq")
        assert main(["iso", toy, toy]) == 1
        assert capsys.readouterr().out.strip() == \
            "undecided (search budget exhausted after 2 nodes)"
        assert main(["--json", "iso", toy, toy]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["nodes"]) == ("budget_exhausted", 2)

    def test_check_bq(self, capsys):
        code = main(["check", fixture_path("toy.bq")])
        out = capsys.readouterr().out
        assert code == 0
        assert "skew-gentle: yes" in out

    def test_check_sbg_validates_once(self, capsys, monkeypatch):
        import skewbrauer.brauer as brauer
        import skewbrauer.cli as cli
        calls, validate = [], brauer.validate_graph

        def counted(g):
            calls.append(g)
            return validate(g)
        # every binding the check could reach: the CLI's and brauer's own
        monkeypatch.setattr(cli, "validate_graph", counted)
        monkeypatch.setattr(brauer, "validate_graph", counted)
        assert main(["check", fixture_path("fig1.sbg")]) == 0
        assert capsys.readouterr().out == \
            "skew-Brauer graph: valid\nskew-Brauer tree: no\n"
        assert len(calls) == 1

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

    @pytest.mark.parametrize("limit, code, err", [
        ("-1", 2, "skewbrauer cuts: error: argument --limit: must be at least 0, got -1\n"),
        ("x", 2, "skewbrauer cuts: error: argument --limit: invalid int value: 'x'\n"),
        ("0", 0, ""),
    ], ids=["negative", "not-an-int", "zero"])
    def test_cuts_limit_values(self, capsys, limit, code, err):
        try:
            got = main(["cuts", fixture_path("toy.bq"), "--limit", limit])
        except SystemExit as exc:
            got = exc.code
        out = capsys.readouterr()
        assert got == code
        assert out.out.strip() == ""
        assert out.err.splitlines(keepends=True)[-1:] == ([err] if err else [])

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

    def test_json_output_writes_the_file(self, tmp_path, capsys):
        argv = ["--json", "build", fixture_path("fig1.sbg")]
        assert main(argv) == 0
        mirror = capsys.readouterr().out
        out = tmp_path / "fig1.json"
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text(encoding="utf-8") == mirror
        assert json.loads(mirror)["bq"].startswith("vertex ")

    def test_closed_stdout(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "skewbrauer.cli", "build", fixture_path("torus.sbg")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() in (0, 1, 2)
        assert err.count(b"\n") <= 1, err

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

    def test_reflect_unknown_vertex_exit_1(self, capsys):
        code = main(["reflect", fixture_path("toy.bq"), "--vertex", "nope",
                     "--direction", "minus"])
        assert code == 1
        assert capsys.readouterr().err == "error: no vertex nope\n"

    def test_projectives_unknown_vertex_exit_1(self, capsys):
        code = main(["projectives", fixture_path("torus.sbg"), "--vertex", "nope"])
        assert code == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: no vertex nope\n")

    def test_move_unknown_pendant_exit_1(self, capsys):
        code = main(["move", fixture_path("annulus.dis"), "--polygon", "0",
                     "--pendant", "nope"])
        assert code == 1
        assert capsys.readouterr().err == "error: no arc nope\n"

    def test_infinite_dimension_exit_1(self, capsys):
        code = main(["cartan", fixture_path("loop.bq"), "--det"])
        assert code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: infinite dimensional: every power of the "
                           "cycle f is nonzero\n")

    def test_long_linear_quiver_det(self, tmp_path, capsys):
        # A_70: the longest path has 69 arrows, more than the default cap 64
        path = tmp_path / "a70.bq"
        path.write_text("".join(f"vertex {i}\n" for i in range(1, 71))
                        + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, 70)))
        assert main(["cartan", str(path), "--det"]) == 0
        assert capsys.readouterr().out == "det = 1\n"

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrauer.cli", "classify",
             fixture_path("sbtree_line4.sbg")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("Finite")


CANONICAL_CALLS = (["trivext"], ["cuts"], ["cuts", "--good"],
                   ["cartan", "--q", "--det", "--matrix"], ["check"])


def _outputs(path):
    """(exit code, stdout) of each call of ``CANONICAL_CALLS`` on ``path``."""
    out = []
    for verb, *args in CANONICAL_CALLS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb, path, *args])
        out.append((code, stdout.getvalue()))
    return out


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(FIXTURES) if f.endswith(".bq")))
def test_output_does_not_depend_on_line_order(name, tmp_path):
    # the output is canonical: the same .bq file with its lines in another
    # order prints the same, the numbering of new arrows and the order of
    # cuts included
    with open(fixture_path(name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if not line.strip() or line.lstrip().startswith("#")]
    body = [line for line in lines if line not in comments]
    want = _outputs(fixture_path(name))
    rng = random.Random(name)
    for i in range(4):
        path = tmp_path / f"{i}.bq"
        path.write_text("\n".join(comments + rng.sample(body, len(body))) + "\n",
                        encoding="utf-8")
        assert _outputs(str(path)) == want, (name, path.read_text(encoding="utf-8"))


class TestFileErrors:
    """An unreadable input exits 2 and an unwritable --output exits 1, each
    with one line on stderr, in a separate interpreter."""

    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "skewbrauer.cli", *argv],
                              capture_output=True, text=True)

    def test_missing_input(self, tmp_path):
        path = tmp_path / "nope.bq"
        proc = self.run("check", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}:0: cannot read: No such file or directory\n"

    def test_directory_input(self, tmp_path):
        proc = self.run("check", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {tmp_path}:0: cannot read: Is a directory\n"

    def test_input_not_utf8(self, tmp_path):
        path = tmp_path / "bad.bq"
        path.write_bytes(b"\xff")
        proc = self.run("check", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path}:0: cannot read: 'utf-8' codec can't decode "
                               "byte 0xff in position 0: invalid start byte\n")

    def test_output_in_missing_directory(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.bq"
        proc = self.run("build", fixture_path("fig1.sbg"), "--output", str(out))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()


# ---------------------------------------------------------------------------
# no input ends in a traceback
# ---------------------------------------------------------------------------

UNKNOWN_LABELS = ["nope", "", "B1", "B1+", "-B2", "1+", "f1"]
VERB_INPUTS = {
    **dict.fromkeys(["trivext", "cuts", "quotient", "reflect", "cartan", "iso"],
                    BQ_FIXTURES),
    **dict.fromkeys(["build", "classify", "projectives"], SBG_FIXTURES),
    **dict.fromkeys(["dissect", "move"], DIS_FIXTURES),
    "check": BQ_FIXTURES + SBG_FIXTURES + DIS_FIXTURES,
}


def _mutate(text: str, edits) -> str:
    """Apply (kind, i, j) edits to the lines and tokens of a fixture text."""
    lines = text.splitlines()
    for kind, i, j in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            pool = text.split()
            if tokens:
                tokens[j % len(tokens)] = (pool[j % len(pool)] if kind == "swap"
                                           else UNKNOWN_LABELS[j % len(UNKNOWN_LABELS)])
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def cli_calls(draw):
    verb = draw(st.sampled_from(sorted(VERB_INPUTS)))
    name = draw(st.sampled_from(VERB_INPUTS[verb]))
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = fh.read()
    edits = []
    if draw(st.booleans()):
        edits = draw(st.lists(st.tuples(
            st.sampled_from(["drop", "repeat", "swap", "unknown"]),
            st.integers(0, 40), st.integers(0, 40)), max_size=2))
    labels = st.sampled_from(sorted(set(text.split())) + UNKNOWN_LABELS)
    vertices = [line.split()[1] for line in text.splitlines()
                if line.startswith("vertex ")]
    if verb == "cuts":
        args = draw(st.sampled_from([[], ["--good"], ["--good", "--limit", "2"]]))
    elif verb == "quotient":
        args = ["--cut=" + ",".join(draw(st.lists(labels, max_size=3)))]
    elif verb == "reflect":
        args = ["--vertex=" + draw(st.sampled_from(vertices) | labels),
                "--direction", draw(st.sampled_from(["minus", "plus"]))]
    elif verb == "projectives":
        args = draw(st.sampled_from([[], ["--vertex=" + draw(labels)]]))
    elif verb == "cartan":
        args = draw(st.sampled_from([[], ["--q", "--det"], ["--det", "--matrix"]]))
    elif verb == "dissect":
        args = draw(st.sampled_from([[], ["--tuple"]]))
    elif verb == "iso":
        args = [fixture_path(draw(st.sampled_from(BQ_FIXTURES)))]
    elif verb == "move":
        args = ["--polygon", str(draw(st.integers(-1, 3)))]
        args += (["--pendant=" + draw(labels)] if draw(st.booleans())
                 else ["--angle", str(draw(st.integers(-1, 4)))])
    else:
        args = []
    return verb, name, _mutate(text, edits), args


@given(cli_calls())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cli_never_raises(call):
    verb, name, text, args = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, path] + args)
    assert code in (0, 1, 2)
    # iso and check answer "no" with exit code 1 on stdout; errors are one line
    assert err.getvalue().count("\n") <= 1, err.getvalue()
