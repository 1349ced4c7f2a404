import ast
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import assume, given, settings, strategies as st

from sdcalc import cli
from sdcalc.circuit import CLIP, MAX_STEPS, Circuit, validate

from support import linking_matrix_eager
from test_golden import cases

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((DATA / "report.schema.json").read_text())

TWO = str(DATA / "two.sd")
TRI = str(DATA / "blowup3.sd")
GENUS2 = str(DATA / "genus2.sd")
OPEN = str(DATA / "open.sd")
TWISTED = str(DATA / "twisted.sd")
TRIJSON = str(DATA / "tri.json")


def run(capsys, *argv):
    code = cli.run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


# ---------------------------------------------------------------- parsing

def test_parse_sd_and_json_agree():
    d1 = cli.parse(Path(TRI).read_bytes())
    d2 = cli.parse(Path(TRIJSON).read_bytes())
    assert d1.circuit.curves == d2.circuit.curves
    assert d1.circuit.closed and d2.circuit.closed
    assert d1.switch_matrix is None


def test_parse_normalizes():
    d = cli.parse("genus 1\ncurve 1 0\ncurve 1 -1\ncurve 0 1\nclosed true\n")
    assert d.circuit.curves == ((1, 0), (-1, 1), (0, -1))


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\ngenus 1\ncurve 1 0  # inline\ncurve 0 1\nclosed true\n"
    assert cli.parse(text).circuit.length == 2


def test_parse_syntax_errors_carry_line():
    with pytest.raises(cli.ParseError) as ei:
        cli.parse("genus 1\nfrob 1\n")
    assert ei.value.line == 2
    with pytest.raises(cli.ParseError) as ei:
        cli.parse("genus x\n")
    assert ei.value.line == 1
    with pytest.raises(cli.ParseError, match="missing genus"):
        cli.parse("curve 1 0\nclosed true\n")
    with pytest.raises(cli.ParseError):
        cli.parse("{ not json")


def test_parse_semantic_errors_name_the_curve():
    with pytest.raises(cli.ParseError, match="curve 1: not primitive"):
        cli.parse("genus 1\ncurve 2 0\ncurve 0 1\nclosed true\n")
    with pytest.raises(cli.ParseError, match="expected 2 coefficients"):
        cli.parse("genus 1\ncurve 1 0 0\ncurve 0 1\nclosed true\n")
    with pytest.raises(cli.ParseError, match="adjacent pairing"):
        cli.parse('{"genus": 1, "curves": [[1, 0], [1, 0]], "closed": true}')


@pytest.mark.parametrize("text,curve", [
    ("genus 1\ncurve 1 0\ncurve 0 1\ncurve 2 2\nclosed false\n", 3),
    ("genus 1\ncurve 1 0\ncurve 0 1\ncurve 0 1\nclosed false\n", 2),
    ("genus 1\ncurve 1 0\ncurve 1 0 0\nclosed false\n", 2),
    ('{"genus": 1, "curves": [[1, 0], [0, "x"]]}', 2),
    ("genus 1\ncurve 1 0\ncurve 0 1\ncurve -1 2\nclosed true\n", 0),
    ("genus 1\ncurve 1 0\nclosed true\n", 0),
    ("genus 1\ncurve 1 0\ncurves 3\n", 0),
])
def test_parse_error_carries_the_curve(capsys, monkeypatch, text, curve):
    with pytest.raises(cli.ParseError) as ei:
        cli.parse(text)
    assert ei.value.curve == curve
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, payload, _ = run_json(capsys, "validate", "-")
    assert code == 1
    assert payload["failures"] == [[curve, str(ei.value)]]


def test_parse_switch_matrix():
    d = cli.parse(Path(TWISTED).read_bytes())
    assert d.switch_matrix == ((1, 1), (0, 1))
    bad = "genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow 2 0\nswitchrow 0 1\n"
    with pytest.raises(cli.ParseError, match="pairing"):
        cli.parse(bad)
    halfrow = "genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow 1 1\n"
    with pytest.raises(cli.ParseError, match="switch matrix"):
        cli.parse(halfrow)
    open_twisted = "genus 1\ncurve 1 0\ncurve 0 1\nclosed false\nswitchrow 1 0\nswitchrow 0 1\n"
    with pytest.raises(cli.ParseError, match="closed"):
        cli.parse(open_twisted)
    # two faults each: shape, then symplectic, then closed, then the curves
    not_sp = "switch matrix does not preserve the pairing"
    for curves, closed, rows, message in [
            ("1 0\ncurve 0 1\ncurve -1 2", "true", "2 0\nswitchrow 0 1", not_sp),
            ("1 0\ncurve 2 2", "true", "1 1", "switch matrix must be 2x2"),
            ("1 0\ncurve 0 1", "false", "2 0\nswitchrow 0 1", not_sp),
            ("1 0\ncurve 2 2", "false", "1 0\nswitchrow 0 1", "switch matrix needs a closed diagram")]:
        text = "genus 1\ncurve %s\nclosed %s\nswitchrow %s\n" % (curves, closed, rows)
        with pytest.raises(cli.ParseError, match="^%s$" % message) as ei:
            cli.parse(text)
        assert ei.value.curve == 0


def test_parse_json_type_checks():
    with pytest.raises(cli.ParseError, match="genus"):
        cli.parse('{"genus": "one", "curves": [[1, 0]], "closed": true}')
    with pytest.raises(cli.ParseError, match="closed"):
        cli.parse('{"genus": 1, "curves": [[1, 0]], "closed": 1}')
    with pytest.raises(cli.ParseError, match="missing key"):
        cli.parse('{"genus": 1, "closed": true}')


@pytest.mark.parametrize("text,match", [
    ('{"genus": true, "curves": [[true, false], [0, 1]], "closed": true}', "genus"),
    ('{"genus": 1, "curves": [[true, false], [0, 1]], "closed": true}', "curve 1"),
    ('{"genus": 1, "curves": [[1, 0], [0, 1]], "closed": true,'
     ' "switch": [[true, 0], [0, 1]]}', "switch"),
])
def test_parse_json_rejects_booleans_as_integers(text, match):
    with pytest.raises(cli.ParseError, match=match):
        cli.parse(text)


def test_emit_roundtrips():
    d = cli.parse(Path(TWISTED).read_bytes())
    again = cli.parse(cli.emit_sd(d))
    assert again == d
    via_json = cli.parse(cli.emit_json(cli.diagram_dict(d)))
    assert via_json == d


def test_emit_sd_is_canonical():
    # emit(parse(x)) is a fixed point of parse/emit
    text = cli.emit_sd(cli.parse(Path(TRI).read_bytes()))
    assert cli.emit_sd(cli.parse(text)) == text


# ------------------------------------------------------------ subcommands

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", TRI)
    assert code == 0
    assert "ok (Exact)" in out


def test_validate_bad_input_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.sd"
    p.write_text("genus 1\ncurve 2 0\ncurve 0 1\nclosed true\n")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "not primitive" in out
    code, payload, _ = run_json(capsys, "validate", str(p))
    assert code == 1
    assert payload["ok"] is False
    assert payload["failures"][0][0] == 1


def test_validate_json_report(capsys):
    code, payload, _ = run_json(capsys, "validate", TRI)
    assert code == 0
    assert payload == {
        "command": "validate",
        "ok": True,
        "exactness": "Exact",
        "failures": [],
        "homological_only": False,
    }


def test_info_reports(capsys):
    code, payload, _ = run_json(capsys, "info", TRI)
    assert code == 0
    assert payload["framings"] == [0, -1, 0]
    assert payload["form_invariants"]["signature"] == -1
    assert payload["form_invariants"]["signature_conjectural"] is False
    assert payload["euler"] == {"disk_piece": 3, "total_space": 5}
    code, payload, _ = run_json(capsys, "info", GENUS2)
    assert payload["homological_only"] is True
    assert payload["form_invariants"]["signature_conjectural"] is True


def test_genus2_banner_in_text(capsys):
    code, out, _ = run(capsys, "info", GENUS2)
    assert code == 0
    assert "necessary conditions" in out
    code, out, _ = run(capsys, "info", TRI)
    assert "necessary conditions" not in out


def test_classify(capsys):
    code, payload, _ = run_json(capsys, "classify", TRI)
    assert code == 0
    assert [f["pretty"] for f in payload["forms"]] == ["1*CP2 # 2*CP2bar"]
    assert payload["counts"] == {"l": 0, "m": 0, "n": 1}
    assert payload["trace"][0]["kind"] == "BlowUp"


def test_classify_genus2_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", GENUS2)
    assert code == 2
    assert out == ""
    assert "classifier requires genus 1" in err


def test_classify_twisted_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", TWISTED)
    assert code == 2
    assert "untwisted" in err


def test_detect(capsys):
    code, payload, _ = run_json(capsys, "detect", TRI)
    assert code == 0
    kinds = {(t["kind"], t["position"]) for t in payload["detections"]}
    assert ("BlowUp", 1) in kinds and ("BlowUp", 2) in kinds and ("BlowUp", 3) in kinds


def test_detect_needs_closed(capsys):
    code, _, err = run(capsys, "detect", OPEN)
    assert code == 2
    assert "closed" in err


def test_substitute_blowup(capsys):
    code, payload, _ = run_json(capsys, "substitute", TWO, "--op", "blowup",
                                "--pos", "1", "--exp", "1")
    assert code == 0
    assert payload["curves"] == [[1, 0], [-1, 1], [0, -1]]
    # output parses back as a diagram file
    assert cli.parse(json.dumps(payload)).circuit.length == 3


def test_substitute_hayano_notes_framing(capsys):
    code, out, _ = run(capsys, "substitute", TWO, "--op", "hayano",
                       "--pos", "1", "--dual", "0,1", "--k", "0")
    assert code == 0
    assert "fiber-framed" in out
    code, out, _ = run(capsys, "substitute", TWO, "--op", "hayano",
                       "--pos", "1", "--dual", "0,1", "--k", "1")
    assert "opposite framing" in out


def test_substitute_missing_param(capsys):
    code, _, err = run(capsys, "substitute", TWO, "--op", "blowup", "--pos", "1")
    assert code == 2
    assert "--exp" in err


def test_substitute_bad_position(capsys):
    code, _, err = run(capsys, "substitute", TWO, "--op", "blowup",
                       "--pos", "7", "--exp", "1")
    assert code == 2
    assert "position" in err


def test_switch_command(capsys):
    code, payload, _ = run_json(capsys, "switch", TRI, "--k", "1")
    assert code == 0
    assert payload["curves"] == [[0, -1], [1, 0], [-1, 1]]
    # 10**8 = 1 mod 3 and the circuit is untwisted: one switch, done
    # by a bounded number of steps rather than 10**8 of them
    code, far, _ = run_json(capsys, "switch", TRI, "--k", "100000000")
    assert code == 0
    assert far == payload


# the switch matrix has trace 3: mu^q has about 0.42 q digits
HYPERBOLIC = "genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow 2 1\nswitchrow 1 1\n"


@pytest.mark.parametrize("k", ["10000", "100000", "1000000000", "-1000000000"])
def test_switch_decides_the_digit_limit_before_squaring(capsys, tmp_path, k):
    path = tmp_path / "hyperbolic.sd"
    path.write_text(HYPERBOLIC)
    start = time.perf_counter()
    code, out, err = run(capsys, "switch", str(path), "--k", k)
    assert time.perf_counter() - start < 1.0
    if k == "10000":  # mu^4999, 2090 digits
        assert (code, err) == (0, "") and len(out) > 2090
    else:
        assert (code, out) == (1, "")
        assert err == "error: result has an integer longer than 4300 digits\n"


def test_switch_caps_the_powers_at_genus_2(capsys, tmp_path):
    path = tmp_path / "twisted2.sd"
    rows = "switchrow 2 1 0 0\nswitchrow 1 1 0 0\nswitchrow 0 0 2 1\nswitchrow 0 0 1 1\n"
    path.write_text("genus 2\ncurve 1 0 0 0\ncurve 0 1 0 0\nclosed true\n" + rows)
    start = time.perf_counter()
    code, out, err = run(capsys, "switch", str(path), "--k", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: switch matrix power past 16384 bits at genus >= 2\n"


def test_switch_caps_the_powers_at_genus_1_with_the_digit_limit_off(tmp_path):
    path = tmp_path / "hyperbolic.sd"
    path.write_text(HYPERBOLIC)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONINTMAXSTRDIGITS="0")
    child = subprocess.run([sys.executable, "-m", "sdcalc.cli", "switch", str(path), "--k", "1" + "0" * 29 + "1"],
                           capture_output=True, env=env, timeout=30)
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr == b"error: switch matrix power past 16384 bits\n"


def test_switch_turns_an_identity_twist_at_once(capsys, tmp_path):
    path = tmp_path / "identity2.sd"
    rows = "switchrow 1 0 0 0\nswitchrow 0 1 0 0\nswitchrow 0 0 1 0\nswitchrow 0 0 0 1\n"
    path.write_text("genus 2\ncurve 1 0 0 0\ncurve 0 1 0 0\nclosed true\n" + rows)
    k = "7" * 4300  # the longest --k that int() reads; 2c = 4 switches are the identity
    start = time.perf_counter()
    got = run(capsys, "switch", str(path), "--k", k)
    assert time.perf_counter() - start < 1.0
    assert got == run(capsys, "switch", str(path), "--k", str(int(k) % 4))
    assert got[0] == 0 and got[1].startswith("genus 2\ncurve 0 1 0 0\ncurve -1 0 0 0\n")
    # genus 5, switch matrix J + 1 of order 4: 4c = 12 switches are the identity, and k = 1 mod 12
    path = tmp_path / "quarter5.sd"
    rows = ["0 1" + " 0" * 8, "-1" + " 0" * 9]
    rows += [" ".join("01"[i == j] for j in range(10)) for i in range(2, 10)]
    curves = ["1 0", "0 1", "-1 1"]
    path.write_text("genus 5\n" + "".join("curve %s%s\n" % (v, " 0" * 8) for v in curves) + "closed true\n"
                    + "".join("switchrow %s\n" % r for r in rows))
    start = time.perf_counter()
    got = run(capsys, "switch", str(path), "--k", k)
    assert time.perf_counter() - start < 1.0
    assert got == run(capsys, "switch", str(path), "--k", str(int(k) % 12))
    assert got[0] == 0 and got[1].startswith("genus 5\ncurve 1 1%s\ncurve -1 0%s\n" % (" 0" * 8, " 0" * 8))


def test_double_command(capsys):
    code, payload, _ = run_json(capsys, "double", OPEN)
    assert code == 0
    assert payload["closed"] is True
    assert payload["curves"] == [[1, 0], [0, 1]]


def test_monodromy_report(capsys):
    code, payload, _ = run_json(capsys, "monodromy", TWO)
    assert code == 0
    assert payload["word"] == [{"axis": [1, 1], "exponent": 1},
                               {"axis": [1, -1], "exponent": 1}]
    assert payload["matrix"] == [[-1, 4], [0, -1]]
    assert payload["verdict"]["kind"] == "HomologicallyTrivial"
    assert payload["verdict"]["text"] == "not obstructed on homology"
    assert payload["surgered"]["rank"] == 0


def test_monodromy_reads_the_lift_once(capsys):
    from sdcalc import monodromy
    # patched in monodromy's namespace, so every path to them is counted
    with mock.patch.object(monodromy, "_quotient", wraps=monodromy._quotient) as qb, \
            mock.patch.object(monodromy, "_axes", wraps=monodromy._axes) as axes, \
            mock.patch.object(monodromy, "_run", wraps=monodromy._run) as kernel:
        assert cli.run(["monodromy", GENUS2]) == 0
    capsys.readouterr()
    assert qb.call_count == 1  # one surgered action
    assert axes.call_count == 3  # one pass over the curves for each of the word, matrix and action
    assert kernel.call_count == 2  # the matrix and the action, each one packed run


def test_monodromy_at_genus_one_skips_the_quotient_machinery(capsys):
    # the lift matrix is mu_tilde_matrix's fold: no word kernel runs, by any path through homology
    from sdcalc import homology, monodromy
    with mock.patch.object(monodromy, "_quotient", wraps=monodromy._quotient) as qb, \
            mock.patch.object(monodromy, "_axes", wraps=monodromy._axes) as axes, \
            mock.patch.object(monodromy, "_run", wraps=monodromy._run) as runs, \
            mock.patch.object(homology, "_run", wraps=homology._run) as kernel:
        assert cli.run(["monodromy", TRI]) == 0
    capsys.readouterr()
    assert qb.call_count == axes.call_count == runs.call_count == kernel.call_count == 0


def test_monodromy_rejects_twisted(capsys):
    code, _, err = run(capsys, "monodromy", TWISTED)
    assert code == 2
    assert "untwisted" in err


def test_blf_report(capsys):
    code, payload, _ = run_json(capsys, "blf", TWO)
    assert code == 0
    assert payload["round_cycle"] == {"class": [1, 0], "framing": 0}
    assert payload["lefschetz_cycles"][0] == {"class": [1, 1], "framing": -1}
    assert all(c["framing"] == -1 for c in payload["lefschetz_cycles"])


def test_blf_needs_closed(capsys):
    code, _, err = run(capsys, "blf", OPEN)
    assert code == 2
    assert "closed" in err


def test_kirby_report(capsys):
    code, payload, _ = run_json(capsys, "kirby", TRI, "--section", "-2")
    assert code == 0
    assert payload["one_handles"] == ["a1", "b1"]
    assert [h["framing"] for h in payload["fold_handles"]] == [0, -1, 0]
    assert payload["last_handle"]["framing"] == -2
    code, payload, _ = run_json(capsys, "kirby", OPEN)
    assert payload["last_handle"] is None


def test_kirby_section_on_open_fails(capsys):
    code, _, err = run(capsys, "kirby", OPEN, "--section", "1")
    assert code == 2
    assert "closed" in err


def test_generate_deterministic_and_parseable(capsys):
    code1, out1, _ = run(capsys, "generate", "--seed", "9", "--steps", "6")
    code2, out2, _ = run(capsys, "generate", "--seed", "9", "--steps", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    d = cli.parse(out1)
    assert d.circuit.closed


def test_generate_expected_matches_classify(capsys, monkeypatch):
    code, payload, _ = run_json(capsys, "generate", "--seed", "5", "--steps", "8")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(json.dumps(payload).encode()), encoding="utf-8"))
    code, cls, _ = run_json(capsys, "classify", "-")
    assert code == 0
    assert cls["forms"] == payload["expected"]["forms"]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "info", TRI, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"] == "info"


def test_out_into_missing_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "info", TRI, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write")
    assert not target.exists()


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "monodromy", TRI, "--format", "json")
    _, out2, _ = run(capsys, "monodromy", TRI, "--format", "json")
    assert out1 == out2
    assert out1.endswith("\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sdcalc ")


def test_missing_file(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/thing.sd")
    assert code == 1
    assert "cannot read" in err


def test_color_toggle(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setenv("SDCALC_COLOR", "0")
    assert not cli._color_enabled(Tty())
    monkeypatch.delenv("SDCALC_COLOR")
    assert cli._color_enabled(Tty())
    assert not cli._color_enabled(io.StringIO())


def test_banner_is_colored_only_on_a_terminal(monkeypatch, tmp_path):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("SDCALC_COLOR", raising=False)
    target = tmp_path / "report.txt"
    for argv, colored in [([], True), (["--format", "json"], False), (["--out", str(target)], False)]:
        out = Tty()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.run(["info", GENUS2, *argv]) == 0
        text = out.getvalue() or target.read_text()
        assert ("\x1b[33mnote: " + cli.BANNER + "\x1b[0m\n" in text) == colored
        assert ("\x1b" in text) == colored


@pytest.mark.parametrize("path,command", [
    (TWO, "validate"), (TWO, "info"), (TWO, "classify"), (TWO, "detect"),
    (TWO, "monodromy"), (TWO, "blf"), (TWO, "kirby"),
    (GENUS2, "validate"), (GENUS2, "info"), (GENUS2, "detect"),
    (GENUS2, "monodromy"), (GENUS2, "blf"), (GENUS2, "kirby"),
    (TWISTED, "validate"), (TWISTED, "info"), (TWISTED, "detect"),
])
def test_all_reports_satisfy_schema(capsys, path, command):
    code, _, _ = run_json(capsys, command, path)
    assert code == 0


# ------------------------------------------------------------- robustness

BIG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("text,line", [
    ("genus %s\ncurve 1 0\n" % BIG, 1),
    ("genus 1\ncurve 1 0\ncurve %s 1\nclosed false\n" % BIG, 3),
    ("genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow %s 0\nswitchrow 0 1\n" % BIG, 5),
    ('{"genus": 1, "curves": [[%s, 1], [0, 1]], "closed": true}' % BIG, None),
], ids=["sd_genus", "sd_curve", "sd_switchrow", "json"])
def test_overlong_integer_is_parse_error(capsys, monkeypatch, text, line):
    with pytest.raises(cli.ParseError, match="integer longer than") as ei:
        cli.parse(text)
    assert ei.value.line == line
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, err = run(capsys, "info", "-")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "integer longer than" in err and len(err) < 200


def test_non_utf8_input_is_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.sd"
    p.write_bytes(b"genus 1\ncurve 1 0\xff\ncurve 0 1\nclosed true\n")
    with pytest.raises(cli.ParseError, match="offset 17"):
        cli.parse(p.read_bytes())
    code, out, err = run(capsys, "info", str(p))
    assert code == 1 and out == ""
    assert err == "error: not UTF-8: byte 0xff at offset 17\n"


def test_unknown_directive_message_is_bounded(capsys, tmp_path):
    p = tmp_path / "long.sd"
    p.write_text("genus 1\n" + "x" * 200_000 + "\n")
    code, out, err = run(capsys, "validate", str(p))
    assert code == 1 and err == ""
    assert out.count("\n") == 1 and len(out) < 200
    assert out.startswith("invalid: line 2, col 1: unknown directive 'xxx")
    assert out.endswith("...'\n")
    code, _, err = run(capsys, "substitute", TWO, "--op", "hayano", "--pos", "1",
                       "--k", "0", "--dual", "y" * 200_000)
    assert code == 2 and len(err) < 200


def _big_triangle(closed):
    # (1,0), (a,1), (ac-1, c): adjacent pairings 1, closing pairing -c,
    # framing of the last curve about 6000 digits
    a, c = int("7" * 2001), int("3" * 2001)
    return "genus 1\ncurve 1 0\ncurve %d 1\ncurve %d %d\nclosed %s\n" % (a, a * c - 1, c, closed)


def _stdin_run(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    return run(capsys, *argv)


@pytest.mark.parametrize("text,match", [
    (_big_triangle("true"), "error: closing pairing -3333"),
    # adjacent pairing of about 8400 digits, more than str() converts
    ('{"genus": 1, "curves": [[1, 0], [%s, 1], [1, %s]], "closed": false}'
     % ("7" * 4200, "3" * 4200), "error: curves 2,3: adjacent pairing 2592"),
], ids=["sd_closing", "json_adjacent"])
def test_long_pairing_message_is_bounded(capsys, monkeypatch, text, match):
    code, out, err = _stdin_run(capsys, monkeypatch, text, "info", "-")
    assert code == 1 and out == ""
    assert err.startswith(match) and "...," in err
    assert err.count("\n") == 1 and len(err) < 120


DEEP = '{"genus": 1, "curves": ' + "[" * 200000 + "]" * 200000 + "}"


def test_deep_json_nesting_is_a_parse_error(capsys, monkeypatch):
    code, out, err = _stdin_run(capsys, monkeypatch, DEEP, "validate", "-", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"command": "validate", "exactness": None, "homological_only": False,
                               "ok": False, "failures": [[0, "JSON nested too deeply"]]}
    for command in ("validate", "info", "switch"):
        assert _stdin_run(capsys, monkeypatch, DEEP, command, "-") == (
            1, "invalid: JSON nested too deeply\n" if command == "validate" else "",
            "" if command == "validate" else "error: JSON nested too deeply\n")


def test_validate_clips_long_pairings():
    a = 10 ** 5000 - 1  # more digits than str() converts
    rep = validate(Circuit(((1, 0), (1, a), (0, 1)), True))
    assert not rep.ok
    assert all(len(reason) < 80 for _, reason in rep.failures)
    assert rep.failures[0] == (1, "adjacent pairing 9999999999999999999999999999999999999999..., need +-1")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_overlong_result_integer_is_input_error(capsys, monkeypatch, fmt):
    code, out, err = _stdin_run(capsys, monkeypatch, _big_triangle("false"),
                                "info", "-", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: result has an integer longer than 4300 digits\n"


def _far_linking(m):
    # genus-2 open chain (0,-1,0,0), (1,0,0,N), (1,1,0,0), (0,1,m,0): framings
    # 0, 0, 1, 0, the first row small, L_24 = N m, and the bound
    # g max|coef|^2 = 2 N^2 about 4400 digits long
    n = int("7" * 2200)
    return ("genus 2\ncurve 0 -1 0 0\ncurve 1 0 0 %d\ncurve 1 1 0 0\ncurve 0 1 %d 0\n"
            "closed false\n" % (n, m))


@pytest.mark.parametrize("text", [_big_triangle("false"), _far_linking(int("3" * 2200))],
                         ids=["framing", "linking"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["info", "kirby"])
def test_overlong_matrix_entry_fails_before_any_output(capsys, tmp_path, text, fmt, command):
    path = tmp_path / "big.sd"
    path.write_text(text)
    target = tmp_path / "report.out"
    for out in ([], ["--out", str(target)]):
        code, stdout, err = run(capsys, command, str(path), "--format", fmt, *out)
        assert (code, stdout) == (1, "")
        assert err == "error: result has an integer longer than 4300 digits\n"
        assert not target.exists()


@pytest.mark.parametrize("command", ["info", "kirby"])
def test_matrix_past_the_cheap_bound_streams_the_eager_bytes(capsys, tmp_path, command):
    path = tmp_path / "far.sd"
    path.write_text(_far_linking(7))
    entries = linking_matrix_eager(cli.parse(path.read_text()).circuit)
    assert len(str(entries[1][3])) == 2201 and max(map(abs, entries[0])) == 1
    code, out, err = run(capsys, command, str(path), "--format", "json")
    assert (code, err) == (0, "")
    payload = dict(json.loads(out), linking_matrix=entries)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    rows = ["  " + " ".join("%3d" % t for t in r) for r in entries]
    assert "\nlinking matrix:\n" + "\n".join(rows) + "\n" in out


# The child runs the CLI and prints its own peak RSS in KiB to stderr.  It
# reads VmHWM, which counts only its own process image: ru_maxrss also keeps
# the peak of the image it replaced at exec, here the test runner's.
MAXRSS_CHILD = """\
import re, sys
from sdcalc.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_info_json_streams_in_bounded_memory(capsys, tmp_path):
    path = tmp_path / "g500.sd"
    assert cli.run(["generate", "--seed", "1", "--steps", "500", "--out", str(path)]) == 0
    circ = cli.parse(path.read_text()).circuit
    assert circ.length > 700
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", MAXRSS_CHILD, "info", str(path), "--format", "json"],
                           capture_output=True, env=env, timeout=120)
    assert child.returncode == 0
    # about 16 MB streamed; an eager c x c tuple and one json.dumps string
    # of it peak at about 72 MB on this input
    assert int(child.stderr.split()[-1]) < 40 * 1024
    payload = dict(json.loads(child.stdout), linking_matrix=linking_matrix_eager(circ))
    assert child.stdout == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _closed_pipe_run(argv, read_first_line):
    """A python -m sdcalc.cli child whose reader goes away: after the first
    line, or before the child writes anything."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    cmd = [sys.executable, "-m", "sdcalc.cli"] + argv
    if read_first_line:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = child.stdout.readline()
        child.stdout.close()
    else:
        r, w = os.pipe()
        os.close(r)
        child = subprocess.Popen(cmd, stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
        first = b""
    code = child.wait(timeout=60)
    return code, first, child.stderr.read()


def test_a_closed_output_pipe_is_exit_1_and_nothing_on_stderr(tmp_path):
    path = tmp_path / "g1000.sd"
    assert cli.run(["generate", "--seed", "1", "--steps", "1000", "--out", str(path)]) == 0
    # more than any pipe holds (the linking matrix alone is 1509 x 1509), so the
    # child is still writing when the reader goes
    code, first, err = _closed_pipe_run(["info", str(path)], True)
    assert (code, first, err) == (1, b"genus 1, length 1509, closed, Exact\n", b"")
    # a few bytes, all buffered until run flushes them
    assert _closed_pipe_run(["validate", TWO], False) == (1, b"", b"")


def test_long_positions_and_duals_are_bounded(capsys):
    code, _, err = run(capsys, "substitute", TWO, "--op", "blowup", "--exp", "1",
                       "--pos", "9" * 4000)
    assert code == 2 and err.count("\n") == 1 and len(err) < 120
    code, _, err = run(capsys, "substitute", TWO, "--op", "hayano", "--pos", "1",
                       "--k", "0", "--dual", "9" * 3000 + ",0")
    assert code == 2 and err.count("\n") == 1 and len(err) < 120
    code, _, err = run(capsys, "substitute", TWO, "--op", "hayano", "--pos", "1",
                       "--k", "0", "--dual", "9" * 5000 + ",1")
    assert (code, err) == (2, "error: integer longer than 4300 digits\n")


@pytest.mark.parametrize("value", ["9" * 4000, "2", "0", "-3"])
def test_other_blowup_exponents_are_one_line(capsys, value):
    code, out, err = run(capsys, "substitute", TWO, "--op", "blowup", "--pos", "1",
                         "--exp", value)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) <= 150
    assert "exponent must be +1 or -1" in err


def test_blowup_exponent_help_lists_the_values(capsys):
    assert cli.run(["substitute", "-h"]) == 0
    assert "[--exp {1,-1}]" in capsys.readouterr().out


INT_OPTIONS = {
    "switch_k": ["switch", TRI, "--k"],
    "stab_k": ["substitute", TWO, "--op", "stab", "--pos", "1", "--k"],
    "pos": ["substitute", TWO, "--op", "stab", "--k", "1", "--pos"],
    "exp": ["substitute", TWO, "--op", "blowup", "--pos", "1", "--exp"],
    "section": ["kirby", TRI, "--section"],
    "seed": ["generate", "--steps", "1", "--seed"],
    "steps": ["generate", "--seed", "1", "--steps"],
}


@pytest.mark.parametrize("value", [BIG, "1e" * 2500, "abc"], ids=["digits", "long", "short"])
@pytest.mark.parametrize("argv", INT_OPTIONS.values(), ids=INT_OPTIONS.keys())
def test_bad_int_options_are_bounded(capsys, argv, value):
    code, out, err = run(capsys, *argv, value)
    shown = value if len(value) <= CLIP else value[:CLIP] + "..."
    assert code == 2 and out == ""
    assert err.endswith("%s: invalid int value: '%s'\n" % (argv[-1], shown))
    assert len(err) < 400


LONG = "x" * 200000
ECHOED = {
    "command": [LONG, TRI],
    "op": ["substitute", TWO, "--pos", "1", "--op", LONG],
    "format": ["info", TRI, "--format", LONG],
    "format_abbrev": ["info", TRI, "--fo=" + LONG],
    "format_spaces": ["info", TRI, "--format", "x " * 100000],
    "ambiguous_spaces": ["substitute", TWO, "--o=" + "x " * 100000],
    "ambiguous_newlines": ["substitute", TWO, "--o=" + "x\n" * 100000],
    "version_arg": ["--version=" + LONG],
    "extra": ["info", TRI, LONG],
    "extras": ["info", TRI] + ["x"] * 100000,
}


@pytest.mark.parametrize("argv", ECHOED.values(), ids=ECHOED.keys())
def test_argparse_errors_echo_bounded_values(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "x" * (CLIP + 1) not in err and "x " * (CLIP + 1) not in err
    assert len(err) < 400, err


@pytest.mark.parametrize("escape", ["\x01", "\u200b", "\U000e0001", "\n", "\\", "'"])
def test_quoted_echoes_are_cut_between_escapes(capsys, escape):
    # a cut value is a prefix of the real repr that ends between two escapes
    for pad in range(CLIP - 10, CLIP + 1):
        value = "a" * pad + escape * 3
        code, out, err = run(capsys, "info", TWO, "--format", value)
        assert code == 2 and out == ""
        shown, real = re.search(r"invalid choice: (.*) \(choose from", err)[1], repr(value)
        if len(real) <= CLIP + 2:
            assert shown == real
            continue
        q, cut = real[0], shown[1:-4]
        assert shown == q + cut + "..." + q and real.startswith(q + cut), (pad, err)
        assert value.startswith(ast.literal_eval(q + cut + q)) and len(cut) > CLIP - 10


USAGE_ERRORS = {
    "command": ["frobnicate"],
    "missing": ["substitute", TWO, "--op", "blowup"],
    "choice": ["info", TRI, "--format", "xml"],
    "int": ["switch", TRI, "--k", "two"],
    "extra": ["info", TRI, "extra"],
    "ambiguous": ["substitute", TWO, "--o", "x"],
    "no_value": ["substitute", TWO, "--op", "hayano", "--pos", "1", "--k", "0", "--dual"],
    "stab_k": ["substitute", TWO, "--op", "stab", "--pos", "1"],
    "hayano_dual": ["substitute", TWO, "--op", "hayano", "--pos", "1", "--k", "0"],
}
# the whole stderr of the usage errors that sdcalc words itself
USAGE_TEXT = {"stab_k": "error: stab needs --k\n",
              "hayano_dual": "error: hayano needs --k and --dual\n"}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_errors_are_one_line(capsys, name):
    code, out, err = run(capsys, *USAGE_ERRORS[name])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "usage:" not in err
    assert err == USAGE_TEXT.get(name, err)


def test_usage_errors_are_painted_on_a_terminal(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(err, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("SDCALC_COLOR", raising=False)
    with redirect_stderr(err):
        assert cli.run(["frobnicate"]) == 2
    assert err.getvalue().startswith("\x1b[31merror:\x1b[0m argument command: invalid choice")


@pytest.mark.parametrize("dual", ["-1,1", "-1,+1", "-2,-1"])
def test_dual_may_start_with_a_minus(capsys, dual):
    argv = ["substitute", TRI, "--op", "hayano", "--pos", "1", "--k", "0"]
    expect = run(capsys, *argv, "--dual=" + dual)
    assert expect[0] == 0 and expect[1].startswith("genus 1\ncurve 1 0\n")
    assert run(capsys, *argv, "--dual", dual) == expect


def test_usage_error_text_is_not_read_as_an_overlong_result(capsys):
    code, _, err = run(capsys, "substitute", TWO, "--op", "hayano", "--pos", "1", "--k", "0",
                       "--dual", "integer string conversion")
    assert code == 2 and err.startswith("error: expected a comma-separated integer vector")


def test_generate_steps_are_bounded(capsys):
    for steps in (str(MAX_STEPS + 1), "9" * 300):
        code, out, err = run(capsys, "generate", "--seed", "1", "--steps", steps)
        assert (code, out, err) == (2, "", "error: --steps must be at most %d\n" % MAX_STEPS)


FIXTURES = [p.read_bytes() for p in sorted(DATA.glob("*.sd"))] + [Path(TRIJSON).read_bytes()]
NUMBER = re.compile(rb"-?[0-9]+")
DIGITS = [b"0", b"1", b"2", b"7" * 150]
TOKENS = [b"-", b"0", b"1", b" ", b"\n", b"#", b",", b"[", b"]", b"{", b"}", b'"', b"true",
          b"null", b"curve 1 1\n", b"switchrow 1 0\n", b"genus 2\n", b"\xff", b"\x00"]


@st.composite
def fuzz_inputs(draw):
    """Arbitrary bytes, or a fixture with a few edits: a number replaced by
    another integer, or a few bytes replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=300))
    data = draw(st.sampled_from(FIXTURES))
    for _ in range(draw(st.integers(1, 4))):
        numbers = list(NUMBER.finditer(data))
        if numbers and draw(st.integers(0, 3)):
            m = draw(st.sampled_from(numbers))
            i, j = m.span()
            new = draw(st.sampled_from([b"", b"-"])) + draw(st.sampled_from(DIGITS))
        else:
            i = draw(st.integers(0, len(data)))
            j = draw(st.integers(i, min(len(data), i + 8)))
            new = draw(st.sampled_from(TOKENS) | st.binary(max_size=4))
        data = data[:i] + new + data[j:]
    return data


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=fuzz_inputs(), fmt=st.sampled_from(["text", "json"]))
def test_fuzz_commands_never_raise(data, fmt):
    for command in ("validate", "info", "classify"):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(data))), \
                redirect_stdout(out), redirect_stderr(err):
            code = cli.run([command, "-", "--format", fmt])
        msg = err.getvalue()
        assert code in (0, 1, 2), (command, data)
        assert msg.count("\n") <= 1 and len(msg) <= 150, (command, data, msg)


SUBCOMMANDS = ["validate", "info", "classify", "detect", "substitute", "switch", "double",
               "monodromy", "blf", "kirby", "generate", "frobnicate"]
# every option but --out, whose value names a file to write, and two abbreviations
OPTIONS = ["--format", "--op", "--pos", "--exp", "--k", "--dual", "--section", "--seed",
           "--steps", "--fo", "--du", "-h"]
ARGV_VALUES = st.one_of(
    st.integers(-40, 40).map(str),
    st.sampled_from(["9" * 30, "-" + "9" * 30, BIG, "-" + BIG, "-1,0", "1,-1,0,2", "text",
                     "json", "blowup", "stab", "hayano", "", " ", "-", "--", "-x",
                     "x " * 3000, "é" * 300, "é\nΔ 1"]),
    st.text(max_size=30),  # non-ASCII, spaces and control characters
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(SUBCOMMANDS),
       file=st.sampled_from([TWO, TRI, GENUS2, OPEN, TWISTED, TRIJSON, "-"]) | ARGV_VALUES,
       options=st.lists(st.tuples(st.sampled_from(OPTIONS), ARGV_VALUES), max_size=5))
def test_fuzz_argv_errors_are_one_bounded_line(command, file, options):
    argv = [command] + [file] * (command != "generate") + [t for pair in options for t in pair]
    assume(not any(t.startswith("--o") for t in argv))  # an abbreviation of --out writes a file
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(Path(TWO).read_bytes()))), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    msg = err.getvalue()
    assert code in (0, 1, 2), argv
    assert msg.count("\n") <= 1 and len(msg) <= 300, (argv, msg)


# ------------------------------------------------------ one subparser per run
#
# A run whose first argument names a subcommand builds the parser with that
# subparser only (cli._build_parser(only)); every other run builds all of them.

NAMES = ["validate", "info", "classify", "detect", "substitute", "switch", "double", "monodromy",
         "blf", "kirby", "generate"]


def parsed(argv, only):
    """What the parser built with `only` makes of argv: its namespace, its
    UsageError text, or the exit code and stdout of -h or --version."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        try:
            return "namespace", vars(cli._build_parser(only).parse_args(list(argv)))
        except cli.UsageError as exc:
            return "usage", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue()


def spy_parsers(monkeypatch):
    """The list of the parsers that cli.run builds from here on."""
    built = []
    build = cli._build_parser

    def spy(only=None):
        built.append(build(only))
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    return built


def subcommands(parser):
    return list(parser._subparsers._group_actions[0].choices)


def assert_parsed_as_by_all(argv):
    if argv and argv[0] in cli._COMMANDS:
        assert parsed(argv, argv[0]) == parsed(argv, None), argv


def test_one_subparser_parses_the_golden_and_usage_error_argvs_as_all_of_them():
    argvs = {tuple(argv) for _, argv, _ in cases()}
    argvs |= {tuple(argv) for argv in chain(USAGE_ERRORS.values(), ECHOED.values())}
    argvs |= {tuple(argv) + (value,) for argv in INT_OPTIONS.values() for value in (BIG, "1e" * 2500, "abc")}
    assert len(argvs) > 150 and {argv[0] for argv in argvs} >= set(NAMES)
    kinds = set()
    for argv in sorted(argvs):
        assert_parsed_as_by_all(argv)
        kinds.add(parsed(argv, None)[0])
    assert kinds == {"namespace", "usage", "exit"}


@pytest.mark.parametrize("name", NAMES)
def test_one_subparser_prints_the_same_help(name):
    kind, code, out = parsed([name, "-h"], name)
    assert (kind, code) == ("exit", 0) and out.startswith("usage: sdcalc %s [-h]" % name)
    assert parsed([name, "-h"], None) == (kind, code, out)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(SUBCOMMANDS),
       file=st.sampled_from([TWO, TRI, GENUS2, OPEN, TWISTED, TRIJSON, "-"]) | ARGV_VALUES,
       options=st.lists(st.tuples(st.sampled_from(OPTIONS + ["--out", "--version"]), ARGV_VALUES),
                        max_size=5))
def test_one_subparser_parses_the_fuzzed_argvs_as_all_of_them(command, file, options):
    assert_parsed_as_by_all([command] + [file] * (command != "generate") + [t for pair in options for t in pair])


@pytest.mark.parametrize("argv", [["-h"], ["--version"], ["frobnicate", TWO], ["--format", "json", "info"], []],
                         ids=["help", "version", "unknown", "option_first", "empty"])
def test_runs_that_name_no_subcommand_build_all_of_them(capsys, monkeypatch, argv):
    built = spy_parsers(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert [subcommands(p) for p in built] == [NAMES]
    if argv == ["-h"]:
        assert code == 0 and "{%s}" % ",".join(NAMES) in out
    elif argv == ["--version"]:
        assert (code, out) == (0, "sdcalc 0.1.0\n")
    else:
        assert code == 2
    if argv[:1] == ["frobnicate"]:
        assert "(choose from %s)" % ", ".join(map(repr, NAMES)) in err


@pytest.mark.parametrize("name", NAMES)
def test_a_run_that_names_its_subcommand_builds_only_that_one(capsys, monkeypatch, name):
    built = spy_parsers(monkeypatch)
    run(capsys, name, "-h")
    assert [subcommands(p) for p in built] == [[name]]
