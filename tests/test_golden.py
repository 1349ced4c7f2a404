"""Golden digests of the CLI: exit code, stdout and stderr of every case.

Each case runs `cli.run` in-process with its input on stdin and hashes
(exit code, stdout, stderr).  `tests/data/golden.json` holds one digest
per case, so a mismatch names the case.  The cases cover every
subcommand in both formats over the fixture files, 200 generator seeds
(JSON for all, text for every fourth),
seeded random closed circuits of genus 2, 3 and 5 (plain and twisted),
one invalid input per parser and `normalize` message, and the
driver's own usage errors.  (argparse's usage messages are left out:
their wrapping follows the terminal width.)

Regenerate the file only at a commit whose output changes on purpose,
and declare the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.json
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sdcalc import cli  # noqa: E402
from sdcalc.circuit import generate  # noqa: E402
from sdcalc.homology import twist_matrix  # noqa: E402

from support import rand_closed  # noqa: E402

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"
FIXTURES = ("blowup3.sd", "genus2.sd", "open.sd", "twisted.sd", "two.sd", "tri.json")
FORMATS = ("text", "json")
SEED_COMMANDS = (
    ("validate",), ("info",), ("classify",), ("detect",), ("monodromy",), ("blf",),
    ("kirby", "--section", "1"), ("switch", "--k", "2"), ("double",),
)


def sd_text(genus, curves, closed=True, switch=None):
    """A .sd file for the given data, written without sdcalc's emitter."""
    lines = ["genus %d" % genus]
    lines += ["curve " + " ".join(map(str, v)) for v in curves]
    lines.append("closed %s" % ("true" if closed else "false"))
    lines += ["switchrow " + " ".join(map(str, r)) for r in switch or ()]
    return ("\n".join(lines) + "\n").encode()


def file_commands(curves):
    """Every file subcommand, with substitutions at the first and the seam position."""
    c = len(curves)
    dual = ",".join(map(str, curves[1 % c]))
    return [
        ("validate",), ("info",), ("classify",), ("detect",), ("monodromy",), ("blf",),
        ("kirby",), ("kirby", "--section", "-2"), ("switch",), ("switch", "--k", "-3"),
        ("switch", "--k", "100000001"), ("double",),
        ("substitute", "--op", "blowup", "--pos", "1", "--exp", "1"),
        ("substitute", "--op", "blowup", "--pos", str(c), "--exp", "-1"),
        ("substitute", "--op", "stab", "--pos", "1", "--k", "2"),
        ("substitute", "--op", "stab", "--pos", str(c), "--k", "-1"),
        ("substitute", "--op", "hayano", "--pos", "1", "--k", "1", "--dual", dual),
        ("substitute", "--op", "hayano", "--pos", str(c), "--k", "0", "--dual", "1,1"),
        ("substitute", "--op", "blowup", "--pos", "1"),
        ("substitute", "--op", "stab", "--pos", str(c + 1), "--k", "0"),
    ]


INVALID = {
    "sd_genus_not_int": "genus x\ncurve 1 0\n",
    "sd_genus_two_args": "genus 1 2\n",
    "sd_genus_zero": "genus 0\ncurve 1 0\n",
    "sd_curve_not_int": "genus 1\ncurve 1 a\n",
    "sd_curve_empty": "genus 1\ncurve\n",
    "sd_closed_bad": "genus 1\ncurve 1 0\ncurve 0 1\nclosed maybe\n",
    "sd_switchrow_not_int": "genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow 1 x\n",
    "sd_unknown_directive": "genus 1\n  frob 1 0\n",
    "sd_missing_genus": "curve 1 0\ncurve 0 1\nclosed true\n",
    "sd_no_curves": "genus 1\nclosed true\n",
    "coefficients": "genus 1\ncurve 1 0\ncurve 1 0 0\nclosed true\n",
    "switch_shape": "genus 1\ncurve 1 0\ncurve 0 1\nclosed true\nswitchrow 1 1\n",
    "switch_not_symplectic": ("genus 1\ncurve 1 0\ncurve 0 1\nclosed true\n"
                              "switchrow 2 0\nswitchrow 0 1\n"),
    "switch_open": ("genus 1\ncurve 1 0\ncurve 0 1\nclosed false\n"
                    "switchrow 1 0\nswitchrow 0 1\n"),
    "closed_too_short": "genus 1\ncurve 1 0\nclosed true\n",
    "not_primitive": "genus 1\ncurve 1 0\ncurve 0 1\ncurve 2 2\nclosed false\n",
    "adjacent_pairing": "genus 1\ncurve 1 0\ncurve 0 1\ncurve 0 1\nclosed false\n",
    "closing_pairing": "genus 1\ncurve 1 0\ncurve 0 1\ncurve -1 2\nclosed true\n",
    "closing_pairing_twisted": ("genus 1\ncurve 1 0\ncurve 0 1\nclosed true\n"
                                "switchrow 1 1\nswitchrow 2 3\n"),
    "json_syntax": '{"genus": 1,\n "curves": [[1, 0]',
    "json_top_level": "[1, 2]",
    "json_top_level_sniffed": '{"genus": 1}x',
    "json_missing_key": '{"genus": 1, "closed": true}',
    "json_genus": '{"genus": 0, "curves": [[1, 0], [0, 1]], "closed": true}',
    "json_curves_empty": '{"genus": 1, "curves": [], "closed": true}',
    "json_curve_not_list": '{"genus": 1, "curves": [[1, 0], 7], "closed": true}',
    "json_curve_bool": '{"genus": 1, "curves": [[1, 0], [true, 1]], "closed": true}',
    "json_closed": '{"genus": 1, "curves": [[1, 0], [0, 1]], "closed": "yes"}',
    "json_switch": '{"genus": 1, "curves": [[1, 0], [0, 1]], "closed": true, "switch": [1]}',
    "json_coefficients": '{"genus": 2, "curves": [[1, 0, 0, 0], [0, 1]], "closed": false}',
    "json_not_primitive": '{"genus": 1, "curves": [[3, 0], [0, 1]], "closed": false}',
    "json_closing_pairing": '{"genus": 1, "curves": [[1, 0], [1, 1], [1, 2]], "closed": true}',
    "empty_input": "",
}

ARGV = {
    "version": ["--version"],
    "missing_file": ["info", "no-such-file.sd"],
    "missing_file_json": ["validate", "no-such-file.sd", "--format", "json"],
    "generate_negative_steps": ["generate", "--seed", "1", "--steps", "-1"],
    "substitute_bad_dual": ["substitute", "-", "--op", "hayano", "--pos", "1",
                            "--k", "0", "--dual", "x"],
}


def cases():
    """(name, argv, stdin bytes) for every golden case, in a fixed order."""
    for name in FIXTURES:
        data = (DATA / name).read_bytes()
        if name.endswith(".json"):
            curves = json.loads(data)["curves"]
        else:
            curves = [line.split()[1:] for line in data.decode().splitlines()
                      if line.startswith("curve")]
        for cmd in file_commands(curves):
            for fmt in FORMATS:
                yield ("%s/%s/%s" % (name, " ".join(cmd), fmt),
                       [cmd[0], "-"] + list(cmd[1:]) + ["--format", fmt], data)
    for seed, steps in ((1, 0), (7, 5), (3, 30)):
        for fmt in FORMATS:
            yield ("generate/%d/%d/%s" % (seed, steps, fmt),
                   ["generate", "--seed", str(seed), "--steps", str(steps), "--format", fmt], b"")
    for seed in range(200):
        circ, _ = generate(seed, seed % 41)
        data = sd_text(1, circ.curves)
        for cmd in SEED_COMMANDS:
            for fmt in FORMATS if seed % 4 == 0 else ("json",):
                yield ("seed%d/%s/%s" % (seed, " ".join(cmd), fmt),
                       [cmd[0], "-"] + list(cmd[1:]) + ["--format", fmt], data)
    for g in (2, 3, 5):
        for i in range(6):
            circ = rand_closed(random.Random(100 * g + i), g, 2 + 2 * i)
            mu = twist_matrix(circ.curves[0], 1 + i % 2)
            for kind, data in (("plain", sd_text(g, circ.curves)),
                               ("twisted", sd_text(g, circ.curves, switch=mu))):
                for cmd in file_commands(circ.curves):
                    for fmt in FORMATS:
                        yield ("g%d_%d_%s/%s/%s" % (g, i, kind, " ".join(cmd), fmt),
                               [cmd[0], "-"] + list(cmd[1:]) + ["--format", fmt], data)
    for name, text in INVALID.items():
        for fmt in FORMATS:
            yield ("invalid/%s/%s" % (name, fmt),
                   ["validate", "-", "--format", fmt], text.encode())
    for name, argv in ARGV.items():
        yield "argv/%s" % name, argv, sd_text(1, [(1, 0), (0, 1)])


def run_case(argv, data):
    """Hex digest of (exit code, stdout, stderr) of cli.run(argv) with data on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digests():
    return {name: run_case(argv, data) for name, argv, data in cases()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _, _ in cases())


@pytest.mark.parametrize("family", ["fixture", "generate", "seed", "random", "invalid", "argv"])
def test_golden_digests(golden, family):
    prefix = {"fixture": tuple(FIXTURES), "generate": ("generate/",), "seed": ("seed",),
              "random": ("g2_", "g3_", "g5_"), "invalid": ("invalid/",),
              "argv": ("argv/",)}[family]
    picked = [(n, a, d) for n, a, d in cases() if n.startswith(prefix)]
    assert picked
    changed = [n for n, a, d in picked if run_case(a, d) != golden.get(n)]
    assert changed == [], "%d of %d cases changed, first: %s" % (
        len(changed), len(picked), changed[:10])


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), indent=0, sort_keys=True) + "\n")
