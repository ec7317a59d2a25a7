import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from segrekit import cli
from segrekit.cli import main
from segrekit.segre import format_segre, iter_segre

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"

WORKED_MATRIX_JSON = {
    "rows": 10,
    "cols": 10,
    "entries": [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 2, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 3, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 4, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 4, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
    ],
}

N4_EXPECTED = [
    "[(4)]",
    "[(3,1)]",
    "[(3),(1)]",
    "[(2,2)]",
    "[(2),(2)]",
    "[(2,1,1)]",
    "[(2,1),(1)]",
    "[(2),(1,1)]",
    "[(2),(1),(1)]",
    "[(1,1,1,1)]",
    "[(1,1,1),(1)]",
    "[(1,1),(1,1)]",
    "[(1,1),(1),(1)]",
    "[(1),(1),(1),(1)]",
]


def write_matrix(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_count(capsys):
    assert main(["count", "4"]) == 0
    assert capsys.readouterr().out == "14\n"
    assert main(["count", "0"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["count", "11", "--method", "sum"]) == 0
    assert capsys.readouterr().out == "1527\n"


def test_count_both(capsys):
    assert main(["count", "11", "--method", "both"]) == 0
    assert capsys.readouterr().out == "1527\n1527\n"


def test_count_usage_errors(capsys):
    assert main(["count", "-1"]) == 2
    assert "n must be >= 0" in capsys.readouterr().err
    assert main(["count", "x"]) == 2
    assert main(["count", "4", "--method", "nope"]) == 2
    assert main(["count"]) == 2


def test_integer_arguments_take_ascii_digits_only(capsys):
    # int() alone reads "\u0663" as 3, " 1_0 " as 10 and "+5" as 5
    for text in ("\u0663", " 1_0 ", "+5", "1e3", "5 ", "1_0", "\uff15"):
        for argv in (["count", text], ["enumerate", text], ["render", text],
                     ["render", "2", "--columns", text]):
            code, err = run_main(argv)
            assert code == 2, argv
            assert "invalid integer" in err and "Traceback" not in err, argv
    # leading zeros are still ASCII digits
    assert main(["count", "007"]) == 0
    assert capsys.readouterr().out == "111\n"


def test_enumerate_text(capsys):
    assert main(["enumerate", "1"]) == 0
    assert capsys.readouterr().out == "[(1)]\ntotal: 1\n"
    assert main(["enumerate", "4"]) == 0
    assert capsys.readouterr().out == "\n".join(N4_EXPECTED + ["total: 14"]) + "\n"


def test_enumerate_text_writes_each_line_once(monkeypatch, tmp_path):
    # the first piece of output in a write of its own, so that a reader
    # sees it at once, then the rest in batches of about cli.WRITE_CHARS
    # characters: with stdout unbuffered, each write is a system call
    class Recorder:
        def __init__(self):
            self.writes, self.flushes = [], []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            self.flushes.append(len(self.writes))

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    lines = [line + "\n" for line in N4_EXPECTED + ["total: 14"]]
    # flushed after the first piece, which a block-buffered stdout would
    # otherwise hold back until its buffer fills
    assert main(["enumerate", "4"]) == 0
    assert out.flushes == [1]
    # with a batch of one character each piece is a write of its own:
    # enumerate's pieces are its lines; render's are the SVG header, then
    # each grid's opening tag, rows and frame, then the footer.  Either
    # output of n = 4 is shorter than one batch of the default size.
    default = cli.WRITE_CHARS
    for argv in (["enumerate", "4"], ["render", "4"]):
        writes = {}
        for chars in (1, 64, default):
            monkeypatch.setattr(cli, "WRITE_CHARS", chars)
            out.writes.clear()
            assert main(argv) == 0
            writes[chars] = out.writes[:]
        pieces, batched = writes[1], writes[64]
        assert batched[0] == pieces[0], argv
        assert "".join(batched[1:]) == "".join(pieces[1:]), argv
        longest = max(map(len, pieces))
        assert all(len(w) < 64 + longest for w in batched[1:]), argv
        assert all(len(w) >= 64 for w in batched[1:-1]), argv
        assert writes[default] == [pieces[0], "".join(pieces[1:])], argv
        if argv[0] == "enumerate":
            assert pieces == lines
        else:
            assert pieces[0].startswith("<?xml") and "<g" not in pieces[0]
            assert len(batched) > 2
    # one write for the whole output of count, rankpattern and analyze,
    # whose bytes the tests of each command check
    matrix = write_matrix(tmp_path, WORKED_MATRIX_JSON)
    for argv, head in [(["count", "11"], "1527\n"),
                       (["count", "11", "--method", "both"], "1527\n1527\n"),
                       (["rankpattern", "n=10: 10,7,5,3,2,1,0"], "growth: "),
                       (["analyze", matrix], "segre: [(3),(2,1),(2,1),(1)]\n"),
                       (["analyze", matrix, "--format", "json"], "{\n")]:
        out.writes.clear()
        assert main(argv) == 0
        assert len(out.writes) == 1, argv
        assert out.writes[0].startswith(head), argv


def test_enumerate_json(capsys):
    assert main(["enumerate", "6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    items = json.loads(out)
    assert len(items) == 58
    assert items[0] == "[(6)]"
    assert out.count("\n") == 1  # single line
    assert main(["enumerate", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == N4_EXPECTED


def test_enumerate_rejects_zero(capsys):
    assert main(["enumerate", "0"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_analyze_text(tmp_path, capsys):
    path = write_matrix(tmp_path, WORKED_MATRIX_JSON)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert out == (
        "segre: [(3),(2,1),(2,1),(1)]\n"
        "eigenvalue 1:\n"
        "  rank pattern: n=10: 10,8,7\n"
        "  blocks: [2,1]\n"
        "eigenvalue 2:\n"
        "  rank pattern: n=10: 10,9,8,7\n"
        "  blocks: [3]\n"
        "eigenvalue 3:\n"
        "  rank pattern: n=10: 10,9\n"
        "  blocks: [1]\n"
        "eigenvalue 4:\n"
        "  rank pattern: n=10: 10,8,7\n"
        "  blocks: [2,1]\n")


def test_analyze_json(tmp_path, capsys):
    path = write_matrix(tmp_path,
                        {"rows": 2, "cols": 2, "entries": [["1/2", 1], [0, "1/2"]]})
    assert main(["analyze", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "segre": "[(2)]",
        "eigenvalues": [
            {"value": "1/2", "rank_pattern": [2, 1, 0], "blocks": [2]},
        ],
    }


def test_analyze_one_by_one(tmp_path, capsys):
    path = write_matrix(tmp_path, {"rows": 1, "cols": 1, "entries": [[7]]})
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "segre: [(1)]" in out
    assert "eigenvalue 7:" in out
    assert "rank pattern: n=1: 1,0" in out


def test_analyze_irrational(tmp_path, capsys):
    path = write_matrix(tmp_path, {"rows": 2, "cols": 2, "entries": [[0, 1], [2, 0]]})
    assert main(["analyze", path]) == 4
    err = capsys.readouterr().err
    assert "irrational" in err


def test_analyze_irrational_from_the_first_prime(tmp_path, capsys):
    # x^2 - 2 conjugated by I + c*e_01: the first prime already gives the
    # polynomial, unproven, and the proven one exits 4 with the same line
    c = 10 ** 10
    path = write_matrix(tmp_path, {"rows": 2, "cols": 2,
                                   "entries": [[c, 2 - c * c], [1, -c]]})
    assert main(["analyze", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: matrix has irrational or non-real eigenvalues "
        "(irreducible remainder of degree 2)\n")


def test_analyze_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(garbled)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    ragged = write_matrix(tmp_path,
                          {"rows": 2, "cols": 2, "entries": [[1, 2], [3]]},
                          "ragged.json")
    assert main(["analyze", ragged]) == 2
    capsys.readouterr()

    floaty = write_matrix(tmp_path,
                          {"rows": 1, "cols": 1, "entries": [[0.5]]},
                          "floaty.json")
    assert main(["analyze", floaty]) == 2
    capsys.readouterr()

    wide = write_matrix(tmp_path,
                        {"rows": 1, "cols": 2, "entries": [[1, 2]]},
                        "wide.json")
    assert main(["analyze", wide]) == 2
    assert "square" in capsys.readouterr().err


def test_analyze_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rows": 1, "cols": 1, "entries": [["\xe9"]]}')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1


def test_analyze_rejects_deeply_nested_json(tmp_path, capsys):
    # json.load recurses once per bracket and gives up long before 200,000
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert err.count("\n") == 1


def test_analyze_rejects_overlong_integer(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[' + "7" * 5000 + "]]}",
                    encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} holds an integer too long to read\n")


def test_analyze_rejects_overlong_fraction_entry(tmp_path):
    # the entry is in the grammar but has more digits than int() reads;
    # the error names its position and echoes only a prefix of it
    path = tmp_path / "huge.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [["' + "7" * 5000
                    + '/3"]]}', encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "segrekit", "analyze",
                           str(path)], env=env, capture_output=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: entry (0, 0) is too long to read")
    assert done.stderr.count(b"\n") == 1 and len(done.stderr) < 200


def test_analyze_writes_eigenvalues_past_the_digit_limit(tmp_path):
    # entries of 4,300 nines, as many digits as int() reads; the eigenvalue
    # 2a has 4,301, which str() of an int refuses
    a = "9" * 4300
    path = tmp_path / "big.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": [[%s, %s], [%s, %s]]}'
                    % (a, a, a, a), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = {}
    for form in ("text", "json"):
        done = subprocess.run([sys.executable, "-m", "segrekit", "analyze",
                               str(path), "--format", form], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        outputs[form] = done.stdout
    two_a = "1" + "9" * 4299 + "8"
    assert f"eigenvalue {two_a}:" in outputs["text"].splitlines()
    values = [e["value"] for e in json.loads(outputs["json"])["eigenvalues"]]
    assert values == ["0", two_a]


@pytest.mark.parametrize("argv, message", [
    (["count", "7" * 5000], "N: integer too long"),
    (["enumerate", "-" + "7" * 5000], "N: integer too long"),
    (["render", "2", "--columns", "7" * 5000], "--columns: integer too long"),
    (["render", "2", "--columns=" + "7" * 5000], "--columns: integer too long"),
    (["rankpattern", "n=3: 3,2," + "7" * 5000],
     "malformed rank pattern: integer too long"),
    (["rankpattern", "n=" + "7" * 5000 + ": 3"],
     "malformed rank pattern: integer too long"),
])
def test_overlong_integer_arguments(argv, message, capsys):
    # more digits than int() reads by default (sys.get_int_max_str_digits())
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# a token of 5,001 characters, not an integer, not a choice, not a command
LONG_TOKEN = "7" * 5000 + "x"


@pytest.mark.parametrize("argv, start", [
    (["count", LONG_TOKEN], "error: N: invalid integer '777"),
    (["count", "3", LONG_TOKEN], "error: unexpected argument '777"),
    ([LONG_TOKEN], "error: unknown command '777"),
    (["count", "3", "--method", LONG_TOKEN],
     "error: --method takes gf|sum|both, not '777"),
    (["count", "3", f"--{LONG_TOKEN}=1"], "error: unknown option '--777"),
    (["render", "3", "--columns", LONG_TOKEN],
     "error: --columns: invalid integer '777"),
    (["rankpattern", f"n=4:{LONG_TOKEN}"],
     "error: malformed rank pattern: 'n=4:777"),
])
def test_usage_errors_quote_a_long_token_in_part(argv, start, capsys):
    # the error line quotes the first 40 characters of the token it names
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(start) and "..." in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


def first_line_then_close(args, timeout, size=None, preexec_fn=None):
    """Run `python -m segrekit ARGS`, read one line of its stdout (or `size`
    bytes) and close the pipe; return what was read, the exit code and
    everything on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "segrekit", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, preexec_fn=preexec_fn)
    # a child that prints nothing would block readline forever
    deadline = threading.Timer(timeout, proc.kill)
    deadline.start()
    try:
        line = proc.stdout.readline() if size is None else proc.stdout.read(size)
        proc.stdout.close()
        code = proc.wait(timeout=timeout)
        err = proc.stderr.read()
    finally:
        deadline.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return line, code, err


def test_closed_stdout_pipe_ends_quietly():
    # 260 kB of output: far more than the pipe holds once the reader is gone
    assert first_line_then_close(["enumerate", "14"], 60) == (b"[(14)]\n", 0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["count", "5"], ["enumerate", "4"], ["render", "3"],
    ["rankpattern", "n=3: 3,1,0"], ["analyze", None]])
def test_failed_stdout_write_is_one_error_line(tmp_path, argv, unbuffered):
    # unbuffered, the command's own write fails; buffered, the flush in run()
    argv = [a or write_matrix(tmp_path, WORKED_MATRIX_JSON) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "segrekit", *argv],
                              env=env, stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=30)
    assert (done.returncode, done.stderr) == (
        5, "error: cannot write standard output: No space left on device\n")


def test_enumerate_streams_its_first_line():
    # 71,832,114 characteristics of weight 30: only a streaming enumeration
    # can print the first one at once
    assert first_line_then_close(["enumerate", "30"], 5) == (b"[(30)]\n", 0, b"")


def test_enumerate_json_streams_its_first_bytes():
    # the JSON list of weight 30 is written while it is enumerated
    head = b'["[(30)]", "[(29,1)]", "[(29),(1)]", "[(28,2)]", "[(28),(2)]", '
    out, code, err = first_line_then_close(
        ["enumerate", "30", "--format", "json"], 5, size=100)
    assert (out[:len(head)], len(out), code, err) == (head, 100, 0, b"")


def test_enumerate_json_is_json_dumps_of_the_list(capsys):
    for n in range(1, 11):
        assert main(["enumerate", str(n), "--format", "json"]) == 0
        want = json.dumps([format_segre(s) for s in iter_segre(n)]) + "\n"
        assert capsys.readouterr().out == want, n

# SHA-256 of `segre enumerate n --format F`: n = 10..13 copied from the
# benchmark's references in bench/expected.json, which an earlier
# enumeration recorded, and n = 16 and 17 recorded by the split walk that
# kept no table of completions
ENUMERATE_DIGESTS = {
    (10, "text"): "a5bcde8b410a9a62cee26171e3abde791810339a7ddb8ce8248efbcfbae7ba98",
    (10, "json"): "5a6e1ed273ce7b059ef79e95a706c14991641554b4e092e7e38d299745b1801b",
    (11, "text"): "b29e1296bcb23fe2db77ddcf9fe17d3f9259575c2768cac4a65008d293c47352",
    (11, "json"): "12a67f47198c8be63e39b43a8be7a105dc4d11eb6bc15b39ff7ebeb2bc1eecf1",
    (12, "text"): "baa272feab65a8ab7b68b05b00de31043e430342309a219de8f6f94d0dd03662",
    (12, "json"): "4c787001b6f527e869439d00b4e19e241864a7c1d980bcfb5913aa73c7ba8711",
    (13, "text"): "9f12c1dfb660690b0f68a194bb429d52329b7f8fc59b7b36175bc550245f01e0",
    (13, "json"): "4a998e7796e699052d2db584d44356fe61daba3af6a82a5f919a837c4494a4be",
    (16, "text"): "034bfdda4e9d413d6135faa59b44f7c1ac18a0905d43e11f571238be119d6cae",
    (16, "json"): "bf0612eb750a41345c4b05e47b18067122d29f86dd36e99f609776a40872a8e6",
    (17, "text"): "9fce750a8a744df2fac2fe5e3282305a60ec720082e54d23314dab2d419691cc",
    (17, "json"): "1e4e135c3872a32dfcd9bc6aa43971c8a7b29db027ec7df0f7abf8ce83ce58da",
}


def test_enumerate_output_matches_goldens():
    # unbuffered, every batch of the writer is a write of its own
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    for (n, fmt), digest in ENUMERATE_DIGESTS.items():
        argv = ["enumerate", str(n), "--format", fmt]
        done = subprocess.run([sys.executable, "-m", "segrekit", *argv],
                              env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, b""), argv
        assert hashlib.sha256(done.stdout).hexdigest() == digest, argv


def test_analyze_rejects_entry_strings_outside_the_grammar(tmp_path, capsys):
    # Fraction would read "1e2000" as a 2001-digit integer
    for text in ("2.5e1", "1e2000", " 3", "\u0663"):
        path = write_matrix(tmp_path, {"rows": 1, "cols": 1, "entries": [[text]]})
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry (0, 0)") and err.count("\n") == 1
    # rank patterns follow the same ASCII-digit grammar
    assert main(["rankpattern", "n=\u0663: \u0663,\u0660"]) == 2
    assert "malformed" in capsys.readouterr().err


def test_render_svg_to_file(tmp_path, capsys):
    out_path = tmp_path / "grids.svg"
    assert main(["render", "4", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    svg = out_path.read_text(encoding="utf-8")
    assert svg.count('<g class="grid"') == 14
    assert svg.startswith('<?xml version="1.0"')


def test_render_svg_to_stdout(capsys):
    assert main(["render", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count('<g class="grid"') == 3
    assert out.endswith("</svg>\n")


def test_render_ascii(capsys):
    assert main(["render", "1", "--format", "ascii"]) == 0
    assert capsys.readouterr().out == "[(1)]\na\n"
    assert main(["render", "2", "--format", "ascii"]) == 0
    assert capsys.readouterr().out == ("[(2)]\n"
                                       "a1\n"
                                       ".a\n"
                                       "\n"
                                       "[(1,1)]\n"
                                       "a.\n"
                                       ".a\n"
                                       "\n"
                                       "[(1),(1)]\n"
                                       "a.\n"
                                       ".b\n")


def test_render_errors(tmp_path, capsys):
    assert main(["render", "0"]) == 2
    capsys.readouterr()
    assert main(["render", "2", "--columns", "0"]) == 2
    capsys.readouterr()
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.svg"
    assert main(["render", "2", "--out", str(missing_dir)]) == 5
    assert "cannot write" in capsys.readouterr().err


def test_render_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", "3", "--out", str(a)]) == 0
    assert main(["render", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of `segre render n --format F --columns C` as printed by the
# renderer that built the whole document in memory before writing it
RENDER_DIGESTS = {
    (1, "svg", 1): "49dd8349627bdd18946573b3ae50b81be4e160039177a0929ddf44536761b9bb",
    (1, "svg", 4): "49dd8349627bdd18946573b3ae50b81be4e160039177a0929ddf44536761b9bb",
    (1, "ascii", 1): "496c689fcf0e40a9731f69322f0019080505284a965a59f673c6a9c91a53f089",
    (1, "ascii", 4): "496c689fcf0e40a9731f69322f0019080505284a965a59f673c6a9c91a53f089",
    (2, "svg", 1): "5d082f6106097d3e8b45faa0b2b75617b880ceedbc330412bd95d91c5929022f",
    (2, "svg", 4): "3cad2cb5b390e2bb5626267865e983d8d1ac3587b05cf5a1d38c7cfe4c71f3c6",
    (2, "ascii", 1): "620d00ddd402a3b29fe8308cc5a1beaae1feaf674db07de43fa084cfba6a3e98",
    (2, "ascii", 4): "620d00ddd402a3b29fe8308cc5a1beaae1feaf674db07de43fa084cfba6a3e98",
    (3, "svg", 1): "34c5551a5053044a56d8a541cbdd0351ec04d9e4d3eccc21cc009349cdfc81e9",
    (3, "svg", 4): "ee821ae8e524b1e27ae0d645b7947b24a5427f01db07c7f8acfe262bbe0e4c2c",
    (3, "ascii", 1): "eb785897479bd44f440c350a77cc8ca4f96e4ff08c3be63a02cbb82d6d38f7ac",
    (3, "ascii", 4): "eb785897479bd44f440c350a77cc8ca4f96e4ff08c3be63a02cbb82d6d38f7ac",
    (4, "svg", 1): "a504fb32521b1da50b82bdd7319537d4fd395a990842dfa611041aaed45a8481",
    (4, "svg", 4): "0c6b1ae559d0e53895cb76d1c09bbe5f124f4af05ec731e577f66c6999caf636",
    (4, "ascii", 1): "9b130dfb950647a5c9c7bce3024a0e588470c7f5a844cf4559fd20136e8845bb",
    (4, "ascii", 4): "9b130dfb950647a5c9c7bce3024a0e588470c7f5a844cf4559fd20136e8845bb",
    (5, "svg", 1): "28eaaf8addb71b58e275689bfad4218b02d4cfee3ff6cda0e625eb6babe29443",
    (5, "svg", 4): "0c81daac3cec9ea513c3ce16a7dd84af2288ff4561b49a0d32d448dfa63a7404",
    (5, "ascii", 1): "aa65dcec05c94b4807af69efb2bc62894d28f76efd66ae8b7d8712f865e7f763",
    (5, "ascii", 4): "aa65dcec05c94b4807af69efb2bc62894d28f76efd66ae8b7d8712f865e7f763",
    (6, "svg", 1): "91b43c0f1f2203aefd1f5ceb040b8151e983faa9f9aa65afdaeff33e653385d6",
    (6, "svg", 4): "637b52439b2b41a5e152c88eaca1c368126e5129621b6fd671e404feae2a801c",
    (6, "ascii", 1): "5f544a35eeba74089216c5374efe066e28387ee4f801d2d941ca171c4fe2597d",
    (6, "ascii", 4): "5f544a35eeba74089216c5374efe066e28387ee4f801d2d941ca171c4fe2597d",
    (7, "svg", 1): "06a2d1bd9f83b5093870f239f3b87f32afae3b18f10e5a5645eae0bbe6bdcb09",
    (7, "svg", 4): "977c6f35aac5cd4d066e8769a158be1f375068cfe277c67a6eee11b2ac04a4a8",
    (7, "ascii", 1): "eb0c1d50e48f21572d419ce5a11ac3f650ac75d3fdbedb2539a8c8d4a29c9dcc",
    (7, "ascii", 4): "eb0c1d50e48f21572d419ce5a11ac3f650ac75d3fdbedb2539a8c8d4a29c9dcc",
    (8, "svg", 1): "391fb51a8e87e8634a992877512cb826317d8ffb8738327239562702b480c1ab",
    (8, "svg", 4): "c58a4d05f657353c41650c0b608d111aa40c03b85c634674764a3f6b3afe0455",
    (8, "ascii", 1): "795b7821e7dca753205799c4bd463f6210c86a0e53642163c5bae0dbdf8a2c9d",
    (8, "ascii", 4): "795b7821e7dca753205799c4bd463f6210c86a0e53642163c5bae0dbdf8a2c9d",
    (9, "svg", 1): "468adb48e81849b229a5740a3cb5b9229a1ed9ea0a499f484f98341ac56b24cc",
    (9, "svg", 4): "49e8c06bedddbc9fb7e9db6e0b041e2b4a62974bf1e0ffb84ebc294540c63d36",
    (9, "ascii", 1): "a7cc7e6e61c80bfac31d22029cdeb8b0e266cb4784237985dae5a8920eef63e3",
    (9, "ascii", 4): "a7cc7e6e61c80bfac31d22029cdeb8b0e266cb4784237985dae5a8920eef63e3",
}
RENDER_12_DIGEST = "267a3d7b6031d2af29c3fcab674436ffe88e474b6c593175f4ceae98d8faa125"


def test_render_output_matches_goldens(tmp_path):
    out_path = tmp_path / "out"
    for (n, fmt, columns), digest in RENDER_DIGESTS.items():
        argv = ["render", str(n), "--format", fmt, "--columns", str(columns)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv
        assert main(argv + ["--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, argv


def test_render_streams_its_first_line():
    # 71,832,114 grids of 30 x 30 cells: only a streaming render can print
    # the first line at once, and a closed pipe must still end it quietly
    assert first_line_then_close(["render", "30"], 5) == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n', 0, b"")
    assert first_line_then_close(["render", "30", "--format", "ascii"], 5) == (
        b"[(30)]\n", 0, b"")


def test_render_runs_in_bounded_memory():
    # render 12 writes 40 MB of SVG; built in memory first, its grids and
    # text need more than the 100 MB of address space allowed here
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "segrekit", "render", "12"],
                          env=env, capture_output=True, timeout=120,
                          preexec_fn=limit_address_space)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == RENDER_12_DIGEST


def test_render_1000_streams_one_row_at_a_time():
    # the first SVG grid of render 1000 is 101 MB; built whole it does not
    # fit in the 200 MB of address space allowed here, one of its rows does
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))

    head, code, err = first_line_then_close(
        ["render", "1000"], 60, size=50_000_000,
        preexec_fn=limit_address_space)
    assert (len(head), code, err) == (50_000_000, 0, b"")
    assert head.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n')


# what each command loads: the segrekit modules besides the package and
# cli, and which of the stdlib modules in WATCHED
LIBRARY = {"partitions", "segre", "rank_analysis", "linalg", "jordan"}
FOOTPRINTS = [
    (["count", "5"], {"partitions", "segre"}, set()),
    (["count", "5", "--method", "both"], {"partitions", "segre"}, set()),
    (["enumerate", "4"], {"partitions", "segre"}, set()),
    (["enumerate", "4", "--format", "json"], {"partitions", "segre"}, set()),
    (["render", "3"], {"partitions", "segre", "render"}, set()),
    (["render", "3", "--format", "ascii"], {"partitions", "segre", "render"},
     set()),
    (["rankpattern", "n=3: 3,1,0"], {"partitions", "rank_analysis"}, set()),
    (["analyze", "MATRIX"], LIBRARY, {"fractions", "json"}),
    (["analyze", "MATRIX", "--format", "json"], LIBRARY, {"fractions", "json"}),
]
WATCHED = {"fractions", "json", "dataclasses", "inspect", "argparse",
           "gettext", "locale"}


def test_cli_import_skips_dataclasses_and_inspect(tmp_path):
    # a process compiles only the modules its command runs; -S keeps the
    # .pth files of site-packages from importing stdlib modules first
    matrix = write_matrix(tmp_path, WORKED_MATRIX_JSON)
    code = ("import runpy, sys\n"
            "sys.path.insert(0, sys.argv.pop(1))\n"
            "try:\n"
            "    runpy.run_module('segrekit', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "loaded = sorted(sys.modules)\n"
            "print(code, *loaded)\n")
    for argv, modules, stdlib in FOOTPRINTS:
        argv = [matrix if a == "MATRIX" else a for a in argv]
        done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *argv],
                              capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, ""), argv
        exit_code, *loaded = done.stdout.splitlines()[-1].split()
        assert exit_code == "0", argv
        assert {m for m in loaded if m.startswith("segrekit")} == {
            "segrekit", "segrekit.cli", *(f"segrekit.{m}" for m in modules)}, argv
        assert WATCHED.intersection(loaded) == stdlib, argv


def test_weight_is_capped():
    # count_segre_gf allocates n + 1 integers before any work, and the SVG
    # header of render needs that count too
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["count", "999999999999"], ["count", "10001", "--method", "sum"],
                 ["render", "999999999999"], ["render", "10001", "--format", "ascii"]):
        done = subprocess.run([sys.executable, "-m", "segrekit", *argv],
                              env=env, capture_output=True, text=True, timeout=5)
        assert done.returncode == 2, argv
        assert done.stdout == "" and "Traceback" not in done.stderr, argv
        assert done.stderr == "error: n exceeds the limit of 10000\n", argv


def test_rankpattern(capsys):
    assert main(["rankpattern", "n=10: 10,7,5,3,2,1,0"]) == 0
    assert capsys.readouterr().out == ("growth: [3,2,2,1,1,1]\n"
                                       "blocks: [6,3,1]\n")
    assert main(["rankpattern", "n=1: 1,0"]) == 0
    assert capsys.readouterr().out == "growth: [1]\nblocks: [1]\n"


def test_rankpattern_errors(capsys):
    assert main(["rankpattern", "10,7,5"]) == 2
    assert "malformed" in capsys.readouterr().err
    assert main(["rankpattern", "n=5: 5,3,2,0"]) == 6
    err = capsys.readouterr().err
    assert "error:" in err


def test_rankpattern_dimension_is_capped():
    # the conjugate of a growth sequence with a 10^12 entry once asked for a
    # 10^12-element list and died with a MemoryError traceback
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "segrekit", "rankpattern",
         "n=999999999999: 999999999999,0"],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_rankpattern_at_the_dimension_cap(capsys):
    assert main(["rankpattern", "n=1000000: 1000000,999999,999998"]) == 0
    assert capsys.readouterr().out == ("growth: [1,1]\n"
                                       "blocks: [2]\n")
    assert main(["rankpattern", "n=1000001: 1000001,1000000"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


USAGE_ERRORS = [
    [],  # no command
    ["frobnicate", "4"],  # an unknown command
    ["count"],  # a missing positional
    ["rankpattern", "--format", "text"],
    ["count", "4", "5"],  # an extra positional
    ["analyze", "a.json", "b.json"],
    ["render", "4", "--bogus", "1"],  # an unknown option
    ["count", "4", "--format", "json"],  # an option of another command
    ["count", "4", "--method"],  # a missing option value
    ["render", "4", "--out", "-x"],
    ["count", "4", "--method", "nope"],  # a bad choice
    ["enumerate", "4", "--format=yaml"],
    ["count", "x"],  # an invalid integer
    ["render", "4", "--columns", "\u0663"],
]


def test_usage_and_help(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    for argv in (["--help"], ["-h"], ["count", "--help"], ["count", "4", "-h"]):
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: segre ") and err == "", argv
        assert ("--method gf|sum|both" in out) and (
            ("rankpattern" in out) == (argv[0] != "count")), argv


def test_help_names_every_option_and_choice(capsys):
    # the usage is written by hand; the table is what parse_args reads
    for command, (_, (positional, _), options, _) in cli.COMMANDS.items():
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: segre {command} {positional.upper()}")
        for option, (kind, _) in options.items():
            assert option in out, (command, option)
            assert not isinstance(kind, tuple) or "|".join(kind) in out


# argv drawn from the commands, their options (and two that no command
# has), good and bad values, with the positional given zero to two times
# and each option as `--name value`, `--name=value` or `--name` alone.  No
# token is an abbreviation of an option or `--`, the documented differences
# from argparse that test_documented_differences_from_argparse lists.
COMMAND_NAMES = ["count", "enumerate", "analyze", "render", "rankpattern"]
OPTION_NAMES = ["--method", "--format", "--out", "--columns", "--bogus", "-x"]
ARGV_VALUES = ["4", "1", "0", "-1", "-0", "007", "\u0663", " 4", "1e3", "x",
               "", "-", "-x", "-n 3", "--method", "gf", "sum", "both", "nope",
               "text", "json", "svg", "ascii", "m.json", "n=3: 3,1,0"]


@st.composite
def command_lines(draw):
    values = st.sampled_from(ARGV_VALUES)
    pieces = [[draw(values)] for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 3))):
        option, value = draw(st.sampled_from(OPTION_NAMES)), draw(values)
        pieces.append(draw(st.sampled_from(
            [[option, value], [f"{option}={value}"], [option]])))
    pieces = draw(st.permutations(pieces))
    command = draw(st.sampled_from(COMMAND_NAMES))
    return [command, *(token for piece in pieces for token in piece)]


@settings(max_examples=500, deadline=None)
@example(argv=["count", "4", "--method", "both", "--method=sum"])
@example(argv=["render", "2", "--out", "- x", "--columns", "-3"])
@example(argv=["rankpattern", "--bogus=n=3: 3,1,0"])
@given(argv=st.one_of(
    command_lines(),
    # a command missing, misplaced or repeated
    st.lists(st.sampled_from(COMMAND_NAMES + OPTION_NAMES + ARGV_VALUES),
             max_size=5)))
def test_parser_matches_argparse(argv):
    expected = oracles.argparse_args(argv)
    try:
        handler, args = cli.parse_args(argv)
    except ValueError:
        assert expected is None, argv
    else:
        assert expected is not None, argv
        assert vars(args) == vars(expected), argv
        assert handler is cli.COMMANDS[args.command][0]


@pytest.mark.parametrize("argv", [
    # unique prefixes of an option name
    ["count", "4", "--meth", "both"],
    ["render", "4", "--col=2"],
    # the separator that ends the options
    ["count", "--", "4"],
    ["rankpattern", "--", "--x"],
    # a negative number that is not an ASCII integer, which argparse read
    # as a value
    ["analyze", "-1.5"],
])
def test_documented_differences_from_argparse(argv, capsys):
    assert oracles.argparse_args(argv) is not None
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unknown option '-")


# ---------------------------------------------------------------------------
# Fuzzing: whatever the input, main returns an exit code from the README
# table and never lets an exception escape.  Matrices stay within 4x4 and
# entries within |p| <= 100, q <= 2, which keeps the rational root search
# fast.

README_EXIT_CODES = {0, 2, 3, 4, 5, 6}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run_main(argv)
    assert code in README_EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.endswith("\n"), (argv, err)
        assert err.count("\n") == 1, (argv, err)


good_entries = st.one_of(
    st.integers(-100, 100),
    st.builds("{}/{}".format, st.integers(-100, 100), st.integers(1, 2)))
bad_entries = st.one_of(
    st.sampled_from(["1/0", "2.5", "2.5e1", "1e2000", " 1", "+1", "1/-2",
                     "\u0661", "1_0", "", "-", "nan", "inf"]),
    st.text(alphabet=st.characters(blacklist_characters="0123456789"),
            max_size=4),
    st.floats(), st.booleans(), st.none(), st.lists(st.integers(-3, 3), max_size=2),
)


@st.composite
def matrix_files(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 4)))
    grid = draw(st.lists(st.lists(good_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = (
            draw(bad_entries))
    if draw(st.booleans()):
        del grid[-1][draw(st.integers(0, cols - 1))]
    doc = {"rows": rows, "cols": cols, "entries": grid}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["rows", "cols", "entries", "extra"]))
        doc[key] = draw(st.one_of(st.integers(-1, 5), bad_entries, st.just([])))
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc).encode()
    return draw(st.one_of(
        st.just(text),
        st.builds(lambda k: text[:k], st.integers(0, len(text))),
        st.binary(max_size=40),
        st.text(max_size=30).map(str.encode),
        # nested brackets, closed or not, shallow or past the recursion limit
        st.builds(lambda depth, closed: b"[" * depth + b"]" * (depth * closed),
                  st.sampled_from([1, 2, 50, 5_000, 200_000]), st.booleans()),
    ))


@settings(max_examples=150, deadline=None)
@given(content=matrix_files(), fmt=st.sampled_from(["text", "json"]))
def test_fuzz_analyze_matrix_files(tmp_path_factory, content, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_bytes(content)
    assert_clean_exit(["analyze", str(path), "--format", fmt])


rank_pattern_texts = st.one_of(
    st.text(max_size=12),
    st.builds(lambda head, n, sep, ranks: f"{head}{n}:{sep.join(map(str, ranks))}",
              st.sampled_from(["n=", " n = ", "n", "m=", ""]),
              st.integers(-2, 30), st.sampled_from([",", ", ", ";", " "]),
              st.lists(st.integers(-2, 32), max_size=8)),
)


@settings(max_examples=150, deadline=None)
@given(rank_pattern_texts)
def test_fuzz_rankpattern_strings(text):
    assert_clean_exit(["rankpattern", text])


@st.composite
def characteristic_texts(draw):
    groups = draw(st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=3))
    text = "[" + ",".join("(" + ",".join(map(str, g)) + ")" for g in groups) + "]"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from("()[],0123 -")) + text[at:]
    return text


# integer arguments: padding, signs, underscores, exponents and non-ASCII
# digits around at most two digits 0 or 1, so that even a converter that let
# them through would ask for n <= 11
integer_texts = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", " ", "\t", "+", "-", "0", "\u0660"]),
    st.sampled_from(["0", "1", "\u0660", "\u0661", "\u0967", "\uff11",
                     "\U0001d7cf", "\u00b9", "x"]),
    st.sampled_from(["", "_1", "\u0661", "1", "1_"]),
    st.sampled_from(["", " ", "\n", "e1", ".0"]),
)


@settings(max_examples=150, deadline=None)
@given(text=integer_texts,
       argv=st.sampled_from([["count", "{}"], ["count", "{}", "--method", "both"],
                             ["enumerate", "{}"], ["render", "{}"],
                             ["render", "1", "--columns", "{}"]]))
def test_fuzz_integer_arguments(text, argv):
    argv = [a.format(text) for a in argv]
    code, err = run_main(argv)
    assert "Traceback" not in err
    ascii_integer = re.fullmatch(r"-?[0-9]+", text)
    minimum = 0 if argv[0] == "count" else 1
    assert code == (0 if ascii_integer and int(text) >= minimum else 2), (
        argv, code, err)


@settings(max_examples=150, deadline=None)
@given(text=characteristic_texts(),
       command=st.sampled_from(["count", "enumerate", "render", "rankpattern"]))
def test_fuzz_characteristic_strings_as_arguments(text, command):
    try:
        int(text)
    except ValueError:
        pass
    else:
        assume(False)  # a plain number is a valid size, not malformed input
    assert_clean_exit([command, text])
