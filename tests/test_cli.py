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
from hypothesis import assume, given, settings, strategies as st

from segrekit.cli import main
from segrekit.segre import format_segre, iter_segre

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


def test_enumerate_text_writes_each_line_once(monkeypatch):
    # one write per line: with stdout unbuffered, each write is a system call
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "4"]) == 0
    assert out.writes == [line + "\n" for line in N4_EXPECTED + ["total: 14"]]


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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too long" in err
    assert err.count("\n") == 1


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


def test_cli_import_skips_dataclasses_and_inspect():
    # the two cost about 10 ms of every segre process; -S keeps the .pth
    # files of site-packages from importing them first
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import segrekit.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False False\n"


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


def test_usage_and_help(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "count" in capsys.readouterr().out


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
        assert err, argv


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
