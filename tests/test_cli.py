import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from segrekit.cli import main

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


def test_analyze_rejects_overlong_integer(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[' + "7" * 5000 + "]]}",
                    encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too long" in err
    assert err.count("\n") == 1


def first_line_then_close(args, timeout):
    """Run `python -m segrekit ARGS`, read one line of its stdout and close
    the pipe; return that line, the exit code and everything on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "segrekit", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=timeout)
        err = proc.stderr.read()
    finally:
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
