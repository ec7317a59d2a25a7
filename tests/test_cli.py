import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_closed_stdout_pipe_ends_quietly():
    # 260 kB of output: far more than the pipe holds once the reader is gone
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "segrekit", "enumerate", "14"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        assert proc.stdout.readline() == b"[(14)]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


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


def test_usage_and_help(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "count" in capsys.readouterr().out
