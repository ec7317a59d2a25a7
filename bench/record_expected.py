"""Record SHA-256 digests of the seed-independent cli outputs.

    python3 bench/record_expected.py

Runs `python -m segrekit enumerate n` (n = 10..15, text and json) and
`render n` (n = 6..8, svg and ascii) from src/ and writes their digests,
with the git commit and Python version they came from, to
bench/expected.json.  The cli workload compares each child's stdout with
these digests, so run this only on a commit whose output is known good.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    keys = [f"enumerate {n} {fmt}" for n in range(10, 16) for fmt in ("text", "json")]
    keys += [f"render {n} {fmt}" for n in range(6, 9) for fmt in ("svg", "ascii")]
    digests = {}
    for key in keys:
        cmd, n, fmt = key.split()
        out = subprocess.run([sys.executable, "-m", "segrekit", cmd, n, "--format", fmt],
                             cwd=ROOT, env=env, capture_output=True, check=True).stdout
        digests[key] = hashlib.sha256(out).hexdigest()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    record = {"commit": commit, "python": platform.python_version(),
              "sha256": digests}
    (BENCH / "expected.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
