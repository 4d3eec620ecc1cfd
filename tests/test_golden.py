"""Golden outputs: the byte contract of the command line as one test.

A few small runs of ``decompose``, ``counterexample``, ``norms`` and
``audit`` go through ``cli.main`` in-process, together with the sequence
directories and grid files they read.  Their file names, sha256 digests of
files, stdout and stderr, and exit codes must equal those in
``tests/golden.json``.  After a change that is meant to alter
an output, rewrite the manifest with

    PYTHONPATH=src python3 tests/test_golden.py

and say in CHANGES.md which digest changed and why.  A numpy release that
changes a sum order fails this test too; the message then names both the
recorded and the running numpy version.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from bvlorentz.cli import main
from bvlorentz.corpus import corpus_grids
from bvlorentz.grid import save_grid
from bvlorentz.profiles import save_sequence, staircase_sequence, two_profile_sequence

MANIFEST = Path(__file__).with_name("golden.json")


def _runs(root: Path) -> dict:
    """Run each case in its own directory under ``root``; per case, its exit
    code and the sha256 of its stdout, its stderr and every file in that
    directory, inputs included."""
    cases = {}
    for name, seq, epsilon in (
        ("decompose-planted-l3", two_profile_sequence(range(1, 9), level=3), "0.1"),
        ("decompose-staircase-456", staircase_sequence((4, 5, 6)), "12"),
    ):
        d = root / name
        save_sequence(str(d / "seq"), seq)
        cases[name] = ["decompose", "--input", str(d / "seq"), "--epsilon", epsilon,
                       "--out-dir", str(d / "out")]
    for dim, n_max, quad_level in ((2, 6, 5), (3, 4, 3)):
        d = root / f"counterexample-{dim}d"
        cases[d.name] = ["counterexample", "--dim", str(dim), "--n-max", str(n_max),
                         "--quad-level", str(quad_level), "--out-dir", str(d)]
    for dim in (2, 3):
        d = root / f"norms-{dim}d"
        d.mkdir()
        save_grid(corpus_grids(7, dim, 4)[3], d / "u.grid")
        cases[d.name] = ["norms", "--input", str(d / "u.grid"), "--out", str(d / "norms.json")]
    for negative in ("none", "broken-chi"):  # the document goes to stdout
        cases[f"audit-{negative}"] = ["audit", "--seed", "7", "--dims", "1,2,3", "--count", "5",
                                      "--negative-control", negative]
    runs = {}
    for name, argv in cases.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = sorted(p for p in (root / name).rglob("*") if p.is_file())
        runs[name] = {
            "exit": code,
            **{stream: hashlib.sha256(text.getvalue().encode()).hexdigest()
               for stream, text in (("stdout", out), ("stderr", err))},
            "files": {str(p.relative_to(root / name)): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files},
        }
    return runs


def test_outputs_match_the_golden_manifest(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    got = _runs(tmp_path)
    versions = f"recorded under numpy {golden['numpy']}, running numpy {np.__version__}"
    assert sorted(got) == sorted(golden["runs"])
    for name, want in golden["runs"].items():
        have = got[name]
        assert have["exit"] == want["exit"], (
            f"{name}: exit {have['exit']}, recorded {want['exit']} ({versions})")
        for stream in ("stdout", "stderr"):
            assert have[stream] == want[stream], (
                f"{name}: {stream} sha256 {have[stream]}, recorded {want[stream]} ({versions})")
        assert sorted(have["files"]) == sorted(want["files"]), (
            f"{name}: files {sorted(have['files'])}, recorded {sorted(want['files'])} ({versions})")
        for fname, digest in want["files"].items():
            assert have["files"][fname] == digest, (
                f"{name}/{fname}: sha256 {have['files'][fname]}, recorded {digest} ({versions})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = _runs(Path(tmp))
    doc = {"numpy": np.__version__, "runs": runs}
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {sum(len(r['files']) for r in runs.values())} files in {len(runs)} runs",
          file=sys.stderr)
