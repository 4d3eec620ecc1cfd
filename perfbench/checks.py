"""Output oracle: what each op must have produced.

Every op is checked against its expected exit code and against the verdicts
the command writes itself.  ``norms`` also gets an identity recomputed
independently of the program: at the critical exponent p the Lorentz norm
with q = p is the L^p norm, and L^p is recomputed with plain numpy from the
generated array during set-up.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import Op

IDENTITY_TOL = 1e-10
# the oracle keeps its own copy of the probe window, so a program change to
# its tolerance cannot loosen the check
PROBE_FIT_TARGET = -1.0
PROBE_FIT_TOL = 0.2

# "relative L1 gap 0.8869 exceeds 0.05" in the refusal message
_REFUSAL = re.compile(r"gap\s+([0-9][0-9.eE+-]*)\s+exceeds\s+([0-9][0-9.eE+-]*)")


def digests(out: str) -> dict:
    """sha256 of every file the op wrote, by path relative to its directory."""
    root = Path(out)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _audit(op: Op, out: Path, stderr: str) -> list[str]:
    doc = json.loads((out / "audit.json").read_text())
    failed = sorted(name for name, suite in doc["suites"].items() if not suite["ok"])
    problems = []
    if failed != op.expect["failed_suites"]:
        problems.append(f"failed suites {failed}, expected {op.expect['failed_suites']}")
    if doc["ok"] != (not op.expect["failed_suites"]):
        problems.append(f"ok is {doc['ok']}")
    return problems


def _decompose(op: Op, out: Path, stderr: str) -> list[str]:
    if op.expect.get("refused"):
        m = _REFUSAL.search(stderr)
        if m is None:
            return [f"no refusal gap in stderr: {stderr.strip()[:200]!r}"]
        gap, tol = float(m.group(1)), float(m.group(2))
        problems = []
        if tol != op.expect["cauchy_tol"]:
            problems.append(f"refusal tolerance {tol}, expected {op.expect['cauchy_tol']}")
        if not gap > tol:
            problems.append(f"refusal gap {gap} not above tolerance {tol}")
        return problems
    audits = json.loads((out / "audits.json").read_text())
    decomp = json.loads((out / "decomposition.json").read_text())
    problems = []
    if audits["ok"] is not True:
        problems.append("audits ok is not true")
    if len(decomp["profiles"]) != op.expect["profiles"]:
        problems.append(f"{len(decomp['profiles'])} profiles, expected {op.expect['profiles']}")
    if decomp["terminated_by"] != op.expect["terminated_by"]:
        problems.append(f"terminated by {decomp['terminated_by']}, expected {op.expect['terminated_by']}")
    return problems


def _norms(op: Op, out: Path, stderr: str) -> list[str]:
    doc = json.loads((out / "norms.json").read_text())
    key, q_key = op.expect["identity"]
    problems = []
    if doc["cells"] != op.expect["cells"]:
        problems.append(f"cells {doc['cells']}, expected {op.expect['cells']}")
    lebesgue = doc["lebesgue"][key]
    lorentz = doc["lorentz_critical"][q_key]
    if not _rel_close(lorentz, lebesgue, IDENTITY_TOL):
        problems.append(f"lorentz {q_key} = {lorentz!r} but lebesgue {key} = {lebesgue!r}")
    if not _rel_close(lebesgue, op.expect["lebesgue"], IDENTITY_TOL):
        problems.append(f"lebesgue {key} = {lebesgue!r}, numpy gives {op.expect['lebesgue']!r}")
    return problems


def _counterexample(op: Op, out: Path, stderr: str) -> list[str]:
    report = json.loads((out / "counterexample.json").read_text())
    probe = json.loads((out / "probe.json").read_text())
    problems = []
    if report["ok"] is not True:
        bad = sorted(k for k, v in report["invariants"].items() if not v["ok"])
        problems.append(f"invariants failed: {bad}")
    fit = probe["fit_exponent"]
    if not abs(fit - PROBE_FIT_TARGET) <= PROBE_FIT_TOL:
        problems.append(f"probe fit {fit!r} outside {PROBE_FIT_TARGET} +/- {PROBE_FIT_TOL}")
    for name in ("counterexample.csv", "counterexample.plt"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    return problems


_BY_COMMAND = {
    "audit": _audit,
    "decompose": _decompose,
    "norms": _norms,
    "counterexample": _counterexample,
}


def check(op: Op, rc: int, stderr: str) -> list[str]:
    """Problems with one finished op; an empty list means it passed."""
    if rc != op.expect["exit"]:
        return [f"exit {rc}, expected {op.expect['exit']}: {stderr.strip()[:200]!r}"]
    try:
        return _BY_COMMAND[op.argv[0]](op, Path(op.out), stderr)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]
