"""Command line interface: exit codes, config precedence, determinism."""
import json
from pathlib import Path

import pytest

from bvlorentz.cli import main
from bvlorentz.grid import save_grid
from bvlorentz.profiles import save_sequence, two_profile_sequence


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture()
def saved_grid(tmp_path, checker2d):
    p = tmp_path / "u.grid"
    save_grid(checker2d, p)
    return p


# -- norms -------------------------------------------------------------------

def test_norms_writes_table(tmp_path, saved_grid):
    out = tmp_path / "norms.json"
    rc = main(["norms", "--input", str(saved_grid), "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["schema_version"] == 1
    assert doc["dim"] == 2 and doc["cells"] == 16
    assert doc["critical_exponent"] == 2.0
    assert set(doc["lorentz_critical"]) == {"q1", "q1.5", "q2", "qinf"}
    assert doc["lebesgue"]["p2"] == pytest.approx(doc["lorentz_critical"]["q2"], rel=1e-12)
    assert doc["tv"] > 0


def test_norms_stdout_default(saved_grid, capsys):
    rc = main(["norms", "--input", str(saved_grid), "--q-list", "1,2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["lorentz_critical"]) == {"q1", "q2"}


def test_norms_missing_input_is_usage_error(capsys):
    assert main(["norms"]) == 2
    assert "required" in capsys.readouterr().err


def test_norms_missing_file(tmp_path, capsys):
    assert main(["norms", "--input", str(tmp_path / "nope.grid")]) == 2


def test_threads_flag_accepted(saved_grid, capsys):
    rc = main(["norms", "--input", str(saved_grid), "--threads", "8"])
    assert rc == 0
    capsys.readouterr()


# -- config precedence ---------------------------------------------------------

def test_flags_override_config_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 3, "quad_level": 5, "probe": False}))
    d1 = tmp_path / "a"
    rc = main(
        ["counterexample", "--config", str(cfg), "--n-max", "5", "--out-dir", str(d1)]
    )
    assert rc == 0
    doc = _read(d1 / "counterexample.json")
    assert len(doc["rows"]) == 5  # flag wins over config's 3 (and default 12)
    assert not (d1 / "probe.json").exists()  # config's probe=False kept
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 3}))
    rc = main(["counterexample", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["counterexample", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


# -- counterexample --------------------------------------------------------------

def test_counterexample_outputs_and_determinism(tmp_path, capsys):
    args = ["counterexample", "--n-max", "8", "--quad-level", "6"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    for name in ("counterexample.csv", "counterexample.json", "counterexample.plt", "probe.json"):
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between runs"
    doc = _read(d1 / "counterexample.json")
    assert doc["ok"] is True
    probe = _read(d1 / "probe.json")
    assert abs(probe["fit_exponent"] + 1.0) <= 0.2
    plt = (d1 / "counterexample.plt").read_text()
    assert "set logscale xy" in plt


# -- decompose --------------------------------------------------------------------

def test_decompose_roundtrip_and_audits(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 9), level=5))
    out1 = tmp_path / "d1"
    rc = main(
        ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out1)]
    )
    assert rc == 0
    assert "2 profiles" in capsys.readouterr().out
    doc = _read(out1 / "decomposition.json")
    assert doc["terminated_by"] == "epsilon"
    assert len(doc["profiles"]) == 2
    audits = _read(out1 / "audits.json")
    assert audits["ok"] is True
    assert audits["energy"]["ok"] and audits["separation"]["ok"]
    assert all(
        row["q2"] == 0.0 for row in audits["remainder_lorentz_critical"]
    )

    # byte-identical rerun
    out2 = tmp_path / "d2"
    assert (
        main(["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out2)])
        == 0
    )
    capsys.readouterr()
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_decompose_cauchy_failure_exit_one(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 5), level=5))
    rc = main(
        ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "not Cauchy" in capsys.readouterr().err


def test_decompose_window_guard_is_usage_error(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 9), level=3))
    argv = ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(tmp_path / "o")]
    assert main(argv + ["--profile-level", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: window of radius 4 at level 9 needs 16777216 cells")
    assert err.count("\n") == 1


def test_decompose_requires_epsilon(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 4), level=4))
    assert main(["decompose", "--input", str(seq_dir)]) == 2
    assert "epsilon" in capsys.readouterr().err


# -- audit ------------------------------------------------------------------------

def test_audit_green(tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = main(["audit", "--count", "8", "--out", str(out)])
    assert rc == 0
    assert "suites ok" in capsys.readouterr().out
    doc = _read(out)
    assert doc["ok"] is True
    assert set(doc["suites"]) == {
        "rearrangement_equality",
        "group_isometry",
        "lattice_splitting",
        "chain_rule",
        "truncation_layers",
        "lorentz_nesting",
    }
    assert all(s["ok"] for s in doc["suites"].values())


def test_audit_negative_control_fails_exactly_chain_rule(tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = main(
        ["audit", "--count", "6", "--negative-control", "broken-chi", "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "chain_rule" in err
    doc = _read(out)
    assert doc["ok"] is False
    for name, suite in doc["suites"].items():
        if name == "chain_rule":
            assert not suite["ok"]
        else:
            assert suite["ok"], f"{name} must stay green under the chi control"
