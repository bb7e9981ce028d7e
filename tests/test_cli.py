"""CLI surface: subcommands, exit codes, document flow."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ccslab.cli import main
from ccslab.families import Family, FamilyParams, associated_state, generate, spec_ltp_state_vector
from ccslab.serialize import emit_document

RT5 = math.sqrt(5.0)
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(emit_document(obj)))
    return str(path)


def _cltp_fixture(tmp_path):
    inst = generate(Family.CLTP)
    state = associated_state(Family.CLTP)
    return (
        _write(tmp_path, "state.json", state),
        _write(tmp_path, "partition.json", inst.partition),
    )


def test_classify_nonscreening_fixture(tmp_path, capsys):
    state_file, partition_file = _cltp_fixture(tmp_path)
    assert main(["classify", state_file, partition_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    payload = doc["payload"]
    assert payload["is_ccs"] is False
    assert payload["ltp"] is True
    assert payload["meta"]["assumed_canonical_pair"] is True
    assert payload["meta"]["seed"] == 42


def test_classify_with_explicit_pair(tmp_path, capsys):
    from ccslab.twoqubit import canonical_events

    state_file, partition_file = _cltp_fixture(tmp_path)
    pair_file = _write(tmp_path, "pair.json", canonical_events())
    assert main(["classify", state_file, partition_file, pair_file, "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert "assumed_canonical_pair" not in payload["meta"]
    assert payload["meta"]["seed"] == 7


def test_classify_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "1",\n  "kind": broken}')
    _, partition_file = _cltp_fixture(tmp_path)
    assert main(["classify", str(bad), partition_file]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_classify_missing_file_is_input_error(tmp_path, capsys):
    _, partition_file = _cltp_fixture(tmp_path)
    assert main(["classify", str(tmp_path / "absent.json"), partition_file]) == 2


def test_classify_dimension_guard(tmp_path, capsys):
    from ccslab.core import DensityState, Partition, ProjectionEvent

    state_file = _write(tmp_path, "state2.json", DensityState.maximally_mixed(2))
    part = Partition((ProjectionEvent.identity(2),))
    partition_file = _write(tmp_path, "part2.json", part)
    assert main(["classify", state_file, partition_file]) == 2


def test_generate_bell_family_vectors(capsys):
    theta = 1.0471975511965976
    assert main(["generate", "CCSBell", "--theta", str(theta)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "partition"
    got = [np.array([[complex(re, im) for re, im in row] for row in el])
           for el in doc["payload"]["elements"]]
    want = generate(Family.CCSBell, FamilyParams(theta=theta)).partition
    for g, w in zip(got, want):
        assert np.allclose(g, w.op, atol=1e-12)


def test_generate_with_state_for_reference_family(capsys):
    assert main(["generate", "CCSclassUspec", "--with-state"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    docs = [json.loads(line) for line in lines]
    assert [d["kind"] for d in docs] == ["partition", "state"]
    rho = np.array(
        [[complex(re, im) for re, im in row] for row in docs[1]["payload"]["rho"]]
    )
    psi = spec_ltp_state_vector(False)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_generate_with_state_solves_for_rotated_family(capsys):
    assert main(["generate", "CCSclassU", "--theta", "0.7853981633974483", "--with-state"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    rho = json.loads(lines[1])["payload"]["rho"]
    assert rho[0][0][0] == pytest.approx((RT5 + 1.0) / (4.0 * RT5), abs=1e-12)


def test_generate_state_independent_family_is_domain_error(capsys):
    assert main(["generate", "CCSclass", "--with-state"]) == 3
    assert "state-independent" in capsys.readouterr().err


def test_generate_unknown_family(capsys):
    assert main(["generate", "NoSuchFamily"]) == 2


def test_generate_missing_parameter(capsys):
    assert main(["generate", "CCSclassU"]) == 2
    assert "--theta" in capsys.readouterr().err


def test_generate_hyperbolic_overflow_is_input_error(capsys):
    assert main(["generate", "CCShyper", "--xi", "711", "--zeta", "0"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["CCSclassU", "CCStwist"])
@pytest.mark.parametrize("theta", [e + base for base in (0.0, math.pi) for e in (4.6e-5, 5e-5, 6.2e-5)])
def test_classify_near_pi_multiples_exits_0(tmp_path, capsys, family, theta):
    # phi(A|C) ~ 1 - theta^2/4 and phi(AB|C) ~ 1 - theta^2/2 straddle eps_eq here
    assert main(["generate", family, "--theta", repr(theta), "--with-state"]) == 0
    partition, state = capsys.readouterr().out.strip().split("\n")
    (tmp_path / "partition.json").write_text(partition)
    (tmp_path / "state.json").write_text(state)
    assert main(["classify", str(tmp_path / "state.json"), str(tmp_path / "partition.json")]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["deterministic"] == "yes"


def test_solve_ltp_reference_angle(capsys):
    assert main(["solve-ltp", "--theta", "0.7853981633974483"]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["a"] == pytest.approx(math.sqrt((RT5 + 1.0) / (2.0 * RT5)), abs=1e-12)
    assert sol["b"] == pytest.approx(math.sqrt((RT5 - 1.0) / (2.0 * RT5)), abs=1e-12)
    assert math.cos(sol["xi"]) == pytest.approx(1.0 / RT5, abs=1e-12)


def test_solve_ltp_grid(capsys):
    assert main(["solve-ltp", "--grid", "5"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert len(rows) == 5
    assert rows[0]["a"] == 1.0 and rows[-1]["b"] == 1.0


def test_plot_endpoints(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["plot", "--grid", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,xi,a,b"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[2].split(",")]
    assert first == [0.0, 0.0, 1.0, 0.0]
    assert last[1] == pytest.approx(math.pi, abs=1e-12)
    assert last[2] == pytest.approx(0.0, abs=1e-12)
    assert last[3] == pytest.approx(1.0, abs=1e-12)


def test_plot_grid_validation(tmp_path):
    assert main(["plot", "--grid", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_props_small_run(capsys):
    assert main(["props", "--seed", "42", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "seed=42" in out
    assert out.count("violations=0") == 7


def test_table_subset_grid(capsys):
    assert main(["table", "--params-grid", "0.0,1.0471975511965976"]) == 0
    out = capsys.readouterr().out
    assert "fail=0" in out
    assert "SKIPPED" in out


def test_table_default_grid_passes(capsys):
    assert main(["table"]) == 0
    assert "fail=0" in capsys.readouterr().out


def test_plot_large_grid_rows_solve_the_quadratic(tmp_path, capsys):
    from ccslab.solver import quadratic_residual

    out = tmp_path / "curve.csv"
    assert main(["plot", "--grid", "1001", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 1001
    for line in lines:
        theta, _, a, b = (float(x) for x in line.split(","))
        assert quadratic_residual(a, b, theta) <= 1e-9


def test_family_catalog_listed_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    out = capsys.readouterr().out
    assert "CCSBell" in out and "CCS22ntratC" in out


def test_eps_env_override(tmp_path, capsys, monkeypatch):
    state_file, partition_file = _cltp_fixture(tmp_path)
    monkeypatch.setenv("CCSLAB_EPS", "1e-6")
    assert main(["classify", state_file, partition_file]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["meta"]["eps"] == 1e-6
    monkeypatch.setenv("CCSLAB_EPS", "not-a-number")
    assert main(["classify", state_file, partition_file]) == 2


def test_eps_flag_beats_env(tmp_path, capsys, monkeypatch):
    state_file, partition_file = _cltp_fixture(tmp_path)
    monkeypatch.setenv("CCSLAB_EPS", "1e-6")
    assert main(["classify", state_file, partition_file, "--eps", "1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["meta"]["eps"] == 1e-8


def test_props_violation_exits_1_with_json_counterexamples(capsys, monkeypatch):
    from ccslab.propositions import PropositionReport
    from ccslab.twoqubit import canonical_events

    pair = canonical_events()
    counterexample = {
        "label": "injected",
        "state": np.eye(4, dtype=complex) / 4,
        "partition": [np.eye(4, dtype=complex)],
        "pair_a": pair.a.op,
        "pair_b": pair.b.op,
    }
    report = PropositionReport("injected", "statement", "strategy", 1, 0, 1, [counterexample])
    monkeypatch.setattr("ccslab.cli.verify_propositions", lambda cfg: {"injected": report})
    assert main(["props", "--seed", "1", "--n", "1"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["proposition"] == "injected"
    assert doc["counterexample"]["label"] == "injected"



@pytest.mark.parametrize(
    "rho",
    [
        [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]],  # ragged rows
        [[["a", 0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],  # non-numeric entry
        [1, 2],  # flat array
        [[1, 2], [3, 4]],  # bare numbers where [re, im] pairs belong
        [[[0.5, 0.0], [0.0, 0.0]], 7],  # a row that is not an array
    ],
    ids=["ragged", "non_numeric", "flat", "bare_numbers", "scalar_row"],
)
def test_classify_malformed_matrix_is_input_error(tmp_path, capsys, rho):
    from ccslab.core import EventPair, Partition, ProjectionEvent

    state_file = tmp_path / "state.json"
    state_file.write_text(
        json.dumps({"version": "1", "kind": "state", "payload": {"dim": 2, "rho": rho}})
    )
    identity, zero = ProjectionEvent.identity(2), ProjectionEvent.zero(2)
    partition_file = _write(tmp_path, "part.json", Partition((identity,)))
    pair_file = _write(tmp_path, "pair.json", EventPair(identity, zero))
    assert main(["classify", str(state_file), partition_file, pair_file]) == 2
    assert "input error" in capsys.readouterr().err


def test_classify_one_dimensional_triple_terminates(tmp_path):
    # every event of C^1 is 0 or I: strongly trivial without sampling probes;
    # in a subprocess with a timeout, since a hang here would stall the suite
    from ccslab.core import DensityState, EventPair, Partition, ProjectionEvent

    identity, zero = ProjectionEvent.identity(1), ProjectionEvent.zero(1)
    files = [
        _write(tmp_path, "s.json", DensityState.maximally_mixed(1)),
        _write(tmp_path, "p.json", Partition((identity,))),
        _write(tmp_path, "pair.json", EventPair(identity, zero)),
    ]
    done = subprocess.run(
        [sys.executable, "-m", "ccslab.cli", "classify", *files],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)["payload"]
    assert payload["triviality"] == "strong"
    assert payload["certificate"]["kind"] == "analytic"
