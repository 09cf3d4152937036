"""Command-line interface: golden outputs, exit codes, determinism."""

import hashlib
import json
import logging
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from tvdp import example_model_text, load_example, sweep_csv
from tvdp.cli import _parse_grid, main
from tvdp.finite import _SWEEP_BLOCK_ENTRIES, sweep_radius_finite
from tvdp.infinite import sweep_radius_infinite
from tvdp.model import read_solution

GOLDEN_ORACLE = '{"effective_radius":0.6,"maximizer":[0,1],"r_max":0.6,"value":100}\n'

GOLDEN_FINITE = """stage,state,action,value
0,running,m,340.0625
0,broken,r,360.0625
1,running,m,221.0625
1,broken,r,241.0625
2,running,nm,100
2,broken,r,122.5
3,running,,0
3,broken,,0
"""

GOLDEN_SWEEP = """radius,state,value,action
0,running,196,m
0,broken,216,r
0.5,running,281,m
0.5,broken,301,r
1,running,357,nm
1,broken,384.3,r
1.5,running,380,nm
1.5,broken,420,r
2,running,380,nm
2,broken,420,r
"""


GOLDEN_SWEEP_STATIONARY = """radius,state,value,action
0,x1,3.46153846154,u2
0,x2,4.10256410256,u1
0,x3,2.99145299145,u2
0.25,x1,4.71153846154,u2
0.25,x2,5.35256410256,u1
0.25,x3,4.24145299145,u2
0.5,x1,5.96153846154,u2
0.5,x2,6.60256410256,u1
0.5,x3,5.49145299145,u2
0.75,x1,7.11861022364,u2
0.75,x2,7.74161341853,u1
0.75,x3,6.65002662407,u2
1,x1,7.99559471366,u2
1,x2,8.56828193833,u1
1,x3,7.51101321586,u2
1.25,x1,8.76511487304,u2
1.25,x2,9.28506650544,u1
1.25,x3,8.2330713422,u2
1.5,x1,9.375,u2
1.5,x2,9.875,u1
1.5,x3,8.825,u2
1.75,x1,9.5,u2
1.75,x2,10,u1
1.75,x3,8.99375,u2
2,x1,9.5,u2
2,x2,10,u1
2,x3,9,u2
"""

# the machine model without a horizon, discounted at 0.9: next-state costs
GOLDEN_SWEEP_VECTOR_COST = """radius,state,value,action
0,running,672,m
0,broken,692,r
0.5,running,967,m
0.5,broken,987,r
1,running,1247.70642202,nm
1,broken,1275.2293578,r
1.5,running,1360,nm
1.5,broken,1400,r
2,running,1360,nm
2,broken,1400,r
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text, header):
    lines = text.strip("\n").split("\n")
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


def test_oracle_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--mu", "0.3,0.7", "--levels", "0,100", "--radius", "0.85"
    )
    assert code == 0
    assert out == GOLDEN_ORACLE


def test_oracle_list_may_start_with_minus(capsys):
    for argv in (("--levels", "-1,2"), ("--levels=-1,2",)):
        code, out, _ = run_cli(
            capsys, "oracle", "--mu", "0.5,0.5", *argv, "--radius", "0.5"
        )
        assert code == 0, argv
        assert json.loads(out)["value"] == 1.25


def test_solve_finite_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "solve-finite", "--model", "machine")
    assert code == 0
    assert out == GOLDEN_FINITE


def test_bundled_name_matches_file_path(capsys, tmp_path):
    path = tmp_path / "copy.json"
    path.write_text(example_model_text("machine"), encoding="utf-8")
    _, from_name, _ = run_cli(capsys, "solve-finite", "--model", "machine")
    code, from_path, _ = run_cli(capsys, "solve-finite", "--model", str(path))
    assert code == 0
    assert from_name == from_path
    # a bundled name may also carry the .json suffix
    code, suffixed, _ = run_cli(capsys, "solve-finite", "--model", "machine.json")
    assert code == 0
    assert suffixed == from_name


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "plan.csv"
    code, out, _ = run_cli(
        capsys, "solve-finite", "--model", "machine", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == GOLDEN_FINITE


def test_json_out_round_trips(capsys, tmp_path):
    path = tmp_path / "plan.json"
    code, _, _ = run_cli(
        capsys, "solve-finite", "--model", "machine", "--out", str(path)
    )
    assert code == 0
    record = read_solution(path.read_text(encoding="utf-8"))
    assert record.kind == "finite"
    assert record.values[0] == pytest.approx((340.0625, 360.0625), abs=1e-12)
    assert record.policies[0] == ("m", "r")


def test_solve_infinite_vi(capsys):
    code, out, _ = run_cli(capsys, "solve-infinite", "--model", "threestate")
    assert code == 0
    rows = _rows(out, "stage,state,action,value")
    assert [r[0] for r in rows] == ["-1", "-1", "-1"]
    assert [r[1] for r in rows] == ["x1", "x2", "x3"]
    assert [r[2] for r in rows] == ["u2", "u1", "u2"]
    values = np.array([float(r[3]) for r in rows])
    exact = np.array([265 / 39, 290 / 39, 740 / 117])
    assert np.abs(values - exact).max() <= 2e-9


def test_solve_infinite_pi_with_init(capsys):
    code, out, _ = run_cli(
        capsys, "solve-infinite", "--model", "threestate",
        "--method", "pi", "--pi-mode", "paper", "--init", "u1,u2,u2",
    )
    assert code == 0
    rows = _rows(out, "stage,state,action,value")
    assert [r[2] for r in rows] == ["u2", "u1", "u2"]
    values = np.array([float(r[3]) for r in rows])
    assert np.abs(values - np.array([265 / 39, 290 / 39, 740 / 117])).max() <= 1e-9


def test_solve_infinite_repeat_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "solve-infinite", "--model", "threestate")
    _, second, _ = run_cli(capsys, "solve-infinite", "--model", "threestate")
    assert first == second


def test_sweep_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "machine", "--radius-grid", "0:2:0.5"
    )
    assert code == 0
    assert out == GOLDEN_SWEEP


# sha256 of the 201-point machine sweeps as every grid point solved on its own
# printed them: the batched sweep must keep these bytes
SWEEP_MACHINE_SHA256 = {
    "3": "05b416e9277b16a72dfa61d32568a8ab0156f368eb3c72b86f4c2e80906d94c4",
    "50": "70d5d30059ec812697301dc9207daf23db3fbf8b489fc63724bb772fbe17029b",
}


@pytest.mark.parametrize("horizon", ["3", "50"])
def test_sweep_machine_dense_grid_bytes(capsys, horizon):
    argv = ["sweep", "--model", "machine", "--radius-grid", "0:2:0.01"]
    if horizon != "3":
        argv += ["--horizon", horizon]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("\n") == 1 + 201 * 2
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_MACHINE_SHA256[horizon]


def test_sweep_grid_includes_endpoint(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "machine", "--radius-grid", "0:2:0.05"
    )
    assert code == 0
    rows = _rows(out, "radius,state,value,action")
    radii = [r[0] for r in rows[::2]]
    assert len(radii) == 41
    assert radii[0] == "0"
    assert radii[-1] == "2"


def test_sweep_stationary_model(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "threestate", "--radius-grid", "0:2:1"
    )
    assert code == 0
    rows = _rows(out, "radius,state,value,action")
    assert [r[0] for r in rows[::3]] == ["0", "1", "2"]


def test_sweep_stationary_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "threestate", "--radius-grid", "0:2:0.25"
    )
    assert code == 0
    assert out == GOLDEN_SWEEP_STATIONARY


def test_sweep_stationary_vector_cost_golden_bytes(capsys, tmp_path):
    doc = json.loads(example_model_text("machine"))
    del doc["horizon"], doc["terminal_cost"]
    doc["discount"] = 0.9
    path = tmp_path / "machine_stationary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "sweep", "--model", str(path), "--radius-grid", "0:2:0.5"
    )
    assert code == 0
    assert out == GOLDEN_SWEEP_VECTOR_COST


@pytest.mark.parametrize("name,grid_text", [
    # 5001 points, past the first 4096-point block of the machine model
    ("machine", "0:2:0.0004"),
    ("threestate", "0:2:0.1"),
])
def test_sweep_streams_the_bytes_of_the_listed_points(capsys, tmp_path, name, grid_text):
    model = load_example(name)
    grid = _parse_grid(grid_text)
    if model.is_finite:
        assert len(grid) > _SWEEP_BLOCK_ENTRIES // model.kernels.size
        want = sweep_csv(sweep_radius_finite(model, grid), model.states)
    else:
        want = sweep_csv(sweep_radius_infinite(model, grid), model.states)
    code, out, _ = run_cli(capsys, "sweep", "--model", name, "--radius-grid", grid_text)
    assert code == 0
    assert out == want
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--model", name, "--radius-grid", grid_text, "--out", str(path)
    )
    assert code == 0
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("name", ["machine", "threestate"])
def test_sweep_checks_every_radius_before_writing(capsys, tmp_path, name):
    path = tmp_path / "sweep.csv"
    for out in ([], ["--out", str(path)]):
        code, text, err = run_cli(
            capsys, "sweep", "--model", name, "--radius-grid", "0:3:0.5", *out
        )
        assert code == 1
        assert "radius must lie in [0, 2]" in err
        assert text == ""
    assert not path.exists()


def test_simulate_deterministic_json(capsys):
    argv = (
        "simulate", "--model", "threestate", "--policy", "u2,u1,u2",
        "--episodes", "2000", "--seed", "5",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(first)
    assert list(doc) == [
        "episodes", "horizon_cap", "kernel", "means",
        "policy", "seed", "states", "std_errors",
    ]
    assert doc["episodes"] == 2000
    assert doc["kernel"] == "nominal"
    assert doc["policy"] == ["u2", "u1", "u2"]
    assert doc["states"] == ["x1", "x2", "x3"]
    _, second, _ = run_cli(capsys, *argv)
    assert second == first


def test_simulate_worst_kernel(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "threestate", "--policy", "u2,u1,u2",
        "--episodes", "2000", "--kernel", "worst", "--horizon-cap", "80",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel"] == "worst"
    assert doc["horizon_cap"] == 80
    # adversarial transitions cost at least as much as nominal ones
    nominal = json.loads(run_cli(
        capsys, "simulate", "--model", "threestate", "--policy", "u2,u1,u2",
        "--episodes", "2000", "--horizon-cap", "80",
    )[1])
    assert all(w >= n for w, n in zip(doc["means"], nominal["means"]))


def test_simulate_worst_kernel_of_a_non_optimal_policy(capsys):
    # the adversary answers the simulated policy, not the optimal one
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "threestate", "--policy", "u1,u1,u1",
        "--episodes", "5000", "--kernel", "worst",
    )
    assert code == 0
    doc = json.loads(out)
    robust = np.array([410 / 17, 1565 / 68, 1675 / 68])
    gap = np.abs(np.array(doc["means"]) - robust)
    assert np.all(gap <= 4.0 * np.array(doc["std_errors"]))


def test_certify_small_campaign(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--instances", "25", "--trials", "60", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"check", "instances", "failures", "max_violation", "seed"}
    assert doc["failures"] == 0
    assert doc["instances"] == 25


def test_certify_without_probes_is_a_proof_campaign(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--instances", "200", "--max-size", "8", "--trials", "0"
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_help_and_version_exit_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--version")[0] == 0
    code, out, _ = run_cli(capsys, "solve-finite", "--help")
    assert code == 0


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "oracle", "--bogus")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_invalid_inputs_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    cases = [
        ("solve-finite", "--model", str(tmp_path / "missing.json")),
        ("solve-finite", "--model", str(bad)),
        ("solve-finite", "--model", "threestate"),
        ("solve-infinite", "--model", "machine"),
        ("solve-finite", "--model", "machine", "--radius", "3"),
        ("sweep", "--model", "machine", "--radius-grid", "0:2"),
        ("sweep", "--model", "machine", "--radius-grid", "0:2:-0.5"),
        ("sweep", "--model", "machine", "--radius-grid", "2:0:0.5"),
        ("oracle", "--mu", "a,b", "--levels", "0,1", "--radius", "0.5"),
        ("oracle", "--mu", "0.5,0.5", "--levels", "1,2", "--radius", "0.5",
         "--tie-tol", "nan"),
        ("simulate", "--model", "threestate", "--policy", "u1,u9,u1",
         "--episodes", "10"),
        ("simulate", "--model", "threestate", "--policy", "u2,u1,u2",
         "--episodes", "100", "--horizon-cap", "0"),
        ("certify", "--instances", "-5"),
        ("certify", "--max-size", "1"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err or "usage:" in err
    # rejected at once, with a message that names the flag
    flagged = [
        ("--tol", ("solve-infinite", "--model", "threestate", "--tol", "nan")),
        ("--tol", ("solve-infinite", "--model", "threestate", "--tol", "-1")),
        ("--max-iter", ("solve-infinite", "--model", "threestate", "--max-iter", "-1")),
        ("--max-iter", ("solve-infinite", "--model", "threestate", "--method", "pi",
                        "--max-iter", "0")),
        ("--seed", ("certify", "--instances", "2", "--seed", "-1")),
        ("--seed", ("simulate", "--model", "threestate", "--policy", "u2,u1,u2",
                    "--episodes", "10", "--seed", "-1")),
        ("--jobs", ("simulate", "--model", "threestate", "--policy", "u2,u1,u2",
                    "--episodes", "100", "--jobs", "0")),
        ("--jobs", ("simulate", "--model", "threestate", "--policy", "u2,u1,u2",
                    "--episodes", "100", "--jobs", "-4")),
    ]
    for flag, argv in flagged:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: " + flag), (argv, err)


def test_non_convergence_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "solve-infinite", "--model", "threestate", "--max-iter", "3"
    )
    assert code == 2
    assert "no convergence" in err
    # the best iterate is still written before the failure is reported
    assert out.startswith("stage,state,action,value")
    code, _, err = run_cli(
        capsys, "solve-infinite", "--model", "threestate",
        "--method", "pi", "--init", "u1,u2,u2", "--max-iter", "1",
    )
    assert code == 2


# paper-mode PI freezes this model's rows from a nominal ordering that the
# robust values do not share, and stops off the fixed point
OFF_FIXED_POINT_MODEL = (
    '{"states":["s0","s1","s2"],"actions":{"s0":["a0","a1"],"s1":["a0","a1"],'
    '"s2":["a0","a1"]},"kernel":{"s0":{"a0":[0.013,0.739,0.248],"a1":[0.643,0.016,0.341]},'
    '"s1":{"a0":[0.146,0.5,0.354],"a1":[0.809,0.001,0.19]},"s2":{"a0":[0.208,0.121,0.671],'
    '"a1":[0.405,0.28,0.315]}},"cost":{"s0":{"a0":5.0,"a1":5.0},"s1":{"a0":0.0,"a1":5.0},'
    '"s2":{"a0":3.0,"a1":5.0}},"discount":0.9,"radius":0.96}'
)


def test_paper_mode_off_the_fixed_point_exits_two(capsys, tmp_path):
    path = tmp_path / "three.json"
    path.write_text(OFF_FIXED_POINT_MODEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "solve-infinite", "--model", str(path), "--method", "pi", "--pi-mode", "paper"
        )
    assert code == 2
    # the paper's values are written before the miss is reported
    assert out == (
        "stage,state,action,value\n"
        "-1,s0,a0,31.3455955064\n-1,s1,a0,27.1250623722\n-1,s2,a0,30\n"
    )
    assert err == (
        "error: no convergence: policy iteration stopped off the fixed point "
        "after 1 improvement steps (residual 0.833192737559)\n"
    )
    assert "within" not in err


def test_non_convergence_names_the_cap_only_when_it_was_reached(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve-infinite", "--model", "threestate", "--max-iter", "3")
    assert code == 2
    assert err.startswith("error: no convergence within 3 iterations (residual ")
    code, _, err = run_cli(
        capsys, "solve-infinite", "--model", "threestate",
        "--method", "pi", "--init", "u1,u2,u2", "--max-iter", "1",
    )
    assert code == 2
    assert err.startswith("error: no convergence within 1 iterations (residual ")
    # a paper-mode stop off the fixed point at the cap's own step is still not the cap's
    path = tmp_path / "three.json"
    path.write_text(OFF_FIXED_POINT_MODEL)
    code, _, err = run_cli(
        capsys, "solve-infinite", "--model", str(path),
        "--method", "pi", "--pi-mode", "paper", "--max-iter", "1",
    )
    assert code == 2
    assert "stopped off the fixed point after 1 improvement steps" in err
    assert "within" not in err


@pytest.fixture
def info_logging(monkeypatch):
    monkeypatch.setenv("TVDP_LOG", "info")
    yield
    logger = logging.getLogger("tvdp")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


def test_info_logging_goes_to_stderr(info_logging, capsys):
    code, out, err = run_cli(
        capsys, "solve-infinite", "--model", "threestate",
        "--method", "pi", "--init", "u1,u2,u2",
    )
    assert code == 0
    assert "improvement iterations" in err
    assert "improvement" not in out


def _readme_quick_start():
    """``(argv, stdout)`` of each ``$ tvdp ...`` example under README's "Quick start"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```text\n")[1:]:
        for entry in block.split("```", 1)[0].strip("\n").split("\n\n"):
            command, _, shown = entry.partition("\n")
            assert command.startswith("$ tvdp "), command
            examples.append((shlex.split(command)[2:], shown + "\n"))
    return examples


def test_readme_quick_start_output(capsys):
    examples = _readme_quick_start()
    assert len(examples) == 3
    for argv, shown in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out == shown, argv
