import json
from pathlib import Path

import numpy as np
import pytest

from pointmass import load_pmd, predict_dd
from pointmass.cli import Scenario, main, run_bench, run_compare, run_predict


def dd_scenario_dict(counts=(21,), predictor="both", steps=1):
    n = len(counts)
    return {
        "kind": "dd",
        "grid": {
            "counts": list(counts),
            "steps": [12.0 / (c - 1) for c in counts],
            "center": [0.0] * n,
        },
        "initial": {
            "type": "gaussian",
            "mean": [0.0] * n,
            "covariance": np.eye(n).tolist(),
        },
        "steps": steps,
        "predictor": predictor,
        "F": (0.9 * np.eye(n)).tolist(),
        "noise": {"type": "gaussian", "covariance": (0.25 * np.eye(n)).tolist()},
    }


def cd_scenario_dict(counts=(31,), predictor="both", substeps=30, steps=1):
    n = len(counts)
    return {
        "kind": "cd",
        "grid": {
            "counts": list(counts),
            "steps": [12.0 / (c - 1) for c in counts],
            "center": [0.0] * n,
        },
        "initial": {
            "type": "gaussian",
            "mean": [0.0] * n,
            "covariance": np.eye(n).tolist(),
        },
        "steps": steps,
        "predictor": predictor,
        "A": (-0.1 * np.eye(n)).tolist(),
        "Q": [0.2] * n,
        "sampling_period": 1.0,
        "substeps": substeps,
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
# the dense 5-D step of dd_5d_bench takes about 40 s; it is only loaded here
SMALL_SCENARIOS = [p for p in SCENARIOS if p.stem != "dd_5d_bench"]


# -- scenario parsing ---------------------------------------------------------------


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenarios_load(path):
    scenario = Scenario.load(str(path))
    assert scenario.build_grid().dim == scenario.build_model().dim
    assert scenario.build_initial(scenario.build_grid()).mass == pytest.approx(1.0)


@pytest.mark.parametrize("path", SMALL_SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenarios_predict(path):
    scenario = Scenario.load(str(path))
    summary = run_predict(scenario)
    assert set(summary["results"]) == set(scenario.predictors)
    for entry in summary["results"].values():
        assert len(entry["mass_before_renormalization"]) == scenario.steps
        assert np.isfinite(entry["final_covariance"]).all()


def test_scenario_rejects_dimension_mismatch():
    data = dd_scenario_dict((9, 9))
    data["F"] = [[1.0]]
    with pytest.raises(ValueError, match="'F'"):
        Scenario.from_dict(data)


def test_scenario_rejects_even_counts_for_efficient():
    data = dd_scenario_dict((8,), predictor="efficient")
    with pytest.raises(ValueError, match="odd"):
        Scenario.from_dict(data)
    # the standard predictor accepts them
    data["predictor"] = "standard"
    Scenario.from_dict(data)


def test_even_counts_only_rejected_for_discrete_efficient(tmp_path, capsys):
    # the sine basis of the continuous predictor takes any count; the
    # middle-row convolution of the discrete one needs odd counts
    cd = cd_scenario_dict((30,), predictor="both")
    assert main(["compare", write_scenario(tmp_path, cd, "cd.json")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    dd = dd_scenario_dict((8,), predictor="efficient")
    assert main(["predict", write_scenario(tmp_path, dd, "dd.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd" in captured.err


def test_scenario_rejects_unknown_fields():
    data = dd_scenario_dict()
    data["typo_field"] = 1
    with pytest.raises(ValueError, match="typo_field"):
        Scenario.from_dict(data)


def test_scenario_rejects_mixed_model_fields():
    data = dd_scenario_dict()
    data["Q"] = [0.1]
    with pytest.raises(ValueError, match="must not set"):
        Scenario.from_dict(data)


def test_scenario_inflation_only_for_efficient_dd():
    data = dd_scenario_dict(predictor="both")
    data["inflation_coverage"] = 3.0
    with pytest.raises(ValueError, match="inflation_coverage"):
        Scenario.from_dict(data)
    data = dd_scenario_dict((21,), predictor="efficient")
    data["inflation_coverage"] = 3.0
    efficient = Scenario.from_dict(data).predictors["efficient"]
    assert efficient.func is predict_dd.predict_inflated
    assert efficient.keywords == {"coverage": 3.0}


# -- predict -----------------------------------------------------------------------


def test_run_predict_both_dumps_agree(tmp_path):
    scenario = Scenario.from_dict(dd_scenario_dict((41,)))
    out = run_predict(scenario, str(tmp_path))
    a = load_pmd(str(tmp_path / "pmd_standard.txt"))
    b = load_pmd(str(tmp_path / "pmd_efficient.txt"))
    assert a.grid == b.grid
    assert np.abs(a.weights - b.weights).max() / a.weights.max() < 1e-10
    entry = out["results"]["standard"]
    assert len(entry["mass_before_renormalization"]) == 1
    assert len(entry["wall_clock_s"]) == 1
    assert entry["mass_before_renormalization"][0] <= 1.0 + 1e-9


def test_run_predict_zero_steps_returns_initial(tmp_path):
    scenario = Scenario.from_dict(dd_scenario_dict((21,), steps=0))
    run_predict(scenario, str(tmp_path))
    dumped = load_pmd(str(tmp_path / "pmd_standard.txt"))
    initial = scenario.build_initial(scenario.build_grid())
    assert dumped.grid == initial.grid
    np.testing.assert_array_equal(dumped.weights, initial.weights)


def test_run_predict_cd_and_moments_sane():
    scenario = Scenario.from_dict(cd_scenario_dict((41,), predictor="efficient"))
    out = run_predict(scenario)
    mean = out["results"]["efficient"]["final_mean"]
    assert abs(mean[0]) < 0.05


def test_predict_cli_end_to_end(tmp_path, capsys):
    path = write_scenario(tmp_path, dd_scenario_dict((21,)))
    code = main(["predict", path, "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["results"]) == {"standard", "efficient"}
    assert (tmp_path / "out" / "pmd_efficient.txt").exists()


def test_predict_cli_unstable_cd_exit_code(tmp_path, capsys):
    data = cd_scenario_dict((31,), predictor="standard", substeps=1)
    data["Q"] = [5.0]
    path = write_scenario(tmp_path, data)
    code = main(["predict", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "axis 0" in err


def test_predict_cli_invalid_scenario_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, {"kind": "dd"})
    assert main(["predict", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_cli_non_finite_noise_scales_exit_code(tmp_path, capsys):
    data = dd_scenario_dict((21,))
    data["noise"] = {"type": "laplace", "scales": [float("nan")]}
    path = write_scenario(tmp_path, data)
    assert "NaN" in (tmp_path / "scenario.json").read_text()
    assert main(["predict", path]) == 2
    assert "scales" in capsys.readouterr().err


def test_predict_cli_fractional_counts_exit_code(tmp_path, capsys):
    data = dd_scenario_dict((21,), predictor="standard")
    data["grid"]["counts"] = [5.5]
    assert main(["predict", write_scenario(tmp_path, data)]) == 2
    assert "counts must be positive integers" in capsys.readouterr().err


def test_predict_cli_counts_not_a_list_exit_code(tmp_path, capsys):
    data = dd_scenario_dict((21,))
    data["grid"]["counts"] = 5
    assert main(["predict", write_scenario(tmp_path, data)]) == 2
    assert "'grid.counts'" in capsys.readouterr().err


@pytest.mark.parametrize("coverage", [[3.0], "3.0", 0.0, float("inf"), True])
def test_predict_cli_bad_inflation_coverage_exit_code(coverage, tmp_path, capsys):
    data = dd_scenario_dict((21,), predictor="efficient")
    data["inflation_coverage"] = coverage
    assert main(["predict", write_scenario(tmp_path, data)]) == 2
    assert "'inflation_coverage'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, field, message",
    [
        ("dd", "steps", "steps must be a nonnegative integer"),
        ("cd", "substeps", "substeps must be a positive integer"),
        ("cd", "sampling_period", "sampling period must be positive"),
        ("dd", "counts", "counts must be positive integers"),
    ],
)
def test_predict_cli_boolean_numbers_exit_code(kind, field, message, tmp_path, capsys):
    # bool is an int in Python: a JSON true must not pass as 1
    data = dd_scenario_dict((21,)) if kind == "dd" else cd_scenario_dict((21,))
    if field == "counts":
        data["grid"]["counts"] = [True]
    else:
        data[field] = True
    assert main(["predict", write_scenario(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


# -- bench --------------------------------------------------------------------------


def test_run_bench_rows_and_ratio():
    scenario = Scenario.from_dict(dd_scenario_dict((41,)))
    rows, slopes = run_bench(scenario, repeats=3)
    assert slopes == {}
    assert {r["predictor"] for r in rows} == {"standard", "efficient"}
    for row in rows:
        assert row["N"] == 41
        assert row["counts"] == "41"
        assert row["median_s"] > 0
        assert row["ratio"] > 0


def test_run_bench_requires_three_repeats():
    scenario = Scenario.from_dict(dd_scenario_dict((21,)))
    with pytest.raises(ValueError, match="repeats"):
        run_bench(scenario, repeats=2)


def test_run_bench_sweep_reports_slopes():
    scenario = Scenario.from_dict(dd_scenario_dict((33,)))
    rows, slopes = run_bench(scenario, repeats=3, sweep=[33, 65, 129])
    assert len(rows) == 6
    assert set(slopes) == {"standard", "efficient"}
    ns = [r["N"] for r in rows if r["predictor"] == "standard"]
    assert ns == [33, 65, 129]


def test_bench_cli_csv_output(tmp_path, capsys):
    path = write_scenario(tmp_path, dd_scenario_dict((21,)))
    code = main(["bench", path, "--repeats", "3"])
    assert code == 0
    captured = capsys.readouterr()
    header, *rows = captured.out.strip().splitlines()
    assert header == "predictor,n_x,counts,N,median_s,ratio"
    assert [row.split(",")[:4] for row in rows] == [
        ["standard", "1", "21", "21"],
        ["efficient", "1", "21", "21"],
    ]
    assert captured.err == ""


def test_bench_cli_sweep_reports_slopes_on_stderr(tmp_path, capsys):
    path = write_scenario(tmp_path, dd_scenario_dict((21,)))
    assert main(["bench", path, "--repeats", "3", "--sweep", "21,41,"]) == 0
    captured = capsys.readouterr()
    header, *rows = captured.out.strip().splitlines()
    assert [row.split(",")[3] for row in rows] == ["21", "21", "41", "41"]
    slopes = captured.err.splitlines()
    assert [line.split()[:2] for line in slopes] == [
        ["slope", "efficient"],
        ["slope", "standard"],
    ]


@pytest.mark.parametrize(
    "args", [["bench", "--repeats", "3"], ["compare"]], ids=["bench", "compare"]
)
def test_bench_and_compare_have_no_out_option(args, tmp_path, capsys):
    # both write to stdout only: a copy comes from shell redirection
    path = write_scenario(tmp_path, dd_scenario_dict((21,)))
    out = tmp_path / "copy.txt"
    command, *rest = args
    with pytest.raises(SystemExit) as exc:
        main([command, path, *rest, "--out", str(out)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


# -- compare ------------------------------------------------------------------------


def test_run_compare_dd_passes():
    scenario = Scenario.from_dict(dd_scenario_dict((41,), steps=2))
    report = run_compare(scenario)
    assert report["passed"] is True
    assert report["threshold"] == 1e-10
    assert len(report["steps"]) == 2
    assert report["max_rel_weight_diff"] < 1e-10


def test_run_compare_cd_passes():
    scenario = Scenario.from_dict(cd_scenario_dict((31,), steps=2))
    report = run_compare(scenario)
    assert report["passed"] is True
    assert report["threshold"] == 1e-8
    assert report["max_rel_weight_diff"] < 1e-8


def test_run_compare_requires_both():
    scenario = Scenario.from_dict(dd_scenario_dict((21,), predictor="standard"))
    with pytest.raises(ValueError, match="both"):
        run_compare(scenario)


def test_compare_cli_pass_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, dd_scenario_dict((21,)))
    assert main(["compare", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_compare_cli_fail_exit_code(tmp_path, capsys):
    # noise far wider than the grid: the middle row misses most offsets
    data = dd_scenario_dict((21,))
    data["noise"]["covariance"] = [[25.0]]
    path = write_scenario(tmp_path, data)
    assert main(["compare", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["max_rel_weight_diff"] > report["threshold"]


def test_compare_cli_rejects_even_counts(tmp_path, capsys):
    path = write_scenario(tmp_path, dd_scenario_dict((8,)))
    assert main(["compare", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd" in captured.err
