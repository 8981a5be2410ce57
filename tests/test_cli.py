import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import record_path

import mfhjb
from mfhjb.budget import CAPS
from mfhjb.cli import main
from mfhjb.control import StepControl
from mfhjb.dynamics import SimConfig
from mfhjb.measures import sample_iid
from mfhjb.scenarios import scenario


def run_cli(tmp_path, sub, cfg=None, seed=0, name="run"):
    out = tmp_path / name
    args = [sub, "--out", str(out), "--seed", str(seed)]
    if cfg is not None:
        cfg_path = tmp_path / f"{name}_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    code = main(args)
    results = json.loads((out / "results.json").read_text()) if (out / "results.json").exists() else None
    return code, out, results


def test_metric_subcommand_schema(tmp_path):
    code, out, res = run_cli(tmp_path, "metric", {"n": 8, "quad": 32}, seed=3)
    assert code == 0
    assert res["pass"] is True
    assert res["schema_version"] == 1
    assert res["subcommand"] == "metric"
    assert {"operation", "inputs_hash", "value", "stderr", "seed"} <= set(res["records"][0])
    assert (out / "meta.json").exists()


def test_simulate_lq_drift_in_three_dimensions_by_default_p(tmp_path):
    code, _, res = run_cli(tmp_path, "simulate", {"n": 8, "steps": 5, "params": {"d": 3}}, seed=2)
    assert code == 0 and res["pass"] is True


def test_identical_ensembles_report_zero(tmp_path):
    code, _, res = run_cli(tmp_path, "metric", {"n": 8, "quad": 32, "shift": [0.0, 0.0]}, seed=1)
    assert code == 0
    by_op = {r["operation"]: r for r in res["records"]}
    assert by_op["sw2_self"]["value"] == 0.0


@pytest.mark.parametrize(
    "sub,cfg,files",
    [
        ("metric", {"n": 8, "quad": 32}, ["results.json"]),
        ("simulate", {"n": 8, "steps": 5}, ["results.json", "trajectory.csv"]),
        ("hjb-residual", {"probes": 4}, ["results.json"]),
        ("variational", {"sets": 3, "max_size": 8, "m_points": 24}, ["results.json"]),
        ("gradient-check", {"n": 4, "quad": 8, "m_points": 32}, ["results.json"]),
        ("value", {"n": 64, "steps": 8, "paths": 5}, ["results.json"]),
        ("dpp-check", {"n": 24, "steps": 6, "paths_outer": 3, "paths_inner": 3}, ["results.json"]),
    ],
    ids=["metric", "simulate", "hjb-residual", "variational", "gradient-check", "value", "dpp-check"],
)
def test_rerun_byte_identical(tmp_path, sub, cfg, files):
    _, out1, _ = run_cli(tmp_path, sub, cfg, seed=5, name="a")
    _, out2, _ = run_cli(tmp_path, sub, cfg, seed=5, name="b")
    for fname in files:
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("cap", [None, 1, 1536], ids=["default-chunks", "one-path", "uneven-chunks"])
@pytest.mark.parametrize(
    "sub,cfg",
    [
        ("value", {"n": 64, "steps": 8, "paths": 5}),
        ("dpp-check", {"n": 24, "steps": 6, "paths_outer": 3, "paths_inner": 3}),
    ],
    ids=["value", "dpp-check"],
)
def test_monte_carlo_results_match_golden(tmp_path, monkeypatch, sub, cfg, cap):
    # tests/golden holds these runs' results.json from the per-path loop
    # that the chunked passes replaced; any chunking must reproduce them
    if cap is not None:
        monkeypatch.setitem(CAPS, "monte_carlo", cap)
    code, out, _ = run_cli(tmp_path, sub, cfg, seed=5)
    assert code == 0
    assert (out / "results.json").read_bytes() == (GOLDEN / f"{sub}.json").read_bytes()


#: Small configs whose results.json (seed 5) tests/golden pins for the
#: subcommands without a Monte Carlo golden test above.
GOLDEN_CONFIGS = {
    "metric": {"n": 8, "quad": 32},
    "gradient-check": {"n": 8, "quad": 8, "m_points": 64},
    "h-check": {"quad": 16},
    "variational": {"sets": 3, "max_size": 8, "m_points": 24, "d": 2, "quad": 16},
    "simulate": {"n": 8, "steps": 5},
    "mollify-rates": {"ms": [2, 4, 8], "offsets": 256},
    "eps-sweep": {"n": 16, "steps": 6, "paths": 4, "resamples": 1, "offsets": 8, "eps": [0.1, 0.2]},
    "n-sweep": {"ns": [4, 8], "ref_n": 16, "steps": 4, "paths": 4, "resamples": 1, "offsets": 8},
    "rates": {"ns": [32, 64, 128], "reps": 10},
    "hjb-residual": {"probes": 4},
}

#: Shrunken memory-budget caps: one row per chunk, and uneven multi-row chunks.
SHRUNKEN_CAPS = {
    "one-row": {"gauge": 1, "monte_carlo": 1, "mollifier": 1},
    "uneven": {"gauge": 10007, "monte_carlo": 301, "mollifier": 2003},
}


@pytest.mark.parametrize("caps", [None, *SHRUNKEN_CAPS], ids=["default-caps", *SHRUNKEN_CAPS])
@pytest.mark.parametrize("sub", list(GOLDEN_CONFIGS))
def test_results_match_golden(tmp_path, monkeypatch, sub, caps):
    # chunking never changes a bit, so every cap setting reproduces the pins
    for name, cap in SHRUNKEN_CAPS.get(caps, {}).items():
        monkeypatch.setitem(CAPS, name, cap)
    run_cli(tmp_path, sub, GOLDEN_CONFIGS[sub], seed=5)
    assert (tmp_path / "run" / "results.json").read_bytes() == (GOLDEN / f"{sub}.json").read_bytes()


def _run_module(tmp_path, sub, cfg):
    # the CLI as its own process, so an uncaught exception shows as a traceback
    src = str(Path(mfhjb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-m", "mfhjb.cli", sub, "--config", str(cfg_path), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "sub,cfg,name",
    [("value", {"paths": 0}, "paths"), ("dpp-check", {"paths_inner": 0}, "paths_inner")],
    ids=["value", "dpp-check"],
)
def test_zero_monte_carlo_count_exits_one(tmp_path, sub, cfg, name):
    proc = _run_module(tmp_path, sub, cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {name} must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "sub,cfg",
    [
        ("simulate", {"params": "x"}),
        ("n-sweep", {"params": "x"}),
        ("rates", {"reps": 0}),
        ("rates", {"reps": -1}),
        ("rates", {"ns": [0, 32]}),
        ("gradient-check", {"m_points": 0}),
        ("variational", {"m_points": 0}),
    ],
    ids=[
        "simulate-params", "n-sweep-params", "rates-reps-0", "rates-reps-negative", "rates-ns-0",
        "gradient-check-m-points-0", "variational-m-points-0",
    ],
)
def test_bad_params_or_count_exits_one(tmp_path, sub, cfg):
    proc = _run_module(tmp_path, sub, cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "o" / "results.json").exists()


@pytest.mark.parametrize(
    "sub,cfg,message",
    [
        ("rates", {"ns": [32]}, "ns needs at least two distinct sizes for a log-log fit, got [32]"),
        ("n-sweep", {"ns": [0, 8]}, "ns[0] must be >= 1, got 0"),
        ("mollify-rates", {"ms": [4, 4]}, "ms needs at least two distinct sizes for a log-log fit, got [4, 4]"),
    ],
    ids=["rates-one-size", "n-sweep-zero-size", "mollify-rates-repeated-size"],
)
def test_loglog_fit_sizes_exit_one(tmp_path, sub, cfg, message):
    # a slope needs two distinct sizes; the list is checked before any work
    proc = _run_module(tmp_path, sub, cfg)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert not (tmp_path / "o" / "results.json").exists()


def test_malformed_config_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["metric", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["metric", "--config", str(arr), "--out", str(tmp_path / "o2")]) == 1


def test_config_error_inside_run_exits_one(tmp_path):
    code, _, _ = run_cli(tmp_path, "simulate", {"scenario": "nope"}, seed=0)
    assert code == 1


@pytest.mark.parametrize("seed", ["abc", [1], 1.5, True, None], ids=["string", "list", "float", "bool", "null"])
def test_config_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    assert main(["metric", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad config:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_tolerance_failure_exits_three(tmp_path):
    # coarse Monte Carlo direction quadrature in d = 3 cannot hit the
    # translation identity at 1e-4, so the metric gate must fail
    code, _, res = run_cli(
        tmp_path, "metric", {"n": 8, "d": 3, "quad": 16, "shift": [0.6, 0.6, 0.6]}, seed=2
    )
    assert code == 3
    assert res["pass"] is False


def test_gradient_check_small(tmp_path):
    code, _, res = run_cli(
        tmp_path, "gradient-check", {"n": 8, "quad": 16, "m_points": 128}, seed=4
    )
    assert code == 0
    by_op = {r["operation"]: r for r in res["records"]}
    assert by_op["gauge_factor_pin"]["value"] == 0.5
    assert by_op["gradient_fd_rel_error"]["value"] <= 1e-3


def test_variational_subcommand(tmp_path):
    code, _, res = run_cli(tmp_path, "variational", {"sets": 10, "max_size": 10}, seed=6)
    assert code == 0
    rec = res["records"][0]
    assert rec["value"] == rec["total"] == 10


def test_simulate_writes_trajectory(tmp_path):
    code, out, res = run_cli(tmp_path, "simulate", {"n": 8, "steps": 5}, seed=7)
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "step,particle,x0,x1"
    assert len(lines) == 1 + 8 * 6
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(k, i) for k in range(6) for i in range(8)]
    coords = np.array([[float(v) for v in r[2:]] for r in rows])

    # the run's first simulated path, rebuilt from the subcommand's defaults
    coeffs = scenario("lq_drift")
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 8, coeffs.d, 7)
    cfg = SimConfig(n=8, steps=5, t0=0.0, t1=1.0, seed=7)
    bundle = record_path(coeffs, init, StepControl.constant(0.0, np.zeros(coeffs.d)), cfg)
    assert coords.tobytes() == bundle.trajectories.reshape(-1, coeffs.d).tobytes()


def test_rates_subcommand_writes_series(tmp_path):
    code, out, res = run_cli(tmp_path, "rates", {"ns": [32, 64, 128, 256], "reps": 30}, seed=8)
    assert code == 0
    slope = res["records"][0]["value"]
    assert -0.62 <= slope <= -0.38
    series = (out / "rates.csv").read_text().strip().split("\n")
    assert series[0] == "n,mean_w1"
    assert len(series) == 5


def test_value_subcommand_small(tmp_path):
    code, _, res = run_cli(tmp_path, "value", {"n": 128, "steps": 10, "paths": 12}, seed=9)
    assert code == 0


def test_eps_sweep_line_slope_and_intercept(tmp_path):
    import numpy as np

    from mfhjb.cli import _eps_sweep_data

    eps_list, vals = _eps_sweep_data(
        {"n": 96, "steps": 20, "paths": 16, "resamples": 1}, seed=5
    )
    x = np.array(eps_list[1:])
    y = np.array([abs(vals[e] - vals[0.0]) for e in eps_list[1:]])
    slope, intercept = np.polyfit(x, y, 1)
    # the perturbation response is bounded linearly in eps: a free line fit
    # has modest slope and near-zero intercept
    assert slope <= 1.3
    assert abs(intercept) <= 0.15 * y.max()


def test_h_check_subcommand(tmp_path):
    code, _, res = run_cli(tmp_path, "h-check", {}, seed=10)
    assert code == 0


@pytest.mark.parametrize("target", ["empty", "regular_file"])
def test_unwritable_out_exits_two(tmp_path, monkeypatch, capsys, target):
    monkeypatch.chdir(tmp_path)
    out = ""
    if target == "regular_file":
        (tmp_path / "taken").write_text("not a directory\n")
        out = "taken"
    assert main(["metric", "--out", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: cannot write output: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("results.json"))


def test_failed_result_write_exits_two(tmp_path, monkeypatch, capsys):
    from mfhjb import cli

    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    # no --config, so the first open is the results.json write
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert main(["metric", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "results.json").exists()
    err = capsys.readouterr().err.strip()
    assert err == "error: cannot write output: read-only"


def test_numerical_failure_exits_four(tmp_path, monkeypatch, capsys):
    import dataclasses

    import numpy as np

    from mfhjb import cli

    lq = cli.scenario("lq_drift")
    exploding = dataclasses.replace(lq, drift=lambda t, x, cloud, a: np.full_like(x, np.nan))
    monkeypatch.setattr(cli, "scenario", lambda name, params=None: exploding)
    code, _, res = run_cli(tmp_path, "simulate", {"n": 4, "steps": 5}, seed=0)
    assert code == 4 and res is None
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: numerical failure: non-finite state at step")
    assert len(err.splitlines()) == 1


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half a second to import; only Sobol rules use it
    src = str(Path(mfhjb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, mfhjb.cli; assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
