"""Command-line interface: presets, exit codes, output headers, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paleokalman
from paleokalman import __version__
from paleokalman.butterworth import signal_to_noise
from paleokalman.cli import (
    EXIT_DATA,
    EXIT_MISMATCH,
    EXIT_NO_CUTOFF,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _spec_from_flags,
    main,
)


def _write_raw(path, n=120, seed=7, sources=("Site A", "Site B"), d13c=True):
    """Synthetic raw CSV: random-walk levels plus noise, ages descending."""
    rng = np.random.default_rng(seed)
    ages = np.sort(rng.uniform(0.15, 3.4, size=n))[::-1]
    dts = -np.diff(ages)
    lvl1 = np.empty(n)
    lvl2 = np.empty(n)
    lvl1[0] = 0.0
    lvl2[0] = 1.0
    for i, dt in enumerate(dts):
        step = rng.standard_normal(2) * math.sqrt(1.5 * dt)
        lvl1[i + 1] = lvl1[i] + step[0]
        lvl2[i + 1] = lvl2[i] + step[1]
    obs1 = lvl1 + rng.standard_normal(n) * math.sqrt(0.2)
    obs2 = lvl2 + rng.standard_normal(n) * math.sqrt(0.2)
    lines = ["age_tuned,d18O,d13C,source,species"]
    for i in range(n):
        src = sources[i % len(sources)]
        cell2 = f"{obs2[i]:.6f}" if d13c else ""
        lines.append(f"{ages[i]:.6f},{obs1[i]:.6f},{cell2},{src},Cibicidoides spp.")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    return _write_raw(tmp_path_factory.mktemp("cli") / "data.csv")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, raw_csv):
    """A pooled fit JSON shared by the smooth/impute/gain tests."""
    out = tmp_path_factory.mktemp("cli-fit") / "fit.json"
    code = main(["fit", "--data", str(raw_csv), "--out", str(out)])
    assert code == EXIT_OK
    return out


def _parse(argv):
    return _build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# preset / flag resolution
# ---------------------------------------------------------------------------


def test_preset_rwn_defaults():
    spec = _spec_from_flags(_parse(["fit", "--data", "x.csv"]))
    assert spec.arity == "univariate-series1"
    assert spec.order_m == 1
    assert spec.meas_grouping == "pooled"
    assert spec.trans_grouping == "pooled"
    assert spec.corr_grouping is None


def test_preset_rwn_series2():
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--series", "d13C"]))
    assert spec.arity == "univariate-series2"


@pytest.mark.parametrize(
    "preset,meas,trans",
    [
        ("rwn-source", "by-source", "pooled"),
        ("rwn-species", "by-species", "pooled"),
        ("rwn-climate", "pooled", "by-climate-state"),
    ],
)
def test_preset_groupings(preset, meas, trans):
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--model", preset]))
    assert spec.meas_grouping == meas
    assert spec.trans_grouping == trans


def test_preset_biv():
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--model", "biv"]))
    assert spec.arity == "bivariate"
    assert spec.corr_grouping == "pooled"


def test_preset_biv_full():
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--model", "biv-full"]))
    assert spec.meas_grouping == "by-source"
    assert spec.trans_grouping == "by-climate-state"
    assert spec.corr_grouping == "by-climate-state"


def test_preset_irw_order():
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--model", "irw"]))
    assert spec.order_m == 2
    spec = _spec_from_flags(
        _parse(["fit", "--data", "x", "--model", "irw", "--order", "3"])
    )
    assert spec.order_m == 3


def test_grouping_override_flags():
    spec = _spec_from_flags(_parse(["fit", "--data", "x", "--meas-source"]))
    assert spec.meas_grouping == "by-source"
    spec = _spec_from_flags(
        _parse(["fit", "--data", "x", "--model", "biv", "--corr-climate"])
    )
    assert spec.corr_grouping == "by-climate-state"


def test_usage_series_both_on_univariate(capsys):
    code = main(["fit", "--data", "x.csv", "--series", "both"])
    assert code == EXIT_USAGE
    assert "univariate" in capsys.readouterr().err


def test_usage_series_on_bivariate(capsys):
    code = main(["fit", "--data", "x.csv", "--model", "biv", "--series", "d18O"])
    assert code == EXIT_USAGE
    assert "drop --series" in capsys.readouterr().err


def test_usage_meas_flags_conflict(capsys):
    code = main(["fit", "--data", "x.csv", "--meas-source", "--meas-species"])
    assert code == EXIT_USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_usage_corr_climate_needs_bivariate(capsys):
    code = main(["fit", "--data", "x.csv", "--corr-climate"])
    assert code == EXIT_USAGE


def test_usage_unknown_flag(capsys):
    assert main(["fit", "--data", "x.csv", "--bogus"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_usage_missing_required(capsys):
    assert main(["fit"]) == EXIT_USAGE


def test_usage_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


# Out-of-range flags are usage errors, found before any file is read: the
# data and fit paths below do not exist, which would otherwise exit 65.


@pytest.mark.parametrize(
    "command, order",
    [("fit", "0"), ("fit", "9"), ("gain", "0"), ("gain", "9"), ("gain", "600")],
    ids=["0", "9", "gain-0", "gain-9", "gain-600"],
)
def test_usage_fit_order_out_of_range(tmp_path, capsys, command, order):
    if command == "fit":
        argv = ["fit", "--data", str(tmp_path / "none.csv"), "--order", order]
    else:
        argv = ["gain", "--q", "0.5", "--order", order, "--out", str(tmp_path / "g.csv")]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing computed or printed first
    assert "argument --order: must be in [1, 8]" in captured.err
    assert not (tmp_path / "g.csv").exists()


def test_usage_fit_starts_zero(tmp_path, capsys):
    argv = ["fit", "--data", str(tmp_path / "none.csv"), "--starts", "0"]
    assert main(argv) == EXIT_USAGE
    assert "argument --starts: must be at least 1" in capsys.readouterr().err


def test_usage_fit_seed_negative(tmp_path, capsys):
    argv = ["fit", "--data", str(tmp_path / "none.csv"), "--seed", "-1"]
    assert main(argv) == EXIT_USAGE
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_usage_fit_eval_budget_below_one(tmp_path, capsys, budget):
    argv = ["fit", "--data", str(tmp_path / "none.csv"), "--eval-budget", budget]
    assert main(argv) == EXIT_USAGE
    assert "argument --eval-budget: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("mesh", ["0", "-5", "nan"])
def test_usage_impute_mesh_years_not_positive(tmp_path, capsys, mesh):
    argv = [
        "impute", "--data", str(tmp_path / "none.csv"), "--fit", str(tmp_path / "none.json"),
        "--mesh-years", mesh,
    ]
    assert main(argv) == EXIT_USAGE
    assert "argument --mesh-years: must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["nan", "0", "-1"])
def test_usage_gain_q_not_positive(capsys, q):
    assert main(["gain", "--q", q]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing computed or printed first
    assert "argument --q: must be a positive number" in captured.err


def test_usage_gain_samples_below_two(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["gain", "--q", "0.5", "--samples", "1", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing computed or printed first
    assert "argument --samples: must be at least 2" in captured.err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.optimize takes ~0.5 s to import and only fit runs it, so smooth,
    # impute and gain do without it
    src = str(Path(paleokalman.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, paleokalman.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_happy_path(raw_csv, fitted, capsys):
    payload = json.loads(fitted.read_text(encoding="utf-8"))
    assert payload["converged"] is True
    assert payload["model"]["arity"] == "univariate-series1"
    assert len(payload["params"]) == 2
    assert payload["layout_hash"]
    meta = payload["meta"]
    assert meta["tool"] == "paleokalman"
    assert meta["version"] == __version__
    assert meta["invocation"].startswith("paleokalman fit --data ")
    assert meta["data_rows"] == 120


def test_fit_stdout_summary(raw_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(raw_csv), "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "sigma_eta2.d18O" in text
    assert "loglik" in text and "BIC" in text
    assert "converged true" in text
    assert f"wrote {out}" in text


def test_fit_rerun_is_byte_identical(raw_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    argv = ["fit", "--data", str(raw_csv), "--out", str(out), "--seed", "3"]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first


def test_fit_budget_exhausted_exits_2(raw_csv, tmp_path, capsys):
    # the fit converges in 7 evals; 5 runs out during the BFGS run
    out = tmp_path / "fit.json"
    code = main(
        ["fit", "--data", str(raw_csv), "--out", str(out), "--eval-budget", "5"]
    )
    assert code == EXIT_NOT_CONVERGED
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["converged"] is False
    assert "note:" in capsys.readouterr().out


def test_fit_budget_exhausted_in_the_curvature_probes_exits_2(raw_csv, tmp_path, capsys):
    # d = 2: the start and one of the two probes before BFGS's first step
    out = tmp_path / "fit.json"
    code = main(
        ["fit", "--data", str(raw_csv), "--out", str(out), "--eval-budget", "2"]
    )
    assert code == EXIT_NOT_CONVERGED
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["converged"] is False
    assert all(p["se"] is None for p in payload["params"])
    assert "budget" in capsys.readouterr().out


def test_fit_with_rho_on_the_boundary_exits_2(tmp_path, capsys, monkeypatch):
    # CI's console-script record: the d13C trend is the d18O trend halved,
    # so the correlation's optimum is the boundary |rho| = 1. The BFGS run
    # stops there on its own gradient tolerance, since d rho / d atanh(rho)
    # vanishes, yet the fit is unconverged (exit 2) with the boundary note,
    # in under 100 iterations
    rng = np.random.default_rng(6)
    ages = np.sort(rng.uniform(0.2, 4.0, size=150))[::-1]
    level = np.cumsum(rng.standard_normal(150) * 0.25)
    lines = ["age_tuned,d18O,d13C,source,species"]
    for i, age in enumerate(ages):
        src = "Site A" if i % 2 else "Site B"
        d18o = level[i] + rng.standard_normal() * 0.15
        d13c = level[i] * 0.5 + rng.standard_normal() * 0.2
        lines.append(f"{age:.5f},{d18o:.4f},{d13c:.4f},{src},Cibicidoides spp.")
    record = tmp_path / "record.csv"
    record.write_text("\n".join(lines) + "\n", encoding="utf-8")
    polish = paleokalman.fitting._polish
    runs = []

    def recorded(obj, phi):
        runs.append(polish(obj, phi))
        return runs[-1]

    monkeypatch.setattr(paleokalman.fitting, "_polish", recorded)
    out = tmp_path / "fit-biv.json"
    code = main(["fit", "--data", str(record), "--model", "biv", "--out", str(out)])
    text = capsys.readouterr().out
    assert [conv for _, _, conv, _ in runs] == [True]
    assert code == EXIT_NOT_CONVERGED
    assert "the correlation is at the boundary |rho| = 1" in text
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["converged"] is False and payload["iterations"] < 100


def test_fit_missing_file_exits_65(tmp_path, capsys):
    code = main(
        ["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f")]
    )
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["fit", "--data", "{dir}", "--out", "{dir}/f"], ["gain", "--q", "0.5", "--out", "{dir}"]],
    ids=["data", "out"],
)
def test_directory_path_exits_65(tmp_path, capsys, argv):
    # a directory in place of a file is an OSError, but not FileNotFoundError
    code = main([arg.format(dir=tmp_path) for arg in argv])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_fit_malformed_csv_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("age_tuned,d18O\n1.0,2.0\n", encoding="utf-8")
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "f")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("quote", ["", '"'])
def test_fit_field_over_the_csv_limit_exits_65(tmp_path, capsys, quote):
    # csv.reader's own error is a data error naming the line, with no
    # traceback
    bad = tmp_path / "bad.csv"
    label = quote + "x" * 200_000 + quote
    bad.write_text(
        f"age_tuned,d18O,d13C,source,species\n3.0,1.0,,{label},x\n", encoding="utf-8"
    )
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "f")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: field larger than field limit")
    assert "Traceback" not in err


def test_fit_fifth_slot_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    lines = ["age_tuned,d18O,d13C,source,species", "3.0,1.0,,s,x"]
    lines += [f"2.0,{v},,s,x" for v in (1.0, 1.1, 1.2, 1.3, 1.4)]
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "f")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "more than 4 simultaneous values for series d18O at stamp -2.0" in err


def test_fit_age_out_of_domain_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "age_tuned,d18O,d13C,source,species\n71.0,1.0,,s,x\n", encoding="utf-8"
    )
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "f")])
    assert code == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# smooth
# ---------------------------------------------------------------------------


def test_smooth_happy_path(raw_csv, fitted, tmp_path, capsys):
    out = tmp_path / "states.csv"
    argv = ["smooth", "--data", str(raw_csv), "--fit", str(fitted), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "smoothed 120 rows" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# paleokalman {__version__} -- paleokalman " + " ".join(argv)
    assert lines[1].startswith("stamp,mean.d18O.level,var.d18O.level")
    assert len(lines) == 2 + 120


def test_smooth_negative_smoothed_variance_exits_65(raw_csv, fitted, tmp_path, capsys, monkeypatch):
    from paleokalman import kalman
    from paleokalman.ingest import ingest

    smooth_ = kalman.smooth

    def smooth_with_negative_variance(run):
        paths = smooth_(run)
        paths.smoothed_covs[3:, 0, 0] = -1.0
        return paths

    monkeypatch.setattr(kalman, "smooth", smooth_with_negative_variance)
    out = tmp_path / "states.csv"
    argv = ["smooth", "--data", str(raw_csv), "--fit", str(fitted), "--out", str(out)]
    assert main(argv) == EXIT_DATA
    stamp = float(ingest(raw_csv)[0].view.stamps[3])
    assert f"negative smoothed variance -1.0 of d18O.level at stamp {stamp!r}" in capsys.readouterr().err
    assert not out.exists()


def test_smooth_nan_smoothed_variance_exits_65(raw_csv, fitted, tmp_path, capsys, monkeypatch):
    from paleokalman import kalman
    from paleokalman.ingest import ingest

    smooth_ = kalman.smooth

    def smooth_with_nan_variance(run):
        paths = smooth_(run)
        paths.smoothed_covs[3:, 0, 0] = math.nan
        return paths

    monkeypatch.setattr(kalman, "smooth", smooth_with_nan_variance)
    out = tmp_path / "states.csv"
    argv = ["smooth", "--data", str(raw_csv), "--fit", str(fitted), "--out", str(out)]
    assert main(argv) == EXIT_DATA
    stamp = float(ingest(raw_csv)[0].view.stamps[3])
    assert f"NaN smoothed variance nan of d18O.level at stamp {stamp!r}" in capsys.readouterr().err
    assert not out.exists()


_MISMATCH = "error: fit file does not match this data/model (layout differs)\n"


def _fit_with_estimates(fitted, tmp_path, estimate):
    # the fitted file with every estimate set to estimate
    payload = json.loads(fitted.read_text(encoding="utf-8"))
    for param in payload["params"]:
        param["estimate"] = estimate
    path = tmp_path / "estimates.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["smooth", "impute"])
def test_conditioning_error_exits_65(raw_csv, fitted, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    # every estimate near the largest float: the filter's first innovation
    # variance after the diffuse phase overflows to inf
    argv = [command, "--data", str(raw_csv), "--fit", str(_fit_with_estimates(fitted, tmp_path, 1e308))]
    if command == "impute":
        argv += ["--mesh-years", "100000"]
    assert main(argv + ["--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: row 1: innovation variance inf at slot column 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["smooth", "impute"])
def test_subnormal_estimates_exit_65(raw_csv, fitted, tmp_path, capsys, command):
    # every estimate the smallest subnormal: the filter's first innovation
    # variance after the diffuse phase is subnormal, a ConditioningError
    # raised before any division overflows (pyproject makes a warning fail)
    out = tmp_path / "out.csv"
    argv = [command, "--data", str(raw_csv), "--fit", str(_fit_with_estimates(fitted, tmp_path, 5e-324))]
    if command == "impute":
        argv += ["--mesh-years", "100000"]
    assert main(argv + ["--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: row 1: innovation variance 1e-323 at slot column 0\n"
    assert not out.exists()


def _without_model(payload):
    del payload["model"]
    return json.dumps(payload)


def _without_an_estimate(payload):
    del payload["params"][0]["estimate"]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "make_text",
    [
        _without_model,
        _without_an_estimate,
        lambda payload: json.dumps([payload]),  # not an object
        lambda payload: json.dumps({**payload, "model": "rwn"}),
        lambda payload: json.dumps(payload)[:-1],  # not JSON
    ],
    ids=["no-model", "no-estimate", "list", "model-string", "truncated"],
)
@pytest.mark.parametrize("command", ["smooth", "impute", "gain"])
def test_malformed_fit_file_exits_65(raw_csv, fitted, tmp_path, capsys, command, make_text):
    path = tmp_path / "malformed.json"
    path.write_text(make_text(json.loads(fitted.read_text(encoding="utf-8"))), encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [command, "--data", str(raw_csv), "--fit", str(path), "--out", str(out)]
    argv += {"impute": ["--mesh-years", "100000"], "gain": ["--mean-dt", "0.01"]}.get(command, [])
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed fit file {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_smooth_layout_mismatch_exits_66(tmp_path, capsys):
    csv_a = _write_raw(tmp_path / "a.csv", n=40, sources=("Site A", "Site B"))
    csv_b = _write_raw(
        tmp_path / "b.csv", n=40, sources=("Site A", "Site B", "Site C")
    )
    fit_a = tmp_path / "fit_a.json"
    assert (
        main(
            [
                "fit",
                "--data",
                str(csv_a),
                "--model",
                "rwn-source",
                "--out",
                str(fit_a),
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    code = main(
        [
            "smooth",
            "--data",
            str(csv_b),
            "--fit",
            str(fit_a),
            "--out",
            str(tmp_path / "s.csv"),
        ]
    )
    assert code == EXIT_MISMATCH
    assert capsys.readouterr().err == _MISMATCH


def test_smooth_missing_fit_file_exits_65(raw_csv, tmp_path, capsys):
    code = main(
        [
            "smooth",
            "--data",
            str(raw_csv),
            "--fit",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "s.csv"),
        ]
    )
    assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# impute
# ---------------------------------------------------------------------------


def test_impute_default_span(raw_csv, fitted, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = [
        "impute",
        "--data",
        str(raw_csv),
        "--fit",
        str(fitted),
        "--mesh-years",
        "100000",
        "--out",
        str(out),
    ]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    # oldest age is ~3.4 MYA so the default span is [3, 0] at 0.1 My spacing
    assert "N_g = 30" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(f"# paleokalman {__version__} -- ")
    assert lines[1] == "stamp_mya,mean_d18O,sd_d18O"
    assert len(lines) == 2 + 30
    first = lines[2].split(",")
    assert float(first[0]) == -3.0


def test_impute_explicit_span(raw_csv, fitted, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "impute",
            "--data",
            str(raw_csv),
            "--fit",
            str(fitted),
            "--mesh-years",
            "50000",
            "--span-start",
            "2.0",
            "--span-end",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert "N_g = 20" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 20
    assert float(lines[2].split(",")[0]) == -2.0


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("flag", ["--span-start", "--span-end"])
def test_impute_span_out_of_range_exits_64(raw_csv, fitted, tmp_path, capsys, flag, value):
    out = tmp_path / "grid.csv"
    argv = [
        "impute", "--data", str(raw_csv), "--fit", str(fitted),
        "--mesh-years", "50000", flag, value, "--out", str(out),
    ]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing computed or printed first
    assert f"argument {flag}: must be a non-negative finite number" in captured.err
    assert not out.exists()


def test_impute_grid_over_the_point_limit_exits_64(raw_csv, fitted, tmp_path, capsys):
    # 6.7e10 stamps of a 1e-3-year mesh over 67 My: one line, and no grid
    # is built
    out = tmp_path / "grid.csv"
    argv = [
        "impute", "--data", str(raw_csv), "--fit", str(fitted),
        "--mesh-years", "1e-3", "--span-start", "67", "--out", str(out),
    ]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: a mesh of 0.001 years over the 67000000.0-year span gives "
        "67000000000 grid points, more than 10000000\n"
    )
    assert not out.exists()


def test_impute_reversed_span_exits_64(tmp_path, capsys):
    # a usage error, found before any file is read: the paths do not exist
    out = tmp_path / "grid.csv"
    argv = [
        "impute", "--data", str(tmp_path / "none.csv"), "--fit", str(tmp_path / "none.json"),
        "--mesh-years", "50000", "--span-start", "0.5", "--span-end", "1.0", "--out", str(out),
    ]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --span-start 0.5 must be older than --span-end 1.0\n"
    assert not out.exists()


def test_impute_span_end_older_than_the_data_exits_65(raw_csv, fitted, tmp_path, capsys):
    # without --span-start the span starts at the data's oldest whole My
    # (3 here), so a later --span-end is found only after reading the data
    out = tmp_path / "grid.csv"
    argv = [
        "impute", "--data", str(raw_csv), "--fit", str(fitted),
        "--mesh-years", "50000", "--span-end", "3.5", "--out", str(out),
    ]
    assert main(argv) == EXIT_DATA
    assert "error: need finite span_start > span_end >= 0, got (3.0, 3.5)" in capsys.readouterr().err
    assert not out.exists()


def _passes_with_every_variance(value):
    # kalman._passes with every entry of the backward pass's covariances
    # set to value, so that every row's smoothed level variance is value
    from array import array

    from paleokalman import kalman

    passes = kalman._passes

    def patched(cm, h):
        X, XV, A, steps = passes(cm, h)
        return X, array("d", [value] * len(XV)), A, steps

    return patched


def test_impute_negative_smoothed_variance_exits_65(raw_csv, fitted, tmp_path, capsys, monkeypatch):
    from paleokalman import kalman

    monkeypatch.setattr(kalman, "_passes", _passes_with_every_variance(-1.0))
    out = tmp_path / "grid.csv"
    argv = ["impute", "--data", str(raw_csv), "--fit", str(fitted), "--mesh-years", "100000", "--out", str(out)]
    assert main(argv) == EXIT_DATA
    assert "negative smoothed variance -1.0 of d18O at grid stamp -3.0" in capsys.readouterr().err
    assert not out.exists()


def test_impute_nan_smoothed_variance_exits_65(raw_csv, fitted, tmp_path, capsys, monkeypatch):
    from paleokalman import kalman

    monkeypatch.setattr(kalman, "_passes", _passes_with_every_variance(math.nan))
    out = tmp_path / "grid.csv"
    argv = ["impute", "--data", str(raw_csv), "--fit", str(fitted), "--mesh-years", "100000", "--out", str(out)]
    assert main(argv) == EXIT_DATA
    assert "NaN smoothed variance nan of d18O at grid stamp -3.0" in capsys.readouterr().err
    assert not out.exists()


def test_impute_layout_mismatch_exits_66(raw_csv, fitted, tmp_path, capsys):
    csv_b = _write_raw(tmp_path / "b.csv", n=40, seed=9, d13c=False)
    fit_b = tmp_path / "fit_b.json"
    assert (
        main(
            [
                "fit",
                "--data",
                str(csv_b),
                "--model",
                "rwn-source",
                "--out",
                str(fit_b),
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    # three-source data against the two-source fit
    csv_c = _write_raw(
        tmp_path / "c.csv", n=40, seed=9, sources=("Site A", "Site B", "Site C")
    )
    code = main(
        [
            "impute",
            "--data",
            str(csv_c),
            "--fit",
            str(fit_b),
            "--mesh-years",
            "100000",
            "--out",
            str(tmp_path / "g.csv"),
        ]
    )
    assert code == EXIT_MISMATCH
    assert capsys.readouterr() == ("", _MISMATCH)


def _without_layout_hash(path, out):
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["layout_hash"]
    out.write_text(json.dumps(payload), encoding="utf-8")
    return out


@pytest.mark.parametrize("command", ["smooth", "impute"])
def test_hashless_fit_on_relabelled_groups_exits_66(raw_csv, tmp_path, capsys, command):
    # a by-source fit file written without its layout_hash is checked by
    # its spec and its parameter names and groups: the same record with
    # its sources renamed has the same names but other groups
    fit_source = tmp_path / "fit-source.json"
    assert main(["fit", "--data", str(raw_csv), "--model", "rwn-source", "--out", str(fit_source)]) == EXIT_OK
    hashless = _without_layout_hash(fit_source, tmp_path / "hashless.json")
    relabelled = _write_raw(tmp_path / "relabelled.csv", sources=("Site C", "Site D"))
    extra = ["--mesh-years", "100000"] if command == "impute" else []
    out = tmp_path / "out.csv"
    assert main([command, "--data", str(raw_csv), "--fit", str(hashless), *extra, "--out", str(out)]) == EXIT_OK
    out.unlink()
    capsys.readouterr()
    for fit_file in (fit_source, hashless):
        argv = [command, "--data", str(relabelled), "--fit", str(fit_file), *extra, "--out", str(out)]
        assert main(argv) == EXIT_MISMATCH
        assert capsys.readouterr() == ("", _MISMATCH)
        assert not out.exists()


# ---------------------------------------------------------------------------
# gain
# ---------------------------------------------------------------------------


def test_gain_explicit_q(tmp_path, capsys):
    out = tmp_path / "gain.csv"
    code = main(["gain", "--q", "0.25", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "q = 0.25" in text
    assert "lambda_h = " in text
    assert "half-gain lambda (order 1)" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# paleokalman ")
    assert lines[1] == "lambda,gain"
    assert len(lines) == 2 + 1024


@pytest.mark.parametrize("q", ["5.0", "inf"])
def test_gain_no_finite_cutoff_exits_3(capsys, q):
    code = main(["gain", "--q", q])
    assert code == EXIT_NO_CUTOFF
    assert "no finite cutoff" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize("flag", ["--sigma-eta2", "--sigma-eps2", "--mean-dt"])
def test_gain_input_not_positive_finite_exits_64(capsys, flag, value):
    values = {"--sigma-eta2": "1.8", "--sigma-eps2": "0.02", "--mean-dt": "0.00283"}
    values[flag] = value
    argv = ["gain"] + [text for pair in values.items() for text in pair]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # no q, no cutoff printed
    assert f"argument {flag}: must be a positive finite number" in captured.err


def test_gain_from_fit_rejects_infinite_mean_dt(fitted, capsys):
    assert main(["gain", "--fit", str(fitted), "--mean-dt", "inf"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_gain_from_variances(capsys):
    code = main(
        [
            "gain",
            "--sigma-eta2",
            "1.8",
            "--sigma-eps2",
            "0.02",
            "--mean-dt",
            "0.00283",
        ]
    )
    assert code == EXIT_OK
    q = signal_to_noise(1.8, 0.02, 0.00283)
    assert f"q = {q:.6g}" in capsys.readouterr().out


def test_gain_from_fit_needs_mean_dt(fitted, capsys):
    code = main(["gain", "--fit", str(fitted)])
    assert code == EXIT_USAGE
    assert "--mean-dt" in capsys.readouterr().err


def test_gain_from_fit_with_mean_dt(fitted, capsys):
    code = main(["gain", "--fit", str(fitted), "--mean-dt", "0.003"])
    assert code == EXIT_OK
    assert "q = " in capsys.readouterr().out


def test_gain_from_fit_writes_plain_floats(fitted, tmp_path, capsys):
    # q from a fit's estimates is a numpy float, and so is every gain it
    # gives; the CSV holds each sample as a float's repr all the same
    out = tmp_path / "gain.csv"
    assert main(["gain", "--fit", str(fitted), "--mean-dt", "0.003", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[2:]]
    assert len(rows) == 1024 and rows[0] == ["0.0", "1.0"]
    assert all(field == repr(float(field)) for row in rows for field in row)


def test_gain_from_fit_with_data(raw_csv, fitted, capsys):
    code = main(["gain", "--fit", str(fitted), "--data", str(raw_csv)])
    assert code == EXIT_OK


def test_gain_grouped_fit_rejected(tmp_path, capsys):
    csv = _write_raw(tmp_path / "d.csv", n=40)
    fit_path = tmp_path / "fit.json"
    assert (
        main(
            ["fit", "--data", str(csv), "--model", "rwn-source", "--out", str(fit_path)]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    code = main(["gain", "--fit", str(fit_path), "--mean-dt", "0.01"])
    assert code == EXIT_USAGE
    assert "grouped variances" in capsys.readouterr().err


def test_gain_bivariate_fit_rejected(tmp_path, capsys):
    # a pooled bivariate fit has one trend and one measurement variance per
    # series, so no one q; its variances are not grouped
    csv = _write_raw(tmp_path / "d.csv", n=40)
    fit_path = tmp_path / "fit.json"
    code = main(["fit", "--data", str(csv), "--model", "biv", "--out", str(fit_path)])
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
    capsys.readouterr()
    code = main(["gain", "--fit", str(fit_path), "--mean-dt", "0.01"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: the fit has two series; pass --q or refit one series\n"
    )


def test_gain_no_inputs_exits_64(capsys):
    assert main(["gain"]) == EXIT_USAGE


def test_gain_samples_flag(tmp_path, capsys):
    out = tmp_path / "gain.csv"
    code = main(["gain", "--q", "1.0", "--order", "2", "--samples", "64", "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2 + 64


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_bivariate(tmp_path, capsys):
    """fit -> smooth -> impute round trip with the bivariate preset."""
    csv = _write_raw(tmp_path / "p.csv", n=80, seed=11)
    fit_path = tmp_path / "fit.json"
    code = main(
        ["fit", "--data", str(csv), "--model", "biv", "--out", str(fit_path)]
    )
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
    payload = json.loads(fit_path.read_text(encoding="utf-8"))
    names = [p["name"] for p in payload["params"]]
    assert "rho" in names

    states = tmp_path / "states.csv"
    assert main(["smooth", "--data", str(csv), "--fit", str(fit_path), "--out", str(states)]) == EXIT_OK
    header = states.read_text(encoding="utf-8").splitlines()[1]
    assert "mean.d18O.level" in header and "mean.d13C.level" in header

    grid = tmp_path / "grid.csv"
    assert (
        main(
            [
                "impute",
                "--data",
                str(csv),
                "--fit",
                str(fit_path),
                "--mesh-years",
                "200000",
                "--out",
                str(grid),
            ]
        )
        == EXIT_OK
    )
    cols = grid.read_text(encoding="utf-8").splitlines()[1]
    assert cols == "stamp_mya,mean_d18O,sd_d18O,mean_d13C,sd_d13C"
