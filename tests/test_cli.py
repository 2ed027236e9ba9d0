import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import distbeam
from distbeam import cli, experiments, parse_config_text
from distbeam.cli import emit_reproduction_bundle, parse_and_dispatch
from distbeam.experiments import (
    CHANNEL_POLICIES,
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    INIT_MODES,
    ExperimentConfig,
    dump_config,
)


def read(path):
    return path.read_text(encoding="utf-8")


def manifest_dict(outdir):
    lines = read(outdir / "manifest.txt").strip().splitlines()
    return dict(line.split("=", 1) for line in lines)


def test_show_config_prints_materialized_defaults(capsys):
    assert parse_and_dispatch(["show-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config_text(text)
    assert cfg == ExperimentConfig()
    # deterministic rendering
    parse_and_dispatch(["show-config"])
    assert capsys.readouterr().out == text


def test_show_config_applies_overrides_and_seed(capsys):
    rc = parse_and_dispatch(
        ["show-config", "--n-s", "5,10", "--delta0", "pi/30", "--alpha", "0.5,0.9",
         "--seed", "77"]
    )
    assert rc == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.n_s_values == (5, 10)
    assert cfg.delta0 == pytest.approx(math.pi / 30)
    assert cfg.alpha == (0.5, 0.9)
    assert cfg.master_seed == 77


def test_config_file_and_flag_priority(tmp_path, capsys):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("trials=7\nmaster_seed=3\n", encoding="utf-8")
    rc = parse_and_dispatch(
        ["show-config", "--config", str(cfg_file), "--trials", "9"]
    )
    assert rc == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.trials == 9
    assert cfg.master_seed == 3


def test_unknown_flag_exits_1(capsys):
    assert parse_and_dispatch(["show-config", "--frobnicate", "1"]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_bad_value_exits_1_naming_key(capsys):
    assert parse_and_dispatch(["show-config", "--trials", "many"]) == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--P", "inf"),
        ("--P", "nan"),
        ("--sigma2", "inf"),
        ("--sigma2", "nan"),
        ("--delta0", "inf"),
        ("--delta0", "1e308"),
        ("--eps", "inf"),
        ("--eps", "nan"),
    ],
)
def test_non_finite_value_exits_1_naming_key(flag, value, tmp_path, capsys):
    rc = parse_and_dispatch(
        ["hitting-time", "--n-s", "4", "--trials", "2", flag, value,
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{flag[2:]} must" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_negative_seed_exits_1_naming_key(tmp_path, capsys):
    rc = parse_and_dispatch(
        ["hitting-time", "--n-s", "4", "--trials", "2", "--seed", "-1",
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "master_seed must" in err
    assert "Traceback" not in err


def test_huge_horizon_exits_1_naming_keys(tmp_path, capsys):
    # a sample-path budget run holds every step; no sweep holds per-step state
    rc = parse_and_dispatch(
        ["sample-path", "--n-s", "4", "--trials", "2", "--horizon", "100000000000",
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "trials=2" in err and "horizon=100000000000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv,key",
    [
        (["verify", "--check", "improvement", "--n-s", "10",
          "--samples", "1000000000000000"], "samples=1000000000000000"),
        (["hitting-time", "--n-s", "1000000000000000", "--trials", "1",
          "--horizon", "1"], "n_s=1000000000000000"),
        (["hitting-time", "--n-s", "100000000000000000000", "--trials", "1",
          "--horizon", "1"], "n_s=100000000000000000000"),
        (["sample-path", "--n-s", "4", "--trials", "2",
          "--horizon", "100000000000000000000"], "horizon=100000000000000000000"),
        (["sample-path", "--n-s", "4", "--trials", "2",
          "--horizon", "4611686018427387904"], "horizon=4611686018427387904"),
        (["hitting-time", "--n-s", "4", "--trials", "1000000000000000",
          "--horizon", "1"], "trials=1000000000000000"),
        (["sample-path", "--n-s", "4", "--trials", "1000000000000000",
          "--init-mode", "uniform", "--channel-policy", "fixed-across-trials"],
         "trials=1000000000000000"),
        (["verify", "--check", "increment", "--n-s", "4",
          "--horizon", "100000000000000000000"], "horizon=100000000000000000000"),
        # a noisy step draws 2 floats per averaging slot and row
        (["hitting-time", "--n-s", "2", "--trials", "2", "--sigma2", "0.1",
          "--averaging-slots", "100000000000000000000"],
         "averaging_slots=100000000000000000000"),
        (["hitting-time", "--n-s", "2", "--trials", "2", "--sigma2", "0.1",
          "--averaging-slots", "1000000000"], "averaging_slots=1000000000"),
    ],
    ids=["samples", "n_s", "n_s-beyond-int64", "horizon-beyond-int64", "horizon-2^62",
         "trials", "runs", "verify-increment-horizon", "averaging-slots-beyond-int64",
         "averaging-slots"],
)
def test_out_of_memory_exits_1_naming_sizes(argv, key, tmp_path, capsys):
    # each run is refused before its first allocation: its sizes exceed
    # physical memory
    rc = parse_and_dispatch(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _no_step(*args, **kwargs):
    raise AssertionError("the run started stepping")


@pytest.mark.parametrize(
    "argv,sizes",
    [
        (["verify", "--check", "improvement", "--n-s", "10", "--samples", "1000000000000000"],
         "n_s=10 samples=1000000000000000"),
        (["verify", "--check", "increment", "--n-s", "4", "--horizon", "100000000000000000000"],
         "n_s=4 horizon=100000000000000000000"),
        (["hitting-time", "--n-s", "4", "--trials", "1000000000000000", "--horizon", "1"],
         "n_s=4 trials=1000000000000000 horizon=1"),
        (["avg-convergence", "--n-s", "2", "--trials", "2", "--sigma2", "0.1",
          "--averaging-slots", "1000000000"],
         "n_s=2 trials=2 averaging_slots=1000000000 horizon=auto"),
    ],
    ids=["verify-improvement", "verify-increment", "noiseless-study", "noisy-study"],
)
def test_out_of_memory_names_only_the_sizes_the_run_reads(argv, sizes, tmp_path, capsys):
    assert parse_and_dispatch(argv + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: out of memory at {sizes}\n"


@pytest.mark.parametrize(
    "kind,slot_bytes",
    [pytest.param(kind, 16, id=kind) for kind in EXPERIMENT_KINDS]
    # a step's slot values and their magnitudes count beside its noise draw
    + [pytest.param("hitting-time", 40, id="hitting-time-slot-buffers")],
)
def test_noisy_runs_count_their_slot_noise(kind, slot_bytes, tmp_path, monkeypatch, capsys):
    # one step's slot_bytes per averaging slot for the two rows take twice
    # physical memory; the run is refused before it starts stepping
    slots = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // slot_bytes
    monkeypatch.setattr(experiments, "_run_lockstep", _no_step)
    rc = parse_and_dispatch(
        [kind, "--n-s", "2", "--trials", "2", "--sigma2", "0.1", "--averaging-slots", str(slots),
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert f"averaging_slots={slots}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv,key",
    [
        (["verify", "--check", "increment", "--n-s", "4", "--sigma2", "0.5"], "sigma2"),
        (["verify", "--n-s", "50,60"], "single n_s, got n_s=50,60"),
        (["sample-path", "--n-s", "5,10", "--horizon", "5"], "single n_s, got n_s=5,10"),
        # the first key, in config order, that the run does not read
        (["verify", "--check", "improvement", "--n-s", "6", "--sigma2", "0.5", "--trials", "7",
          "--channel-policy", "fixed-across-trials"], "does not read trials: got trials=7"),
        (["verify", "--n-s", "6", "--delta0", "pi/30"], "does not read delta0"),
        (["verify", "--check", "local-global", "--n-s", "2", "--init-mode", "uniform"],
         "does not read init_mode: got init_mode=uniform"),
        (["hitting-time", "--n-s", "4", "--eps", "0.3"], "does not read eps: got eps=0.3"),
        # slots average noisy estimates, so a noiseless run reads none
        (["hitting-time", "--n-s", "4,8", "--trials", "3", "--averaging-slots", "4"],
         "does not read averaging_slots: got averaging_slots=4"),
        (["avg-convergence", "--n-s", "4", "--eps", "0.3"], "does not read eps: got eps=0.3"),
        (["sample-path", "--n-s", "4", "--alpha", "0.3"], "does not read alpha: got alpha=0.3"),
        (["sample-path", "--config", "hitting-time.cfg"],
         "does not read alpha: got alpha=0.5,0.7,0.9"),
        # verify's own flags: --samples is read by improvement, --resolution by local-global
        (["verify", "--check", "increment", "--n-s", "4", "--samples", "5", "--resolution", "9"],
         "does not read resolution: got resolution=9"),
        (["verify", "--check", "shift-invariance", "--n-s", "4", "--samples", "0"],
         "does not read samples: got samples=0"),
    ],
    ids=["verify-increment-sigma2", "verify-n_s", "sample-path-n_s", "verify-improvement",
         "verify-shift-invariance", "verify-local-global", "hitting-time-eps",
         "hitting-time-noiseless-slots",
         "avg-convergence-eps", "sample-path-alpha", "sample-path-config",
         "verify-increment-flags", "verify-shift-invariance-samples"],
)
def test_settings_a_run_cannot_honour_exit_1_naming_key(argv, key, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(cli, "generate_channel", _no_step)
    monkeypatch.setattr(cli, "run_trajectory", _no_step)
    monkeypatch.setattr(experiments, "_run_lockstep", _no_step)
    # a hitting-time run's resolved.cfg
    cfg = tmp_path / "hitting-time.cfg"
    cfg.write_text(dump_config(ExperimentConfig(alpha=(0.5, 0.7, 0.9))), encoding="utf-8")
    argv = [str(cfg) if arg == cfg.name else arg for arg in argv]
    rc = parse_and_dispatch(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "x").exists()


def test_budget_sample_paths_count_their_row_objects_and_csv_text(tmp_path, monkeypatch,
                                                                  capsys):
    # the curve's floats take a quarter of physical memory; with the CSV text
    # of every value they do not fit
    horizon = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 32
    monkeypatch.setattr(experiments, "_run_lockstep", _no_step)
    rc = parse_and_dispatch(
        ["sample-path", "--n-s", "4", "--trials", "1", "--horizon", str(horizon),
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert f"horizon={horizon}" in err
    assert not (tmp_path / "x").exists()


def test_verify_improvement_counts_its_samples(tmp_path, monkeypatch, capsys):
    # one float a sample takes an eighth of physical memory; with the positive
    # improvements beside them they may not fit
    samples = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
    monkeypatch.setattr(cli, "estimate_improvement_probability", _no_step)
    rc = parse_and_dispatch(
        ["verify", "--check", "improvement", "--n-s", "10", "--samples", str(samples),
         "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: out of memory at n_s=10 samples={samples}\n"
    assert not (tmp_path / "x").exists()


def test_eps_sample_paths_count_the_runs_outside_the_region(tmp_path, monkeypatch, capsys):
    # the run starts outside a region it never enters, so it may store a
    # value at every step to the horizon; it is refused before its first step
    monkeypatch.setattr(experiments, "_lockstep", _no_step)
    rc = parse_and_dispatch(
        ["sample-path", "--n-s", "4", "--trials", "1", "--eps", "1e-12",
         "--horizon", "1000000000000", "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: out of memory at n_s=4 trials=1 horizon=1000000000000\n"
    assert not (tmp_path / "x").exists()


def test_verify_increment_counts_its_trajectory_step_objects(tmp_path, monkeypatch, capsys):
    # three floats a step take three quarters of physical memory; with the
    # trajectory's bits and its copies they do not fit
    horizon = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 32
    monkeypatch.setattr(cli, "run_trajectory", _no_step)
    rc = parse_and_dispatch(
        ["verify", "--check", "increment", "--n-s", "10", "--horizon", str(horizon),
         "--out", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert f"horizon={horizon}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags,seed",
    [
        (["--seed", "4"], 4),
        (["--master-seed", "4"], 4),
        (["--seed", "4", "--master-seed", "5"], 5),
        (["--master-seed", "5", "--seed", "4"], 4),
    ],
)
def test_seed_is_another_spelling_of_master_seed(flags, seed, tmp_path, capsys):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("master_seed=3\n", encoding="utf-8")
    assert parse_and_dispatch(["show-config", "--config", str(cfg_file), *flags]) == 0
    assert parse_config_text(capsys.readouterr().out).master_seed == seed


def test_bad_seed_exits_1_naming_master_seed(capsys):
    assert parse_and_dispatch(["show-config", "--seed", "x"]) == 1
    err = capsys.readouterr().err
    assert "bad value for config key 'master_seed'" in err
    assert "Traceback" not in err


def test_eps_stopped_sample_paths_are_not_refused_for_their_budget(tmp_path):
    # with one transmitter every run starts in the eps region and takes no step
    rc = parse_and_dispatch(["sample-path", "--n-s", "1", "--eps", "0.5", "--trials", "2",
                             "--init-mode", "uniform", "--channel-policy", "fixed-across-trials",
                             "--horizon", "100000000000000", "--out", str(tmp_path)])
    assert rc == 0
    assert read(tmp_path / "sample_paths.csv").count("\n") == 3


def test_sweeps_hold_no_horizon_sized_state(tmp_path):
    # both runs, and so their mean, cross 0.9 of the optimum by step 47, so
    # the batch stops after its first chunk whatever the horizon
    for kind in ("hitting-time", "avg-convergence"):
        argv = [kind, "--n-s", "4", "--trials", "2", "--seed", "2", "--out"]
        out = tmp_path / kind
        assert parse_and_dispatch(argv + [str(out / "auto")]) == 0
        assert parse_and_dispatch(argv + [str(out / "huge"), "--horizon", "1000000000000"]) == 0
        csv = kind.replace("-", "_") + ".csv"
        assert read(out / "huge" / csv) == read(out / "auto" / csv)


def test_out_of_memory_before_the_config_resolves_exits_1(monkeypatch, capsys):
    def load_config(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_config", load_config)
    assert parse_and_dispatch(["show-config", "--config", "big.cfg"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def _run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(distbeam.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "distbeam.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_m_runs_the_cli(tmp_path):
    ok = _run_module("show-config", "--seed", "4")
    assert ok.returncode == 0
    assert "master_seed=4\n" in ok.stdout
    assert "RuntimeWarning" not in ok.stderr
    bad = _run_module("hitting-time", "--seed", "-1", "--out", str(tmp_path / "x"))
    assert bad.returncode == 1
    assert "master_seed" in bad.stderr
    assert "Traceback" not in bad.stderr
    assert not (tmp_path / "x").exists()


def _not_in(choices):
    text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))
    return text.filter(lambda t: t.strip() not in choices)


def _floats_outside(ok):
    return st.floats().filter(lambda v: not ok(v)).map(repr)


_garbage = st.text(alphabet="xyzq", min_size=1)
_non_positive = st.integers(max_value=0).map(str)

# one strategy per schema key, drawing only values the config rejects
_INVALID_VALUES = {
    "kind": _not_in(EXPERIMENT_KINDS),
    "n_s": _garbage | _non_positive | st.integers(1, 100).map(lambda n: f"{n},{n}"),
    "trials": _garbage | _non_positive,
    "alpha": _garbage | _floats_outside(lambda a: 0 < a <= 1)
    | st.floats(0.0, 1.0, exclude_min=True).map(lambda a: f"{a!r},{a!r}"),
    "eps": _garbage | _floats_outside(lambda e: 0 < e < math.inf),
    "delta0": _garbage | _floats_outside(lambda d: 0 < d <= math.pi),
    "P": _garbage | _floats_outside(lambda p: 0 < p < math.inf),
    "sigma2": _garbage | _floats_outside(lambda s: 0 <= s < math.inf),
    "averaging_slots": _garbage | _non_positive,
    "init_mode": _not_in(INIT_MODES),
    "channel_policy": _not_in(CHANNEL_POLICIES),
    "horizon": _garbage | _non_positive,
    "master_seed": _garbage | st.integers(max_value=-1).map(str),
}


def test_invalid_strategies_cover_every_key():
    assert list(_INVALID_VALUES) == list(CONFIG_SCHEMA)


@given(st.sampled_from(list(CONFIG_SCHEMA)).flatmap(
    lambda key: st.tuples(st.just(key), _INVALID_VALUES[key])
))
@settings(max_examples=200, deadline=None)
def test_any_invalid_value_exits_1_naming_key(key_value):
    key, value = key_value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        if key == "kind":  # kind has no flag, only a config-file line
            cfg_file = Path(tmp) / "bad.cfg"
            cfg_file.write_text(f"kind={value}\n", encoding="utf-8")
            rc = parse_and_dispatch(["show-config", "--config", str(cfg_file)])
        else:
            rc = parse_and_dispatch(["show-config", f"--{key.replace('_', '-')}={value}"])
    assert rc == 1
    assert re.search(rf"\b{key}\b", err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("key", ["init_mode", "n_s", "master_seed"])
def test_lone_double_dash_value_exits_1_naming_key(capsys, key):
    assert parse_and_dispatch(["show-config", f"--{key.replace('_', '-')}=--"]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"\b{key}\b", err) and "'--'" in err


def test_noisy_summary_writes_plain_floats(tmp_path):
    out = tmp_path / "noisy"
    rc = parse_and_dispatch(
        ["hitting-time", "--n-s", "10,20,30", "--trials", "4", "--sigma2", "0.001",
         "--averaging-slots", "4", "--seed", "8", "--out", str(out)]
    )
    assert rc == 0
    summary = dict(line.split("=", 1) for line in read(out / "summary.txt").splitlines())
    assert 0.0 <= float(summary["increment_identity_max_dev"]) <= 1e-9


def test_missing_config_exits_1(capsys, tmp_path):
    missing = tmp_path / "nope.cfg"
    assert parse_and_dispatch(["show-config", "--config", str(missing)]) == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_invalid_config_value_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha=1.5\n", encoding="utf-8")
    assert parse_and_dispatch(["show-config", "--config", str(bad)]) == 1
    assert "alpha" in capsys.readouterr().err


def test_sample_path_bundle(tmp_path, capsys):
    out = tmp_path / "fig1"
    rc = parse_and_dispatch(
        ["sample-path", "--n-s", "6", "--delta0", "pi/30", "--trials", "3",
         "--init-mode", "uniform", "--channel-policy", "fixed-across-trials",
         "--horizon", "200", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    csv = read(out / "sample_paths.csv").splitlines()
    assert csv[0] == "step,run_id,mag"
    assert len(csv) == 1 + 3 * 201
    manifest = manifest_dict(out)
    assert manifest["seed"] == "5"
    assert manifest["config"] == "resolved.cfg"
    assert set(manifest["files"].split(",")) == {
        "resolved.cfg", "sample_paths.csv", "summary.txt"
    }
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args,csv_name,header,rows",
    [
        (["hitting-time", "--n-s", "4,8", "--trials", "10", "--alpha", "0.5,0.9",
          "--delta0", "pi/30", "--seed", "11"],
         "hitting_time.csv", "n_s,alpha,hitting_time,slope,intercept,r2", 1 + 4),
        (["avg-convergence", "--n-s", "4,8", "--trials", "10", "--alpha", "0.5,0.9",
          "--delta0", "pi/30", "--seed", "2"],
         "avg_convergence.csv", "n_s,alpha,mean_time,std_time,censored", 1 + 4),
        # origin init and per-trial channels: the resolved config, not a fixed
        # sample-path protocol, decides the runs
        (["sample-path", "--n-s", "5", "--trials", "4", "--horizon", "50", "--seed", "3"],
         "sample_paths.csv", "step,run_id,mag", 1 + 4 * 51),
    ],
    ids=["hitting-time", "avg-convergence", "sample-path"],
)
def test_rerun_from_resolved_cfg_is_byte_identical(args, csv_name, header, rows, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert parse_and_dispatch(args + ["--out", str(out1)]) == 0
    assert parse_and_dispatch(
        [args[0], "--config", str(out1 / "resolved.cfg"), "--out", str(out2)]
    ) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert read(out1 / name) == read(out2 / name), name
    csv = read(out1 / csv_name).splitlines()
    assert csv[0] == header
    assert len(csv) == rows


@pytest.mark.parametrize(
    "argv,code,line,summary",
    [
        (["sample-path", "--n-s", "4", "--trials", "2", "--horizon", "5", "--seed", "3"], 0,
         "sample-path: 2 runs, n_s=4, wrote {out}/sample_paths.csv\n",
         "subcommand=sample-path\nruns=2\nn_s=4\nsteps=5,5\n"
         "final_mags=2.2932359783673077,0.514134614909645\n"),
        (["sample-path", "--n-s", "4", "--trials", "2", "--eps", "0.5", "--init-mode", "uniform",
          "--channel-policy", "fixed-across-trials", "--delta0", "pi/30", "--horizon", "400",
          "--seed", "1"], 0,
         "sample-path: 2 runs, n_s=4, wrote {out}/sample_paths.csv\n",
         "subcommand=sample-path\nruns=2\nn_s=4\nsteps=64,2\n"
         "final_mags=3.0036294397221046,3.02082939842786\n"),
        (["sample-path", "--n-s", "8", "--delta0", "pi/90", "--trials", "2", "--init-mode",
          "uniform", "--channel-policy", "fixed-across-trials", "--eps", "0.001", "--horizon",
          "3", "--seed", "1"], 2,
         "sample-path: 2 runs, n_s=8, wrote {out}/sample_paths.csv\n",
         "subcommand=sample-path\nruns=2\nn_s=8\nsteps=3,3\n"
         "final_mags=2.7800095373241502,1.2767902734599679\n"),
        (["hitting-time", "--n-s", "4,8", "--trials", "3", "--alpha", "0.5,0.9", "--delta0",
          "pi/30", "--seed", "11"], 0,
         "hitting-time: 2 alphas x 2 n_s, 0 unresolved, wrote {out}/hitting_time.csv\n",
         "subcommand=hitting-time\nalphas=0.5,0.9\nn_s=4,8\ntrials=3\nunresolved=0\n"
         "increment_identity_max_dev=0.0\n"),
        (["hitting-time", "--n-s", "8", "--trials", "5", "--horizon", "2", "--alpha", "0.95",
          "--delta0", "pi/90"], 2,
         "hitting-time: 1 alphas x 1 n_s, 1 unresolved, wrote {out}/hitting_time.csv\n",
         "subcommand=hitting-time\nalphas=0.95\nn_s=8\ntrials=5\nunresolved=1\n"
         "increment_identity_max_dev=0.0\n"),
        (["avg-convergence", "--n-s", "4,8", "--trials", "3", "--alpha", "0.5,0.9", "--delta0",
          "pi/30", "--seed", "2"], 0,
         "avg-convergence: 2 alphas x 2 n_s, 0 censored, wrote {out}/avg_convergence.csv\n",
         "subcommand=avg-convergence\nalphas=0.5,0.9\nn_s=4,8\ntrials=3\ncensored_total=0\n"
         "increment_identity_max_dev=1.167688337778579e-16\n"),
        (["avg-convergence", "--n-s", "4", "--trials", "4", "--alpha", "0.9", "--delta0",
          "pi/30", "--horizon", "80", "--seed", "5"], 0,
         "avg-convergence: 1 alphas x 1 n_s, 2 censored, wrote {out}/avg_convergence.csv\n",
         "subcommand=avg-convergence\nalphas=0.9\nn_s=4\ntrials=4\ncensored_total=2\n"
         "increment_identity_max_dev=0.0\n"),
        (["avg-convergence", "--n-s", "8", "--trials", "4", "--horizon", "1", "--alpha",
          "0.99"], 2,
         "avg-convergence: 1 alphas x 1 n_s, 4 censored, wrote {out}/avg_convergence.csv\n",
         "subcommand=avg-convergence\nalphas=0.99\nn_s=8\ntrials=4\ncensored_total=4\n"
         "increment_identity_max_dev=0.0\n"),
    ],
    ids=["sample-path", "sample-path-eps-reached", "sample-path-eps-unreached",
         "hitting-time", "hitting-time-unresolved", "avg-convergence",
         "avg-convergence-some-censored", "avg-convergence-point-censored"],
)
def test_study_stdout_summary_and_exit_code(argv, code, line, summary, tmp_path, capsys):
    out = tmp_path / "o"
    assert parse_and_dispatch(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == line.format(out=out)
    assert read(out / "summary.txt") == summary


_NOISY_PINS = {
    ("hitting-time", "1"): (
        "n_s,alpha,hitting_time,slope,intercept,r2\n"
        "4,0.5,266,-5.500000000000002,288.0,1.0\n"
        "8,0.5,244,-5.500000000000002,288.0,1.0\n"
        "4,0.9,,nan,nan,nan\n"
        "8,0.9,,nan,nan,nan\n",
        "unresolved=2\nincrement_identity_max_dev=0.0\n"),
    ("hitting-time", "3"): (
        "n_s,alpha,hitting_time,slope,intercept,r2\n"
        "4,0.5,106,9.999999999999995,66.00000000000004,1.0\n"
        "8,0.5,146,9.999999999999995,66.00000000000004,1.0\n"
        "4,0.9,,nan,nan,nan\n"
        "8,0.9,,nan,nan,nan\n",
        "unresolved=2\nincrement_identity_max_dev=1.8446663539865262e-16\n"),
    ("avg-convergence", "1"): (
        "n_s,alpha,mean_time,std_time,censored\n"
        "4,0.5,0.0,0.0,2\n"
        "8,0.5,372.75,297.2152699083051,1\n"
        "4,0.9,nan,nan,5\n"
        "8,0.9,17.0,nan,4\n",
        "censored_total=12\nincrement_identity_max_dev=0.0\n"),
    ("avg-convergence", "3"): (
        "n_s,alpha,mean_time,std_time,censored\n"
        "4,0.5,108.4,159.3558910112833,0\n"
        "8,0.5,303.2,332.4239762712671,0\n"
        "4,0.9,nan,nan,5\n"
        "8,0.9,656.5,730.4413049657036,3\n",
        "censored_total=8\nincrement_identity_max_dev=1.8446663539865262e-16\n"),
}


@pytest.mark.parametrize("kind,slots", sorted(_NOISY_PINS),
                         ids=[f"{kind}-k{slots}" for kind, slots in sorted(_NOISY_PINS)])
def test_noisy_study_outputs_are_pinned(kind, slots, tmp_path):
    # sigma2 = 0.01 swamps n_s = 4: estimates start near the thresholds, so
    # some alphas stay unresolved or censored and exit 2
    csv, tail = _NOISY_PINS[kind, slots]
    out = tmp_path / "o"
    rc = parse_and_dispatch(
        [kind, "--n-s", "4,8", "--trials", "5", "--alpha", "0.5,0.9", "--sigma2", "0.01",
         "--averaging-slots", slots, "--seed", "3", "--out", str(out)]
    )
    assert rc == 2
    assert read(out / f"{kind.replace('-', '_')}.csv") == csv
    head = f"subcommand={kind}\nalphas=0.5,0.9\nn_s=4,8\ntrials=5\n"
    assert read(out / "summary.txt") == head + tail


def test_hitting_time_unresolved_exits_2(tmp_path, capsys):
    out = tmp_path / "starved"
    rc = parse_and_dispatch(
        ["hitting-time", "--n-s", "8", "--trials", "5", "--horizon", "2",
         "--alpha", "0.95", "--delta0", "pi/90", "--out", str(out)]
    )
    assert rc == 2
    assert "1 unresolved" in capsys.readouterr().out
    row = read(out / "hitting_time.csv").splitlines()[1]
    assert row.split(",")[2] == ""


def test_avg_convergence_bundle(tmp_path):
    out = tmp_path / "fig3"
    rc = parse_and_dispatch(
        ["avg-convergence", "--n-s", "4,8", "--trials", "10", "--alpha", "0.5,0.9",
         "--delta0", "pi/30", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    csv = read(out / "avg_convergence.csv").splitlines()
    assert csv[0] == "n_s,alpha,mean_time,std_time,censored"
    assert len(csv) == 1 + 4
    summary = read(out / "summary.txt")
    assert "censored_total=0" in summary
    assert "increment_identity_max_dev=" in summary


def test_avg_convergence_all_censored_exits_2(tmp_path):
    rc = parse_and_dispatch(
        ["avg-convergence", "--n-s", "8", "--trials", "4", "--horizon", "1",
         "--alpha", "0.99", "--out", str(tmp_path / "x")]
    )
    assert rc == 2


@pytest.mark.parametrize("check", ["shift-invariance", "local-global", "improvement", "increment"])
def test_verify_checks_pass_on_default_channel(check, tmp_path, capsys):
    args = ["verify", "--check", check, "--seed", "1", "--out", str(tmp_path / check)]
    if check == "local-global":
        args += ["--n-s", "2", "--resolution", "180"]
    elif check == "improvement":
        args += ["--n-s", "6", "--samples", "20000"]
    else:
        args += ["--n-s", "8"]
    rc = parse_and_dispatch(args)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[0].startswith("check=")
    report = read(tmp_path / check / f"verify_{check}.txt")
    assert report == out


def test_verify_improvement_needs_multiple_transmitters(tmp_path, capsys):
    rc = parse_and_dispatch(
        ["verify", "--check", "improvement", "--n-s", "1", "--seed", "0",
         "--out", str(tmp_path / "imp1")]
    )
    assert rc == 1
    assert "eps region" in capsys.readouterr().err


def test_sample_path_eps_stop_unreached_exits_2(tmp_path):
    rc = parse_and_dispatch(
        ["sample-path", "--n-s", "8", "--delta0", "pi/90", "--trials", "2",
         "--init-mode", "uniform", "--channel-policy", "fixed-across-trials",
         "--eps", "0.001", "--horizon", "3", "--seed", "1",
         "--out", str(tmp_path / "sp")]
    )
    assert rc == 2


def test_emit_reproduction_bundle_empty_results(tmp_path):
    cfg = ExperimentConfig(master_seed=4)
    manifest = emit_reproduction_bundle(cfg, {}, tmp_path / "empty")
    assert manifest["files"] == "resolved.cfg"
    assert manifest["seed"] == "4"
    assert (tmp_path / "empty" / "resolved.cfg").read_text(encoding="utf-8") == dump_config(cfg)
    assert sorted(p.name for p in (tmp_path / "empty").iterdir()) == [
        "manifest.txt", "resolved.cfg"
    ]


def test_bundle_manifest_hashes_every_file_once(tmp_path):
    cfg = ExperimentConfig()
    manifest = emit_reproduction_bundle(cfg, {"data.csv": "a,b\n1,2\n"}, tmp_path / "m")
    hashed = [k.removeprefix("sha256.") for k in manifest if k.startswith("sha256.")]
    assert sorted(hashed) == sorted(manifest["files"].split(","))
    assert len(hashed) == len(set(hashed)) == 2
