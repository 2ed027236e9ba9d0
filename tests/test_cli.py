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
from distbeam import cli, parse_and_dispatch, parse_config_text
from distbeam.cli import emit_reproduction_bundle
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
    rc = parse_and_dispatch(
        ["hitting-time", "--n-s", "4", "--trials", "2", "--horizon", "100000000000",
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
        (["hitting-time", "--n-s", "4", "--trials", "1",
          "--horizon", "100000000000000000000"], "horizon=100000000000000000000"),
        (["hitting-time", "--n-s", "4", "--trials", "2",
          "--horizon", "4611686018427387904"], "horizon=4611686018427387904"),
        (["hitting-time", "--n-s", "4", "--trials", "1000000000000000",
          "--horizon", "1"], "trials=1000000000000000"),
        (["sample-path", "--n-s", "4", "--runs", "1000000000000000"],
         "runs=1000000000000000"),
    ],
    ids=["samples", "n_s", "n_s-beyond-int64", "horizon-beyond-int64", "horizon-2^62",
         "trials", "runs"],
)
def test_out_of_memory_exits_1_naming_sizes(argv, key, tmp_path, capsys):
    # each run is refused before its first allocation: 10^15 samples exceed a
    # 48-bit address space, and the other sizes exceed physical memory
    rc = parse_and_dispatch(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert "Traceback" not in err
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
    rc = parse_and_dispatch(["sample-path", "--n-s", "1", "--eps", "0.5", "--runs", "2",
                             "--horizon", "100000000000000", "--out", str(tmp_path)])
    assert rc == 0
    assert read(tmp_path / "sample_paths.csv").count("\n") == 3


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
    "alpha": _garbage | _floats_outside(lambda a: 0 < a <= 1),
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
        ["sample-path", "--n-s", "6", "--delta0", "pi/30", "--runs", "3",
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


def test_hitting_time_bundle_and_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["hitting-time", "--n-s", "4,8", "--trials", "10", "--alpha", "0.5,0.9",
            "--delta0", "pi/30", "--seed", "11"]
    assert parse_and_dispatch(args + ["--out", str(out1)]) == 0
    assert parse_and_dispatch(
        ["hitting-time", "--config", str(out1 / "resolved.cfg"), "--out", str(out2)]
    ) == 0
    assert read(out1 / "hitting_time.csv") == read(out2 / "hitting_time.csv")
    assert read(out1 / "resolved.cfg") == read(out2 / "resolved.cfg")
    assert manifest_dict(out1) == manifest_dict(out2)
    csv = read(out1 / "hitting_time.csv").splitlines()
    assert csv[0] == "n_s,alpha,hitting_time,slope,intercept,r2"
    assert len(csv) == 1 + 4


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
        ["sample-path", "--n-s", "8", "--delta0", "pi/90", "--runs", "2",
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
