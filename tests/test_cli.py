"""Command line surface: payloads, CSV shape, overrides, exit codes."""

import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from frac import cli
from frac.config import SystemConfig, reference_config
from frac.harness import run_hit_rate, snap_to_grid
from frac.im_codec import PulseSelection, random_selection_sequence
from frac.radar_recovery import NonConvergenceError
from frac.radar_sim import load_cube

TINY = ["--N", "8", "--M", "4", "--P", "2", "--Q_r", "1", "--K", "2"]
COMM = ["--M", "4", "--P", "2", "--Q_c", "2", "--J", "2", "--B", "4e6",
        "--n_taps", "4"]


def _read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        (comments if line.startswith("#") else body).append(line)
    for row in csv.DictReader(body):
        rows.append(row)
    return comments, rows


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------

def test_encode_round_trip(capsys):
    rc = cli.main(["encode", "--bits", "110", "--M", "2", "--K", "1",
                   "--P", "2", "--J", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["carriers"] == [1]
    assert payload["antennas"] == [1]
    assert payload["phases_rad"] == [0.0]
    assert payload["decoded"] == "110"
    assert payload["bit_budget"] == {"im": 2, "pm": 1, "total": 3}
    assert len(payload["config_hash"]) == 12


def test_encode_to_file(tmp_path):
    out = tmp_path / "word.json"
    rc = cli.main(["encode", "--bits", "0" * 6, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["decoded"] == "0" * 6
    assert payload["bit_budget"]["total"] == 6


def test_encode_wrong_width(capsys):
    assert cli.main(["encode", "--bits", "10101"]) == 2
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# reports and CSV framing
# ----------------------------------------------------------------------

def test_resolution_report_csv(tmp_path):
    out = tmp_path / "res.csv"
    assert cli.main(["resolution-report", "--out", str(out)]) == 0
    comments, rows = _read_csv(out)
    assert comments[0] == "# frac 0.1.0"
    assert comments[1] == f"# config_hash: {reference_config().config_hash()}"
    assert float(rows[0]["range_resolution_m"]) == pytest.approx(1.5)
    assert float(rows[0]["angle_resolution_deg"]) == pytest.approx(14.48, abs=0.01)


def test_hw_report_stdout(capsys):
    assert cli.main(["hw-report"]) == 0
    text = capsys.readouterr().out
    rows = [r for r in text.splitlines() if r.startswith("rf_modules")]
    assert rows and rows[0].split(",")[1:3] == ["3", "8"]


def test_ambiguity_csv(tmp_path):
    out = tmp_path / "af.csv"
    rc = cli.main(["ambiguity", "--axis", "range", "--points", "9",
                   "--out", str(out)])
    assert rc == 0
    comments, rows = _read_csv(out)
    assert len(rows) == 9
    assert "af_mc" not in rows[0]
    cfg = reference_config()
    center = rows[4]
    assert float(center["df_range"]) == pytest.approx(0.0)
    assert float(center["af_expected"]) == pytest.approx(cfg.N * cfg.K * cfg.Q_r)


def test_ambiguity_mc_column(tmp_path):
    out = tmp_path / "af.csv"
    rc = cli.main(["ambiguity", "--axis", "velocity", "--points", "5",
                   "--mc", "8", "--out", str(out)] + TINY)
    assert rc == 0
    _, rows = _read_csv(out)
    assert all("af_mc" in r for r in rows)


# ----------------------------------------------------------------------
# phase transition
# ----------------------------------------------------------------------

def test_phase_transition_theory_csv(tmp_path):
    out = tmp_path / "pt.csv"
    rc = cli.main(["phase-transition", "--mode", "theory",
                   "--variants", "base,N=16", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert [r["variant"] for r in rows] == ["base", "N=16"]
    assert float(rows[0]["l_star"]) == pytest.approx(13.038, abs=0.061)
    assert float(rows[1]["l_star"]) == pytest.approx(6.519, abs=0.061)


def test_phase_transition_empirical_csv(tmp_path):
    out = tmp_path / "pt.csv"
    rc = cli.main(["phase-transition", "--mode", "empirical",
                   "--variants", "base", "--l-values", "1,10",
                   "--trials", "4", "--out", str(out)] + TINY)
    assert rc == 0
    comments, rows = _read_csv(out)
    assert any("crossing(0.6)" in c and "theory_l_star" in c for c in comments)
    assert len(rows) == 2
    assert float(rows[0]["success_rate"]) == 1.0


def test_phase_transition_censored_crossing_is_null(tmp_path):
    # every trial succeeds at L = 1 and 2, so the 0.6 crossing lies above
    # the levels tried and is reported as null rather than as L = 2
    out = tmp_path / "pt.csv"
    rc = cli.main(["phase-transition", "--mode", "empirical", "--l-values", "1,2",
                   "--N", "16", "--variants", "base", "--trials", "3", "--out", str(out)])
    assert rc == 0
    comments, rows = _read_csv(out)
    assert [r["successes"] for r in rows] == ["3", "3"]
    summary = next(c for c in comments if "crossing(0.6)" in c)
    assert json.loads(summary.split(": ", 1)[1])["base"]["empirical_crossing"] is None


@pytest.mark.parametrize("flags", [
    ["--trials", "5"],
    ["--l-values", "1:1:3"],
    ["--workers", "2"],
    ["--trials", "0", "--l-values", "0", "--workers", "5"],
])
def test_phase_transition_theory_rejects_empirical_flags(flags, capsys):
    rc = cli.main(["phase-transition", "--mode", "theory", "--variants", "base"] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err
    assert "--mode empirical" in err


def test_phase_transition_empirical_defaults():
    args = cli.build_parser().parse_args(["phase-transition", "--mode", "empirical"])
    assert (args.trials, args.workers, args.l_values) == (None, None, None)
    assert cli.build_parser().parse_args(["phase-transition"]).mode == "theory"


def test_phase_transition_rejects_mode_both(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["phase-transition", "--mode", "both"])
    assert exc.value.code == 2
    assert "invalid choice: 'both'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["encode", "--bits", "110"],
    ["ambiguity"],
    ["recovery-map"],
    ["comm-ber"],
    ["comm-rate"],
    ["resolution-report"],
    ["hw-report"],
])
def test_workers_rejected_where_unused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_workers_accepted_by_parallel_commands():
    parser = cli.build_parser()
    for command in ("radar-hit-rate", "phase-transition"):
        assert parser.parse_args([command, "--workers", "3"]).workers == 3


# ----------------------------------------------------------------------
# radar commands
# ----------------------------------------------------------------------

def test_hit_rate_csv_and_worker_invariance(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["radar-hit-rate", "--snr", "30", "--trials", "6"] + TINY
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    _, rows = _read_csv(out1)
    # the CSV reports the library's count for the same draws, whatever they
    # give: the tiny config's OMP misses about 5 % of CPIs even without noise
    cfg = reference_config(N=8, M=4, P=2, Q_r=1, K=2)
    (want,) = run_hit_rate(cfg, [30.0], trials=6, seed=cfg.seed)
    assert int(rows[0]["hits"]) == want.hits
    assert float(rows[0]["hit_rate"]) == pytest.approx(want.hits / 6)
    assert int(rows[0]["trials"]) == 6


def test_radar_trials_build_no_pulse_selection(tmp_path, monkeypatch):
    # the hit-rate and phase-transition trials carry each CPI's selections as
    # arrays from the draw to the dictionary and the echo; one PulseSelection
    # per pulse used to cost more than the whole draw
    built = []
    check = PulseSelection.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PulseSelection, "__post_init__", counting)
    out = str(tmp_path / "out.csv")
    for argv in (
        ["radar-hit-rate", "--snr", "10", "--trials", "2"],
        ["radar-hit-rate", "--scene", "random", "--n-targets", "2", "--snr", "10",
         "--trials", "2"],
        ["phase-transition", "--mode", "empirical", "--variants", "base",
         "--l-values", "2", "--trials", "2"],
    ):
        assert cli.main(argv + TINY + ["--out", out]) == 0
    assert built == []
    # the counter does see a selection that is built
    random_selection_sequence(reference_config(K=2), np.random.default_rng(0))[0]
    assert len(built) == 1


def test_recovery_map_default_scene(tmp_path):
    out = tmp_path / "map.csv"
    rc = cli.main(["recovery-map", "--direct", "--K", "2", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    true_rows = [r for r in rows if r["kind"] == "true"]
    rec_rows = [r for r in rows if r["kind"] == "recovered"]
    assert len(true_rows) == len(rec_rows) == 3
    for t, r in zip(true_rows, rec_rows):
        assert float(r["r_m"]) == pytest.approx(float(t["r_m"]))
        assert float(r["amp"]) == pytest.approx(1.0, abs=1e-9)


def test_recovery_map_scene_file(tmp_path):
    cfg = reference_config()
    r, v, theta = snap_to_grid(10.0, -2.0, 0.3, cfg)
    scene = tmp_path / "scene.csv"
    scene.write_text(
        "r_m,v_mps,theta_deg,amp,phase_rad\n"
        f"{r!r},{v!r},{float(np.degrees(theta))!r},2.0,0.5\n"
    )
    out = tmp_path / "map.csv"
    rc = cli.main(["recovery-map", "--direct", "--scene-file", str(scene),
                   "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    rec = [x for x in rows if x["kind"] == "recovered"][0]
    assert float(rec["r_m"]) == pytest.approx(r)
    assert float(rec["amp"]) == pytest.approx(2.0, abs=1e-9)
    assert float(rec["phase_rad"]) == pytest.approx(0.5, abs=1e-9)


def test_recovery_map_rejects_bad_scene_file(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    scene.write_text("r_m,v_mps\n1.0,0.0\n")
    rc = cli.main(["recovery-map", "--scene-file", str(scene)])
    assert rc == 2
    assert "scene file needs columns" in capsys.readouterr().err


def test_recovery_map_dump_cube(tmp_path, capsys):
    cube_path = tmp_path / "cube.frc"
    out = tmp_path / "map.csv"
    rc = cli.main(["recovery-map", "--snr", "20", "--dump-cube", str(cube_path),
                   "--out", str(out)] + TINY)
    assert rc == 0
    cube = load_cube(cube_path)
    assert cube.data.shape[0] == 8


# ----------------------------------------------------------------------
# comm commands
# ----------------------------------------------------------------------

def test_comm_ber_csv(tmp_path):
    out = tmp_path / "ber.csv"
    rc = cli.main(["comm-ber", "--snr", "12", "--channels", "2", "--draws", "10",
                   "--schemes", "frac-ml,psk4-ml", "--out", str(out)] + COMM)
    assert rc == 0
    _, rows = _read_csv(out)
    assert [r["scheme"] for r in rows] == ["frac-ml", "psk4-ml"]
    for r in rows:
        assert 0.0 <= float(r["ber"]) <= 1.0


def test_comm_rate_csv(tmp_path):
    out = tmp_path / "rate.csv"
    rc = cli.main(["comm-rate", "--snr", "40", "--channels", "2", "--draws", "10",
                   "--schemes", "frac-j2", "--out", str(out)] + COMM)
    assert rc == 0
    _, rows = _read_csv(out)
    assert float(rows[0]["rate_bits"]) == pytest.approx(4.0, abs=0.05)


@pytest.mark.parametrize("schemes, message", [
    ("frac-ML", "unknown decoder 'ML' in scheme frac-ML"),
    ("frac-xyz", "unknown decoder 'xyz' in scheme frac-xyz"),
    ("foo", "unknown BER scheme 'foo'"),
    ("frac-ml,foo", "unknown BER scheme 'foo'"),
])
def test_comm_ber_unknown_scheme_exits_2(schemes, message, tmp_path, capsys):
    out = tmp_path / "ber.csv"
    assert cli.main(["comm-ber", "--snr", "12", "--channels", "2", "--draws", "10",
                     "--schemes", schemes, "--out", str(out)] + COMM) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, schemes", [("comm-ber", "frac-ml"), ("comm-rate", "frac-j2")])
@pytest.mark.parametrize("argv, message", [
    (["--channels", "0", "--draws", "10"], "channels must be at least 1, got 0"),
    (["--channels", "2", "--draws", "0"], "draws must be at least 1, got 0"),
])
def test_comm_bad_counts_exit_2(command, schemes, argv, message, tmp_path, capsys):
    out = tmp_path / "comm.csv"
    assert cli.main([command, "--snr", "12", "--schemes", schemes, "--out", str(out)]
                    + argv + COMM) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(reference_config(M=4).to_json())
    out = tmp_path / "res.csv"
    rc = cli.main(["resolution-report", "--config", str(cfg_file),
                   "--M", "16", "--out", str(out)])
    assert rc == 0
    comments, _ = _read_csv(out)
    assert comments[1] == f"# config_hash: {reference_config(M=16).config_hash()}"


# one value per SystemConfig field, of the field's type and unlike the
# reference value
FIELD_VALUES = dict(
    N=16, M=16, K=2, P=8, Q_r=4, Q_c=8, J=4, n_taps=4, f_c=78.0e9, B=200.0e6,
    T_0=70.0e-6, T_p=40.0e-6, F_s_radar=500.0e3, r_max=150.0, d_R=2.0e-3,
    F_s_comm=50.0e6, c=299792458.0, seed=7,
)
SUBCOMMANDS = [
    ["encode", "--bits", "110"], ["ambiguity"], ["phase-transition"], ["radar-hit-rate"],
    ["recovery-map"], ["comm-ber"], ["comm-rate"], ["resolution-report"], ["hw-report"],
]


def _overridden(cfg, name, value):
    """``cfg`` with one field set the way a flag sets it: F_s_radar and r_max
    each drop the other."""
    changes = {name: value}
    for a, b in (("F_s_radar", "r_max"), ("r_max", "F_s_radar")):
        if name == a:
            changes[b] = None
    return cfg.replace(**changes)


def test_field_values_cover_every_subcommand_and_field():
    sub = cli.build_parser()._subparsers._group_actions[0]
    assert sorted(argv[0] for argv in SUBCOMMANDS) == sorted(sub.choices)
    assert list(FIELD_VALUES) == [f.name for f in dataclasses.fields(SystemConfig)]


@pytest.mark.parametrize("field", dataclasses.fields(SystemConfig), ids=lambda f: f.name)
def test_every_subcommand_overrides_every_config_field(field, tmp_path):
    value = FIELD_VALUES[field.name]
    # the annotation reads 'int', 'float' or 'float | None'
    assert type(value).__name__ == field.type.split(" |")[0]
    cfg_file = tmp_path / "cfg.json"
    from_file = reference_config(Q_c=2, seed=9)
    cfg_file.write_text(from_file.to_json())
    parser = cli.build_parser()
    for argv in SUBCOMMANDS:
        args = parser.parse_args(argv + [f"--{field.name}", str(value)])
        assert getattr(args, field.name) == value
        assert type(getattr(args, field.name)) is type(value)
        assert cli._load_config(args) == _overridden(reference_config(), field.name, value)
        args = parser.parse_args(argv + ["--config", str(cfg_file),
                                         f"--{field.name}", str(value)])
        assert cli._load_config(args) == _overridden(from_file, field.name, value)


def test_r_max_override_drops_paired_rate(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli.main(["resolution-report", "--r_max", "150", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert float(rows[0]["max_range_m"]) >= 150.0


def test_invalid_config_exits_2(capsys):
    assert cli.main(["resolution-report", "--K", "5"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0"], "trials must be at least 1, got 0"),
    (["--scene", "random", "--n-targets", "0"], "n_targets 0 outside"),
    (["--scene", "random", "--n-targets", "5000"], "n_targets 5000 outside"),
])
def test_hit_rate_bad_counts_exit_2(argv, message, capsys):
    assert cli.main(["radar-hit-rate", "--snr", "10", "--trials", "2"] + argv + TINY) == 2
    assert message in capsys.readouterr().err


def test_bad_range_exits_2(capsys):
    assert cli.main(["radar-hit-rate", "--snr", "0:2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["radar-hit-rate", "--snr", "", "--trials", "1"] + TINY, "--snr"),
    (["radar-hit-rate", "--snr", "nan", "--trials", "1"] + TINY, "--snr"),
    (["radar-hit-rate", "--snr", "0:inf:10", "--trials", "1"] + TINY, "--snr"),
    (["comm-ber", "--snr", "", "--channels", "1", "--draws", "2"] + COMM, "--snr"),
    (["comm-rate", "--snr", "1,nan", "--channels", "1", "--draws", "2"] + COMM, "--snr"),
    (["phase-transition", "--mode", "empirical", "--variants", "base", "--l-values", "",
      "--trials", "1"] + TINY, "--l-values"),
    (["ambiguity", "--points", "0"], "--points"),
    (["ambiguity", "--points", "5", "--mc", "-3"], "--mc"),
])
def test_bad_grid_or_count_exits_2_naming_the_flag(argv, flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"frac: error: {flag}" in capsys.readouterr().err
    assert not out.exists()


def _never_called(*args, **kwargs):
    raise AssertionError("simulation started")


@pytest.mark.parametrize("argv, message", [
    (["recovery-map", "--direct", "--dump-cube", "CUBE"] + TINY, "--direct"),
    (["ambiguity", "--axis", "range-range"], "pair of two"),
    (["ambiguity", "--axis", "angle-angle", "--mc", "3"], "pair of two"),
    (["ambiguity", "--extent", "nan"], "extent must be finite"),
    (["ambiguity", "--extent", "inf", "--mc", "3"], "extent must be finite"),
    (["ambiguity", "--extent", "-1"], "extent must be finite and nonnegative"),
    (["ambiguity", "--extent", "0", "--points", "3", "--mc", "3"], "points must be 1"),
])
def test_ignored_or_wrong_inputs_exit_2_before_simulating(argv, message, tmp_path,
                                                          monkeypatch, capsys):
    # these used to exit 0: no cube written, a 1-D cut repeated as a plane,
    # rows of nan
    for name in ("random_selection_sequence", "expected_af", "mc_mean_af"):
        monkeypatch.setattr(f"frac.harness.{name}", _never_called)
    cube, out = tmp_path / "cube.frc", tmp_path / "out.csv"
    argv = [str(cube) if a == "CUBE" else a for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not cube.exists() and not out.exists()


@pytest.mark.parametrize("argv", [
    ["radar-hit-rate", "--snr", "10", "--trials", "2"],
    ["phase-transition", "--mode", "empirical", "--variants", "base", "--l-values", "2",
     "--trials", "2"],
])
@pytest.mark.parametrize("workers", ["0", "-4", "two"])
def test_fewer_than_one_worker_exits_2_before_simulating(argv, workers, tmp_path,
                                                         monkeypatch, capsys):
    # these used to exit 0 and run one worker
    monkeypatch.setattr("frac.harness.random_selection_sequence", _never_called)
    monkeypatch.setattr("frac.phase_transition.random_selection_sequence", _never_called)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + TINY + ["--workers", workers, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --workers: must be an integer of at least 1, got '{workers}'" in err
    assert not out.exists()


@pytest.mark.parametrize("scene", [[], ["--scene", "fixed"]])
@pytest.mark.parametrize("n_targets", ["3", "7"])
def test_n_targets_with_fixed_scene_exits_2_before_simulating(scene, n_targets, tmp_path,
                                                              monkeypatch, capsys):
    # the fixed scene always has 3 targets; --n-targets used to be ignored
    monkeypatch.setattr("frac.harness.random_selection_sequence", _never_called)
    out = tmp_path / "out.csv"
    assert cli.main(["radar-hit-rate", "--snr", "10", "--trials", "2", "--n-targets", n_targets,
                     "--out", str(out)] + scene + TINY) == 2
    assert "frac: error: --n-targets only applies to --scene random" in capsys.readouterr().err
    assert not out.exists()


def test_random_scene_has_3_targets_by_default(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["radar-hit-rate", "--scene", "random", "--snr", "10", "--trials", "2"] + TINY
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--n-targets", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("command, schemes, message", [
    ("comm-ber", "frac-ml,frac-ml", "scheme 'frac-ml' is repeated"),
    ("comm-ber", ",", "scheme list is empty"),
    ("comm-rate", "frac-j2,frac-j4,frac-j2", "scheme 'frac-j2' is repeated"),
    ("comm-rate", " , ", "scheme list is empty"),
])
def test_comm_repeated_or_empty_schemes_exit_2(command, schemes, message, tmp_path, capsys):
    out = tmp_path / "comm.csv"
    assert cli.main([command, "--snr", "12", "--channels", "1", "--draws", "2",
                     "--schemes", schemes, "--out", str(out)] + COMM) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, variants, l_values, message", [
    ("empirical", "base", "3,3", "--l-values: sparsity level 3 is repeated"),
    ("empirical", "base", "1,2,3,2", "--l-values: sparsity level 2 is repeated"),
    ("empirical", "base", "2.5", "--l-values: sparsity level 2.5 is not an integer"),
    ("empirical", "", "3", "--variants: empty variant list"),
    ("theory", " , ", None, "--variants: empty variant list"),
    ("theory", "base,K=1,base", None, "--variants: variant 'base' is repeated"),
])
def test_phase_transition_bad_levels_or_variants_exit_2(mode, variants, l_values, message,
                                                         tmp_path, capsys):
    out = tmp_path / "pt.csv"
    argv = ["phase-transition", "--mode", mode, "--variants", variants, "--out", str(out)]
    if l_values is not None:
        argv += ["--l-values", l_values, "--trials", "1"]
    assert cli.main(argv + TINY) == 2
    assert f"frac: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_nonconvergence_exits_3(monkeypatch, capsys):
    def boom(*a, **k):
        raise NonConvergenceError("solver stalled")

    monkeypatch.setattr(cli.harness, "run_recovery_map", boom)
    assert cli.main(["recovery-map", "--direct"]) == 3
    assert "solver stalled" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is only a test reference
    code = ("import sys, frac.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # the pool modules load only when a run asks for several workers
    code = ("import sys, frac.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "frac.cli", "resolution-report"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# frac ")
