"""Command line front end tests, run in process through main(argv).

Numeric rows are checked against direct library calls: the CLI must be a
faithful front end, so any drift between the two is a bug regardless of
which side moved.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cotstab import BuckParams, RampSpec, Scheme, build_model
from cotstab.bifurcation import (
    exact_max_on_time,
    family_point,
    pdb_boundary_approx,
    exact_min_ri,
    min_ramp_formula,
    min_sense_resistance,
    pdb_boundary_exact,
    s_approx,
    s_exact,
    snb_boundary_approx,
    snb_boundary_exact,
)
from cotstab import cli
from cotstab.cli import load_config, main
from cotstab.errors import ConfigError
from cotstab.harmonic import h_plot, hb_snb_condition, l1_plot, l2_plot
from cotstab.sampled import consistent_vc, poles
from cotstab.tables import Table, render_json

from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T, operating

BASE = """\
scheme = V_COTC
vs = 5.0
R = 0.5
L = 2e-6
C = 2e-5
Rc = 0.02
d = 1.2e-6
T = 3e-6
ma = 0.0
"""

CURRENT_MODE = """\
scheme = C_COTC
vs = 13.2
R = 10.0
L = 3.1e-6
C = 3e-4
Rc = 4.5e-3
Ri = 0.15
d = 0.26e-6
T = 1.04e-6
ma = 0.0
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "fast.conf"
    path.write_text(BASE)
    return str(path)


@pytest.fixture
def conf_current(tmp_path):
    path = tmp_path / "current.conf"
    path.write_text(CURRENT_MODE)
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def by_formula(rows):
    return {row[0]: row for row in rows}


def test_steady_state_derives_consistent_reference(capsys, conf):
    rc, out, _ = run_cli(capsys, ["steady-state", "--config", conf])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["quantity", "value", "unit"]
    assert meta["scheme"] == "V_COTC"
    assert meta["vc_derived"] == "True"
    m = build_model(FAST, Scheme.V_COTC)
    vc = consistent_vc(m, RampSpec(ma=0.0, d=FAST_D), FAST_T, FAST.vs)
    assert float(meta["vc_volts"]) == pytest.approx(vc, rel=1e-12)
    vals = {row[0]: float(row[1]) for row in rows}
    assert vals["iL_cycle_start"] == pytest.approx(3.0971885935063601,
                                                   rel=1e-12)
    assert vals["vC_cycle_start"] == pytest.approx(1.9948281998871591,
                                                   rel=1e-12)
    # on the orbit the feedback meets the ramp exactly at the cycle end
    assert vals["feedback_cycle_end"] == pytest.approx(
        vals["ramp_cycle_end"], abs=1e-9)


def test_poles_report_matches_library(capsys, conf):
    rc, out, _ = run_cli(capsys, ["poles", "--config", conf])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["formula_id", "route", "real", "imag", "magnitude",
                      "ct_equivalent_per_second"]
    m = build_model(FAST, Scheme.V_COTC)
    ramp = RampSpec(ma=0.0, d=FAST_D)
    u = np.array([FAST.vs, consistent_vc(m, ramp, FAST_T, FAST.vs)])
    lam = sorted(poles(m, ramp, u, FAST_T))
    got = sorted(float(r[2]) for r in rows if r[0] == "Eq15")
    assert got == pytest.approx(lam, abs=1e-12)
    forms = by_formula(rows)
    assert float(forms["Eq42"][2]) == pytest.approx(-1.3076923076923075,
                                                    rel=1e-12)
    assert float(forms["Eq43"][5]) == pytest.approx(769230.76923076925,
                                                    rel=1e-12)
    # crude-average route and its refinement coincide for this converter
    assert float(forms["Eq20"][2]) == pytest.approx(float(forms["Eq21"][2]),
                                                    rel=1e-12)


def test_set_overrides_config(capsys, conf):
    rc, out, _ = run_cli(capsys, ["poles", "--config", conf,
                                  "--set", "ma=9500"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    got = sorted(float(r[2]) for r in rows if r[0] == "Eq15")
    assert got == pytest.approx([-0.4989041645016242, -0.1987078660728302],
                                abs=1e-9)


def test_pdb_boundary_rows_match_library(capsys, conf):
    rc, out, _ = run_cli(capsys, ["pdb-boundary", "--config", conf])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["formula_id", "route", "value", "unit"]
    forms = by_formula(rows)
    m = build_model(FAST, Scheme.V_COTC)
    exact = pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    assert float(forms["Eq22"][2]) == pytest.approx(exact, rel=1e-12)
    assert float(forms["Eq24"][2]) == pytest.approx(
        pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T, "full"), rel=1e-12)
    assert float(forms["Eq26"][2]) == pytest.approx(
        pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T, "linear"), rel=1e-12)
    for fid in ("Eq32", "Eq34"):
        want = min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, fid)
        assert float(forms[fid][2]) == pytest.approx(want, rel=1e-12)
    assert forms["-"][1] == "harmonic_balance"
    assert float(forms["-"][2]) == pytest.approx(exact, rel=1e-3)


def test_pdb_boundary_without_esr_leaves_out_the_normalized_rows(
        capsys, tmp_path):
    # no Rc line: the default 0 leaves no ripple slope for Eq36 and Eq37
    path = tmp_path / "no-esr.conf"
    path.write_text(BASE.replace("Rc = 0.02\n", ""))
    rc, out, _ = run_cli(capsys, ["pdb-boundary", "--config", str(path)])
    assert rc == 0
    _, _, rows = parse_csv(out)
    forms = by_formula(rows)
    m = build_model(FAST.with_(Rc=0.0), Scheme.V_COTC)
    assert float(forms["Eq22"][2]) == pytest.approx(
        pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T), rel=1e-12)
    assert "Eq36" not in forms and "Eq37" not in forms


def test_formula_filter_selects_and_rejects(capsys, conf):
    rc, out, _ = run_cli(capsys, ["pdb-boundary", "--config", conf,
                                  "--formula", "Eq22"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["Eq22"]
    # unknown identifier
    rc, _, err = run_cli(capsys, ["pdb-boundary", "--config", conf,
                                  "--formula", "Eq99"])
    assert rc == 2
    assert "Eq99" in err
    # known identifier that produces no row for this command
    rc, _, _ = run_cli(capsys, ["pdb-boundary", "--config", conf,
                                "--formula", "Eq50"])
    assert rc == 2


def test_snb_boundary_rows_match_library(capsys, conf_current):
    rc, out, _ = run_cli(capsys, ["snb-boundary", "--config", conf_current])
    assert rc == 0
    _, _, rows = parse_csv(out)
    forms = by_formula(rows)
    m = build_model(CURRENT, Scheme.C_COTC)
    exact = snb_boundary_exact(m, CURRENT.vs, CUR_D, CUR_T)
    assert exact < 0.0
    assert float(forms["Eq53"][2]) == pytest.approx(exact, rel=1e-12)
    for fid in ("Eq54", "Eq56"):
        want = snb_boundary_approx(m, CURRENT, CUR_D, CUR_T, fid)
        assert float(forms[fid][2]) == pytest.approx(want, rel=1e-12)
    assert float(forms["-"][2]) == pytest.approx(exact, rel=5e-3)


def test_max_on_time_search_and_formulas(capsys, tmp_path):
    path = tmp_path / "duty.conf"
    path.write_text(BASE.replace("T = 3e-6", "D = 0.4"))
    rc, out, _ = run_cli(capsys, ["max-on-time", "--config", str(path),
                                  "--sweep", "d=0.4e-6:2.8e-6:25"])
    assert rc == 0
    meta, _, rows = parse_csv(out)
    forms = by_formula(rows)
    want = exact_max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4,
                             0.4e-6, 2.8e-6)
    assert float(forms["-"][2]) == pytest.approx(want, rel=1e-9)
    assert float(forms["-"][2]) == pytest.approx(1.0529607293550073e-06,
                                                 rel=1e-9)
    assert float(forms["Eq38"][2]) == pytest.approx(8.3534136546184746e-07,
                                                    rel=1e-9)
    assert float(forms["Eq39"][2]) == pytest.approx(8e-07, rel=1e-12)
    # the refined estimate needs a period; without one the exact result
    # seeds it, and the metadata records the value used
    assert float(forms["Eq41"][2]) == pytest.approx(1.0058524745956479e-06,
                                                    rel=1e-9)
    assert float(meta["Eq41_period_seconds"]) == pytest.approx(
        want / 0.4, rel=1e-9)


def test_max_on_time_rejects_a_reversed_sweep(capsys, tmp_path):
    # a descending --sweep d= is a bracket here, not a grid: config error
    path = tmp_path / "duty.conf"
    path.write_text(BASE.replace("T = 3e-6", "D = 0.4"))
    rc, out, err = run_cli(capsys, ["max-on-time", "--config", str(path),
                                    "--sweep", "d=2.8e-6:0.4e-6:5"])
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert "ConfigError: --sweep d= needs lo < hi" in err


def test_min_ri_search_and_formulas(capsys, tmp_path):
    path = tmp_path / "ri.conf"
    path.write_text(BASE.replace("scheme = V_COTC",
                                 "scheme = V_COTC_CURRENT_RAMP\nRi = 0.01"))
    rc, out, _ = run_cli(capsys, ["min-ri", "--config", str(path)])
    assert rc == 0
    _, _, rows = parse_csv(out)
    forms = by_formula(rows)
    assert float(forms["-"][2]) == pytest.approx(
        exact_min_ri(FAST, FAST_D, FAST_T), rel=1e-9)
    for fid in ("Eq44", "Eq45", "Eq47"):
        want = min_sense_resistance(FAST, FAST_D, FAST_T, fid)
        assert float(forms[fid][2]) == pytest.approx(want, rel=1e-12)


def test_hb_splot_truncation_columns(capsys, conf):
    rc, out, _ = run_cli(capsys, ["hb-splot", "--config", conf,
                                  "--nh", "40", "--sweep", "D=0.3:0.5:3"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert meta["nh"] == "40"
    assert header == ["duty", "pdb_hb_n10_volts_per_second",
                      "pdb_hb_n20_volts_per_second",
                      "pdb_hb_n40_volts_per_second",
                      "pdb_exact_volts_per_second"]
    assert len(rows) == 3
    mid = rows[1]
    assert float(mid[0]) == pytest.approx(0.4, rel=1e-12)
    exact = float(mid[4])
    # deeper truncations approach the exact boundary
    assert abs(float(mid[3]) - exact) < abs(float(mid[1]) - exact)


SPLOT_COLUMNS = ["duty", "pdb_exact_volts_per_second",
                 "pdb_series_volts_per_second",
                 "pdb_series_linear_volts_per_second"]


def test_splot_fixed_period_rows_match_library(capsys, conf):
    rc, out, _ = run_cli(capsys, ["splot", "--config", conf,
                                  "--sweep", "D=0.3:1.1:5"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == SPLOT_COLUMNS
    assert meta["mode"] == "fixed_period"
    assert len(rows) == 5
    m = build_model(FAST, Scheme.V_COTC)
    for row in rows[:-1]:
        d = float(row[0]) * FAST_T
        assert float(row[1]) == pytest.approx(
            pdb_boundary_exact(m, FAST.vs, d, FAST_T), rel=1e-12)
        assert float(row[2]) == pytest.approx(
            pdb_boundary_approx(m, FAST.vs, d, FAST_T, "full"), rel=1e-12)
        assert float(row[3]) == pytest.approx(
            pdb_boundary_approx(m, FAST.vs, d, FAST_T, "linear"), rel=1e-12)
    # duty 1.1 puts the on-time past the period: the point fails, the row stays
    assert float(rows[-1][0]) == pytest.approx(1.1, rel=1e-12)
    assert rows[-1][1:] == ["nan", "nan", "nan"]


def test_splot_output_family_rows_match_library(capsys, conf):
    rc, out, _ = run_cli(capsys, ["splot", "--config", conf, "--set", "vo=2.0",
                                  "--sweep", "D=0.2:0.8:4"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == SPLOT_COLUMNS
    assert meta["mode"] == "family"
    assert float(meta["vo_volts"]) == 2.0
    m = build_model(FAST, Scheme.V_COTC)
    for row in rows:
        pp, T = family_point(FAST, FAST_D, 2.0, float(row[0]))
        assert float(row[1]) == pytest.approx(
            pdb_boundary_exact(m, pp.vs, FAST_D, T), rel=1e-12)
        assert float(row[2]) == pytest.approx(
            pdb_boundary_approx(m, pp.vs, FAST_D, T, "full"), rel=1e-12)
        assert float(row[3]) == pytest.approx(
            pdb_boundary_approx(m, pp.vs, FAST_D, T, "linear"), rel=1e-12)


def test_pole_locus_rows_match_library(capsys, conf):
    rc, out, _ = run_cli(capsys, ["pole-locus", "--config", conf,
                                  "--sweep", "lambda=0:2:5"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["lambda", "ramp_slope_exact_volts_per_second",
                      "ramp_slope_series_volts_per_second"]
    m, _, _, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    for row in rows:
        lam = float(row[0])
        assert float(row[1]) == pytest.approx(s_exact(m, ss, lam), rel=1e-12)
        if lam != 1.0:
            assert float(row[2]) == pytest.approx(s_approx(m, ss, lam),
                                                  rel=1e-12)
    # the series form has a pole at lambda = 1; only that column fails there
    assert rows[2][2] == "nan"


FREQ_SWEEPS = [
    ("hplot", "H", lambda w: h_plot(w, FAST, Scheme.V_COTC, FAST_D, 40),
     lambda T: T * 9500.0 / FAST.vs),
    ("l2", "L2", lambda w: l2_plot(w, FAST, Scheme.V_COTC, FAST_D, 40),
     lambda T: 2.0 * T * 9500.0 / FAST.vs),
    ("l1", "L1", lambda w: l1_plot(w, FAST, Scheme.V_COTC, 9500.0, FAST_D, 40),
     lambda T: 2.0),
]


@pytest.mark.parametrize("command,prefix,series,boundary", FREQ_SWEEPS,
                         ids=[c[0] for c in FREQ_SWEEPS])
def test_frequency_sweep_rows_match_library(capsys, conf, command, prefix,
                                            series, boundary):
    rc, out, _ = run_cli(capsys, [command, "--config", conf, "--set", "ma=9500",
                                  "--nh", "40", "--sweep", "fs=2e5:1e6:5"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["fs_hertz", f"{prefix}_real", f"{prefix}_imag",
                      "boundary"]
    assert meta["nh"] == "40"
    assert len(rows) == 5
    for row in rows[:-1]:
        fs = float(row[0])
        want = series(2.0 * np.pi * fs)
        assert float(row[1]) == pytest.approx(want.real, rel=1e-12)
        assert float(row[2]) == pytest.approx(want.imag, rel=1e-12)
        assert float(row[3]) == pytest.approx(boundary(1.0 / fs), rel=1e-12)
    # 1 MHz leaves no off time after the 1.2 us on-time
    assert rows[-1][1:] == ["nan", "nan", "nan"]


@pytest.mark.parametrize("command", [c[0] for c in FREQ_SWEEPS])
@pytest.mark.parametrize("grid, bad", [("0:1e6:3", "0.0"),
                                       ("-1e6:1e6:3", "-1000000.0")])
def test_frequency_sweeps_reject_non_positive_frequencies(capsys, conf,
                                                          command, grid, bad):
    # fs = 0 once divided by zero and ended in a traceback
    rc, out, err = run_cli(capsys, [command, "--config", conf,
                                    "--set", "ma=9500", "--nh", "40",
                                    "--sweep", f"fs={grid}"])
    assert rc == 2
    assert (f"ConfigError: {command} needs switching frequencies fs > 0, "
            f"got fs={bad}") in err
    assert out == ""


def test_formula_table_json(capsys, conf_current):
    rc, out, _ = run_cli(capsys, ["snb-boundary", "--config", conf_current,
                                  "--nh", "50", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["kind"] == "SNB"
    assert doc["metadata"]["nh"] == 50
    assert [r["formula_id"] for r in doc["rows"]] == ["Eq53", "Eq17", "Eq54",
                                                      "Eq56", "-"]
    assert all(set(r) == {"formula_id", "route", "value", "unit"}
               for r in doc["rows"])
    m = build_model(CURRENT, Scheme.C_COTC)
    rows = {r["formula_id"]: r for r in doc["rows"]}
    assert rows["Eq53"]["value"] == pytest.approx(
        snb_boundary_exact(m, CURRENT.vs, CUR_D, CUR_T), rel=1e-12)
    assert rows["-"]["value"] == pytest.approx(
        hb_snb_condition(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 50), rel=1e-12)


def test_json_round_trip(capsys, conf):
    rc, out, _ = run_cli(capsys, ["pdb-boundary", "--config", conf,
                                  "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["scheme"] == "V_COTC"
    rows = {r["formula_id"]: r for r in doc["rows"]}
    m = build_model(FAST, Scheme.V_COTC)
    assert rows["Eq22"]["value"] == pytest.approx(
        pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T), rel=1e-12)


def test_out_writes_file(capsys, conf, tmp_path):
    dest = tmp_path / "pdb.csv"
    rc, out, _ = run_cli(capsys, ["pdb-boundary", "--config", conf,
                                  "--out", str(dest)])
    assert rc == 0
    assert out == ""
    _, header, rows = parse_csv(dest.read_text())
    assert header == ["formula_id", "route", "value", "unit"]
    assert any(r[0] == "Eq22" for r in rows)


def test_out_to_unwritable_path_is_config_error(capsys, conf, tmp_path):
    dest = tmp_path / "missing" / "poles.csv"
    rc, out, err = run_cli(capsys, ["poles", "--config", conf,
                                    "--out", str(dest)])
    assert rc == 2
    assert out == ""
    assert f"ConfigError: cannot write table to {str(dest)!r}" in err
    assert not dest.exists()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,column", [
    (["pole-locus", "--sweep", "lambda=0:2:5"],
     "ramp_slope_series_volts_per_second"),
    (["poles"], "real"),
])
def test_json_writes_non_finite_values_as_null(capsys, conf, argv, column):
    # the series form has a pole at lambda = 1; the continuous-time Eq43
    # row has no z-plane columns
    rc, out, _ = run_cli(capsys, [*argv, "--config", conf, "--format", "json"])
    assert rc == 0
    rows = _strict_json(out)["rows"]
    assert any(row[column] is None for row in rows)
    assert all(row[column] is None or math.isfinite(row[column])
               for row in rows)


def test_render_json_writes_null_in_rows_and_metadata():
    table = Table(["x", "y"], [(math.inf, 1.0)], {"m": math.nan, "n": 2.0})
    assert _strict_json(render_json(table)) == {
        "metadata": {"m": None, "n": 2.0}, "rows": [{"x": None, "y": 1.0}]}


def test_saturated_run_completes(capsys, conf):
    rc, out, _ = run_cli(capsys, ["simulate", "--config", conf,
                                  "--set", "vc=100", "--cycles", "40"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert meta["saturated_cycles"] == "40"
    assert meta["classification"] == "UNCLASSIFIED"
    sat = header.index("saturated")
    tn = header.index("Tn_seconds")
    assert all(r[sat] == "1" for r in rows)
    assert all(float(r[tn]) == pytest.approx(FAST_D, rel=1e-12)
               for r in rows)


def test_missed_switching_is_numeric_failure(capsys, conf):
    rc, _, err = run_cli(capsys, ["simulate", "--config", conf,
                                  "--set", "vc=-100", "--cycles", "10"])
    assert rc == 3
    assert "MissedSwitchingError" in err


def test_onset_requires_sweep(capsys, conf):
    rc, _, err = run_cli(capsys, ["onset", "--config", conf])
    assert rc == 2
    assert "--sweep" in err


def test_onset_rejects_one_sided_bracket(capsys, conf):
    rc, _, err = run_cli(capsys, ["onset", "--config", conf,
                                  "--sweep", "ma=2000:2500:2",
                                  "--cycles", "120", "--set", "settle=30"])
    assert rc == 3
    assert "bracket" in err.lower()


def test_l1_needs_nonzero_ramp(capsys, conf):
    rc, _, err = run_cli(capsys, ["l1", "--config", conf])
    assert rc == 2
    assert "ma" in err


def test_config_rejects_unknown_key(capsys, conf, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text(BASE + "bogus = 1\n")
    rc, _, err = run_cli(capsys, ["poles", "--config", str(path)])
    assert rc == 2
    assert "bogus" in err
    assert ":10:" in err


def test_config_rejects_bad_number(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text(BASE.replace("R = 0.5", "R = half"))
    rc, _, err = run_cli(capsys, ["poles", "--config", str(path)])
    assert rc == 2
    assert "half" in err


@pytest.mark.parametrize("argv", [
    ["poles", "--set", "vc=nan"], ["splot", "--set", "vc=inf"],
    ["steady-state", "--set", "vs=-inf"], ["simulate", "--set", "iL0=nan"],
    ["pdb-boundary", "--set", "ma=inf"], ["splot", "--set", "vo=nan"],
])
def test_config_rejects_non_finite_numbers(capsys, conf, argv):
    key, _, value = argv[2].partition("=")
    rc, out, err = run_cli(capsys, [argv[0], "--config", conf, *argv[1:]])
    assert rc == 2
    assert f"ConfigError: {key} must be finite, got '{value}'" in err
    assert out == ""


@pytest.mark.parametrize("argv, what", [
    (["splot", "--set", "D_range=nan:0.9:3"], "D_range"),
    (["splot", "--sweep", "D=0.1:inf:3"], "--sweep range"),
    (["pole-locus", "--set", "lambda_range=-1:-inf:3"], "lambda_range"),
    (["pole-locus", "--sweep", "lambda=inf:1:3"], "--sweep range"),
    (["l1", "--set", "ma=9500", "--set", "fs_range=nan:1e6:3"], "fs_range"),
    (["onset", "--sweep", "ma=nan:1500:3"], "--sweep range"),
])
def test_ranges_reject_non_finite_bounds(capsys, conf, argv, what):
    # a non-finite bound once gave rows of NaN, or failed deep in a solve
    rc, out, err = run_cli(capsys, [argv[0], "--config", conf, *argv[1:]])
    assert rc == 2
    assert f"ConfigError: {what} bounds must be finite" in err
    assert out == ""


@pytest.mark.parametrize("command", ["pdb-boundary", "hb-splot"])
@pytest.mark.parametrize("nh", ["0", "-5"])
def test_nh_flag_rejects_non_positive_depth(capsys, conf, command, nh):
    rc, out, err = run_cli(capsys, [command, "--config", conf, "--nh", nh])
    assert rc == 2
    assert "ConfigError" in err and nh in err
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "onset"])
@pytest.mark.parametrize("cycles", ["0", "-5"])
def test_cycles_flag_rejects_non_positive_count(capsys, conf, command, cycles):
    argv = [command, "--config", conf, "--cycles", cycles]
    if command == "onset":
        argv += ["--sweep", "ma=0:5000:2"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert "ConfigError" in err and cycles in err
    assert out == ""


def test_config_rejects_ma_range(capsys, conf):
    rc, _, err = run_cli(capsys, ["poles", "--config", conf,
                                  "--set", "ma_range=1:2:3"])
    assert rc == 2
    assert "unknown config key 'ma_range'" in err


def test_config_rejects_period_and_duty_together(capsys, conf):
    rc, _, err = run_cli(capsys, ["poles", "--config", conf,
                                  "--set", "D=0.4"])
    assert rc == 2
    assert "T" in err and "D" in err


@pytest.mark.parametrize("command", ["steady-state", "pdb-boundary", "min-ri",
                                     "hplot", "max-on-time"])
@pytest.mark.parametrize("duty", ["0", "1.5"])
def test_config_rejects_duty_outside_unit_interval(capsys, tmp_path, command,
                                                   duty):
    # D = 0 once divided by zero, and max-on-time gave rows for D = 1.5
    path = tmp_path / "duty.conf"
    path.write_text(BASE.replace("T = 3e-6", f"D = {duty}"))
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    assert f"ConfigError: D must lie in (0, 1], got '{duty}'" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["steady-state"], ["poles"], ["pole-locus"], ["pdb-boundary"],
    ["snb-boundary"], ["simulate"], ["onset", "--sweep", "ma=0:5000:2"],
])
def test_operating_point_commands_reject_zero_off_time(capsys, conf, argv):
    # d = T leaves no off stage: no periodic orbit, so the config check
    # refuses it before the library is reached
    rc, out, err = run_cli(capsys, [argv[0], "--config", conf,
                                    "--set", "d=3e-6", *argv[1:]])
    assert rc == 2
    assert "ConfigError: need 0 < d < T" in err
    assert out == ""


def test_boundary_commands_accept_zero_off_time(capsys, conf):
    rc, out, _ = run_cli(capsys, ["splot", "--config", conf,
                                  "--sweep", "D=0.5:1.0:2"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    m = build_model(FAST, Scheme.V_COTC)
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == pytest.approx(
        pdb_boundary_exact(m, FAST.vs, FAST_T, FAST_T), rel=1e-12)
    rc, out, _ = run_cli(capsys, ["min-ri", "--config", conf, "--set", "d=3e-6",
                                  "--set", "scheme=V_COTC_CURRENT_RAMP"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert float(by_formula(rows)["-"][2]) == pytest.approx(
        exact_min_ri(FAST, FAST_T, FAST_T), rel=1e-12)


def test_current_scheme_requires_sense_resistance(capsys, tmp_path):
    path = tmp_path / "nori.conf"
    path.write_text(BASE.replace("scheme = V_COTC", "scheme = C_COTC"))
    rc, _, err = run_cli(capsys, ["poles", "--config", str(path)])
    assert rc == 2
    assert "Ri" in err


def test_sweep_key_must_fit_command(capsys, conf):
    rc, _, err = run_cli(capsys, ["hplot", "--config", conf,
                                  "--sweep", "D=0.2:0.8:5"])
    assert rc == 2
    assert "fs" in err


def test_examples_regression_passes(capsys):
    rc, out, _ = run_cli(capsys, ["examples"])
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert meta["cases_total"] == meta["cases_passed"]
    status = header.index("status")
    assert rows and all(r[status] == "PASS" for r in rows)


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only oracle
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, cotstab.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


# One interpreter, one command after the other: each step records which
# cotstab submodules are loaded by then.
LOAD_ORDER = """
import contextlib, io, json, sys

def loaded():
    return sorted(k for k in sys.modules if k.startswith("cotstab."))

steps = {}
import cotstab
steps["import"] = loaded()
from cotstab import cli
conf = sys.argv[1]
for name, argv in [
        ("poles", ["poles", "--config", conf]),
        ("pdb-boundary", ["pdb-boundary", "--config", conf, "--nh", "50"]),
        ("simulate", ["simulate", "--config", conf, "--cycles", "40"])]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


def test_each_command_loads_only_its_route(conf):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", LOAD_ORDER, conf], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    steps = {name: set(mods) for name, mods in json.loads(out).items()}
    assert steps["import"] == set()
    assert not steps["poles"] & {"cotstab.simulate", "cotstab.harmonic",
                                 "cotstab.cases"}
    assert "cotstab.harmonic" in steps["pdb-boundary"]
    assert not steps["pdb-boundary"] & {"cotstab.simulate", "cotstab.cases"}
    assert "cotstab.simulate" in steps["simulate"]
    assert "cotstab.cases" not in steps["simulate"]


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2


def test_help_names_every_config_key(capsys):
    sample = {"scheme": "V_COTC", "float": "1.0", "int": "3",
              "range": "0:1:3"}
    for key, kind in cli._KEYS.items():
        assert key in load_config(None, [f"{key}={sample[kind]}"])
    with pytest.raises(ConfigError):
        load_config(None, ["Vs=5.0"])
    with pytest.raises(SystemExit):
        main(["--help"])
    epilog = capsys.readouterr().out.split("Keys:", 1)[1]
    assert set(cli._KEYS) <= set(epilog.replace("(", " ").split())


OPTIONAL_FLAGS = {
    "steady-state": set(),
    "poles": {"--formula"},
    "splot": {"--sweep"},
    "pole-locus": {"--sweep"},
    "pdb-boundary": {"--nh", "--formula"},
    "snb-boundary": {"--nh", "--formula"},
    "max-on-time": {"--sweep", "--formula"},
    "min-ri": {"--formula"},
    "hb-splot": {"--sweep", "--nh"},
    "l1": {"--sweep", "--nh"},
    "l2": {"--sweep", "--nh"},
    "hplot": {"--sweep", "--nh"},
    "simulate": {"--cycles"},
    "onset": {"--sweep", "--cycles"},
    "examples": set(),
}


@pytest.mark.parametrize("command", sorted(OPTIONAL_FLAGS))
def test_subcommand_help_lists_its_options(capsys, command):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    listed = {flag for flag in ("--config", "--set", "--out", "--format",
                                "--sweep", "--nh", "--formula", "--cycles")
              if f"{flag} " in out}
    assert listed == {"--config", "--set", "--out", "--format"} | \
        OPTIONAL_FLAGS[command]
