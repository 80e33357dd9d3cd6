"""Command line front end tests, run in process through main(argv).

Numeric rows are checked against direct library calls: the CLI must be a
faithful front end, so any drift between the two is a bug regardless of
which side moved.
"""

import json

import numpy as np
import pytest

from cotstab import BuckParams, RampSpec, Scheme, build_model
from cotstab.bifurcation import (
    exact_max_on_time,
    pdb_boundary_approx,
    exact_min_ri,
    min_ramp_formula,
    min_sense_resistance,
    pdb_boundary_exact,
    snb_boundary_approx,
    snb_boundary_exact,
)
from cotstab.cli import main
from cotstab.sampled import consistent_vc, poles

from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T

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


@pytest.mark.parametrize("command", ["pdb-boundary", "hb-splot"])
@pytest.mark.parametrize("nh", ["0", "-5"])
def test_nh_flag_rejects_non_positive_depth(capsys, conf, command, nh):
    rc, out, err = run_cli(capsys, [command, "--config", conf, "--nh", nh])
    assert rc == 2
    assert "ConfigError" in err and nh in err
    assert out == ""


def test_config_rejects_period_and_duty_together(capsys, conf):
    rc, _, err = run_cli(capsys, ["poles", "--config", conf,
                                  "--set", "D=0.4"])
    assert rc == 2
    assert "T" in err and "D" in err


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


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2
