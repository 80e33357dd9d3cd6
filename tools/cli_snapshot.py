"""Record what a fixed list of ``cotstab`` invocations print, one file each.

Usage::

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

Every invocation runs in-process through ``cotstab.cli.main``, with the
package found on ``PYTHONPATH``; its argv, exit code, stdout and stderr go
to ``OUTDIR/<hash>.txt``, where ``<hash>`` is the first 12 hex digits of
the SHA-1 of the file's first line, the argv.  A file's name thus depends
on its invocation alone, and an invocation added to or removed from the
list shows up in ``diff -r`` as one "Only in" line.  The config files it
reads are written to ``OUTDIR/configs`` and named relative to ``OUTDIR``,
so that two snapshots differ only where the program's output does.  To
check that a change alters no output, snapshot both trees with this same
script and compare::

    PYTHONPATH=old/src python tools/cli_snapshot.py /tmp/before
    PYTHONPATH=new/src python tools/cli_snapshot.py /tmp/after
    diff -r /tmp/before /tmp/after

The list covers every subcommand on the three schemes, at a given period
and at a given duty, with no ramp, a stabilising ramp and a steep negative
one; CSV and JSON output, ``--formula``, ``--sweep`` and ``--nh``; the
fixed-period and fixed-output duty sweeps; both onset families at reduced
cycle counts, the ramp family at a first rung longer than the default
escalation rung, and the duty family's full-fidelity search of the
simulated-onset acceptance criterion on the default escalation ladder,
whose unstable probes end at their deciding saturated cycle; a critically
damped simulation (the ``q == 0`` branch of the simulator's closed form)
and one on the fixed-output duty family; the built-in worked cases; the
error cases of ``tests/test_cli.py``; and, for each command that keeps
formula rows, ``--formula`` with every catalog id on every scheme, so each
row filter and each "does not apply" error is covered.  That is 791
invocations, which run in well under a minute on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

from cotstab import cli
from cotstab.bifurcation import FORMULA_IDS

PLANT = {"vs": "5.0", "R": "0.5", "L": "2e-6", "C": "2e-5", "Rc": "0.02",
         "Ri": "0.05", "d": "1.2e-6"}
CURRENT = {"scheme": "C_COTC", "vs": "13.2", "R": "10.0", "L": "3.1e-6",
           "C": "3e-4", "Rc": "4.5e-3", "Ri": "0.15", "d": "0.26e-6",
           "T": "1.04e-6", "ma": "0.0"}
SCHEMES = ("V_COTC", "C_COTC", "V_COTC_CURRENT_RAMP")
TIMINGS = {"T": ("T", "3e-6"), "D": ("D", "0.4")}
RAMPS = ("0", "9500", "-1e5")
# R = sqrt(L/C)/2 and no ESR: a double off-stage eigenvalue
CRITICAL = ["--set", "R=0.15811388300841897", "--set", "Rc=0",
            "--set", "ma=5000"]

# subcommand -> extra arguments, run on every scheme, timing and ramp
PER_POINT = {
    "steady-state": [],
    "poles": [],
    "pole-locus": ["--sweep", "lambda=-1.5:1.5:13"],
    "pdb-boundary": ["--nh", "200"],
    "snb-boundary": ["--nh", "200", "--format", "json"],
    "splot": ["--sweep", "D=0.1:0.9:9"],
    "max-on-time": ["--sweep", "d=0.4e-6:2.8e-6:25"],
    "min-ri": [],
    "hb-splot": ["--nh", "40", "--sweep", "D=0.3:0.5:3"],
    "l1": ["--nh", "40", "--sweep", "fs=2e5:1e6:5"],
    "l2": ["--nh", "40", "--sweep", "fs=2e5:1e6:5"],
    "hplot": ["--nh", "40", "--sweep", "fs=2e5:1e6:5"],
    "simulate": ["--cycles", "60"],
}

# command with formula rows -> (timing of its config, extra arguments)
FORMULA_COMMANDS = {
    "poles": ("T", []),
    "pdb-boundary": ("T", ["--nh", "40"]),
    "snb-boundary": ("T", ["--nh", "40"]),
    "max-on-time": ("D", []),
    "min-ri": ("T", []),
}


def _write_config(path: str, values: dict) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())


def _configs() -> dict:
    """Write every config file under ``configs``; return name -> path."""
    os.makedirs("configs", exist_ok=True)
    out = {}
    for scheme in SCHEMES:
        for tag, (key, value) in TIMINGS.items():
            for ma in RAMPS:
                name = f"{scheme}-{tag}-ma{ma}"
                out[name] = {"scheme": scheme, **PLANT, key: value, "ma": ma}
    out["fast"] = {"scheme": "V_COTC", **PLANT, "T": "3e-6", "ma": "0.0"}
    del out["fast"]["Ri"]
    out["current"] = CURRENT
    # the fixed-output family (vo = 2) at duty 0.37: vs = vo / D
    out["duty"] = {**out["fast"], "D": "0.37", "vs": repr(2.0 / 0.37)}
    del out["duty"]["T"]
    out["unknown-key"] = {**out["fast"], "bogus": "1"}
    out["bad-number"] = {**out["fast"], "R": "half"}
    out["no-ri"] = {**out["fast"], "scheme": "C_COTC"}
    out["max-on-time"] = {**CURRENT, "scheme": "V_COTC"}
    del out["max-on-time"]["T"]
    out["max-on-time"]["D"] = "0.25"
    paths = {}
    for name, values in out.items():
        paths[name] = os.path.join("configs", f"{name}.conf")
        _write_config(paths[name], values)
    return paths


def invocations(conf: dict) -> list[list[str]]:
    """The fixed argv list; ``conf`` maps config names to paths."""
    runs = []
    for scheme in SCHEMES:
        for tag in TIMINGS:
            for ma in RAMPS:
                path = conf[f"{scheme}-{tag}-ma{ma}"]
                for command, extra in PER_POINT.items():
                    runs.append([command, "--config", path, *extra])
    fast, current = conf["fast"], conf["current"]
    runs += [
        # output formats, formula filters and default depths or grids
        ["steady-state", "--config", fast, "--format", "json"],
        ["poles", "--config", fast, "--set", "ma=9500", "--format", "json"],
        ["poles", "--config", fast, "--formula", "Eq42"],
        ["pdb-boundary", "--config", fast],
        ["pdb-boundary", "--config", fast, "--format", "json"],
        ["pdb-boundary", "--config", fast, "--formula", "Eq22"],
        ["snb-boundary", "--config", current],
        ["snb-boundary", "--config", current, "--formula", "Eq56"],
        ["pole-locus", "--config", fast],
        ["pole-locus", "--config", fast, "--format", "json"],
        ["splot", "--config", fast],
        ["splot", "--config", fast, "--sweep", "D=0.3:1.1:5"],
        ["hb-splot", "--config", fast, "--nh", "200"],
        ["max-on-time", "--config", conf["max-on-time"],
         "--sweep", "d=0.4e-6:2.8e-6:25"],
        ["max-on-time", "--config", conf["max-on-time"], "--set", "d=0.26e-6",
         "--formula", "Eq41"],
        ["min-ri", "--config", current, "--set", "scheme=V_COTC_CURRENT_RAMP"],
        ["min-ri", "--config", current, "--set", "scheme=V_COTC_CURRENT_RAMP",
         "--formula", "Eq47", "--format", "json"],
        ["l1", "--config", fast, "--set", "ma=9500", "--nh", "200"],
        ["hplot", "--config", current, "--format", "json", "--nh", "100"],
        # fixed-output family sweeps
        ["splot", "--config", fast, "--set", "vo=2.0",
         "--sweep", "D=0.2:0.8:4"],
        ["splot", "--config", current, "--set", "vo=3.3"],
        ["hb-splot", "--config", fast, "--set", "vo=2.0", "--nh", "40",
         "--sweep", "D=0.2:0.8:4"],
        # simulation: critical damping, then both onset families
        ["simulate", "--config", fast, *CRITICAL, "--cycles", "400"],
        ["simulate", "--config", fast, "--set", "ma=2000", "--cycles", "600",
         "--set", "settle=300"],
        ["simulate", "--config", conf["duty"], "--cycles", "1500",
         "--set", "settle=300"],
        ["onset", "--config", fast, "--sweep", "ma=900:1000:2",
         "--cycles", "13000", "--set", "settle=300"],
        ["onset", "--config", fast, "--sweep", "ma=0:5000:2",
         "--cycles", "400", "--set", "settle=150"],
        ["onset", "--config", fast, "--set", "vo=2.0", "--set", "ma=1500",
         "--sweep", "D=0.2:0.6:2", "--cycles", "400", "--set", "settle=150"],
        ["onset", "--config", fast, "--set", "vo=2.0",
         "--sweep", "D=0.30:0.45:2", "--cycles", "1500",
         "--set", "settle=300"],
        ["examples"],
        ["examples", "--format", "json"],
        # error cases
        ["pdb-boundary", "--config", fast, "--formula", "Eq99"],
        ["pdb-boundary", "--config", fast, "--formula", "Eq50"],
        ["simulate", "--config", fast, "--set", "vc=100", "--cycles", "40"],
        ["simulate", "--config", fast, "--set", "vc=-100", "--cycles", "10"],
        ["onset", "--config", fast],
        ["onset", "--config", fast, "--sweep", "ma=2000:2500:2",
         "--cycles", "120", "--set", "settle=30"],
        ["l1", "--config", fast],
        ["poles", "--config", conf["unknown-key"]],
        ["poles", "--config", conf["bad-number"]],
        ["poles", "--config", conf["no-ri"]],
        ["poles", "--config", fast, "--set", "ma_range=1:2:3"],
        ["poles", "--config", fast, "--set", "D=0.4"],
        ["hplot", "--config", fast, "--sweep", "D=0.2:0.8:5"],
        ["splot", "--config", fast, "--sweep", "D=0.5:1.0:2"],
        ["min-ri", "--config", fast, "--set", "d=3e-6",
         "--set", "scheme=V_COTC_CURRENT_RAMP"],
        ["max-on-time", "--config", conf["max-on-time"], "--set", "d=-1e-6"],
        ["max-on-time", "--config", conf["max-on-time"], "--set", "d=0"],
        ["max-on-time", "--config", conf["max-on-time"],
         "--sweep", "d=-1e-6:2.8e-6:2"],
        ["splot", "--config", fast, "--set", "vo=2", "--set", "d=0"],
        ["hb-splot", "--config", fast, "--set", "vo=2", "--set", "d=-1e-6"],
        # sweeps with no point that can be evaluated
        ["splot", "--config", fast, "--sweep", "D=1.5:2:3"],
        ["splot", "--config", fast, "--set", "vo=2", "--sweep", "D=1.5:2:3"],
        ["l2", "--config", fast, "--nh", "40", "--sweep", "fs=1e6:2e6:3"],
        ["--version"],
        ["no-such-command"],
    ]
    for command in ("pdb-boundary", "hb-splot"):
        for nh in ("0", "-5"):
            runs.append([command, "--config", fast, "--nh", nh])
    for cycles in ("0", "-5"):
        runs.append(["simulate", "--config", fast, "--cycles", cycles])
        runs.append(["onset", "--config", fast, "--cycles", cycles,
                     "--sweep", "ma=0:5000:2"])
    for command in ("steady-state", "poles", "pole-locus", "pdb-boundary",
                    "snb-boundary", "simulate"):
        runs.append([command, "--config", fast, "--set", "d=3e-6"])
    runs.append(["onset", "--config", fast, "--set", "d=3e-6",
                 "--sweep", "ma=0:5000:2"])
    for command, setting in (("poles", "vc=nan"), ("splot", "vc=inf"),
                             ("steady-state", "vs=-inf"),
                             ("simulate", "iL0=nan"),
                             ("pdb-boundary", "ma=inf"),
                             ("splot", "vo=nan")):
        runs.append([command, "--config", fast, "--set", setting])
    for command, (tag, extra) in FORMULA_COMMANDS.items():
        for scheme in SCHEMES:
            path = conf[f"{scheme}-{tag}-ma0"]
            for formula in sorted(FORMULA_IDS):
                runs.append([command, "--config", path, *extra,
                             "--formula", formula])
    return runs


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse: --version, usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def snapshot(outdir: str) -> int:
    """Write one file per invocation into ``outdir``; return their count."""
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    os.environ["COTC_LOG"] = "error"
    cli._setup_logging()
    runs = invocations(_configs())
    for argv in runs:
        code, out, err = _run(argv)
        head = f"argv: {' '.join(argv)}"
        name = hashlib.sha1(head.encode()).hexdigest()[:12]
        with open(f"{name}.txt", "w") as fh:
            fh.write(f"{head}\nexit: {code}\n"
                     f"--- stdout\n{out}--- stderr\n{err}")
    return len(runs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    print(f"{snapshot(args[0])} invocations written to {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
