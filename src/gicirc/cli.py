"""Command-line front end.

Subcommands delegate to the library: ``snr`` evaluates the closed forms,
``simulate`` runs the covariance engine on a built-in topology or a circuit
document, ``sweep``/``slope``/``wigner`` produce figure-level data,
``advantage-curve`` and ``fit`` drive the amplifier noise model.  Output is
a JSON result document (default) or a bare CSV table; identical flags and
seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import loss_plane, slope_vs_theta, to_db, wigner_panel
from .circuits import _dump, detect_stats, parse_circuit, simulate
from .elements import gain_from_qng
from .errors import GicircError
from .interferometers import (
    _TOPOLOGIES,
    SisniParams,
    SqMziParams,
    _amplitude,
    engine_report,
    mean_signal_and_variance,
)
from .noise_fit import advantage_vs_qng, fit_noise_model, load_fit_data

RESULT_SCHEMA = "gicirc-result/1"
FORMAT_ENV = "GICIRC_FORMAT"
TWO_PI = 2.0 * math.pi


def _range_type(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError(f"range count must be >= 1, got {count}")
    return start, stop, count


# Topology flags: flag -> (default, help).
_TOPOLOGY_FLAGS = {
    "--alpha2": (36.0, "bright-port photon number |alpha|^2"),
    "--dphi": (1e-3, "phase excursion (rad)"),
    "--phi": (math.pi, "phase set point (rad)"),
    "--bs-t": (0.5, "beamsplitter transmission"),
    "--g": (None, "sq-mzi squeezer gain g"),
    "--qng-db": (None, "sq-mzi squeezer QNG (dB)"),
    "--g1": (None, "sisni upstream amplifier gain"),
    "--g2": (None, "sisni downstream amplifier gain"),
    "--qng1-db": (None, "sisni upstream QNG (dB)"),
    "--qng2-db": (None, "sisni downstream QNG (dB)"),
    "--phi-pump": (math.pi, "sisni pump phase (rad)"),
}
# Loss flags, chosen per command: flag -> (default, help).
_LOSS_FLAGS = {
    "--l-i": (0.0, "sq-mzi internal loss"),
    "--l-is": (0.0, "sisni signal-arm internal loss"),
    "--l-ii": (0.0, "sisni idler-arm internal loss"),
    "--l-e": (0.0, "external loss"),
}
# Parsed name -> default of every topology flag.
_TOPOLOGY_DEFAULTS = {
    flag[2:].replace("-", "_"): default
    for flag, (default, _) in (_TOPOLOGY_FLAGS | _LOSS_FLAGS).items()
}
_PARAMS = {"mzi": SqMziParams, "sq-mzi": SqMziParams, "sisni": SisniParams}
# Gain field -> its direct and its QNG flag.  Every other parameter field is
# set by the flag of its lowercased name (``L_is`` by ``--l-is``), if any.
_GAIN_FLAGS = {"g": ("g", "qng_db"), "g1": ("g1", "qng1_db"), "g2": ("g2", "qng2_db")}


def _add_topology_args(sub, losses=tuple(_LOSS_FLAGS)):
    sub.add_argument("--topology", choices=tuple(_PARAMS))
    flags = _TOPOLOGY_FLAGS | {flag: _LOSS_FLAGS[flag] for flag in losses}
    for flag, (default, help_) in flags.items():
        sub.add_argument(flag, type=float, default=default, help=help_)


# Flags shared by the noise-model commands (advantage-curve, fit): flag -> default.
_NOISE_MODEL_FLAGS = {"--l-is": 0.16, "--l-ii": 0.10, "--l-e": 0.15, "--alpha2": 36.0, "--dphi": 1e-3}


def _add_noise_model_args(sub):
    for flag, default in _NOISE_MODEL_FLAGS.items():
        sub.add_argument(flag, type=float, default=default)


def _refuse_unread(args, read, where: str):
    """Refuse every topology flag the run does not ``read`` that is off its default."""
    for dest, default in _TOPOLOGY_DEFAULTS.items():
        if dest not in read and getattr(args, dest, default) != default:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"flag conflict: {flag} does not apply to {where}")


def _gain(direct, qng_db, what: str) -> float:
    if direct is not None and qng_db is not None:
        raise ValueError(f"flag conflict: give either {what} or its QNG, not both")
    if qng_db is not None:
        return gain_from_qng(qng_db).g
    return 0.0 if direct is None else float(direct)


def _resolve_params(args, unread=()):
    """Topology parameters from the flags; a loss flag the command lacks is 0.

    A flag for a field the topology's parameters lack, and a flag named in
    ``unread`` (one the command never reads), must keep its default.
    """
    if args.topology is None:
        raise ValueError("missing --topology (or --circuit where supported)")
    cls = _PARAMS[args.topology]
    topo = _TOPOLOGIES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    gain_flags = [flag for field in topo.gains for flag in _GAIN_FLAGS[field]]
    read = {"alpha2", "dphi", "phi", "bs_t", *map(str.lower, names), *gain_flags}
    _refuse_unread(args, read, f"--topology {args.topology}")
    _refuse_unread(args, _TOPOLOGY_DEFAULTS.keys() - set(unread), args.command)
    if args.topology == "mzi" and (args.g is not None or args.qng_db is not None):
        raise ValueError("flag conflict: plain mzi takes no squeezer gain")
    values = {"alpha": _amplitude(args.alpha2), topo.phase_field: args.phi, "T": args.bs_t}
    for field in topo.gains:
        direct, qng_db = _GAIN_FLAGS[field]
        values[field] = _gain(getattr(args, direct), getattr(args, qng_db), "--" + direct)
    values |= {name: getattr(args, name.lower(), 0.0) for name in names if name not in values}
    return cls(**values)


# Parsed options that select what runs or where output goes, not a parameter.
_NOT_ECHOED = ("func", "command", "output", "format")


def _echo(args) -> dict:
    """Every parsed option that parametrizes the result."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key not in _NOT_ECHOED
    }


def _result_doc(args, outputs: dict) -> dict:
    command, parameters = args.command, _echo(args)
    canonical = json.dumps(
        {"command": command, "parameters": parameters},
        sort_keys=True,
        separators=(",", ":"),
    )
    return {
        "schema_version": RESULT_SCHEMA,
        "command": {"name": command, "parameters": parameters},
        "outputs": outputs,
        "provenance": {
            "artifact_version": __version__,
            "parameter_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        },
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(value)
        return "%.12g" % value
    return str(value)


def _write(args, outputs: dict, header, rows) -> int:
    """Write the result document (JSON) or its table (CSV); non-finite numbers fail.

    ``rows`` is any iterable of table rows; JSON output never reads it.  A
    file gets the text as it is encoded, so the whole of it (18 MB for the
    README's Wigner panels) is never held in memory, and a failed encoding
    removes the partial file.  Standard output gets the text once it is
    whole, so a failure prints nothing.
    """
    fmt = args.format or os.environ.get(FORMAT_ENV, "json")
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown output format {fmt!r}")

    def emit(fh):
        try:
            if fmt == "json":
                _dump(_result_doc(args, outputs), fh.write)
                fh.write("\n")
            else:
                writer = csv.writer(fh, lineterminator="\r\n")
                writer.writerow(header)
                writer.writerows([_fmt(v) for v in row] for row in rows)
        except ValueError as exc:
            raise ValueError("result holds a non-finite number (NaN or Infinity)") from exc

    if args.output == "-":
        buf = io.StringIO()
        emit(buf)
        sys.stdout.write(buf.getvalue())
        return 0
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        try:
            emit(fh)
        except Exception:
            fh.close()
            if os.path.isfile(args.output):  # never a device or a pipe named as the output
                os.remove(args.output)
            raise
    return 0


def _one_row(record: dict):
    """CSV header and single row of a flat result record."""
    return list(record), [tuple(record.values())]


def _grid_rows(axes, values):
    """CSV rows ``(*coordinates, value)`` of a grid over ``axes``, the last axis fastest."""
    return ((*point, value) for point, value in zip(itertools.product(*axes), np.ravel(values)))


def _report(args, readout, method: str) -> int:
    """Write ``readout(params, dphi)`` of the topology the flags give."""
    report = readout(_resolve_params(args), args.dphi)
    record = {
        "mean_X2": report.mean_X2,
        "var_X2": report.var_X2,
        "snr": report.snr,
        "snr_db": to_db(report.snr) if report.snr > 0 else None,
        "phase_variance": report.phase_variance,
        "detected_mode": report.detected_mode,
    }
    outputs = {"method": method, "dphi": args.dphi, "report": record}
    return _write(args, outputs, *_one_row(record))


def _cmd_simulate(args) -> int:
    if (args.circuit is None) == (args.topology is None):
        raise ValueError("flag conflict: give exactly one of --circuit or --topology")
    if args.topology is not None:
        return _report(args, engine_report, "engine")
    _refuse_unread(args, (), "--circuit")
    if args.circuit == "-":
        text = sys.stdin.read()
    else:
        with open(args.circuit, encoding="utf-8") as fh:
            text = fh.read()
    spec = parse_circuit(text)
    state = simulate(spec)
    stats = detect_stats(spec, state)
    record = {"mode": spec.detect.mode, "theta": stats.theta, "mean": stats.mean, "variance": stats.variance}
    outputs = {"method": "engine", "stats": record}
    if args.full_state:
        outputs["state"] = {"mean": state.mean.tolist(), "cov": state.cov.tolist()}
    return _write(args, outputs, *_one_row(record))


def _cmd_sweep(args) -> int:
    params = _resolve_params(args, unread=("dphi",))
    swept = {name.lower() for name in _TOPOLOGIES[type(params)].internal.get(args.internal_target, ())}
    _refuse_unread(args, _TOPOLOGY_DEFAULTS.keys() - swept, f"--internal-target {args.internal_target}")
    grid = loss_plane(
        params,
        internal_range=args.internal[:2],
        external_range=args.external[:2],
        resolution=(args.internal[2], args.external[2]),
        internal_target=args.internal_target,
    )
    outputs = {
        "quantity": "advantage_db",
        "y_axis": dataclasses.asdict(grid.y_axis),
        "x_axis": dataclasses.asdict(grid.x_axis),
        "values": grid.values.tolist(),
    }
    rows = _grid_rows((grid.y_axis.values, grid.x_axis.values), grid.values)
    return _write(args, outputs, ("internal_loss", "external_loss", "advantage_db"), rows)


def _cmd_slope(args) -> int:
    params = _resolve_params(args)
    thetas = np.linspace(*args.thetas)
    slopes = slope_vs_theta(params, thetas, args.dphi)
    outputs = {"theta": thetas.tolist(), "slope": slopes.tolist()}
    return _write(args, outputs, ("theta", "slope"), _grid_rows((thetas,), slopes))


def _cmd_wigner(args) -> int:
    params = _resolve_params(args, unread=("dphi", "phi"))
    panel = wigner_panel(params, *(np.linspace(*rng) for rng in (args.phis, args.l_es, args.xs, args.ps)))
    outputs = {
        "phi_values": panel.phi_values.tolist(),
        "l_e_values": panel.L_e_values.tolist(),
        "x": panel.x.tolist(),
        "p": panel.p.tolist(),
        "density": panel.density.tolist(),
    }
    rows = _grid_rows((panel.phi_values, panel.L_e_values, panel.x, panel.p), panel.density)
    return _write(args, outputs, ("phi", "l_e", "x", "p", "density"), rows)


def _cmd_advantage_curve(args) -> int:
    qng2 = np.linspace(*args.qng2)
    curve = advantage_vs_qng(
        args.qng1_db,
        qng2,
        (args.l_is, args.l_ii, args.l_e),
        (args.rho1, args.eps1_sq),
        (args.rho2, args.eps2_sq),
        alpha2=args.alpha2,
        dphi=args.dphi,
    )
    outputs = {"qng1_db": args.qng1_db, "qng2_db": qng2.tolist(), "advantage_db": curve.tolist()}
    return _write(args, outputs, ("qng2_db", "advantage_db"), _grid_rows((qng2,), curve))


def _cmd_fit(args) -> int:
    data = load_fit_data(args.data)
    result = fit_noise_model(
        data,
        losses=(args.l_is, args.l_ii, args.l_e),
        bounds=((0.0, args.rho_max), (1.0, args.eps2_max)),
        seed=args.seed,
        restarts=args.restarts,
        max_evals=args.max_evals,
        alpha2=args.alpha2,
        dphi=args.dphi,
    )
    outputs = {"fit": dataclasses.asdict(result), "n_points": len(data)}
    return _write(args, outputs, *_one_row(outputs["fit"]))


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations anywhere: argparse would otherwise read a partial or
    # mistyped flag (--alpha, --l-e on wigner) as the one flag it prefixes.
    parser = argparse.ArgumentParser(
        prog="gicirc",
        description="Gaussian-optics interferometer simulation and analysis.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gicirc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_: str):
        """Declare subcommand ``name``, run by ``func``."""
        sub = subs.add_parser(name, help=help_, allow_abbrev=False)
        sub.set_defaults(func=func)
        return sub

    snr = functools.partial(_report, readout=mean_signal_and_variance, method="closed_form")
    _add_topology_args(command("snr", snr, "closed-form SNR and phase variance"))

    sub = command("simulate", _cmd_simulate, "run the covariance engine")
    sub.add_argument("--circuit", default=None, help="circuit document path ('-' = stdin)")
    sub.add_argument("--full-state", action="store_true", help="include output mean and covariance")
    _add_topology_args(sub)

    # The internal loss the sweep drives comes from --internal; --l-is/--l-ii
    # set the arm it does not drive (sisni).
    sub = command("sweep", _cmd_sweep, "advantage map over the loss plane")
    _add_topology_args(sub, losses=("--l-is", "--l-ii"))
    sub.add_argument("--internal", type=_range_type, default=(0.0, 0.9, 101),
                     help="internal loss range start:stop:count")
    sub.add_argument("--external", type=_range_type, default=(0.0, 0.9, 101),
                     help="external loss range start:stop:count")
    sub.add_argument("--internal-target", choices=("both", "signal", "idler"),
                     default="both", help="which internal loss the sweep drives (sisni)")

    sub = command("slope", _cmd_slope, "signal slope versus local-oscillator angle")
    _add_topology_args(sub)
    sub.add_argument("--thetas", type=_range_type, default=(0.0, TWO_PI, 361),
                     help="angle grid start:stop:count (rad)")

    # --l-es sets the external loss; --l-e is refused, not read as --l-es.
    sub = command("wigner", _cmd_wigner, "detected-mode Wigner density panels")
    _add_topology_args(sub, losses=("--l-i", "--l-is", "--l-ii"))
    sub.add_argument("--phis", type=_range_type, default=(math.pi - 0.05, math.pi + 0.05, 3),
                     help="signal phase values start:stop:count")
    sub.add_argument("--l-es", type=_range_type, default=(0.0, 0.6, 3),
                     help="external loss values start:stop:count")
    sub.add_argument("--xs", type=_range_type, default=(-6.0, 6.0, 121))
    sub.add_argument("--ps", type=_range_type, default=(-6.0, 6.0, 121))

    sub = command("advantage-curve", _cmd_advantage_curve, "noise-model advantage versus downstream QNG")
    sub.add_argument("--qng1-db", type=float, required=True)
    sub.add_argument("--qng2", type=_range_type, default=(0.5, 12.0, 24),
                     help="downstream QNG grid start:stop:count (dB)")
    sub.add_argument("--rho1", type=float, default=0.0)
    sub.add_argument("--eps1-sq", type=float, default=1.0)
    sub.add_argument("--rho2", type=float, default=0.0)
    sub.add_argument("--eps2-sq", type=float, default=1.0)
    _add_noise_model_args(sub)

    sub = command("fit", _cmd_fit, "fit noise-model parameters to advantage data")
    sub.add_argument("--data", required=True, help="CSV with qng1_db,qng2_db,advantage_db[,sigma_db]")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=8)
    sub.add_argument("--max-evals", type=int, default=2000)
    sub.add_argument("--rho-max", type=float, default=0.1)
    sub.add_argument("--eps2-max", type=float, default=1e4)
    _add_noise_model_args(sub)

    for sub in subs.choices.values():
        sub.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
        sub.add_argument(
            "--format",
            choices=("json", "csv"),
            default=None,
            help=f"output format (default: ${FORMAT_ENV} or json)",
        )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GicircError, ValueError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
            + "\n"
        )
        return 1
