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
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import loss_plane, slope_vs_theta, to_db, wigner_panel
from .circuits import detect_stats, parse_circuit, simulate
from .elements import gain_from_qng
from .errors import GicircError
from .interferometers import (
    _TOPOLOGIES,
    SisniParams,
    SqMziParams,
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


def _linspace(rng) -> np.ndarray:
    start, stop, count = rng
    return np.linspace(start, stop, count)


def _add_output_args(sub):
    sub.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help=f"output format (default: ${FORMAT_ENV} or json)",
    )


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
    values = {"alpha": math.sqrt(args.alpha2), topo.phase_field: args.phi, "T": args.bs_t}
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
            raise ValueError(f"result holds a non-finite number ({value})")
        return "%.12g" % value
    return str(value)


def _encode(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    With ``indent`` set, the standard library encodes in pure Python, one
    type check per element.  Here a list of floats is written in one
    ``join`` of ``float.__repr__`` (what ``json`` writes for a float or a
    float subclass); dicts and other lists recurse, and every other value,
    strings included, goes through ``json.dumps``.  Keys must be strings.
    NaN or infinity raises ``ValueError``, an unsupported type ``TypeError``.
    """
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("result keys must be strings")
        items = (json.dumps(key) + ": " + _encode(obj[key], inner) for key in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            body = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # not a list of floats
            body = ("," + inner).join(_encode(item, inner) for item in obj)
        else:
            if "n" in body:  # 'nan' or 'inf': no finite float's repr holds an 'n'
                raise ValueError("Out of range float values are not JSON compliant")
        return "[" + inner + body + newline + "]"
    return json.dumps(obj, allow_nan=False)


def _write(args, outputs: dict, header, rows) -> int:
    """Write the result document (JSON) or its table (CSV); non-finite numbers fail.

    ``rows`` is any iterable of table rows; JSON output never reads it.
    """
    fmt = args.format or os.environ.get(FORMAT_ENV, "json")
    if fmt == "json":
        doc = _result_doc(args, outputs)
        try:
            payload = _encode(doc) + "\n"
        except ValueError as exc:
            raise ValueError("result holds a non-finite number (NaN or Infinity)") from exc
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        payload = buf.getvalue()
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    return 0


def _report_outputs(report, dphi: float, method: str) -> dict:
    return {
        "method": method,
        "dphi": dphi,
        "report": {
            "mean_X2": report.mean_X2,
            "var_X2": report.var_X2,
            "snr": report.snr,
            "snr_db": to_db(report.snr) if report.snr > 0 else None,
            "phase_variance": report.phase_variance,
            "detected_mode": report.detected_mode,
        },
    }


def _one_row(record: dict):
    """CSV header and single row of a flat result record."""
    return list(record), [tuple(record.values())]


def _cmd_snr(args) -> int:
    params = _resolve_params(args)
    report = mean_signal_and_variance(params, args.dphi)
    outputs = _report_outputs(report, args.dphi, "closed_form")
    return _write(args, outputs, *_one_row(outputs["report"]))


def _cmd_simulate(args) -> int:
    if (args.circuit is None) == (args.topology is None):
        raise ValueError("flag conflict: give exactly one of --circuit or --topology")
    if args.circuit is not None:
        _refuse_unread(args, (), "--circuit")
        if args.circuit == "-":
            text = sys.stdin.read()
        else:
            with open(args.circuit, encoding="utf-8") as fh:
                text = fh.read()
        spec = parse_circuit(text)
        state = simulate(spec)
        stats = detect_stats(spec, state)
        outputs = {
            "method": "engine",
            "stats": {
                "mode": spec.detect.mode,
                "theta": stats.theta,
                "mean": stats.mean,
                "variance": stats.variance,
            },
        }
        if args.full_state:
            outputs["state"] = {
                "mean": state.mean.tolist(),
                "cov": state.cov.tolist(),
            }
        return _write(args, outputs, *_one_row(outputs["stats"]))
    params = _resolve_params(args)
    report = engine_report(params, args.dphi)
    outputs = _report_outputs(report, args.dphi, "engine")
    return _write(args, outputs, *_one_row(outputs["report"]))


def _cmd_sweep(args) -> int:
    params = _resolve_params(args, unread=("dphi",))
    i_start, i_stop, i_count = args.internal
    e_start, e_stop, e_count = args.external
    grid = loss_plane(
        params,
        internal_range=(i_start, i_stop),
        external_range=(e_start, e_stop),
        resolution=(i_count, e_count),
        internal_target=args.internal_target,
    )
    outputs = {
        "quantity": "advantage_db",
        "y_axis": dataclasses.asdict(grid.y_axis),
        "x_axis": dataclasses.asdict(grid.x_axis),
        "values": grid.values.tolist(),
    }
    rows = (
        (yv, xv, grid.values[iy, ix])
        for iy, yv in enumerate(grid.y_axis.values)
        for ix, xv in enumerate(grid.x_axis.values)
    )
    return _write(args, outputs, ("internal_loss", "external_loss", "advantage_db"), rows)


def _cmd_slope(args) -> int:
    params = _resolve_params(args)
    thetas = _linspace(args.thetas)
    slopes = slope_vs_theta(params, thetas, args.dphi)
    outputs = {"theta": thetas.tolist(), "slope": slopes.tolist()}
    return _write(args, outputs, ("theta", "slope"), list(zip(thetas, slopes)))


def _cmd_wigner(args) -> int:
    params = _resolve_params(args, unread=("dphi", "phi"))
    panel = wigner_panel(
        params,
        _linspace(args.phis),
        _linspace(args.l_es),
        _linspace(args.xs),
        _linspace(args.ps),
    )
    outputs = {
        "phi_values": panel.phi_values.tolist(),
        "l_e_values": panel.L_e_values.tolist(),
        "x": panel.x.tolist(),
        "p": panel.p.tolist(),
        "density": panel.density.tolist(),
    }
    rows = (
        (phi, le, xv, pv, panel.density[i, j, ix, ip])
        for i, phi in enumerate(panel.phi_values)
        for j, le in enumerate(panel.L_e_values)
        for ix, xv in enumerate(panel.x)
        for ip, pv in enumerate(panel.p)
    )
    return _write(args, outputs, ("phi", "l_e", "x", "p", "density"), rows)


def _cmd_advantage_curve(args) -> int:
    qng2 = _linspace(args.qng2)
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
    return _write(args, outputs, ("qng2_db", "advantage_db"), list(zip(qng2, curve)))


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
    add_command = functools.partial(subs.add_parser, allow_abbrev=False)

    sub = add_command("snr", help="closed-form SNR and phase variance")
    _add_topology_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_snr)

    sub = add_command("simulate", help="run the covariance engine")
    sub.add_argument("--circuit", default=None, help="circuit document path ('-' = stdin)")
    sub.add_argument("--full-state", action="store_true", help="include output mean and covariance")
    _add_topology_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = add_command("sweep", help="advantage map over the loss plane")
    _add_topology_args(sub, losses=())
    sub.add_argument("--internal", type=_range_type, default=(0.0, 0.9, 101),
                     help="internal loss range start:stop:count")
    sub.add_argument("--external", type=_range_type, default=(0.0, 0.9, 101),
                     help="external loss range start:stop:count")
    sub.add_argument("--internal-target", choices=("both", "signal", "idler"),
                     default="both", help="which internal loss the sweep drives (sisni)")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_sweep)

    sub = add_command("slope", help="signal slope versus local-oscillator angle")
    _add_topology_args(sub)
    sub.add_argument("--thetas", type=_range_type, default=(0.0, TWO_PI, 361),
                     help="angle grid start:stop:count (rad)")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_slope)

    # --l-es sets the external loss; --l-e is refused, not read as --l-es.
    sub = add_command("wigner", help="detected-mode Wigner density panels")
    _add_topology_args(sub, losses=("--l-i", "--l-is", "--l-ii"))
    sub.add_argument("--phis", type=_range_type, default=(math.pi - 0.05, math.pi + 0.05, 3),
                     help="signal phase values start:stop:count")
    sub.add_argument("--l-es", type=_range_type, default=(0.0, 0.6, 3),
                     help="external loss values start:stop:count")
    sub.add_argument("--xs", type=_range_type, default=(-6.0, 6.0, 121))
    sub.add_argument("--ps", type=_range_type, default=(-6.0, 6.0, 121))
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_wigner)

    sub = add_command("advantage-curve", help="noise-model advantage versus downstream QNG")
    sub.add_argument("--qng1-db", type=float, required=True)
    sub.add_argument("--qng2", type=_range_type, default=(0.5, 12.0, 24),
                     help="downstream QNG grid start:stop:count (dB)")
    sub.add_argument("--rho1", type=float, default=0.0)
    sub.add_argument("--eps1-sq", type=float, default=1.0)
    sub.add_argument("--rho2", type=float, default=0.0)
    sub.add_argument("--eps2-sq", type=float, default=1.0)
    _add_noise_model_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_advantage_curve)

    sub = add_command("fit", help="fit noise-model parameters to advantage data")
    sub.add_argument("--data", required=True, help="CSV with qng1_db,qng2_db,advantage_db[,sigma_db]")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=8)
    sub.add_argument("--max-evals", type=int, default=2000)
    sub.add_argument("--rho-max", type=float, default=0.1)
    sub.add_argument("--eps2-max", type=float, default=1e4)
    _add_noise_model_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_fit)

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


if __name__ == "__main__":
    sys.exit(main())
