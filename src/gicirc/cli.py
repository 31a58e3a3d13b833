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


# Loss flags of the topology commands: flag -> help.
_LOSS_FLAGS = {
    "--l-i": "sq-mzi internal loss",
    "--l-is": "sisni signal-arm internal loss",
    "--l-ii": "sisni idler-arm internal loss",
    "--l-e": "external loss",
}


def _add_topology_args(sub, losses=tuple(_LOSS_FLAGS)):
    sub.add_argument("--topology", choices=("mzi", "sq-mzi", "sisni"))
    sub.add_argument("--alpha2", type=float, default=36.0, help="bright-port photon number |alpha|^2")
    sub.add_argument("--dphi", type=float, default=1e-3, help="phase excursion (rad)")
    sub.add_argument("--phi", type=float, default=math.pi, help="phase set point (rad)")
    sub.add_argument("--bs-t", type=float, default=0.5, help="beamsplitter transmission")
    sub.add_argument("--g", type=float, default=None, help="sq-mzi squeezer gain g")
    sub.add_argument("--qng-db", type=float, default=None, help="sq-mzi squeezer QNG (dB)")
    sub.add_argument("--g1", type=float, default=None, help="sisni upstream amplifier gain")
    sub.add_argument("--g2", type=float, default=None, help="sisni downstream amplifier gain")
    sub.add_argument("--qng1-db", type=float, default=None, help="sisni upstream QNG (dB)")
    sub.add_argument("--qng2-db", type=float, default=None, help="sisni downstream QNG (dB)")
    sub.add_argument("--phi-pump", type=float, default=math.pi, help="sisni pump phase (rad)")
    for flag in losses:
        sub.add_argument(flag, type=float, default=0.0, help=_LOSS_FLAGS[flag])


def _gain(direct, qng_db, what: str) -> float:
    if direct is not None and qng_db is not None:
        raise ValueError(f"flag conflict: give either {what} or its QNG, not both")
    if qng_db is not None:
        return gain_from_qng(qng_db).g
    return 0.0 if direct is None else float(direct)


def _resolve_params(args):
    """Topology parameters from the flags; a loss flag the command lacks is 0."""
    if args.topology is None:
        raise ValueError("missing --topology (or --circuit where supported)")
    alpha = math.sqrt(args.alpha2)
    l_i, l_is, l_ii, l_e = (getattr(args, name, 0.0) for name in ("l_i", "l_is", "l_ii", "l_e"))
    if args.topology == "sisni":
        return SisniParams(
            alpha=alpha,
            g1=_gain(args.g1, args.qng1_db, "--g1"),
            g2=_gain(args.g2, args.qng2_db, "--g2"),
            L_is=l_is,
            L_ii=l_ii,
            L_e=l_e,
            phi_signal=args.phi,
            phi_pump=args.phi_pump,
            T=args.bs_t,
        )
    if args.topology == "mzi":
        if any(v is not None for v in (args.g, args.qng_db)):
            raise ValueError("flag conflict: plain mzi takes no squeezer gain")
        g = 0.0
    else:
        g = _gain(args.g, args.qng_db, "--g")
    return SqMziParams(alpha=alpha, g=g, L_i=l_i, L_e=l_e, phi=args.phi, T=args.bs_t)


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


def _report_table(outputs: dict):
    rep = outputs["report"]
    header = list(rep.keys())
    return header, [tuple(rep[k] for k in header)]


def _cmd_snr(args) -> int:
    params = _resolve_params(args)
    report = mean_signal_and_variance(params, args.dphi)
    outputs = _report_outputs(report, args.dphi, "closed_form")
    return _write(args, outputs, *_report_table(outputs))


def _cmd_simulate(args) -> int:
    if (args.circuit is None) == (args.topology is None):
        raise ValueError("flag conflict: give exactly one of --circuit or --topology")
    if args.circuit is not None:
        text = sys.stdin.read() if args.circuit == "-" else open(args.circuit, encoding="utf-8").read()
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
        st = outputs["stats"]
        header = list(st.keys())
        return _write(args, outputs, header, [tuple(st[k] for k in header)])
    params = _resolve_params(args)
    report = engine_report(params, args.dphi)
    outputs = _report_outputs(report, args.dphi, "engine")
    return _write(args, outputs, *_report_table(outputs))


def _cmd_sweep(args) -> int:
    params = _resolve_params(args)
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
        "y_axis": {"name": grid.y_axis.name, "start": grid.y_axis.start,
                   "stop": grid.y_axis.stop, "count": grid.y_axis.count},
        "x_axis": {"name": grid.x_axis.name, "start": grid.x_axis.start,
                   "stop": grid.x_axis.stop, "count": grid.x_axis.count},
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
    params = _resolve_params(args)
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
    outputs = {
        "fit": {
            "rho1": result.rho1,
            "rho2": result.rho2,
            "eps1_sq": result.eps1_sq,
            "eps2_sq": result.eps2_sq,
            "residual_rms": result.residual_rms,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        "n_points": len(data),
    }
    fit = outputs["fit"]
    header = list(fit.keys())
    return _write(args, outputs, header, [tuple(fit[k] for k in header)])


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
    sub.add_argument("--l-is", type=float, default=0.16)
    sub.add_argument("--l-ii", type=float, default=0.10)
    sub.add_argument("--l-e", type=float, default=0.15)
    sub.add_argument("--rho1", type=float, default=0.0)
    sub.add_argument("--eps1-sq", type=float, default=1.0)
    sub.add_argument("--rho2", type=float, default=0.0)
    sub.add_argument("--eps2-sq", type=float, default=1.0)
    sub.add_argument("--alpha2", type=float, default=36.0)
    sub.add_argument("--dphi", type=float, default=1e-3)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_advantage_curve)

    sub = add_command("fit", help="fit noise-model parameters to advantage data")
    sub.add_argument("--data", required=True, help="CSV with qng1_db,qng2_db,advantage_db[,sigma_db]")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=8)
    sub.add_argument("--max-evals", type=int, default=2000)
    sub.add_argument("--l-is", type=float, default=0.16)
    sub.add_argument("--l-ii", type=float, default=0.10)
    sub.add_argument("--l-e", type=float, default=0.15)
    sub.add_argument("--rho-max", type=float, default=0.1)
    sub.add_argument("--eps2-max", type=float, default=1e4)
    sub.add_argument("--alpha2", type=float, default=36.0)
    sub.add_argument("--dphi", type=float, default=1e-3)
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
