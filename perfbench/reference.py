"""Checks that the benchmark applies to the program's outputs.

The closed forms here are transcribed from the paper's formulas (as stated
in the package documentation), not imported from the package, so an engine
or closed-form regression in the program cannot also move the reference.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program failed a correctness check."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def rel_close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


# --- transcribed closed forms -------------------------------------------


def gain_from_qng_db(qng_db: float) -> tuple[float, float]:
    """(G, g) of an ideal amplifier with quantum noise gain G^2 + g^2 = 10^(dB/10)."""
    g = math.sqrt((10.0 ** (qng_db / 10.0) - 1.0) / 2.0)
    return math.sqrt(1.0 + g * g), g


def sq_mzi_noise(g: float, l_i: float, l_e: float) -> float:
    G = math.sqrt(1.0 + g * g)
    eta = (1.0 - l_i) * (1.0 - l_e)
    return eta / (G + g) ** 2 + l_i * (1.0 - l_e) + l_e


def sq_mzi_snr(alpha2: float, g: float, l_i: float, l_e: float, dphi: float) -> float:
    eta = (1.0 - l_i) * (1.0 - l_e)
    return eta * dphi * dphi * alpha2 / sq_mzi_noise(g, l_i, l_e)


def sisni_noise(g1: float, g2: float, l_is: float, l_ii: float, l_e: float) -> float:
    G1, G2 = math.sqrt(1.0 + g1 * g1), math.sqrt(1.0 + g2 * g2)
    rs = math.sqrt((1.0 - l_is) * (1.0 - l_e))
    ri = math.sqrt((1.0 - l_ii) * (1.0 - l_e))
    loss = l_e + g2 * g2 * (1.0 - l_e) * l_ii + G2 * G2 * (1.0 - l_e) * l_is
    return loss + (rs * G1 * G2 - ri * g1 * g2) ** 2 + (rs * g1 * G2 - ri * G1 * g2) ** 2


def sisni_snr(alpha2, g1, g2, l_is, l_ii, l_e, dphi) -> float:
    eta_s = (1.0 - l_is) * (1.0 - l_e)
    G2sq = 1.0 + g2 * g2
    return eta_s * G2sq * dphi * dphi * alpha2 / sisni_noise(g1, g2, l_is, l_ii, l_e)


def physicality_margin(cov: np.ndarray) -> float:
    """Smallest eigenvalue of cov + i Omega / 2, with [x, p] = 2i per mode."""
    n = cov.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 2.0], [-2.0, 0.0]]))
    return float(np.linalg.eigvalsh(cov + 0.5j * omega)[0])


# --- output formats -----------------------------------------------------


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def finite_csv(text: str, header: list[str]) -> np.ndarray:
    """Parse a CSV table with the given header whose cells are all finite numbers."""
    rows = list(csv.reader(text.splitlines()))
    require(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    try:
        table = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise CheckError(f"CSV cell is not a number: {exc}") from exc
    require(table.size > 0 and bool(np.all(np.isfinite(table))), "CSV holds non-finite cells")
    return table
