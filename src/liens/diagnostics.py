"""Scalar functionals and trajectory checks: energy, enstrophy-type norm,
dissipativity residual, energy balance, shell spectra, and the CSV schema
used by the command-line front end."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FieldError
from .grid_spectral import (
    RealVectorField,
    SpectralVectorField,
    enstrophy_norm,
    inner_product,
    parseval_sum,
)
from .leray import ns_rhs, viscosity_value

@dataclass(frozen=True)
class TimeSeriesRecord:
    """Per-step diagnostics of a simulation trajectory."""

    t: float
    energy: float
    enstrophy: float
    div_max: float
    balance_residual: float
    order_used: int
    dt: float

    def __post_init__(self):
        values = (self.t, self.energy, self.enstrophy, self.div_max,
                  self.balance_residual, self.dt)
        if not all(math.isfinite(x) for x in values):
            raise FieldError("time-series record contains non-finite values")
        if self.energy < 0.0 or self.enstrophy < 0.0:
            raise FieldError("energy and enstrophy must be nonnegative")


def energy(v: SpectralVectorField | RealVectorField) -> float:
    """Kinetic energy (1/2) <v, v>; spectral fields use Parseval directly."""
    if isinstance(v, RealVectorField):
        return 0.5 * v.grid.cell_volume * float(np.sum(v.data**2))
    return 0.5 * parseval_sum(v.grid, np.abs(v.data) ** 2)


def dissipativity_residual(v: SpectralVectorField, nu: float) -> float:
    """<F(v), v> + nu * enstrophy_norm(v); vanishes identically for dealiased
    divergence-free fields, so its size measures aliasing or projection bugs."""
    nu_val = viscosity_value(nu)
    return inner_product(ns_rhs(v, nu_val), v) + nu_val * enstrophy_norm(v)


def _interior_residuals(
    series: Sequence[TimeSeriesRecord], nu_val: float
) -> np.ndarray:
    """Relative residuals of dE/dt + nu*enstrophy at interior records.

    dE/dt is the three-point central difference (nonuniform spacing
    supported); residuals are scaled by the largest of |dE/dt| and
    nu*enstrophy seen anywhere, so a constant-zero trajectory gives zeros.
    """
    t = np.array([r.t for r in series])
    if np.any(np.diff(t) <= 0):
        raise ValueError("records must be sorted by strictly increasing t")
    e = np.array([r.energy for r in series])
    ens = np.array([r.enstrophy for r in series])
    h_minus = t[1:-1] - t[:-2]
    h_plus = t[2:] - t[1:-1]
    dedt = (
        e[2:] * h_minus**2
        - e[:-2] * h_plus**2
        + e[1:-1] * (h_plus**2 - h_minus**2)
    ) / (h_minus * h_plus * (h_minus + h_plus))
    scale = max(float(np.max(np.abs(dedt))), float(np.max(nu_val * ens[1:-1])))
    if scale == 0.0:
        return np.zeros(len(series) - 2)
    return np.abs(dedt + nu_val * ens[1:-1]) / scale


def energy_balance(series: Sequence[TimeSeriesRecord], nu: float) -> float:
    """Maximum relative residual of dE/dt = -nu * enstrophy over the series;
    needs at least 3 records with strictly increasing t."""
    nu_val = viscosity_value(nu)
    if len(series) < 3:
        raise ValueError("energy balance needs at least 3 records")
    return float(np.max(_interior_residuals(series, nu_val)))


def balance_residuals(
    series: Sequence[TimeSeriesRecord], nu: float
) -> list[float]:
    """Pointwise balance residuals for CSV emission: interior records carry
    the relative residual, endpoints (and too-short series) carry 0."""
    nu_val = viscosity_value(nu)
    out = [0.0] * len(series)
    if len(series) < 3:
        return out
    for i, r in enumerate(_interior_residuals(series, nu_val)):
        out[i + 1] = float(r)
    return out


def shell_spectrum(v: SpectralVectorField) -> list[tuple[int, float]]:
    """Energy binned by shells of the mode index |k| l / 2 pi (rounded to
    nearest, ties to even via ``np.rint``): round(sqrt(dim) n / 2) + 1 rows,
    whatever the box length l. The shell energies partition the total
    exactly."""
    grid = v.grid
    mode_energy = 0.5 * grid.volume * grid.weight * np.sum(np.abs(v.data) ** 2, axis=0)
    shells = np.rint(grid.mode_magnitude).astype(int)
    totals = np.bincount(shells.ravel(), weights=mode_energy.ravel())
    return [(int(s), float(totals[s])) for s in range(len(totals))]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


# The series CSV columns in record order, each with its (format, parse) pair.
_SERIES_COLUMNS = [
    (f.name, (str, int) if f.type == "int" else (format_float, float))
    for f in fields(TimeSeriesRecord)
]
SERIES_CSV_HEADER = ",".join(name for name, _ in _SERIES_COLUMNS)


def spectrum_csv(spectrum: Iterable[tuple[int, float]]) -> str:
    """The rows of ``shell_spectrum`` as CSV text: a header, then one row per shell."""
    rows = [f"{shell},{format_float(value)}" for shell, value in spectrum]
    return "\n".join(["k,energy", *rows]) + "\n"


def write_series_csv(path: str | Path, series: Iterable[TimeSeriesRecord]) -> None:
    lines = [SERIES_CSV_HEADER]
    for r in series:
        lines.append(",".join(fmt(getattr(r, name)) for name, (fmt, _) in _SERIES_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_series_csv(path: str | Path) -> list[TimeSeriesRecord]:
    text = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not text or text[0] != SERIES_CSV_HEADER:
        raise ValueError(f"bad series CSV header in {path}")
    records = []
    for line in text[1:]:
        cols = line.split(",")
        if len(cols) != len(_SERIES_COLUMNS):
            raise ValueError(f"bad series CSV row: {line!r}")
        row = {name: parse(col) for (name, (_, parse)), col in zip(_SERIES_COLUMNS, cols)}
        records.append(TimeSeriesRecord(**row))
    return records
