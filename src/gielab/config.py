"""Numerical tolerances and optimizer grid settings.

``Tolerances`` and ``GridConfig`` hold the user-settable keys:
``GIELAB_CONFIG`` may point to a ``key=value`` file overriding individual
entries, and tests and the CLI read the same active records.  Thresholds
that the library uses but that are not meant to be set are module
constants instead: ``optimize.MIN_IMPROVEMENT``, ``optimize.MAX_SWEEPS``,
``gie.SQRT_AB_SLACK``, ``gie.SCAN_MONOTONE_SLACK``, ``gie.GATE_LOWER_BOUND``,
``gie.VERIFIED_DOMAIN_BOUND``, ``measurement.CCM_PSD_RTOL``,
``renyi2.TRIANGLE_SLACK``, ``renyi2.SYMMETRY_RTOL`` and
``symplectic.EIGENVALUE_SYMMETRY_RTOL``.  The pass tolerances of the
``verify`` checks are constants of that module: ``verify.CLOSED_FORM_ATOL``,
``verify.MINMAX_ATOL``, ``verify.CANDIDATE_ORDER_SLACK``,
``verify.GCMI_ATOL``, ``verify.KH_CROSS_ATOL``, ``verify.KH_UNIT_ATOL``,
``verify.KH_MIN_ATOL``, ``verify.CONJECTURE_ATOL``,
``verify.FAITHFULNESS_ATOL``, ``verify.HOMODYNE_LIMIT_ATOL`` and
``verify.F_DECOMPOSITION_ATOL``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical tolerances (absolute unless noted)."""

    symmetry_rtol: float = 1e-12      # CovMat symmetry, relative
    physical_atol: float = 1e-9       # symplectic eigenvalues >= 1 - atol
    symplectic_atol: float = 1e-9     # |S Omega S^T - Omega| residual
    williamson_atol: float = 1e-8     # |S gamma S^T - diag(nu)| residual
    purity_atol: float = 1e-7         # purification symplectic spectrum vs 1
    pinv_rcond: float = 1e-12         # pseudoinverse singular-value cutoff
    ppt_atol: float = 1e-10           # separability margin on PPT eigenvalue
    family_atol: float = 1e-10        # family-defining constraint
    # Physicality gate of the StdForm constructor.  Near the isotropic
    # surface nu1 = nu2 the closed-form spectrum carries an irreducible
    # sqrt(machine-eps) noise floor, so derived conditional forms cannot be
    # certified at 1e-9 through this route; full-matrix checks still use
    # physical_atol.
    std_form_atol: float = 1e-7
    classify_atol: float = 1e-8       # family classification of a StdForm
    nats_slack: float = 1e-10         # allowed negative slack before error
    tie_atol: float = 1e-12           # optimizer candidate tie-breaking


@dataclass(frozen=True)
class GridConfig:
    """Deterministic optimizer grids (seedless by construction)."""

    points: int = 33                  # coarse grid points per parameter
    tau_log_max: float = 8.0          # ln(tau) range for seed thermal noise
    t_max: float = 8.0                # squeezing parameter range for seeds
    lambda_log_min: float = -12.0     # ln(lambda) grid lower end
    lambda_log_max: float = 24.0      # ln(lambda) grid upper end
    squeeze_max: float = 12.0         # r range for the u(rA, rB) minimization
    resolution: float = 1e-8          # coordinate-descent parameter resolution


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_GRID = GridConfig()

_active_tolerances = DEFAULT_TOLERANCES
_active_grid = DEFAULT_GRID


def tolerances() -> Tolerances:
    return _active_tolerances


def grid() -> GridConfig:
    return _active_grid


def configure(tol: Tolerances | None = None, grid_cfg: GridConfig | None = None):
    """Install new active defaults (used by the CLI after config parsing)."""
    global _active_tolerances, _active_grid
    if tol is not None:
        _active_tolerances = tol
    if grid_cfg is not None:
        _active_grid = grid_cfg


def load_config(path: str | None = None) -> tuple[Tolerances, GridConfig]:
    """Parse a ``key=value`` config file into tolerance and grid records.

    Unknown keys raise ``KeyError`` so typos do not silently pass.  When
    ``path`` is None the ``GIELAB_CONFIG`` environment variable is consulted;
    if that is unset the defaults are returned unchanged.
    """
    if path is None:
        path = os.environ.get("GIELAB_CONFIG")
    if not path:
        return DEFAULT_TOLERANCES, DEFAULT_GRID

    tol_fields = {f.name: f.type for f in dataclasses.fields(Tolerances)}
    grid_fields = {f.name: f.type for f in dataclasses.fields(GridConfig)}
    tol_kw, grid_kw = {}, {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in tol_fields:
                tol_kw[key] = float(value)
            elif key in grid_fields:
                grid_kw[key] = int(value) if key == "points" else float(value)
            else:
                raise KeyError(f"unknown config key: {key!r}")
    return Tolerances(**tol_kw), GridConfig(**grid_kw)
