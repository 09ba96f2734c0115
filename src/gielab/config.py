"""The optimizer grid size, and the index of every fixed numeric setting.

The ``points`` field of ``GridConfig`` is the one setting a caller
chooses: the grid points per search coordinate.  ``verify`` runs at 13
(fast) and 21 (full), the CLI default is 33, and ``--grid N`` sets any
other size.

Every other threshold is a module constant, in the module whose check or
search reads it:

- ``symplectic.COVMAT_SYMMETRY_RTOL``, ``symplectic.PHYSICAL_ATOL``,
  ``symplectic.SYMPLECTIC_ATOL`` and ``symplectic.WILLIAMSON_ATOL``;
- ``states.PPT_ATOL``, ``states.FAMILY_ATOL``, ``states.STD_FORM_ATOL``,
  ``states.CLASSIFY_ATOL`` and ``states.STD_FORM_ENTRY_MAX``;
- ``purification.PURITY_ATOL``;
- ``information.NATS_SLACK``;
- ``optimize.MIN_IMPROVEMENT``, ``optimize.MAX_POLLS``, ``optimize.TIE_ATOL``,
  ``optimize.RESOLUTION``, ``optimize.SLAB_POINTS`` (21^3, the most
  mesh points of one grid-stage ``evaluate`` call, so grids up to 21 are
  one slab; it changes no result); ``MIN_IMPROVEMENT`` and ``TIE_ATOL``
  compare objective values, which in all three searches (R = 1, K_h and
  the GCMI's u) are determinant ratios, not nats;
- the search boxes, in the search descriptions ``gie.SINGLE_MODE_SEARCH``
  (R = 1) and ``gie.KH_SEARCH`` (K_h), and ``information.SQUEEZE_MAX`` (GCMI);
- ``gie.SQRT_AB_SLACK``, ``gie.GATE_LOWER_BOUND`` and
  ``gie.VERIFIED_DOMAIN_BOUND``;
- ``renyi2.TRIANGLE_SLACK``, ``renyi2.TRIANGLE_ULPS`` and
  ``renyi2.SYMMETRY_RTOL``;
- ``cli.RANGE_STEP_SLACK``;
- the pass tolerances of the ``verify`` checks: ``verify.CLOSED_FORM_ATOL``,
  ``verify.MINMAX_ATOL``, ``verify.CANDIDATE_ORDER_SLACK``,
  ``verify.GCMI_ATOL``, ``verify.KH_CROSS_ATOL``, ``verify.KH_UNIT_ATOL``,
  ``verify.KH_MIN_ATOL``, ``verify.CONJECTURE_ATOL``,
  ``verify.FAITHFULNESS_ATOL``, ``verify.HOMODYNE_LIMIT_ATOL`` and
  ``verify.F_DECOMPOSITION_ATOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError


@dataclass(frozen=True)
class GridConfig:
    """Deterministic optimizer grids (seedless by construction)."""

    points: int = 33  # coarse grid points per search coordinate

    def __post_init__(self):
        if not isinstance(self.points, int) or isinstance(self.points, bool):
            raise InvalidInputError(f"the grid size must be an int, got {self.points!r}")
        if self.points < 1:
            raise InvalidInputError(f"the grid needs at least 1 point, got {self.points}")


DEFAULT_GRID = GridConfig()


def grid() -> GridConfig:
    """The default grid."""
    return DEFAULT_GRID
