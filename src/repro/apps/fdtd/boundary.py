"""Outer boundary conditions: PEC box and first-order Mur ABC.

**PEC** is the default and needs no code: tangential E nodes on the
outer boundary are excluded from the update regions
(:data:`~repro.apps.fdtd.grid.UPDATE_TRIMS`) and therefore remain
exactly zero — a perfectly conducting box around the domain.

**Mur (first order)** replaces the PEC walls with a one-way wave
equation estimate: after each E update, every tangential E node on a
face is set from the previous-step values of itself and its inward
neighbour::

    u_new[face] = u_old[inward] + C * (u_new[inward] - u_old[face])
    C = (c0*dt - d) / (c0*dt + d)        d = spacing along the normal

Face-by-face application; edge nodes shared by two faces stay PEC
(first-order Mur has no corner treatment — a documented limitation of
the classic scheme).

The implementation is region-parameterised like the update kernels, so
the *same* face update runs on global arrays (sequential code) and on
the boundary ranks' local arrays (parallel code) — the "computation
performed differently in different grid processes" of section 4.4,
expressed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.fdtd.constants import C0
from repro.apps.fdtd.grid import UPDATE_TRIMS, YeeGrid
from repro.errors import FDTDError

__all__ = [
    "MUR_FACES",
    "mur_face_regions",
    "Mur1",
    "mur_coefficient",
]

#: Tangential E components per face-normal axis.
_TANGENTIAL = {0: ("ey", "ez"), 1: ("ex", "ez"), 2: ("ex", "ey")}

#: All (component, normal_axis, side) Mur faces: 2 components x 3 axes
#: x 2 sides = 12 face updates.
MUR_FACES: list[tuple[str, int, int]] = [
    (comp, axis, side)
    for axis in range(3)
    for side in (-1, 1)
    for comp in _TANGENTIAL[axis]
]


def mur_coefficient(grid: YeeGrid, axis: int) -> float:
    d = grid.spacing[axis]
    return (C0 * grid.dt - d) / (C0 * grid.dt + d)


def mur_face_regions(
    grid: YeeGrid, comp: str, axis: int, side: int
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Global regions ``(face, inward)`` for one Mur face update.

    ``face`` selects the boundary plane's tangential nodes (transverse
    extents follow the component's own update trims, so edges shared
    with other faces are excluded); ``inward`` is the same set one node
    into the domain along the normal.
    """
    trims = UPDATE_TRIMS[comp]
    face: list[slice] = []
    inward: list[slice] = []
    for a, ((lo, hi), n) in enumerate(zip(trims, grid.shape)):
        if a != axis:
            face.append(slice(lo, n + 1 - hi))
            inward.append(slice(lo, n + 1 - hi))
        elif side == -1:
            face.append(slice(0, 1))
            inward.append(slice(1, 2))
        else:
            face.append(slice(n, n + 1))
            inward.append(slice(n - 1, n))
    return tuple(face), tuple(inward)


@dataclass
class _FaceState:
    """Previous-step copies for one face update."""

    face_old: np.ndarray
    inward_old: np.ndarray


class Mur1:
    """First-order Mur ABC driver for one set of field arrays.

    Usage per time step::

        mur.record(arrays)   # BEFORE the E update: snapshot planes
        update_e(...)
        mur.apply(arrays)    # AFTER: write the boundary planes

    ``regions`` maps each face key to a pair of regions in *the caller's
    arrays*.  For the sequential code these are the global regions of
    :func:`mur_face_regions`; for a grid process they are the local
    intersections (``None`` entries are skipped — ranks not touching
    that face).
    """

    def __init__(
        self,
        grid: YeeGrid,
        regions: dict[
            tuple[str, int, int],
            tuple[tuple[slice, ...], tuple[slice, ...]] | None,
        ]
        | None = None,
    ):
        self.grid = grid
        if regions is None:
            regions = {
                (comp, axis, side): mur_face_regions(grid, comp, axis, side)
                for comp, axis, side in MUR_FACES
            }
        self.regions = {k: v for k, v in regions.items() if v is not None}
        self.coef = {axis: mur_coefficient(grid, axis) for axis in range(3)}
        self._state: dict[tuple[str, int, int], _FaceState] = {}
        self._recorded = False

    def record(self, arrays) -> None:
        """Snapshot face and inward planes (call before the E update)."""
        for key, (face, inward) in self.regions.items():
            comp = key[0]
            arr = arrays[comp]
            self._state[key] = _FaceState(
                face_old=arr[face].copy(), inward_old=arr[inward].copy()
            )
        self._recorded = True

    def apply(self, arrays) -> None:
        """Write the boundary planes (call after the E update)."""
        if not self._recorded:
            raise FDTDError("Mur1.apply called without a preceding record")
        for key, (face, inward) in self.regions.items():
            comp, axis, _ = key
            arr = arrays[comp]
            state = self._state[key]
            arr[face] = state.inward_old + self.coef[axis] * (
                arr[inward] - state.face_old
            )
        self._recorded = False
