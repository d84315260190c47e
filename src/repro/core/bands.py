"""Closed-form geometry of the level count over the ``(T, h)`` design box.

The number of levels is ``L(T, h) = ⌈log_T x(h)⌉`` with the *fill*
``x(h) = N·E / m_buf(h) + 1``, so the set of designs with exactly ``L``
levels — a *band* — is ``T^(L-1) < x(h) ≤ T^L``.  Its two boundaries are the
level cliffs, the only discontinuities of the cost surface: ``x(h) = T^L`` is
at once the smallest ratio with at most ``L`` levels at a given ``h`` and the
largest ``h`` with at most ``L`` levels at a given ``T``.  Inside a band every
cost is smooth, which is what lets the tuners search band by band
(:mod:`repro.core.base`).  This module only answers *where* the bands are.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..lsm.system import SystemConfig

#: Small margin keeping ``h`` away from the degenerate one-page buffer.
_EPSILON = 1e-6

#: Relative nudges on the fill that keep a band's edge points on their own
#: side of a level cliff, far above floating-point noise.
_ABOVE, _BELOW = 1.0 + 1e-9, 1.0 - 1e-9


class LevelBands:
    """The level bands of one system over a set of integer size ratios.

    Each ratio of a band is its own search region: ``T`` is pinned and ``h``
    runs between the band's two cliffs at that ``T``.

    Parameters
    ----------
    system:
        System configuration (sizes the fill and bounds ``h``).
    ratios:
        Sorted candidate size ratios.
    """

    def __init__(self, system: SystemConfig, ratios: np.ndarray) -> None:
        self.system = system
        self.ratios = ratios
        #: Legal range of the Bloom-filter bits per entry ``h``.
        self.bits_bounds = (
            system.min_bits_per_entry,
            system.max_bits_per_entry - _EPSILON,
        )
        self._size_bits = float(system.num_entries) * system.entry_size_bits

    def fill(self, bits):
        """``x(h) = N·E / m_buf(h) + 1``."""
        system = self.system
        return self._size_bits / (system.total_memory_bits - bits * system.num_entries) + 1.0

    def bits_at(self, fill):
        """Inverse of :meth:`fill`, clipped to the legal ``h`` range."""
        system = self.system
        bits = (system.total_memory_bits - self._size_bits / (fill - 1.0)) / system.num_entries
        # A difference of two large floats is never -0.0, so this is ``np.clip``.
        low, high = self.bits_bounds
        return np.minimum(np.maximum(bits, low), high)

    @cached_property
    def regions(self) -> tuple[np.ndarray, np.ndarray]:
        """Every search region as ``(L, T)``: one row of band ``L``."""
        rows = self.ratios
        fill_lo, fill_hi = (self.fill(bits) for bits in self.bits_bounds)
        regions: list[tuple[float, float]] = []
        for levels in range(1, int(np.ceil(np.log(fill_hi) / np.log(rows[0]))) + 1):
            low = fill_lo ** (1.0 / levels) * _ABOVE
            high = fill_hi ** (1.0 / (levels - 1)) * _BELOW if levels > 1 else np.inf
            regions += [(levels, t) for t in rows[(rows >= low) & (rows <= high)]]
        if not regions:
            raise RuntimeError("the design box holds no (T, h) point to search")
        return tuple(np.array(column, dtype=float) for column in zip(*regions))

    def points(self, levels, ratio, fraction) -> tuple[np.ndarray, np.ndarray]:
        """``(T, h)`` at ``fraction`` of the way between the cliffs of a band.

        ``T = ratio`` is pinned and ``h`` runs between the two level cliffs
        of band ``levels`` at that ratio (clipped to the legal box, nudged
        onto the band's side of each cliff); ``fraction = 1`` is the largest
        ``h`` with at most ``L`` levels.  All arguments broadcast.
        """
        top = self.bits_at(ratio**levels * _BELOW)
        bottom = np.minimum(self.bits_at(ratio ** (levels - 1.0) * _ABOVE), top)
        return ratio + 0.0 * fraction, bottom + fraction * (top - bottom)
