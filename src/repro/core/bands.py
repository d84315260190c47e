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
    """The level bands of one system over a set of size ratios.

    Parameters
    ----------
    system:
        System configuration (sizes the fill and bounds ``h``).
    ratios:
        Sorted candidate size ratios.
    continuous:
        Whether ``T`` ranges over the whole interval ``ratios`` spans (a
        band is then one search region, pinned along ``h``) or only over the
        given rows (each row of a band is its own region, pinned at ``T``).
    """

    def __init__(self, system: SystemConfig, ratios: np.ndarray, continuous: bool) -> None:
        self.system = system
        self.ratios = ratios
        self.continuous = continuous
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
    def regions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every search region as ``(L, lo, hi)`` of its pinned coordinate.

        With a continuous ``T`` a region is a whole band and ``[lo, hi]`` the
        ``h`` range over which it is non-empty; otherwise it is one row
        ``lo = hi = T`` of a band.
        """
        rows = self.ratios
        fill_lo, fill_hi = (self.fill(bits) for bits in self.bits_bounds)
        regions: list[tuple[float, float, float]] = []
        for levels in range(1, int(np.ceil(np.log(fill_hi) / np.log(rows[0]))) + 1):
            if self.continuous:
                low = max(fill_lo, rows[0] ** (levels - 1) * _ABOVE)
                high = min(fill_hi, rows[-1] ** levels * _BELOW)
                if low <= high:
                    regions.append((levels, self.bits_at(low), self.bits_at(high)))
            else:
                low = fill_lo ** (1.0 / levels) * _ABOVE
                high = fill_hi ** (1.0 / (levels - 1)) * _BELOW if levels > 1 else np.inf
                regions += [(levels, t, t) for t in rows[(rows >= low) & (rows <= high)]]
        if not regions:
            raise RuntimeError("the design box holds no (T, h) point to search")
        return tuple(np.array(column, dtype=float) for column in zip(*regions))

    def points(self, levels, pinned, fraction) -> tuple[np.ndarray, np.ndarray]:
        """``(T, h)`` at ``fraction`` of the way between the cliffs of a band.

        One coordinate is pinned and the other runs between the two level
        cliffs of band ``levels`` (clipped to the legal box, nudged onto the
        band's side of each cliff).  With a continuous ``T`` the pinned
        coordinate is ``h`` and ``fraction = 0`` is the smallest ratio with
        at most ``L`` levels; on rows it is ``T`` and ``fraction = 1`` is the
        largest ``h`` with at most ``L`` levels.  All arguments broadcast.
        """
        if self.continuous:
            fill = self.fill(pinned)
            t_lo, t_hi = self.ratios[[0, -1]]
            # Powers of a fill above 1 are positive: the clips are ``np.clip``.
            with np.errstate(divide="ignore", over="ignore"):
                high = np.minimum(np.maximum(fill ** (1.0 / (levels - 1.0)) * _BELOW, t_lo), t_hi)
            low = np.minimum(np.maximum(fill ** (1.0 / levels) * _ABOVE, t_lo), t_hi)
            low = np.minimum(low, high)
            return low + fraction * (high - low), pinned + 0.0 * fraction
        top = self.bits_at(pinned**levels * _BELOW)
        bottom = np.minimum(self.bits_at(pinned ** (levels - 1.0) * _ABOVE), top)
        return pinned + 0.0 * fraction, bottom + fraction * (top - bottom)
