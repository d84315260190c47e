"""Bloom-filter modelling: false-positive rates and Monkey-style allocation.

The cost model follows the Monkey allocation scheme (Dayan et al., SIGMOD'17):
rather than giving every level the same bits-per-entry, memory is skewed
towards the smaller levels so that the *sum* of false-positive rates (and
hence the expected number of wasted I/Os of an empty point lookup) is
minimised.  Equation (11) of the Endure paper gives the resulting per-level
false-positive rate, which this module implements, along with its inversion
into the per-level bits the simulator's concrete filters are built with.
"""

from __future__ import annotations

import math

import numpy as np

#: ln(2)^2, the constant appearing in the standard Bloom-filter FPR formula.
LN2_SQUARED = math.log(2.0) ** 2


def optimal_hash_count(bits_per_entry: float) -> int:
    """Optimal number of hash functions ``k = (m/n) · ln 2`` (at least 1)."""
    if bits_per_entry <= 0:
        return 1
    return max(1, round(bits_per_entry * math.log(2.0)))


def monkey_false_positive_rates(
    size_ratio: float, bits_per_entry: float, num_levels: int
) -> np.ndarray:
    """Per-level false-positive rates under the Monkey allocation (Eq. 11).

    Parameters
    ----------
    size_ratio:
        Size ratio ``T`` of the tree.
    bits_per_entry:
        Overall Bloom-filter budget ``m_filt / N`` in bits per entry.
    num_levels:
        Number of disk levels ``L(T)``.

    Returns
    -------
    numpy.ndarray
        Array ``f`` of length ``num_levels`` where ``f[i-1]`` is the
        false-positive rate of the filters at level ``i``; every entry is
        clamped to ``[0, 1]``.
    """
    if size_ratio < 2.0:
        raise ValueError("size_ratio must be at least 2")
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    if bits_per_entry < 0:
        raise ValueError("bits_per_entry must be non-negative")

    levels = np.arange(1, num_levels + 1, dtype=float)
    return monkey_false_positive_rates_batch(
        size_ratio, bits_per_entry, num_levels, levels
    )


def monkey_false_positive_rates_batch(size_ratio, bits_per_entry, num_levels, level):
    """Broadcastable form of :func:`monkey_false_positive_rates` (Eq. 11).

    All four arguments may be scalars or NumPy arrays of compatible shapes;
    the result is the elementwise false-positive rate of the filters at
    ``level`` in a tree of ``num_levels`` levels, clamped to ``[0, 1]``.
    This is the kernel of the vectorised
    :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix` pass.
    """
    size_ratio = np.asarray(size_ratio, dtype=float)
    # T^(T/(T-1)) / T^(L+1-i): smaller (higher) levels receive more memory and
    # therefore exhibit lower false-positive rates.
    exponent = size_ratio / (size_ratio - 1.0) - (num_levels + 1.0 - np.asarray(level))
    rates = np.power(size_ratio, exponent) * np.exp(
        -np.asarray(bits_per_entry, dtype=float) * LN2_SQUARED
    )
    # Never -0.0 (a product of non-negative factors), so this is ``np.clip``.
    return np.minimum(np.maximum(rates, 0.0), 1.0)


def monkey_bits_per_level(
    size_ratio: float, bits_per_entry: float, num_levels: int
) -> np.ndarray:
    """Translate Monkey false-positive rates into per-level bits-per-entry.

    The simulator needs a concrete number of bits to allocate to the filters
    of each level.  Inverting the standard Bloom-filter rate
    ``exp(-(m/n) · ln(2)²)`` per level gives
    ``bits_i = -ln(f_i) / ln(2)²`` (0 when ``f_i >= 1``, i.e. the level keeps
    no filter at all).

    Parameters
    ----------
    size_ratio, bits_per_entry, num_levels:
        Same as :func:`monkey_false_positive_rates`.

    Returns
    -------
    numpy.ndarray
        Bits-per-entry to use for the filter(s) of each level.
    """
    rates = monkey_false_positive_rates(size_ratio, bits_per_entry, num_levels)
    bits = np.zeros(num_levels, dtype=float)
    positive = rates < 1.0
    with np.errstate(divide="ignore"):
        bits[positive] = -np.log(rates[positive]) / LN2_SQUARED
    return bits
