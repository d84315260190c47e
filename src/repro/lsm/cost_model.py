"""Analytical I/O cost model of an LSM tree (Section 5 of the paper).

The model expresses, for a tuning ``Φ = (T, h, π)``, the expected number of
I/O operations of the four basic query types:

* ``Z0(Φ)`` — point lookup with an empty result (Equation 12),
* ``Z1(Φ)`` — point lookup with a non-empty result (Equation 14),
* ``Q(Φ)``  — range lookup (Equation 15, split into short and long ranges),
* ``W(Φ)``  — write, amortised over the compactions it triggers (Equation 16).

Given a workload ``w = (z0, z1, q, w)`` the expected per-query cost is the
dot product ``C(w, Φ) = w · c(Φ)`` (Equation 2), and the throughput used in
the evaluation is its reciprocal.

Following Dostoevsky §4 the range cost distinguishes two regimes:

* **short** ranges are seek-dominated — one page I/O per qualifying run plus
  a short scan governed by ``SystemConfig.range_selectivity`` (the paper's
  near-zero-selectivity setup; the historical behaviour of this model);
* **long** ranges are scan-dominated — besides the per-run seeks they pay
  ``long_range_selectivity`` worth of sequential pages *per run and level*:
  in the worst case every run of a level holds (live or obsolete) versions
  of the interval's entries, so a level with ``r`` runs costs up to ``r``
  times the pages a single-run level costs.  This is what makes a single-run
  largest level (lazy leveling, fluid with ``Z = 1``) dominate long scans
  while tiering pays the ``T - 1``-fold worst case.

A workload's ``long_range_fraction`` ``ν`` blends the two:
``Q = (1 - ν) · Q_short + ν · Q_long``; with ``ν = 0`` every cost is
identical to the pre-split model.

All per-policy structure enters through one quantity supplied by the
:class:`~repro.lsm.policy.CompactionPolicy` value — the run bound of each
level (:func:`~repro.lsm.policy.stacked_run_bounds`) — so a new policy is a
new bound vector and never touches the equations here.  The bound is
evaluated along an explicit level axis and every term is *summed per
level* (never via a closed-form scalar ``K``), which is what lets a policy
carry a per-level run-bound vector ``K_i``: every cost term — the
false-positive sum of ``Z0``/``Z1``, the per-run seeks and worst-case scan
pages of ``Q``, the merge amortisation ``(T-1)/(K_i+1)`` of ``W`` — picks
the per-level bound up unchanged.

One kernel evaluates the equations: :meth:`LSMCostModel.cost_points`, which
prices paired ``(T, h)`` points under a whole stack of policies in one
broadcasted NumPy pass.  :meth:`LSMCostModel.cost_matrix` is its outer
product and :meth:`LSMCostModel.cost_vector` its one-point view, which
:meth:`~LSMCostModel.workload_cost` and :meth:`~LSMCostModel.throughputs`
read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bloom import monkey_false_positive_rates_batch
from .policy import CompactionPolicy, Policy, stacked_run_bounds
from .system import SystemConfig
from .tuning import LSMTuning


class LSMCostModel:
    """Endure's analytical cost model, bound to one :class:`SystemConfig`.

    The model is deliberately a plain object with pure methods: every cost is
    a deterministic function of the tuning, which is what allows the robust
    optimisation to treat it as a smooth objective.
    """

    def __init__(self, system: SystemConfig | None = None) -> None:
        self.system = system if system is not None else SystemConfig()

    def cost_vector(
        self, tuning: LSMTuning, long_range_fraction: float = 0.0
    ) -> np.ndarray:
        """The cost vector ``c(Φ) = (Z0, Z1, Q, W)`` of one tuning.

        The one-point view of :meth:`cost_points`.  ``long_range_fraction``
        is the workload's ``ν``: the range component blends the short- and
        long-range regimes accordingly.
        """
        ratio = np.array([[tuning.size_ratio]])
        bits = np.array([[tuning.bits_per_entry]])
        return self.cost_points(ratio, bits, (tuning.compaction,), long_range_fraction)[0, 0]

    def cost_matrix(
        self,
        size_ratios: Sequence[float] | np.ndarray,
        bits_per_entry: Sequence[float] | np.ndarray,
        policy: Policy | str | CompactionPolicy,
        long_range_fraction: float = 0.0,
    ) -> np.ndarray:
        """Cost vectors of a whole ``(T, h)`` candidate grid in one pass.

        The outer product of :meth:`cost_points`: ``c(Φ)`` for every
        combination of the given size ratios (1-D, each ``>= 2``) and
        Bloom-filter allocations (1-D) under one policy.  The result has
        shape ``(len(size_ratios), len(bits_per_entry), 4)``; its ``[i, j]``
        slice is ``(Z0, Z1, Q, W)`` of the tuning
        ``(size_ratios[i], bits_per_entry[j], policy)``.
        """
        ratios = np.asarray(size_ratios, dtype=float).reshape(1, -1, 1)
        bits = np.asarray(bits_per_entry, dtype=float).reshape(1, 1, -1)
        return self.cost_points(ratios, bits, (policy,), long_range_fraction)[0]

    def cost_points(
        self,
        size_ratios: np.ndarray,
        bits_per_entry: np.ndarray,
        policies: Sequence[Policy | str | CompactionPolicy],
        long_range_fraction: float = 0.0,
    ) -> np.ndarray:
        """Cost vectors of paired ``(T, h)`` points under a stack of policies.

        One broadcasted NumPy computation over a ``(policy, point…, level)``
        tensor — the only code that evaluates Equations 11–16, and the
        tuners' hot path.  Everything but the per-level run bounds is
        policy-independent and computed once for the whole stack.

        Parameters
        ----------
        size_ratios, bits_per_entry:
            Arrays of at least one dimension that broadcast against each
            other *element-wise* — point ``i`` is ``(T_i, h_i)`` — to a
            shape whose axis 0 is the policy axis: length 1 prices the same
            points under every policy, length ``len(policies)`` gives each
            policy its own points.  Each ``T`` finite and ``>= 2``, each
            ``h >= 0`` and small enough to leave room for a write buffer;
            anything else (NaN included) raises :class:`ValueError`.
        policies:
            The compaction policies — :class:`~repro.lsm.policy.CompactionPolicy`
            values, or the enum members or strings naming them.
        long_range_fraction:
            The workload's ``ν``: fraction of range lookups that are long
            (scan-dominated).  ``0`` skips the long-range term entirely.

        Returns
        -------
        numpy.ndarray
            Shape ``(len(policies), *points, 4)``: ``(Z0, Z1, Q, W)`` of
            every point under every policy.
        """
        system = self.system
        stack = [CompactionPolicy.of(policy) for policy in policies]
        ratios = np.asarray(size_ratios, dtype=float)
        bits = np.asarray(bits_per_entry, dtype=float)
        points = np.broadcast_shapes(ratios.shape, bits.shape)
        if not points or 0 in points:
            raise ValueError("size_ratios and bits_per_entry must be non-empty arrays")
        if points[0] not in (1, len(stack)):
            raise ValueError("axis 0 of the points must have length 1 or len(policies)")
        # Written so that a NaN fails every comparison.
        if not np.all(ratios >= 2.0) or not np.all(np.isfinite(ratios)):
            raise ValueError("every size ratio must be finite and at least 2")
        if not np.all(bits >= 0.0):
            raise ValueError("bits_per_entry must be non-negative and not NaN")
        # Trailing level axis; the two operands stay un-broadcast so an outer
        # product only pays for its policy-independent terms once per row.
        ratios = ratios.reshape((1,) * (len(points) - ratios.ndim) + ratios.shape + (1,))
        bits = bits.reshape((1,) * (len(points) - bits.ndim) + bits.shape + (1,))

        buffer_bits = system.total_memory_bits - bits * system.num_entries
        if not np.all(buffer_bits > 0):
            raise ValueError("bits_per_entry exceeds the total memory budget")
        buffer_entries = buffer_bits / system.entry_size_bits

        # L(T, h) = ceil(log_T(N·E / m_buf + 1)), clipped to at least 1.
        size_bits = float(system.num_entries) * system.entry_size_bits
        log_ratio = np.log(size_bits / buffer_bits + 1.0)
        levels = np.maximum(1.0, np.ceil(log_ratio / np.log(ratios)))

        max_levels = int(levels.max())
        index = np.arange(1, max_levels + 1, dtype=float)
        mask = index <= levels

        rates = monkey_false_positive_rates_batch(ratios, bits, levels, index)
        bounds = stacked_run_bounds(stack, ratios, levels, max_levels)
        runs = np.where(mask, bounds, 0.0)

        # Z0 (Eq. 12): every run may cost one false-positive probe.
        level_fp = np.where(mask, runs * rates, 0.0)
        empty_read = np.sum(level_fp, axis=-1)

        # Z1 (Eq. 14): guaranteed hit at the residence level plus the false-positive
        # probes of every run above it and half the runs beside it.
        capacity = np.where(
            mask, (ratios - 1.0) * ratios ** (index - 1.0) * buffer_entries, 0.0
        )
        residence = capacity / np.sum(capacity, axis=-1, keepdims=True)
        preceding_fp = np.cumsum(level_fp, axis=-1) - level_fp
        per_level_cost = 1.0 + preceding_fp + (runs - 1.0) / 2.0 * rates
        non_empty_read = np.sum(residence * per_level_cost, axis=-1)

        # Q (Eq. 15): one seek per run plus the selectivity-governed sequential scans.
        # Short ranges scan S_RQ of the whole store; long ranges pay the
        # worst-case per-run share of every level's capacity.  The ν = 0 fast
        # path never evaluates the long-range split (zero-weight guard).
        seeks = np.sum(runs, axis=-1)
        short_scan = (
            system.range_selectivity * system.num_entries / system.entries_per_page
        )
        nu = float(long_range_fraction)
        if nu <= 0.0:
            range_read = seeks + short_scan
        else:
            long_scan = (
                system.long_range_selectivity
                * np.sum(runs * capacity, axis=-1)
                / system.entries_per_page
            )
            range_read = seeks + (1.0 - nu) * short_scan + nu * long_scan

        # W (Eq. 16): per-level merge amortisation ``(T-1)/(m+1)`` of a level bounded
        # at ``m`` runs, per page, weighted by asymmetry.
        merges = np.where(mask, (ratios - 1.0) / (bounds + 1.0), 0.0)
        write = (
            np.sum(merges, axis=-1)
            / system.entries_per_page
            * (1.0 + system.read_write_asymmetry)
        )

        return np.stack([empty_read, non_empty_read, range_read, write], axis=-1)

    def workload_cost(self, workload, tuning: LSMTuning) -> float:
        """Expected cost ``C(w, Φ) = w · c(Φ)`` of one query from ``workload``.

        ``workload`` may be anything exposing ``as_array()`` (a
        :class:`repro.workloads.Workload`) or a length-4 sequence ordered as
        ``(z0, z1, q, w)``.  The workload's ``long_range_fraction`` (when it
        carries one) selects the short/long range blend, and the dot product
        runs over the workload's support only, so a zero-weight query type
        can never contribute — even if its cost component is degenerate
        (the ``0 · inf`` guard, mirroring the robust dual's support mask).
        """
        weights = _workload_array(workload)
        vector = self.cost_vector(tuning, _long_range_fraction(workload))
        return _support_dot(vector, weights)

    def workload_cost_matrix(
        self,
        workload,
        size_ratios: Sequence[float] | np.ndarray,
        bits_per_entry: Sequence[float] | np.ndarray,
        policy: Policy | str | CompactionPolicy,
    ) -> np.ndarray:
        """``C(w, Φ)`` over a whole ``(T, h)`` grid in one broadcasted pass."""
        weights = _workload_array(workload)
        costs = self.cost_matrix(
            size_ratios, bits_per_entry, policy, _long_range_fraction(workload)
        )
        return _support_dot(costs, weights)

    def throughput(self, workload, tuning: LSMTuning) -> float:
        """Throughput proxy ``1 / C(w, Φ)`` used throughout the evaluation."""
        return float(self.throughputs((workload,), tuning)[0])

    def throughputs(self, workloads, tuning: LSMTuning) -> np.ndarray:
        """:meth:`throughput` of one tuning on each of ``workloads``.

        ``c(Φ)`` depends on the tuning and a workload's ``ν`` only, so it is
        built once per distinct ``ν``, not once per workload.
        """
        vectors: dict[float, np.ndarray] = {}
        costs = []
        for workload in workloads:
            nu = _long_range_fraction(workload)
            if nu not in vectors:
                vectors[nu] = self.cost_vector(tuning, nu)
            costs.append(_support_dot(vectors[nu], _workload_array(workload)))
        if costs and min(costs) <= 0:
            raise ValueError("workload cost must be positive to define throughput")
        return 1.0 / np.array(costs, dtype=float)


def _workload_array(workload) -> np.ndarray:
    """Coerce a workload-like object into a length-4 float array."""
    if hasattr(workload, "as_array"):
        weights = np.asarray(workload.as_array(), dtype=float)
    else:
        weights = np.asarray(workload, dtype=float)
    if weights.shape != (4,):
        raise ValueError(f"expected a length-4 workload vector, got shape {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("workload proportions must be non-negative")
    return weights


def _long_range_fraction(workload) -> float:
    """The ``ν`` of a workload-like object (0 for plain sequences)."""
    return float(getattr(workload, "long_range_fraction", 0.0))


def _support_dot(costs: np.ndarray, weights: np.ndarray) -> np.ndarray | float:
    """``costs @ weights`` restricted to the weights' support.

    Zero-weight components are excluded *before* the multiplication so that a
    non-finite cost of an unused query type cannot poison the total via
    ``0 · inf = nan`` — the same guard the robust dual applies to its
    log-expectation.  ``costs`` may be a single vector or a ``(..., 4)``
    batch; scalars come back as plain floats.
    """
    support = weights > 0.0
    result = costs[..., support] @ weights[support]
    if np.ndim(result) == 0:
        return float(result)
    return result

