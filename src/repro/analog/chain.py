"""Full mixed-signal chain: R-2R DAC -> SC filter -> SAR ADC.

The paper's survival question for analog is a *system* question: does
a complete converter chain, instantiated at each roadmap node, still
meet linearity and dynamic-range specs once Pelgrom mismatch is drawn
per die?  This module builds that chain behaviorally:

* an N-bit **R-2R DAC** whose per-leg resistor errors come from
  :func:`~repro.variability.pelgrom.sigma_resistor_mismatch` (a leg of
  ``2**i`` effective unit resistors de-rates by ``sqrt(2**i)``);
* the existing **SC amplifier** stage
  (:func:`~repro.analog.switched_capacitor.design_sc_stage`), whose
  per-die gain error combines a cap-ratio mismatch draw with the
  finite-gain error of the evaluated OTA at the die's global V_T;
* an N-bit **SAR ADC** with binary-weighted cap-DAC mismatch from
  :func:`~repro.variability.pelgrom.sigma_capacitor_mismatch` plus a
  comparator offset from
  :func:`~repro.variability.pelgrom.offset_sigma_diff_pair`.

Everything computes in the dimensionless *fraction-of-full-scale*
domain, where ideal levels and SAR thresholds are dyadic rationals
(``k / 2**N``) that float64 represents exactly -- so an ideal chain
reports *exactly* zero DNL/INL and an exactly monotonic transfer at
every node, and mismatch is the only thing the sign-off measures.

Two evaluation paths share the chain model and the metric cores:

* the **scalar per-die oracle** -- :meth:`SignalChain.from_die` on one
  :class:`~repro.variability.statistical.SampledDie` at a time;
* the **batched path** -- :func:`chain_signoff_batch` carries a whole
  :class:`~repro.variability.statistical.DieBatch` through the same
  elementwise cores with a leading die axis.

They differ in how the ADC's ramp histogram is counted: the oracle
converts every ramp sample, while the batched path counts the ramp
samples below each die's sorted SAR decision thresholds (the ADC's
transition table) with one binary search for all dies and an exact
float fix-up, which gives the same counts exactly.  Both share the
kernels below them: the DAC levels are summed in numpy's own pairwise
order, and a SAR conversion walks a heap of the trial thresholds built
once per sign-off, so each kernel repeats the textbook expression's
float operations on the same operands.  Both draw identical variates
under a fixed seed (the sampler's spawn-per-die contract), so die
``d`` of a batch matches the ``d``-th :func:`chain_signoff` of a
:meth:`MonteCarloSampler.sample_die` loop bit for bit on linearity and
to float64 round-off on the spectrum.  :func:`chain_yield_vs_node`
runs the batched path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..robust.errors import ModelDomainError
from ..robust.validate import (check_count, check_finite, check_fraction,
                               check_non_negative, check_positive, validated)
from ..technology.library import all_nodes
from ..technology.node import TechnologyNode
from ..variability.pelgrom import (offset_sigma_diff_pair,
                                   sigma_capacitor_mismatch,
                                   sigma_resistor_mismatch)
from ..variability.statistical import (MonteCarloSampler, SampledDie,
                                       VariationSpec, check_shard)
from .circuits import OtaDesign
# ``histogram_linearity_batch`` is not called here any more, but stays a
# module attribute: perfbench's tracer wraps it under this name.
from .metrics import (LinearityReport, SpectralReport, _histogram_linearity,
                      histogram_linearity, histogram_linearity_batch,
                      spectral_metrics, spectral_metrics_batch,
                      transfer_linearity, transfer_linearity_batch)
from .switched_capacitor import ScAmplifier, design_sc_stage

__all__ = [
    "ChainDesign", "ChainSpec", "ChainSignoff",
    "R2rDac", "SarAdc", "SignalChain",
    "chain_signoff", "chain_signoff_batch", "chain_yield_vs_node",
]

ArrayOrFloat = Union[float, np.ndarray]


@dataclass(frozen=True)
class ChainDesign:
    """Sizing of the chain, in multiples of the node's feature size.

    Expressing the component dimensions in units of L is what makes
    the same design degrade across the roadmap: the drawn devices
    shrink with the node, so Pelgrom sigmas grow as 1/L while the LSB
    (proportional to the supply) shrinks -- the paper's analog-scaling
    squeeze, reproduced at chain level.
    """

    n_bits: int = 8
    resistor_width: float = 8.0     # R-2R unit resistor W / L
    resistor_length: float = 64.0
    cap_side: float = 12.0          # SAR unit cap side / L
    comparator_width: float = 64.0  # comparator input pair W / L
    comparator_length: float = 8.0
    sc_gain: float = 1.0            # SC-stage closed-loop gain C_s/C_f
    sampling_capacitance: float = 1e-12  # SC sampling cap [F]
    ota: Optional[OtaDesign] = None      # None -> default sizing

    def __post_init__(self) -> None:
        n_bits = check_count("n_bits", self.n_bits, minimum=2)
        if n_bits > 14:
            raise ModelDomainError(
                f"n_bits must be <= 14 (behavioral sweep memory), "
                f"got {n_bits}")
        for name in ("resistor_width", "resistor_length", "cap_side",
                     "comparator_width", "comparator_length", "sc_gain",
                     "sampling_capacitance"):
            check_positive(name, getattr(self, name))

    def ota_for(self, node: TechnologyNode) -> OtaDesign:
        """The OTA sizing used for the SC stage at ``node``.

        The default is a moderate-gain 5T sizing in units of L, so it
        stays manufacturable (and evaluable) at every roadmap node.
        """
        if self.ota is not None:
            return self.ota
        scale = node.feature_size
        return OtaDesign(input_width=80.0 * scale,
                         input_length=4.0 * scale,
                         load_width=40.0 * scale,
                         load_length=4.0 * scale,
                         tail_current=1e-4)


@dataclass(frozen=True)
class ChainSpec:
    """Pass/fail limits of the sign-off, in LSB and bits."""

    dnl_limit: float = 0.5   # max |DNL| [LSB], DAC and ADC
    inl_limit: float = 1.0   # max |INL| [LSB], DAC and ADC
    enob_min: Optional[float] = None  # None -> n_bits - 1.5

    def __post_init__(self) -> None:
        check_positive("dnl_limit", self.dnl_limit)
        check_positive("inl_limit", self.inl_limit)
        if self.enob_min is not None:
            check_finite("enob_min", self.enob_min)

    def enob_floor(self, n_bits: int) -> float:
        """The effective ENOB limit for an ``n_bits`` chain."""
        if self.enob_min is not None:
            return self.enob_min
        return n_bits - 1.5


@dataclass(frozen=True)
class ChainSignoff:
    """Result of one chain sign-off (scalar die or whole batch).

    From the scalar path the summary fields are plain floats/bools;
    from the batched path they carry a leading ``n_dies`` axis.
    ``monotonic`` is the end-to-end code-in/code-out sweep check;
    ``passed`` is the full spec conjunction
    P(DNL < limit ∧ INL < limit ∧ monotonic ∧ ENOB >= floor).
    """

    node: str
    dac: LinearityReport
    adc: LinearityReport
    spectral: SpectralReport
    monotonic: Union[bool, np.ndarray]
    passed: Union[bool, np.ndarray]


@dataclass(frozen=True)
class R2rDac:
    """Behavioral N-bit R-2R ladder DAC in the fraction domain.

    ``weights[i]`` is the effective conductance weight of bit ``i``
    (ideal ``2**i``); ``termination`` closes the ladder (ideal 1).
    The output for a code is the connected-weight fraction
    ``sum(b_i * w_i) / (sum(w_i) + termination)`` -- exactly
    ``code / 2**N`` for ideal weights, which float64 stores exactly.

    Fields may carry a leading die axis ``(n_dies, ...)``: the same
    instance then evaluates a whole Monte Carlo batch elementwise, and
    ``termination`` must broadcast to ``weights.shape[:-1]``.
    """

    n_bits: int
    weights: np.ndarray        # (..., n_bits) leg weights
    termination: ArrayOrFloat  # (...,) termination weight

    def __post_init__(self) -> None:
        check_count("n_bits", self.n_bits, minimum=2)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape[-1] != self.n_bits:
            raise ModelDomainError(
                f"weights must have trailing size n_bits="
                f"{self.n_bits}, got shape {weights.shape}")
        check_non_negative("weights", weights)
        check_positive("termination", self.termination)
        _per_die("termination", self.termination, weights)

    @classmethod
    def ideal(cls, n_bits: int = 8) -> "R2rDac":
        """Perfectly matched ladder: weight ``2**i``, termination 1."""
        return cls(n_bits=n_bits,
                   weights=2.0 ** np.arange(n_bits),
                   termination=1.0)

    def levels(self) -> np.ndarray:
        """Output fractions for every code, ``(..., 2**n_bits)``."""
        weights = np.asarray(self.weights, dtype=float)
        total = weights.sum(axis=-1) + _per_die(
            "termination", self.termination, weights)
        return _code_sums(weights) / total[..., None]

    def convert(self, codes: np.ndarray) -> np.ndarray:
        """Output fractions for an integer code sequence."""
        return self.levels()[..., np.asarray(codes, dtype=np.int64)]


@dataclass(frozen=True)
class SarAdc:
    """Behavioral N-bit SAR ADC in the fraction domain.

    ``weights[i]`` is the bit-``i`` cap-DAC weight (ideal ``2**i``),
    ``termination`` the dummy LSB cap (ideal 1) and ``offset`` the
    comparator offset as a fraction of full scale.  Conversion is the
    textbook MSB-first successive approximation: trial threshold
    ``(settled + w_j) / total`` against the held input.  Each threshold
    is computed once, into a heap of the descent's nodes
    (:meth:`_trial_heap`), and a conversion walks it (:func:`_walk`),
    so the comparisons are the textbook loop's, on the same floats.
    Like :class:`R2rDac`, fields may carry a leading die axis;
    ``termination`` and ``offset`` must broadcast to
    ``weights.shape[:-1]``.
    """

    n_bits: int
    weights: np.ndarray        # (..., n_bits) cap-DAC weights
    termination: ArrayOrFloat  # (...,) dummy LSB cap weight
    offset: ArrayOrFloat = 0.0  # (...,) comparator offset [FS]

    def __post_init__(self) -> None:
        check_count("n_bits", self.n_bits, minimum=2)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape[-1] != self.n_bits:
            raise ModelDomainError(
                f"weights must have trailing size n_bits="
                f"{self.n_bits}, got shape {weights.shape}")
        check_non_negative("weights", weights)
        check_positive("termination", self.termination)
        check_finite("offset", self.offset)
        _per_die("termination", self.termination, weights)
        _per_die("offset", self.offset, weights)

    @classmethod
    def ideal(cls, n_bits: int = 8) -> "SarAdc":
        """Perfectly matched cap DAC, zero comparator offset."""
        return cls(n_bits=n_bits,
                   weights=2.0 ** np.arange(n_bits),
                   termination=1.0, offset=0.0)

    def convert(self, values: np.ndarray) -> np.ndarray:
        """SAR-convert input fractions to integer codes.

        ``values`` broadcasts against the die axis: a shared 1-D ramp
        against batched weights yields ``(n_dies, n_points)`` codes.
        Out-of-range inputs saturate at code 0 / full scale, as the
        comparator chain would.
        """
        return self._convert(self._trial_heap(), values)

    def _convert(self, heap: np.ndarray, values: np.ndarray) -> np.ndarray:
        """:meth:`convert` against a prebuilt :meth:`_trial_heap`."""
        offset = _per_die("offset", self.offset, self.weights)
        if offset.ndim:
            offset = offset[..., None]
        return _walk(heap, np.asarray(values, dtype=float) + offset)

    def _trial_heap(self) -> np.ndarray:
        """Every trial threshold of the descent, in heap order.

        Node ``k`` is one decision ``held >= (settled + w_j) / total``;
        its children ``2k + 1`` and ``2k + 2`` are the next decisions
        after the bit is dropped and kept.  ``settled`` is the node's
        kept weights added MSB-first from 0.0, and the one division is
        by the same total, so every entry is bit for bit the threshold
        the textbook loop compares against at that node.  The heap is
        ``(..., 2**n_bits - 1)``, one level per bit, MSB level first.
        """
        weights = np.asarray(self.weights, dtype=float)
        dies = weights.shape[:-1]
        total = (weights.sum(axis=-1) + _per_die(
            "termination", self.termination, weights))[..., None]
        heap = np.empty(dies + (2 ** self.n_bits - 1,))
        settled = np.zeros(dies + (1,))
        for level in range(self.n_bits):
            j = self.n_bits - 1 - level
            trial = settled + weights[..., j:j + 1]
            np.divide(trial, total,
                      out=heap[..., 2 ** level - 1:2 ** (level + 1) - 1])
            # The level below holds node p's children at 2p (bit
            # dropped) and 2p + 1 (bit kept).
            below = np.empty(dies + (2 ** (level + 1),))
            below[..., 0::2] = settled
            below[..., 1::2] = trial
            settled = below
        return heap

    def _transition_table(self, heap: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted decision thresholds and the code held at each.

        The thresholds are the :meth:`_trial_heap` entries, sorted.
        Every decision is ``held >= t`` for one of them, so a held
        input's code depends only on how many thresholds lie at or
        below it: the code stored next to sorted threshold ``i`` (one
        walk of the heap at ``t_i``) holds on ``[t_i, t_{i+1})``, and
        code 0 holds below ``t_0``.  Both arrays are
        ``(..., 2**n_bits - 1)``.
        """
        heap = self._trial_heap() if heap is None else heap
        thresholds = np.sort(heap, axis=-1)
        return thresholds, _walk(heap, thresholds)

    def _ramp_histogram(self, ramp: np.ndarray,
                        heap: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-die code counts and monotonic flags of an ascending ramp.

        Equal to ``np.bincount`` of each die's ``convert(ramp)`` row
        and to ``_ramp_monotonic`` of it, without converting a sample.
        The count of held samples ``ramp + offset`` below each sorted
        threshold (``side="left"``, since a sample equal to a threshold
        passes it) comes from one ``searchsorted`` of ``threshold -
        offset`` in the shared ramp for every (die, threshold) pair.
        That subtraction rounds differently from the held sum, so an
        exact fix-up then steps each count down while
        ``ramp[k - 1] + offset >= t`` and up while ``ramp[k] + offset <
        t``, the held sum's own float addition, until no count moves.
        ``ramp[k] + offset`` never decreases in ``k``, so the counts are
        those of a search in each die's held ramp.  The differences are
        the hits of each table row, and one ``bincount`` puts them on
        the rows' codes.  For a batched ADC; ``ramp`` is a 1-D
        ascending input shared by all dies.
        """
        thresholds, codes = self._transition_table(heap)
        n_dies = thresholds.shape[0]
        offset = _per_die("offset", self.offset, self.weights)[:, None]
        below = np.searchsorted(ramp, thresholds - offset, side="left")
        # fenced[k] is ramp[k - 1] and fenced[k + 1] is ramp[k]; the
        # infinite ends never move a count past either end of the ramp.
        fenced = np.concatenate([[-np.inf], ramp, [np.inf]])
        while True:
            down = fenced.take(below) + offset >= thresholds
            up = fenced[1:].take(below) + offset < thresholds
            if not (down.any() or up.any()):
                break
            below += up
            below -= down
        hits = np.diff(below, axis=-1, prepend=0, append=ramp.size)
        # Row 0 is the region below every threshold, where no decision
        # keeps a bit.
        row_codes = np.insert(codes, 0, 0, axis=-1)
        n_codes = 2 ** self.n_bits
        flat = row_codes + n_codes * np.arange(n_dies)[:, None]
        counts = np.bincount(flat.ravel(), weights=hits.ravel(),
                             minlength=n_dies * n_codes)
        hit = hits > 0
        seen = np.where(hit, row_codes, -1)
        monotonic = np.all(~hit | (seen >= np.maximum.accumulate(
            seen, axis=-1)), axis=-1)
        return counts.astype(np.int64).reshape(n_dies, n_codes), monotonic


def _per_die(name: str, value: ArrayOrFloat,
             weights: np.ndarray) -> np.ndarray:
    """``value`` broadcast to the die axis ``weights.shape[:-1]``."""
    dies = np.shape(weights)[:-1]
    value = np.asarray(value, dtype=float)
    if value.shape == dies:
        return value
    try:
        return np.broadcast_to(value, dies)
    except ValueError:
        raise ModelDomainError(
            f"{name} must broadcast to the die axis {dies}, got shape "
            f"{np.shape(value)}") from None


def _code_sums(weights: np.ndarray) -> np.ndarray:
    """Connected weight ``sum(b_i * w_i)`` of every code, ``(..., 2**n)``.

    Bit ``i`` gets its own broadcast axis holding ``(0.0, w_i)``, LSB
    last, so a C-order reshape puts each code's sum at its index.  The
    terms are added in the order numpy's pairwise sum reduces a
    length-``n`` axis: below 8 terms one after another; from 8 to 128
    into eight interleaved accumulators combined as a balanced tree,
    then the tail.  So every sum is bit for bit
    ``(weights[..., None, :] * bits).sum(axis=-1)``, at about
    ``2 * 2**n`` adds per die instead of ``n * 2**n`` products plus the
    reduction.
    """
    dies, n_bits = weights.shape[:-1], weights.shape[-1]
    pairs = np.zeros(dies + (n_bits, 2))
    # Adding 0.0 turns a -0.0 weight into 0.0.  numpy's sum starts from
    # 0.0, so none of its sums is -0.0; with no -0.0 term, none of these
    # is either.
    np.add(weights, 0.0, out=pairs[..., 1])
    terms = [pairs[..., i, :].reshape(
        dies + (1,) * (n_bits - 1 - i) + (2,) + (1,) * i)
        for i in range(n_bits)]
    if n_bits < 8:
        sums = terms[0]
        for term in terms[1:]:
            sums = sums + term
    else:
        tail = n_bits - n_bits % 8
        acc = terms[:8]
        for start in range(8, tail, 8):
            acc = [a + t for a, t in zip(acc, terms[start:start + 8])]
        sums = ((acc[0] + acc[1]) + (acc[2] + acc[3])) \
            + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for term in terms[tail:]:
            sums = sums + term
    return sums.reshape(dies + (2 ** n_bits,))


#: Dies per block of :func:`_walk`.  A 64-die block of a 256-code
#: sweep keeps each step array (held inputs, node indices, gathered
#: thresholds) at 128 KiB, so all of them stay in L2 across the n steps
#: instead of streaming the whole batch through memory once per bit.
_WALK_ROWS = 64


def _walk(heap: np.ndarray, held: np.ndarray) -> np.ndarray:
    """SAR codes of ``held`` inputs, by walking a :meth:`SarAdc._trial_heap`.

    Each of the ``n`` steps is one ``np.take`` of the current node's
    threshold and one compare, ``node = 2 * node + 1 + (held >= t)``:
    the textbook MSB-first decision, without its per-step division.
    After ``n`` steps the node is leaf ``2**n - 1 + code``.  A batched
    ``heap`` ``(..., 2**n - 1)`` walks ``held`` ``(..., m)`` row by row;
    a 1-D heap walks ``held`` of any shape.
    """
    n_nodes = heap.shape[-1]
    n_bits = n_nodes.bit_length()
    tables = heap.reshape(-1, n_nodes)
    rows = (held.reshape(-1, held.shape[-1]) if heap.ndim > 1
            else held.reshape(1, -1))
    codes = np.empty(rows.shape, dtype=np.int64)
    for start in range(0, tables.shape[0], _WALK_ROWS):
        table = tables[start:start + _WALK_ROWS].ravel()
        block = rows[start:start + _WALK_ROWS]
        # Nodes index the block's flat table: row r's root is at
        # r * n_nodes, so a child is 2 * node + 1 - root + decision.
        root = np.arange(0, table.size, n_nodes)[:, None]
        node = np.repeat(root, block.shape[1], axis=1)
        step = 1 - node
        for _ in range(n_bits):
            keep = block >= np.take(table, node)
            node += node
            node += step
            node += keep
        codes[start:start + _WALK_ROWS] = node - root - n_nodes
    return codes.reshape(held.shape)


def _midstep_ramp(n_bits: int, n_per_code: int) -> np.ndarray:
    """Uniform full-scale ramp hitting each code bin ``n_per_code``
    times at mid-step phase.

    With ``n_per_code`` a power of two every sample is an odd-numerator
    dyadic that can never tie an ideal SAR threshold, so the ideal
    histogram is exactly uniform.
    """
    n_points = 2 ** n_bits * n_per_code
    return (np.arange(n_points, dtype=float) + 0.5) / n_points


def _sine_codes(n_bits: int, n_samples: int, cycles: int,
                amplitude_fraction: float) -> np.ndarray:
    """DAC input codes of the coherent test sine (die-independent)."""
    t = np.arange(n_samples, dtype=float)
    wave = 0.5 + 0.5 * amplitude_fraction * np.sin(
        2.0 * np.pi * cycles * t / n_samples)
    return np.round((2 ** n_bits - 1) * wave).astype(np.int64)


def _sc_gain_error(node: TechnologyNode,
                   design: ChainDesign) -> tuple:
    """(alpha0, dalpha/dVT, stage): SC finite-gain error at ``node``.

    alpha = 1/(1 + A0*beta) is the classical closed-loop static gain
    error of an SC stage; the slope against the die's global V_T shift
    comes from re-evaluating the OTA engine at a shifted node, so the
    inter-die sensitivity is the sizing engine's, not a guess.
    """
    ota = design.ota_for(node)
    stage = design_sc_stage(node, ota, design.sampling_capacitance,
                            gain=design.sc_gain)
    beta = stage.feedback_factor

    def alpha(evaluated: ScAmplifier) -> float:
        return 1.0 / (1.0 + 10.0 ** (evaluated.ota.gain_db / 20.0) * beta)

    delta_vth = 5e-3
    shifted_node = node.with_overrides(
        name=f"{node.name}+dvth", vth=node.vth + delta_vth)
    shifted = design_sc_stage(shifted_node, ota,
                              design.sampling_capacitance,
                              gain=design.sc_gain)
    alpha0 = alpha(stage)
    slope = (alpha(shifted) - alpha0) / delta_vth
    return alpha0, slope, stage


def _mismatch_sigmas(node: TechnologyNode,
                     design: ChainDesign) -> tuple:
    """(sigma_R, sigma_C, sigma_gain, sigma_offset_fs) at ``node``."""
    scale = node.feature_size
    sigma_r = sigma_resistor_mismatch(
        node, design.resistor_width * scale,
        design.resistor_length * scale)
    sigma_c = sigma_capacitor_mismatch(
        node, design.cap_side * scale, design.cap_side * scale)
    # The SC closed-loop gain is a two-cap ratio: sqrt(2) worse than
    # a single cap pair's sigma.
    sigma_gain = math.sqrt(2.0) * sigma_c
    sigma_offset = offset_sigma_diff_pair(
        node, design.comparator_width * scale,
        design.comparator_length * scale) / node.vdd
    return sigma_r, sigma_c, sigma_gain, sigma_offset


#: Standard normals consumed per die beyond ``n_bits``-dependent legs:
#: DAC termination, SC gain, ADC termination, comparator offset.
_EXTRA_DRAWS = 4


def _draws_per_die(n_bits: int) -> int:
    """Mismatch draws per die: DAC legs + ADC caps + 4 singletons."""
    return 2 * n_bits + _EXTRA_DRAWS


@dataclass(frozen=True)
class SignalChain:
    """The composed DAC -> SC filter -> ADC signal path at one node.

    ``sc_gain_eff`` is the die's effective closed-loop gain; the
    filter is applied about mid-scale,
    ``f + (g - 1) * (f - 1/2)``, so an exactly-unity gain passes
    fractions through bit-identically.  Fields may carry a leading die
    axis, in which case :meth:`signoff` runs the batched metrics.
    """

    node: TechnologyNode
    design: ChainDesign
    dac: R2rDac
    adc: SarAdc
    sc_gain_eff: ArrayOrFloat
    sc_stage: Optional[ScAmplifier] = None

    def __post_init__(self) -> None:
        check_positive("sc_gain_eff", self.sc_gain_eff)

    @classmethod
    def ideal(cls, node: TechnologyNode,
              design: Optional[ChainDesign] = None) -> "SignalChain":
        """Mismatch-free chain: the sign-off's exact-zero reference."""
        design = design if design is not None else ChainDesign()
        return cls(node=node, design=design,
                   dac=R2rDac.ideal(design.n_bits),
                   adc=SarAdc.ideal(design.n_bits),
                   sc_gain_eff=design.sc_gain)

    @classmethod
    def from_die(cls, node: TechnologyNode, design: ChainDesign,
                 die: SampledDie) -> "SignalChain":
        """One die's chain: the scalar Monte Carlo oracle.

        Consumes exactly ``2 * n_bits + 4`` standard normals from the
        die's spawned generator in a fixed order (DAC legs LSB-first,
        DAC termination, SC gain, ADC caps LSB-first, ADC termination,
        comparator offset) -- the contract the batched path replays.
        """
        if die.rng is None:
            raise ModelDomainError(
                "die.rng is unset; draw dies from MonteCarloSampler."
                "sample_die() for chain sampling")
        draws = die.rng.standard_normal(_draws_per_die(design.n_bits))
        return cls._from_draws(node, design, die.vth_global, draws)

    @classmethod
    def _from_draws(cls, node: TechnologyNode, design: ChainDesign,
                    vth_global: ArrayOrFloat,
                    draws: np.ndarray) -> "SignalChain":
        """Shared scalar/batched construction from mismatch draws.

        ``draws`` is ``(2*n_bits + 4,)`` or ``(n_dies, 2*n_bits + 4)``;
        every operation is elementwise over the leading axis, so batch
        row ``d`` is bit-identical to the scalar die ``d``.
        """
        n_bits = design.n_bits
        sigma_r, sigma_c, sigma_gain, sigma_offset = _mismatch_sigmas(
            node, design)
        alpha0, alpha_slope, stage = _sc_gain_error(node, design)
        powers = 2.0 ** np.arange(n_bits)
        # A 2**i-unit leg is a parallel combination: sigma / sqrt(2**i).
        derate = 1.0 / np.sqrt(powers)
        vth_global = np.asarray(vth_global, dtype=float)
        dac = R2rDac(
            n_bits=n_bits,
            weights=powers * (1.0 + sigma_r * derate
                              * draws[..., :n_bits]),
            termination=1.0 + sigma_r * draws[..., n_bits])
        gain = design.sc_gain \
            * (1.0 + sigma_gain * draws[..., n_bits + 1]) \
            * (1.0 - (alpha0 + alpha_slope * vth_global))
        adc = SarAdc(
            n_bits=n_bits,
            weights=powers * (1.0 + sigma_c * derate
                              * draws[..., n_bits + 2:2 * n_bits + 2]),
            termination=1.0 + sigma_c * draws[..., 2 * n_bits + 2],
            offset=sigma_offset * draws[..., 2 * n_bits + 3])
        return cls(node=node, design=design, dac=dac, adc=adc,
                   sc_gain_eff=gain, sc_stage=stage)

    def with_shorted_leg(self, leg: int) -> "SignalChain":
        """Chain with DAC ladder leg ``leg`` shorted out (weight 0).

        The known-fault injection hook: killing bit ``leg`` collapses
        ``2**leg`` codes onto their neighbours, an INL signature of
        about ``2**leg`` LSB that the sign-off must flag.
        """
        leg = check_count("leg", leg, minimum=0)
        if leg >= self.design.n_bits:
            raise ModelDomainError(
                f"leg must be below n_bits={self.design.n_bits}, "
                f"got {leg}")
        weights = np.array(self.dac.weights, dtype=float, copy=True)
        weights[..., leg] = 0.0
        return replace(self, dac=replace(self.dac, weights=weights))

    def through_filter(self, fractions: np.ndarray) -> np.ndarray:
        """Apply the SC stage about mid-scale (gain error only)."""
        gain = np.asarray(self.sc_gain_eff, dtype=float)
        if gain.ndim:
            gain = gain[..., None]
        return fractions + (gain - 1.0) * (fractions - 0.5)

    def signoff(self, spec: Optional[ChainSpec] = None,
                n_ramp_per_code: int = 16, n_fft: int = 1024,
                cycles: int = 67,
                amplitude_fraction: float = 0.9) -> ChainSignoff:
        """Run the full sign-off on this chain (die or batch).

        * DAC static linearity: DC sweep of all ladder levels
          (:func:`~repro.analog.metrics.transfer_linearity`);
        * ADC static linearity: dense mid-step ramp histogram
          (:func:`~repro.analog.metrics.histogram_linearity`) --
          applied to the ADC directly, as a bench ramp would be; a
          batched chain counts it from each die's transition table
          instead of converting the ramp, with identical counts;
        * end-to-end monotonicity: every code through
          DAC -> filter -> ADC;
        * dynamic ENOB/SNDR/SFDR: coherent sine through the full
          chain (:func:`~repro.analog.metrics.spectral_metrics`).
          The sine samples are DAC levels, so their codes are gathered
          from the sweep's rather than converted again.
        """
        spec = spec if spec is not None else ChainSpec()
        n_ramp_per_code = check_count("n_ramp_per_code",
                                      n_ramp_per_code)
        n_fft = check_count("n_fft", n_fft, minimum=64)
        cycles = check_count("cycles", cycles)
        check_fraction("amplitude_fraction", amplitude_fraction)
        n_bits = self.design.n_bits
        batched = np.asarray(self.dac.weights).ndim > 1

        dac_levels = self.dac.levels()
        ramp = _midstep_ramp(n_bits, n_ramp_per_code)
        heap = self.adc._trial_heap()
        sweep_codes = self.adc._convert(heap,
                                        self.through_filter(dac_levels))
        monotonic = np.all(np.diff(sweep_codes, axis=-1) >= 0, axis=-1)
        # The sine samples are DAC levels, and the filter and the SAR act
        # elementwise, so the sine's codes are a gather of the sweep's.
        # ``np.take`` returns C order, which keeps the FFT reductions
        # those of a converted record.
        sine_out = np.take(sweep_codes.astype(float),
                           _sine_codes(n_bits, n_fft, cycles,
                                       amplitude_fraction), axis=-1)

        full_scale = float(2 ** n_bits - 1)
        if batched:
            dac_report = transfer_linearity_batch(dac_levels)
            counts, ramp_monotonic = self.adc._ramp_histogram(ramp, heap)
            adc_report = replace(_histogram_linearity(counts),
                                 monotonic=ramp_monotonic)
            spectral = spectral_metrics_batch(sine_out, cycles,
                                              full_scale=full_scale)
        else:
            dac_report = transfer_linearity(dac_levels)
            adc_report = histogram_linearity(self.adc._convert(heap, ramp),
                                             n_bits)
            spectral = spectral_metrics(sine_out, cycles,
                                        full_scale=full_scale)
        passed = _meets_spec(spec, n_bits, dac_report, adc_report,
                             spectral, monotonic)
        if not batched:
            monotonic = bool(monotonic)
            passed = bool(passed)
        return ChainSignoff(node=self.node.name, dac=dac_report,
                            adc=adc_report, spectral=spectral,
                            monotonic=monotonic, passed=passed)


def _meets_spec(spec: ChainSpec, n_bits: int, dac: LinearityReport,
                adc: LinearityReport, spectral: SpectralReport,
                monotonic) -> np.ndarray:
    """Spec conjunction, elementwise over the die axis if present."""
    ok = np.asarray(dac.dnl_max) <= spec.dnl_limit
    ok = ok & (np.asarray(dac.inl_max) <= spec.inl_limit)
    ok = ok & (np.asarray(adc.dnl_max) <= spec.dnl_limit)
    ok = ok & (np.asarray(adc.inl_max) <= spec.inl_limit)
    ok = ok & np.asarray(monotonic)
    ok = ok & (np.asarray(spectral.enob) >= spec.enob_floor(n_bits))
    return ok


@validated(_result_finite=True, n_ramp_per_code="count", n_fft="count",
           cycles="count", amplitude_fraction="fraction")
def chain_signoff(node: TechnologyNode,
                  design: Optional[ChainDesign] = None,
                  spec: Optional[ChainSpec] = None,
                  die: Optional[SampledDie] = None,
                  n_ramp_per_code: int = 16, n_fft: int = 1024,
                  cycles: int = 67,
                  amplitude_fraction: float = 0.9) -> ChainSignoff:
    """Sign off one chain instance at ``node`` (scalar oracle).

    Without a ``die`` the ideal chain is evaluated -- which must (and
    does, exactly) report zero DNL/INL and a monotonic transfer.  With
    a die from :meth:`MonteCarloSampler.sample_die`, the die's
    mismatch draws parameterize the chain first.
    """
    design = design if design is not None else ChainDesign()
    chain = (SignalChain.ideal(node, design) if die is None
             else SignalChain.from_die(node, design, die))
    return chain.signoff(spec, n_ramp_per_code=n_ramp_per_code,
                         n_fft=n_fft, cycles=cycles,
                         amplitude_fraction=amplitude_fraction)


@validated(_result_finite=True, n_dies="count", n_ramp_per_code="count",
           n_fft="count", cycles="count", amplitude_fraction="fraction")
def chain_signoff_batch(sampler: MonteCarloSampler,
                        design: Optional[ChainDesign] = None,
                        spec: Optional[ChainSpec] = None,
                        n_dies: int = 64,
                        n_ramp_per_code: int = 16, n_fft: int = 1024,
                        cycles: int = 67,
                        amplitude_fraction: float = 0.9,
                        shard: Optional[Tuple[int, int]] = None
                        ) -> ChainSignoff:
    """Sign off ``n_dies`` Monte Carlo chains in one batched pass.

    Replays the scalar path's RNG contract exactly: the inter-die
    shifts come from :meth:`MonteCarloSampler.sample_dies_batch` and
    the per-die mismatch draws from the sampler's spawned children
    (spawning advances only the child counter, never the parent bit
    stream, so child ``d`` here is the very generator die ``d`` of the
    scalar loop would own).  All result fields gain a leading
    ``n_dies`` axis.

    With ``shard=(start, stop)`` only that slice of the same
    ``n_dies`` population is signed off: the inter-die batch is
    sliced by :meth:`MonteCarloSampler.sample_dies_batch` and only
    the sharded dies' spawned children are consumed, so row ``k`` of
    a sharded result is bit-for-bit row ``start + k`` of the full
    result -- the merge contract of :mod:`repro.exec`.
    """
    design = design if design is not None else ChainDesign()
    shard = check_shard(shard, n_dies)
    start, stop = shard if shard is not None else (0, n_dies)
    batch = sampler.sample_dies_batch(n_dies, shard=shard)
    children = sampler.rng.spawn(n_dies)[start:stop]
    draws = np.stack([child.standard_normal(
        _draws_per_die(design.n_bits)) for child in children])
    chain = SignalChain._from_draws(sampler.node, design,
                                    batch.vth_global, draws)
    return chain.signoff(spec, n_ramp_per_code=n_ramp_per_code,
                         n_fft=n_fft, cycles=cycles,
                         amplitude_fraction=amplitude_fraction)


def _yield_row(node_name: str, passed: np.ndarray, enob: np.ndarray,
               dnl_max: np.ndarray, inl_max: np.ndarray
               ) -> Dict[str, float]:
    """One :func:`chain_yield_vs_node` row from per-die sign-offs.

    ``dnl_max`` / ``inl_max`` hold each die's worst |DNL| / |INL| over
    the DAC and the ADC [LSB].
    """
    n_dies = int(passed.size)
    return {
        "node": node_name,
        "n_dies": float(n_dies),
        "yield_fraction": int(np.count_nonzero(passed)) / n_dies,
        "enob_mean": float(enob.mean()),
        "enob_min": float(enob.min()),
        "dnl_worst_lsb": float(np.max(dnl_max)),
        "inl_worst_lsb": float(np.max(inl_max)),
    }


@validated(_result_finite=True, n_dies="count", n_ramp_per_code="count",
           n_fft="count", cycles="count", amplitude_fraction="fraction")
def chain_yield_vs_node(nodes: Optional[Sequence[TechnologyNode]] = None,
                        design: Optional[ChainDesign] = None,
                        spec: Optional[ChainSpec] = None,
                        n_dies: int = 64, seed: int = 0,
                        variation: Optional[VariationSpec] = None,
                        n_ramp_per_code: int = 16, n_fft: int = 1024,
                        cycles: int = 67,
                        amplitude_fraction: float = 0.9
                        ) -> List[Dict[str, float]]:
    """Chain sign-off yield across the roadmap: the paper's answer.

    For each node, ``n_dies`` Monte Carlo chains are drawn with the
    same seed and signed off in one :func:`chain_signoff_batch` pass;
    the yield is
    P(DNL < limit ∧ INL < limit ∧ monotonic ∧ ENOB >= floor).  The
    per-node sampler is re-seeded identically, so the trend isolates
    the technology: the same design passes comfortably at 350 nm and
    collapses towards 32 nm as Pelgrom sigmas outgrow the LSB.
    """
    seed = check_count("seed", seed, minimum=0)
    nodes = list(nodes) if nodes is not None else all_nodes()
    if not nodes:
        raise ModelDomainError("nodes must be a non-empty sequence")
    design = design if design is not None else ChainDesign()
    spec = spec if spec is not None else ChainSpec()
    variation = variation if variation is not None else VariationSpec()
    rows: List[Dict[str, float]] = []
    for node in nodes:
        sampler = MonteCarloSampler(node, spec=variation, seed=seed)
        result = chain_signoff_batch(
            sampler, design=design, spec=spec, n_dies=n_dies,
            n_ramp_per_code=n_ramp_per_code, n_fft=n_fft,
            cycles=cycles, amplitude_fraction=amplitude_fraction)
        rows.append(_yield_row(
            node.name, np.asarray(result.passed),
            np.asarray(result.spectral.enob, dtype=float),
            np.maximum(result.dac.dnl_max, result.adc.dnl_max),
            np.maximum(result.dac.inl_max, result.adc.inl_max)))
    return rows
