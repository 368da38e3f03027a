"""Netlist generators: arithmetic blocks and random logic.

These provide the digital workloads the paper's analyses run on --
most importantly the synthetic "220 kgate WLAN modem" stand-in for the
SWAN experiment (Fig. 10) and the "250 kgate block" of the VCO
experiment (Fig. 9), built from repeated arithmetic slices plus random
control logic.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..technology.node import TechnologyNode
from .gates import CELL_TYPES
from .netlist import Netlist
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError
from ..robust.validate import validated


class _GateColumns:
    """Gates collected as cell, input and output columns in insertion
    order, then added to a netlist in one :meth:`Netlist._add_gates`
    call with drive 1 and auto-generated instance names.

    Columns rather than a list of row tuples: ``zip`` hands the rows
    over without keeping one tuple per gate alive, which for a 20k-gate
    SoC would cost an extra full garbage-collection pass per build."""

    def __init__(self) -> None:
        self.cells: List[str] = []
        self.inputs: List[Sequence[str]] = []
        self.outputs: List[str] = []

    def add(self, cell_name: str, inputs: Sequence[str],
            output: str) -> str:
        """Collect one gate; returns its output net."""
        self.cells.append(cell_name)
        self.inputs.append(inputs)
        self.outputs.append(output)
        return output

    def full_adder(self, a: str, b: str, cin: str,
                   prefix: str) -> Tuple[str, str]:
        """Collect a full-adder slice; returns (sum_net, carry_net)."""
        axb, s = f"{prefix}_axb", f"{prefix}_s"
        and1, and2, cout = (f"{prefix}_and1", f"{prefix}_and2",
                            f"{prefix}_cout")
        self.cells += ("XOR2", "XOR2", "AND2", "AND2", "OR2")
        self.inputs += ((a, b), (axb, cin), (a, b), (axb, cin),
                        (and1, and2))
        self.outputs += (axb, s, and1, and2, cout)
        return s, cout

    def gated_dff(self, enable_net: str, data: str, q: str) -> None:
        """Collect a register with MUX2 recirculation clock gating:
        ``q`` holds while ``enable_net`` is low."""
        d = f"{q}_d"
        self.cells += ("MUX2", "DFF")
        self.inputs += ((enable_net, q, data), ("en", d))
        self.outputs += (d, q)

    def lower(self, netlist: Netlist) -> None:
        """Add the collected gates to ``netlist``."""
        netlist._add_gates(zip(self.cells, self.inputs, self.outputs,
                               repeat(1.0), repeat(None)))


def full_adder(netlist: Netlist, a: str, b: str, cin: str,
               prefix: str) -> tuple:
    """Add a full-adder slice; returns (sum_net, carry_net)."""
    gates = _GateColumns()
    s, cout = gates.full_adder(a, b, cin, prefix)
    gates.lower(netlist)
    return s, cout


def ripple_adder(node: TechnologyNode, width: int = 8,
                 name: str = "adder") -> Netlist:
    """N-bit ripple-carry adder."""
    if width < 1:
        raise ModelDomainError("width must be >= 1")
    netlist = Netlist(node, name)
    a_bits = netlist.add_inputs(f"a{i}" for i in range(width))
    b_bits = netlist.add_inputs(f"b{i}" for i in range(width))
    carry = netlist.add_input("cin")
    for i in range(width):
        s, carry = full_adder(netlist, a_bits[i], b_bits[i], carry,
                              f"fa{i}")
        netlist.add_output(s)
    netlist.add_output(carry)
    return netlist


def random_logic(node: TechnologyNode, n_gates: int = 100,
                 n_inputs: int = 8, seed: Optional[int] = None,
                 name: str = "rand",
                 sequential_fraction: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Netlist:
    """Random combinational (optionally lightly sequential) logic.

    Gates pick uniformly from the combinational library; each input of
    a new gate connects to a uniformly random existing net, keeping
    the netlist acyclic by construction.
    """
    if n_gates < 1 or n_inputs < 1:
        raise ModelDomainError("n_gates and n_inputs must be positive")
    rng = resolve_rng(rng, seed=seed)
    netlist = Netlist(node, name)
    nets = netlist.add_inputs(f"in{i}" for i in range(n_inputs))
    clock_enable = netlist.add_input("en")
    comb_cells = ["INV", "NAND2", "NOR2", "AND2", "OR2", "XOR2",
                  "NAND3", "NOR3", "AOI21", "MUX2"]
    for index in range(n_gates):
        if rng.random() < sequential_fraction:
            source = nets[int(rng.integers(len(nets)))]
            inst = netlist.add_gate("DFF", [clock_enable, source])
        else:
            cell_name = comb_cells[int(rng.integers(len(comb_cells)))]
            n_pins = CELL_TYPES[cell_name].n_inputs
            pins = [nets[int(rng.integers(len(nets)))]
                    for _ in range(n_pins)]
            inst = netlist.add_gate(cell_name, pins)
        nets.append(inst.output)
    return netlist


@validated(adder_width="count", n_slices="count")
def clocked_datapath(node: TechnologyNode, adder_width: int = 8,
                     n_slices: int = 4, seed: Optional[int] = None,
                     name: str = "datapath",
                     rng: Optional[np.random.Generator] = None) -> Netlist:
    """A registered datapath: LFSR sources feeding adder slices.

    This is the workload shape of the SWAN experiments: wide
    synchronous activity bursts at each clock edge.
    """
    rng = resolve_rng(rng, seed=seed)
    netlist = Netlist(node, name)
    enable = netlist.add_input("en")
    # Pseudo-random source registers.
    n_src = adder_width * 2
    src_nets = [f"src{i}" for i in range(n_src)]
    feedback = netlist.add_gate(
        "XNOR2", [src_nets[-1], src_nets[n_src // 2]], "fb").output
    netlist.add_gate("DFF", [enable, feedback], src_nets[0])
    for i in range(1, n_src):
        netlist.add_gate("DFF", [enable, src_nets[i - 1]], src_nets[i])
    zero = netlist.add_input("zero")
    for s in range(n_slices):
        carry = zero
        perm = rng.permutation(n_src)
        for i in range(adder_width):
            a = src_nets[int(perm[i])]
            b = src_nets[int(perm[(i + adder_width) % n_src])]
            total, carry = full_adder(netlist, a, b, carry, f"s{s}_fa{i}")
            netlist.add_gate("DFF", [enable, total], f"s{s}_r{i}")
            netlist.add_output(f"s{s}_r{i}")
    return netlist


@validated(target_gates="count", n_blocks="count", adder_width="count")
def soc_netlist(node: TechnologyNode, target_gates: int = 20_000,
                n_blocks: int = 8, adder_width: int = 8,
                glue_fraction: float = 0.08,
                seed: Optional[int] = None, name: str = "soc",
                rng: Optional[np.random.Generator] = None) -> Netlist:
    """A parameterized SoC-like netlist of ~``target_gates`` gates.

    The Fig. 10 workload shape at tunable size: ``n_blocks``
    clock-gated blocks, each holding a pseudo-random source register
    bank, registered ripple-adder slices, and a sprinkle of random
    glue logic.  Clock gating is structural -- every register's data
    pin goes through ``MUX2(blk_en, q, next)`` recirculation, so
    deasserting a block's enable stimulus really silences its
    switching activity (the mechanism behind the paper's observation
    that substrate noise tracks *aggregate* activity, not clock rate).

    Primary inputs: global ``en`` plus one ``blk{b}_en`` per block.
    Gate count lands within a few percent of ``target_gates``; blocks
    differ in wiring permutation (seeded), so activity is not
    perfectly correlated across blocks.  Source banks are replicated
    every 16 adder slices so no net's fanout grows with
    ``target_gates`` (unbounded fanout would push loaded gate delays
    past a clock period, silently squashing the very activity the
    workload exists to produce).
    """
    if not 0.0 <= glue_fraction < 1.0:
        raise ModelDomainError(
            f"glue_fraction must be in [0, 1), got {glue_fraction}")
    rng = resolve_rng(rng, seed=seed)
    netlist = Netlist(node, name)
    zero = "zero"
    netlist.add_inputs(["en", zero]
                       + [f"blk{b}_en" for b in range(n_blocks)])
    comb_cells = ["INV", "NAND2", "NOR2", "AND2", "OR2", "XOR2",
                  "NAND3", "AOI21"]
    gates_per_block = max(target_gates // n_blocks, 8 * adder_width)
    n_src = 2 * adder_width
    slices_per_bank = 16
    # Source bank = n_src * (DFF + MUX2) + XNOR; each adder slice =
    # adder_width * (5 FA gates + DFF + MUX2).
    source_cost = 2 * n_src + 1
    slice_cost = 7 * adder_width
    logic_budget = int(gates_per_block * (1.0 - glue_fraction))
    n_slices = max((logic_budget - source_cost) // slice_cost, 1)
    gates = _GateColumns()

    def source_bank(prefix: str, enable_net: str) -> List[str]:
        """XNOR-feedback shift register (pseudo-random sources)."""
        src = [f"{prefix}_src{i}" for i in range(n_src)]
        feedback = gates.add("XNOR2", (src[-1], src[n_src // 2]),
                             f"{prefix}_fb")
        gates.gated_dff(enable_net, feedback, src[0])
        for i in range(1, n_src):
            gates.gated_dff(enable_net, src[i - 1], src[i])
        return src

    for b in range(n_blocks):
        blk_en = f"blk{b}_en"
        src = source_bank(f"b{b}k0", blk_en)
        used = source_cost
        registered: List[str] = []
        for s in range(n_slices):
            if s and s % slices_per_bank == 0:
                src = source_bank(f"b{b}k{s // slices_per_bank}",
                                  blk_en)
                used += source_cost
            carry = zero
            perm = rng.permutation(n_src).tolist()
            for i in range(adder_width):
                a = src[perm[i]]
                c = src[perm[(i + adder_width) % n_src]]
                total, carry = gates.full_adder(a, c, carry,
                                                f"b{b}_s{s}_fa{i}")
                q = f"b{b}_s{s}_r{i}"
                gates.gated_dff(blk_en, total, q)
                registered.append(q)
            used += slice_cost
        # Random glue logic on the block's registered nets; each
        # glue output is fair game for later glue inputs, so fanout
        # stays small even for large glue budgets.
        block_nets = registered or src
        n_glue = max(gates_per_block - used, 0)
        for g in range(n_glue):
            cell_name = comb_cells[int(rng.integers(len(comb_cells)))]
            n_pins = CELL_TYPES[cell_name].n_inputs
            pins = [block_nets[int(rng.integers(len(block_nets)))]
                    for _ in range(n_pins)]
            block_nets.append(gates.add(cell_name, pins,
                                        f"b{b}_glue{g}"))
    gates.lower(netlist)
    return netlist


@validated(target_gates="count", adder_width="count")
def estimate_gates_for_target(target_gates: int, adder_width: int = 8
                              ) -> int:
    """Number of datapath slices giving ~``target_gates`` gates."""
    gates_per_slice = adder_width * 6  # 5 gates/FA + 1 DFF
    return max(int(math.ceil(target_gates / gates_per_slice)), 1)


def kogge_stone_adder(node: TechnologyNode, width: int = 8,
                      name: str = "ksadder") -> Netlist:
    """Kogge-Stone parallel-prefix adder: O(log N) carry depth.

    The fast-adder counterpart to :func:`ripple_adder`; its shallow
    logic depth makes it the right victim for variability studies
    (fewer gates to average mismatch over -- see section 3.1).
    Outputs are named ``s0..s{width-1}`` plus ``cout``.
    """
    if width < 2:
        raise ModelDomainError("width must be >= 2")
    netlist = Netlist(node, name)
    a = netlist.add_inputs(f"a{i}" for i in range(width))
    b = netlist.add_inputs(f"b{i}" for i in range(width))
    # Level-0 generate/propagate.
    g = [netlist.add_gate("AND2", [a[i], b[i]], f"g0_{i}").output
         for i in range(width)]
    p = [netlist.add_gate("XOR2", [a[i], b[i]], f"p0_{i}").output
         for i in range(width)]
    # Prefix tree: (g, p) o (g', p') = (g + p*g', p*p').
    level = 1
    stride = 1
    while stride < width:
        new_g = list(g)
        new_p = list(p)
        for i in range(stride, width):
            j = i - stride
            t = netlist.add_gate("AND2", [p[i], g[j]],
                                 f"t{level}_{i}").output
            new_g[i] = netlist.add_gate(
                "OR2", [g[i], t], f"g{level}_{i}").output
            new_p[i] = netlist.add_gate(
                "AND2", [p[i], p[j]], f"p{level}_{i}").output
        g, p = new_g, new_p
        stride *= 2
        level += 1
    # Sums: s_i = p0_i XOR carry_{i-1}; carry_{i-1} = g[i-1].
    netlist.add_gate("BUF", [f"p0_0"], "s0")
    for i in range(1, width):
        netlist.add_gate("XOR2", [f"p0_{i}", g[i - 1]], f"s{i}")
    netlist.add_gate("BUF", [g[width - 1]], "cout")
    for i in range(width):
        netlist.add_output(f"s{i}")
    netlist.add_output("cout")
    return netlist
