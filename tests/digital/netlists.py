"""Netlist builders that only the digital tests use as workloads, and
the networkx oracle of the topological order.

Multiplier, LFSR, decoder, comparator and FIR shapes give the engine
tests sequential, fanout-heavy and reconvergent netlists that no
library flow builds.  Imported as ``from netlists import ...``: pytest
puts this directory on ``sys.path`` for its test modules.
"""

from typing import List, Optional, Sequence

import networkx as nx

from repro.digital import Netlist, full_adder
from repro.robust.errors import ModelDomainError
from repro.technology.node import TechnologyNode


def networkx_order(netlist: Netlist) -> List[str]:
    """Instance names in ``nx.topological_sort`` order of the instance
    graph: an edge from driver to load per input net, in-edges of
    sequential cells cut.  Raises ``nx.NetworkXUnfeasible`` on a
    combinational loop."""
    graph = nx.DiGraph()
    graph.add_nodes_from(netlist.instances)
    for instance in netlist.instances.values():
        for net in instance.inputs:
            driver = netlist.driver_of(net)
            if driver is not None:
                graph.add_edge(driver.name, instance.name, net=net)
    cut = nx.DiGraph(graph)
    for name, instance in netlist.instances.items():
        if instance.is_sequential:
            cut.remove_edges_from(list(cut.in_edges(name)))
    return list(nx.topological_sort(cut))


def array_multiplier(node: TechnologyNode, width: int = 4,
                     name: str = "mult") -> Netlist:
    """N x N array multiplier (AND partial products + adder array)."""
    if width < 2:
        raise ModelDomainError("width must be >= 2")
    netlist = Netlist(node, name)
    a = netlist.add_inputs(f"a{i}" for i in range(width))
    b = netlist.add_inputs(f"b{i}" for i in range(width))
    zero = netlist.add_input("zero")
    # Partial products.
    pp = [[netlist.add_gate("AND2", [a[i], b[j]],
                            f"pp_{i}_{j}").output
           for i in range(width)] for j in range(width)]
    # Row-by-row carry-save reduction.
    row = list(pp[0]) + [zero]
    for j in range(1, width):
        next_row = [None] * (width + 1)
        carry = zero
        for i in range(width):
            s, carry = full_adder(netlist, row[i + 1], pp[j][i], carry,
                                  f"fa_{j}_{i}")
            next_row[i] = s
        next_row[width] = carry
        netlist.add_output(row[0])
        row = next_row
    for net in row:
        netlist.add_output(net)
    return netlist


def lfsr(node: TechnologyNode, width: int = 8,
         taps: Optional[Sequence[int]] = None,
         name: str = "lfsr") -> Netlist:
    """Fibonacci LFSR with DFF state (drives pseudo-random activity)."""
    if width < 2:
        raise ModelDomainError("width must be >= 2")
    taps = list(taps) if taps is not None else [width - 1, width // 2]
    netlist = Netlist(node, name)
    enable = netlist.add_input("enable")
    # State registers; feedback net is defined after the XOR tree.
    state_nets = [f"q{i}" for i in range(width)]
    feedback = state_nets[taps[0]]
    for tap in taps[1:]:
        feedback = netlist.add_gate(
            "XOR2", [feedback, state_nets[tap]]).output
    netlist.add_gate("DFF", [enable, feedback], state_nets[0],
                     instance_name="ff0")
    for i in range(1, width):
        netlist.add_gate("DFF", [enable, state_nets[i - 1]], state_nets[i],
                         instance_name=f"ff{i}")
    for net in state_nets:
        netlist.add_output(net)
    return netlist


def decoder(node: TechnologyNode, n_select: int = 3,
            name: str = "decoder") -> Netlist:
    """N-to-2^N one-hot decoder (the SRAM wordline shape)."""
    if not 1 <= n_select <= 6:
        raise ModelDomainError("n_select must be in 1..6")
    netlist = Netlist(node, name)
    selects = netlist.add_inputs(f"sel{i}" for i in range(n_select))
    inverted = [netlist.add_gate("INV", [s], f"nsel{i}").output
                for i, s in enumerate(selects)]
    for code in range(2 ** n_select):
        terms = [selects[bit] if (code >> bit) & 1 else inverted[bit]
                 for bit in range(n_select)]
        net = terms[0]
        for k, term in enumerate(terms[1:]):
            net = netlist.add_gate("AND2", [net, term],
                                   f"d{code}_{k}").output
        netlist.add_gate("BUF", [net], f"out{code}")
        netlist.add_output(f"out{code}")
    return netlist


def equality_comparator(node: TechnologyNode, width: int = 8,
                        name: str = "cmp") -> Netlist:
    """A == B comparator: XNOR bits reduced through an AND tree."""
    if width < 2:
        raise ModelDomainError("width must be >= 2")
    netlist = Netlist(node, name)
    a = netlist.add_inputs(f"a{i}" for i in range(width))
    b = netlist.add_inputs(f"b{i}" for i in range(width))
    bits = [netlist.add_gate("XNOR2", [a[i], b[i]],
                             f"eq{i}").output for i in range(width)]
    while len(bits) > 1:
        next_bits = []
        for i in range(0, len(bits) - 1, 2):
            next_bits.append(netlist.add_gate(
                "AND2", [bits[i], bits[i + 1]]).output)
        if len(bits) % 2:
            next_bits.append(bits[-1])
        bits = next_bits
    netlist.add_gate("BUF", [bits[0]], "equal")
    netlist.add_output("equal")
    return netlist


def fir_filter(node: TechnologyNode, n_taps: int = 4,
               data_width: int = 4,
               name: str = "fir") -> Netlist:
    """A serial-data FIR-like MAC datapath (the modem workload shape).

    A shift register of ``n_taps`` x ``data_width`` bits feeds an
    adder tree whose inputs are AND-masked by per-tap coefficient
    bits -- a 1-bit-coefficient transposed FIR.  Registered output.
    This is the multiply-accumulate texture of the paper's OFDM-WLAN
    baseband modem, used as a SWAN aggressor with realistic
    datapath-style synchronous activity.
    """
    if n_taps < 2 or data_width < 2:
        raise ModelDomainError("n_taps and data_width must be >= 2")
    netlist = Netlist(node, name)
    enable = netlist.add_input("en")
    zero = netlist.add_input("zero")
    data = netlist.add_inputs(f"d{i}" for i in range(data_width))
    coeffs = netlist.add_inputs(f"c{t}" for t in range(n_taps))
    # Shift register: tap t holds the sample from t cycles ago.
    taps = [[f"x{t}_{i}" for i in range(data_width)]
            for t in range(n_taps)]
    for i in range(data_width):
        netlist.add_gate("DFF", [enable, data[i]], taps[0][i])
    for t in range(1, n_taps):
        for i in range(data_width):
            netlist.add_gate("DFF", [enable, taps[t - 1][i]],
                             taps[t][i])
    # Masked partial products per tap.
    products = [[netlist.add_gate("AND2", [taps[t][i], coeffs[t]],
                                  f"p{t}_{i}").output
                 for i in range(data_width)]
                for t in range(n_taps)]
    # Accumulate tap by tap with ripple adders.
    acc = products[0]
    for t in range(1, n_taps):
        carry = zero
        next_acc = []
        for i in range(data_width):
            total, carry = full_adder(netlist, acc[i],
                                      products[t][i], carry,
                                      f"acc{t}_{i}")
            next_acc.append(total)
        next_acc.append(carry)
        # Keep the accumulator width bounded for the demo datapath.
        acc = next_acc[:data_width]
    for i, net in enumerate(acc):
        netlist.add_gate("DFF", [enable, net], f"y{i}")
        netlist.add_output(f"y{i}")
    return netlist
