"""The SWAN substrate-noise methodology (Fig. 10 of the paper).

Pipeline, exactly as section 4.3 describes it:

1. every standard cell is characterized a priori with an injection
   macromodel (:mod:`repro.substrate.injection`);
2. a gate-level (event-driven) simulation of the system provides the
   switching-event stream (:mod:`repro.digital.simulator_compiled`),
   replacing the paper's VHDL simulation;
3. the total substrate injection is the superposition of all switching
   cells' macromodel pulses at their floorplan positions;
4. the finite-difference substrate mesh propagates the injected
   currents to the sensitive analog node
   (:mod:`repro.substrate.mesh`).

The *reference* ("measured") waveform runs the same propagation with
the detailed per-event waveforms (shape-accurate, with per-event
jitter and supply-bounce ringing) -- standing in for the paper's
silicon measurement, which we cannot perform.  The experiment then
reports the same two numbers as Fig. 10: RMS error and peak-to-peak
error of SWAN vs reference over a 100 ns window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..digital.netlist import Netlist
from ..digital.simulator import SimulationResult, random_stimulus
from ..digital.simulator_compiled import CompiledEventEngine, EventTrace
from ..perf.profile import timed
from .injection import characterize_library
from .mesh import SubstrateMesh, SubstrateProcess
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError
from ..robust.validate import check_count, check_positive


@dataclass
class Floorplan:
    """Placement of digital instances on the die surface.

    Instances are arranged row-major on a regular grid inside the
    digital region; the analog sensor sits elsewhere on the die.
    """

    die_width: float
    die_height: float
    digital_region: Tuple[float, float, float, float]  # x1,y1,x2,y2
    sensor_xy: Tuple[float, float]

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.digital_region
        if not (0 <= x1 < x2 <= self.die_width
                and 0 <= y1 < y2 <= self.die_height):
            raise ModelDomainError("digital region must lie inside the die")
        sx, sy = self.sensor_xy
        if not (0 <= sx <= self.die_width and 0 <= sy <= self.die_height):
            raise ModelDomainError("sensor must lie inside the die")

    def grid_positions(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays of the first ``n`` row-major grid slots."""
        x1, y1, x2, y2 = self.digital_region
        n_cols = max(int(math.ceil(math.sqrt(n))), 1)
        n_rows = int(math.ceil(n / n_cols))
        index = np.arange(n)
        x = x1 + (x2 - x1) * (index % n_cols + 0.5) / n_cols
        y = y1 + (y2 - y1) * (index // n_cols + 0.5) / max(n_rows, 1)
        return x, y

    @classmethod
    def default(cls, die_width: float = 3e-3, die_height: float = 3e-3
                ) -> "Floorplan":
        """A typical mixed-signal floorplan: digital block lower-left,
        analog sensor upper-right."""
        return cls(
            die_width=die_width,
            die_height=die_height,
            digital_region=(0.1 * die_width, 0.1 * die_height,
                            0.6 * die_width, 0.6 * die_height),
            sensor_xy=(0.85 * die_width, 0.85 * die_height),
        )


@dataclass
class NoiseWaveform:
    """A sampled substrate-noise voltage at the sensor."""

    time: np.ndarray        # s
    voltage: np.ndarray     # V

    @property
    def rms(self) -> float:
        """RMS value [V]."""
        return float(np.sqrt(np.mean(self.voltage ** 2)))

    @property
    def peak_to_peak(self) -> float:
        """Peak-to-peak value [V]."""
        return float(self.voltage.max() - self.voltage.min())

    def resampled(self, time: np.ndarray) -> "NoiseWaveform":
        """Linear resampling onto another time axis."""
        return NoiseWaveform(
            time=time,
            voltage=np.interp(time, self.time, self.voltage))


class _NodeCurrents(dict):
    """``{mesh node: current row}`` over one ``(nodes x samples)``
    matrix: each row is a view of ``matrix``, and ``nodes`` lists the
    keys in row order, so :meth:`SwanSimulator.propagate` multiplies
    the matrix without stacking the rows again."""

    __slots__ = ("nodes", "matrix")

    def __init__(self, nodes: np.ndarray, matrix: np.ndarray):
        super().__init__(zip(nodes.tolist(), matrix))
        self.nodes = nodes
        self.matrix = matrix


class SwanSimulator:
    """Runs the SWAN flow on one netlist + floorplan.

    Parameters
    ----------
    netlist:
        The digital design (its node sets all cell characterization).
    floorplan:
        Die geometry and instance placement.
    mesh_resolution:
        Substrate mesh density (nodes per die edge).
    clock_frequency:
        Digital clock [Hz].
    process:
        Substrate stack description.
    guard_ring:
        Whether to surround the sensor with a grounded guard ring.
    """

    def __init__(self, netlist: Netlist, floorplan: Optional[Floorplan] = None,
                 mesh_resolution: int = 30,
                 clock_frequency: float = 50e6,
                 process: SubstrateProcess = SubstrateProcess(),
                 guard_ring: bool = False,
                 seed: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        check_positive("clock_frequency", clock_frequency)
        self.netlist = netlist
        self.floorplan = floorplan or Floorplan.default()
        self.clock_frequency = clock_frequency
        self.rng = resolve_rng(rng, seed=seed)
        self.mesh = SubstrateMesh(
            self.floorplan.die_width, self.floorplan.die_height,
            nx=mesh_resolution, ny=mesh_resolution, process=process)
        sx, sy = self.floorplan.sensor_xy
        if guard_ring:
            ring = 0.08 * self.floorplan.die_width
            self.mesh.add_guard_ring(sx - ring, sy - ring,
                                     sx + ring, sy + ring)
        self.sensor_node = self.mesh.node_at(sx, sy)
        self.macromodels = characterize_library(netlist.node)
        self._place()

    @timed("swan.init")
    def _place(self) -> None:
        """Gate-indexed placement arrays and the sensor coupling row.

        ``_code_by_gate`` / ``_node_by_gate`` hold each gate's cell-type
        code and mesh node in netlist insertion order, so an
        EventTrace's source indices gather against them directly; the
        scalar oracle maps instance names to the same positions itself.
        The codes number ``_cell_names``, the sorted cell types of the
        kinds the gates use (a ``bincount`` of the netlist's kind
        array), and reach the gates through that array: one code per
        kind, then one gather.
        """
        netlist = self.netlist
        gate_kind = netlist._kind_array()
        self._node_by_gate = self.mesh.nodes_at(
            *self.floorplan.grid_positions(gate_kind.size))
        kind_names = [cell.cell_type.name for cell in netlist._kind_cells]
        in_use = np.bincount(gate_kind, minlength=len(kind_names)) > 0
        self._cell_names = sorted({kind_names[k]
                                   for k in np.flatnonzero(in_use).tolist()})
        codes = {name: k for k, name in enumerate(self._cell_names)}
        # -1: a kind no gate uses (its first row failed), never gathered.
        self._code_by_gate = np.array(
            [codes.get(name, -1) for name in kind_names],
            dtype=np.int64)[gate_kind]
        self._impedance = self.mesh.transfer_impedance_to(
            self.sensor_node)

    # --- event stream ----------------------------------------------------

    def simulate_activity(self, n_cycles: int = 5,
                          stimulus_seed: int = 0) -> EventTrace:
        """Run the gate-level simulation producing switching events.

        The :class:`CompiledEventEngine` returns the event stream as a
        columnar :class:`EventTrace`; :meth:`EventTrace.to_result`
        gives the object form the scalar oracle consumes.
        """
        stimulus = random_stimulus(self.netlist, n_cycles,
                                   seed=stimulus_seed,
                                   held_high=("en", "enable"))
        return CompiledEventEngine(
            self.netlist,
            clock_period=1.0 / self.clock_frequency
        ).run(stimulus, n_cycles)

    # --- injection + propagation ---------------------------------------------

    def _time_axis(self, duration: float, dt: float) -> np.ndarray:
        return np.arange(0.0, duration, dt)

    @timed("swan.superposition")
    def injected_currents(self, trace: EventTrace,
                          dt: float = 25e-12,
                          detailed: bool = False,
                          duration: Optional[float] = None
                          ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Per-mesh-node injected current waveforms.

        Returns (time axis, {mesh node: current [A] over time}).  With
        ``detailed`` the per-event detailed waveforms (with jitter and
        ringing) are used instead of the macromodels.

        Cell codes and mesh nodes are gathered straight from the
        trace's source indices, and each cell code's events add their
        pulses into one preallocated ``(nodes x samples)`` matrix with
        ``np.add.at``, code by code in ascending order, so no
        per-event Python object exists anywhere on this path.  Each
        weight lands on its bin in event order, starting from zero --
        the additions one ``bincount`` over the codes' concatenated
        pulses makes -- so the matrix is that ``bincount``'s, bit for
        bit.  The returned dict's rows are views of that matrix, which
        it carries for :meth:`propagate`.  Memory grows with the
        trace: :meth:`stream_noise` feeds it bounded chunks.

        :meth:`_injected_currents_scalar` is the per-event reference
        loop: both consume identical RNG variates, so they agree to
        floating-point rounding.
        """
        duration = duration if duration is not None else trace.duration
        time = self._time_axis(duration, dt)
        n_times = time.size
        placed_idx = np.flatnonzero(trace.source_indices >= 0)
        if placed_idx.size == 0:
            return time, {}
        all_starts = (trace.times[placed_idx] / dt).astype(int)
        keep = all_starts < n_times
        if not keep.any():
            return time, {}
        start_arr = all_starts[keep]
        sources = trace.source_indices[placed_idx[keep]]
        code_arr = self._code_by_gate[sources]
        node_arr = self._node_by_gate[sources]
        if detailed:
            # One draw per kept event, in event order -- the same
            # variates the scalar loop consumes inside
            # ``detailed_waveform``.
            jitter = 1.0 + 0.05 * self.rng.standard_normal(
                start_arr.size)
        unique_nodes, node_rows = np.unique(node_arr,
                                            return_inverse=True)
        currents = np.zeros((unique_nodes.size, n_times))
        flat = currents.reshape(-1)
        for code in np.unique(code_arr):
            model = self.macromodels[self._cell_names[code]]
            span = max(int(4.0 * model.duration / dt) + 2, 4)
            local_t = np.arange(span) * dt
            selected = code_arr == code
            if detailed:
                # The detailed waveform is linear in its jitter
                # factor, so each event is a scaled copy of one unit
                # pulse.
                pulse = (jitter[selected, None]
                         * model.detailed_waveform(local_t))
            else:
                pulse = model.macromodel_waveform(local_t)
            index = start_arr[selected, None] + np.arange(span)
            values = np.where(index < n_times, pulse, 0.0)
            index = np.minimum(index, n_times - 1)
            np.add.at(flat,
                      (node_rows[selected, None] * n_times + index).ravel(),
                      values.ravel())
        return time, _NodeCurrents(unique_nodes, currents)

    def _injected_currents_scalar(self, result: SimulationResult,
                                  dt: float = 25e-12,
                                  detailed: bool = False,
                                  duration: Optional[float] = None
                                  ) -> Tuple[np.ndarray,
                                             Dict[int, np.ndarray]]:
        """Reference per-event accumulation loop (numerical oracle)."""
        duration = duration if duration is not None else result.duration
        time = self._time_axis(duration, dt)
        gate_of = {name: g for g, name in enumerate(self.netlist.instances)}
        node_currents: Dict[int, np.ndarray] = {}
        # Pre-sample each cell type's pulse once for the macromodel
        # path (identical for every event of that cell).
        pulse_cache: Dict[str, np.ndarray] = {}
        for event in result.events:
            if event.instance is None:
                continue
            instance = self.netlist.instances[event.instance]
            cell_name = instance.cell.cell_type.name
            model = self.macromodels[cell_name]
            start = int(event.time / dt)
            if start >= time.size:
                continue
            span = max(int(4.0 * model.duration / dt) + 2, 4)
            local_t = (np.arange(span) * dt)
            if detailed:
                pulse = model.detailed_waveform(local_t, rng=self.rng)
            else:
                pulse = pulse_cache.get(cell_name)
                if pulse is None:
                    pulse = model.macromodel_waveform(local_t)
                    pulse_cache[cell_name] = pulse
            mesh_node = int(
                self._node_by_gate[gate_of[event.instance]])
            series = node_currents.get(mesh_node)
            if series is None:
                series = np.zeros(time.size)
                node_currents[mesh_node] = series
            stop = min(start + span, time.size)
            series[start:stop] += pulse[:stop - start]
        return time, node_currents

    def propagate(self, time: np.ndarray,
                  node_currents: Dict[int, np.ndarray]) -> NoiseWaveform:
        """Quasi-static propagation to the sensor node.

        One matrix-vector product of the stacked per-node currents
        against the transfer-impedance row replaces the per-node
        accumulation loop.  The dict :meth:`injected_currents` returns
        carries the matrix its rows are views of, and that matrix is
        multiplied without a copy; any other dict's rows are stacked
        into the same matrix first, so both give the same waveform.
        """
        if not node_currents:
            return NoiseWaveform(time=time,
                                 voltage=np.zeros(time.size))
        if isinstance(node_currents, _NodeCurrents):
            nodes = node_currents.nodes
            matrix = node_currents.matrix
        else:
            nodes = np.fromiter(node_currents.keys(), dtype=int,
                                count=len(node_currents))
            matrix = np.vstack(list(node_currents.values()))
        return NoiseWaveform(time=time,
                             voltage=self._impedance[nodes] @ matrix)

    @timed("swan.stream")
    def stream_noise(self, trace: EventTrace, dt: float = 25e-12,
                     detailed: bool = False,
                     duration: Optional[float] = None,
                     chunk_events: int = 100_000) -> NoiseWaveform:
        """Stream a columnar trace to the sensor waveform, chunkwise.

        The one place where injection meets propagation: :meth:`run`,
        :func:`run_swan_experiment` and every sharded soc-noise shard
        come through here.  Million-event traces flow through in
        bounded memory: each chunk of at most ``chunk_events`` events
        is superposed and propagated through the cached
        transfer-impedance row, and only the accumulated sensor
        voltage persists between chunks.  The jitter stream is
        consumed in event order across chunks, so the chunk size moves
        the result by floating-point rounding only.
        """
        chunk_events = check_count("chunk_events", chunk_events)
        duration = duration if duration is not None else trace.duration
        time = self._time_axis(duration, dt)
        voltage = np.zeros(time.size)
        for chunk in trace.chunks(chunk_events):
            _, currents = self.injected_currents(
                chunk, dt=dt, detailed=detailed, duration=duration)
            if currents:
                voltage += self.propagate(time, currents).voltage
        return NoiseWaveform(time=time, voltage=voltage)

    def run(self, n_cycles: int = 5, dt: float = 25e-12,
            detailed: bool = False,
            stimulus_seed: int = 0,
            activity: Optional[EventTrace] = None,
            duration: Optional[float] = None) -> NoiseWaveform:
        """Full flow: activity -> injection -> propagation, streamed
        through :meth:`stream_noise` in its default chunks.

        ``duration`` truncates/extends the output time axis (defaults
        to the simulated activity's span).
        """
        if activity is None:
            activity = self.simulate_activity(n_cycles, stimulus_seed)
        return self.stream_noise(activity, dt=dt, detailed=detailed,
                                 duration=duration)


@dataclass(frozen=True)
class SwanComparison:
    """SWAN-vs-reference accuracy report (the Fig. 10 numbers)."""

    swan: NoiseWaveform
    reference: NoiseWaveform

    @property
    def rms_error(self) -> float:
        """Relative RMS error of the SWAN waveform."""
        ref = self.reference.rms
        if ref <= 0:
            return 0.0
        return abs(self.swan.rms - ref) / ref

    @property
    def peak_to_peak_error(self) -> float:
        """Relative peak-to-peak error of the SWAN waveform."""
        ref = self.reference.peak_to_peak
        if ref <= 0:
            return 0.0
        return abs(self.swan.peak_to_peak - ref) / ref

    def passes_paper_accuracy(self) -> bool:
        """Paper's Fig. 10 claim: RMS within 20 %, p2p within 4 %."""
        return self.rms_error <= 0.20 and self.peak_to_peak_error <= 0.04


def run_swan_experiment(netlist: Netlist,
                        floorplan: Optional[Floorplan] = None,
                        n_cycles: int = 5,
                        clock_frequency: float = 50e6,
                        mesh_resolution: int = 30,
                        dt: float = 25e-12,
                        seed: int = 0) -> SwanComparison:
    """Run the Fig. 10 experiment: SWAN vs detailed reference.

    Both paths share the same switching-activity stream (as in the
    paper, where the same chip both runs SWAN's netlist and is
    measured) and the same substrate mesh; they differ only in the
    injection waveform model.
    """
    simulator = SwanSimulator(
        netlist, floorplan,
        mesh_resolution=mesh_resolution,
        clock_frequency=clock_frequency, seed=seed)
    activity = simulator.simulate_activity(n_cycles, stimulus_seed=seed)
    return SwanComparison(
        swan=simulator.stream_noise(activity, dt=dt, detailed=False),
        reference=simulator.stream_noise(activity, dt=dt, detailed=True),
    )
