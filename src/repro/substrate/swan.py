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
from typing import Dict, List, Optional, Tuple

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

    def _kept_events(self, trace: EventTrace, n_times: int, dt: float,
                     detailed: bool
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                Optional[np.ndarray],
                                List[Tuple[int, np.ndarray]]]:
        """The events an ``n_times``-sample axis keeps, and their pulses.

        :meth:`injected_currents` and :meth:`_add_sensor_voltage` both
        select, draw and shape here.  An event is kept when a placed
        instance caused it and it starts inside the axis; a later one
        is dropped, and a kept pulse that runs past the end of the
        axis is cut there.  With ``detailed`` one jitter factor is
        drawn per kept event, in event order -- the variates the
        scalar loop consumes inside ``detailed_waveform`` -- and as
        the detailed waveform is linear in that factor, each event is
        a scaled copy of its cell's unit pulse.

        Returns the kept events' start bins, mesh nodes, cell codes and
        jitter factors (``None`` without ``detailed``), and ``(code,
        unit pulse)`` for each code among them in ascending order.
        """
        placed_idx = np.flatnonzero(trace.source_indices >= 0)
        starts = (trace.times[placed_idx] / dt).astype(int)
        keep = starts < n_times
        starts = starts[keep]
        sources = trace.source_indices[placed_idx[keep]]
        codes = self._code_by_gate[sources]
        jitter = (1.0 + 0.05 * self.rng.standard_normal(starts.size)
                  if detailed else None)
        pulses = []
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            model = self.macromodels[self._cell_names[code]]
            span = max(int(4.0 * model.duration / dt) + 2, 4)
            local_t = np.arange(span) * dt
            pulses.append((code, model.detailed_waveform(local_t)
                           if detailed else
                           model.macromodel_waveform(local_t)))
        return starts, self._node_by_gate[sources], codes, jitter, pulses

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

        The per-node bridge to :meth:`_injected_currents_scalar`, the
        per-event reference loop: both consume identical RNG variates,
        so they agree to floating-point rounding, and :meth:`propagate`
        takes either dict to the sensor; :meth:`stream_noise` calls
        neither method.  Each cell code's events add their pulses into
        one preallocated ``(nodes x samples)`` matrix with
        ``np.add.at``, code by code in ascending order; each weight
        lands on its bin in event order, starting from zero -- the
        additions one ``bincount`` over the codes' concatenated pulses
        makes -- so the matrix is that ``bincount``'s, bit for bit.
        The returned rows are views of that matrix.
        """
        duration = duration if duration is not None else trace.duration
        time = self._time_axis(duration, dt)
        n_times = time.size
        starts, nodes, codes, jitter, pulses = self._kept_events(
            trace, n_times, dt, detailed)
        unique_nodes, node_rows = np.unique(nodes, return_inverse=True)
        currents = np.zeros((unique_nodes.size, n_times))
        flat = currents.reshape(-1)
        for code, pulse in pulses:
            selected = codes == code
            if jitter is not None:
                pulse = jitter[selected, None] * pulse
            index = starts[selected, None] + np.arange(pulse.shape[-1])
            values = np.where(index < n_times, pulse, 0.0)
            index = np.minimum(index, n_times - 1)
            np.add.at(flat,
                      (node_rows[selected, None] * n_times + index).ravel(),
                      values.ravel())
        return time, dict(zip(unique_nodes.tolist(), currents))

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
        """Quasi-static propagation to the sensor node: the
        transfer-impedance row times the stacked per-node currents."""
        if not node_currents:
            return NoiseWaveform(time=time,
                                 voltage=np.zeros(time.size))
        nodes = np.fromiter(node_currents.keys(), dtype=int,
                            count=len(node_currents))
        matrix = np.vstack(list(node_currents.values()))
        return NoiseWaveform(time=time,
                             voltage=self._impedance[nodes] @ matrix)

    def _add_sensor_voltage(self, voltage: np.ndarray, trace: EventTrace,
                            dt: float, detailed: bool) -> None:
        """Add ``trace``'s sensor voltage into ``voltage``, in place.

        Propagation is linear and quasi-static, so the sensor sees
        each event's pulse scaled by its node's transfer impedance.
        Per cell code, in ascending order, the events' weights
        ``Z[node]`` (times the jitter factor, on the detailed path)
        are binned onto the time axis as one impulse train, which is
        convolved with the code's unit pulse and cut at the axis end.
        That is ``Z[nodes] @ currents`` with the additions reordered.
        """
        n_times = voltage.size
        starts, nodes, codes, jitter, pulses = self._kept_events(
            trace, n_times, dt, detailed)
        weight = self._impedance[nodes]
        if jitter is not None:
            weight *= jitter
        for code, pulse in pulses:
            selected = codes == code
            train = np.bincount(starts[selected], weights=weight[selected],
                                minlength=n_times)
            voltage += np.convolve(train, pulse)[:n_times]

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
        adds its sensor voltage through :meth:`_add_sensor_voltage`,
        and only the accumulated voltage persists between chunks -- no
        per-node current ever exists.  The jitter stream is consumed
        in event order across chunks, so the chunk size moves the
        result by floating-point rounding only.
        """
        chunk_events = check_count("chunk_events", chunk_events)
        duration = duration if duration is not None else trace.duration
        time = self._time_axis(duration, dt)
        voltage = np.zeros(time.size)
        for chunk in trace.chunks(chunk_events):
            self._add_sensor_voltage(voltage, chunk, dt, detailed)
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
