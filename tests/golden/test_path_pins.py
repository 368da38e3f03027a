"""Golden pins for the outputs of the batched evaluation paths.

These freeze fixed-seed outputs of the chain sign-off yield, Monte
Carlo SSTA, SRAM margins, the SWAN substrate-noise flow, the sharded
yield and chain sign-off runs of :mod:`repro.exec`, the SoC-scale
netlist, event stream and sharded runs behind the ``soc-noise`` CLI,
the electrothermal sweeps
and the ``electrothermal`` CLI, the Monte Carlo OTA yield, the
OTA and detector front-end synthesis (including Fig. 8's sizing
flow), the stdouts of the ``chain-yield``,
``node``, ``leakage`` and ``yield`` CLI probes, and the outcome of
every perturbed call in the fault-injection sweep.  Discrete
values (names, counts, yields, criticality fractions, key order)
compare exactly and floats at ``rel=1e-12``.  A change that moves one
of them changes what the library computes and must be an explicit,
reviewed decision.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.__main__ import main
from repro.analog.chain import chain_yield_vs_node
from repro.analog.circuits import OtaDesign
from repro.analog.yield_analysis import OtaYieldAnalyzer, YieldReport
from repro.digital import (CompiledEventEngine, clocked_datapath,
                           random_logic, random_stimulus, soc_netlist)
from repro.digital.ssta import (StatisticalTimingAnalyzer,
                                corner_vs_statistical_margin)
from repro.digital.timing import delay_under_mismatch
from repro.exec import run_sharded
from repro.exec.workloads import (ChainSignoffWorkload, SocNoiseWorkload,
                                  YieldWorkload)
from repro.memory.sram import SramCell
from repro.robust.errors import ModelDomainWarning
from repro.robust.faults import run_fault_sweep
from repro.substrate.swan import SwanSimulator, run_swan_experiment
from repro.synthesis import synthesize_detector_frontend
from repro.synthesis.sizing import (default_frontend_spec,
                                    default_ota_spec, frontend_synthesizer,
                                    ota_synthesizer)
from repro.technology import all_nodes, get_node
from repro.thermal import (electrothermal_rth_sweep,
                           fixed_die_electrothermal_trend,
                           runaway_rth_threshold)

REL = 1e-12


def close(value):
    return pytest.approx(value, rel=REL, abs=0.0)


class TestChainYieldPins:
    @pytest.fixture(scope="class")
    def rows(self):
        return chain_yield_vs_node(
            nodes=[get_node("350nm"), get_node("32nm")], n_dies=16,
            seed=0)

    def test_row_keys(self, rows):
        for row in rows:
            assert list(row) == ["node", "n_dies", "yield_fraction",
                                 "enob_mean", "enob_min",
                                 "dnl_worst_lsb", "inl_worst_lsb"]

    @pytest.mark.parametrize("index, expected", [
        (0, {"node": "350nm", "n_dies": 16.0, "yield_fraction": 1.0,
             "enob_mean": 7.340076146274523,
             "enob_min": 7.222424222618561,
             "dnl_worst_lsb": 0.07306938094433246,
             "inl_worst_lsb": 0.0625}),
        (1, {"node": "32nm", "n_dies": 16.0, "yield_fraction": 0.5,
             "enob_mean": 7.098637493050392,
             "enob_min": 6.92251160274284,
             "dnl_worst_lsb": 1.0,
             "inl_worst_lsb": 1.491462509279881}),
    ])
    def test_row_values(self, rows, index, expected):
        row = rows[index]
        for key in ("node", "n_dies", "yield_fraction"):
            assert row[key] == expected[key]
        for key in ("enob_mean", "enob_min", "dnl_worst_lsb",
                    "inl_worst_lsb"):
            assert row[key] == close(expected[key])


@pytest.fixture(scope="module")
def logic():
    return random_logic(get_node("65nm"), 60, seed=1)


class TestSstaPins:
    @pytest.fixture(scope="class")
    def result(self, logic):
        return StatisticalTimingAnalyzer(logic, seed=3).run(40)

    def test_statistics(self, result):
        assert result.samples.shape == (40,)
        assert result.mean == close(1.356638323774371e-10)
        assert result.sigma == close(4.5849868180575806e-12)
        assert float(result.samples.min()) == close(
            1.2395964787033753e-10)
        assert float(result.samples.max()) == close(
            1.4384481052637376e-10)
        assert result.quantile(0.9) == close(1.4186348511927679e-10)
        assert result.nominal_delay == close(1.3512963044988517e-10)

    def test_criticality_map(self, result):
        expected = {"u7": 1.0, "u12": 1.0, "u16": 1.0, "u17": 1.0,
                    "u21": 1.0, "u25": 1.0, "u30": 1.0, "u39": 1.0}
        assert list(result.criticality) == list(expected)
        assert result.criticality == expected

    def test_corner_vs_statistical_margin(self, logic):
        margins = corner_vs_statistical_margin(logic, n_samples=40,
                                               seed=3)
        expected = {"nominal_ps": 135.12963044988516,
                    "corner_ps": 171.94635791230007,
                    "statistical_ps": 143.83261627083,
                    "corner_margin_pct": 27.24548815817931,
                    "statistical_margin_pct": 6.440471858000429,
                    "pessimism_ratio": 1.1954615188847935}
        assert list(margins) == list(expected)
        for key, value in expected.items():
            assert margins[key] == close(value)

    def test_delay_under_mismatch(self, logic):
        delays = delay_under_mismatch(logic, 0.02, n_samples=6, seed=4)
        assert delays == [close(value) for value in (
            1.3443695124764889e-10, 1.356980468117603e-10,
            1.344383915924178e-10, 1.3671848436670542e-10,
            1.359433703232853e-10, 1.3448591733766152e-10)]


class TestSramPins:
    OFFSETS = {"pd_l": -0.004, "pd_r": -0.002, "pu_l": 0.002,
               "pu_r": -0.003, "ax_l": 0.003, "ax_r": 0.005}

    @pytest.mark.parametrize("node_name, hold, read", [
        ("65nm", 0.3140469389795726, 0.13966100446441487),
        ("32nm", 0.18834043291462876, 0.002779910692333943),
    ])
    def test_margins(self, node_name, hold, read):
        cell = SramCell(get_node(node_name), vth_offsets=self.OFFSETS)
        assert cell.hold_snm() == close(hold)
        assert cell.read_snm() == close(read)


class TestSwanPins:
    @pytest.fixture(scope="class")
    def datapath(self):
        return clocked_datapath(get_node("350nm"), 8, n_slices=2,
                                seed=2)

    def test_swan_experiment(self, datapath):
        comparison = run_swan_experiment(datapath)
        assert comparison.swan.time.size == 4000
        assert comparison.swan.rms == close(0.0001807975133158815)
        assert comparison.swan.peak_to_peak == close(
            0.0025157408157125663)
        assert comparison.reference.rms == close(0.0001642061391465397)
        assert comparison.reference.peak_to_peak == close(
            0.002033045454290838)
        assert comparison.rms_error == close(0.1010399139494746)
        assert comparison.peak_to_peak_error == close(
            0.23742477592076325)

    def test_run(self, datapath):
        wave = SwanSimulator(datapath, seed=0).run(n_cycles=3)
        assert wave.time.size == 2401
        assert wave.rms == close(0.00013302089459766743)
        assert wave.peak_to_peak == close(0.001451315558137478)

    def test_activity(self, datapath):
        activity = SwanSimulator(datapath, seed=0).simulate_activity(
            n_cycles=3)
        assert activity.n_events == 23
        assert activity.duration == close(6.000000000000001e-08)


def pass_digest(passed):
    """SHA-256 of a pass vector's ``np.packbits`` bytes."""
    return hashlib.sha256(np.packbits(passed).tobytes()).hexdigest()


class TestShardedYieldPins:
    """The ``yield`` CLI's sharded population and a sharded chain row.

    The 400k-die runs are perfbench's sharded-yield warm-up requests;
    their ``n_pass`` equals the counts pinned in ``perfbench/pins.json``.
    """

    @staticmethod
    def run(workload, n_shards, backend="serial"):
        return run_sharded(workload, n_shards=n_shards, backend=backend,
                           env_chaos=False).value

    @pytest.mark.parametrize("seed, n_pass, digest", [
        (0, 381653, "1fb0b1273ad2aba9f2fd5670a71afd3c"
                    "7321d347a0ac806db479e7d48ebc08a2"),
        (1, 381984, "d6d1374414a8ff92521a5e5a8ff03bef"
                    "fadb386afb01cd088447485660f26e93"),
    ])
    def test_yield_population(self, seed, n_pass, digest):
        workload = YieldWorkload("65nm", "vth-shift", 0.03,
                                 n_dies=400_000, seed=seed)
        for n_shards in (8, 1, 3):
            result = self.run(workload, n_shards)
            assert result.n_samples == 400_000
            assert result.n_pass == n_pass
            assert pass_digest(result.passed) == digest

    def test_chain_signoff_row(self):
        row = self.run(ChainSignoffWorkload("65nm", n_dies=64, seed=0),
                       3)
        expected = {"node": "65nm", "n_dies": 64.0,
                    "yield_fraction": 0.96875,
                    "enob_mean": 7.266812342362598,
                    "enob_min": 7.166332136573717,
                    "dnl_worst_lsb": 0.5626076260762607,
                    "inl_worst_lsb": 0.4033013057403214}
        assert list(row) == list(expected)
        for key in ("node", "n_dies", "yield_fraction"):
            assert row[key] == expected[key]
        for key in ("enob_mean", "enob_min", "dnl_worst_lsb",
                    "inl_worst_lsb"):
            assert row[key] == close(expected[key])

    def test_process_backend_matches_serial_digest(self):
        workload = YieldWorkload("65nm", "vth-shift", 0.03,
                                 n_dies=4_000, seed=0)
        digest = ("a89c0d4c2df0b336c88b1e35f7aa5641"
                  "5f3c152c869ecc0fb8c6821a1db4166a")
        for backend in ("serial", "process"):
            result = self.run(workload, 3, backend=backend)
            assert result.n_pass == 3790
            assert pass_digest(result.passed) == digest


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestSocEventStreamPins:
    """The ``soc-noise`` CLI default flow: 20k gates, 8 blocks, 10
    cycles at 50 MHz.

    Each ``EventTrace`` column is pinned by the SHA-256 of its raw
    bytes, so any moved event time, reordered tie or changed
    attribution fails.  ``n_events`` at seed 0 equals the count pinned
    in ``perfbench/pins.json``.
    """

    N_BLOCKS = 8

    @pytest.fixture(scope="class", params=[0, 1])
    def flow(self, request):
        seed = request.param
        netlist = soc_netlist(get_node("65nm"), target_gates=20_000,
                              n_blocks=self.N_BLOCKS, seed=seed)
        engine = CompiledEventEngine(netlist, clock_period=1 / 50e6,
                                     event_budget=10_000_000)
        stimulus = random_stimulus(
            netlist, 10, seed=seed,
            held_high=["en"] + [f"blk{b}_en"
                                for b in range(self.N_BLOCKS)])
        trace = engine.run(stimulus, 10)
        wave = SwanSimulator(netlist, clock_frequency=50e6,
                             seed=seed).stream_noise(
            trace, chunk_events=100_000)
        return seed, trace, wave

    EXPECTED = {
        0: {"n_events": 19951,
            "times": "0359c2af044632bbdd48152f14adcece"
                     "b1eb2e211c236efc2d2178e1c52dea5f",
            "net_indices": "f845d92fae3e4a78cc8fd5d246b38c59"
                           "232426ff7ba6d909fc5783a9f7fc05ff",
            "values": "b6dfdd4ecff5bb6564893d2c4cc3212b"
                      "2b68287bfde3a0e19911f2150c4ceb39",
            "source_indices": "a28da84d6cb7737e20e23cc3dc15c204"
                              "35bdcc2e18e3f9c884ec664da391fe37",
            "rms": 0.0024580489084090502,
            "peak_to_peak": 0.04922217166513262},
        1: {"n_events": 19967,
            "times": "24256b6c75390fab1c686af641bb0804"
                     "12e5b7e5b65319fc6ab9b72c8b04af1b",
            "net_indices": "49efbe372e3aa70253f795969886fc0a"
                           "e4803aaca751da8b8e67255e9c58323e",
            "values": "62ca95beadff6b7b52dd5e321592ce71"
                      "e62b858626610567ef7adb1933d7efe5",
            "source_indices": "3c94f8054fa5a29c1457d84c3ce846ed"
                              "2f96b035f58d71391f91e2ecc0d09227",
            "rms": 0.0024599960395383282,
            "peak_to_peak": 0.04731372738606874},
    }
    NET_NAMES = ("f1c090e0fa105d94e60e112283ca2a6c"
                 "e0f8413bbd78c4622aa048b1ad85e31a")

    def test_event_columns(self, flow):
        seed, trace, _ = flow
        expected = self.EXPECTED[seed]
        assert trace.n_events == expected["n_events"]
        for column in ("times", "net_indices", "values",
                       "source_indices"):
            assert sha256(getattr(trace, column).tobytes()) \
                == expected[column], column
        assert sha256("\n".join(trace.net_names).encode()) \
            == self.NET_NAMES

    def test_stream_noise(self, flow):
        seed, _, wave = flow
        expected = self.EXPECTED[seed]
        assert wave.rms == close(expected["rms"])
        assert wave.peak_to_peak == close(expected["peak_to_peak"])

    def test_cli_stdout(self, capsys):
        assert main(["soc-noise", "--gates", "2000", "--blocks", "2",
                     "--cycles", "4"]) == 0
        assert capsys.readouterr().out == (
            "             gates |             events |           "
            "activity |             rms_uV |             p2p_uV\n"
            + "-" * 102 + "\n"
            "              2000 |                471 |            "
            "0.27448 |             187.42 |             4030.5\n")


def repr_digest(value):
    """SHA-256 of ``repr(value)``."""
    return sha256(repr(value).encode())


class TestSocNetlistPins:
    """``soc_netlist`` through its public surface: every instance's
    name, cell type, drive, inputs and output in insertion order, the
    load names of every net in ``nets`` order, the primary inputs and
    the topological order, each pinned by the SHA-256 of its
    ``repr``."""

    CONFIGS = {
        "cli-default": ("65nm", dict(target_gates=20_000, n_blocks=8,
                                     seed=0)),
        "130nm": ("130nm", dict(seed=1234)),
        "glue": ("65nm", dict(target_gates=3_000, n_blocks=3,
                              glue_fraction=0.3, seed=7)),
        "tiny": ("65nm", dict(target_gates=200, n_blocks=1,
                              adder_width=4, seed=3)),
    }
    EXPECTED = {
        "cli-default": (
            20_000, 20_010, 8,
            "d7faad7e56d0813b4a05cb07b9cd86e6"
            "f4168998de327853b3a15f439b7fd4fe",
            "89c138afc3aa7a3426b243b87ad1c69b"
            "6c7a7578a537503dbdd2cb47cf2de164",
            "488a82bc1ea52e0c22a6e0c794c7c766"
            "ee9675482cb80b053c8bed32782c195a"),
        "130nm": (
            20_000, 20_010, 8,
            "83e11ac9335cfebd103cdba24e9d3b37"
            "0a0f3d6cc28abcef106ef137f60d9092",
            "0c4a7faab9d501653f60babf12e40bd8"
            "e3112c16f4319b27484b3cc8ef3b60c1",
            "84fdb284a692df3ab71f831b2722ac03"
            "a793c666e7f14b544d4540d397ef036d"),
        "glue": (
            3_000, 3_005, 3,
            "2053380da779b5ee5b64e88a6fcad9b8"
            "a9de65bcbe8b8c3b593db48404a27b74",
            "8540ea998992b0ff4faf36ee093ac60c"
            "e9e0448ad5b4f530155d2b38ff2df3f5",
            "9d588d4624bc3baf60b667fed71be01e"
            "076d033b32068fc15ebc93458f3692ab"),
        "tiny": (
            200, 203, 1,
            "e59c7baa54b706854f4563939e2bb3fd"
            "8a8deeacdf6468af0b3530f05dbb050a",
            "ddfc179219a0f5f02a7dc876d38914b2"
            "9e66f828a23d03d210011e8cbdcbbe8c",
            "6ac81299d24f8aa23364e8088ed8b8b4"
            "310de35b27b9fec7fc58935e60b64016"),
    }

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_structure(self, config):
        node_name, kwargs = self.CONFIGS[config]
        netlist = soc_netlist(get_node(node_name), **kwargs)
        (n_gates, n_nets, n_blocks, instances, loads,
         order) = self.EXPECTED[config]
        rows = [(inst.name, inst.cell.cell_type.name, inst.cell.drive,
                 inst.inputs, inst.output)
                for inst in netlist.instances.values()]
        assert len(rows) == n_gates
        assert repr_digest(rows) == instances
        nets = netlist.nets
        assert len(nets) == n_nets
        assert repr_digest([[inst.name for inst in netlist.loads_of(net)]
                            for net in nets]) == loads
        assert netlist.primary_inputs == ["en", "zero"] + [
            f"blk{b}_en" for b in range(n_blocks)]
        assert repr_digest([inst.name for inst in
                            netlist.topological_order()]) == order


class TestSocNoiseShardPins:
    """The sharded ``soc-noise`` flow: the merged row of a 2k-gate,
    10-cycle run for three shard plans, and a sharded CLI stdout.
    Partial waveforms sum across shards, so each plan has its own
    round-off and its own pin."""

    @pytest.mark.parametrize("n_shards, p2p_uV", [
        (1, 5677.751288154703),
        (3, 5677.751288154702),
        (8, 5677.751288154702),
    ])
    def test_merged_row(self, n_shards, p2p_uV):
        result = run_sharded(
            SocNoiseWorkload(target_gates=2000, n_blocks=2, n_cycles=10),
            n_shards=n_shards, backend="serial", env_chaos=False)
        assert result.value == {"gates": 2000.0, "events": 2096.0,
                                "activity": 0.15299270072992702,
                                "rms_uV": 264.98177324442236,
                                "p2p_uV": p2p_uV}

    def test_cli_stdout(self, capsys):
        assert main(["soc-noise", "--gates", "2000", "--blocks", "2",
                     "--cycles", "4", "--shards", "3"]) == 0
        assert capsys.readouterr().out == (
            "             gates |             events |           "
            "activity |             rms_uV |             p2p_uV\n"
            + "-" * 102 + "\n"
            "              2000 |                471 |            "
            "0.27448 |             187.42 |             4030.5\n")


@pytest.fixture
def quiet_domain_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelDomainWarning)
        yield


@pytest.mark.usefixtures("quiet_domain_warnings")
class TestElectrothermalPins:
    """The electrothermal sweeps, the runaway thresholds and the
    ``electrothermal`` CLI table.

    Rows are pinned by the SHA-256 of their ``repr``, so any moved
    temperature, flag or iteration count fails.
    """

    def test_rth_sweep(self):
        rows = electrothermal_rth_sweep(
            all_nodes(), [1.0, 5.0, 20.0, 80.0], n_gates=2_000_000)
        assert len(rows) == 36
        assert sum(row["runaway"] for row in rows) == 6
        assert repr_digest(rows) == (
            "72dd0eeec54bfb2a1bc1493a37e8c23d"
            "d719ce2dbb18fa09f83432edb25577b2")

    def test_fixed_die_trend(self):
        assert repr_digest(fixed_die_electrothermal_trend(all_nodes())) \
            == ("4a9a7a6c90c4904cee96b9161dbb539b"
                "d419d573cbb296048c0eed71d95dc51d")

    @pytest.mark.parametrize("node_name, threshold", [
        ("350nm", 5.8326814656810795),
        ("250nm", 14.676590484945589),
        ("180nm", 39.966656711670076),
        ("130nm", 95.69036329297164),
        ("100nm", 142.63939709482528),
        ("90nm", 167.8726649445633),
        ("65nm", 138.01555676908265),
        ("45nm", 84.30097331387385),
        ("32nm", 56.09344864806361),
    ])
    def test_runaway_threshold(self, node_name, threshold):
        assert runaway_rth_threshold(get_node(node_name),
                                     n_gates=2_000_000) == threshold

    def test_cli_stdout(self, capsys):
        assert main(["electrothermal", "--nodes", "65nm,130nm",
                     "--rth-points", "3", "--gates", "100000"]) == 0
        assert capsys.readouterr().out == (
            "              node |        rth_K_per_W |         "
            "junction_K |          leakage_W | feedback_amplification |"
            "          converged |            runaway |       "
            "n_iterations\n"
            + "-" * 169 + "\n"
            "              65nm |                  1 |             "
            "318.03 |          0.0021758 |             1.0004 |      "
            "         True |              False |                  2\n"
            "              65nm |                 10 |             "
            "318.26 |          0.0021831 |             1.0037 |      "
            "         True |              False |                  2\n"
            "              65nm |                100 |             "
            "320.57 |          0.0022591 |             1.0387 |      "
            "         True |              False |                  2\n"
            "             130nm |                  1 |             "
            "318.09 |         3.4911e-06 |             1.0047 |      "
            "         True |              False |                  2\n"
            "             130nm |                 10 |             "
            "318.94 |         3.6401e-06 |             1.0475 |      "
            "         True |              False |                  2\n"
            "             130nm |                100 |             "
            " 327.4 |         5.4634e-06 |             1.5723 |      "
            "         True |              False |                  2\n")


class TestOtaYieldPins:
    """Monte Carlo OTA yield with a spec that every die population
    straddles: both per-spec yields lie strictly between 0 and 1."""

    @pytest.mark.parametrize("seed, expected", [
        (0, YieldReport(
            n_samples=300, overall_yield=0.3,
            per_spec_yield={"phase_margin_deg": 0.45666666666666667,
                            "offset_sigma": 0.6766666666666666},
            mean_offset=0.002568916588861474,
            sigma_offset=0.0018912569736202532)),
        (1, YieldReport(
            n_samples=300, overall_yield=0.25,
            per_spec_yield={"phase_margin_deg": 0.37333333333333335,
                            "offset_sigma": 0.7033333333333334},
            mean_offset=0.0023217984051220972,
            sigma_offset=0.0017702298783664103)),
    ])
    def test_report(self, seed, expected):
        node = get_node("65nm")
        f = node.feature_size
        report = OtaYieldAnalyzer(
            node, OtaDesign(40 * f, 4 * f, 20 * f, 6 * f, 20e-6),
            load_capacitance=1e-12, seed=seed,
        ).run({"phase_margin_deg": 87.37, "offset_sigma": 3e-3},
              n_samples=300)
        assert repr(report) == repr(expected)


class TestFrontendSynthesisPins:
    def test_best_design(self):
        result = frontend_synthesizer(
            get_node("65nm"), default_frontend_spec()).run(
            seed=0, maxiter=10, popsize=8)
        assert result.values == {
            "input_width": 2.0981015528085085e-05,
            "input_length": 9.900845933130675e-08,
            "feedback_capacitance": 2.3819445119218395e-14,
            "shaper_time_constant": 8.073229093980165e-07,
            "drain_current": 1.0029610245290244e-05}
        assert result.cost == 2.0059220490580488e-05
        assert result.n_evaluations == 704


class TestOtaSynthesisPins:
    """perfbench's ota-synthesis request, best design included.

    perfbench's own pins check the cost and evaluation count but not
    the decoded best design; a one-ulp change anywhere in the decode
    or the batched evaluator moves the DE trajectory and shows here.
    """

    @pytest.mark.parametrize("seed, values, cost", [
        (0, {"input_width": 9.9566434745375e-05,
             "input_length": 8.673677337514966e-07,
             "load_width": 3.126435713621822e-05,
             "load_length": 6.222560255221544e-07,
             "tail_current": 4.7105542617436135e-05},
         5.888192827179517e-05),
        (1, {"input_width": 1.256528342337771e-05,
             "input_length": 8.225796850594103e-07,
             "load_width": 3.6229558084633494e-05,
             "load_length": 3.4335309831548015e-07,
             "tail_current": 4.710554572021858e-05},
         5.8881932150273223e-05),
    ])
    def test_best_design(self, seed, values, cost):
        result = ota_synthesizer(
            get_node("65nm"), 2e-12, default_ota_spec()).run(
            seed=seed, maxiter=60, popsize=30)
        assert result.values == values
        assert result.cost == cost
        assert result.n_evaluations == 15616
        assert result.report.n_iterations == 60
        assert result.feasible


class TestFig8SynthesisPins:
    """The Fig. 8 flow as ``benchmarks/test_fig08_synthesis.py`` runs
    it: sizing, device generation, placement and routing."""

    def test_summary(self):
        report = synthesize_detector_frontend(
            get_node("350nm"), seed=1, sizing_maxiter=25,
            placement_iterations=1200)
        assert report.summary() == {
            "feasible": 1.0,
            "enc_electrons": 256.03562286200145,
            "power_mW": 0.06600054020092568,
            "peaking_time_us": 0.8827940463102674,
            "area_mm2": 0.10545793095316378,
            "n_evaluations": 3328.0,
            "route_completion": 1.0,
            "wirelength_mm": 1.3986}


class TestCliStdoutPins:
    """The stdouts of the fast CLI probes: a chain-yield table, one
    node's parameters, the leakage table and a sharded yield run."""

    def test_chain_yield(self, capsys):
        assert main(["chain-yield", "--dies", "8",
                     "--nodes", "350nm,65nm"]) == 0
        assert capsys.readouterr().out == (
            "              node |     yield_fraction |          enob_mean |"
            "           enob_min |      dnl_worst_lsb |"
            "      inl_worst_lsb |             n_dies\n"
            + "-" * 144 + "\n"
            "             350nm |                  1 |             7.3442 |"
            "             7.2224 |           0.073069 |"
            "             0.0625 |                  8\n"
            "              65nm |                  1 |             7.2847 |"
            "             7.2008 |            0.39324 |"
            "               0.25 |                  8\n")

    def test_node(self, capsys):
        assert main(["node", "65nm"]) == 0
        assert capsys.readouterr().out == (
            "TechnologyNode(65nm: L=65nm VDD=1.00V VT=0.22V tox=1.60nm)\n"
            "         feature_size_nm: 65\n"
            "                   vdd_V: 1\n"
            "                   vth_V: 0.22\n"
            "                  tox_nm: 1.6\n"
            "           wire_pitch_nm: 180\n"
            "             overdrive_V: 0.78\n"
            "          cox_fF_per_um2: 21.582\n"
            "         sigma_vt_min_mV: 36.923\n"
            "           dibl_mV_per_V: 80\n"
            "             body_factor: 0.22\n")

    def test_leakage(self, capsys):
        assert main(["leakage"]) == 0
        assert capsys.readouterr().out == (
            "              node |          f_clk_GHz |         dynamic_mW |"
            "    subthreshold_mW |       gate_leak_mW |   leakage_fraction\n"
            + "-" * 123 + "\n"
            "        350nm@358K |                  1 |              14183 |"
            "          8.529e-05 |         3.9983e-42 |         5.4667e-09\n"
            "        250nm@358K |                  1 |             5636.4 |"
            "          0.0018283 |         7.1869e-36 |         2.9488e-07\n"
            "        180nm@358K |                  1 |             2068.9 |"
            "          0.0098819 |         2.0983e-27 |         4.3422e-06\n"
            "        130nm@358K |                  1 |             854.75 |"
            "            0.20208 |         2.2884e-14 |         0.00021488\n"
            "        100nm@358K |                  1 |             528.89 |"
            "             1.6948 |           0.025055 |          0.0029474\n"
            "         90nm@358K |                  1 |             395.98 |"
            "             3.8925 |           0.029799 |          0.0089246\n"
            "         65nm@358K |                  1 |             213.37 |"
            "             31.183 |             12.701 |            0.15752\n"
            "         45nm@358K |                  1 |             110.45 |"
            "             161.52 |             7.8895 |            0.58236\n"
            "         32nm@358K |                  1 |             52.955 |"
            "             558.14 |             6.6524 |            0.90651\n")

    def test_sharded_yield(self, capsys):
        assert main(["yield", "--dies", "400000", "--shards", "8"]) == 0
        assert capsys.readouterr().out == (
            "              node |             metric |             n_dies |"
            "     yield_fraction |         wilson_low |"
            "        wilson_high |          exact_low |         exact_high\n"
            + "-" * 165 + "\n"
            "              65nm |          vth-shift |              4e+05 |"
            "            0.95413 |            0.95348 |"
            "            0.95478 |            0.95348 |            0.95478\n")


class TestFaultSweepPins:
    """The fault-injection sweep over the default registry: how many
    APIs and perturbed calls it makes, how each call ends, and the
    SHA-256 of every ``(param, value, status)`` outcome in registry
    order.  A registry refactor that keeps this pin probes the same
    inputs and sees the same results."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_fault_sweep()

    def test_counts(self, report):
        assert report.n_apis == 66
        assert len(report.outcomes) == 1120
        assert report.failures == []
        statuses = [o.status for o in report.outcomes]
        assert statuses.count("finite") == 302
        assert statuses.count("typed-error") == 818

    def test_outcome_digest(self, report):
        assert repr_digest([(o.param, o.value, o.status)
                            for o in report.outcomes]) == (
            "02ed3b60eb8a72be2ce315f1342bc8da41bbfa9ee41c33c502cd097b87117c10")
