"""Tests for the finite-difference substrate mesh."""

import dataclasses

import numpy as np
import pytest

from repro.perf import cache_registry, clear_caches
from repro.substrate import SubstrateMesh, SubstrateProcess


@pytest.fixture()
def mesh():
    return SubstrateMesh(2e-3, 2e-3, nx=16, ny=16)


class TestIndexing:
    def test_node_count(self, mesh):
        assert mesh.n_nodes == 256
        assert mesh.bulk_node == 256

    def test_node_at_roundtrip(self, mesh):
        node = mesh.node_at(1e-3, 0.6e-3)
        j, i = divmod(node, mesh.nx)    # row-major node centre
        x, y = (i + 0.5) * mesh.dx, (j + 0.5) * mesh.dy
        assert abs(x - 1e-3) < mesh.dx
        assert abs(y - 0.6e-3) < mesh.dy

    def test_out_of_range_clamped(self, mesh):
        assert mesh.node_at(-1.0, -1.0) == mesh.node_index(0, 0)
        assert mesh.node_at(10.0, 10.0) == mesh.node_index(15, 15)

    def test_node_index_bounds(self, mesh):
        with pytest.raises(IndexError):
            mesh.node_index(16, 0)

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            SubstrateMesh(1e-3, 1e-3, nx=1, ny=1)

    def test_rejects_bad_die(self):
        with pytest.raises(ValueError):
            SubstrateMesh(-1e-3, 1e-3)


class TestSolver:
    def test_conductance_matrix_symmetric(self, mesh):
        matrix = mesh.conductance_matrix()
        diff = (matrix - matrix.T)
        assert abs(diff).max() < 1e-12

    def test_solution_satisfies_system(self, mesh):
        currents = np.zeros(mesh.n_nodes)
        currents[mesh.node_at(1e-3, 1e-3)] = 1e-3
        potentials = mesh.solve(currents)
        matrix = mesh.conductance_matrix()
        residual = matrix @ potentials - np.append(currents, 0.0)
        assert np.abs(residual).max() < 1e-12

    def test_injection_raises_local_potential(self, mesh):
        injector = mesh.node_at(0.5e-3, 0.5e-3)
        far = mesh.node_at(1.8e-3, 1.8e-3)
        currents = np.zeros(mesh.n_nodes)
        currents[injector] = 1e-3
        v = mesh.solve(currents)
        assert v[injector] > v[far] > 0

    def test_linearity(self, mesh):
        currents = np.zeros(mesh.n_nodes)
        currents[10] = 1e-3
        v1 = mesh.solve(currents)
        v2 = mesh.solve(2.0 * currents)
        assert np.allclose(v2, 2.0 * v1)

    def test_reciprocity(self, mesh):
        """Z(a->b) == Z(b->a): the property the SWAN flow exploits."""
        a = mesh.node_at(0.3e-3, 0.3e-3)
        b = mesh.node_at(1.5e-3, 1.2e-3)
        z_ab = mesh.transfer_impedance_to(b)[a]
        z_ba = mesh.transfer_impedance_to(a)[b]
        assert z_ab == pytest.approx(z_ba, rel=1e-9)

    def test_rejects_wrong_shape(self, mesh):
        with pytest.raises(ValueError):
            mesh.solve(np.zeros(5))

    def test_spreading_impedance_largest(self, mesh):
        node = mesh.node_at(1e-3, 1e-3)
        z = mesh.transfer_impedance_to(node)
        assert z[node] == pytest.approx(z[:mesh.n_nodes].max())


class TestEpiCoupling:
    def test_bulk_path_dominates(self, mesh):
        """EPI substrate: transfer impedance is nearly distance-flat
        far from the injector (everything couples through the bulk)."""
        injector = mesh.node_at(0.2e-3, 1e-3)
        transfers = [
            mesh.transfer_impedance_to(
                mesh.node_at(0.2e-3 + distance, 1e-3))[injector]
            for distance in (0.5e-3, 1.0e-3, 1.5e-3)]
        assert max(transfers) < 2.0 * min(transfers)

    def test_floating_backplane_raises_coupling(self):
        grounded = SubstrateMesh(2e-3, 2e-3, nx=12, ny=12,
                                 process=SubstrateProcess(
                                     backplane_grounded=True))
        floating = SubstrateMesh(2e-3, 2e-3, nx=12, ny=12,
                                 process=SubstrateProcess(
                                     backplane_grounded=False))
        sensor_xy = (1.8e-3, 1.8e-3)
        inj = grounded.node_at(0.2e-3, 0.2e-3)
        z_gnd = grounded.transfer_impedance_to(
            grounded.node_at(*sensor_xy))[inj]
        z_float = floating.transfer_impedance_to(
            floating.node_at(*sensor_xy))[inj]
        assert z_float > 10.0 * z_gnd

    def test_ground_contact_sinks_noise(self, mesh):
        sensor = mesh.node_at(1.6e-3, 1.6e-3)
        injector = mesh.node_at(0.4e-3, 0.4e-3)
        z_before = mesh.transfer_impedance_to(sensor)[injector]
        mesh.add_ground_contact(1.0e-3, 1.0e-3, resistance=0.5)
        z_after = mesh.transfer_impedance_to(sensor)[injector]
        assert z_after < z_before

    def test_guard_ring_reduces_coupling(self):
        plain = SubstrateMesh(2e-3, 2e-3, nx=16, ny=16)
        ringed = SubstrateMesh(2e-3, 2e-3, nx=16, ny=16)
        ringed.add_guard_ring(1.3e-3, 1.3e-3, 1.9e-3, 1.9e-3,
                              resistance_per_contact=1.0)
        sensor_xy = (1.6e-3, 1.6e-3)
        injector_xy = (0.3e-3, 0.3e-3)
        z_plain = plain.transfer_impedance_to(
            plain.node_at(*sensor_xy))[plain.node_at(*injector_xy)]
        z_ringed = ringed.transfer_impedance_to(
            ringed.node_at(*sensor_xy))[ringed.node_at(*injector_xy)]
        assert z_ringed < z_plain

    def test_contact_rejects_bad_resistance(self, mesh):
        with pytest.raises(ValueError):
            mesh.add_ground_contact(1e-3, 1e-3, resistance=0.0)


#: One changed value per SubstrateProcess field.
PROCESS_CHANGES = {"epi_resistivity": 0.2, "epi_thickness": 6e-6,
                   "bulk_resistivity": 2e-4, "bulk_thickness": 250e-6,
                   "backplane_grounded": False, "backside_resistance": 3.0}


class TestFactorizationMemo:
    """Meshes with one definition share one ``splu`` factorization."""

    @pytest.fixture()
    def memo(self):
        memo = cache_registry()["substrate.mesh_factorizations"]
        memo.clear()
        yield memo
        memo.clear()

    @staticmethod
    def build(die=(2e-3, 1.5e-3), nx=12, ny=9,
              process=SubstrateProcess(), ring=None):
        mesh = SubstrateMesh(*die, nx=nx, ny=ny, process=process)
        if ring is not None:
            mesh.add_guard_ring(*ring, resistance_per_contact=2.0)
        return mesh

    @staticmethod
    def impedance_bytes(mesh, sensor=40):
        return mesh.transfer_impedance_to(sensor).tobytes()

    def test_one_definition_one_factorization(self, memo):
        ring = (1.2e-3, 0.9e-3, 1.8e-3, 1.4e-3)
        before = memo.stats
        first, second = self.build(ring=ring), self.build(ring=ring)
        assert self.impedance_bytes(first) == self.impedance_bytes(second)
        assert first._solver is second._solver
        assert len(memo) == 1
        after = memo.stats
        assert (after.misses - before.misses,
                after.hits - before.hits) == (1, 1)

    @pytest.mark.parametrize("variant", [
        {"ring": (1.2e-3, 0.9e-3, 1.8e-3, 1.4e-3)},
        {"nx": 13}, {"ny": 10}, {"die": (2.1e-3, 1.5e-3)},
        {"die": (2e-3, 1.6e-3)},
        *({"process": dataclasses.replace(SubstrateProcess(),
                                          **{name: value})}
          for name, value in PROCESS_CHANGES.items()),
    ], ids=["guard-ring", "nx", "ny", "die-width", "die-height",
            *PROCESS_CHANGES])
    def test_each_definition_gets_its_own_entry(self, memo, variant):
        base, other = self.build(), self.build(**variant)
        base_bytes = self.impedance_bytes(base)
        assert self.impedance_bytes(other) != base_bytes
        assert other._solver is not base._solver
        assert len(memo) == 2
        assert self.impedance_bytes(self.build()) == base_bytes
        assert len(memo) == 2

    def test_ground_contact_after_a_solve_refactorizes(self, memo):
        mesh = self.build()
        before = self.impedance_bytes(mesh)
        solver = mesh._solver
        mesh.add_ground_contact(1.0e-3, 0.7e-3, resistance=0.5)
        after = self.impedance_bytes(mesh)
        assert mesh._solver is not solver
        assert after != before
        contacted = self.build()
        contacted.add_ground_contact(1.0e-3, 0.7e-3, resistance=0.5)
        assert self.impedance_bytes(contacted) == after
        assert contacted._solver is mesh._solver
        assert len(memo) == 2

    def test_clear_caches_empties_it(self, memo):
        mesh = self.build()
        expected = self.impedance_bytes(mesh)
        assert len(memo) == 1
        clear_caches()
        assert len(memo) == 0
        fresh = self.build()
        assert self.impedance_bytes(fresh) == expected
        assert fresh._solver is not mesh._solver
        assert len(memo) == 1

    def test_every_process_field_is_changed(self):
        assert sorted(PROCESS_CHANGES) == sorted(
            field.name for field in dataclasses.fields(SubstrateProcess))

    def test_bounded(self, memo):
        for nx in range(4, 6 + memo.maxsize):
            self.impedance_bytes(self.build(nx=nx, ny=4), sensor=0)
        assert len(memo) == memo.maxsize

    @pytest.mark.parametrize("ring", [None, (0.2e-3, 0.2e-3, 0.9e-3,
                                             0.8e-3)])
    def test_bytes_equal_a_fresh_splu(self, memo, ring):
        from scipy.sparse.linalg import splu

        for _ in range(2):      # a miss, then a hit
            mesh = self.build(ring=ring)
            rhs = np.zeros(mesh.n_nodes + 1)
            rhs[40] = 1.0
            expected = splu(mesh.conductance_matrix()).solve(rhs)
            assert self.impedance_bytes(mesh) == expected.tobytes()
