"""Tests for the finite-difference substrate mesh."""

import numpy as np
import pytest

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
