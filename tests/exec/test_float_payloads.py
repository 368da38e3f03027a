"""The float-list payload check (``_check_floats``).

Voltage, ENOB and SSTA sample payloads are lists of finite numbers.
The check rejects a non-list, a wrong length and the first bool,
non-number or non-finite entry, naming it; numpy ``float64`` entries
pass.
"""

import math
import re

import numpy as np
import pytest

from repro.exec import SocNoiseWorkload
from repro.exec.workloads import _check_floats
from repro.perf import clear_caches
from repro.robust import PoisonedResultError


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def workload():
    return SocNoiseWorkload(target_gates=400, n_blocks=2, n_cycles=4)


def entry_message(value):
    return (f"payload field 'voltage' contains non-finite or "
            f"non-numeric entry {value!r}")


class TestFloatPayloadCheck:
    @pytest.mark.parametrize("bad", [
        True, False, "1.0", None, math.nan, math.inf, -math.inf,
        np.float64(math.nan), [1.0]])
    def test_rejects_each_bad_entry_by_name(self, bad):
        values = [0.5, 2, bad, math.nan]
        with pytest.raises(PoisonedResultError,
                           match=re.escape(entry_message(bad))):
            _check_floats("voltage", values)

    @pytest.mark.parametrize("values", [
        (0.5, 1.0), np.array([0.5, 1.0]), {"v": 0.5}, "0.5", None])
    def test_rejects_a_non_list(self, values):
        with pytest.raises(PoisonedResultError,
                           match="'voltage' must be a list"):
            _check_floats("voltage", values)

    def test_rejects_a_wrong_length(self):
        with pytest.raises(PoisonedResultError,
                           match="has 2 entries, expected 3"):
            _check_floats("voltage", [0.5, 1.0], 3)

    @pytest.mark.parametrize("values", [
        [], [0.0, -1.5, 3, 10 ** 20],
        [np.float64(0.25), 1.0, np.float64(-2.0)],
        np.arange(4.0).tolist(), list(np.arange(4.0))])
    def test_accepts_finite_ints_floats_and_float64(self, values):
        _check_floats("voltage", values)

    def test_voltage_payload_is_plain_floats(self):
        payload = workload().run_shard(0, 10)
        assert {type(v) for v in payload["voltage"]} == {float}

    def test_validate_payload_uses_the_check(self):
        payload = workload().run_shard(0, 5)
        workload().validate_payload(payload, 0, 5)
        payload["voltage"][3] = True
        with pytest.raises(PoisonedResultError,
                           match=re.escape(entry_message(True))):
            workload().validate_payload(payload, 0, 5)
