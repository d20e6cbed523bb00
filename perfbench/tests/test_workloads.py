"""Generated inputs: fixed by the seed, and admissible to the program."""

import pytest

from cwkoszul.cw import complex_from_dict
from workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_fixed_by_the_seed(workload):
    make = WORKLOADS[workload]
    assert make(3) == make(3)
    first, _ = make(3)
    other, _ = make(4)
    assert [d for _, d, _ in first] != [d for _, d, _ in other]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_generated_complex_passes_validate(workload):
    inputs, requests = WORKLOADS[workload](11)
    for name, data, meta in inputs:
        x = complex_from_dict(data)
        assert x.validate() == [], name
        assert x.is_pure(), name
    names = {name for name, _, _ in inputs}
    assert {req["input"] for req in requests} == names
