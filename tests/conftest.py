import pytest

from spincnn.analysis import sweep_parts


def _sorted_sweep(*args, **kwargs):
    """All records of `analysis.sweep_parts`, sorted by (voltage, size,
    seed), the order in which `spincnn sweep` writes them."""
    records = [r for part in sweep_parts(*args, **kwargs) for r in part]
    return sorted(records, key=lambda r: (r.v_drive, r.size_mult, r.seed))


@pytest.fixture(scope="session")
def sorted_sweep():
    return _sorted_sweep
