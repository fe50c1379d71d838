"""Shared fixtures: the full verification battery runs once per session, and
the spectra it solved serve every test module."""

import pytest

from osczeta import numerics
from osczeta.verify import run_battery


@pytest.fixture(autouse=True)
def cold_airy_zeros():
    """Every test starts and ends without a kept pair of Airy zero lists, so
    a test that patches the Taylor kernel neither reads zeros marched before
    it nor leaves its own behind."""
    numerics._airy_zero_pair.cache_clear()
    yield
    numerics._airy_zero_pair.cache_clear()


@pytest.fixture(scope="session")
def battery():
    """One full verification run at the default configuration, as
    `osczeta verify` runs it; individual tests assert on its check records
    instead of recomputing."""
    return run_battery()


@pytest.fixture(scope="session")
def spectra1(battery):
    # Airy fast path: the battery's deep pair for the Airy checks
    return battery.spectra[1]


@pytest.fixture(scope="session")
def spectra2(battery):
    return battery.spectra[2]


@pytest.fixture(scope="session")
def spectra3(battery):
    return battery.spectra[3]


@pytest.fixture(scope="session")
def spectra6(battery):
    return battery.spectra[6]


def battery_record(report, check_id):
    for rec in report.records:
        if rec.check_id == check_id:
            return rec
    raise AssertionError(f"no check named {check_id}")
