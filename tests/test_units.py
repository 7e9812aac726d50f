import numpy as np
import pytest
from hypothesis import given, strategies as st

from risdeploy.units import (SPEED_OF_LIGHT, db2lin, dbm2watt, lin2db,
                             wavelength)


def test_speed_of_light_exact():
    assert SPEED_OF_LIGHT == 299792458.0


def test_db2lin_frozen():
    assert db2lin(0.0) == 1.0
    assert db2lin(10.0) == pytest.approx(10.0)
    assert db2lin(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)
    assert db2lin(-20.0) == pytest.approx(0.01)


def test_dbm2watt_frozen():
    assert dbm2watt(30.0) == pytest.approx(1.0)
    assert dbm2watt(43.0) == pytest.approx(19.952623149688797, rel=1e-12)
    assert dbm2watt(-165.0) == pytest.approx(3.1622776601683794e-20, rel=1e-12)


def test_wavelength_frozen():
    assert wavelength(28e9) == pytest.approx(0.010706873500000001, rel=1e-12)
    assert wavelength(SPEED_OF_LIGHT) == 1.0


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_db_roundtrip(x):
    assert lin2db(db2lin(x)) == pytest.approx(x, abs=1e-9)


@given(st.floats(min_value=-100.0, max_value=60.0))
def test_dbm_roundtrip(x):
    assert lin2db(dbm2watt(x)) + 30.0 == pytest.approx(x, abs=1e-9)
