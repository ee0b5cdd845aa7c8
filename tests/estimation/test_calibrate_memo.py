"""calibrate() memoization: one measurement run per profile content."""

import dataclasses
import importlib

import pytest

from repro.estimation import calibrate, calibrate_cache_clear
from repro.estimation.calibrate import _CALIBRATION_MEMO
from repro.target import K11, K32
from repro.target.profiles import ISAProfile

# ``repro.estimation.calibrate`` the *attribute* is the function (re-export
# shadows the submodule name); fetch the module itself for monkeypatching.
calibrate_module = importlib.import_module("repro.estimation.calibrate")


@pytest.fixture(autouse=True)
def fresh_memo():
    calibrate_cache_clear()
    yield
    calibrate_cache_clear()


def test_second_call_skips_measurement(monkeypatch):
    runs = []
    real = calibrate_module._calibrate_uncached
    monkeypatch.setattr(
        calibrate_module, "_calibrate_uncached",
        lambda profile: runs.append(profile.name) or real(profile),
    )
    first = calibrate(K11)
    second = calibrate(K11)
    assert runs == ["K11"]
    assert first == second


def test_memoized_result_is_a_private_copy():
    a = calibrate(K11)
    b = calibrate(K11)
    assert a is not b and a.timing is not b.timing
    # A caller mutating its copy must not poison later calls.
    a.timing.t_frame += 1000
    assert calibrate(K11).timing.t_frame == b.timing.t_frame
    a.size.s_frame += 1000
    a.system.pointer_size += 1000
    a.lib_time["ADD"] += 1000
    a.lib_size["ADD"] += 1000
    assert calibrate(K11) == b


def test_distinct_profiles_memoize_separately():
    calibrate(K11)
    calibrate(K32)
    assert len(_CALIBRATION_MEMO) == 2


def test_profile_content_not_identity_is_the_key():
    clone = dataclasses.replace(K11)
    calibrate(K11)
    calibrate(clone)
    assert len(_CALIBRATION_MEMO) == 1


def test_changed_tables_recalibrate():
    slower = dataclasses.replace(
        K11, cycles={**K11.cycles, "DETECT": K11.cycles["DETECT"] + 4}
    )
    assert isinstance(slower, ISAProfile)
    base = calibrate(K11)
    changed = calibrate(slower)
    assert len(_CALIBRATION_MEMO) == 2
    assert changed.timing.t_detect_true > base.timing.t_detect_true


def test_cache_clear_forces_rerun(monkeypatch):
    runs = []
    real = calibrate_module._calibrate_uncached
    monkeypatch.setattr(
        calibrate_module, "_calibrate_uncached",
        lambda profile: runs.append(profile.name) or real(profile),
    )
    calibrate(K11)
    calibrate_cache_clear()
    calibrate(K11)
    assert runs == ["K11", "K11"]
