"""Unit tests for the behavioural BCH engine and bit-error counting."""

import numpy as np
import pytest

from repro.ecc import BchConfig, BchEngine, count_bit_errors


def flip_bit(data: np.ndarray, bit: int) -> None:
    data[bit // 8] ^= 1 << (bit % 8)


# --- bit-error counting ----------------------------------------------------


def test_count_bit_errors_exact():
    a = np.zeros(16, dtype=np.uint8)
    b = a.copy()
    flip_bit(b, 5)
    flip_bit(b, 77)
    assert count_bit_errors(a, b) == 2
    assert count_bit_errors(a, a) == 0


def test_count_bit_errors_shape_mismatch():
    with pytest.raises(ValueError):
        count_bit_errors(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


# --- behavioural BCH ---------------------------------------------------------


def test_bch_corrects_within_t():
    engine = BchEngine(BchConfig(codeword_bytes=256, t=4))
    pristine = np.arange(1024, dtype=np.uint8)
    received = pristine.copy()
    for bit in (10, 2100, 4500, 8000):  # spread over codewords
        flip_bit(received, bit)
    result = engine.decode(received, pristine)
    assert result.ok
    np.testing.assert_array_equal(result.data, pristine)
    assert result.corrected_bits == 4


def test_bch_fails_beyond_t_in_one_codeword():
    engine = BchEngine(BchConfig(codeword_bytes=256, t=4))
    pristine = np.zeros(512, dtype=np.uint8)
    received = pristine.copy()
    for bit in range(5):  # 5 errors in codeword 0 with t=4
        flip_bit(received, bit * 8)
    result = engine.decode(received, pristine)
    assert not result.ok
    assert result.worst_codeword_errors == 5
    assert engine.pages_failed == 1


def test_bch_codeword_count_rounds_up():
    engine = BchEngine(BchConfig(codeword_bytes=1024, t=40))
    assert engine.codeword_count(16384) == 16
    assert engine.codeword_count(16385) == 17


def test_bch_parity_budget_positive():
    engine = BchEngine()
    assert engine.parity_bytes(16384) > 0


def test_bch_failure_probability_monotone_in_rber():
    engine = BchEngine(BchConfig(codeword_bytes=1024, t=40))
    low = engine.failure_probability_hint(1e-5)
    high = engine.failure_probability_hint(5e-3)
    assert 0.0 <= low <= high <= 1.0


def test_bch_config_validation():
    with pytest.raises(ValueError):
        BchConfig(codeword_bytes=0).validate()
