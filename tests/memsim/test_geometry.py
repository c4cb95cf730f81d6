"""Unit tests for the shared bank/line address-math helper."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memsim.geometry import BankGeometry


class TestValidation:
    def test_requires_power_of_two_banks(self):
        with pytest.raises(ConfigError):
            BankGeometry(num_banks=12, line_bytes=64)

    def test_requires_power_of_two_line(self):
        with pytest.raises(ConfigError):
            BankGeometry(num_banks=16, line_bytes=48)

    def test_requires_positive(self):
        with pytest.raises(ConfigError):
            BankGeometry(num_banks=0, line_bytes=64)
        with pytest.raises(ConfigError):
            BankGeometry(num_banks=16, line_bytes=0)


class TestScalarMath:
    def test_line_and_bank_bits(self):
        geo = BankGeometry(num_banks=16, line_bytes=64)
        assert geo.line_bits == 6
        assert geo.bank_bits == 4
        assert geo.bank_mask == 15

    def test_line_of_strips_offset(self):
        geo = BankGeometry(num_banks=16, line_bytes=64)
        assert geo.line_of(0) == 0
        assert geo.line_of(63) == 0
        assert geo.line_of(64) == 1
        assert geo.line_of(0x1000) == 0x1000 // 64

    def test_bank_interleaves_consecutive_lines(self):
        geo = BankGeometry(num_banks=4, line_bytes=64)
        banks = [geo.bank_of(line) for line in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_bank_key_round_trips(self):
        geo = BankGeometry(num_banks=8, line_bytes=32)
        for line in (0, 1, 7, 8, 1000, 12345):
            bank = geo.bank_of(line)
            key = geo.bank_key_of(line)
            assert geo.line_from_bank(key, bank) == line

    def test_addr_of_line_round_trips(self):
        geo = BankGeometry(num_banks=16, line_bytes=64)
        for addr in (0, 64, 4096, 0x1234_5678):
            line = geo.line_of(addr)
            assert geo.line_of(geo.addr_of_line(line)) == line

    def test_victim_addr_matches_key_and_bank(self):
        geo = BankGeometry(num_banks=16, line_bytes=64)
        line = geo.line_of(0xABCD00)
        bank = geo.bank_of(line)
        key = geo.bank_key_of(line)
        addr = geo.victim_addr(key, bank)
        assert geo.line_of(addr) == line

    def test_single_bank_degenerates(self):
        geo = BankGeometry(num_banks=1, line_bytes=64)
        assert geo.bank_bits == 0
        assert geo.bank_of(123) == 0
        assert geo.bank_key_of(123) == 123


class TestVectorizedMath:
    def test_vector_forms_match_scalar(self):
        geo = BankGeometry(num_banks=16, line_bytes=64)
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 40, size=1000, dtype=np.int64)
        lines = geo.lines_of(addrs)
        banks = geo.banks_of(lines)
        keys = geo.bank_keys_of(lines)
        for i, addr in enumerate(addrs.tolist()):
            line = geo.line_of(addr)
            assert lines[i] == line
            assert banks[i] == geo.bank_of(line)
            assert keys[i] == geo.bank_key_of(line)

    def test_vector_dtype_fits_the_range(self):
        """Lines are int32 whenever they fit and int64 when one does
        not; banks and bank keys keep the lines' dtype."""
        geo = BankGeometry(num_banks=4, line_bytes=64)
        lines = geo.lines_of(np.array([0, 64, 128]))
        assert lines.dtype == np.int32
        assert geo.banks_of(lines).dtype == np.int32
        assert geo.bank_keys_of(lines).dtype == np.int32
        top = np.iinfo(np.int32).max
        wide = geo.lines_of(np.array([0, top << 6, (top + 1) << 6]))
        assert wide.dtype == np.int64
        assert wide.tolist() == [0, top, top + 1]
        assert geo.bank_keys_of(wide).tolist() == [0, top >> 2,
                                                   (top + 1) >> 2]
