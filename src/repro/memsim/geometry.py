"""Shared line/bank address arithmetic for every memory hierarchy.

Every hierarchy variant needs the same three pieces of address math:
byte address → cache-line id, line id → home L2 bank (low-bit
interleave), and line id → bank-local key (the line with its bank bits
dropped). Before the engine refactor each replay loop carried its own
copy of these shifts and masks; they now live in one place, in both
scalar and numpy-vectorized form, so the pre-pass and the stateful
loop are guaranteed to agree.

The interleave is the paper's Table III banking: the shared L2 is
split into one bank per core and lines are distributed by their low
bits, so consecutive lines land on consecutive banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.intsort import fit_int32

__all__ = ["BankGeometry"]


@dataclass(frozen=True)
class BankGeometry:
    """Line and bank arithmetic for a banked, line-interleaved L2.

    Parameters
    ----------
    num_banks:
        Number of L2 banks (one per core). Must be a power of two so
        the interleave reduces to a mask.
    line_bytes:
        Cache-line size in bytes. Must be a power of two.
    """

    num_banks: int
    line_bytes: int

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.num_banks & (self.num_banks - 1):
            raise ConfigError(
                f"num_banks must be a positive power of two,"
                f" got {self.num_banks}"
            )
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(
                f"line_bytes must be a positive power of two,"
                f" got {self.line_bytes}"
            )

    @property
    def line_bits(self) -> int:
        """Number of byte-offset bits within a line."""
        return self.line_bytes.bit_length() - 1

    @property
    def bank_bits(self) -> int:
        """Number of line bits consumed by the bank interleave."""
        return max(self.num_banks.bit_length() - 1, 0)

    @property
    def bank_mask(self) -> int:
        """Mask selecting a line's bank bits."""
        return self.num_banks - 1

    # ------------------------------------------------------------------
    # Scalar forms (the stateful loop)
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Cache-line id of a byte address."""
        return addr >> self.line_bits

    def bank_of(self, line: int) -> int:
        """Home L2 bank of a line (low-bit interleave)."""
        return line & self.bank_mask

    def bank_key_of(self, line: int) -> int:
        """Bank-local line key (the line with its bank bits dropped)."""
        return line >> self.bank_bits

    def line_from_bank(self, bank_key: int, bank: int) -> int:
        """Inverse of (:meth:`bank_of`, :meth:`bank_key_of`)."""
        return (bank_key << self.bank_bits) | bank

    def addr_of_line(self, line: int) -> int:
        """First byte address of a line."""
        return line << self.line_bits

    def victim_addr(self, bank_key: int, bank: int) -> int:
        """Byte address of an evicted bank-local line (for DRAM
        write-back accounting)."""
        return self.addr_of_line(self.line_from_bank(bank_key, bank))

    # ------------------------------------------------------------------
    # Vectorized forms (the pre-pass)
    # ------------------------------------------------------------------
    def lines_of(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`line_of`, int32 whenever every line fits.

        Int64 when one does not (:func:`~repro.intsort.fit_int32`).
        """
        return fit_int32(np.asarray(addrs) >> self.line_bits)

    def banks_of(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bank_of`, in the lines' dtype."""
        return np.asarray(lines) & self.bank_mask

    def bank_keys_of(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bank_key_of`, in the lines' dtype."""
        return np.asarray(lines) >> self.bank_bits
