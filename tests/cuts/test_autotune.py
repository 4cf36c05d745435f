"""The batch contract: pin-sweep chunk sizing and grid bit-identity.

The block grid may never change *what* the sweep computes — the profile
fold is an elementwise minimum and the witness rule picks the globally
lowest achieving mask — so the default block grid and any fixed grid
must be bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.cuts import cut_profile
from repro.cuts.autotune import BATCH_CONTRACT_VERSION, pin_chunk_count


class TestPinChunks:
    def test_no_pins_no_chunks(self):
        assert pin_chunk_count(0, workers=4, states_per_pin=100) == 0

    def test_never_more_chunks_than_pins(self):
        assert pin_chunk_count(4, workers=8, states_per_pin=100) == 4

    def test_steal_granularity_floor(self):
        assert pin_chunk_count(1000, workers=2, states_per_pin=1) == 8
        assert pin_chunk_count(1000, workers=8, states_per_pin=1) == 32

    def test_heavy_states_split_finer(self):
        # One pin exhausts the ops budget, so every pin is its own chunk.
        assert pin_chunk_count(100, workers=2, states_per_pin=1 << 24) == 100


class TestBitIdentity:
    def test_default_block_matches_fixed_grid(self, w4):
        fixed = cut_profile(w4, batch_bits=4)  # below the low split
        default = cut_profile(w4)  # batch_bits=None -> the block constant
        np.testing.assert_array_equal(default.values, fixed.values)
        np.testing.assert_array_equal(default.witnesses, fixed.witnesses)

    def test_any_two_grids_agree(self, b4):
        a = cut_profile(b4, batch_bits=3)
        b = cut_profile(b4, batch_bits=11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.witnesses, b.witnesses)

    def test_contract_version_is_current(self):
        assert BATCH_CONTRACT_VERSION == 2
