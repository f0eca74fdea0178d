"""Property-based tests (hypothesis) on core data structures and
invariants: address codecs, ECC, the map table, CRC, the simulation
kernel's ordering guarantees, and the error model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import BchConfig, BchEngine, count_bit_errors
from repro.flash.cell import CellMode
from repro.flash.errors import ErrorModel
from repro.flash.param_page import build_parameter_page, crc16_onfi, parse_parameter_page
from repro.ftl.mapping import MapEntry, PageMapTable
from repro.onfi.geometry import AddressCodec, Geometry, PhysicalAddress
from repro.sim import Simulator, Timeout
from repro.sim.sync import Queue

GEOMETRY = Geometry(
    page_size=2048, spare_size=64, pages_per_block=32,
    blocks_per_plane=64, planes=2, col_cycles=2, row_cycles=3,
)
CODEC = AddressCodec(GEOMETRY)

addresses = st.builds(
    PhysicalAddress,
    block=st.integers(0, GEOMETRY.blocks_per_lun - 1),
    page=st.integers(0, GEOMETRY.pages_per_block - 1),
    column=st.integers(0, GEOMETRY.full_page_size - 1),
)


# --- address codec ----------------------------------------------------------


@given(addresses)
def test_codec_roundtrip_is_identity(addr):
    assert CODEC.decode(CODEC.encode(addr)) == addr


@given(addresses)
def test_codec_cycle_count_fixed(addr):
    cycles = CODEC.encode(addr)
    assert len(cycles) == GEOMETRY.col_cycles + GEOMETRY.row_cycles
    assert all(0 <= byte <= 0xFF for byte in cycles)


@given(addresses, addresses)
def test_codec_injective(a, b):
    if a != b:
        assert CODEC.encode(a) != CODEC.encode(b)


@given(st.integers(0, GEOMETRY.pages_per_lun - 1))
def test_row_roundtrip(row):
    assert CODEC.decode_row(CODEC.encode_row(row)) == row


@given(addresses)
def test_plane_matches_block_parity(addr):
    assert CODEC.plane_of(addr) == addr.block % GEOMETRY.planes


# --- bit-error counting / behavioural BCH ------------------------------------


@given(st.binary(min_size=1, max_size=512), st.data())
def test_count_bit_errors_equals_flips(payload, data):
    original = np.frombuffer(payload, dtype=np.uint8).copy()
    nbits = len(original) * 8
    flips = data.draw(
        st.sets(st.integers(0, nbits - 1), min_size=0, max_size=min(nbits, 32))
    )
    corrupted = original.copy()
    for bit in flips:
        corrupted[bit // 8] ^= 1 << (bit % 8)
    assert count_bit_errors(corrupted, original) == len(flips)


@given(st.data())
def test_bch_verdict_matches_worst_codeword(data):
    engine = BchEngine(BchConfig(codeword_bytes=64, t=3))
    pristine = np.zeros(256, dtype=np.uint8)
    nbits = 256 * 8
    flips = data.draw(st.sets(st.integers(0, nbits - 1), max_size=20))
    received = pristine.copy()
    for bit in flips:
        received[bit // 8] ^= 1 << (bit % 8)
    per_codeword = [0, 0, 0, 0]
    for bit in flips:
        per_codeword[(bit // 8) // 64] += 1
    result = engine.decode(received, pristine)
    assert result.ok == all(count <= 3 for count in per_codeword)
    assert result.worst_codeword_errors == max(per_codeword)


# --- parameter-page CRC --------------------------------------------------------


@given(st.binary(max_size=64))
def test_crc16_detects_any_single_byte_change(payload):
    base = crc16_onfi(payload)
    for i in range(len(payload)):
        mutated = bytearray(payload)
        mutated[i] ^= 0x01
        assert crc16_onfi(bytes(mutated)) != base


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=12),
       st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=20))
def test_parameter_page_roundtrip_arbitrary_names(manufacturer, model):
    page = build_parameter_page(manufacturer, model, GEOMETRY, 2)
    fields = parse_parameter_page(page)
    assert fields["manufacturer"] == manufacturer.strip()
    assert fields["model"] == model.strip()
    assert fields["page_size"] == GEOMETRY.page_size


# --- map table invariants -------------------------------------------------------


entries = st.builds(
    MapEntry,
    lun=st.integers(0, 3),
    block=st.integers(0, 7),
    page=st.integers(0, 15),
)


@given(st.lists(st.tuples(st.integers(0, 63), entries), max_size=50))
def test_map_table_invariants_under_random_binds(operations):
    table = PageMapTable(64)
    occupied = set()
    for lpn, entry in operations:
        if entry in occupied and table.lookup(lpn) != entry:
            with pytest.raises(ValueError):
                table.bind(lpn, entry)
        else:
            old = table.bind(lpn, entry)
            if old is not None:
                occupied.discard(old)
            occupied.add(entry)
        table.check_invariants()
    assert table.mapped_count == len(occupied)


@given(st.lists(st.integers(0, 31), max_size=40), st.data())
def test_map_unbind_then_lookup_none(lpns, data):
    table = PageMapTable(32)
    for i, lpn in enumerate(lpns):
        table.bind(lpn, MapEntry(lun=0, block=i // 16, page=i % 16))
    for lpn in set(lpns):
        table.unbind(lpn)
        assert table.lookup(lpn) is None
        table.check_invariants()


# --- error model monotonicity ---------------------------------------------------


@given(st.integers(0, 5000), st.integers(0, 5000))
def test_rber_monotone_in_wear(a, b):
    model = ErrorModel()
    low, high = sorted((a, b))
    assert model.rber(CellMode.TLC, low) <= model.rber(CellMode.TLC, high)


@given(st.integers(0, 8), st.integers(0, 8))
def test_rber_monotone_in_retry_distance(a, b):
    model = ErrorModel()
    low, high = sorted((a, b))
    assert model.rber(CellMode.TLC, 100, read_offset_distance=low) <= model.rber(
        CellMode.TLC, 100, read_offset_distance=high
    )


@given(st.floats(0, 1e-2), st.integers(1, 4096))
def test_injection_rate_zero_to_modest_bounded(rate, nbytes):
    model = ErrorModel(seed=1)
    data = np.zeros(nbytes, dtype=np.uint8)
    flips = model.inject(data, rate)
    assert 0 <= flips <= nbytes * 8


# --- simulation kernel ordering ----------------------------------------------------


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
def test_kernel_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(d for _, d in fired) == sorted(delays)
    assert all(t == d for t, d in fired)


@given(st.lists(st.integers(1, 500), min_size=1, max_size=20))
def test_kernel_sequential_timeouts_accumulate(durations):
    sim = Simulator()

    def proc():
        for duration in durations:
            yield Timeout(duration)
        return sim.now

    assert sim.run_process(proc()) == sum(durations)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=30))
def test_queue_preserves_order_under_interleaving(items):
    sim = Simulator()
    queue = Queue(sim)
    received = []

    def producer():
        for item in items:
            queue.put(item)
            yield Timeout(1)

    def consumer():
        for _ in items:
            item = yield from queue.get()
            received.append(item)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == list(items)


# --- geometry capacity identity ---------------------------------------------------


@settings(max_examples=25)
@given(
    st.integers(1, 8).map(lambda x: 512 * x),
    st.integers(1, 64),
    st.integers(1, 128),
    st.integers(1, 2),
)
def test_geometry_capacity_identity(page_size, pages_per_block, blocks, planes):
    geometry = Geometry(
        page_size=page_size, spare_size=64,
        pages_per_block=pages_per_block, blocks_per_plane=blocks,
        planes=planes, col_cycles=2, row_cycles=3,
    )
    assert geometry.capacity_bytes == (
        page_size * pages_per_block * blocks * planes
    )
