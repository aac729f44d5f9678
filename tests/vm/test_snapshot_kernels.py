"""Property tests for the memory kernels of vm/snapshot.py.

``capture_memory`` finds each region's non-zero span with a chunked scan
against a shared zero buffer, and ``restore_memory``/``expand_image``
zero-fill from that buffer.  These tests pin the kernels to the plain
whole-region formulation (copy the region, ``rstrip``/``lstrip`` the
zeros) on random contents, with writes aimed at the places a chunked
scan can get wrong: the region ends, chunk boundaries, and regions that
are all zero, not a whole number of chunks, or larger than the buffer.
"""

from hypothesis import given, strategies as st

from repro.vm.memory import HEAP_SIZE, Memory
from repro.vm.snapshot import (
    SCAN_CHUNK, ZERO_BUFFER_BYTES, RegionImage, capture_memory, expand_image,
    restore_memory,
)

#: Region sizes: tiny, one chunk either side, not a multiple of the chunk
#: (70000), the heap, and larger than the shared zero buffer.
SIZES = (1, 7, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 70000,
         HEAP_SIZE, ZERO_BUFFER_BYTES + 70000)

#: Address gap between consecutive regions (regions must not overlap).
GAP = 0x1000


def reference_capture(memory):
    """The whole-region formulation the chunked scan must reproduce."""
    images = []
    for region in memory.regions():
        data = bytes(region.data)
        end = len(data.rstrip(b"\x00"))
        if end == 0:
            images.append(RegionImage(region.name, region.base, region.size,
                                      0, b""))
            continue
        start = len(data) - len(data.lstrip(b"\x00"))
        images.append(RegionImage(region.name, region.base, region.size,
                                  start, data[start:end]))
    return tuple(images)


@st.composite
def offsets(draw, size):
    """An offset in ``[0, size)``, biased to the ends and to chunk
    boundaries ± 1."""
    boundary = draw(st.integers(0, size // SCAN_CHUNK)) * SCAN_CHUNK
    special = [o for o in (0, size - 1, boundary - 1, boundary, boundary + 1)
               if 0 <= o < size]
    return draw(st.one_of(st.sampled_from(special),
                          st.integers(0, size - 1)))


@st.composite
def memories(draw):
    """A Memory with 1-3 regions, each all zero or holding a few random
    writes."""
    memory = Memory()
    base = GAP
    for i in range(draw(st.integers(1, 3))):
        size = draw(st.sampled_from(SIZES) | st.integers(1, 3 * SCAN_CHUNK))
        region = memory.map_region(f"r{i}", base, size)
        for _ in range(draw(st.integers(0, 4))):
            offset = draw(offsets(size))
            payload = draw(st.binary(min_size=1, max_size=48))
            payload = payload[:size - offset]
            region.data[offset:offset + len(payload)] = payload
        base += size + GAP
    return memory


@given(memories())
def test_capture_matches_whole_region_strip(memory):
    assert capture_memory(memory) == reference_capture(memory)


@given(memories())
def test_restore_reproduces_every_byte(memory):
    before = [bytes(region.data) for region in memory.regions()]
    images = capture_memory(memory)
    for region in memory.regions():
        region.data[:] = b"\xa5" * region.size
    restore_memory(memory, images)
    assert [bytes(region.data) for region in memory.regions()] == before


@given(memories())
def test_expand_image_zero_fills_around_the_payload(memory):
    for image in capture_memory(memory):
        tail = image.size - image.start - len(image.payload)
        assert expand_image(image) == \
            bytes(image.start) + image.payload + bytes(tail)


def test_all_zero_and_oversized_regions():
    """Fixed corner cases: an all-zero region captures as an empty
    payload, and a region larger than the zero buffer round-trips with
    its only byte in the last position."""
    memory = Memory()
    memory.map_region("zero", GAP, 70000)
    big = memory.map_region("big", 0x100000, ZERO_BUFFER_BYTES + 70000)
    big.data[-1] = 1
    zero_image, big_image = capture_memory(memory)
    assert (zero_image.start, zero_image.payload) == (0, b"")
    assert (big_image.start, big_image.payload) == (big.size - 1, b"\x01")
    big.data[0] = 2
    restore_memory(memory, (zero_image, big_image))
    assert big.data == bytes(big.size - 1) + b"\x01"
    assert expand_image(big_image) == bytes(big.data)
