"""NVMe host I/O: 4 KiB blocks against 16 KiB flash pages.

Drives the NVMe-style front end over the full stack and shows a cost
real SSDs pay that page-level APIs hide: a sub-page write forces a
read-modify-write (page read + page program), which is directly visible
in the measured command latencies.

Run: ``python examples/nvme_host.py``
"""

import numpy as np

from repro import BabolController, ControllerConfig, Simulator
from repro.flash import HYNIX_V7
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import ScaleEngine
from repro.host.nvme import NvmeCommand, NvmeController, NvmeOpcode

BLOCK = 4096


def run_command(sim, nvme, command):
    cid = nvme.submit(command)

    def waiter():
        entry = yield from nvme.wait_completion(cid)
        return entry

    start = sim.now
    entry = sim.run_process(waiter())
    return entry, (sim.now - start) / 1000.0


def main() -> None:
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=HYNIX_V7, lun_count=4, runtime="rtos",
                         track_data=True),
    )
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=48 * 1024 * 1024),
    )
    nvme = NvmeController(sim, ScaleEngine(sim, ftl, queue_depth=16),
                          block_size=BLOCK)

    info = nvme.identify()
    print(f"namespace: {info['model']}, {info['capacity_blocks']} x "
          f"{info['block_size']}B blocks "
          f"({info['blocks_per_page']} blocks per flash page)\n")

    # Full-page-aligned write: 4 blocks = one 16 KiB page, no RMW.
    payload = np.tile(np.arange(256, dtype=np.uint8), BLOCK * 4 // 256)
    controller.dram.write(0, payload)
    entry, us = run_command(sim, nvme, NvmeCommand(
        NvmeOpcode.WRITE, slba=0, block_count=4, prp=0))
    print(f"aligned 16K write : {us:8.1f} us  (RMW so far: {nvme.rmw_count})")

    # Sub-page write: one 4 KiB block → read-modify-write.
    patch = np.full(BLOCK, 0x77, dtype=np.uint8)
    controller.dram.write(200_000, patch)
    entry, us = run_command(sim, nvme, NvmeCommand(
        NvmeOpcode.WRITE, slba=1, block_count=1, prp=200_000))
    print(f"sub-page 4K write : {us:8.1f} us  (RMW so far: {nvme.rmw_count}) "
          f"<- page read + program")

    # Read it all back and verify the merge.
    entry, us = run_command(sim, nvme, NvmeCommand(
        NvmeOpcode.READ, slba=0, block_count=4, prp=400_000))
    merged = controller.dram.read(400_000, 4 * BLOCK)
    expected = payload.copy()
    expected[BLOCK:2 * BLOCK] = 0x77
    raw_errors = int((merged != expected).sum())
    # This path returns *raw* NAND data: byte errors from the
    # wear/retention model are expected — and note that the RMW above
    # *re-programmed* raw read errors into the page (a real hazard:
    # production controllers ECC-decode before merging; see
    # repro.core.reliability for the scrubbing pipeline).
    ok = raw_errors < 512
    print(f"16K read          : {us:8.1f} us  structure verified: {ok} "
          f"({raw_errors} raw byte errors awaiting ECC)")

    # Trim and confirm deallocated blocks read zero.
    run_command(sim, nvme, NvmeCommand(NvmeOpcode.DSM, slba=0, block_count=4))
    entry, us = run_command(sim, nvme, NvmeCommand(
        NvmeOpcode.READ, slba=0, block_count=1, prp=400_000))
    zeroed = bool((controller.dram.read(400_000, BLOCK) == 0).all())
    print(f"read after trim   : {us:8.1f} us  zero-filled: {zeroed}")


if __name__ == "__main__":
    main()
