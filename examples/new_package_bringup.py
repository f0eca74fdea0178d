"""Bringing up a new package (Section IV-C).

Every package needs boot, identification, configuration, and per-trace
phase calibration before it is usable at speed — and some of it on
every single boot.  This example builds a channel whose PHY has hidden
per-position phase skews, demonstrates that fast-mode reads are garbage
before calibration, then runs BABOL's software bring-up sequence and
shows the channel come up clean.

Part quirks are handled the same software-defined way: the profile can
override whole operations (``VendorProfile.with_op_override``), so a
part that e.g. demands SYNCHRONOUS RESET at speed reroutes the stock
``reset`` to a different op program — a table change, not a library
edit.  The last section demonstrates that at the pins.

Run: ``python examples/new_package_bringup.py``
"""

from repro import BabolController, ControllerConfig, Simulator
from repro.bus import ChannelPhy
from repro.calibration import boot_channel
from repro.flash import TOSHIBA_BICS5
from repro.flash.param_page import parse_parameter_page
from repro.onfi import NVDDR2_200, SDR_MODE0

LUNS = 4


def main() -> None:
    sim = Simulator()
    phy = ChannelPhy(LUNS, seed=23, max_offset_steps=5, eye_half_width=2)
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TOSHIBA_BICS5, lun_count=LUNS,
                         interface=SDR_MODE0,  # packages boot in SDR
                         runtime="rtos", track_data=False),
        phy=phy,
    )
    print("hidden per-position phase skews (what the traces did to us):")
    print(f"  {phy.offsets}\n")

    # Demonstrate the failure mode: jump to NV-DDR2 without calibrating.
    controller.channel.set_interface(NVDDR2_200)
    controller.ufsm.retarget(NVDDR2_200)
    bad = 0
    for lun in range(LUNS):
        raw = controller.run_to_completion(controller.read_parameter_page(lun))
        try:
            parse_parameter_page(raw)
        except ValueError:
            bad += 1
    print(f"uncalibrated NV-DDR2-200: {bad}/{LUNS} parameter-page reads garbled\n")

    # Back to the boot interface; run the real bring-up.
    controller.channel.set_interface(SDR_MODE0)
    controller.ufsm.retarget(SDR_MODE0)
    report = sim.run_process(boot_channel(controller, NVDDR2_200))

    print("boot sequence:")
    print(f"  ONFI signatures confirmed : {report.onfi_confirmed}")
    fields = report.parameter_pages[0]
    print(f"  identified               : {fields['manufacturer']} "
          f"{fields['model']}, {fields['page_size']}B pages, "
          f"{fields['planes']} planes")
    print(f"  timing mode programmed   : {report.timing_mode} "
          f"({report.interface_name})")
    print("  phase calibration:")
    for result in report.calibration:
        print(f"    position {result.position}: trim {result.chosen_trim:+d}, "
              f"eye width {result.eye_width} steps, "
              f"residual skew {phy.residual_skew(result.position)}")
    print(f"  healthy: {report.all_healthy}\n")

    # Prove the channel is now clean at speed.
    ok = 0
    for lun in range(LUNS):
        raw = controller.run_to_completion(controller.read_parameter_page(lun))
        parse_parameter_page(raw)  # raises if still garbled
        ok += 1
    print(f"calibrated NV-DDR2-200: {ok}/{LUNS} parameter-page reads clean")
    print(f"bring-up took {sim.now / 1e6:.2f} ms of device time\n")

    # A package quirk as a profile entry: suppose this part requires
    # SYNCHRONOUS RESET (0xFC) once running NV-DDR2.  Overriding the op
    # program on the vendor profile reroutes the stock reset everywhere
    # — observed here with the logic analyzer.
    from repro.analysis import LogicAnalyzer
    from repro.core.opir.programs import reset_program
    from repro.onfi.commands import CMD
    from repro.onfi.protocol import opcode_name

    quirky = TOSHIBA_BICS5.with_op_override(
        "reset", lambda synchronous=False: reset_program(synchronous=True)
    )
    controller = BabolController(
        Simulator(),
        ControllerConfig(vendor=quirky, lun_count=1, runtime="rtos",
                         track_data=False),
    )
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.reset(0))
    issued = [opcode_name(e.opcode) for e in analyzer.events
              if e.kind == "cmd" and e.opcode in
              (CMD.RESET, CMD.SYNCHRONOUS_RESET)]
    print(f"op override: stock reset on the quirky part issues {issued[0]} "
          f"(library untouched)")


if __name__ == "__main__":
    main()
