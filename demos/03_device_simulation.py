#!/usr/bin/env python3
"""Driving the simulated device by hand through a desk-pack scenario.

Launch, tap, type, save, observe: every action returns its effect, wrong
taps are absorbed as no-ops, and the app store installs new apps into the
running device.

    python3 demos/03_device_simulation.py
"""

from pathlib import Path

from pocketrag import Action, Device, Scenario

PACK = Path(__file__).resolve().parents[1] / "packs" / "desk"


def run(device, action):
    step = device.execute(action)
    flags = dict(step.flag_changes)
    extra = f"  flags {flags}" if flags else ""
    print(f"  {action.describe():<28s} -> {step.effect:<12s} "
          f"[{step.pre_screen_id} -> {step.post_screen_id}]{extra}")
    return step


def main():
    scenario = Scenario.from_file(PACK / "scenarios" / "alarm_basic.json")
    device = Device(scenario)

    state = device.observe()
    print(f"home screen shows {len(state.elements)} app icons:")
    for element in state.elements:
        print(f"  {element.element_id} ({element.text})")

    print("\nsetting an alarm for 08:00:")
    run(device, Action.launch("com.deskos.clock"))
    run(device, Action.tap("alarms_tab"))
    run(device, Action.tap("add_alarm"))
    run(device, Action.type_text("time_field", "08:00"))
    run(device, Action.tap("save_alarm"))

    print("\na mistap is absorbed, not fatal:")
    run(device, Action.tap("no_such_button"))

    print("\nback pops the screen stack:")
    run(device, Action.back())
    run(device, Action.back())
    run(device, Action.back())

    print("\ninstalling from the store while the device runs:")
    seed = device.install_from_store("com.fitpulse.health")
    print(f"  installed {seed.app_name}; home now shows "
          f"{len(device.observe().elements)} icons")
    run(device, Action.launch("com.fitpulse.health"))

    print(f"\nfinal flags: {device.observe().state_flags}")
    print(f"mobile steps taken: {len(device.history)}")


if __name__ == "__main__":
    main()
