"""Set-up probe: one fresh interpreter from launch to a built scenario list.

Run by ``run.py`` as a child process::

    python3 campaignbench/setup_probe.py <repro campaign arguments>

It imports ``repro.__main__`` and ``repro.campaign``, builds the scenario
list through the CLI (see ``capture.py``) and prints one JSON line with
its own import and build times and the scenario count.  The parent times
the whole launch-to-line interval.  Calibration slices (``hostspeed.py``)
bracket the measured work: some run before the imports (their time is
reported so the parent can take it out) and as many after the build, on a
second line.
"""

from __future__ import annotations

import json
import sys
import time

#: Calibration slices run before the imports and again after the build.
SLICES = 8


def main(argv) -> int:
    from hostspeed import slice_s

    calibrating = time.perf_counter()
    before = [slice_s() for _ in range(SLICES)]
    started = time.perf_counter()
    from capture import add_source_path, capture_campaign

    add_source_path()
    import repro.__main__  # noqa: F401
    import repro.campaign  # noqa: F401

    imported = time.perf_counter()
    scenarios, _ = capture_campaign(argv)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "build_s": built - imported,
                      "scenarios": len(scenarios),
                      "slices": before,
                      "calibration_s": started - calibrating}), flush=True)
    print(json.dumps([slice_s() for _ in range(SLICES)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
