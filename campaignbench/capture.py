"""Build a workload's scenario list exactly as ``repro campaign`` does.

:func:`capture_campaign` runs the real CLI entry point
(``repro.__main__.main``) on the workload's arguments and stops it at its
call to ``run_campaign``, keeping the scenario list and the keyword
arguments the CLI would have passed.  Argument parsing, suite builders and
CLI defaults therefore stay the program's own; the benchmark then replays
``run_campaign`` with those arguments as often as it likes.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def add_source_path() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is
    missing (the benchmark runs the program from source)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        raise SystemExit(f"campaignbench: no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class _Captured(Exception):
    """Raised in place of ``run_campaign`` to stop the CLI there."""

    def __init__(self, scenarios: List[Any], kwargs: Dict[str, Any]) -> None:
        super().__init__("campaign captured")
        self.scenarios = scenarios
        self.kwargs = kwargs


def capture_campaign(argv: Sequence[str]
                     ) -> Tuple[List[Any], Dict[str, Any]]:
    """``(scenarios, run_campaign kwargs)`` for ``repro campaign *argv``."""
    import repro.campaign
    from repro.__main__ import main

    def stop(scenarios, **kwargs):
        raise _Captured(list(scenarios), kwargs)

    real = repro.campaign.run_campaign
    repro.campaign.run_campaign = stop
    try:
        main(["campaign", *argv])
    except _Captured as captured:
        return captured.scenarios, captured.kwargs
    finally:
        repro.campaign.run_campaign = real
    raise RuntimeError(f"repro campaign {' '.join(argv)} never reached "
                       f"run_campaign")
