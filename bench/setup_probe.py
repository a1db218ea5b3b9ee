"""Set-up probe: a fresh interpreter imports coefflab from ./src, builds the
CLI parser and runs the warm-up commands, then prints ``ready <cli path>``.
run.py times it from process start to that line."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coefflab import cli  # noqa: E402

from workloads import warm_up  # noqa: E402

if __name__ == "__main__":
    cli.build_parser().parse_args(["report", "--all"])
    warm_up()
    print("ready", cli.__file__, flush=True)
