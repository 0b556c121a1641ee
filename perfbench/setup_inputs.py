"""The set-up step of one benchmark run, in a process of its own so that it
does not raise the peak memory of the process that runs the timed commands.

    python3 perfbench/setup_inputs.py --workload verify --seed 0 --out DIR

Imports ``groupoids`` from the checkout's ``src``, generates the workload's
seeded documents into DIR and prints one JSON line: the time of import plus
generation plus writing, as wall time and at the reference speed of
``gauge.py``, and the sha256 of every file written.  Exits 1 when a
document no longer matches its pinned size or digest.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from gauge import SpeedGauge  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    gauge = SpeedGauge()
    gauge.start()
    try:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import inputs

        files = inputs.write_inputs(args.workload, args.seed, args.out)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 1
    except inputs.PinError as exc:
        print(f"input no longer matches its pin: {exc}", file=sys.stderr)
        return 1
    finally:
        wall = time.perf_counter() - START
        gauge.stop()
    wall -= gauge.total_s  # every sample ran after START
    print(json.dumps({"setup_s": gauge.at_reference_speed(wall), "wall_s": wall,
                      "files": files}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
