"""Fresh-interpreter set-up probe: import the program, load one workload's
inputs through it, and print the monotonic clock at the moment they are
loaded. The caller started the clock just before starting this interpreter.

    python3 perfbench/load.py <inputs.json>
"""

import json
import sys
import time

import loading


def main() -> None:
    pg = loading.import_program()
    with open(sys.argv[1]) as fh:
        inputs = json.load(fh)
    loaded = loading.load(pg, inputs)
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(f"{done!r} {len(loaded['graphs'])}")


if __name__ == "__main__":
    main()
