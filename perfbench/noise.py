"""Time a fixed pure-Python loop: the machine's own run-to-run noise.

    python3 perfbench/noise.py

prints the median of seven timings of the same loop.  Started a few times,
minutes apart, it shows how far the sandbox alone moves a CPU-bound median.
"""

import statistics
import time


def loop() -> int:
    acc = 0
    for i in range(3_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def main() -> None:
    times = []
    for _ in range(7):
        t = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t)
    print(f"{statistics.median(times):.4f} s median of {len(times)}; "
          f"min {min(times):.4f} max {max(times):.4f}")


if __name__ == "__main__":
    main()
