"""Fixed pure-Python work that measures how fast this machine is right now.

The benchmark runs this as a child process before its first and after
every ``threeway run`` child, and scales each run's wall time by the
mean of the two calibrations around it (see ``run.py``).  On a shared
host the speed of a fresh interpreter drifts by tens of percent within
seconds and minutes; this child starts, allocates and computes like the
program does, so it drifts with it.
It does not import threeway, so changes to the program do not move it.
Do not change the work below: doing so rescales every ``run_s`` and
``setup_s`` the benchmark reports.
"""

from fractions import Fraction


def main() -> None:
    total = Fraction(0)
    table = {}
    lines = []
    for i in range(20000):
        x = Fraction(i % 97, 1 + i % 89)
        total += x * x
        key = f"{i * 0.37:.12g}"
        table[key] = (i, key.split("."))
        lines.append(",".join((key, f"o{i}", "POS")))
    sorted(table)


if __name__ == "__main__":
    main()
