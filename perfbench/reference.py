"""A fixed pure-Python task that shares no code with ``wftc``.

The benchmark runs it as a child process between timed jobs, on the same
CPU, and divides each job's time by the mean of its times just before and
just after the job: the shared host this benchmark was tuned on ran
everything up to 40% slower for minutes at a time, and the quotient does
not move with it. The work is dict, set,
tuple and string handling, like the checker's.
"""

from __future__ import annotations


def task() -> int:
    table: dict[int, tuple] = {}
    for i in range(160000):
        key = (i * 7919) % 2039
        table[key] = table.get(key, ())[-3:] + (f"t{i}",)
    rows = sorted(table.items(), key=lambda item: (len(item[1]), item[1][-1]))
    seen = {value for _, values in rows for value in values}
    return len(seen) + len(";".join(values[-1] for _, values in rows))


if __name__ == "__main__":
    task()
