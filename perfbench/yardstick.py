"""A fixed stdlib-only computation that measures the speed of the machine.

    python3 perfbench/yardstick.py

``run.py`` times this process between the jobs of a run and scales the
run's job times by it (see ``README.md``).  It does not import
``ribbonvol``, so it costs the same at every commit, and it exercises
what the package spends its time on: interpreter start-up, dicts keyed
by exponent tuples, and ``Fraction`` arithmetic on growing integers.
It prints one checksum line, ``CHECKSUM``, so that a broken interpreter
cannot pass for a fast one.  About 0.2 s on a 2.0 GHz 2-vCPU virtual
machine, half of it interpreter start-up.
"""

from fractions import Fraction

ROUNDS = 24
CHECKSUM = "yardstick b0dd"


def poly_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict = {}
    for (a1, b1), x in p.items():
        for (a2, b2), y in q.items():
            key = (a1 + a2, b1 + b2)
            if key[0] + key[1] <= cap:
                out[key] = out.get(key, 0) + x * y
    return out


def main() -> str:
    step = {(0, 0): Fraction(1), (1, 0): Fraction(1, 3), (0, 1): Fraction(-2, 7), (1, 1): Fraction(5, 11)}
    poly = {(0, 0): Fraction(1)}
    for _ in range(ROUNDS):
        poly = poly_mul(poly, step, 12)
    total = sum(poly.values())
    return f"yardstick {total.numerator % 65521:x}"


if __name__ == "__main__":
    print(main())
