"""Seeded request sequences, one generator per workload.

A request is a JSON-ready dict with an ``id``, a ``kind`` and either an
``algebra`` (in-process library calls) or an ``argv`` (one `toda` command run
as a fresh subprocess). The seed picks the order and the sample from each
workload's fixed pool. The in-process pools are used whole, so the seed picks
only their order; the CLI pool is stratified into slots of near-equal cost.
Either way every seed asks for about the same work, which keeps run-to-run
spread low.
"""

from __future__ import annotations

import random

EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")

# exact_midrank: every algebra under both kinds, so the two requests of one
# algebra share its root system and (today) both compute its mass char-poly.
# Every rank from 6 to 14: request costs then rise in small steps, so the median
# latency does not sit between two far-apart cost clusters and jump between
# them with host noise; stopping at 14 keeps a pass short enough for several
# passes per run.
MIDRANK_RANKS = range(6, 15)
EXACT_KINDS = ("spectrum_both", "charpoly_b")

# float_highrank: each algebra exactly once. The kind of an algebra is fixed
# (a Latin square over family and rank), so each family gets every kind at low,
# middle and high ranks, and the latency tail does not depend on the seed.
# Every rank from 19 to 31 with these family offsets spaces the costs of the
# slowest requests (Perron at the top ranks) closely, so the p90 latency is
# set by several requests rather than by one isolated between wide gaps.
HIGHRANK_RANKS = range(19, 32)
FLOAT_KINDS = ("spectrum_massmatrix", "perron", "exponents")
FLOAT_OFFSETS = {"A": 0, "B": 0, "C": 1, "D": 0}

# cli_cold: slots of near-equal cost; the seed picks one algebra per slot and
# deals the cost-neutral --normalize/--format values so each appears.
# `verify e8-paper`, the slowest command, fills 4 of the 26 slots (15%), so the
# p90 latency lies inside its cluster rather than in the sparse upper end of
# the cheaper commands.
VERIFY_SLOTS = ("e8-paper", "e8-paper", "e8-paper", "e8-paper", "all-ade", "exponents")
SPECTRUM_SLOTS = (
    ("both", ("A9", "B9", "C9", "D9")),
    ("both", ("E7", "E8", "D8", "A8")),
    ("both", ("E6", "F4", "G2", "B5")),
    ("pf", ("A10", "B10", "C10", "D10")),
    ("pf", ("E6", "E7", "E8", "F4")),
    ("massmatrix", ("A10", "B10", "C10", "D10")),
    ("massmatrix", ("E6", "E7", "E8", "F4", "G2")),
    ("massmatrix", ("A7", "B7", "C7", "D7")),
)
INSPECT_SLOTS = (
    ("cartan", ("A10", "B10", "C10", "D10", "E8", "F4", "G2")),
    ("cartan", ("A6", "B6", "C6", "D6", "E6", "E7")),
    ("roots", ("A10", "B10", "C10", "D10")),
    ("roots", ("E6", "E7", "F4", "G2", "A5")),
    ("charpoly-a", ("A10", "B10", "C10", "D10", "E8")),
    ("charpoly-a", ("E6", "E7", "F4", "G2", "D5")),
    ("charpoly-b", ("A10", "B10", "C10", "D10")),
    ("charpoly-b", ("E6", "E7", "E8", "F4")),
    ("dynkin", ("A10", "B10", "C10", "D10", "E8")),
    ("dynkin", ("E6", "E7", "F4", "G2", "B3")),
    ("exponents", ("A10", "B10", "C10", "D10")),
    ("exponents", ("E6", "E7", "E8", "F4", "G2")),
)
NORMALIZE = ("max", "first", "unit", "absolute")
FORMATS = ("table", "json", "csv")


def _dealt(rng: random.Random, values: tuple[str, ...], count: int) -> list[str]:
    """``count`` values cycling through ``values`` in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def exact_midrank(rng: random.Random) -> list[dict]:
    algebras = [f"{f}{r}" for f in "ABCD" for r in MIDRANK_RANKS] + list(EXCEPTIONAL)
    return [{"kind": k, "algebra": a} for a in algebras for k in EXACT_KINDS]


def float_highrank(rng: random.Random) -> list[dict]:
    return [
        {"kind": FLOAT_KINDS[(i + offset) % 3], "algebra": f"{family}{r}"}
        for family, offset in FLOAT_OFFSETS.items()
        for i, r in enumerate(HIGHRANK_RANKS)
    ]


def cli_cold(rng: random.Random) -> list[dict]:
    argvs = []
    for scope, fmt in zip(VERIFY_SLOTS, _dealt(rng, ("table", "json"), len(VERIFY_SLOTS))):
        argvs.append(["verify", scope, "--format", fmt])
    norms = _dealt(rng, NORMALIZE, len(SPECTRUM_SLOTS))
    fmts = _dealt(rng, FORMATS, len(SPECTRUM_SLOTS))
    for (method, choices), norm, fmt in zip(SPECTRUM_SLOTS, norms, fmts):
        argvs.append(
            ["spectrum", rng.choice(choices), "--method", method, "--normalize", norm, "--format", fmt]
        )
    for what, choices in INSPECT_SLOTS:
        argvs.append(["inspect", rng.choice(choices), what, "--format", "json"])
    return [{"kind": "cli", "argv": argv} for argv in argvs]


GENERATORS = {
    "exact_midrank": exact_midrank,
    "float_highrank": float_highrank,
    "cli_cold": cli_cold,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The request sequence of one pass: same workload and seed, same requests."""
    rng = random.Random(f"{workload}:{seed}")
    requests = GENERATORS[workload](rng)
    rng.shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


def subject(request: dict) -> str:
    """The algebra (or verify suite) a request is about, for per-algebra views."""
    if "algebra" in request:
        return request["algebra"]
    argv = request["argv"]
    return f"verify:{argv[1]}" if argv[0] == "verify" else argv[1]
