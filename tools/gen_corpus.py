"""Regenerate the bundled corpus inputs and their golden outputs.

Each golden is written by the command line itself, as
`toricbound COMMAND --corpus NAME [--OPTION VALUE ...] --output GOLDEN`, so it
goes through every option check; a nonzero exit stops the run.

Run from the repository root: python tools/gen_corpus.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from toricbound import cli  # noqa: E402

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "toricbound" / "corpus"

ORTHANT = {
    "rank": 2,
    "side": "N",
    "generators": [["0", "1"], ["1", "0"]],
}
ZERO_CONE = {"rank": 2, "side": "N", "generators": []}


def poly(terms):
    return {"terms": [{"exp": [str(a), str(b)], "coef": str(c)} for a, b, c in terms]}


MY1 = [
    [-1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, -3, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, -2],
]

MY = [
    [-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, -3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, -2, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, -2, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2],
]


def matrix_json(rows):
    return [[str(x) for x in row] for row in rows]


ENTRIES = [
    {
        "name": "strip",
        "command": "bounded",
        "input": {
            "sigma": ORTHANT,
            "set": {"type": "binomial", "gammas": [["1", "0"]], "constants": ["1"]},
        },
    },
    *[
        {
            "name": f"hyperbola-{k}",
            "command": "bounded",
            "input": {
                "sigma": ORTHANT,
                "set": {
                    "type": "binomial",
                    "gammas": [[str(k), "1"]],
                    "constants": ["1"],
                },
            },
        }
        for k in (1, 2, 3)
    ],
    {
        "name": "example3",
        "command": "tc-check",
        "input": {
            "sigma": ORTHANT,
            "set": {
                "type": "basic",
                "polys": [
                    poly([(2, 0, 1), (1, 1, -1), (0, 0, 1)]),
                    poly([(0, 2, 1), (1, 1, -1), (0, 0, 1)]),
                    poly([(1, 0, 1)]),
                    poly([(0, 1, 1)]),
                ],
            },
        },
    },
    {
        "name": "example4",
        "command": "tc-check",
        "input": {
            "sigma": ZERO_CONE,
            "set": {
                "type": "basic",
                "polys": [
                    poly([(1, 0, 1), (0, 0, -1)]),
                    poly([(0, 1, 1), (0, 0, -1)]),
                    poly([(1, 0, 1), (0, 1, -1), (0, 0, -1)]),
                    poly([(0, 0, 2), (1, 0, -1), (0, 1, 1)]),
                ],
            },
        },
    },
    {
        "name": "quadrant-basic",
        "command": "tc-check",
        "input": {
            "sigma": ORTHANT,
            "set": {"type": "basic", "polys": [poly([(1, 0, 1)]), poly([(0, 1, 1)])]},
        },
    },
    {
        "name": "wide-strip",
        "command": "tc-check",
        "input": {
            "sigma": ZERO_CONE,
            "set": {
                "type": "basic",
                "polys": [poly([(0, 1, 1), (0, 0, -1)]), poly([(0, 0, 3), (0, 1, -1)])],
            },
        },
    },
    {
        "name": "tentacle-diag",
        "command": "stability",
        "options": {"nmax": 5},
        "input": {
            "sigma": ORTHANT,
            "set": {"type": "tentacle", "v": ["-1", "-1"]},
        },
    },
    {
        "name": "P2-fan",
        "command": "surface-classify",
        "input": {
            "fan": {"rays": [["1", "0"], ["0", "1"], ["-1", "-1"]]},
            "T": [["-1", "-1"]],
        },
    },
    {
        "name": "hirzebruch-a",
        "command": "surface-classify",
        "input": {
            "fan": {"rays": [["1", "0"], ["0", "1"], ["-1", "2"], ["0", "-1"]]},
            "T": [["0", "1"]],
        },
    },
    {
        "name": "pentagon-cone",
        "command": "hilbert",
        "options": {"box": 6},
        "input": {
            "rank": 3,
            "side": "M",
            "generators": [
                [str(c) for c in ray]
                for ray in ((2, 0, 1), (0, 3, 1), (-1, 1, 1), (-1, -2, 1), (1, -2, 1))
            ],
        },
    },
    {
        "name": "mondal-netzer-MY1",
        "command": "inertia",
        "input": matrix_json(MY1),
    },
    {
        "name": "mondal-netzer-MY",
        "command": "inertia",
        "input": matrix_json(MY),
    },
]


def main():
    CORPUS.mkdir(exist_ok=True)
    for entry in ENTRIES:
        name = entry["name"]
        (CORPUS / f"{name}.json").write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        args = [entry["command"], "--corpus", name]
        for key, val in entry.get("options", {}).items():
            args += [f"--{key}", str(val)]
        code = cli.main(args + ["--output", str(CORPUS / f"{name}.golden.json")])
        if code != 0:
            raise SystemExit(f"{name}: {entry['command']} exited {code}")
        print(f"{name}: ok")


if __name__ == "__main__":
    main()
