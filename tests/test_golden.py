"""Golden outputs: SHA-256 digests of small CLI runs.

The CLI files are the behavioural contract, so a refactor must leave every
byte of them unchanged.  Each run below takes under a second.  The
digests pin the 12-significant-digit text written with the numpy and libm of
the reference container; a digest that changes is a changed output file, to be
diffed cell by cell against the previous release before anything else.
"""

import hashlib

import pytest

from qrgflow.cli import main

RUNS = {
    "sweep-xxz": (
        ["sweep", "--model", "xxz", "--points", "60", "--iterations", "0..6"],
        {
            "sweep_xxz.csv": "f13051574c3c20627ae487b7bf99e554f554aca2ff275f01af2f481b1deb9a2e",
            "sweep_xxz.gp": "24df0592380bc7cbde41bfc1ac6a930eaf8bb9aec7e684d1ecf832125d07ea46",
        },
    ),
    "sweep-xy": (
        ["sweep", "--model", "xy", "--points", "60", "--iterations", "0..6"],
        {
            "sweep_xy.csv": "b909bef9c7df8735675478a0b0047f6a76cff3d2e0f2b738a62cbf9f16c73957",
            "sweep_xy.gp": "0075ef711df3576cbe1e7593d8bf61fe352ea7ca680ccfda5804900a68f88fc7",
        },
    ),
    "flow-xxz": (
        ["flow", "--model", "xxz", "--start", "0.5"],
        {
            "flow_xxz.csv": "471f2abd278eef0de49f779c4fba07b88e47aa7c9be2f1b679c65f681479bb0c",
            "flow_xxz.gp": "c3d9644acd04aff867d1ab25eb164793db9b05410e5fa03b3ebeb3df2d07bb5d",
        },
    ),
    "flow-xxz-divergent": (
        ["flow", "--model", "xxz", "--start", "1.5", "--steps", "12", "--no-plot"],
        {"flow_xxz.csv": "872cd0fe42dc887ffef1d0e7e8504ba53e19ae3714c0decc9dbc44d447679486"},
    ),
    "flow-xy": (
        ["flow", "--model", "xy", "--start", "0.3"],
        {
            "flow_xy.csv": "a25283a383e4620af16e317e32536aeec2dd66c0753de64234705ed499789348",
            "flow_xy.gp": "7e3cfff3a467dedc4d25451480027e9f5d92d5d27ee25c770ee0c161d42523f5",
        },
    ),
    "flow-xy-negative": (
        ["flow", "--model", "xy", "--start", "-0.7", "--steps", "12", "--no-plot"],
        {"flow_xy.csv": "6410b3593b75b29ce09800633239578e6fd1361410c7c60657371d01bc30a8e9"},
    ),
    "scaling-xy": (
        ["scaling", "--model", "xy", "--points", "201", "--iterations", "2..5"],
        {
            "scaling_xy_chsh_max.csv": "4a4ea65019e9b91b911715d6ffa7d32f8f0f6864544aca8cf9b97b34f496e9a2",
            "scaling_xy_chsh_max_fits.txt": "9d0ef26e915d7ac52e0151a971dae8ed1e9568d74be1bf18f82046076973c28f",
            "scaling_xy_chsh_max.gp": "69137805b54748ac2d5c48b8e7479cc646fe036be88577485aafd595e1a13e51",
        },
    ),
    "scaling-xxz": (
        ["scaling", "--model", "xxz", "--points", "201", "--iterations", "2..5"],
        {
            "scaling_xxz_chsh_max.csv": "437c4d3599e5e80c485e485b11f965dfcfbb26f4e398d33cb7f164dfc28763f3",
            "scaling_xxz_chsh_max_fits.txt": "74e00e1466f6c50ba8bd00637f9f34b57cf28d96eaabddad88eb442daca45f31",
            "scaling_xxz_chsh_max.gp": "9e3fb953c2ff516465d8f4044708a55c9defb88af648b625d1ae7fbc212e3079",
        },
    ),
    # The benchmark's own ops at their CLI defaults: 500 x 7 sweeps, 2 001-point scaling.
    "sweep-xxz-default": (
        ["sweep", "--model", "xxz"],
        {
            "sweep_xxz.csv": "ec8968f9bdcfa4d2cebab2593c8147a655e8988c281fb6f223f4d6a0ae972b5b",
            "sweep_xxz.gp": "24df0592380bc7cbde41bfc1ac6a930eaf8bb9aec7e684d1ecf832125d07ea46",
        },
    ),
    "sweep-xy-default": (
        ["sweep", "--model", "xy"],
        {
            "sweep_xy.csv": "216bd388e42d049411e8c9a1be68b0ca76240fa9ee88c6ba448e160651f11d30",
            "sweep_xy.gp": "0075ef711df3576cbe1e7593d8bf61fe352ea7ca680ccfda5804900a68f88fc7",
        },
    ),
    "scaling-xxz-default": (
        ["scaling", "--model", "xxz"],
        {
            "scaling_xxz_chsh_max.csv": "944d5cd71f4f16fc1fb5273a137457e3a1af26ee026c773764adae23d75b28df",
            "scaling_xxz_chsh_max_fits.txt": "aea3833d012ed804963786a5af08d56feed8231b6b2db9738376037255eda2bc",
            "scaling_xxz_chsh_max.gp": "9e3fb953c2ff516465d8f4044708a55c9defb88af648b625d1ae7fbc212e3079",
        },
    ),
    "scaling-xy-default": (
        ["scaling", "--model", "xy"],
        {
            "scaling_xy_chsh_max.csv": "05c315155cf5d03c00b003872aeec55a82ba1294cacaa6bb9d467d6550f3da27",
            "scaling_xy_chsh_max_fits.txt": "fe2620c26b3c8f7c60329b4dc357cb2b5a762e3204a6d0f81370b69fdf9c54f9",
            "scaling_xy_chsh_max.gp": "69137805b54748ac2d5c48b8e7479cc646fe036be88577485aafd595e1a13e51",
        },
    ),
    # 217 rows reaching e+308 axis cells, with flows that overflow to delta = inf by depth 30.
    "sweep-xxz-huge-axis": (
        ["sweep", "--model", "xxz", "--range", "0:1e308", "--points", "7", "--iterations", "0..30"],
        {
            "sweep_xxz.csv": "3898575244ecd11d14d3e413cf30a95e413a5d17205fbd0c5f3c1160a06c4445",
            "sweep_xxz.gp": "5d3810af24622384019aef6a97b20c25f62f97f67767fd0b31350debaf5457e2",
        },
    ),
    # A bond strength other than 1 flows beside the coupling, to depth 30 on the XXZ side.
    "flow-xy-j": (
        ["flow", "--model", "xy", "--start", "0.3", "--j", "0.7"],
        {
            "flow_xy.csv": "fc3d29cb5d8cbbe13340f2c18d374a1539ae199a3f0c2950b3e61f4e6a9f7563",
            "flow_xy.gp": "7e3cfff3a467dedc4d25451480027e9f5d92d5d27ee25c770ee0c161d42523f5",
        },
    ),
    "flow-xxz-j-deep": (
        ["flow", "--model", "xxz", "--start", "0.8", "--j", "2.5", "--steps", "30"],
        {
            "flow_xxz.csv": "0c4da060de381b54b20f0f38e9c8f7e7d9c5faa43b00f584bb21698e1118056d",
            "flow_xxz.gp": "c3d9644acd04aff867d1ab25eb164793db9b05410e5fa03b3ebeb3df2d07bb5d",
        },
    ),
}

FIXED_POINTS_STDOUT = "403e84225ed875e09c24a6358c2c1165c98957827370251e032bbd2ebe9419b5"

# verify stdout at the oracle-battery sizes: 1/25 of every default count.
VERIFY_ARGS = [
    "verify", "--oracle-states", "20", "--random-states", "400", "--jacobi-matrices", "40",
    "--params-per-model", "2", "--sweep-points", "20",
]
VERIFY_STDOUT = {
    1: "49943219b070f523f55131a148fe0fa9341dd06bf567d3e947fc8826702e5a47",
    77: "2ea00ccbe0d92bce034af5356ff5e7233f0a5fab7a6a16a5d85503d71f86c398",
    123456: "2463dbb297ceefcc98cd4ac83f52ec01472e3f8222032b6da3ec1b1505a13db6",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", sorted(RUNS))
def test_cli_files_match_golden_digests(label, tmp_path, capsys):
    argv, expected = RUNS[label]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: _digest(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == expected


def test_fixed_points_stdout_matches_golden_digest(capsys):
    assert main(["fixed-points"]) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == FIXED_POINTS_STDOUT


@pytest.mark.parametrize("seed", sorted(VERIFY_STDOUT))
def test_verify_stdout_matches_golden_digest(seed, capsys):
    assert main(VERIFY_ARGS + ["--seed", str(seed)]) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == VERIFY_STDOUT[seed]
