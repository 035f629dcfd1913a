"""Command-line output pinned to the byte.

The commands are the README's command-line block and the five command
shapes of the benchmark's cli-reports workload (a table from gen-data,
then energy, residual, minimize and the two theorem suites on it).  They
run in order in an empty directory, so later commands read the tables
earlier ones wrote.  Each entry is the exit status, the sha256 of stdout
and the sha256 of every file the command wrote, captured before the
command line's input checks moved into one helper.  The two minimize
hashes were captured again when the report gained its `stop =` line,
the only line that changed.  The minimize, residual, theorem1 and
theorem3 hashes were captured again when Legendre synthesis became a
product with the grid's Vandermonde matrix, the energy gradient its
transpose, the family derivative of theorem3 the barycentric
differentiation matrix, and a line-search step that only ties the
energy at its rounding floor began to end the run.  Those reports moved
in their last digits; the README minimize run stops two iterations
earlier, at the same energy.
"""

import hashlib

from quasilocal.cli import main

PINNED = {
    "energy --schwarzschild m=1,r=4 --tau zero": (
        0, "fc7aac039d2c78e581bf485a25bae1e18eabca0d65af03fb2c53a87ae752183a",
        {},
    ),
    "energy --minkowski tau0=0.3*P1 --tau 0.3*P1": (
        0, "0625d6f6d442fb7e050f18c3c81160b2e5cb956cd4e8db396a0409cd2d9bb2a5",
        {},
    ),
    "minimize --schwarzschild m=1,r=4 --tau 0.05*P2": (
        0, "9e11ce36fc35236d99ae53d7b22e262c2bbf8a4b5a884f9346170116953ce36e",
        {},
    ),
    "verify --suite identities --metric unit-sphere --tau 0.3*P1": (
        0, "9d4a58d90709d23fcf48dc63d7df5702f02e7d55d5a613814e24cdb80d11c8cf",
        {},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4": (
        0, "ac4d40793fe7663c47b70ca7e0afe77857d4306631816b9d550c9ca091e36c19",
        {},
    ),
    "verify --suite theorem3 --schwarzschild m=1,r=4 --out report.txt": (
        0, "2dd59571f030a4b5768689ab8d15d4c55ffb82ec823a36352a1db4f4fdb02be9",
        {"report.txt": "704fb02963287526d3ffa0567d660eeb12b9f7cfaad87587b796fd9dbe4b475c"},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4 --tau 0.01*P1": (
        2, "c682a7515c39096c18beecb6aa073905910e4e1749be20a82e06d9841152279e",
        {},
    ),
    "gen-data --schwarzschild m=1,r=4 --out sphere.dat": (
        0, "33d89ece27a4bbd2d7053c8fac430724d6e996e8fde351d13f4f169a95418068",
        {"sphere.dat": "9bfdc4e63d081b08f004489f661602f9e3e08f8baad8db3b9dccfc6f06331b5d"},
    ),
    "residual --data sphere.dat --tau 0.1*P2 --columns residual.cols": (
        0, "39688a1552aa27aca0e8178ca108da83d62cad7cc7ef9ce86c89acdf9e2c7555",
        {"residual.cols": "2ae0060b458d7b2c78fcd3d94df7ca73e46a2665c78849778ec399127ac5a7c3"},
    ),
    "gen-data --schwarzschild m=0.8,r=3.5 --out table.dat": (
        0, "3c3d8157de3bcbc7adefac34f070d9e6f57d12a6f7fbb20c86e86c709a1e0819",
        {"table.dat": "f154fb4f7114b38ad9323b6be67df4a556eb78a320cf636bcfe0c10ebb2c4899"},
    ),
    "energy --data table.dat": (
        0, "85f4b2580659c4bebb2e5adc9de6e90fbd2fe0aaff85fe592914d9b4cef14a91",
        {},
    ),
    "residual --data table.dat": (
        0, "0a292dc4a0f4cf9d2a896c81e065b110c59318f21b9e404afcff444fc241c8a0",
        {},
    ),
    "minimize --data table.dat --tau=0.012*P1-0.03*P2+0.004*P3 --max-iterations 100": (
        0, "1da0f4f3d2bf180cbe12f64ab9463f542caa844eea8ba0fcbfb3f2e4837dfe1b",
        {},
    ),
    "verify --suite theorem1 --data table.dat": (
        0, "2d1edf4528e44fd0dbb62c69e7ef0e0f871d82c31417049c5c7593f8e96409fe",
        {},
    ),
    "verify --suite theorem3 --data table.dat": (
        0, "71210d1c1649f1d829801e3bb7ef8f89615bd1498d03be222476df233b226cd9",
        {},
    ),
}

COMMANDS = [
    # README
    "energy --schwarzschild m=1,r=4 --tau zero",
    "energy --minkowski tau0=0.3*P1 --tau 0.3*P1",
    "minimize --schwarzschild m=1,r=4 --tau 0.05*P2",
    "verify --suite identities --metric unit-sphere --tau 0.3*P1",
    "verify --suite theorem1 --schwarzschild m=1,r=4",
    "verify --suite theorem3 --schwarzschild m=1,r=4 --out report.txt",
    "verify --suite theorem1 --schwarzschild m=1,r=4 --tau 0.01*P1",
    "gen-data --schwarzschild m=1,r=4 --out sphere.dat",
    "residual --data sphere.dat --tau 0.1*P2 --columns residual.cols",
    # cli-reports
    "gen-data --schwarzschild m=0.8,r=3.5 --out table.dat",
    "energy --data table.dat",
    "residual --data table.dat",
    "minimize --data table.dat --tau=0.012*P1-0.03*P2+0.004*P3 --max-iterations 100",
    "verify --suite theorem1 --data table.dat",
    "verify --suite theorem3 --data table.dat",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_command_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    observed = {}
    for command in COMMANDS:
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        status = main(command.split())
        written = {
            p.name: sha256(p.read_bytes())
            for p in sorted(tmp_path.iterdir())
            if before.get(p.name) != p.read_bytes()
        }
        observed[command] = (status, sha256(capsys.readouterr().out.encode()), written)
    assert observed == PINNED
