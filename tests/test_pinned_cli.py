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
earlier, at the same energy.  The two minimize hashes were captured
again when the finite-difference calibration became one stacked
evaluation (only their calibration_rel_error line moved), and the
theorem1 and theorem3 hashes when the suites evaluated each sample
family as one stack, scaled the allowances of length-valued margins by
the sphere's radius and gained a worst-sample detail; no exit status
moved, and energy and residual stayed byte for byte.  The two minimize
hashes were captured again when the minimizer took Newton steps and the
report gained its `hessian_min_eigenvalue =` line; both runs now stop on
the gradient after 2 iterations at the same energies to 1e-15.  The two
theorem3 hashes were captured again when the suite took F'(s) and G'(s)
from the energy's weak first variation instead of a Chebyshev derivative
in s; only the zero-derivative, ode and reference-derivative margins
moved, and the exit statuses did not.  The two minimize hashes were
captured again when the start became row 0 of the stacked evaluation of
its Hessian; the iterations, stop and energy lines stayed byte for byte.
The minkowski energy, both minimize, the identities, the three theorem1
and theorem3 report hashes and the residual column file were captured
again when every theta-derivative became -sin(theta) times the
x-derivative and the residual formed P_hat^2 once; their last digits
moved, and no exit status, iteration count or stop did.
"""

import hashlib

from quasilocal.cli import main

PINNED = {
    "energy --schwarzschild m=1,r=4 --tau zero": (
        0, "fc7aac039d2c78e581bf485a25bae1e18eabca0d65af03fb2c53a87ae752183a",
        {},
    ),
    "energy --minkowski tau0=0.3*P1 --tau 0.3*P1": (
        0, "bb26d1330aaeba88c58f19d5b1bf05560ae0319c1735a1ac94ef2a5538c1ac2c",
        {},
    ),
    "minimize --schwarzschild m=1,r=4 --tau 0.05*P2": (
        0, "72c16c7aea9ca301b6d8e9c4864dc8c7c604696ad2e3fdb00ded066d6fff4fe2",
        {},
    ),
    "verify --suite identities --metric unit-sphere --tau 0.3*P1": (
        0, "8764296d76770d1e1bb658c62cf1a99bca08b7a15b14e8948370b4c573bfd5fa",
        {},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4": (
        0, "42aeba02150bc51b09e0cbacdbd358b30fca5cc62fafe2fd98ab7f138adb117c",
        {},
    ),
    "verify --suite theorem3 --schwarzschild m=1,r=4 --out report.txt": (
        0, "2dd59571f030a4b5768689ab8d15d4c55ffb82ec823a36352a1db4f4fdb02be9",
        {"report.txt": "1fe06e1efa51e1b82877987a0cddcec5551d31ce8a77a3a9010fca9fa6ed1a86"},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4 --tau 0.01*P1": (
        2, "b2d6b7e1464eeb48b29ae4f1aaad57db2a1e9ced1dd1716d43c6d8fd3aa9e2f5",
        {},
    ),
    "gen-data --schwarzschild m=1,r=4 --out sphere.dat": (
        0, "33d89ece27a4bbd2d7053c8fac430724d6e996e8fde351d13f4f169a95418068",
        {"sphere.dat": "9bfdc4e63d081b08f004489f661602f9e3e08f8baad8db3b9dccfc6f06331b5d"},
    ),
    "residual --data sphere.dat --tau 0.1*P2 --columns residual.cols": (
        0, "39688a1552aa27aca0e8178ca108da83d62cad7cc7ef9ce86c89acdf9e2c7555",
        {"residual.cols": "3d0462e0a4c1c2188883125b2f9e18b190ebb59125e5377544db64f3ccf52030"},
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
        0, "c14ef82d42472e0e04b3a3c5f7e274b53be90bf144ad9bcfe62faa243294dc30",
        {},
    ),
    "verify --suite theorem1 --data table.dat": (
        0, "9b02e2ca04f5d22b2bc1b8733a3400bb0fd9f9a84274b156e32c6d7a50adb16a",
        {},
    ),
    "verify --suite theorem3 --data table.dat": (
        0, "b872d1fa7d5940665a64760d29db156966c6be9a35d392c98827e48b92ca55fb",
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
