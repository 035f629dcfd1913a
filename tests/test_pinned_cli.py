"""Command-line output pinned to the byte.

The commands are the README's command-line block, the five command
shapes of the benchmark's cli-reports workload (a table from gen-data,
then energy, residual, minimize and the two theorem suites on it) and
the two theorem suites on the lift at tau = 0 as data.  They run in order in
an empty directory, so later commands read the tables earlier ones
wrote.  Each entry is the exit status, the sha256 of stdout
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
moved, and no exit status, iteration count or stop did.  The identities
hash was captured again when its allowances became 1e-8 r^p, r the
sphere's radius: the unit sphere's quadrature radius is not exactly 1,
so the allowances of its four checks of nonzero length dimension
moved in their last digit.  The identities hash and the five theorem1
and theorem3 hashes (with theorem3's report file) were captured again
when identities lost its generalized-mean line, the reports their
equality.* lines, every theorem1 and theorem3 allowance became c r^p and
theorem1's equality case moved from tau0 + 3 to tau0 + 3r; of the
margins only that equality moved (at rounding level, on the
noncritical tau0 = 0.01 P1), and no exit status moved.  The two
--minkowski tau0=zero reports, where the data are the unit sphere's lift
at tau = 0 and fail their strict mean-curvature-gap with margin 0 (exit
2), were captured before the suites kept a comparison at tau = 0, on
the metric first and now on the data, and stayed byte for byte.  The two
minimize hashes were captured again when the minimizer kept an
unmodified Newton model near the minimum and its difference step became
1e-5 times the area radius: both runs take one kept step more (3
iterations instead of 2, still stopping on the gradient) and end at the
same energy, and their residual, calibration, eigenvalue and coefficient
lines moved.
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
        0, "2738a6e8741a739e81c6dd67fe02781b7ac23a290f61417ed9be0b79e92f46de",
        {},
    ),
    "verify --suite identities --metric unit-sphere --tau 0.3*P1": (
        0, "60e375f03a3d2de5c67dc15b3ee9320d460fbea8f09f3a74864f573820c1bd7c",
        {},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4": (
        0, "fc74a3fc82115323d48be68d338d3601cdb4dbd1220cdf0a6dd71073fd06ed9a",
        {},
    ),
    "verify --suite theorem3 --schwarzschild m=1,r=4 --out report.txt": (
        0, "2dd59571f030a4b5768689ab8d15d4c55ffb82ec823a36352a1db4f4fdb02be9",
        {"report.txt": "991c24c448906cb196527882e11e906d325a8d3909257962417b563d924c42bc"},
    ),
    "verify --suite theorem1 --schwarzschild m=1,r=4 --tau 0.01*P1": (
        2, "71252569c21955cf20f255c79041f74bda1500459002e90d22aa6886abc5de9c",
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
        0, "a521090b460b93c817a428510f9a4278b17ae18499ba79b3cad6adf2cc18c4c3",
        {},
    ),
    "verify --suite theorem1 --data table.dat": (
        0, "a4bb30bd8dbdeaab50dcd9dc5b7150dc530e64702bf8e77d20ceedde161e60e4",
        {},
    ),
    "verify --suite theorem3 --data table.dat": (
        0, "2718fc06f97a1480fc95603aff8b4d4a4e596a2b55802170707d0c6426c05b2e",
        {},
    ),
    "verify --suite theorem1 --minkowski tau0=zero": (
        2, "925869902f89430cc8e1c82fecaaba49a04efe292dcb2bd6b13f9bb7f6d0523c",
        {},
    ),
    "verify --suite theorem3 --minkowski tau0=zero": (
        2, "e5851496eabbeb08ab48eacf64b0a6569cd331138d1a70b01e5e862370cf5d94",
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
    # the lift at tau = 0 as data, which both suites compare with their
    # own lift at tau = 0 (PhysicalData.compared_at)
    "verify --suite theorem1 --minkowski tau0=zero",
    "verify --suite theorem3 --minkowski tau0=zero",
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
