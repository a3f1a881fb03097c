"""Golden CLI output: the sha256 of stdout of fixed sweep, fanout and eval runs.

README.md promises byte-identical output for identical flags and config;
these digests also pin that output across refactors of the model. A digest
changes only when the printed numbers or layout change, which must then be
a deliberate, documented change of the model or of the output format.
"""

import hashlib
import io

import pytest

from oranpower.cli import main

# Hop counts, sigma/alpha and server overrides, so every term of the model
# departs from its default somewhere.
CONFIG_TEXT = """\
segment.fronthaul.hops_switch = 2
segment.midhaul.hops_wdm = 1
segment.backhaul.hops_router = 2
segment.fronthaul.sigma = 2.5
segment.odu.sigma = 1.7
segment.dc.alpha = 1.9
dc_server.cores = 16
dc_server.server_capacity_gbps = 4.0
edge_server.per_core_power_w = 7.5
topology.du_fanout_cap = 3
"""

PLACEMENTS = ("oru", "odu", "ocu", "dc")

RUNS = {
    "sweep-quantized": (["sweep", "--max-ru", "500"], True),
    "sweep-linear": (["sweep", "--max-ru", "500", "--policy", "linear"], True),
    "sweep-quantized-attached": (["sweep", "--max-ru", "500", "--attached-load"], True),
    "fanout": (["fanout"], False),
}
for _placement in PLACEMENTS:
    _argv = ["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", _placement,
             "--format", "table"]
    RUNS[f"eval-{_placement}"] = (_argv, False)
    RUNS[f"eval-{_placement}-config"] = (_argv + ["--policy", "linear"], True)

DIGESTS = {
    "sweep-quantized": "57d39d700cc2d507a7f72468115f3d49f37b8d2d1203e2777e2c71d07fd0cd3f",
    "sweep-linear": "52deceb29cb31d34b22873ffd1f1861dee745dc31ce3f601275127259a5004e5",
    "sweep-quantized-attached": "5bfeb88f17bde4b5e5f2f470c6f076105dc2d0139882162824e88a192216261c",
    "fanout": "40805b59f2e207a9c49bc25d34da3f8de5c8922423b96986c2410891d161faf6",
    "eval-oru": "6f499e29b7d4517e4fa27135b3487e20236b272e1cb6c11ada13b4d40afe9334",
    "eval-oru-config": "88145ce2c8c31612a92dfef9711e9f891816a7f26b1c34a376b7138726e39e27",
    "eval-odu": "c17b9c1f265c427d0f51e95d279b4c29689d48c64ac3849a4cbb9ecb444ee6d5",
    "eval-odu-config": "05fb0ff766f4622bb0b516f77c98521b703fcbd7d452c46d1d32bf27fe9eaa0d",
    "eval-ocu": "dab501be7c7c20ff9c80caa43ed2582b8a30801ab40eb0c49850df2947302929",
    "eval-ocu-config": "0fdbbf903d5ad001da8b84269211b5866e7dfc3411949086e722bee049c4d48e",
    "eval-dc": "ac6e1a652a8f08f36b0d0fce45a40dbc2a289e8a3f474f125641ce3035b5ef48",
    "eval-dc-config": "e75cdae4b32510b718329a69046426ebb53943832235df7d28cba54022d50b3b",
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_digest(name, config_path):
    argv, with_config = RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + (["--config", config_path] if with_config else []),
                stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DIGESTS[name]
