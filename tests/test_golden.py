"""Golden output: the sha256 of stdout of fixed sweep, fanout and eval runs, of
the raw floats of a grid of breakdowns, and of the source of every row loop bound
over a grid of configs.

README.md promises byte-identical output for identical flags and config;
these digests also pin that output across refactors of the model. A digest
changes only when the printed numbers or layout change, which must then be
a deliberate, documented change of the model or of the output format. The
printed ``%.6g`` values hide a change in the last bit of a float; the raw
float digest does not, and it must be the same on every supported Python. The
row-loop source digest pins the code that prices each cell, so a refactor of
the plan or of the loop factory that changes no number still compiles the same
loops.
"""

import hashlib
import io
import itertools

import pytest

from oranpower import powermodel
from oranpower.catalog import default_catalog
from oranpower.cli import main
from oranpower.configfile import load_config
from oranpower.experiments import sweep_orus
from oranpower.powermodel import ClassPolicy, ModelConfig, ProvisioningPolicy, TrafficModel
from oranpower.topology import LINK_ORDER, Node, build_sweep_topology, segment_map

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
# The same overrides without the topology key, for fanout: each fanout case
# sets its own O-DU fanout.
FANOUT_CONFIG_TEXT = CONFIG_TEXT.replace("topology.du_fanout_cap = 3\n", "")

PLACEMENTS = ("oru", "odu", "ocu", "dc")

# name: (argv, config text or None)
RUNS = {
    "sweep-quantized": (["sweep", "--max-ru", "500"], CONFIG_TEXT),
    "sweep-linear": (["sweep", "--max-ru", "500", "--policy", "linear"], CONFIG_TEXT),
    "sweep-quantized-attached": (["sweep", "--max-ru", "500", "--attached-load"], CONFIG_TEXT),
    # CSV lines the row loops render: a placement subset given out of order with one user
    # per O-RU, a single O-RU count, and the O-DU alone with partial O-DUs.
    "sweep-subset-rho1": (["sweep", "--max-ru", "37", "--placements", "dc,oru",
                           "--users-per-ru", "1"], CONFIG_TEXT),
    "sweep-one-count": (["sweep", "--max-ru", "1"], None),
    "sweep-odu-linear-attached": (["sweep", "--max-ru", "200", "--placements", "odu",
                                   "--policy", "linear", "--attached-load"], None),
    "fanout": (["fanout"], None),
    "fanout-linear-config": (["fanout", "--policy", "linear"], FANOUT_CONFIG_TEXT),
    "fanout-attached-config": (["fanout", "--attached-load"], FANOUT_CONFIG_TEXT),
}
for _placement in PLACEMENTS:
    _argv = ["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", _placement]
    RUNS[f"eval-{_placement}"] = (_argv + ["--format", "table"], None)
    RUNS[f"eval-{_placement}-config"] = (_argv + ["--format", "table", "--policy", "linear"],
                                         CONFIG_TEXT)
    RUNS[f"eval-{_placement}-csv-config"] = (_argv + ["--format", "csv"], CONFIG_TEXT)

DIGESTS = {
    "sweep-quantized": "57d39d700cc2d507a7f72468115f3d49f37b8d2d1203e2777e2c71d07fd0cd3f",
    "sweep-linear": "52deceb29cb31d34b22873ffd1f1861dee745dc31ce3f601275127259a5004e5",
    "sweep-quantized-attached": "5bfeb88f17bde4b5e5f2f470c6f076105dc2d0139882162824e88a192216261c",
    "sweep-subset-rho1": "7d2206851a78cce02cfa1fee60d5d2ac3c0994422eec43e9532e9fd7984e43b8",
    "sweep-one-count": "3cc349bdc3ae7838a6f5ed5f34a081e6a60249950785bce1d152adaeda8b463c",
    "sweep-odu-linear-attached": "c2fecfa8d3e15d54699f64e9ec64b466673c9044cb31e75e3c70f47e97fee6f2",
    "fanout": "40805b59f2e207a9c49bc25d34da3f8de5c8922423b96986c2410891d161faf6",
    "fanout-linear-config": "8dfaebdbd34894ad171734dcc7e22bb74b283fcf2c09c4ff3f83bac6108b8876",
    "fanout-attached-config": "5ac5b30422261c64e50f71fffb8f686a59e94d8f15d766f794a60abd088c4ae9",
    "eval-oru": "6f499e29b7d4517e4fa27135b3487e20236b272e1cb6c11ada13b4d40afe9334",
    "eval-oru-config": "88145ce2c8c31612a92dfef9711e9f891816a7f26b1c34a376b7138726e39e27",
    "eval-oru-csv-config": "778191a2d52da45d159a85cb15742b0c622d669cabdec061f37212fc89081ce5",
    "eval-odu": "c17b9c1f265c427d0f51e95d279b4c29689d48c64ac3849a4cbb9ecb444ee6d5",
    "eval-odu-config": "05fb0ff766f4622bb0b516f77c98521b703fcbd7d452c46d1d32bf27fe9eaa0d",
    "eval-odu-csv-config": "479db7df5258be5a8a29d5144d14cb6c442f09dbc7099c7bd88a93d5808b1098",
    "eval-ocu": "dab501be7c7c20ff9c80caa43ed2582b8a30801ab40eb0c49850df2947302929",
    "eval-ocu-config": "0fdbbf903d5ad001da8b84269211b5866e7dfc3411949086e722bee049c4d48e",
    "eval-ocu-csv-config": "7c35db796bccc5c7040e8207c9bf269d0b484a5e96f2d997733a6b406366d02d",
    "eval-dc": "ac6e1a652a8f08f36b0d0fce45a40dbc2a289e8a3f474f125641ce3035b5ef48",
    "eval-dc-config": "e75cdae4b32510b718329a69046426ebb53943832235df7d28cba54022d50b3b",
    "eval-dc-csv-config": "7fbd02f83d7b5654036674b286795c342ab37ecdf8154595f59c8f013ee528af",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_digest(name, tmp_path):
    argv, config_text = RUNS[name]
    if config_text is not None:
        path = tmp_path / "golden.cfg"
        path.write_text(config_text, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DIGESTS[name]


def test_breakdown_floats_digest():
    """The sha256 of ``repr`` of every float of every breakdown over n_ru 1..2000, 10 users
    per O-RU and every placement: the default config, then ``CONFIG_TEXT`` with every device
    class quantized, two with minimum units and one with its own unit. The floats are read
    from ``evaluate``, and again from the rows of the sweep over the same cells."""
    quantized = ProvisioningPolicy(*(ClassPolicy.quantize(unit, minimum) for unit, minimum in
                                     ((None, 0), (None, 1), (None, 0), (100.0, 0), (None, 2))))
    configs = (ModelConfig.default(), load_config(CONFIG_TEXT, ModelConfig.default(quantized))[0])
    evaluated, swept = hashlib.sha256(), hashlib.sha256()
    for config in configs:
        for n_ru in range(1, 2001):
            topology = build_sweep_topology(n_ru, 10)
            for placement in Node:
                b = config.evaluate(topology, placement)
                evaluated.update(repr((b.nodes, b.segments, b.ue_watts, b.processing_watts,
                                       b.transmission_watts, b.total_watts)).encode())
        for _, _, watts in sweep_orus(range(1, 2001), 10, list(Node), config):
            swept.update(repr((watts[3:7], watts[7:10], *watts[10:], *watts[:3])).encode())
    digest = "2df9890dd2aa49f324930ce12b956b9d10dcbf7f9e9cd68cda3c30e92bb6258e"
    assert (evaluated.hexdigest(), swept.hexdigest()) == (digest, digest)


def test_row_loop_source_digest():
    """The sha256 of every bound row loop's compiled source, with its binding's key: each of
    the 32 policies that quantize some of the five device classes, routers on each subset of
    the links, O-DUs provisioned to the cap or not, every placement, trees with a fanout cap
    or without, and rows of figures or of CSV lines. The source is read where the loop
    factory compiles it, from an emptied factory cache, and found again for each bound loop
    by the loop's code, which its factory's source defines."""
    compile_source, sources = powermodel._compile, {}

    def recording_compile(source, name, label):
        factory = compile_source(source, name, label)
        (loop_code,) = [const for const in factory.__code__.co_consts if hasattr(const, "co_code")]
        sources[loop_code] = source
        return factory

    digest = hashlib.sha256()
    powermodel._compile = recording_compile
    powermodel._loop_factory.cache_clear()
    try:
        for quantized in itertools.product((False, True), repeat=5):
            policy = ProvisioningPolicy(*(ClassPolicy(flag) for flag in quantized))
            for gammas in itertools.product((0, 1), repeat=len(LINK_ORDER)):
                params = segment_map()
                for link, gamma in zip(LINK_ORDER, gammas):
                    params[link] = params[link].__replace__(gamma=gamma)
                for to_cap in (False, True):
                    config = ModelConfig(default_catalog(), params, TrafficModel(), policy, to_cap)
                    for placement, has_cap, csv in itertools.product(
                            Node, (False, True), (False, True)):
                        loop = config._loop(placement, has_cap, csv)
                        key = (quantized, gammas, to_cap, placement.value, has_cap, csv)
                        digest.update(repr((key, sources[loop.__code__])).encode())
    finally:
        powermodel._compile = compile_source
        powermodel._loop_factory.cache_clear()
    assert digest.hexdigest() == (
        "b91b72234300a980a57f4fe640630274eb3e727f8c2f88b7c0bc3cb5023b063e")
