"""The package's lazy exports: `import biakit` binds every exported name on
first read, from the submodule that defines it, and nothing else."""
import importlib
from fractions import Fraction

import numpy as np
import pytest

import biakit
from biakit.formats import render_json

EXPORTS = [
    "BiaError", "ChannelSet", "ConstructionFailedError", "CountingReport", "DegenerateSchemeError",
    "DofReport", "PatternMatrix", "ReceiverCheck", "ReceiverDecomposition", "Scheme",
    "SchemeConfig", "SimConfig", "SimResult", "SymbolBlock", "UnverifiableDrawError",
    "VerificationReport", "achieved", "bound", "build_scheme", "certify_product_rank",
    "certify_receivers", "channel", "channels_from_json", "channels_to_json", "check_counting",
    "decompose_receiver", "default_pair_dims", "designspace", "dof", "draw_channels",
    "draw_symbols", "effective_channel", "errors", "estimate_dof", "exactrank", "formats",
    "gaussian_rank", "integer_rank", "make_config", "make_pattern_matrix", "product_matrix",
    "rank_of", "receive", "receiver_rate", "row_vocabulary", "run_verification", "scheme",
    "scheme_from_json", "scheme_to_json", "sim", "star_pattern_matrix", "stream_seed", "sweep",
    "tdma_sum_rate", "transmit", "verify", "verify_decodability", "verify_decodability_exact",
    "zf_decode",
]
SUBMODULES = ["channel", "designspace", "dof", "errors", "exactrank", "formats", "scheme", "sim",
              "verify"]


def test_all_lists_the_exports_in_order():
    assert len(EXPORTS) == 59
    assert biakit.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(biakit))


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_is_its_owners_object(name):
    value = getattr(biakit, name)
    if name in SUBMODULES:
        assert value is importlib.import_module("biakit." + name)
    else:
        owner = importlib.import_module(value.__module__)
        assert owner.__name__.rsplit(".", 1)[-1] in SUBMODULES
        assert getattr(owner, name) is value


def test_an_export_follows_its_owners_attribute(monkeypatch):
    """Each read looks the name up again, so a patch of the owner shows
    through the package and is gone once the patch is undone."""
    import biakit.scheme

    original = biakit.scheme.build_scheme
    monkeypatch.setattr(biakit.scheme, "build_scheme", len)
    assert biakit.build_scheme is len
    monkeypatch.undo()
    assert biakit.build_scheme is original
    assert "build_scheme" not in vars(biakit)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from biakit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["run_verification"] is biakit.verify.run_verification


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'build_schemes'"):
        biakit.build_schemes
    assert not hasattr(biakit, "cli_main")


def test_rationals_render_without_the_fractions_module_in_formats():
    """formats reads a Fraction through numbers.Rational; a numpy integer
    is an Integral and stays refused."""
    assert render_json({"dof": Fraction(3, 4), "row": [Fraction(-1, 2)]}) == \
        '{\n  "dof": "3/4",\n  "row": [\n    "-1/2"\n  ]\n}\n'
    with pytest.raises(TypeError, match=r"unsupported JSON value: np.int64\(3\)"):
        render_json(np.int64(3))
