"""Blind interference alignment schemes for the K-user interference channel
with staggered two-mode antenna switching: construction, exact and Monte
Carlo verification, DoF accounting, and sum-rate simulation.

Submodules load on first use: `import biakit` loads none of them, and an
export such as `biakit.build_scheme` imports its owning submodule when it
is first read. Each read looks the name up in its owner again, so the
package holds no copy of a function that could go stale when the owner's
attribute is replaced.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "channel": ("ChannelSet", "SymbolBlock", "channels_from_json", "channels_to_json",
                "draw_channels", "draw_symbols", "effective_channel", "receive", "stream_seed",
                "transmit"),
    "designspace": ("make_pattern_matrix", "row_vocabulary"),
    "dof": ("DofReport", "achieved", "bound", "sweep"),
    "errors": ("BiaError", "ConstructionFailedError", "DegenerateSchemeError",
               "UnverifiableDrawError"),
    "exactrank": ("gaussian_rank", "integer_rank"),
    "formats": (),
    "scheme": ("PatternMatrix", "Scheme", "SchemeConfig", "build_scheme", "certify_product_rank",
               "certify_receivers", "default_pair_dims", "make_config", "product_matrix",
               "scheme_from_json", "scheme_to_json", "star_pattern_matrix"),
    "sim": ("SimConfig", "SimResult", "estimate_dof", "receiver_rate", "tdma_sum_rate",
            "zf_decode"),
    "verify": ("CountingReport", "ReceiverCheck", "ReceiverDecomposition", "VerificationReport",
               "check_counting", "decompose_receiver", "rank_of", "run_verification",
               "verify_decodability", "verify_decodability_exact"),
}

# export -> its owning submodule; a submodule owns itself
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    owner = importlib.import_module("." + module, __name__)
    return owner if module == name else getattr(owner, name)


def __dir__():
    return sorted({*globals(), *__all__})
