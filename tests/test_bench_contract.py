"""Names and parameters the benchmark in fracbench/ looks up in the package.

fracbench records spans by replacing module attributes and reads some
arguments by name, so renaming one of them breaks the benchmark without
breaking any other test.  The benchmark files are loaded by path, as they
are shipped.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from frac.config import reference_config
from frac.im_codec import random_selection_sequence
from frac.radar_recovery import build_dictionary

BENCH = pathlib.Path(__file__).resolve().parents[1] / "fracbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"fracbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the body runs
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


spans = _load("spans")


@pytest.mark.parametrize("module, attribute", [target[:2] for target in spans.TARGETS])
def test_span_target_exists(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("module, function, names", [
    ("frac.radar_recovery", "bp_recover",
     ("y", "dic", "eps", "max_iter", "tol", "support_threshold")),
    ("frac.ambiguity", "mc_mean_af", ("n_cpi",)),
    ("frac.comm", "ber_curve", ("channels",)),
    ("frac.comm", "rate_curve", ("channels",)),
])
def test_parameters_read_by_name_exist(module, function, names):
    params = inspect.signature(getattr(importlib.import_module(module), function)).parameters
    assert set(names) <= set(params)


def test_dictionary_takes_the_selections_first(monkeypatch):
    # the dictionary check calls build_dictionary(selections, cfg, ...) and
    # reads selections[n].carriers[k] in its own steering model
    monkeypatch.setitem(sys.modules, "spans", spans)
    checks = _load("checks")
    assert list(inspect.signature(build_dictionary).parameters)[:2] == ["selections", "cfg"]
    cfg = reference_config(N=4, M=4, K=2, P=2, Q_r=2)
    sels = random_selection_sequence(cfg, np.random.default_rng(0))
    A = build_dictionary(sels, cfg).A
    want = np.array([[checks.steering_entry(cfg, sels, r, c) for c in range(cfg.n2)]
                     for r in range(cfg.n1)])
    np.testing.assert_allclose(A, want, rtol=0, atol=1e-12)


def test_selections_read_by_the_steering_model():
    # checks.steering_entry reads len(selections), selections[n].carriers[k]
    # and selections[n].antennas[k] of what random_selection_sequence returns
    cfg = reference_config(N=4, M=4, K=2, P=2, Q_r=2)
    sels = random_selection_sequence(cfg, np.random.default_rng(0))
    assert len(sels) == cfg.N
    m_idx, p_idx = sels.carriers, sels.antennas
    for n in range(cfg.N):
        for k in range(cfg.K):
            assert sels[n].carriers[k] == m_idx[n, k] and type(sels[n].carriers[k]) is int
            assert sels[n].antennas[k] == p_idx[n, k] and type(sels[n].antennas[k]) is int


def test_dense_dictionary_view_is_formed_once():
    # the dictionary span reads .A.shape and .A.itemsize and the capture
    # reads .A[r, c] 512 times per dictionary: a view rebuilt on every read
    # would multiply the reference repeat's time
    cfg = reference_config(N=4, M=4, K=2, P=2, Q_r=2)
    dic = build_dictionary(random_selection_sequence(cfg, np.random.default_rng(0)), cfg)
    A = dic.A
    assert type(A) is np.ndarray and A.dtype == np.complex128
    assert A.shape == (cfg.n1, cfg.n2) and A.flags.c_contiguous
    assert dic.A is A
