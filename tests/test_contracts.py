"""Debug-mode array contracts and the zero-overhead disabled path.

The load-bearing guarantee mirrors the observability layer's: with
``REPRO_DEBUG`` unset (the default) the decorators return the original
function objects at decoration time, so the production pipeline runs
undecorated code and its numerics are **bit-identical** to a
sanitized run — verified below by hashing pipeline arrays produced in
subprocesses with the gate off and on.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.contracts import check_shapes, contracts_enabled, ensure_finite
from repro.errors import ContractViolation

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestGate:
    def test_disabled_by_default_in_test_suite(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert not contracts_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DEBUG", value)
        assert contracts_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DEBUG", value)
        assert not contracts_enabled()


class TestZeroOverheadDisabledPath:
    def test_decorators_are_identity_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)

        def f(x):
            return x

        assert check_shapes(returns="M,M", x="M,N")(f) is f
        assert ensure_finite(f) is f
        assert ensure_finite()(f) is f

    @pytest.mark.skipif(
        contracts_enabled(), reason="suite was launched with REPRO_DEBUG on"
    )
    def test_library_hot_paths_are_undecorated_when_disabled(self):
        # The suite normally runs with the gate off, so the imported
        # functions must be the plain originals (no wrapper attribute).
        from repro.dsp.bartlett import bartlett_power_spectrum
        from repro.dsp.covariance import sample_covariance

        assert not hasattr(sample_covariance, "__wrapped__")
        assert not hasattr(bartlett_power_spectrum, "__wrapped__")

    def test_bad_spec_still_rejected_when_disabled(self, monkeypatch):
        # Spec typos are programming errors; they fail at import time
        # regardless of the gate so they cannot lurk until a debug run.
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        with pytest.raises(ContractViolation, match="unknown parameter"):
            check_shapes(q="M,N")(lambda x: x)


class TestCheckShapes:
    def test_passing_call_returns_result(self):
        @check_shapes("complex:M,M", force=True, snapshots="M,N")
        def cov(snapshots):
            x = np.asarray(snapshots, dtype=complex)
            return x @ x.conj().T / x.shape[1]

        result = cov(np.ones((3, 8), dtype=complex))
        assert result.shape == (3, 3)

    def test_wrong_ndim_raises(self):
        @check_shapes(force=True, x="M,N")
        def f(x):
            return x

        with pytest.raises(ContractViolation, match="expected 2-D"):
            f(np.ones(4))

    def test_inconsistent_binding_raises(self):
        @check_shapes(force=True, a="M,N", b="N,K")
        def f(a, b):
            return a

        with pytest.raises(ContractViolation, match="already bound"):
            f(np.ones((2, 3)), np.ones((4, 5)))

    def test_return_spec_uses_argument_bindings(self):
        @check_shapes("M,M", force=True, x="M,N")
        def not_square(x):
            return np.ones((x.shape[0], x.shape[0] + 1))

        with pytest.raises(ContractViolation, match="return value"):
            not_square(np.ones((3, 5)))

    def test_dtype_prefix_enforced(self):
        @check_shapes(force=True, x="complex:M,N")
        def f(x):
            return x

        with pytest.raises(ContractViolation, match="expected complex"):
            f(np.ones((2, 2)))
        f(np.ones((2, 2), dtype=complex))

    def test_integer_literal_and_wildcard(self):
        @check_shapes(force=True, x="2,*")
        def f(x):
            return x

        f(np.ones((2, 7)))
        with pytest.raises(ContractViolation, match="must be 2"):
            f(np.ones((3, 7)))

    def test_none_arguments_are_skipped(self):
        @check_shapes(force=True, grid="G")
        def f(x, grid=None):
            return x

        assert f(1.0) == 1.0


class TestEnsureFinite:
    def test_rejects_nan_argument(self):
        @ensure_finite(force=True)
        def f(x):
            return x

        with pytest.raises(ContractViolation, match="non-finite"):
            f(np.array([1.0, np.nan]))

    def test_rejects_inf_in_keyword_and_return(self):
        @ensure_finite(force=True)
        def passthrough(x=None):
            return x

        with pytest.raises(ContractViolation, match="'x'"):
            passthrough(x=np.array([np.inf]))

        @ensure_finite(force=True)
        def produce():
            return np.array([0.0, -np.inf])

        with pytest.raises(ContractViolation, match="return value"):
            produce()

    def test_integer_arrays_and_scalars_pass(self):
        @ensure_finite(force=True)
        def f(n, flags):
            return n

        assert f(3, np.array([1, 2, 3])) == 3


PIPELINE_PROBE = """
import hashlib

import numpy as np

from repro.dsp.bartlett import bartlett_power_spectrum
from repro.dsp.covariance import sample_covariance
from repro.dsp.music import MusicEstimator
from repro.utils.rng import ensure_rng

rng = ensure_rng(20160712)
snapshots = rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128))
cov = sample_covariance(snapshots)
est = MusicEstimator(spacing_m=0.163)
spec = est.spectrum(snapshots)
bart = bartlett_power_spectrum(snapshots, 0.163, 0.326)
digest = hashlib.sha256()
for arr in (cov, spec.values, bart.values):
    digest.update(np.ascontiguousarray(arr).tobytes())
print(digest.hexdigest())
"""


def run_probe(debug_value):
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_DEBUG", None)
    if debug_value is not None:
        env["REPRO_DEBUG"] = debug_value
    result = subprocess.run(
        [sys.executable, "-c", PIPELINE_PROBE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


class TestBitIdenticalRegression:
    def test_disabled_and_debug_runs_hash_identically(self):
        # Bitwise equality of every covariance/spectrum byte: the
        # sanitizer must observe, never perturb.
        unset = run_probe(None)
        off = run_probe("0")
        on = run_probe("1")
        assert len(unset) == 64
        assert unset == off == on
