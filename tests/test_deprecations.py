"""Every deprecation shim warns exactly once per use, says what to use
instead, and blames the *caller* (correct ``stacklevel``), so downstream
code sees actionable ``-W error`` failures pointing at its own lines."""

import warnings
from importlib import import_module

import numpy as np
import pytest

import repro.kernels
from repro.core import adaptive_sshopm, multistart_sshopm, sshopm
from repro.engine import fleet_solve
from repro.symtensor import random_symmetric_batch, random_symmetric_tensor

THIS_FILE = __file__


def catch(fn):
    """Run ``fn`` recording all warnings; return the DeprecationWarnings."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        fn()
    return [r for r in records if issubclass(r.category, DeprecationWarning)]


@pytest.fixture(scope="module")
def tensor():
    return random_symmetric_tensor(3, 3, rng=9)


class TestMaxIterKeyword:
    def test_sshopm_warns_and_honors_value(self, tensor):
        with pytest.warns(DeprecationWarning, match="max_iter=.*max_iters="):
            res = sshopm(tensor, alpha=5.0, rng=0, max_iter=7)
        assert res.iterations <= 7

    def test_adaptive_warns(self, tensor):
        with pytest.warns(DeprecationWarning, match="max_iter="):
            adaptive_sshopm(tensor, rng=0, max_iter=7)

    def test_multistart_warns(self, tensor):
        with pytest.warns(DeprecationWarning, match="max_iter="):
            multistart_sshopm(tensor, num_starts=2, alpha=5.0, rng=0,
                              max_iter=7)

    def test_warning_blames_this_file(self, tensor):
        (record,) = catch(lambda: sshopm(tensor, alpha=5.0, rng=0, max_iter=5))
        assert record.filename == THIS_FILE

    def test_both_spellings_conflict(self, tensor):
        with pytest.raises(TypeError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sshopm(tensor, alpha=5.0, rng=0, max_iter=5, max_iters=9)

    def test_new_spelling_is_silent(self, tensor):
        assert catch(lambda: sshopm(tensor, alpha=5.0, rng=0, max_iters=5)) == []


class TestFlatKernelAliases:
    @pytest.mark.parametrize("name", [
        "ax_m_batched", "ax_m1_batched",
        "ax_m_blocked_batched", "ax_m1_blocked_batched",
    ])
    def test_alias_warns_and_still_works(self, name):
        with pytest.warns(DeprecationWarning, match=name):
            fn = getattr(repro.kernels, name)
        assert callable(fn)

    def test_alias_warning_blames_this_file(self):
        (record,) = catch(lambda: repro.kernels.ax_m_batched)
        assert record.filename == THIS_FILE

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.kernels.no_such_kernel


class TestGeneratorAliases:
    """The direct code-generator entry points are deprecated in favour of
    the repro.kernels.codegen emitter registry."""

    @pytest.mark.parametrize("name", [
        "make_unrolled", "generate_source", "generate_cuda_kernel",
    ])
    def test_package_alias_warns_and_points_at_registry(self, name):
        with pytest.warns(DeprecationWarning, match="emit") as records:
            fn = getattr(repro.kernels, name)
        assert callable(fn)
        assert name in str(records[0].message)

    def test_submodule_alias_warns(self):
        import repro.kernels.cudagen
        import repro.kernels.unrolled

        with pytest.warns(DeprecationWarning, match="make_unrolled"):
            repro.kernels.unrolled.make_unrolled
        with pytest.warns(DeprecationWarning, match="generate_source"):
            repro.kernels.unrolled.generate_source
        with pytest.warns(DeprecationWarning, match="generate_cuda_kernel"):
            repro.kernels.cudagen.generate_cuda_kernel

    def test_alias_warning_blames_this_file(self):
        (record,) = catch(lambda: repro.kernels.make_unrolled)
        assert record.filename == THIS_FILE

    def test_alias_still_works(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gen = repro.kernels.make_unrolled(3, 3)
        assert gen.flops_scalar > 0

    def test_registry_path_is_silent(self):
        from repro.kernels.codegen import emit

        assert catch(lambda: emit(3, 3, "unrolled")) == []

    @pytest.mark.parametrize("module", ["repro.core.sshopm",
                                        "repro.core.adaptive"])
    def test_shim_modules_are_removed(self, module):
        with pytest.raises(ModuleNotFoundError):
            import_module(module)

    def test_package_import_is_warning_free(self):
        """Merely importing repro.kernels must not trip the shims."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import warnings
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                import repro.kernels
            bad = [str(w.message) for w in records
                   if issubclass(w.category, DeprecationWarning)
                   and "repro" in str(w.message)]
            assert not bad, bad
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestCoreSolverShims:
    """``repro.core`` re-exports the solver *functions*; the old
    ``repro.core.sshopm`` / ``repro.core.adaptive`` shim modules are gone,
    so the names must resolve to the functions without any warning."""

    def test_package_reexports_stay_silent(self):
        """``from repro.core import sshopm`` (the *function*, via the
        package) is the supported spelling and must not warn."""
        assert catch(lambda: repro.core.sshopm) == []
        assert catch(lambda: repro.core.adaptive_sshopm) == []

    def test_package_import_is_warning_free(self):
        """Merely importing repro.core must not warn."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import warnings
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                import repro.core
            bad = [str(w.message) for w in records
                   if issubclass(w.category, DeprecationWarning)
                   and "repro" in str(w.message)]
            assert not bad, bad
            # the package attribute is the function, not a module
            assert callable(repro.core.sshopm), type(repro.core.sshopm)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestRenamedResultFields:
    def test_multistart_total_sweeps_property(self, tensor):
        res = multistart_sshopm(tensor, num_starts=2, alpha=5.0, rng=0,
                                max_iters=50)
        with pytest.warns(DeprecationWarning, match="total_sweeps.*sweeps"):
            old = res.total_sweeps
        assert old == res.sweeps

    def test_fleet_total_sweeps_property(self):
        batch = random_symmetric_batch(2, 3, 3, rng=9)
        res = fleet_solve(batch, num_starts=2, alpha=5.0, rng=0, max_iters=50)
        with pytest.warns(DeprecationWarning, match="total_sweeps.*sweeps"):
            old = res.total_sweeps
        assert old == res.sweeps

    def test_field_warning_blames_this_file(self, tensor):
        res = multistart_sshopm(tensor, num_starts=2, alpha=5.0, rng=0,
                                max_iters=50)
        (record,) = catch(lambda: res.total_sweeps)
        assert record.filename == THIS_FILE

    def test_new_field_is_silent(self, tensor):
        res = multistart_sshopm(tensor, num_starts=2, alpha=5.0, rng=0,
                                max_iters=50)
        assert catch(lambda: res.sweeps) == []
