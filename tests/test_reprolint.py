"""The repo's own AST linter: one violating/clean/suppressed fixture per rule.

Fixture sources are linted with a path *inside* ``src/repro`` because
several rules are scoped to the library (RL002's raw-converter check) or
carry per-module whitelists (RL001 ignores ``utils/rng.py``, RL002
ignores ``utils/angles.py``).  The meta-test at the bottom is the
enforcement teeth: the shipped ``src/repro`` tree must stay
violation-free.
"""

import textwrap

from tools.reprolint import lint_paths, lint_source
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.rules import RULES

FAKE_PATH = "src/repro/dsp/example.py"


def codes_of(source, path=FAKE_PATH):
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


class TestRL001LegacyRandomness:
    def test_flags_global_numpy_randomness(self):
        assert "RL001" in codes_of(
            """
            import numpy as np

            def jitter(n: int) -> object:
                return np.random.seed(n)
            """
        )

    def test_flags_legacy_randomstate(self):
        assert "RL001" in codes_of(
            """
            import numpy as np

            def make() -> object:
                return np.random.RandomState(7)
            """
        )

    def test_clean_when_routed_through_generator(self):
        assert codes_of(
            """
            from repro.utils.rng import ensure_rng

            def jitter(n: int) -> float:
                return float(ensure_rng(n).normal())
            """
        ) == []

    def test_rng_module_is_whitelisted(self):
        source = """
        import numpy as np

        def default() -> object:
            return np.random.default_rng()
        """
        assert codes_of(source, path="src/repro/utils/rng.py") == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            import numpy as np

            def jitter(n: int) -> object:
                return np.random.seed(n)  # reprolint: disable=RL001
            """
        ) == []


class TestRL002AngleUnits:
    def test_flags_trig_on_degree_named_value(self):
        assert "RL002" in codes_of(
            """
            import numpy as np

            def gain(theta_deg: float) -> float:
                return float(np.cos(theta_deg))
            """
        )

    def test_flags_raw_converter_inside_repro(self):
        assert "RL002" in codes_of(
            """
            import numpy as np

            def convert(theta: float) -> float:
                return float(np.deg2rad(theta))
            """
        )

    def test_clean_via_sanctioned_helper(self):
        assert codes_of(
            """
            import numpy as np

            from repro.utils.angles import deg2rad

            def gain(theta_deg: float) -> float:
                return float(np.cos(deg2rad(theta_deg)))
            """
        ) == []

    def test_angles_module_is_whitelisted(self):
        source = """
        import numpy as np

        def deg2rad(value: float) -> float:
            return float(np.deg2rad(value))
        """
        assert codes_of(source, path="src/repro/utils/angles.py") == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            import numpy as np

            def gain(theta_deg: float) -> float:
                return float(np.sin(theta_deg))  # reprolint: disable=RL002
            """
        ) == []


class TestRL003ComplexToRealLoss:
    def test_flags_real_attribute_on_covariance(self):
        assert "RL003" in codes_of(
            """
            def trace(cov_matrix) -> object:
                return cov_matrix.real
            """
        )

    def test_flags_float_cast_of_matmul(self):
        assert "RL003" in codes_of(
            """
            def power(a, b) -> float:
                return float(a @ b)
            """
        )

    def test_clean_when_magnitude_taken_first(self):
        assert codes_of(
            """
            import numpy as np

            def power(cov_matrix) -> float:
                return float(np.abs(np.trace(cov_matrix)))
            """
        ) == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            def trace(cov_matrix) -> object:
                return cov_matrix.real  # reprolint: disable=RL003
            """
        ) == []


class TestRL004MissingReturnAnnotation:
    def test_flags_public_function_without_annotation(self):
        assert "RL004" in codes_of(
            """
            def estimate(x):
                return x
            """
        )

    def test_private_function_is_exempt(self):
        assert codes_of(
            """
            def _helper(x):
                return x
            """
        ) == []

    def test_clean_with_annotation(self):
        assert codes_of(
            """
            def estimate(x: float) -> float:
                return x
            """
        ) == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            def estimate(x):  # reprolint: disable=RL004
                return x
            """
        ) == []


class TestRL005MutableDefaultsAndBareExcept:
    def test_flags_mutable_default(self):
        assert "RL005" in codes_of(
            """
            def collect(items: list = []) -> list:
                return items
            """
        )

    def test_flags_bare_except(self):
        assert "RL005" in codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except:
                    return None
            """
        )

    def test_flags_broad_exception(self):
        assert "RL005" in codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except Exception:
                    return None
            """
        )

    def test_clean_with_none_default_and_narrow_except(self):
        assert codes_of(
            """
            def load(items: object = None) -> object:
                try:
                    return open("x")
                except OSError:
                    return None
            """
        ) == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            def collect(items: list = []) -> list:  # reprolint: disable=RL005
                return items
            """
        ) == []


class TestRL006SwallowedExceptions:
    def test_flags_except_pass(self):
        assert "RL006" in codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except OSError:
                    pass
            """
        )

    def test_flags_except_ellipsis(self):
        assert "RL006" in codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except OSError:
                    ...
            """
        )

    def test_flags_docstring_only_body(self):
        assert "RL006" in codes_of(
            '''
            def load() -> object:
                try:
                    return open("x")
                except OSError:
                    """Nothing to do."""
            '''
        )

    def test_clean_when_handled(self):
        assert codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except OSError:
                    return None
            """
        ) == []

    def test_clean_when_counted(self):
        assert codes_of(
            """
            from repro import obs

            def load() -> object:
                try:
                    return open("x")
                except OSError:
                    obs.count("io.failures")
                return None
            """
        ) == []

    def test_suppressed_with_disable_comment(self):
        assert codes_of(
            """
            def load() -> object:
                try:
                    return open("x")
                except OSError:  # reprolint: disable=RL006
                    pass
                return None
            """
        ) == []


class TestEngine:
    def test_syntax_error_becomes_rl000_finding(self):
        findings = lint_source("def broken(:\n", FAKE_PATH)
        assert [f.code for f in findings] == ["RL000"]

    def test_select_and_ignore_filters(self):
        source = textwrap.dedent(
            """
            def estimate(x, items=[]):
                return x
            """
        )
        assert codes_of(source) == ["RL004", "RL005"]
        only_004 = lint_source(source, FAKE_PATH, select={"RL004"})
        assert [f.code for f in only_004] == ["RL004"]
        without_005 = lint_source(source, FAKE_PATH, ignore={"RL005"})
        assert [f.code for f in without_005] == ["RL004"]

    def test_disable_all_suppresses_everything(self):
        assert codes_of(
            """
            def estimate(x, items=[]):  # reprolint: disable=all
                return x
            """
        ) == []

    def test_disable_next_line_form(self):
        assert codes_of(
            """
            # reprolint: disable-next-line=RL004
            def estimate(x):
                return x
            """
        ) == []

    def test_every_rule_has_code_and_message(self):
        assert set(RULES) == {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
            "RL007", "RL008", "RL009", "RL010",
        }
        for code, message in RULES.items():
            assert code.startswith("RL")
            assert message


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def f(x: int) -> int:\n    return x\n")
        assert reprolint_main([str(target)]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x, items=[]):\n    return x\n")
        assert reprolint_main([str(target)]) == 1
        assert "RL005" in capsys.readouterr().out

    def test_exit_two_on_unknown_code(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def f(x: int) -> int:\n    return x\n")
        assert reprolint_main([str(target), "--select", "RL999"]) == 2

    def test_exit_two_on_nonexistent_path(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        assert reprolint_main([str(missing)]) == 2
        err = capsys.readouterr().err
        assert "path does not exist" in err
        assert str(missing) in err

    def test_json_statistics_document_is_deterministic(self, tmp_path, capsys):
        import json

        target = tmp_path / "dirty.py"
        target.write_text("def f(x, items=[]):\n    return x\n")
        assert reprolint_main([str(target), "--format", "json", "--statistics"]) == 1
        first = capsys.readouterr().out
        assert reprolint_main([str(target), "--format", "json", "--statistics"]) == 1
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert set(document) == {"findings", "statistics"}
        assert document["statistics"] == {"RL005": 1}
        assert [f["code"] for f in document["findings"]] == ["RL005"]


class TestShippedTreeIsViolationFree:
    def test_src_repro_passes_reprolint(self):
        findings = lint_paths(["src/repro"])
        assert findings == [], "\n".join(f.format() for f in findings)
