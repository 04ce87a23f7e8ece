"""The project-specific rules reprolint enforces.

========  ==============================================================
Code      Invariant
========  ==============================================================
RL001     All randomness flows through ``repro.utils.rng`` — no legacy
          ``np.random.*`` global-state API, no ``RandomState``, and no
          direct ``default_rng`` construction outside ``utils/rng.py``.
RL002     Angles are radians everywhere: no trig on ``*_deg`` values and
          no raw ``np.deg2rad``/``np.rad2deg``/``np.radians``/
          ``np.degrees`` (or the ``math`` equivalents) outside
          ``utils/angles.py``.
RL003     No silent complex→real narrowing of covariance/eigen/subspace
          math: ``float(...)``, ``np.real(...)``, ``.real`` and
          ``.astype(float)`` on such values need an explicit
          justification (a ``# reprolint: disable=RL003`` comment).
RL004     Public API functions under ``src/repro`` declare their return
          type.
RL005     No mutable default arguments and no bare/broad ``except``.
RL006     No silently swallowed exceptions: an ``except`` body that is
          only ``pass``/``...`` hides failures the health layer should
          count — handle, log or re-raise (or justify with a
          ``# reprolint: disable=RL006`` comment).
RL007     Shared mutable attributes of lock-owning classes are only
          touched inside ``with self.<lock>:`` blocks (or carry a
          ``# reprolint: lockfree`` exemption).
RL008     The project-wide lock acquisition graph is cycle-free (no
          lock-order inversions), and no non-reentrant lock is
          acquired while already held.
RL009     No blocking call (file/socket I/O, ``time.sleep``,
          ``subprocess``, joining a thread) while holding a lock.
RL010     ``threading.Thread`` construction is daemon-explicit and the
          thread is joined or registered for shutdown.
========  ==============================================================

RL007-RL010 are cross-module: they consume the two-pass project model
built by :mod:`tools.reprolint.concurrency`, where the family is
implemented and documented in detail.

Each rule reports a code and message; every report can be silenced on
its line with ``# reprolint: disable=RLxxx`` (see
:mod:`tools.reprolint.engine`).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from tools.reprolint.engine import Finding

if TYPE_CHECKING:
    from tools.reprolint import concurrency

RULES: Dict[str, str] = {
    "RL001": "legacy/global NumPy randomness (route through repro.utils.rng)",
    "RL002": "angle-unit discipline (radians everywhere; use repro.utils.angles)",
    "RL003": "silent complex-to-real narrowing of covariance/subspace math",
    "RL004": "public API function missing a return annotation",
    "RL005": "mutable default argument or bare/broad except",
    "RL006": "exception swallowed by an empty except body",
    "RL007": "shared mutable attribute accessed outside its lock",
    "RL008": "lock-order inversion / nested acquisition of the same lock",
    "RL009": "blocking call while holding a lock",
    "RL010": "thread without explicit daemon= or without join/registration",
}

#: numpy.random attributes that talk to the legacy global-state API (or
#: construct the legacy RandomState).  ``Generator``/``SeedSequence``/
#: ``BitGenerator`` & friends are the modern API and stay allowed.
_LEGACY_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "get_state",
        "set_state",
        "RandomState",
        "beta",
        "binomial",
        "chisquare",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "gumbel",
        "hypergeometric",
        "laplace",
        "logistic",
        "lognormal",
        "logseries",
        "multinomial",
        "multivariate_normal",
        "negative_binomial",
        "noncentral_chisquare",
        "noncentral_f",
        "normal",
        "pareto",
        "poisson",
        "power",
        "rayleigh",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

_TRIG_NAMES = frozenset({"sin", "cos", "tan"})
_ANGLE_CONVERTERS = frozenset({"deg2rad", "rad2deg", "radians", "degrees"})
_DEG_TOKENS = frozenset({"deg", "degs", "degree", "degrees"})

#: Identifier tokens that mark a value as part of the complex
#: covariance/subspace chain (RL003).
_CARRIER_PREFIXES = ("cov", "eig", "subspace", "steer")
_CARRIER_TOKENS = frozenset({"csi", "iq", "snapshot", "snapshots"})

#: Calls whose result is real-valued regardless of their (possibly
#: complex) input — subtrees under these are not complex carriers.
_REAL_PRODUCING = frozenset(
    {"abs", "absolute", "angle", "imag", "norm", "hypot", "isfinite", "isnan", "len"}
)

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque", "bytearray"})


def _path_endswith(path: str, suffix: str) -> bool:
    return PurePosixPath(path).as_posix().endswith(suffix)


def _identifier_tokens(name: str) -> List[str]:
    return name.lower().split("_")


def _has_deg_token(name: str) -> bool:
    return any(token in _DEG_TOKENS for token in _identifier_tokens(name))


def _is_carrier_name(name: str) -> bool:
    for token in _identifier_tokens(name):
        if not token:
            continue
        if token in _CARRIER_TOKENS:
            return True
        if any(token.startswith(prefix) for prefix in _CARRIER_PREFIXES):
            return True
    return False


class _NameScan(ast.NodeVisitor):
    """Collect identifiers in an expression, pruning subtrees rooted at
    calls to real-producing functions (``abs``, ``np.angle``, ...)."""

    def __init__(self) -> None:
        self.names: List[str] = []

    def visit_Call(self, node: ast.Call) -> None:
        callee = _terminal_name(node.func)
        if callee in _REAL_PRODUCING:
            return  # prune: the call's result carries no imaginary part
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self.names.append(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.append(node.attr)
        self.generic_visit(node)


def _scan_names(node: ast.AST) -> List[str]:
    scanner = _NameScan()
    scanner.visit(node)
    return scanner.names


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a ``Name`` or dotted ``Attribute``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-dotted exprs."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


def _is_complex_producing(node: ast.AST) -> bool:
    """Matrix products and einsums over complex arrays stay complex."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in {"einsum", "matmul", "dot", "vdot", "tensordot"}
    return False


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # Names bound to the numpy / numpy.random / math modules.
        self.numpy_aliases: Set[str] = set()
        self.numpy_random_aliases: Set[str] = set()
        self.math_aliases: Set[str] = set()
        # Function names imported directly from numpy / math / numpy.random.
        self.direct_trig: Set[str] = set()
        self.direct_converters: Set[str] = set()
        self._function_depth = 0
        self._in_rng_module = _path_endswith(path, "utils/rng.py")
        self._in_angles_module = _path_endswith(path, "utils/angles.py")
        self._in_repro = "repro" in PurePosixPath(path).parts

    # -- reporting ----------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                code,
                message,
            )
        )

    # -- import tracking ----------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname is not None:
                    self.numpy_random_aliases.add(bound)
                else:
                    self.numpy_aliases.add(bound)
            elif alias.name == "math":
                self.math_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "numpy":
                if alias.name == "random":
                    self.numpy_random_aliases.add(bound)
                elif alias.name in _TRIG_NAMES:
                    self.direct_trig.add(bound)
                elif alias.name in _ANGLE_CONVERTERS:
                    self.direct_converters.add(bound)
            elif module == "math":
                if alias.name in _TRIG_NAMES:
                    self.direct_trig.add(bound)
                elif alias.name in {"radians", "degrees"}:
                    self.direct_converters.add(bound)
            elif module == "numpy.random":
                if not self._in_rng_module and alias.name in _LEGACY_RANDOM:
                    self._report(
                        node,
                        "RL001",
                        f"import of legacy numpy.random.{alias.name}; "
                        "route randomness through repro.utils.rng.ensure_rng",
                    )
        self.generic_visit(node)

    # -- helpers over tracked aliases ---------------------------------

    def _random_attr(self, node: ast.Attribute) -> Optional[str]:
        """``np.random.X`` / ``nprandom.X`` -> ``X``; else ``None``."""
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "random":
            root = value.value
            if isinstance(root, ast.Name) and root.id in self.numpy_aliases:
                return node.attr
        if isinstance(value, ast.Name) and value.id in self.numpy_random_aliases:
            return node.attr
        return None

    def _is_module_func(self, func: ast.AST, modules: Set[str], names: Set[str]) -> bool:
        if isinstance(func, ast.Attribute) and func.attr in names:
            return isinstance(func.value, ast.Name) and func.value.id in modules
        return False

    # -- RL001 / RL002 / RL003: expression checks ---------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._random_attr(node)
        if attr is not None and not self._in_rng_module:
            if attr in _LEGACY_RANDOM:
                self._report(
                    node,
                    "RL001",
                    f"legacy/global numpy randomness 'np.random.{attr}'; "
                    "take an np.random.Generator via repro.utils.rng.ensure_rng",
                )
            elif attr == "default_rng":
                self._report(
                    node,
                    "RL001",
                    "direct np.random.default_rng() construction; "
                    "accept an RngLike and call repro.utils.rng.ensure_rng",
                )
        if node.attr == "real":
            self._check_complex_narrowing(node, node.value, ".real")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rl002_call(node)
        self._check_rl003_call(node)
        self.generic_visit(node)

    def _check_rl002_call(self, node: ast.Call) -> None:
        func = node.func
        # (a) trig on degree-named values.
        is_trig = self._is_module_func(
            func, self.numpy_aliases | self.math_aliases, _TRIG_NAMES
        ) or (isinstance(func, ast.Name) and func.id in self.direct_trig)
        if is_trig:
            for arg in node.args:
                if any(_has_deg_token(name) for name in self._names_outside_conversions(arg)):
                    self._report(
                        node,
                        "RL002",
                        "trigonometric call on a degree-named value; convert with "
                        "repro.utils.angles.deg2rad first",
                    )
                    break
        # (b) raw converters outside utils/angles.py.
        if self._in_angles_module:
            return
        is_converter = self._is_module_func(
            func, self.numpy_aliases, _ANGLE_CONVERTERS
        ) or self._is_module_func(func, self.math_aliases, {"radians", "degrees"})
        if not is_converter and isinstance(func, ast.Name):
            is_converter = func.id in self.direct_converters
        if is_converter and self._in_repro:
            name = _terminal_name(func)
            self._report(
                node,
                "RL002",
                f"raw angle conversion '{name}'; use repro.utils.angles."
                f"{'deg2rad' if name in {'deg2rad', 'radians'} else 'rad2deg'} "
                "so units stay auditable",
            )

    def _names_outside_conversions(self, node: ast.AST) -> List[str]:
        """Names in ``node`` not wrapped by a deg/rad conversion call."""

        class Scan(ast.NodeVisitor):
            def __init__(self) -> None:
                self.names: List[str] = []

            def visit_Call(self, call: ast.Call) -> None:
                callee = _terminal_name(call.func)
                if callee in _ANGLE_CONVERTERS:
                    return  # converted: degree names under here are fine
                self.generic_visit(call)

            def visit_Name(self, name: ast.Name) -> None:
                self.names.append(name.id)

            def visit_Attribute(self, attribute: ast.Attribute) -> None:
                self.names.append(attribute.attr)
                self.generic_visit(attribute)

        scanner = Scan()
        scanner.visit(node)
        return scanner.names

    def _check_rl003_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float" and len(node.args) == 1:
            self._check_complex_narrowing(node, node.args[0], "float()")
        elif self._is_module_func(func, self.numpy_aliases, {"real"}) and node.args:
            self._check_complex_narrowing(node, node.args[0], "np.real()")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and _terminal_name(node.args[0]) in {"float", "float64", "float32"}
        ):
            self._check_complex_narrowing(node, func.value, ".astype(float)")

    def _check_complex_narrowing(
        self, node: ast.AST, value: ast.AST, how: str
    ) -> None:
        carrier = any(_is_carrier_name(name) for name in _scan_names(value))
        if carrier or _is_complex_producing(value):
            self._report(
                node,
                "RL003",
                f"{how} silently drops the imaginary part of covariance/subspace "
                "math; use np.abs/np.angle, or justify with a disable comment",
            )

    # -- RL004: public return annotations -----------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def _check_function(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        public_api = (
            self._in_repro
            and self._function_depth == 0
            and not node.name.startswith("_")
        )
        if public_api and node.returns is None:
            self._report(
                node,
                "RL004",
                f"public function '{node.name}' is missing a return annotation",
            )
        self._check_defaults(node)
        self._function_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._function_depth -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Methods of a class count as module-level API, not nested defs.
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._function_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._function_depth -= 1

    # -- RL005: mutable defaults and broad excepts --------------------

    def _check_defaults(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                self._report(
                    default,
                    "RL005",
                    f"mutable default argument in '{node.name}'; "
                    "default to None and build inside the body",
                )
            elif (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in _MUTABLE_CALLS
            ):
                self._report(
                    default,
                    "RL005",
                    f"mutable default argument (call) in '{node.name}'; "
                    "default to None and build inside the body",
                )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "RL005", "bare 'except:'; catch a specific exception type"
            )
        else:
            exception_types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for exc_type in exception_types:
                if _terminal_name(exc_type) in {"Exception", "BaseException"}:
                    self._report(
                        node,
                        "RL005",
                        f"broad 'except {_terminal_name(exc_type)}'; catch a "
                        "specific exception type (repro.errors has the taxonomy)",
                    )
                    break
        self._check_swallow(node)
        self.generic_visit(node)

    # -- RL006: silently swallowed exceptions -------------------------

    def _check_swallow(self, node: ast.ExceptHandler) -> None:
        """Flag handlers whose whole body is ``pass``/``...`` (RL006)."""
        meaningful = [
            stmt
            for stmt in node.body
            if not (
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and (
                        stmt.value.value is Ellipsis
                        or isinstance(stmt.value.value, str)
                    )
                )
            )
        ]
        if not meaningful:
            self._report(
                node,
                "RL006",
                "exception silently swallowed ('except ...: pass'); handle "
                "it, count it (repro.obs / health tracking) or re-raise",
            )


def run_rules(
    tree: ast.AST,
    source: str,
    path: str,
    model: Optional["concurrency.ProjectModel"] = None,
) -> Sequence[Finding]:
    """Run every rule over one parsed module.

    ``model`` carries the cross-module state the concurrency family
    needs; when absent a single-file model is built on the spot so the
    per-file rules of the family still run.
    """
    from tools.reprolint import concurrency

    checker = _Checker(path)
    checker.visit(tree)
    findings = list(checker.findings)
    if model is None:
        model = concurrency.build_project_model([(path, tree, source)])
    findings.extend(concurrency.run_concurrency_rules(tree, path, model))
    return findings
