"""The simcheck rule catalog and the determinism checker (RPR001..RPR006).

:data:`RULES` is the one catalog: every rule any pass can report, with a
stable ID, a one-line summary and a fix-it hint.  RPR0xx are the
per-module determinism rules checked here; RPR1xx/2xx/3xx belong to the
whole-program passes in :mod:`repro.analysis.passes`.

Each RPR0xx rule names one hazard class that historically breaks
bit-stable simulation (``SubCore.ready`` once iterated a set, RPR001's
class).  There is no per-line escape hatch: a determinism finding is
fixed, not silenced.

The checker is deliberately self-contained AST analysis — no third-party
lint framework — so the gate runs anywhere the simulator does.

What counts as "set-like" for RPR001/RPR002 is a conservative local
inference: ``set``/``frozenset`` literals, comprehensions and constructor
calls, plus local names assigned such a value in the same scope.  Dict
*views* are not flagged: since Python 3.7 dict iteration follows insertion
order, so a dict built from deterministic input iterates deterministically
(the determinism contract instead requires that dicts are *populated* in
deterministic order, which these rules enforce at the set boundary).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .project import MUTABLE_FACTORIES


@dataclass(frozen=True)
class Rule:
    """One rule: stable ID, summary and a fix-it hint."""

    rule_id: str
    summary: str
    hint: str


@dataclass(frozen=True)
class Finding:
    """One located finding of a catalogued rule."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    @property
    def hint(self) -> str:
        return RULES[self.rule_id].hint

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} "
            f"{self.message} (fix: {self.hint})"
        )

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotation for this finding."""
        message = f"{self.message} (fix: {self.hint})".replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},col={self.col + 1},"
            f"title=simcheck {self.rule_id}::{message}"
        )


RULES: Dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule(
            "RPR000",
            "module does not parse",
            "fix the syntax error; no other rule checks the file until it parses",
        ),
        Rule(
            "RPR001",
            "iteration over a set/frozenset (hash order feeds the result)",
            "iterate a list/tuple, or sort with an explicit total-order key; "
            "for scheduler pools use an insertion-ordered dict-as-set",
        ),
        Rule(
            "RPR002",
            "sorted() on a set/frozenset without a key",
            "pass an explicit key that totally orders the elements; "
            "without one, elements comparing equal keep hash order",
        ),
        Rule(
            "RPR003",
            "unseeded or global RNG use",
            "use numpy.random.default_rng(seed) with a seed derived from "
            "stable identifiers (see repro.workloads)",
        ),
        Rule(
            "RPR004",
            "wall-clock read (time.time / datetime.now)",
            "simulation state must not depend on real time; derive cycles "
            "from the model clock, keep wall time to observability code",
        ),
        Rule(
            "RPR005",
            "id()/hash() value in model code",
            "object addresses and hashes vary across processes; key on "
            "stable identifiers (warp_id, sm_id, names) instead",
        ),
        Rule(
            "RPR006",
            "mutable default argument",
            "default to None and create the list/dict/set inside the "
            "function body",
        ),
        Rule(
            "RPR101",
            "allocation in a cycle-hot function",
            "hoist the allocation out of the per-cycle path or reuse a "
            "preallocated buffer; if the work is inherent to the model, "
            "justify with `# simcheck: hot-ok -- reason`",
        ),
        Rule(
            "RPR102",
            "try/except inside a loop in a cycle-hot function",
            "hoist the try outside the loop, or restructure with a lookup "
            "that cannot raise",
        ),
        Rule(
            "RPR103",
            "deep attribute chain re-read in a cycle-hot function",
            "hoist the chain's prefix into a local once and index through it",
        ),
        Rule(
            "RPR104",
            "stale or unknown simcheck annotation",
            "remove the annotation (it no longer suppresses a finding) or fix "
            "the tag spelling",
        ),
        Rule(
            "RPR201",
            "mutable attribute mutated outside reset paths but never re-initialized",
            "re-initialize or .clear() it in begin_run()/reset(), or declare "
            "`# simcheck: persistent -- reason` on the __init__ assignment",
        ),
        Rule(
            "RPR202",
            "reassigned attribute never re-initialized in a reset path",
            "assign its initial value in begin_run()/reset() (`+=` is not a "
            "re-initialization), or declare `# simcheck: persistent -- reason`",
        ),
        Rule(
            "RPR203",
            "owned component with a reset hook is never cascaded",
            "call self.<attr>.begin_run()/reset() from the owner's reset path "
            "(or rebuild the component there)",
        ),
        Rule(
            "RPR301",
            "versioned model contract changed without acknowledgment",
            "bump the contract's version constant if on-disk artifacts change "
            "meaning, then refresh analysis/contracts.json with "
            "`python -m repro.analysis --update-contracts`",
        ),
        Rule(
            "RPR302",
            "config field is never read by the model",
            "wire the field into the model (or validate it) so sweeps over it "
            "mean something, or delete it",
        ),
        Rule(
            "RPR303",
            "stats declaration out of lockstep with the field list",
            "keep the SMStats construction, conservation tuples and "
            "to_payload() covering every dataclass field",
        ),
    )
}


def rule_listing() -> str:
    """Human-readable table of every rule (``--list-rules``)."""
    lines = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"{rule_id}  {rule.summary}")
        lines.append(f"        fix: {rule.hint}")
    return "\n".join(lines)


#: Legacy module-level numpy.random functions (global-state RNG).
_NP_RANDOM_LEGACY = frozenset(
    {
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "poisson", "exponential", "binomial",
        "beta", "gamma", "bytes", "random_integers", "get_state", "set_state",
    }
)

#: Wall-clock callables, keyed by (module, attribute).
_WALL_CLOCK = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

@dataclass
class RawFinding:
    """A determinism finding inside one module (the pass adds the path)."""

    rule_id: str
    line: int
    col: int
    message: str


class _Scope:
    """Names locally known to hold set-like values."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.set_names: Set[str] = set()
        #: Names assigned anything *else* shadow an outer set name.
        self.other_names: Set[str] = set()

    def mark(self, name: str, is_set: bool) -> None:
        if is_set:
            self.set_names.add(name)
            self.other_names.discard(name)
        else:
            self.other_names.add(name)
            self.set_names.discard(name)

    def is_set_name(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.set_names:
                return True
            if name in scope.other_names:
                return False
            scope = scope.parent
        return False


class DeterminismChecker(ast.NodeVisitor):
    """Single-pass AST walk collecting RPR001..RPR006 findings."""

    def __init__(self) -> None:
        self.findings: List[RawFinding] = []
        self._scope = _Scope()
        #: Aliases of the stdlib ``random`` module (import random as r).
        self._random_aliases: Set[str] = set()
        #: Aliases of numpy itself (import numpy as np).
        self._numpy_aliases: Set[str] = set()
        #: Aliases of numpy.random (import numpy.random as npr / from
        #: numpy import random).
        self._np_random_aliases: Set[str] = set()
        #: Names imported directly from the stdlib random module.
        self._random_names: Set[str] = set()
        #: Aliases of the time / datetime modules and their classes.
        self._time_aliases: Set[str] = set()
        self._datetime_mod_aliases: Set[str] = set()
        self._datetime_cls_aliases: Set[str] = set()
        self._date_cls_aliases: Set[str] = set()
        #: Names imported directly that read the wall clock.
        self._wall_clock_names: Set[str] = set()

    # -- helpers -----------------------------------------------------------

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawFinding(rule_id, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)
        )

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Conservative: does this expression evaluate to a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return self._scope.is_set_name(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra: s | t, s & t, s - t, s ^ t
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr, context: str) -> None:
        if self._is_set_expr(iter_node):
            self._report(
                "RPR001",
                iter_node,
                f"{context} iterates a set/frozenset; element order is "
                "hash order and varies across processes",
            )

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                # ``import numpy.random`` binds "numpy"
                self._numpy_aliases.add(bound)
                if alias.name == "numpy.random" and alias.asname:
                    self._np_random_aliases.add(alias.asname)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "datetime":
                self._datetime_mod_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self._random_names.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                self._np_random_aliases.add(bound)
            elif node.module == "time" and alias.name in (
                "time", "time_ns", "localtime", "gmtime", "ctime"
            ):
                self._wall_clock_names.add(bound)
            elif node.module == "datetime":
                if alias.name == "datetime":
                    self._datetime_cls_aliases.add(bound)
                elif alias.name == "date":
                    self._date_cls_aliases.add(bound)
        self.generic_visit(node)

    # -- scopes and assignments ---------------------------------------------

    def _visit_function(self, node) -> None:
        self._check_mutable_defaults(node)
        outer = self._scope
        self._scope = _Scope(parent=outer)
        for arg in list(node.args.args) + list(node.args.posonlyargs) + list(node.args.kwonlyargs):
            ann = arg.annotation
            is_set_ann = False
            if ann is not None:
                ann_src = ast.dump(ann)
                is_set_ann = "'set'" in ann_src.lower() or "'frozenset'" in ann_src.lower()
            self._scope.mark(arg.arg, is_set_ann)
        self.generic_visit(node)
        self._scope = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._scope
        self._scope = _Scope(parent=outer)
        self.generic_visit(node)
        self._scope = outer

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scope.mark(target.id, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ann_src = ast.dump(node.annotation).lower()
            is_set = (
                "'set'" in ann_src
                or "'frozenset'" in ann_src
                or (node.value is not None and self._is_set_expr(node.value))
            )
            self._scope.mark(node.target.id, is_set)
        self.generic_visit(node)

    # -- RPR001: set iteration ----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- calls: RPR001 (conversions), RPR002..RPR005 -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("list", "tuple", "enumerate", "iter", "next") and node.args:
                if self._is_set_expr(node.args[0]):
                    self._report(
                        "RPR001",
                        node,
                        f"{name}() materializes a set's hash order",
                    )
            elif name == "sorted" and node.args:
                has_key = any(kw.arg == "key" for kw in node.keywords)
                if not has_key and self._is_set_expr(node.args[0]):
                    self._report(
                        "RPR002",
                        node,
                        "sorted() over a set without key=; elements that "
                        "compare equal keep hash order",
                    )
            elif name in ("id", "hash") and node.args:
                self._report(
                    "RPR005",
                    node,
                    f"{name}() varies across processes; never let it reach "
                    "model state",
                )
            elif name in self._random_names:
                self._report(
                    "RPR003",
                    node,
                    f"stdlib random.{name}() uses the global unseeded RNG",
                )
            elif name in self._wall_clock_names:
                self._report("RPR004", node, f"{name}() reads the wall clock")
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        base = func.value
        # stdlib random module: random.<anything>()
        if isinstance(base, ast.Name) and base.id in self._random_aliases:
            self._report(
                "RPR003",
                node,
                f"stdlib random.{attr}() uses the global unseeded RNG",
            )
            return
        # numpy.random.<fn>() — either via np.random.<fn> or an alias of
        # numpy.random itself.
        np_random_base = (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in self._numpy_aliases
        ) or (isinstance(base, ast.Name) and base.id in self._np_random_aliases)
        if np_random_base:
            if attr in _NP_RANDOM_LEGACY:
                self._report(
                    "RPR003",
                    node,
                    f"numpy.random.{attr}() drives the legacy global RNG",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                self._report(
                    "RPR003",
                    node,
                    "numpy.random.default_rng() without a seed draws OS "
                    "entropy",
                )
            return
        # wall clock: time.time(), datetime.datetime.now(), ...
        if isinstance(base, ast.Name):
            if base.id in self._time_aliases and ("time", attr) in _WALL_CLOCK:
                self._report("RPR004", node, f"time.{attr}() reads the wall clock")
                return
            if base.id in self._datetime_cls_aliases and ("datetime", attr) in _WALL_CLOCK:
                self._report("RPR004", node, f"datetime.{attr}() reads the wall clock")
                return
            if base.id in self._date_cls_aliases and ("date", attr) in _WALL_CLOCK:
                self._report("RPR004", node, f"date.{attr}() reads the wall clock")
                return
        # datetime.datetime.now() via the module
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in self._datetime_mod_aliases
            and base.attr in ("datetime", "date")
            and (base.attr if base.attr == "date" else "datetime", attr) in _WALL_CLOCK
        ):
            self._report(
                "RPR004", node, f"datetime.{base.attr}.{attr}() reads the wall clock"
            )

    # -- RPR006: mutable defaults --------------------------------------------

    def _check_mutable_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_FACTORIES
            ):
                mutable = True
            if mutable:
                self._report(
                    "RPR006",
                    default,
                    f"mutable default argument in {node.name}(); the object "
                    "is shared across calls",
                )


def check_tree(tree: ast.AST) -> List[RawFinding]:
    """All raw findings for one parsed module."""
    checker = DeterminismChecker()
    checker.visit(tree)
    return checker.findings
