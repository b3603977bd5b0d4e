"""The shared whole-program model behind simcheck v2's analysis passes.

A :class:`ProjectModel` is built once per ``--check-all`` run and handed to
every pass: per-module ASTs, a symbol table of classes and functions, each
class's ``__init__`` attribute map (with mutability/ownership/type
inference), and the ``# simcheck:`` annotation index.

The model is deliberately *syntactic*: everything is derived from the ASTs
of one package tree, with a small, documented type-inference core —
enough to resolve ``self.memory.begin_run()`` to a concrete class without
importing (or executing) any simulator code.

Annotation grammar (one per line, reason optional)::

    # simcheck: persistent -- cumulative statistic; snapshot/delta reported
    # simcheck: reset-hook
    # simcheck: cold
    # simcheck: hot-ok -- work-stealing upper-bound study

``persistent`` (on an ``__init__`` attribute assignment) exempts the
attribute from the reset-completeness rules; ``reset-hook`` (on a ``def``)
marks an additional reset entry point besides ``begin_run``/``reset``;
``cold`` (on a ``def``) removes a function from the cycle-hot set; and
``hot-ok`` (on a ``def`` or an offending line) accepts hot-path findings
with a recorded justification.  See ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: ``# simcheck: <tag>`` with an optional ``-- reason`` tail.
SIMCHECK_RE = re.compile(
    r"#\s*simcheck:\s*(?P<tag>[a-z][a-z-]*)(?:\s*--\s*(?P<reason>.*\S))?"
)

TAG_PERSISTENT = "persistent"
TAG_RESET_HOOK = "reset-hook"
TAG_COLD = "cold"
TAG_HOT_OK = "hot-ok"

KNOWN_TAGS = frozenset({TAG_PERSISTENT, TAG_RESET_HOOK, TAG_COLD, TAG_HOT_OK})

#: Builtin factory calls that allocate a fresh mutable container.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)

#: Container heads recognised in type annotations.
_CONTAINER_HEADS = {
    "List": "list",
    "list": "list",
    "Dict": "dict",
    "dict": "dict",
    "Set": "set",
    "set": "set",
    "DefaultDict": "dict",
    "Deque": "list",
    "deque": "list",
}

#: Method names that mutate a container in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "remove",
        "discard",
        "clear",
        "extend",
        "insert",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Free functions that mutate their first argument (heapq protocol).
MUTATOR_FUNCTIONS = frozenset({"heappush", "heappop", "heapify", "heappushpop", "heapreplace"})

#: Method names that count as a reset hook on a component.
RESET_HOOK_NAMES = ("begin_run", "reset")


class Annotation(NamedTuple):
    """One ``# simcheck:`` comment."""

    tag: str
    reason: Optional[str]


class TypeRef(NamedTuple):
    """An inferred attribute type: optionally a container of project class."""

    container: Optional[str]  # None | "list" | "dict" | "set"
    cls: str                  # project class name


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str                       # dotted ("repro.core.sm")
    path: str                       # filesystem path as given
    tree: ast.Module
    annotations: Dict[int, Annotation]  # line number -> simcheck annotation
    source_lines: List[str]


@dataclass
class FunctionInfo:
    """A module-level function or a method."""

    name: str                      # bare name
    qualname: str                  # "Class.method" or "function"
    fid: str                       # globally unique: "<module>.<qualname>"
    module: str
    path: str
    node: ast.FunctionDef
    class_name: Optional[str]
    annotation: Optional[Annotation]  # simcheck tag on the ``def`` line


@dataclass
class AttrInfo:
    """One ``self.X = ...`` attribute assigned in ``__init__``."""

    name: str
    lineno: int
    path: str
    annotation: Optional[Annotation]
    #: The assigned value is (or contains) a freshly allocated mutable
    #: container (display, comprehension, factory call, ``[x] * n``).
    mutable_container: bool
    #: The value is constructed here (class/factory call or a
    #: display/comprehension of such calls) rather than received from a
    #: parameter or derived from existing state — construction implies
    #: reset responsibility.
    owned: bool
    type: Optional[TypeRef]
    #: Methods (other than ``__init__``) that rebind the attribute.
    reassigned_in: Set[str] = field(default_factory=set)
    #: Methods (other than ``__init__``) that mutate it in place.
    mutated_in: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One project class with its own (un-flattened) members."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: List[str]               # base names that resolve within the project
    methods: Dict[str, FunctionInfo]
    attrs: Dict[str, AttrInfo]


class ProjectModel:
    """Symbol table + attribute maps over one package tree."""

    def __init__(self, root: Path):
        self.root = root
        self.package = root.name
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}        # by fid
        self.module_functions: Dict[str, List[FunctionInfo]] = {}  # bare name
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.subclasses: Dict[str, List[str]] = {}
        #: Files that do not parse, by path; no pass sees their contents.
        self.parse_errors: Dict[str, SyntaxError] = {}

    # -- lookups -----------------------------------------------------------

    def is_project_class(self, name: str) -> bool:
        return name in self.classes

    def mro(self, class_name: str) -> List[ClassInfo]:
        """The class and its project bases, subclass-first (depth-first)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop(0)
            if name in seen or name not in self.classes:
                continue
            seen.add(name)
            info = self.classes[name]
            out.append(info)
            stack.extend(info.bases)
        return out

    def flattened_attrs(self, class_name: str) -> Dict[str, AttrInfo]:
        """``__init__`` attributes of the class and its bases (subclass wins)."""
        attrs: Dict[str, AttrInfo] = {}
        for info in reversed(self.mro(class_name)):
            attrs.update(info.attrs)
        return attrs

    def resolve_method(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        """Resolve ``method`` on ``class_name`` walking project bases."""
        for info in self.mro(class_name):
            if method in info.methods:
                return info.methods[method]
        return None

    def hierarchy_methods(self, class_name: str, method: str) -> List[FunctionInfo]:
        """All implementations of ``method`` across the class's subtree."""
        out: List[FunctionInfo] = []
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is not None and method in info.methods:
                out.append(info.methods[method])
            stack.extend(self.subclasses.get(name, ()))
        return out

    def annotation_at(self, module: str, line: int) -> Optional[Annotation]:
        info = self.modules.get(module)
        if info is None:
            return None
        return info.annotations.get(line)

    def reset_hooks(self, class_name: str) -> List[FunctionInfo]:
        """Reset entry points of a class: named hooks + ``reset-hook`` tags."""
        hooks: List[FunctionInfo] = []
        seen: Set[str] = set()
        for info in self.mro(class_name):
            for meth in info.methods.values():
                if meth.name in seen:
                    continue
                tagged = meth.annotation is not None and meth.annotation.tag == TAG_RESET_HOOK
                if meth.name in RESET_HOOK_NAMES or tagged:
                    hooks.append(meth)
                    seen.add(meth.name)
        return hooks

    def has_reset_hook(self, class_name: str) -> bool:
        return bool(self.reset_hooks(class_name))

    # -- type resolution ---------------------------------------------------

    def resolve_annotation(self, expr: Optional[ast.expr]) -> Optional[TypeRef]:
        """TypeRef named by a type annotation, unwrapping Optional/containers."""
        if expr is None:
            return None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Name):
            if self.is_project_class(expr.id):
                return TypeRef(None, expr.id)
            return None
        if isinstance(expr, ast.Attribute):
            if self.is_project_class(expr.attr):
                return TypeRef(None, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            head = expr.value
            if not isinstance(head, (ast.Name, ast.Attribute)):
                return None
            head_name = head.id if isinstance(head, ast.Name) else head.attr
            slice_expr: ast.expr = expr.slice
            if head_name == "Optional":
                return self.resolve_annotation(slice_expr)
            if head_name == "Union":
                if isinstance(slice_expr, ast.Tuple):
                    for elt in slice_expr.elts:
                        ref = self.resolve_annotation(elt)
                        if ref is not None:
                            return ref
                return None
            container = _CONTAINER_HEADS.get(head_name)
            if container is None:
                return None
            if container == "dict" and isinstance(slice_expr, ast.Tuple) and len(slice_expr.elts) == 2:
                value_ref = self.resolve_annotation(slice_expr.elts[1])
                if value_ref is not None and value_ref.container is None:
                    return TypeRef("dict", value_ref.cls)
                return None
            elem = slice_expr.elts[0] if isinstance(slice_expr, ast.Tuple) and slice_expr.elts else slice_expr
            elem_ref = self.resolve_annotation(elem)
            if elem_ref is not None and elem_ref.container is None:
                return TypeRef(container, elem_ref.cls)
            return None
        return None

    def annotation_is_container(self, expr: Optional[ast.expr]) -> bool:
        """Whether a type annotation names a mutable container."""
        if expr is None:
            return False
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return False
        if isinstance(expr, ast.Name):
            return expr.id in _CONTAINER_HEADS
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            head = expr.value.id
            if head == "Optional" or head == "Union":
                slc: ast.expr = expr.slice
                if isinstance(slc, ast.Tuple):
                    return any(self.annotation_is_container(e) for e in slc.elts)
                return self.annotation_is_container(slc)
            return head in _CONTAINER_HEADS
        return False

    def function_return_type(self, name: str) -> Optional[TypeRef]:
        """Return TypeRef of a project function resolved by bare name."""
        for fn in self.module_functions.get(name, ()):
            ref = self.resolve_annotation(fn.node.returns)
            if ref is not None:
                return ref
        return None

    def function_returns_container(self, name: str) -> bool:
        for fn in self.module_functions.get(name, ()):
            if self.annotation_is_container(fn.node.returns):
                return True
        return False


# -- value classification -----------------------------------------------------


class ValueFacts(NamedTuple):
    mutable: bool
    owned: bool
    type: Optional[TypeRef]


def _classify_value(
    project: ProjectModel, expr: ast.expr, param_types: Dict[str, Optional[TypeRef]]
) -> ValueFacts:
    """Mutability / ownership / type facts of one ``__init__`` value."""
    if isinstance(expr, ast.IfExp):
        body = _classify_value(project, expr.body, param_types)
        orelse = _classify_value(project, expr.orelse, param_types)
        return ValueFacts(
            mutable=body.mutable or orelse.mutable,
            owned=body.owned or orelse.owned,
            type=body.type if body.type is not None else orelse.type,
        )
    if isinstance(expr, (ast.List, ast.Set, ast.Dict)):
        elem_type: Optional[TypeRef] = None
        if isinstance(expr, ast.List) and expr.elts:
            first = _classify_value(project, expr.elts[0], param_types)
            if first.type is not None and first.type.container is None:
                elem_type = TypeRef("list", first.type.cls)
        owned = True
        return ValueFacts(mutable=True, owned=owned, type=elem_type)
    if isinstance(expr, (ast.ListComp, ast.SetComp)):
        elem = _classify_value(project, expr.elt, param_types)
        container = "list" if isinstance(expr, ast.ListComp) else "set"
        elem_type = (
            TypeRef(container, elem.type.cls)
            if elem.type is not None and elem.type.container is None
            else None
        )
        return ValueFacts(mutable=True, owned=elem.owned, type=elem_type)
    if isinstance(expr, ast.DictComp):
        value = _classify_value(project, expr.value, param_types)
        elem_type = (
            TypeRef("dict", value.type.cls)
            if value.type is not None and value.type.container is None
            else None
        )
        return ValueFacts(mutable=True, owned=value.owned, type=elem_type)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
        if isinstance(expr.left, ast.List) or isinstance(expr.right, ast.List):
            return ValueFacts(mutable=True, owned=True, type=None)
        return ValueFacts(False, False, None)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            name = func.id
            if project.is_project_class(name):
                return ValueFacts(mutable=False, owned=True, type=TypeRef(None, name))
            if name in MUTABLE_FACTORIES:
                return ValueFacts(mutable=True, owned=True, type=None)
            ref = project.function_return_type(name)
            if ref is not None:
                return ValueFacts(mutable=False, owned=True, type=ref)
            if project.function_returns_container(name):
                return ValueFacts(mutable=True, owned=True, type=None)
            return ValueFacts(False, False, None)
        if isinstance(func, ast.Attribute) and func.attr in MUTABLE_FACTORIES:
            return ValueFacts(mutable=True, owned=True, type=None)
        return ValueFacts(False, False, None)
    if isinstance(expr, ast.Name):
        ref = param_types.get(expr.id)
        # Received, not constructed: the caller owns (and resets) it.
        return ValueFacts(mutable=False, owned=False, type=ref)
    return ValueFacts(False, False, None)


# -- scanning -----------------------------------------------------------------


def _self_attr(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` is ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class AttrUseScanner(ast.NodeVisitor):
    """Alias-aware scan of one method for self-attribute uses.

    Records, per attribute of ``self``: rebinds (``self.X = ...``),
    in-place mutations (subscript stores, mutator-method calls, heapq
    calls), explicit clears, element iteration, and reset-hook cascades
    (``self.X.begin_run()`` / ``for v in self.X: v.begin_run()``).
    Aliases are tracked one level deep (``q = self.X`` and loop variables
    over ``self.X`` / ``self.X.values()``).
    """

    def __init__(self) -> None:
        self.rebinds: Set[str] = set()
        #: ``self.X += ...`` — reads the stale value, so it is an *update*,
        #: never a re-initialization.
        self.augments: Set[str] = set()
        self.mutations: Set[str] = set()
        self.clears: Set[str] = set()
        self.cascaded: Set[str] = set()
        self.self_calls: Set[str] = set()
        self.super_calls: Set[str] = set()
        self._aliases: Dict[str, str] = {}       # local name -> attr
        self._loop_elems: Dict[str, str] = {}    # loop var -> attr iterated

    # -- helpers -----------------------------------------------------------

    def _attr_of(self, node: ast.expr) -> Optional[str]:
        attr = _self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        return None

    def _record_store(self, target: ast.expr) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self.rebinds.add(attr)
            return
        if isinstance(target, ast.Subscript):
            base = self._attr_of(target.value)
            if base is not None:
                self.mutations.add(base)
                self.clears.add(base)  # a subscript re-init counts as reset
            # ``self.X[...]`` through a chained attribute: self.a.b[...] is
            # a mutation of ``a``'s referent, not of ``self.a`` itself.
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt)

    # -- visitors ----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # Alias tracking: ``local = self.X``.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            attr = _self_attr(node.value)
            if attr is not None:
                self._aliases[node.targets[0].id] = attr
        for target in node.targets:
            self._record_store(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            self.augments.add(attr)
        elif isinstance(node.target, ast.Subscript):
            base = self._attr_of(node.target.value)
            if base is not None:
                self.mutations.add(base)
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        # ``for v in self.X:`` / ``for v in self.X.values():``
        iter_attr = self._attr_of(node.iter)
        if iter_attr is None and isinstance(node.iter, ast.Call):
            func = node.iter.func
            if isinstance(func, ast.Attribute) and func.attr in ("values", "items", "keys"):
                iter_attr = self._attr_of(func.value)
        if iter_attr is not None and isinstance(node.target, ast.Name):
            self._loop_elems[node.target.id] = iter_attr
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            recv = func.value
            attr = self._attr_of(recv)
            if attr is not None:
                if func.attr in MUTATOR_METHODS:
                    self.mutations.add(attr)
                    if func.attr == "clear":
                        self.clears.add(attr)
                if func.attr in RESET_HOOK_NAMES:
                    self.cascaded.add(attr)
            elif isinstance(recv, ast.Name) and recv.id in self._loop_elems:
                base = self._loop_elems[recv.id]
                if func.attr in RESET_HOOK_NAMES:
                    self.cascaded.add(base)
                if func.attr == "clear":
                    self.clears.add(base)
                    self.mutations.add(base)
            elif isinstance(recv, ast.Subscript):
                base = self._attr_of(recv.value)
                if base is not None and func.attr in MUTATOR_METHODS:
                    # ``self.queues[bank].append(...)`` mutates ``queues``'
                    # contents.
                    self.mutations.add(base)
            elif isinstance(recv, ast.Call) and isinstance(recv.func, ast.Name) and recv.func.id == "super":
                self.super_calls.add(func.attr)
            # ``self.m(...)`` intra-class call.
            if isinstance(recv, ast.Name) and recv.id == "self":
                self.self_calls.add(func.attr)
            # heapq-style free-function mutation through an attribute
            # (``heapq.heappush(self.X, ...)``).
            if func.attr in MUTATOR_FUNCTIONS:
                for arg in node.args[:1]:
                    target = self._attr_of(arg)
                    if target is not None:
                        self.mutations.add(target)
        elif isinstance(func, ast.Name) and func.id in MUTATOR_FUNCTIONS:
            for arg in node.args[:1]:
                target = self._attr_of(arg)
                if target is not None:
                    self.mutations.add(target)
        self.generic_visit(node)


def scan_method(node: ast.FunctionDef) -> AttrUseScanner:
    scanner = AttrUseScanner()
    for stmt in node.body:
        scanner.visit(stmt)
    return scanner


# -- construction -------------------------------------------------------------


def _scan_annotations(source: str) -> Dict[int, Annotation]:
    """``# simcheck:`` annotations by line, from real comment tokens only.

    Tokenizing (rather than regex-scanning raw lines) keeps annotation
    *examples* inside docstrings and string literals from registering as
    live annotations.  Runs only on source :func:`ast.parse` accepted.
    """
    out: Dict[int, Annotation] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        match = SIMCHECK_RE.search(tok.string)
        if match is not None:
            out[tok.start[0]] = Annotation(match.group("tag"), match.group("reason"))
    return out


def _module_name(root: Path, path: Path) -> str:
    rel = path.relative_to(root)
    parts = [root.name] + list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def _param_types(project: ProjectModel, node: ast.FunctionDef) -> Dict[str, Optional[TypeRef]]:
    out: Dict[str, Optional[TypeRef]] = {}
    args = list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs)
    for arg in args:
        if arg.arg == "self":
            continue
        out[arg.arg] = project.resolve_annotation(arg.annotation)
    return out


def _collect_attrs(
    project: ProjectModel, cls: ClassInfo, init: FunctionInfo, module: ModuleInfo
) -> Dict[str, AttrInfo]:
    params = _param_types(project, init.node)
    attrs: Dict[str, AttrInfo] = {}

    for stmt in ast.walk(init.node):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        ann: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value, ann = stmt.target, stmt.value, stmt.annotation
        else:
            continue
        name = _self_attr(target)
        if name is None or name in attrs or value is None:
            continue
        facts = _classify_value(project, value, params)
        mutable = facts.mutable or project.annotation_is_container(ann)
        type_ref = facts.type
        ann_ref = project.resolve_annotation(ann)
        if ann_ref is not None:
            type_ref = ann_ref
        attrs[name] = AttrInfo(
            name=name,
            lineno=stmt.lineno,
            path=module.path,
            annotation=module.annotations.get(stmt.lineno),
            mutable_container=mutable,
            owned=facts.owned,
            type=type_ref,
        )

    # Mutation scan over the other methods.
    for meth_name, meth in cls.methods.items():
        if meth_name == "__init__":
            continue
        scanner = scan_method(meth.node)
        for attr in scanner.rebinds | scanner.augments:
            if attr in attrs:
                attrs[attr].reassigned_in.add(meth_name)
        for attr in scanner.mutations:
            if attr in attrs:
                attrs[attr].mutated_in.add(meth_name)
    return attrs


def build_project(root: Path, paths: Optional[Sequence[Path]] = None) -> ProjectModel:
    """Parse every module under ``root`` into a :class:`ProjectModel`."""
    project = ProjectModel(root)
    files: Iterable[Path] = paths if paths is not None else sorted(root.rglob("*.py"))

    # Pass 1: parse, register modules / classes / functions.
    for file in files:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            project.parse_errors[str(file)] = exc  # reported as RPR000
            continue
        module = ModuleInfo(
            name=_module_name(root, file),
            path=str(file),
            tree=tree,
            annotations=_scan_annotations(source),
            source_lines=source.splitlines(),
        )
        project.modules[module.name] = module

        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods: Dict[str, FunctionInfo] = {}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        fn = FunctionInfo(
                            name=item.name,
                            qualname=f"{node.name}.{item.name}",
                            fid=f"{module.name}.{node.name}.{item.name}",
                            module=module.name,
                            path=module.path,
                            node=item,
                            class_name=node.name,
                            annotation=module.annotations.get(item.lineno),
                        )
                        methods[item.name] = fn
                        project.functions[fn.fid] = fn
                        project.methods_by_name.setdefault(item.name, []).append(fn)
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                info = ClassInfo(
                    name=node.name,
                    module=module.name,
                    path=module.path,
                    node=node,
                    bases=bases,
                    methods=methods,
                    attrs={},
                )
                # First definition wins on (unlikely) name collisions.
                project.classes.setdefault(node.name, info)
            elif isinstance(node, ast.FunctionDef):
                fn = FunctionInfo(
                    name=node.name,
                    qualname=node.name,
                    fid=f"{module.name}.{node.name}",
                    module=module.name,
                    path=module.path,
                    node=node,
                    class_name=None,
                    annotation=module.annotations.get(node.lineno),
                )
                project.functions[fn.fid] = fn
                project.module_functions.setdefault(node.name, []).append(fn)

    # Subclass index (project bases only).
    for info in project.classes.values():
        for base in info.bases:
            if base in project.classes:
                project.subclasses.setdefault(base, []).append(info.name)

    # Pass 2: attribute maps (needs the full symbol table for inference).
    for info in project.classes.values():
        init = info.methods.get("__init__")
        if init is not None:
            info.attrs = _collect_attrs(project, info, init, project.modules[info.module])

    return project


def reset_closure(project: ProjectModel, class_name: str) -> Tuple[Set[str], AttrUseScanner]:
    """Methods reachable from the class's reset hooks via self-calls.

    Returns ``(method names, merged scan)`` where the scan aggregates
    resets / clears / cascades observed across the whole closure.
    """
    merged = AttrUseScanner()
    hooks = project.reset_hooks(class_name)
    pending: List[FunctionInfo] = list(hooks)
    visited: Set[str] = set()
    names: Set[str] = set()
    while pending:
        meth = pending.pop()
        if meth.fid in visited:
            continue
        visited.add(meth.fid)
        names.add(meth.name)
        scan = scan_method(meth.node)
        merged.rebinds |= scan.rebinds
        merged.augments |= scan.augments
        merged.mutations |= scan.mutations
        merged.clears |= scan.clears
        merged.cascaded |= scan.cascaded
        for callee in scan.self_calls:
            resolved = project.resolve_method(class_name, callee)
            if resolved is not None:
                pending.append(resolved)
        for callee in scan.super_calls:
            # ``super().m()``: first project base defining ``m`` after the
            # method's own class.
            own = meth.class_name
            mro = project.mro(class_name)
            past_own = False
            for info in mro:
                if info.name == own:
                    past_own = True
                    continue
                if past_own and callee in info.methods:
                    pending.append(info.methods[callee])
                    break
    return names, merged
