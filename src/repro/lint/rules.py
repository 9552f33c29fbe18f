"""The rule implementations: one AST pass, two rule families.

Every rule is registered in :data:`RULES` with its id, a one-line
description of what it catches, and the fix hint attached to findings.
The checker (:class:`RuleChecker`) is a single ``ast.NodeVisitor`` that
carries enough context — class stack, function stack, per-class set
prescan, per-function set-typed locals — for each rule to fire with few
false positives; anything it cannot prove is left to the runtime
sanitizer.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, what it catches, and how to fix it."""

    id: str
    summary: str
    hint: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in [
        Rule(
            "D101",
            "module-level random.* draw (shared unseeded RNG) or global random.seed()",
            "draw from a seeded, namespaced random.Random(f\"tag:{seed}:...\") instance",
        ),
        Rule(
            "D102",
            "wall-clock or environment entropy (time.time / datetime.now / "
            "uuid4 / os.urandom / secrets) in simulated code",
            "use sim.now for simulated time; derive identifiers from seeded state",
        ),
        Rule(
            "D103",
            "random.Random(...) seed that is neither a literal constant nor the "
            "namespaced f\"tag:{seed}:...\" idiom",
            "seed as random.Random(f\"component:{seed}:{name}\") so streams are "
            "independent and platform-stable",
        ),
        Rule(
            "D104",
            "iteration over a set feeding an order-sensitive sink (send / "
            "scheduling / dict or list build-up) without sorted()",
            "wrap the iterable in sorted(...) to pin a deterministic order",
        ),
        Rule(
            "D105",
            "id() used in simulated code (object addresses differ across runs)",
            "key or order by a stable field (name, sequence number) instead of id()",
        ),
        Rule(
            "D106",
            "float == / != on simulated-time arithmetic (association-order sensitive)",
            "compare with <= / >= against a bound, or subtract and test a tolerance",
        ),
        Rule(
            "P201",
            "node timer not built on repro.sim.Timer (a set_timeout call, or a "
            "schedule / post whose callback is run_task) in src/ outside repro/sim",
            "use a Timer (node.after(delay, fn, *args) for a one-shot): its cancel() "
            "and start() also void a callback already queued on the CPU",
        ),
        Rule(
            "P202",
            "object.__setattr__ outside crypto/primitives.py (in-place tampering "
            "with a sealed message, whose memoised repr and digests go stale)",
            "build a fresh copy with dataclasses.replace / attach_auth instead of "
            "mutating a sent message in place",
        ),
        Rule(
            "P203",
            "handler reaches into the sending node's attributes instead of going "
            "through Network.send",
            "read only src.name / src.site; exchange state via messages",
        ),
        Rule(
            "P204",
            "assignment to a send or deliver attribute (rebinding the message "
            "path of a live object)",
            "add a Network.taps entry or install a Behaviour",
        ),
    ]
}

#: ``random`` module functions that draw from the shared module-level RNG.
_MODULE_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: Wall-clock / entropy calls, matched on trailing dotted segments so both
#: ``time.time()`` and ``datetime.datetime.now()`` are caught.
_WALL_CLOCK_SUFFIXES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getrandom",
    }
)

#: Order-sensitive sinks for D104: calls with these names inside a loop over
#: a set mean the iteration order leaks into sends, scheduling, or the
#: insertion order of an ordered container.
_ORDER_SINKS = frozenset(
    {
        "send",
        "send_all",
        "set_timeout",
        "after",
        "start",
        "schedule",
        "schedule_at",
        "post",
        "post_at",
        "run_task",
        "deliver",
        "append",
        "appendleft",
        "extend",
        "heappush",
        "put",
        "setdefault",
    }
)

#: Order-insensitive consumers of a generator over a set (D104 near-misses).
_ORDER_FREE_CONSUMERS = frozenset(
    {"any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset"}
)

_TIMEY_NAME = re.compile(
    r"(?:^|_)(?:now|time|deadline|expiry|timeout|when)$|(?:_ms|_until|_at)$"
)

_SRC_PARAM_NAMES = frozenset({"src", "sender", "source"})
_HANDLER_PREFIXES = ("on_", "_on_", "handle_", "_handle_")
#: The only attributes a handler may read off the sending node: identity and
#: placement.  Anything else is cross-node aliasing.
_ALLOWED_SRC_ATTRS = frozenset({"name", "site"})

#: P204: the message path, observed through ``Network.taps`` and faulted
#: through ``Node.faults``, never rebound.
_MESSAGE_PATH_ATTRS = frozenset({"send", "deliver"})


@dataclass
class RawFinding:
    """A rule hit before pragma filtering."""

    rule: str
    line: int
    col: int
    message: str


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _matches_wall_clock(dotted: str) -> bool:
    for suffix in _WALL_CLOCK_SUFFIXES:
        if dotted == suffix or dotted.endswith("." + suffix):
            return True
    return dotted.startswith("secrets.") or dotted == "secrets"


def _is_namespaced_seed(arg: ast.AST) -> bool:
    """The repo idiom: an f-string with a literal ``:`` namespace separator.

    ``f"chaos:{seed}:{name}"`` qualifies, as does a composed namespace like
    ``f"{self.seed_tag}:{action.kind}"`` (the tag itself carries the
    namespace); a bare ``f"{seed}"`` does not.
    """
    if not isinstance(arg, ast.JoinedStr) or not arg.values:
        return False
    return any(
        isinstance(part, ast.Constant)
        and isinstance(part.value, str)
        and ":" in part.value
        for part in arg.values
    )


def _contains_timey_term(node: ast.AST) -> bool:
    for child in ast.walk(node):
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        if name is not None and _TIMEY_NAME.search(name):
            return True
    return False


class _ClassInfo:
    """Prescan results for one class body."""

    def __init__(self, node: ast.ClassDef):
        self.set_attrs: Set[str] = set()
        for child in ast.walk(node):
            target = None
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                value: Optional[ast.AST] = child.value
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                target = child.target
                value = getattr(child, "value", None)
            else:
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if value is not None and _is_syntactic_set(value, frozenset()):
                self.set_attrs.add(target.attr)
            if isinstance(child, ast.AnnAssign) and _is_set_annotation(
                child.annotation
            ):
                self.set_attrs.add(target.attr)


def _is_set_annotation(annotation: ast.AST) -> bool:
    dotted = _dotted(
        annotation.value if isinstance(annotation, ast.Subscript) else annotation
    )
    return dotted is not None and dotted.split(".")[-1] in {
        "Set",
        "FrozenSet",
        "set",
        "frozenset",
        "MutableSet",
        "AbstractSet",
    }


def _is_syntactic_set(node: ast.AST, local_sets: frozenset) -> bool:
    """Whether ``node`` is a set by construction (no type inference)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return _is_syntactic_set(node.func.value, local_sets)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_syntactic_set(node.left, local_sets) or _is_syntactic_set(
            node.right, local_sets
        )
    if isinstance(node, ast.Name):
        return node.id in local_sets
    return False


def _has_order_sink(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for child in ast.walk(stmt):
            if isinstance(child, ast.Call):
                func = child.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if name in _ORDER_SINKS:
                    return True
            elif isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                if any(isinstance(t, ast.Subscript) for t in targets):
                    return True
            elif isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
    return False


class RuleChecker(ast.NodeVisitor):
    """One pass over a module, emitting :class:`RawFinding`s."""

    def __init__(self, path: str = "<string>"):
        self.path = path
        posix = "/" + path.replace("\\", "/")
        #: the P202 exemption
        self._in_primitives = posix.endswith("crypto/primitives.py")
        #: P201's scope: ``src/`` minus the simulator that builds Timer;
        #: tests drive the CPU on purpose
        self._in_protocol_code = "/src/" in posix and "/src/repro/sim/" not in posix
        self.findings: List[RawFinding] = []
        self._class_stack: List[_ClassInfo] = []
        #: per-function-scope set-typed local names (for D104).
        self._local_sets: List[Set[str]] = []
        #: per-function-scope src-parameter name, when the function is a
        #: message handler (for P203).
        self._handler_src: List[Optional[str]] = []

    # -- bookkeeping ---------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawFinding(
                rule=rule,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(_ClassInfo(node))
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        src_param: Optional[str] = None
        if (
            self._class_stack
            and node.name.startswith(_HANDLER_PREFIXES)
            and len(node.args.args) >= 3
            and node.args.args[0].arg == "self"
            and node.args.args[1].arg in _SRC_PARAM_NAMES
        ):
            src_param = node.args.args[1].arg
        self._handler_src.append(src_param)
        self._local_sets.append(set())
        self.generic_visit(node)
        self._local_sets.pop()
        self._handler_src.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._local_sets and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_syntactic_set(
                    node.value, frozenset(self._local_sets[-1])
                ):
                    self._local_sets[-1].add(target.id)
                else:
                    self._local_sets[-1].discard(target.id)
        self._check_message_path(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_message_path([node.target])
        self.generic_visit(node)

    def _check_message_path(self, targets: List[ast.expr]) -> None:
        # P204: rebinding send / deliver (tuple targets included).
        for target in targets:
            for child in ast.walk(target):
                if (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and child.attr in _MESSAGE_PATH_ATTRS
                ):
                    self._emit("P204", child, f"assignment rebinds .{child.attr}")

    # -- rules ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)

        # D101: module-level random draws.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in _MODULE_RANDOM_FNS
        ):
            what = (
                "random.seed() reseeds the shared module RNG"
                if func.attr == "seed"
                else f"random.{func.attr}() draws from the shared module RNG"
            )
            self._emit("D101", node, what)

        # D102: wall clock / entropy.
        if dotted is not None and _matches_wall_clock(dotted):
            self._emit("D102", node, f"{dotted}() is wall-clock/entropy")

        # D103: Random(...) seeding discipline.
        if (dotted == "random.Random") or (
            isinstance(func, ast.Name) and func.id == "Random"
        ):
            if not node.args:
                self._emit("D103", node, "Random() without a seed is entropy-seeded")
            else:
                seed = node.args[0]
                if not (
                    isinstance(seed, ast.Constant) or _is_namespaced_seed(seed)
                ):
                    self._emit(
                        "D103",
                        node,
                        "Random seed is neither a literal constant nor the "
                        'namespaced f"tag:{seed}:..." idiom',
                    )

        # D105: id() in simulated code.
        if isinstance(func, ast.Name) and func.id == "id" and node.args:
            self._emit("D105", node, "id() is an object address, unstable across runs")

        # P201: node timers not built on Timer.
        if self._in_protocol_code and isinstance(func, ast.Attribute):
            callback = node.args[1] if len(node.args) >= 2 else None
            if func.attr in ("set_timeout", "_set_timeout") or (
                func.attr in ("schedule", "schedule_at", "post", "post_at")
                and isinstance(callback, ast.Attribute)
                and callback.attr == "run_task"
            ):
                self._emit("P201", node, f"{func.attr}() arms a node timer outside Timer")

        # P202: object.__setattr__ outside the crypto boundary.
        if (
            dotted == "object.__setattr__"
            and not self._in_primitives
        ):
            self._emit(
                "P202",
                node,
                "object.__setattr__ bypasses the frozen-message contract",
            )

        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter, node.body, kind="for loop")
        self.generic_visit(node)

    def _check_set_iteration(self, iterable, body, kind: str) -> None:
        local_sets = frozenset(self._local_sets[-1]) if self._local_sets else frozenset()
        expr = iterable
        if not _is_syntactic_set(expr, local_sets):
            # ``self.<attr>`` where the enclosing class assigns a set.
            if not (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self._class_stack
                and expr.attr in self._class_stack[-1].set_attrs
            ):
                return
        if body is None or _has_order_sink(body):
            self._emit(
                "D104",
                iterable,
                f"{kind} iterates a set in nondeterministic order",
            )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._materialising_comp(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._materialising_comp(node)
        self.generic_visit(node)

    def _materialising_comp(self, node) -> None:
        # A list/dict built from a set iteration bakes the unordered
        # iteration order into an ordered container: always order-sensitive.
        local_sets = frozenset(self._local_sets[-1]) if self._local_sets else frozenset()
        for gen in node.generators:
            if _is_syntactic_set(gen.iter, local_sets):
                self._emit(
                    "D104",
                    gen.iter,
                    "comprehension materialises a set's nondeterministic order",
                )

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # Only flag generators over sets whose consumer is order-sensitive;
        # any(...) / sum(...) / sorted(...) over a set are fine.
        parent_ok = getattr(node, "_order_free_consumer", False)
        if not parent_ok:
            local_sets = (
                frozenset(self._local_sets[-1]) if self._local_sets else frozenset()
            )
            for gen in node.generators:
                if _is_syntactic_set(gen.iter, local_sets):
                    self._emit(
                        "D104",
                        gen.iter,
                        "generator over a set feeds an order-sensitive consumer",
                    )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # D106: float equality on simulated-time arithmetic.
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.BinOp) and isinstance(
                    side.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
                ) and _contains_timey_term(side):
                    self._emit(
                        "D106",
                        node,
                        "== on simulated-time arithmetic is association-order "
                        "sensitive",
                    )
                    break
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # P203: cross-node reach-through in handlers.
        src_param = self._handler_src[-1] if self._handler_src else None
        if (
            src_param is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == src_param
            and node.attr not in _ALLOWED_SRC_ATTRS
        ):
            self._emit(
                "P203",
                node,
                f"handler touches {src_param}.{node.attr} on the sending node",
            )
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        # Tag generator expressions consumed by order-free reducers before
        # they are visited, so visit_GeneratorExp can skip them.
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        arg._order_free_consumer = True  # type: ignore[attr-defined]
        super().generic_visit(node)


def check_module(tree: ast.Module, path: str = "<string>") -> List[RawFinding]:
    """Run every rule over a parsed module; findings sorted by position."""
    checker = RuleChecker(path)
    checker.visit(tree)
    return sorted(checker.findings, key=lambda f: (f.line, f.col, f.rule))
