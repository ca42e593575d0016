"""Flattening MODEST processes into a network of (probabilistic) timed
automata.

Each process of the top-level ``par`` composition becomes one PTA
template whose locations are the process's control points.  Weights of
``palt`` become branch probabilities; ``when`` guards split into clock
atoms and data guards; ``invariant`` deadlines become location
invariants.  Actions shared by exactly two parallel processes become
binary synchronisation channels (the first process in ``par`` order
sends, the second receives); all other actions are internal steps.

Supported recursion is tail recursion (``Channel()`` as the last step
of ``Channel``'s own body, as in Fig. 5), which turns into a loop back
to the process's initial location.
"""

from __future__ import annotations

from ..core.errors import EvaluationError, ModelError
from ..core.expressions import BinOp, Const, Expr, UnOp, Var, conjoin
from ..core.values import Declarations
from ..pta.pta import PTA, PTANetwork
from ..ta.syntax import Branch, ClockAtom, edge_branches
from .ast import (
    ActionPrefix,
    Alt,
    AssignBlock,
    Call,
    Invariant,
    Loop,
    Sequence,
    StopStmt,
    When,
)


class _GuardSplit:
    """A guard split into clock atoms and a residual data expression."""

    def __init__(self, atoms, data):
        self.atoms = atoms
        self.data = data


def _fold_const(expr, constants):
    """Evaluate an expression over the declared constants, or None.

    Only :class:`EvaluationError` (unknown variable, division by zero,
    ...) means "not a constant"; anything else — a typo'd AST node, an
    operator bug — must propagate instead of silently degrading clock
    bounds and initializers to ``None``.
    """
    try:
        return expr.eval(constants)
    except EvaluationError:
        return None


def split_guard(expr, clocks, constants):
    """Split a conjunction into clock atoms and data conjuncts."""
    atoms = []
    data = []

    def walk(e):
        if isinstance(e, BinOp) and e.op == "&&":
            walk(e.left)
            walk(e.right)
            return
        atom = _as_clock_atom(e, clocks, constants)
        if atom is not None:
            atoms.append(atom)
        else:
            _reject_clock_use(e, clocks)
            data.append(e)

    walk(expr)
    data_guard = conjoin(data) if data else None
    if data_guard is not None and isinstance(data_guard, Const) \
            and data_guard.value is True:
        data_guard = None
    return _GuardSplit(atoms, data_guard)


def _as_clock_atom(e, clocks, constants):
    if not isinstance(e, BinOp) or e.op not in ("<", "<=", ">", ">=", "=="):
        return None
    left, right, op = e.left, e.right, e.op
    if isinstance(right, Var) and right.name in clocks:
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
    if isinstance(left, Var) and left.name in clocks:
        bound = _fold_const(right, constants)
        if bound is None:
            raise ModelError(
                f"clock comparison against non-constant: {e!r}")
        return ClockAtom(left.name, op, bound)
    return None


def _reject_clock_use(e, clocks):
    for name in e.variables():
        if name in clocks:
            raise ModelError(
                f"unsupported clock expression in guard: {e!r}")


class _ProcessFlattener:
    """Compiles one process definition into a PTA template."""

    def __init__(self, process_def, model, clocks, constants, sync_role):
        self.process_def = process_def
        self.model = model
        self.clocks = clocks              # clock names visible here
        self.constants = constants        # name -> value
        self.sync_role = sync_role        # action -> '!' | '?' | None
        self.pta = PTA(process_def.name, clocks=sorted(clocks))
        self.counter = 0
        self.initial = self._new_location()
        self.pta.initial_location = self.initial
        self.stop_location = None

    def _new_location(self, invariant=(), urgent=False):
        name = f"L{self.counter}"
        self.counter += 1
        self.pta.add_location(name, invariant=invariant, urgent=urgent)
        return name

    def _location(self, name):
        return self.pta.locations[name]

    def flatten(self):
        final = self._new_location()
        self._compile(self.process_def.body, self.initial, final)
        self._prune_orphans()
        return self.pta

    def _prune_orphans(self):
        """Drop locations no edge enters or leaves.

        The exit location allocated for the process body stays orphaned
        whenever the body loops forever or ends in ``stop`` — which is
        every long-running process.  Leaving it in place distorts
        state-space statistics and trips unreachable-location checks,
        so remove any non-initial location that participates in no
        edge.  Names are assigned before pruning, so surviving ``L<n>``
        names are stable.
        """
        touched = {self.initial}
        for edge in self.pta.edges:
            touched.add(edge.source)
            for branch in edge_branches(edge):
                touched.add(branch.target)
        for name in [n for n in self.pta.locations if n not in touched]:
            del self.pta.locations[name]

    # -- statement compilation -----------------------------------------------------

    def _compile(self, stmt, entry, exit_, guard=None):
        """Add automaton structure for ``stmt`` between two locations.

        ``guard`` is a pending :class:`_GuardSplit` from enclosing
        ``when`` constructs; it applies to the first action of ``stmt``.
        """
        if isinstance(stmt, Sequence):
            self._compile_sequence(stmt.statements, entry, exit_, guard)
        elif isinstance(stmt, ActionPrefix):
            self._compile_action(stmt, entry, exit_, guard)
        elif isinstance(stmt, AssignBlock):
            self._compile_assign(stmt, entry, exit_, guard)
        elif isinstance(stmt, When):
            split = split_guard(stmt.guard, self.clocks, self.constants)
            merged = self._merge_guards(guard, split)
            self._compile(stmt.body, entry, exit_, merged)
        elif isinstance(stmt, Invariant):
            self._apply_invariant(stmt.expr, entry)
            self._compile(stmt.body, entry, exit_, guard)
        elif isinstance(stmt, Alt):
            for alternative in stmt.alternatives:
                self._compile(alternative, entry, exit_, guard)
        elif isinstance(stmt, Loop):
            for alternative in stmt.alternatives:
                self._compile(alternative, entry, entry, guard)
        elif isinstance(stmt, Call):
            self._compile_call(stmt, entry, guard)
        elif isinstance(stmt, StopStmt):
            pass  # no outgoing edges: inaction
        else:
            raise ModelError(f"cannot flatten {stmt!r}")

    def _compile_sequence(self, statements, entry, exit_, guard):
        current = entry
        for index, stmt in enumerate(statements):
            last = index == len(statements) - 1
            if last:
                self._compile(stmt, current, exit_, guard)
            else:
                nxt = self._new_location()
                self._compile(stmt, current, nxt, guard)
                current = nxt
            guard = None  # pending guard applies to the first item only

    def _merge_guards(self, a, b):
        if a is None:
            return b
        data = None
        if a.data is not None and b.data is not None:
            data = BinOp("&&", a.data, b.data)
        else:
            data = a.data if a.data is not None else b.data
        return _GuardSplit(list(a.atoms) + list(b.atoms), data)

    def _apply_invariant(self, expr, location_name):
        split = split_guard(expr, self.clocks, self.constants)
        if split.data is not None:
            raise ModelError(
                f"invariant must be a clock constraint: {expr!r}")
        loc = self._location(location_name)
        loc.invariant = tuple(loc.invariant) + tuple(split.atoms)

    def _sync_of(self, action):
        if action == "tau":
            return None
        role = self.sync_role.get(action)
        if role is None:
            return None
        return (action, role)

    def _compile_action(self, stmt, entry, exit_, guard):
        atoms = tuple(guard.atoms) if guard else ()
        data = guard.data if guard else None
        sync = self._sync_of(stmt.action)
        label = stmt.action
        if stmt.branches is None:
            resets, update = self._classify_assignments(stmt.assignments)
            self.pta.add_edge(
                entry, exit_, guard=atoms, data_guard=data, sync=sync,
                resets=resets, update=update, label=label)
            return
        total = sum(b.weight for b in stmt.branches)
        if total <= 0:
            raise ModelError(f"palt weights sum to {total}")
        branch_objs = []
        continuations = []
        for branch in stmt.branches:
            if branch.continuation is None:
                target = exit_
            else:
                target = self._new_location()
                continuations.append((branch.continuation, target))
            resets, update = self._classify_assignments(branch.assignments)
            branch_objs.append(Branch(branch.weight / total, target,
                                      resets=resets, update=update))
        self.pta.add_prob_edge(entry, branch_objs, guard=atoms,
                               data_guard=data, sync=sync, label=label)
        for continuation, target in continuations:
            self._compile(continuation, target, exit_)

    def _classify_assignments(self, assignments):
        """Clock assignments become resets; the rest stay updates."""
        resets = []
        update = []
        for assignment in assignments:
            if assignment.target in self.clocks:
                value = _fold_const(assignment.expr, self.constants)
                if value is None:
                    raise ModelError(
                        f"clock reset to non-constant: {assignment!r}")
                resets.append((assignment.target, int(value)))
            else:
                update.append(assignment)
        return resets, update

    def _compile_assign(self, stmt, entry, exit_, guard):
        """A standalone {= ... =} is an instantaneous internal step."""
        atoms = tuple(guard.atoms) if guard else ()
        data = guard.data if guard else None
        resets, update = self._classify_assignments(stmt.assignments)
        self._location(entry).urgent = True
        self.pta.add_edge(entry, exit_, guard=atoms, data_guard=data,
                          resets=resets, update=update, label="tau")

    def _compile_call(self, stmt, entry, guard):
        if stmt.name != self.process_def.name:
            raise ModelError(
                f"{self.process_def.name}: only tail self-recursion is "
                f"supported, cannot call {stmt.name!r}")
        atoms = tuple(guard.atoms) if guard else ()
        data = guard.data if guard else None
        self._location(entry).urgent = True
        self.pta.add_edge(entry, self.initial, guard=atoms,
                          data_guard=data, label="tau")


def flatten_model(model):
    """Compile a parsed :class:`ModestModel` into a :class:`PTANetwork`.

    Returns the network.  Global variables become shared declarations;
    per-process clocks and variables are renamed apart (prefixed with
    the process name when a clash would occur).
    """
    composition = model.composition or []
    if not composition:
        # Analyse a library of processes: instantiate each once.
        composition = [Call(name) for name in model.processes]
    for call in composition:
        if call.name not in model.processes:
            raise ModelError(f"unknown process {call.name!r}")

    constants = {}
    network = PTANetwork("modest")
    declarations = Declarations()

    def declare(decl, prefix=""):
        name = prefix + decl.name
        init = 0
        if decl.init is not None:
            value = _fold_const(decl.init, constants)
            if value is None:
                raise ModelError(
                    f"initializer of {name!r} is not constant")
            init = value
        if decl.is_const:
            constants[name] = init
            declarations.declare_const(name, init)
        elif decl.kind == "int":
            declarations.declare_int(name, init)
        elif decl.kind == "bool":
            declarations.declare_bool(name, bool(init))
        # clocks handled separately

    global_clocks = set()
    for decl in model.declarations:
        if decl.kind == "clock":
            global_clocks.add(decl.name)
        else:
            declare(decl)

    # Which actions are shared (binary sync) or local?
    usage = {}
    for call in composition:
        used = _actions_used(model.processes[call.name].body)
        for action in used:
            usage.setdefault(action, []).append(call.name)
    sync_roles = {}
    for action, users in usage.items():
        if len(users) == 2:
            sync_roles[action] = {users[0]: "!", users[1]: "?"}
            network.add_channel(action)
        elif len(users) > 2:
            raise ModelError(
                f"action {action!r} shared by {len(users)} processes; "
                "only binary synchronisation is supported")

    seen = set()
    for call in composition:
        if call.name in seen:
            raise ModelError(
                f"process {call.name!r} instantiated twice in par")
        seen.add(call.name)
        process_def = model.processes[call.name]
        local_clocks = set(global_clocks)
        for decl in process_def.declarations:
            if decl.kind == "clock":
                local_clocks.add(decl.name)
            else:
                declare(decl)
        role = {action: roles.get(call.name)
                for action, roles in sync_roles.items()}
        flattener = _ProcessFlattener(
            process_def, model, local_clocks, constants, role)
        network.add_process(call.name, flattener.flatten())

    network.declarations = declarations
    return network


def _actions_used(stmt):
    out = set()

    def walk(s):
        if isinstance(s, ActionPrefix):
            if s.action != "tau":
                out.add(s.action)
            if s.branches:
                for branch in s.branches:
                    if branch.continuation is not None:
                        walk(branch.continuation)
        elif isinstance(s, Sequence):
            for item in s.statements:
                walk(item)
        elif isinstance(s, (Alt, Loop)):
            for item in s.alternatives:
                walk(item)
        elif isinstance(s, (When, Invariant)):
            walk(s.body)

    walk(stmt)
    return out
