"""Import UPPAAL XML models (the exportable subset).

The inverse of :mod:`repro.export.uppaal_xml`: templates with clock
declarations, invariants, guards over clocks and integer variables,
channel synchronisations, assignments of the form ``x = c`` (clock
reset) or ``var = expr``, and committed/urgent locations.  UPPAAL's
C-like function bodies and select bindings are outside the subset and
rejected with a clear error.

Guards and assignments are parsed with the MODEST expression parser —
the two tools share their expression syntax for exactly this reason.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from ..core.errors import ModelError
from ..core.expressions import Assignment, BinOp
from ..core.values import Declarations
from ..modest.flatten import split_guard
from ..modest.parser import Parser
from ..ta.network import Network
from ..ta.syntax import Automaton


def _parse_expression(text):
    parser = Parser(text)
    expr = parser._expr()
    if parser.peek().kind != "eof":
        raise ModelError(f"trailing input in expression: {text!r}")
    return expr


def _parse_assignments(text):
    """``a = 1, b = b + 1`` as a list of Assignments."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ModelError(f"unsupported assignment {part!r}")
        target, expr_text = part.split("=", 1)
        out.append(Assignment(target.strip(),
                              _parse_expression(expr_text)))
    return out


def _strip(text):
    return (text or "").strip()


def _parse_declarations(text, network):
    """Global declarations: channels and int/bool variables."""
    declarations = Declarations()
    for raw_line in (text or "").splitlines():
        line = raw_line.split("//")[0].strip().rstrip(";")
        if not line:
            continue
        words = line.split()
        if "chan" in words:
            channel_names = line.split("chan", 1)[1]
            for name in channel_names.split(","):
                network.add_channel(
                    name.strip(),
                    broadcast="broadcast" in words,
                    urgent="urgent" in words)
        elif words[0] == "int" and "[" not in line:
            name, value = _name_and_init(line[len("int"):], 0, line)
            declarations.declare_int(name, value)
        elif words[0] == "bool":
            name, value = _name_and_init(line[len("bool"):], False, line)
            declarations.declare_bool(name, bool(value))
        elif words[0] == "int":
            # Array: int a[3] = { 0, 0, 0 };
            head, _sep, tail = line.partition("=")
            name = head.split("[")[0].replace("int", "").strip()
            size = _integer(head.split("[")[1].split("]")[0], line)
            if tail.strip():
                inner = tail.strip().strip("{}").strip()
                values = [_integer(v, line) for v in inner.split(",")]
            else:
                values = [0] * size
            declarations.declare_array(name, values)
        elif words[0] == "clock":
            raise ModelError("global clocks are not supported by the "
                             "import subset (declare them per template)")
        else:
            raise ModelError(f"unsupported declaration: {line!r}")
    return declarations


def _integer(text, line):
    """``text`` as an int; a :class:`ModelError` naming ``line`` when
    it is not an integer literal."""
    try:
        return int(text)
    except ValueError:
        raise ModelError(f"not an integer constant: {text.strip()!r} "
                         f"in {line!r}") from None


def _name_and_init(text, default, line):
    head, _sep, tail = text.partition("=")
    name = head.strip()
    if tail.strip():
        value_text = tail.strip()
        if value_text == "true":
            return name, True
        if value_text == "false":
            return name, False
        return name, _integer(value_text, line)
    return name, default


def _location_ref(element, tag, id_to_name, template_name):
    """The location name a ``<tag ref="...">`` child of ``element``
    names."""
    child = element.find(tag)
    if child is None:
        raise ModelError(f"template {template_name!r}: "
                         f"<{element.tag}> without <{tag}>")
    ref = child.get("ref")
    if ref not in id_to_name:
        raise ModelError(f"template {template_name!r}: <{tag} "
                         f"ref={ref!r}> names no declared location")
    return id_to_name[ref]


def _template_clocks(declaration_text):
    clocks = []
    for raw_line in (declaration_text or "").splitlines():
        line = raw_line.split("//")[0].strip().rstrip(";")
        if not line:
            continue
        if not line.startswith("clock"):
            raise ModelError(
                f"unsupported template declaration: {line!r}")
        for name in line[len("clock"):].split(","):
            clocks.append(name.strip())
    return clocks


def import_network(xml_text, name="imported"):
    """Parse UPPAAL XML text into a :class:`~repro.ta.Network`."""
    lines = [line for line in xml_text.splitlines()
             if not line.startswith("<?xml")
             and not line.startswith("<!DOCTYPE")]
    try:
        root = ET.fromstring("\n".join(lines))
    except ET.ParseError as error:
        raise ModelError(f"malformed UPPAAL XML ({error}): "
                         f"{xml_text[:80]!r}") from None
    if root.tag != "nta":
        raise ModelError(f"not an UPPAAL model (root {root.tag!r})")

    network = Network(name)
    network.declarations = _parse_declarations(
        root.findtext("declaration"), network)
    constants = {}

    for template in root.findall("template"):
        template_name = _strip(template.findtext("name"))
        clocks = _template_clocks(template.findtext("declaration"))
        automaton = Automaton(template_name, clocks=clocks)
        id_to_name = {}
        for location in template.findall("location"):
            loc_name = _strip(location.findtext("name")) or \
                location.get("id")
            id_to_name[location.get("id")] = loc_name
            invariant = ()
            for label in location.findall("label"):
                if label.get("kind") == "invariant":
                    split = split_guard(
                        _parse_expression(label.text), set(clocks),
                        constants)
                    if split.data is not None:
                        raise ModelError(
                            "invariants must be clock constraints")
                    invariant = tuple(split.atoms)
            automaton.add_location(
                loc_name, invariant=invariant,
                committed=location.find("committed") is not None,
                urgent=location.find("urgent") is not None)
        if template.find("init") is not None:
            automaton.initial_location = _location_ref(
                template, "init", id_to_name, template_name)
        for transition in template.findall("transition"):
            source = _location_ref(transition, "source", id_to_name,
                                   template_name)
            target = _location_ref(transition, "target", id_to_name,
                                   template_name)
            guard_atoms, data_guard, sync, resets, updates = \
                (), None, None, [], []
            for label in transition.findall("label"):
                kind = label.get("kind")
                text = _strip(label.text)
                if kind == "guard" and text:
                    split = split_guard(_parse_expression(text),
                                        set(clocks), constants)
                    guard_atoms = tuple(split.atoms)
                    data_guard = split.data
                elif kind == "synchronisation" and text:
                    channel, direction = text[:-1], text[-1]
                    if direction not in "!?":
                        raise ModelError(f"bad sync {text!r}")
                    sync = (channel, direction)
                elif kind == "assignment" and text:
                    for assignment in _parse_assignments(text):
                        if assignment.target in clocks:
                            value = assignment.expr.eval(constants)
                            resets.append((assignment.target,
                                           int(value)))
                        else:
                            updates.append(assignment)
            automaton.add_edge(source, target, guard=guard_atoms,
                               data_guard=data_guard, sync=sync,
                               resets=resets, update=updates)
        network.add_process(template_name, automaton)
    return network.freeze()
