"""Tests for the UPPAAL XML importer, including export round-trips."""

import pytest

from repro.core import Declarations, ModelError, Var
from repro.export import export_network, import_network
from repro.mc import EF, LocationIs, Verifier
from repro.models.busspec import make_coffee_spec
from repro.ta import Automaton, Network, clk


def expr_model():
    """A two-process model using only Expr guards (fully exportable)."""
    ping = Automaton("Ping", clocks=["x"])
    ping.add_location("idle", invariant=[clk("x", "<=", 3)])
    ping.add_location("sent")
    ping.add_edge("idle", "sent", guard=[clk("x", ">=", 1)],
                  data_guard=Var("n") < 2, sync=("msg", "!"),
                  resets=[("x", 0)])
    pong = Automaton("Pong", clocks=[])
    pong.add_location("wait")
    pong.add_location("got", committed=True)
    pong.add_location("done")
    pong.add_edge("wait", "got", sync=("msg", "?"))
    pong.add_edge("got", "done")
    network = Network("pingpong")
    decls = Declarations()
    decls.declare_int("n", 0)
    decls.declare_bool("flag", True)
    decls.declare_array("arr", [1, 2])
    network.declarations = decls
    network.add_channel("msg")
    network.add_process("Ping", ping)
    network.add_process("Pong", pong)
    return network.freeze()


class TestRoundTrip:
    def test_structure_preserved(self):
        original = expr_model()
        imported = import_network(export_network(original))
        assert [p.name for p in imported.processes] == ["Ping", "Pong"]
        assert set(imported.channels) == {"msg"}
        assert imported.clock_names == ("Ping.x",)
        assert imported.initial_valuation()["n"] == 0
        assert imported.initial_valuation()["flag"] is True
        assert imported.initial_valuation()["arr"] == (1, 2)

    def test_verdicts_preserved(self):
        original = expr_model()
        imported = import_network(export_network(original))
        for network in (original, imported):
            verifier = Verifier(network)
            assert verifier.check(EF(LocationIs("Pong", "done"))).holds
            assert not verifier.check(
                EF(LocationIs("Ping", "idle")
                   & LocationIs("Pong", "done"))).holds

    def test_committed_preserved(self):
        imported = import_network(export_network(expr_model()))
        pong = imported.process_by_name("Pong")
        assert pong.automaton.locations["got"].committed

    def test_coffee_spec_roundtrip(self):
        original = make_coffee_spec()
        imported = import_network(export_network(original))
        machine = imported.process_by_name("M").automaton
        [brew_inv] = machine.locations["brewing"].invariant
        assert brew_inv.op == "<=" and brew_inv.bound == 4


class TestImportErrors:
    def test_rejects_non_nta(self):
        with pytest.raises(ModelError):
            import_network("<html></html>")

    def test_rejects_function_bodies(self):
        xml = export_network(expr_model()).replace(
            "<declaration>", "<declaration>void f() { }\n", 1)
        with pytest.raises(ModelError):
            import_network(xml)

    def test_rejects_data_invariant(self):
        original = export_network(expr_model())
        bad = original.replace("x &lt;= 3", "n &lt;= 3", 1)
        with pytest.raises(ModelError):
            import_network(bad)

    TEMPLATE = ('<nta><template><name>T</name>'
                '<location id="a"/><location id="b"/>{}</template></nta>')

    @pytest.mark.parametrize("xml, offending", [
        ("<nta><template>", "<nta><template>"),
        (TEMPLATE.format('<init ref="zz"/>'), "'zz'"),
        (TEMPLATE.format('<init ref="a"/><transition><source ref="a"/>'
                         '<target ref="zz"/></transition>'), "'zz'"),
        (TEMPLATE.format('<init ref="a"/><transition><target ref="b"/>'
                         '</transition>'), "without <source>"),
        ("<nta><declaration>int n = x;</declaration></nta>",
         "'int n = x'"),
        ("<nta><declaration>int a[k];</declaration></nta>",
         "'int a[k]'"),
    ], ids=["unclosed-xml", "unknown-init", "unknown-target",
            "no-source", "non-integer-init", "non-integer-size"])
    def test_malformed_input_raises_model_error(self, xml, offending):
        """Malformed XML, dangling location references and non-integer
        constants are model errors naming the offending text, never
        stray parser or lookup exceptions."""
        with pytest.raises(ModelError) as caught:
            import_network(xml)
        assert offending in str(caught.value)


class TestHandWrittenXml:
    XML = """<?xml version="1.0" encoding="utf-8"?>
<nta>
  <declaration>chan go;
int count = 0;</declaration>
  <template>
    <name>T</name>
    <declaration>clock c;</declaration>
    <location id="a"><name>start</name>
      <label kind="invariant">c &lt;= 5</label></location>
    <location id="b"><name>end</name></location>
    <init ref="a"/>
    <transition>
      <source ref="a"/><target ref="b"/>
      <label kind="guard">c &gt;= 2 &amp;&amp; count == 0</label>
      <label kind="synchronisation">go!</label>
      <label kind="assignment">c = 0, count = count + 1</label>
    </transition>
  </template>
  <template>
    <name>R</name>
    <location id="r0"><name>w</name></location>
    <location id="r1"><name>h</name></location>
    <init ref="r0"/>
    <transition>
      <source ref="r0"/><target ref="r1"/>
      <label kind="synchronisation">go?</label>
    </transition>
  </template>
  <system>T = T(); R = R();
system T, R;</system>
</nta>
"""

    def test_imports_and_verifies(self):
        network = import_network(self.XML)
        verifier = Verifier(network)
        result = verifier.check(EF(LocationIs("R", "h")))
        assert result.holds
        # Guard and update survived: count incremented on the way.
        final = result.witness
        assert final.valuation["count"] == 1
