"""Unit tests for declarations, valuations and environments."""

import pytest

from repro.core import Declarations, EvaluationError, ModelError


@pytest.fixture
def decls():
    d = Declarations()
    d.declare_int("len", 0, 0, 6)
    d.declare_array("list", [0] * 7)
    d.declare_bool("busy")
    d.declare_const("N", 6)
    return d


class TestDeclarations:
    def test_initial(self, decls):
        v = decls.initial()
        assert v["len"] == 0
        assert v["list"] == (0,) * 7
        assert v["busy"] is False
        assert v["N"] == 6

    def test_duplicate_rejected(self, decls):
        with pytest.raises(ModelError):
            decls.declare_int("len")

    def test_empty_range_rejected(self):
        d = Declarations()
        with pytest.raises(ModelError):
            d.declare_int("x", 0, 5, 2)

    def test_init_outside_range_rejected(self):
        d = Declarations()
        with pytest.raises(EvaluationError):
            d.declare_int("x", 9, 0, 5)

    def test_index_of_unknown(self, decls):
        with pytest.raises(ModelError):
            decls.index_of("nope")

    def test_contains(self, decls):
        assert "len" in decls
        assert "nope" not in decls

    def test_merged_with(self, decls):
        other = Declarations()
        other.declare_int("x", 1)
        merged = decls.merged_with(other)
        v = merged.initial()
        assert v["len"] == 0 and v["x"] == 1

    def test_index_of_follows_declaration_order(self, decls):
        other = Declarations()
        other.declare_int("x", 1)
        merged = decls.merged_with(other)
        merged.declare_bool("flag")
        assert [merged.index_of(n) for n in merged.names] == list(range(6))
        # Declaring into the merged table leaves both sources alone.
        assert "flag" not in decls and "flag" not in other
        with pytest.raises(ModelError):
            decls.index_of("flag")
        with pytest.raises(ModelError):
            decls.index_of(["len"])

    def test_merged_with_clash(self, decls):
        other = Declarations()
        other.declare_int("len")
        with pytest.raises(ModelError):
            decls.merged_with(other)


class TestValuation:
    def test_hashable_and_eq(self, decls):
        a = decls.initial()
        b = decls.initial()
        assert a == b
        assert hash(a) == hash(b)
        c = a.assign("len", 3)
        assert c != a
        assert c["len"] == 3
        assert a["len"] == 0, "assign must not mutate"

    def test_assign_respects_bounds(self, decls):
        v = decls.initial()
        with pytest.raises(EvaluationError):
            v.assign("len", 99)

    def test_as_dict(self, decls):
        d = decls.initial().as_dict()
        assert d["busy"] is False and d["N"] == 6

    def test_get_default(self, decls):
        v = decls.initial()
        assert v.get("len") == 0
        assert v.get("nope", 42) == 42


class TestEnv:
    def test_roundtrip(self, decls):
        env = decls.initial().env()
        env["len"] = 2
        env["list"] = [1, 2, 3, 0, 0, 0, 0]
        v = env.commit()
        assert v["len"] == 2
        assert v["list"] == (1, 2, 3, 0, 0, 0, 0)

    def test_bounds_enforced(self, decls):
        env = decls.initial().env()
        with pytest.raises(EvaluationError):
            env["len"] = -1

    def test_env_is_mapping_for_expressions(self, decls):
        from repro.core import Var

        env = decls.initial().env()
        env["len"] = 4
        assert (Var("len") + 1).eval(env) == 5

    def test_keys_and_get(self, decls):
        env = decls.initial().env()
        assert "len" in env.keys()
        assert env.get("len") == 0
        assert env.get("nope") is None
