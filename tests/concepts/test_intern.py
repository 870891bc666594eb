"""Tests for the hash-consing layer (`repro.concepts.intern`) and the hash memo."""

import contextlib
import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings

import repro
from repro.concepts import builders as b
from repro.concepts import intern as intern_module
from repro.concepts.intern import (
    clear_intern_tables,
    concept_id,
    intern_concept,
    intern_path,
    is_interned,
    path_id,
)
from repro.concepts.normalize import normalize_concept
from repro.concepts.syntax import (
    _HASH_MEMO,
    _INTERN_STAMP,
    And,
    ExistsPath,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    Top,
)

from ..strategies import concepts


@contextlib.contextmanager
def restored_intern_tables():
    """Let a block clear the process-wide intern tables, then put them back.

    Concepts interned before the block are canonical again after it, so the
    id-keyed tiers of later tests keep matching whatever ran here.
    """
    saved = dict(intern_module._concepts), dict(intern_module._paths)
    try:
        yield
    finally:
        with intern_module._INTERN_LOCK:
            for table, entries in zip((intern_module._concepts, intern_module._paths), saved):
                table.clear()
                table.update(entries)


def rebuild(node):
    """A structurally equal copy of ``node`` built from scratch, never hashed."""
    if isinstance(node, tuple):
        return tuple(rebuild(item) for item in node)
    if dataclasses.is_dataclass(node):
        return type(node)(*(rebuild(getattr(node, f.name)) for f in dataclasses.fields(node)))
    return node


def one_node_of_each_memoized_class():
    """Fresh instances of the six concept node classes and of ``Path``."""
    return [
        Primitive("Memo"),
        Top(),
        Singleton("memo"),
        And(Primitive("Memo"), Singleton("memo")),
        ExistsPath(b.path(("p", Primitive("Memo")))),
        PathAgreement(b.path(("p", Primitive("Memo"))), b.path("q")),
        b.path(("p", Primitive("Memo"))),
    ]


class TestInterning:
    def test_structurally_equal_concepts_share_one_instance(self):
        first = intern_concept(And(Primitive("A"), Primitive("B")))
        second = intern_concept(And(Primitive("A"), Primitive("B")))
        assert first is second

    def test_interning_preserves_structure(self):
        concept = b.conjoin(b.concept("A"), b.exists(("p", b.concept("B"))))
        assert intern_concept(concept) == concept

    def test_interning_is_idempotent(self):
        concept = intern_concept(b.exists(("p", b.concept("A"))))
        assert intern_concept(concept) is concept

    def test_subterms_are_shared(self):
        filler = b.conjoin(b.concept("A"), b.concept("B"))
        left = intern_concept(b.exists(("p", filler)))
        right = intern_concept(b.exists(("q", b.conjoin(b.concept("A"), b.concept("B")))))
        assert left.path.head.concept is right.path.head.concept

    def test_ids_are_stable_and_distinct(self):
        a = intern_concept(Primitive("A"))
        b_ = intern_concept(Primitive("B"))
        assert concept_id(a) == concept_id(Primitive("A"))
        assert concept_id(a) != concept_id(b_)

    def test_non_canonical_copy_is_not_interned(self):
        intern_concept(Primitive("A"))
        assert not is_interned(Primitive("A"))
        assert is_interned(intern_concept(Primitive("A")))

    def test_paths_intern_too(self):
        path = b.path(("p", b.concept("A")), ("q", b.top()))
        canonical = intern_path(path)
        assert canonical == path
        assert intern_path(b.path(("p", b.concept("A")), ("q", b.top()))) is canonical
        assert path_id(canonical) == path_id(path)

    def test_top_and_empty_path_are_canonical(self):
        assert intern_concept(Top()) is intern_concept(Top())
        assert intern_path(Path(())) is intern_path(Path(()))

    @settings(max_examples=80, deadline=None)
    @given(concepts(max_depth=3))
    def test_interning_roundtrip_property(self, concept):
        canonical = intern_concept(concept)
        assert canonical == concept
        assert intern_concept(canonical) is canonical
        # Equal ids iff structurally equal.
        assert concept_id(concept) == concept_id(canonical)


class TestNormalizeIntegration:
    def test_normalize_returns_canonical_instances(self):
        concept = b.conjoin(b.concept("B"), b.concept("A"), b.top())
        assert is_interned(normalize_concept(concept))

    def test_normalize_is_memoized_by_identity(self):
        concept = b.conjoin(b.concept("A"), b.exists(("p", b.concept("B"))))
        assert normalize_concept(concept) is normalize_concept(concept)

    def test_structurally_equal_inputs_normalize_to_same_object(self):
        first = normalize_concept(b.conjoin(b.concept("B"), b.concept("A")))
        second = normalize_concept(b.conjoin(b.concept("A"), b.concept("B")))
        assert first is second

    @settings(max_examples=60, deadline=None)
    @given(concepts(max_depth=2))
    def test_normalization_unchanged_by_interning(self, concept):
        # The memoized/interned normalizer must agree with normalizing a
        # fresh structural copy (the memo can never change the result).
        assert normalize_concept(concept) is normalize_concept(intern_concept(concept))

    def test_clear_intern_tables_is_safe_and_drops_the_normalize_memo(self):
        from repro.concepts.normalize import _NORMALIZED

        kept = intern_concept(b.conjoin(b.concept("KeptA"), b.concept("KeptB")))
        with restored_intern_tables():
            concept = b.conjoin(b.concept("ClearMe"), b.concept("Too"))
            before = normalize_concept(concept)
            old_id = concept_id(before)
            clear_intern_tables()
            assert not _NORMALIZED  # dependent cache cleared alongside the tables
            after = normalize_concept(b.conjoin(b.concept("ClearMe"), b.concept("Too")))
            # Same structure, fresh canonical instance with a never-reused id.
            assert after == before
            assert concept_id(after) != old_id
        # The clear does not outlive the test.
        assert intern_concept(b.conjoin(b.concept("KeptA"), b.concept("KeptB"))) is kept


class TestPickleAndConcurrency:
    """The multi-process / multi-thread guarantees of the interning layer."""

    def test_intern_stamp_attribute_name_in_sync_with_syntax(self):
        # syntax._StampFreeState strips this attribute on pickling/copying;
        # the two modules must agree on its name.
        from repro.concepts import intern as intern_module
        from repro.concepts import syntax as syntax_module

        assert intern_module._ID_ATTR == syntax_module._INTERN_STAMP

    @settings(max_examples=60, deadline=None)
    @given(concepts(max_depth=2))
    def test_pickle_roundtrip_is_id_stable(self, concept):
        canonical = intern_concept(concept)
        clone = pickle.loads(pickle.dumps(canonical))
        assert clone == canonical
        # The clone must not claim to be canonical (its stamp is stripped)...
        assert not is_interned(clone)
        # ...and re-interning it finds the original instance and id.
        assert intern_concept(clone) is canonical
        assert concept_id(clone) == concept_id(canonical)

    def test_pickle_does_not_leak_foreign_ids(self):
        canonical = intern_concept(b.conjoin(b.concept("PickleA"), b.concept("PickleB")))
        payload = pickle.dumps(canonical)
        clone = pickle.loads(payload)
        assert _INTERN_STAMP not in vars(clone)

    def test_paths_pickle_without_stamp(self):
        path = intern_path(b.path(("p", b.concept("A")), ("q", b.concept("B"))))
        clone = pickle.loads(pickle.dumps(path))
        assert clone == path
        assert not is_interned(clone)
        assert intern_path(clone) is path

    def test_deepcopy_drops_the_stamp(self):
        canonical = intern_concept(b.exists(("p", b.concept("CopyMe"))))
        clone = copy.deepcopy(canonical)
        assert clone == canonical
        assert not is_interned(clone)
        assert intern_concept(clone) is canonical

    def test_concurrent_interning_agrees_on_one_id(self):
        """Racing threads interning equal fresh structures get one canonical id."""
        from concurrent.futures import ThreadPoolExecutor

        def build(worker):
            return [
                concept_id(
                    b.conjoin(
                        b.concept(f"Race{index}"),
                        b.exists(("p", b.concept(f"RaceFiller{index}"))),
                    )
                )
                for index in range(50)
            ]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(build, range(4)))
        first = results[0]
        for other in results[1:]:
            assert other == first


class TestHashMemo:
    """The structural hash is computed once per instance and never leaves the process."""

    #: Built in the parent and rebuilt from source in the receiving process.
    SENDER = 'b.conjoin(b.concept("Sender"), b.exists(("p", b.concept("Filler"))))'

    def test_each_memoized_class_keeps_its_hash(self):
        for node in one_node_of_each_memoized_class():
            assert _HASH_MEMO not in vars(node), type(node)
            value = hash(node)
            assert vars(node)[_HASH_MEMO] == value, type(node)
            # hash() answers from the memo, not from a recomputation.
            probe = rebuild(node)
            object.__setattr__(probe, _HASH_MEMO, 12345)
            assert hash(probe) == 12345, type(node)

    def test_neither_memo_nor_stamp_survives_pickle_or_deepcopy(self):
        for node in one_node_of_each_memoized_class():
            canonical = intern_path(node) if isinstance(node, Path) else intern_concept(node)
            hash(canonical)
            assert _HASH_MEMO in vars(canonical) and _INTERN_STAMP in vars(canonical)
            for clone in (pickle.loads(pickle.dumps(canonical)), copy.deepcopy(canonical)):
                assert clone == canonical
                assert _HASH_MEMO not in vars(clone), type(node)
                assert _INTERN_STAMP not in vars(clone), type(node)

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_an_unpickled_concept_hashes_like_the_receivers_own(self, hash_seed):
        # str hashes differ between processes under hash randomization, so a
        # memo carried across pickle would miss every lookup in the receiver.
        concept = intern_concept(eval(self.SENDER, {"b": b}))
        hash(concept)
        script = (
            "import pickle, sys\n"
            "from repro.concepts import builders as b\n"
            "clone = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = {self.SENDER}\n"
            "print(hash(clone) == hash(fresh), clone in {fresh})\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(concept),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            timeout=60,
            check=True,
        )
        assert result.stdout.split() == [b"True", b"True"]

    @settings(max_examples=80, deadline=None)
    @given(concepts(max_depth=3))
    def test_memoized_hash_is_the_structural_hash(self, concept):
        fresh = rebuild(concept)
        assert _HASH_MEMO not in vars(fresh)
        value = hash(fresh)
        # The dataclass field-tuple formula, now read from the memo...
        assert value == hash(tuple(getattr(fresh, f.name) for f in dataclasses.fields(fresh)))
        assert hash(fresh) == value
        # ...equal to a never-hashed rebuild's, before and after interning.
        assert hash(rebuild(concept)) == value
        assert hash(intern_concept(fresh)) == value
        assert hash(concept) == value

    def test_paths_keep_the_path_formula(self):
        path = b.path(("p", b.concept("A")), ("q", b.top()))
        assert hash(path) == hash(("Path", rebuild(path).steps))

    def test_clear_intern_tables_changes_no_hash(self):
        concept = intern_concept(b.conjoin(b.concept("HashKept"), b.exists(("p", b.top()))))
        before = hash(concept)
        with restored_intern_tables():
            clear_intern_tables()
            reinterned = intern_concept(rebuild(concept))
            assert concept_id(reinterned) != concept_id(concept)
            assert hash(concept) == before == hash(reinterned)
            assert reinterned in {concept}
