"""Property tests: ``Digest`` behaves exactly like the frozen dataclass it
replaced, with its hash computed once."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import Digest


@dataclasses.dataclass(frozen=True)
class DataclassDigest:
    """The previous definition of ``Digest``, kept as the reference."""

    token: object


request_ids = st.tuples(st.text(max_size=8), st.integers(0, 10**6))
tokens = st.one_of(
    st.text(max_size=12),
    st.integers(),
    st.tuples(st.just("req"), st.text(max_size=8), st.integers(0, 10**6)),
    st.tuples(
        st.just("batch"),
        st.integers(0, 50),
        st.integers(0, 10**4),
        st.lists(request_ids, max_size=8).map(tuple),
    ),
    st.tuples(st.just("ckpt"), st.integers(0, 50), st.integers(0, 10**4)),
)


def rebuilt(token):
    """An equal token held in a distinct object (where the type allows)."""
    return pickle.loads(pickle.dumps(token))


@given(tokens)
def test_hash_is_the_dataclass_hash(token):
    assert hash(Digest(token)) == hash((token,)) == hash(DataclassDigest(token))


@given(tokens, tokens)
def test_equality_is_structural(a, b):
    assert Digest(a) == Digest(rebuilt(a))
    assert not Digest(a) != Digest(rebuilt(a))
    assert (Digest(a) == Digest(b)) == (a == b)
    assert (Digest(a) != Digest(b)) == (a != b)
    assert Digest(a) != DataclassDigest(a)
    assert Digest(a) != a


@given(tokens)
def test_repr_matches_the_dataclass_era_format(token):
    assert repr(Digest(token)) == "Digest(%r)" % (token,)


@given(tokens)
def test_attributes_cannot_be_assigned(token):
    digest = Digest(token)
    with pytest.raises(dataclasses.FrozenInstanceError):
        digest.token = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        digest._hash = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del digest.token
    assert digest.token == token


@given(tokens)
def test_pickle_and_copy_round_trips(token):
    digest = Digest(token)
    for clone in (
        pickle.loads(pickle.dumps(digest)),
        copy.copy(digest),
        copy.deepcopy(digest),
    ):
        assert type(clone) is Digest
        assert clone == digest
        assert hash(clone) == hash(digest)
        assert clone.token == token


@given(st.lists(tokens, max_size=40))
def test_set_iteration_order_matches_the_dataclass(token_list):
    new = set()
    old = set()
    for token in token_list:
        new.add(Digest(token))
        old.add(DataclassDigest(token))
    assert [d.token for d in new] == [d.token for d in old]
    as_keys = {Digest(t): i for i, t in enumerate(token_list)}
    old_keys = {DataclassDigest(t): i for i, t in enumerate(token_list)}
    assert [d.token for d in as_keys] == [d.token for d in old_keys]
