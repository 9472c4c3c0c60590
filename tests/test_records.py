"""The contract of the package's four immutable records.

``EdgeMultiplicities``, ``Multigraph``, ``FacetInequality`` and
``CheckResult`` are built positionally or by keyword.
A record equals only a record of its own class with equal fields (never a
tuple, never a record of another class), hashes as the tuple of its
fields, shows as ``Class(field=value, ...)``, refuses assignment and
deletion with ``AttributeError``, and survives ``copy``, ``deepcopy`` and
``pickle``.  Each case pairs a record the package built with its public
twin, built through the constructor.
"""

import copy
import pickle

import pytest

from permutoehr import graphs
from permutoehr.graphs import EdgeMultiplicities, Multigraph
from permutoehr.polytope import FacetInequality, PartialPermutohedron
from permutoehr.verify import CheckResult, _verdict

# (the record the package built, its public twin, its fields, its repr,
# a record of its class that differs from the twin in one field)
CASES = {
    "EdgeMultiplicities": (
        lambda: graphs.from_multigraph(Multigraph(2, (1, 0), (1,))),
        lambda: EdgeMultiplicities(2, (1, 0), (1,)),
        {"m": 2, "loop": (1, 0), "pair": (1,)},
        "EdgeMultiplicities(m=2, loop=(1, 0), pair=(1,))",
        lambda: EdgeMultiplicities(2, (0, 1), (1,)),
    ),
    "Multigraph": (
        lambda: graphs.to_multigraph(EdgeMultiplicities(2, (1, 0), (1,))),
        lambda: Multigraph(2, (1, 0), (1,)),
        {"m": 2, "loops": (1, 0), "pair_mult": (1,)},
        "Multigraph(m=2, loops=(1, 0), pair_mult=(1,))",
        lambda: Multigraph(2, (1, 0), (2,)),
    ),
    "FacetInequality": (
        lambda: PartialPermutohedron(2, 2).facets()[-1],
        lambda: FacetInequality((1, 1), "<=", 3),
        {"coeffs": (1, 1), "sense": "<=", "bound": 3},
        "FacetInequality(coeffs=(1, 1), sense='<=', bound=3)",
        lambda: FacetInequality((1, 1), ">=", 3),
    ),
    "CheckResult": (
        lambda: _verdict("round-trip", ["m=1"], "identity"),
        lambda: CheckResult("round-trip", False, "mismatch at m=1"),
        {"name": "round-trip", "passed": False, "detail": "mismatch at m=1"},
        "CheckResult(name='round-trip', passed=False, detail='mismatch at m=1')",
        lambda: CheckResult("round-trip", True, "mismatch at m=1"),
    ),
}


@pytest.fixture(params=CASES.values(), ids=CASES.keys())
def case(request):
    built, twin, fields, shown, other = request.param
    return built(), twin(), fields, shown, other()


def test_equals_and_hashes_like_its_public_twin(case):
    built, twin, fields, _, _ = case
    assert built == twin and not built != twin
    assert type(built) is type(twin)
    assert hash(built) == hash(twin) == hash(tuple(fields.values()))
    assert len({built, twin}) == 1


def test_keyword_construction(case):
    _, twin, fields, _, _ = case
    assert type(twin)(**fields) == twin
    first, *rest = fields
    assert type(twin)(fields[first], **{k: fields[k] for k in rest}) == twin
    assert [getattr(twin, name) for name in fields] == list(fields.values())


def test_unequal_to_the_tuple_of_its_fields(case):
    _, twin, fields, _, _ = case
    values = tuple(fields.values())
    assert twin != values and values != twin
    assert not twin == values


def test_unequal_when_one_field_differs(case):
    _, twin, fields, _, other = case
    assert type(other) is type(twin)
    assert sum(getattr(other, name) != value for name, value in fields.items()) == 1
    assert twin != other and not twin == other


def test_repr(case):
    _, twin, _, shown, _ = case
    assert repr(twin) == shown


@pytest.mark.parametrize("action", ("set", "delete", "add"))
def test_fields_cannot_be_assigned_or_deleted(case, action):
    _, twin, fields, _, _ = case
    name = next(iter(fields)) if action != "add" else "extra"
    with pytest.raises(AttributeError):
        if action == "delete":
            delattr(twin, name)
        else:
            setattr(twin, name, fields[next(iter(fields))])
    assert [getattr(twin, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize(
    "clone",
    (
        copy.copy,
        copy.deepcopy,
        *(
            lambda record, protocol=protocol: pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
    ),
    ids=("copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))),
)
def test_copies_are_equal_and_of_the_same_type(case, clone):
    _, twin, _, shown, _ = case
    copied = clone(twin)
    assert type(copied) is type(twin)
    assert copied == twin and hash(copied) == hash(twin)
    assert repr(copied) == shown


def test_graph_records_of_two_classes_are_unequal():
    graph = Multigraph(2, (0, 0), (1,))
    seq = EdgeMultiplicities(2, (0, 0), (1,))
    assert graph != seq and seq != graph
    assert not graph == seq


@pytest.mark.parametrize("cls", (EdgeMultiplicities, Multigraph))
@pytest.mark.parametrize(
    "values",
    ((2, [1, 0], (1,)), (2, (1, 0), (-1,)), (2, (1,), (1,)), (True, (1,), ()), (2, (1, 0.5), (1,))),
)
def test_graph_constructors_check_keyword_input_too(cls, values):
    with pytest.raises(ValueError):
        cls(*values)
    with pytest.raises(ValueError):
        cls(**dict(zip(CASES[cls.__name__][2], values)))


@pytest.mark.parametrize("cls", (EdgeMultiplicities, Multigraph))
@pytest.mark.parametrize(
    "args, kwargs",
    (
        ((2, (1, 0)), {}),
        ((2, (1, 0), (1,), 0), {}),
        ((2, (1, 0), (1,)), {"m": 2}),
        ((2, (1, 0)), {"colour": (1,)}),
    ),
    ids=("missing", "extra", "repeated", "unknown"),
)
def test_wrong_arguments_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)
