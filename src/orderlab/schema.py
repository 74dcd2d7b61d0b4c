"""The input document format: one shape per input kind, and ``load``,
which checks a document against the shape of its kind and decodes it.

A shape is a dict of keys (a key ending in "?" is optional; a key not
listed is refused, so that a misspelt optional key is not silently
skipped), ``{str: shape}`` or ``{int: shape}`` for an object with any keys
(integer literals for ``int``), ``[shape]`` for an array, ``str`` for a
string, ``None`` for a value that the constructors check (ids, pairs,
arities, bounds), or the name of a kind.
"""

from .depletion import DepletionInstance
from .errors import InputError, brief
from .fol import FiniteStructure, parse_formula
from .forcing import ExplicitChainFactor
from .posets import RelStructure, int_ids, make_poset
from .redprod import FilterFamily
from .seqspace import SeqFun

IDS = [None]  # an id list: the ids themselves are the constructors' to check
STRUCTURE = "finite structure"

KINDS = {
    "poset": {"elements": IDS, "edges": [IDS]},
    "sequence": {"bounds": IDS, "vals": IDS},
    "depletion instance": {"I": IDS, "A": IDS, "F": {int: IDS}, "edges": [IDS]},
    "relation structure": {"universe": IDS, "pairs": [IDS]},
    STRUCTURE: {"universe": IDS, "relations": {str: {"arity": None, "tuples": [IDS]}}},
    "filter": {"ground": None, "members?": [IDS], "core?": IDS},
    "product request": {"factors": [STRUCTURE], "filter": "filter",
                        "literals?": [{"formula": str, "vectors": [IDS]}]},
    "chains request": {"structure": STRUCTURE, "formula": str},
    "chain factors": {"kind": str, "factors?": [
        {"structure": STRUCTURE, "formula": str, "chain": [IDS]}]},
}


class _Fault(Exception):
    path = ()  # the keys and indices from the walked node down to the fault


def _depletion_instance(d):
    labels, core = int_ids(d["I"]), int_ids(d["A"])
    fibers = {k: int_ids(v) for k, v in d["F"].items()}
    order = make_poset(set(core).union(*fibers.values()), d["edges"])
    return DepletionInstance(labels, core, fibers, order)


def _filter(d):
    if "members" in d and "core" in d:
        raise _Fault('a filter takes "members" or "core", not both')
    if "members" in d:
        return FilterFamily(d["ground"], d["members"])
    if "core" in d:
        return FilterFamily.principal(d["ground"], d["core"])
    raise _Fault('a filter needs "members" or "core"')


def _chain_factors(d):
    if d["kind"] == "eta":
        if "factors" in d:
            raise _Fault('kind "eta" takes no "factors"')
        return None
    if d["kind"] != "explicit" or "factors" not in d:
        raise _Fault(f'kind {brief(d["kind"])} is neither "eta" nor "explicit" with factors')
    return [ExplicitChainFactor(f["structure"], parse_formula(f["formula"]), f["chain"])
            for f in d["factors"]]


# what each kind decodes to, from its checked document; the kinds not
# listed decode to the checked document itself
DECODE = {
    "poset": lambda d: make_poset(d["elements"], d["edges"]),
    "sequence": lambda d: SeqFun(tuple(d["bounds"]), tuple(d["vals"])),
    "depletion instance": _depletion_instance,
    "relation structure": lambda d: RelStructure.from_pairs(d["universe"], d["pairs"]),
    STRUCTURE: lambda d: FiniteStructure(d["universe"], {
        name: (r["arity"], r["tuples"]) for name, r in d["relations"].items()}),
    "filter": _filter,
    "chain factors": _chain_factors,
}

_NAMES = {dict: "object", list: "array", str: "string", type(None): "null"}


def _expect(value, want):
    if not isinstance(value, want):
        got = _NAMES.get(type(value), type(value).__name__)
        raise _Fault(f"not a JSON {_NAMES[want]} (got {got})")


def _at(step, shape, value):
    """_walk(shape, value), the step added to the path of a fault."""
    try:
        return _walk(shape, value)
    except _Fault as f:
        f.path = (step,) + f.path
        raise


def _key(key_type, k):
    try:
        return key_type(k)
    except ValueError:
        raise _Fault(f"key {brief(k)} is not an integer") from None


def _walk(shape, value):
    """The value checked against the shape and decoded."""
    if shape is None:
        return value
    if shape is str:
        _expect(value, str)
        return value
    if isinstance(shape, str):
        walked = _walk(KINDS[shape], value)
        return DECODE[shape](walked) if shape in DECODE else walked
    if isinstance(shape, list):
        _expect(value, list)
        if shape[0] is None:
            return value
        if shape[0] == IDS and all(isinstance(item, list) for item in value):
            return value  # the common case of id lists, without a call per item
        return [_at(i, shape[0], item) for i, item in enumerate(value)]
    _expect(value, dict)
    if str in shape or int in shape:
        (key_type, sub), = shape.items()
        return {_key(key_type, k): _at(k, sub, v) for k, v in value.items()}
    out = {}
    for key, sub in shape.items():
        name = key.rstrip("?")
        if name in value:
            out[name] = _at(name, sub, value[name])
        elif name == key:
            raise _Fault(f"missing key {name!r}")
    if len(out) < len(value):  # a key that no shape key read
        raise _Fault(f"unknown key {brief(next(k for k in value if k not in out))}")
    return out


def load(kind, doc):
    """The document of the kind, checked and decoded; InputError naming the
    kind, the JSON path and the fault when it does not fit."""
    try:
        return _walk(kind, doc)
    except _Fault as f:
        path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in f.path)
        raise InputError(f"{kind}: ${path}: {f}") from None
