"""JSON schemas for instances, benchmarks, policies, ALP bases and reports.

One writer, ``dumps``, emits every report and instance file. Callers hand it
NumPy arrays as they are; every float is emitted with 17 significant digits,
so reports round-trip exactly and are byte-stable for identical inputs.

One reader, ``loads``, decodes every input file to the objects ``json.loads``
returns, or raises the error it raises. CPython reads a 17-digit float
through the slow path of its correctly rounded parser (about 0.5 us a value
on a 2-vCPU Xeon VM), so a dense kernel's text took longer to decode than to
solve. ``loads`` keeps ``json``'s structure (its pure-Python scanner) and
hands every flat array, one whose text holds no ``[``, ``{`` or ``"`` before
its ``]``, to ``orjson``, whose float parser is also correctly rounded and
so gives the same bits. ``orjson`` reads an integer outside the 64-bit range
as a float, so an array whose values leave (-2**63, 2**64), or that holds a
null, is decoded by ``json`` instead. Text that is not ASCII (the
pure-Python scanner's number pattern also matches non-ASCII digits), text
whose first inner object is a sparse kernel row (``{"to":``, as ``dumps``
writes it: many short arrays and objects, which cost the pure-Python
scanner more than ``json``'s C scanner takes for the whole file) and text
the fast path cannot decode (NaN, ``1e400``, syntax errors, nesting past the
recursion limit) go to ``json.loads`` whole.

All floats are parsed as 64-bit. A file whose JSON types do not fit the
schema is reported as a ValueError by the ``parse_*`` function that decodes
it. Where a schema asks for a number (an instance's r, z, discount, initial,
benchmark support and probs, extra_grid and a sparse row's p; a policy's
probabilities; a basis's h and u_lambdas; a portfolio config's price levels
and transitions, discount and initial holdings), a string or a boolean is
refused, although ``float()`` would read one; a dense kernel row
refuses strings through the dtype of the decoded array, and booleans by an
exact type test of the rows that hold an exact 0 or 1, the values a boolean
decodes to.

Kernel rows. A pair's row of P is either dense, one number per state, or
sparse, ``{"to": [j, ...], "p": [p, ...]}``: ``to`` holds JSON integers,
strictly increasing, in [0, states), ``p`` holds numbers, and the two lists
have equal lengths; the entries not listed are zero. One file may mix the
two forms row by row. ``parse_instance`` scatters sparse rows into the dense
kernel, bit for bit the kernel of the same numbers written dense.
``instance_to_obj`` writes every row sparse when fewer than
``lp.SPARSE_DENSITY`` of the kernel's entries are nonzero (the rule by which
``lp._compressed`` holds a matrix as compressed columns), and every row
dense otherwise.
"""

from __future__ import annotations

import functools
import json
import json.decoder
import json.scanner
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
import orjson

from .alp import BasisSet
from .dominance import GeneratorFamily, _distribution, reconstruct_utility, weighted_kink_family
from .lp import _compressed
from .mdp import Benchmark, MdpInstance, Policy
from .portfolio import PortfolioConfig

_ARRAY_SPECS = {"f": "%.17g", "i": "%d", "u": "%d"}


def _format_array(a: np.ndarray) -> str:
    """A numeric array of any shape, through one template and one ``%``."""
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"cannot emit non-finite float {float(a[~np.isfinite(a)][0])!r}")
    template = _ARRAY_SPECS[a.dtype.kind]
    for n in reversed(a.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(a.ravel().tolist())


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"cannot emit non-finite float {v!r}")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_format(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, np.ndarray) and value.dtype.kind in _ARRAY_SPECS:
        return _format_array(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_format(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats; arrays go in as they are."""
    return _format(obj)


def _parse_array(s_and_end, scan_once):
    """``json.decoder.JSONArray``, with a flat array's text decoded by orjson."""
    s, end = s_and_end
    close = s.find("]", end)
    # Three finds, not a generator over '[{"': sparse kernel rows are many short arrays.
    if close >= 0 and (
        s.find("[", end, close) < 0 and s.find("{", end, close) < 0 and s.find('"', end, close) < 0
    ):
        values = orjson.loads(s[end - 1 : close + 1])
        try:
            # orjson turns an integer outside the 64-bit range into a float
            # of magnitude >= 2**63 (-2**63 - 1 rounds to -2**63), and the
            # norm is at least every magnitude: exact, and the integers in
            # [2**63, 2**64) go to json as well.
            if math.hypot(*values) < 2**63:
                return values, close + 1
        except (TypeError, OverflowError):  # a null; an integer past the float range
            pass
    return json.decoder.JSONArray(s_and_end, scan_once)


class _FlatArrayDecoder(json.JSONDecoder):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.parse_array = _parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def loads(text: str):
    """``json.loads(text)``: the same objects, float bits and errors, faster on flat arrays."""
    # instance_to_obj puts P before every other object, so the first object
    # inside a sparse-row file is a kernel row; one memchr finds it.
    if text.isascii() and not text.startswith('{"to":', text.find("{", 1)):
        try:
            return json.loads(text, cls=_FlatArrayDecoder)
        except (ValueError, RecursionError):
            pass  # json.loads below gives the result or the error
    return json.loads(text)


def _decodes(what: str):
    """Report JSON of the wrong types (TypeError, IndexError, KeyError) as a
    ValueError, and an integer too large for a float (OverflowError) too."""

    def wrap(parse):
        @functools.wraps(parse)
        def checked(*args):
            try:
                return parse(*args)
            except (TypeError, IndexError, KeyError, OverflowError) as exc:
                raise ValueError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc

        return checked

    return wrap


@dataclass(frozen=True)
class LoadedInstance:
    instance: MdpInstance
    benchmark: Benchmark | None
    family: GeneratorFamily | None
    extra_grid: np.ndarray | None


def _refuse_non_numbers(value, what: str) -> None:
    """Raise on the first string or boolean in a JSON value, in file order.

    ``float()`` and ``np.asarray(..., dtype=float)`` read both as numbers, so
    this runs after them, and their own error texts come first.
    """
    if isinstance(value, (str, bool)):
        raise ValueError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, list) and not set(map(type, value)) <= {int, float}:
        for v in value:
            _refuse_non_numbers(v, what)


def _number(value, what: str) -> float:
    """A JSON number as a float."""
    number = float(value)
    _refuse_non_numbers(value, what)
    return number


def _floats(value, what: str) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array."""
    array = np.asarray(value, dtype=float)
    _refuse_non_numbers(value, what)
    return array


@_decodes("benchmark")
def parse_benchmark(obj: dict) -> Benchmark:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("benchmark needs 'support' and 'probs'")
    bench = Benchmark(support=np.asarray(obj["support"], dtype=float), probs=obj["probs"])
    _refuse_non_numbers(obj["support"], "'support'")
    _refuse_non_numbers(obj["probs"], "'probs'")
    return bench


def _integer(value, what: str) -> int:
    """A JSON integer. int() would truncate a float and read a string or a
    boolean, so those are refused; other types keep int()'s TypeError."""
    if isinstance(value, (bool, float, str)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"instance file missing key '{key}'")
    return obj[key]


def _check_block(P, r, z, actions, s: int) -> None:
    if len(P[s]) != len(actions[s]) or len(r[s]) != len(actions[s]) or len(z[s]) != len(actions[s]):
        raise ValueError(f"state {s}: P/r/z must have one entry per action")


def _scatter(rows: list, num_states: int) -> np.ndarray:
    """Sparse rows as one dense kernel, through one flat index/value scatter.

    Raises on the first row that is not a well-formed sparse row, without
    naming it: the one-by-one path then names the fault in file order.
    """
    if not all(type(row) is dict and len(row) == 2 for row in rows):
        raise ValueError("not every row is sparse")
    to = [row["to"] for row in rows]
    p = [row["p"] for row in rows]
    if not all(type(t) is list and type(v) is list for t, v in zip(to, p)):
        raise ValueError("sparse rows need 'to' and 'p' lists")
    counts = [len(t) for t in to]
    if counts != [len(v) for v in p]:
        raise ValueError("sparse rows need 'to' and 'p' of equal length")
    flat_to = list(chain.from_iterable(to))
    flat_p = list(chain.from_iterable(p))
    if not (set(map(type, flat_to)) <= {int} and set(map(type, flat_p)) <= {int, float}):
        raise ValueError("sparse rows need integer indices and numbers")
    if flat_to and not (0 <= min(flat_to) and max(flat_to) < num_states):
        raise ValueError("sparse row index out of range")
    # Row-major keys increase strictly exactly when every row's indices do.
    keys = np.repeat(np.arange(len(rows)) * num_states, counts)
    keys += np.array(flat_to, dtype=np.int64)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("sparse row indices not strictly increasing")
    kernel = np.zeros((len(rows), num_states))
    kernel.flat[keys] = np.array(flat_p, dtype=float)
    return kernel


def _stack(rows: list, num_states: int) -> np.ndarray:
    """The kernel from rows that are all sparse or all dense; raises otherwise.

    Dense rows are decoded whole, and a dtype other than float or integer (a
    string anywhere gives a string dtype), or a boolean among the numbers,
    sends the file to the one-by-one path.
    """
    if rows and type(rows[0]) is dict:
        return _scatter(rows, num_states)
    kernel = np.array(rows)
    if kernel.dtype.kind not in "fiu":
        raise ValueError(f"kernel rows decode to dtype {kernel.dtype}")
    # A boolean among numbers decodes to exactly 0 or 1, so only the rows
    # holding one need the exact type test.
    binary = ((kernel == 0) | (kernel == 1)).any(axis=tuple(range(1, kernel.ndim)))
    for i in np.flatnonzero(binary).tolist():
        _refuse_non_numbers(rows[i], "kernel row")
    return kernel.astype(float, copy=False)


def _pairs_by_block(P, r, z, actions):
    """Kernel, r and z in pair order, each state's block joined whole and converted once."""
    for s in range(len(actions)):
        _check_block(P, r, z, actions, s)
    kernel = _stack([row for block in P[: len(actions)] for row in block], len(actions))
    r_flat = [v for block in r[: len(actions)] for v in block]
    _refuse_non_numbers(r_flat, "'r'")
    r_flat = [float(v) for v in r_flat]
    z_flat = [v for block in z[: len(actions)] for v in block]
    return kernel, r_flat, z_flat


def _sparse_row(row: dict, num_states: int, where: str) -> np.ndarray:
    """One sparse row as a dense one, with the first fault in it named."""
    if sorted(row) != ["p", "to"]:
        raise ValueError(f"{where}: a sparse row has the keys 'to' and 'p', got {list(row)}")
    to, p = row["to"], row["p"]
    if not (isinstance(to, list) and isinstance(p, list)):
        raise ValueError(f"{where}: 'to' and 'p' must be lists")
    if len(to) != len(p):
        raise ValueError(f"{where}: 'to' and 'p' differ in length ({len(to)} and {len(p)})")
    last = -1
    for j in to:
        if type(j) is not int:
            raise ValueError(f"{where} 'to': expected an integer, got {j!r}")
        if not 0 <= j < num_states:
            raise ValueError(f"{where} 'to': index {j} outside [0, {num_states})")
        if j <= last:
            raise ValueError(f"{where} 'to': indices must increase strictly, got {j} after {last}")
        last = j
    dense = np.zeros(num_states)
    dense[to] = [_number(v, f"{where} 'p'") for v in p]
    return dense


def _dense_row(row, where: str) -> np.ndarray:
    """One dense row; a string or a boolean in it is refused, as the block path refuses it."""
    dense = np.asarray(row, dtype=float)
    wrong = [v for v in np.asarray(row, dtype=object).ravel() if isinstance(v, (str, bool))]
    if wrong:
        raise ValueError(f"{where}: expected a number, got {wrong[0]!r}")
    return dense


def _pairs_one_by_one(P, r, z, actions):
    """``_pairs_by_block`` one pair at a time, with the kernel as a list of rows.

    Slower, and run only when the block path fails (or the rows mix the two
    forms): it raises on the first malformed entry in file order, with that
    entry's own error text, and leaves dense rows of unequal shape to fail
    when the kernel is stacked.
    """
    kernel_rows, r_flat, z_flat = [], [], []
    for s in range(len(actions)):
        _check_block(P, r, z, actions, s)
        for a in range(len(actions[s])):
            row, where = P[s][a], f"P[{s}][{a}]"
            if isinstance(row, dict):
                kernel_rows.append(_sparse_row(row, len(actions), where))
            else:
                kernel_rows.append(_dense_row(row, where))
            r_flat.append(_number(r[s][a], "'r'"))
            z_flat.append(z[s][a])
    return kernel_rows, r_flat, z_flat


@_decodes("instance file")
def parse_instance(obj: dict) -> LoadedInstance:
    """Decode the instance file schema into validated domain objects."""
    num_states = _integer(_require(obj, "states"), "'states'")
    actions = tuple(tuple(str(a) for a in acts) for acts in _require(obj, "actions"))
    mode = str(_require(obj, "mode"))
    if len(actions) != num_states:
        raise ValueError("'actions' must list one action set per state")
    P = _require(obj, "P")
    r = _require(obj, "r")
    z = _require(obj, "z")
    try:
        kernel, r_flat, z_flat = _pairs_by_block(P, r, z, actions)
    except (TypeError, ValueError, IndexError, KeyError, OverflowError):
        kernel, r_flat, z_flat = _pairs_one_by_one(P, r, z, actions)
    if z_flat and isinstance(z_flat[0], (list, tuple)):
        reward_z = _floats(z_flat, "'z'")
    else:
        reward_z = np.asarray([float(v) for v in z_flat])
        _refuse_non_numbers(z_flat, "'z'")
    discount, initial = obj.get("discount"), obj.get("initial")
    inst = MdpInstance(
        num_states=num_states,
        actions=actions,
        kernel=np.asarray(kernel),
        reward_r=np.array(r_flat),
        reward_z=reward_z,
        mode=mode,
        discount=_number(discount, "'discount'") if discount is not None else None,
        initial=_floats(initial, "'initial'") if initial is not None else None,
    )
    benchmark = parse_benchmark(obj["benchmark"]) if "benchmark" in obj else None
    family = None
    if "family" in obj:
        fam = obj["family"]
        if benchmark is None:
            raise ValueError("a generator family requires a benchmark")
        if "weights" not in fam or "etas" not in fam:
            raise ValueError("'family' needs 'weights' and 'etas'")
        family = weighted_kink_family(fam["weights"], fam["etas"], benchmark)
    extra = _floats(obj["extra_grid"], "'extra_grid'") if "extra_grid" in obj else None
    if extra is not None and extra.ndim != 1:
        raise ValueError("'extra_grid' must be a list of numbers")
    if extra is not None and not np.all(np.isfinite(extra)):
        raise ValueError("'extra_grid' must be finite")
    # Checked last, so that a file with another fault still reports that one.
    for key, blocks in (("P", P), ("r", r), ("z", z)):
        if len(blocks) != num_states:
            raise ValueError(
                f"'{key}' must list one block per state ({num_states}), got {len(blocks)}"
            )
    return LoadedInstance(instance=inst, benchmark=benchmark, family=family, extra_grid=extra)


def _kernel_blocks(inst: MdpInstance) -> list:
    """P as one block of rows per state: every row sparse when fewer than
    lp.SPARSE_DENSITY of the kernel's entries are nonzero, else every row dense."""
    offsets = inst.pair_offsets
    rows = _compressed(inst.kernel.T)  # the kernel's rows are its transpose's columns
    if rows is None:
        return np.split(inst.kernel, offsets[1:-1])
    starts, to, p = rows
    bounds = starts.tolist()
    sparse = [{"to": to[lo:hi], "p": p[lo:hi]} for lo, hi in zip(bounds, bounds[1:])]
    return [sparse[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def instance_to_obj(inst: MdpInstance, bench: Benchmark | None = None) -> dict:
    """The instance file schema: P, r and z as one block of rows per state."""
    cuts = inst.pair_offsets[1:-1]
    out = {
        "states": inst.num_states,
        "actions": inst.actions,
        "P": _kernel_blocks(inst),
        "r": np.split(inst.reward_r, cuts),
        "z": np.split(inst.reward_z, cuts),
        "mode": inst.mode,
    }
    if inst.discount is not None:
        out["discount"] = float(inst.discount)
    if inst.initial is not None:
        out["initial"] = inst.initial
    if bench is not None:
        out["benchmark"] = {"support": bench.support, "probs": bench.probs}
    return out


@_decodes("basis file")
def parse_basis(obj: dict) -> BasisSet:
    if not isinstance(obj, dict) or "h" not in obj:
        raise ValueError("basis file needs 'h': list of per-state value rows")
    try:
        lambdas = [
            [(_number(e, "eta"), _number(w, "weight")) for e, w in lam]
            for lam in obj.get("u_lambdas", [])
        ]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'u_lambdas' must hold lists of [eta, weight] pairs: {exc}") from exc
    u_bases = tuple(
        reconstruct_utility([e for e, _ in lam], [w for _, w in lam]) for lam in lambdas
    )
    return BasisSet(h_bases=_floats(obj["h"], "'h'"), u_bases=u_bases)


@_decodes("policy file")
def parse_policy(obj, inst: MdpInstance) -> Policy:
    """Accept [[state, [probs...]], ...] or {"policy": [...]}."""
    if isinstance(obj, dict):
        if "policy" not in obj:
            raise ValueError("policy file needs a 'policy' key or a bare list")
        rows_spec = obj["policy"]
    else:
        rows_spec = obj
    if not isinstance(rows_spec, list):
        raise ValueError("policy must be a list of [state, [probs...]] entries")
    rows: list[np.ndarray | None] = [None] * inst.num_states
    for entry in rows_spec:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"policy entry {entry!r} is not [state, [probs...]]")
        s = _integer(entry[0], "policy state")
        probs = _floats(entry[1], f"policy row for state {s}")
        if not 0 <= s < inst.num_states:
            raise ValueError(f"policy references unknown state {s}")
        if rows[s] is not None:
            raise ValueError(f"policy lists state {s} twice")
        if probs.size != len(inst.actions[s]):
            raise ValueError(f"policy row for state {s} has wrong length")
        rows[s] = probs
    missing = [s for s, row in enumerate(rows) if row is None]
    if missing:
        raise ValueError(f"policy missing states {missing}")
    return Policy(tuple(rows))


@_decodes("distribution")
def parse_distribution(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("distribution needs 'support' and 'probs'")
    values, probs = _distribution(obj["support"], obj["probs"])
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
        raise ValueError("distribution support and probs must be finite")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("'probs' must be a probability vector")
    _refuse_non_numbers(obj["support"], "'support'")
    _refuse_non_numbers(obj["probs"], "'probs'")
    return values, probs


@_decodes("portfolio config")
def parse_portfolio_config(obj: dict) -> PortfolioConfig:
    return PortfolioConfig(
        price_levels=tuple(
            tuple(_number(p, "'price_levels'") for p in lv) for lv in obj["price_levels"]
        ),
        price_transitions=tuple(
            _floats(T, "'price_transitions'") for T in obj["price_transitions"]
        ),
        resolution=_integer(obj["resolution"], "'resolution'"),
        discount=_number(obj["discount"], "'discount'"),
        benchmark=parse_benchmark(obj["benchmark"]),
        initial_holdings=_floats(obj["initial_holdings"], "'initial_holdings'")
        if obj.get("initial_holdings") is not None
        else None,
    )
