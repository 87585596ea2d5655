"""Network data model and case handling.

Everything downstream works in per-unit on the system MVA base.  Cases can be
read from the common ``.m``-style tabular format (matrices ``bus``, ``gen``,
``branch``, ``gencost``) or from a native JSON schema; cost coefficients are
rescaled from $/MW^k to $/p.u.^k at parse time so objective values come out
directly in dollars.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class NetworkError(ValueError):
    """Invalid network data (disconnected, bad bounds, ...)."""


class ParseError(ValueError):
    """Malformed case text; message carries the offending line number."""


@dataclass(frozen=True)
class CostFunction:
    """Generation cost c2*p^2 + c1*p + c0 with p in per-unit, value in $."""
    c2: float = 0.0
    c1: float = 0.0
    c0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite([self.c2, self.c1, self.c0]).all()
                and self.c2 >= 0):
            raise NetworkError("cost coefficients must be finite, c2 >= 0")

    def value(self, p: float) -> float:
        return self.c2 * p * p + self.c1 * p + self.c0


@dataclass(frozen=True)
class Bus:
    id: int
    vmin: float = 0.9
    vmax: float = 1.1
    pd: float = 0.0
    qd: float = 0.0
    gsh: float = 0.0
    bsh: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.vmin <= self.vmax):
            raise NetworkError(f"bus {self.id}: need 0 < vmin <= vmax")
        if not all(np.isfinite([self.pd, self.qd, self.gsh, self.bsh])):
            raise NetworkError(f"bus {self.id}: non-finite data")


@dataclass(frozen=True)
class Generator:
    bus: int
    pmin: float = 0.0
    pmax: float = 0.0
    qmin: float = 0.0
    qmax: float = 0.0
    cost: CostFunction = CostFunction()

    def __post_init__(self):
        # a bound may be infinite; a NaN one fails the test too
        if not (self.pmin <= self.pmax and self.qmin <= self.qmax):
            raise NetworkError(f"generator at bus {self.bus}: crossed bounds")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float

    def __post_init__(self):
        if not (np.isfinite([self.r, self.x]).all()
                and self.r * self.r + self.x * self.x > 0):
            raise NetworkError(f"line ({self.from_bus},{self.to_bus}): "
                               f"zero or non-finite impedance")

    @property
    def g(self) -> float:
        """Off-diagonal conductance entry of the nodal matrix (negated series)."""
        return -self.r / (self.r ** 2 + self.x ** 2)

    @property
    def b(self) -> float:
        """Off-diagonal susceptance entry of the nodal matrix."""
        return self.x / (self.r ** 2 + self.x ** 2)


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]
    base_mva: float = 100.0
    name: str = "case"

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate bus ids")
        known = set(ids)
        for g in self.generators:
            if g.bus not in known:
                raise NetworkError(f"generator references unknown bus {g.bus}")
        for ln in self.lines:
            if ln.from_bus not in known or ln.to_bus not in known:
                raise NetworkError(f"line ({ln.from_bus},{ln.to_bus}) off the bus set")
        # connected iff a spanning forest has one line fewer than buses
        if len(_forest(ids, self.lines)) != len(ids) - 1:
            raise NetworkError("network is not connected")

    # ------------------------------------------------------------- structure
    @property
    def num_buses(self) -> int:
        return len(self.buses)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: k for k, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    @cached_property
    def _generators_by_bus(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for k, g in enumerate(self.generators):
            out.setdefault(g.bus, []).append(k)
        return out

    def generators_at(self, bus_id: int) -> list[int]:
        return list(self._generators_by_bus.get(bus_id, ()))

    @cached_property
    def incident_lines(self) -> dict[int, list[int]]:
        """Bus id -> indices of the lines at that bus, in line order."""
        incident: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for k, ln in enumerate(self.lines):
            incident[ln.from_bus].append(k)
            incident[ln.to_bus].append(k)
        return incident

    @property
    def is_radial(self) -> bool:
        return len(self.lines) == self.num_buses - 1

    def require_radial(self):
        if not self.is_radial:
            raise NetworkError(
                f"{self.name}: radial network required "
                f"({len(self.lines)} lines, {self.num_buses} buses)")


def tree_edges(net: Network, root: int) -> list[tuple[int, int, int]]:
    """Depth-first walk of the network from bus `root`: one (parent bus,
    child bus, line index) triple per bus reached, each after its parent's."""
    incident = net.incident_lines
    edges, stack, seen = [], [root], {root}
    while stack:
        i = stack.pop()
        for k in incident[i]:
            ln = net.lines[k]
            j = ln.to_bus if ln.from_bus == i else ln.from_bus
            if j not in seen:
                edges.append((i, j, k))
                seen.add(j)
                stack.append(j)
    return edges


def _forest(ids, lines) -> list[int]:
    """Positions of the lines that join two components when `lines` are
    added in order (union-find with path halving): a spanning forest."""
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    keep = []
    for k, ln in enumerate(lines):
        ri, rj = find(ln.from_bus), find(ln.to_bus)
        if ri != rj:
            parent[ri] = rj
            keep.append(k)
    return keep


# ---------------------------------------------------------------------- parse

_MAT_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[", re.MULTILINE)
_SCALAR_RE = re.compile(r"mpc\.(\w+)\s*=\s*([0-9eE+\-.]+)\s*;")

# columns of the supported tables
_BUS_COLS = 13
_GEN_COLS = 10
_BRANCH_COLS = 11


def _read_tables(text: str) -> tuple[dict, dict]:
    scalars = {m.group(1): float(m.group(2)) for m in _SCALAR_RE.finditer(text)}
    tables = {}
    lines = text.splitlines()
    for m in _MAT_RE.finditer(text):
        name = m.group(1)
        start_line = text[:m.end()].count("\n")
        rows = []
        for off, raw in enumerate(lines[start_line:]):
            body = raw.split("%")[0]
            if off == 0:
                body = body[body.index("[") + 1:]
            closed = "]" in body
            if closed:
                body = body[:body.index("]")]
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    rows.append([float(tok) for tok in chunk.split()])
                except ValueError as exc:
                    raise ParseError(
                        f"line {start_line + off + 1}: bad number in "
                        f"mpc.{name}: {exc}") from None
            if closed:
                break
        else:
            raise ParseError(f"line {start_line + 1}: unterminated mpc.{name}")
        tables[name] = rows
    return scalars, tables


def parse_case(text: str, *, drop_charging: bool = False, name: str = "case") -> Network:
    """Parse a case in the tabular ``.m`` subset.

    Branch rows with nonzero charging susceptance, off-nominal tap, or phase
    shift are rejected because the line model here is a pure series impedance;
    with ``drop_charging=True`` those entries are zeroed with a warning
    instead (used when radializing standard meshed cases).
    """
    scalars, tables = _read_tables(text)
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise ParseError(f"missing mpc.{required} table")
    known = {"bus", "gen", "branch", "gencost"}
    for extra in set(tables) - known:
        warnings.warn(f"ignoring unsupported table mpc.{extra}", stacklevel=2)
    base = float(scalars.get("baseMVA", 100.0))

    buses = []
    for row in tables["bus"]:
        if len(row) < _BUS_COLS:
            raise ParseError(f"bus row needs {_BUS_COLS} columns, got {len(row)}")
        buses.append(Bus(id=int(row[0]), pd=row[2] / base, qd=row[3] / base,
                         gsh=row[4] / base, bsh=row[5] / base,
                         vmax=row[11], vmin=row[12]))

    gencost = tables.get("gencost", [])
    if gencost and len(gencost) != len(tables["gen"]):
        raise ParseError("gencost rows do not match gen rows")

    gens = []
    for k, row in enumerate(tables["gen"]):
        if len(row) < _GEN_COLS:
            raise ParseError(f"gen row needs {_GEN_COLS} columns, got {len(row)}")
        if len(row) > 7 and row[7] <= 0:
            continue  # out-of-service unit
        cost = CostFunction()
        if gencost:
            crow = gencost[k]
            model, ncost = int(crow[0]), int(crow[3])
            if model != 2:
                raise ParseError(f"gencost row {k + 1}: only polynomial model 2 supported")
            if ncost > 3:
                raise ParseError(f"gencost row {k + 1}: degree above 2 not supported")
            coefs = crow[4:4 + ncost]
            pad = [0.0] * (3 - len(coefs)) + list(coefs)
            # $/MW^k -> $/p.u.^k on the MVA base
            cost = CostFunction(c2=pad[0] * base * base, c1=pad[1] * base, c0=pad[2])
        gens.append(Generator(bus=int(row[0]), qmax=row[3] / base, qmin=row[4] / base,
                              pmax=row[8] / base, pmin=row[9] / base, cost=cost))

    lines = []
    for row in tables["branch"]:
        if len(row) < _BRANCH_COLS:
            raise ParseError(f"branch row needs {_BRANCH_COLS} columns, got {len(row)}")
        if row[10] == 0:
            continue  # switched off
        charging, tap, shift = row[4], row[8], row[9]
        if charging != 0.0 or (tap not in (0.0, 1.0)) or shift != 0.0:
            if not drop_charging:
                raise ParseError(
                    f"branch ({int(row[0])},{int(row[1])}): charging/tap/shift "
                    "not supported; pass drop_charging=True to zero them")
            warnings.warn(
                f"branch ({int(row[0])},{int(row[1])}): zeroing charging/tap/shift",
                stacklevel=2)
        lines.append(Line(from_bus=int(row[0]), to_bus=int(row[1]), r=row[2], x=row[3]))

    return Network(buses=tuple(buses), generators=tuple(gens),
                   lines=tuple(lines), base_mva=base, name=name)


# ----------------------------------------------------------------------- JSON

def network_to_json(net: Network) -> str:
    doc = {
        "name": net.name,
        "base_mva": net.base_mva,
        "buses": [vars(b) for b in net.buses],
        "generators": [{**{k: v for k, v in vars(g).items() if k != "cost"},
                        "cost": vars(g.cost)} for g in net.generators],
        "lines": [vars(ln) for ln in net.lines],
    }
    return json.dumps(doc, indent=2)


def network_from_json(text: str) -> Network:
    """The network of a `network_to_json` document; raises ParseError on a
    missing key, a wrong type or an unknown field."""
    doc = json.loads(text)
    try:
        return Network(
            buses=tuple(Bus(**b) for b in doc["buses"]),
            generators=tuple(
                Generator(**{**g, "cost": CostFunction(**g["cost"])})
                for g in doc["generators"]),
            lines=tuple(Line(**ln) for ln in doc["lines"]),
            base_mva=doc.get("base_mva", 100.0),
            name=doc.get("name", "case"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad network JSON: {type(exc).__name__}: "
                         f"{exc}") from exc


# ----------------------------------------------------------------- operations

def admittance(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Nodal conductance/susceptance matrices (bus order of `net.buses`)."""
    n = net.num_buses
    idx = net.bus_index
    G = np.zeros((n, n))
    B = np.zeros((n, n))
    for ln in net.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        G[i, j] += ln.g
        G[j, i] += ln.g
        B[i, j] += ln.b
        B[j, i] += ln.b
    for k, bus in enumerate(net.buses):
        G[k, k] = bus.gsh - (G[k].sum() - G[k, k])
        B[k, k] = bus.bsh - (B[k].sum() - B[k, k])
    return G, B


def bus_gen_limits(net: Network) -> tuple[np.ndarray, ...]:
    """(pmin, pmax, qmin, qmax) summed over the generators at each bus, in
    bus order."""
    out = np.zeros((4, net.num_buses))
    for g in net.generators:
        out[:, net.bus_index[g.bus]] += (g.pmin, g.pmax, g.qmin, g.qmax)
    return tuple(out)


def spanning_tree(net: Network, seed: int = 0) -> Network:
    """Radial sub-network obtained by switching off lines; deterministic for a
    fixed seed (random edge order + union-find)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(net.lines))
    picked = _forest([b.id for b in net.buses], [net.lines[k] for k in order])
    # preserve input file order among surviving lines
    keep = sorted(int(order[k]) for k in picked)
    tree = replace(net, lines=tuple(net.lines[k] for k in keep))
    tree.require_radial()
    return tree


def scale_load(net: Network, gamma: float, *,
               scale_p: bool = True) -> Network:
    """Multiply every bus's reactive load, and with `scale_p` its active
    load, by gamma (> 0)."""
    if gamma <= 0:
        raise NetworkError("gamma must be positive")
    return replace(net, buses=tuple(
        replace(b, pd=b.pd * gamma if scale_p else b.pd, qd=b.qd * gamma)
        for b in net.buses))
