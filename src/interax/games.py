"""Players, subsets, and set-function games behind one memoizing value oracle.

A game maps every subset of an n-element player set to a real number.
Subsets are 64-bit masks (bit i set means player i is in the subset), so
n is capped at 64 overall and at 24 wherever a dense 2^n sweep is needed.

Built-in families (unanimity, interaction, majority, linear crosses,
product) are closed-form; tabular and Mobius games load from JSON files;
external games talk to a child process over a line protocol.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

MAX_PLAYERS = 64
DENSE_LIMIT = 24  # hard cap for any 2^n table or sweep
DEFAULT_EXTERNAL_CACHE = 1 << 20


class EvaluationError(RuntimeError):
    """An external evaluator broke the protocol or returned garbage."""


@dataclass(frozen=True)
class PlayerSet:
    """A subset of the n players, encoded as a bitmask.

    bits: mask with bit i set iff player i is a member.
    n: size of the ground set (1..64); bits may not exceed it.
    """

    bits: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"mask {self.bits:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_ids(cls, ids: Iterable[int], n: int) -> "PlayerSet":
        return cls(mask_from_ids(ids), n)

    @classmethod
    def empty(cls, n: int) -> "PlayerSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "PlayerSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def singleton(cls, i: int, n: int) -> "PlayerSet":
        return cls(1 << i, n)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return ids_from_mask(self.bits)

    def contains(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def issubset(self, other: "PlayerSet") -> bool:
        return self.bits & ~other.bits == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members()) + "}"


def mask_from_ids(ids: Iterable[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def ids_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def as_mask(subset, n: int) -> int:
    """Normalize a PlayerSet, bitmask int, or iterable of ids to a mask."""
    if isinstance(subset, PlayerSet):
        if subset.n != n:
            raise ValueError(f"subset is over {subset.n} players, game has {n}")
        return subset.bits
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} out of range for {n} players")
        return mask
    return as_mask(mask_from_ids(subset), n)


def popcounts(count: int) -> np.ndarray:
    """Popcount of every index in range(count) (count <= 2^32), as uint8."""
    return np.bitwise_count(np.arange(count, dtype=np.uint32))


class Game:
    """A value oracle v: 2^N -> R with a per-instance memo cache.

    Evaluation is deterministic: the first computed value for a subset is
    cached and every later call returns the identical float; a value that
    is not finite raises ValueError instead.  The memo is
    unbounded here (fine for n <= 24 dense work); ExternalGame swaps in an
    LRU-bounded cache.  Cache writes are serialized so concurrent readers
    are safe.
    """

    def __init__(self, n: int, fn: Callable[[int], float], kind: str,
                 params: Mapping | None = None,
                 dense_fill: Callable[[], np.ndarray] | None = None):
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        self.n = n
        self.kind = kind
        self.params = dict(params or {})
        self._fn = fn
        self._dense_fill = dense_fill
        self._cache: dict[int, float] = {}
        self._lock = threading.Lock()
        self.derived: dict[str, object] = {}  # dense table, Mobius coefficients, ...

    def value(self, subset) -> float:
        """Evaluate v on a subset (PlayerSet, bitmask, or iterable of ids)."""
        mask = as_mask(subset, self.n)
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        val = float(self._fn(mask))
        if not math.isfinite(val):
            raise ValueError(f"game value of subset {ids_from_mask(mask)} is {val!r}, "
                             "not finite")
        with self._lock:
            return self._cache.setdefault(mask, val)

    def span(self) -> float:
        """v(N) - v(0), the total value the indices must distribute."""
        return self.value((1 << self.n) - 1) - self.value(0)

    def dense_table(self) -> np.ndarray:
        """All 2^n values as a float64 array indexed by bitmask (n <= 24)."""
        if self.n > DENSE_LIMIT:
            raise ValueError(
                f"dense evaluation needs n <= {DENSE_LIMIT}, got n={self.n}")
        table = self.derived.get("dense_table")
        if table is not None:
            return table
        if self._dense_fill is not None:
            table = np.asarray(self._dense_fill(), dtype=np.float64)
            if not np.isfinite(table).all():
                raise ValueError(f"the {self.kind} game has non-finite values")
        else:
            # route through value() so memo/LRU and protocol serialization
            # stay authoritative; racing builders produce identical tables
            table = np.empty(1 << self.n, dtype=np.float64)
            for mask in range(1 << self.n):
                table[mask] = self.value(mask)
        table.setflags(write=False)
        with self._lock:
            return self.derived.setdefault("dense_table", table)

    def __repr__(self):
        extra = "".join(f", {k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}(n={self.n}, kind={self.kind!r}{extra})"


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def make_unanimity(n: int, winners) -> Game:
    """Game worth 1 exactly when the subset covers all of `winners`."""
    t = as_mask(winners, n)
    if t == 0:
        raise ValueError("unanimity games need a nonempty winning set")
    pset = PlayerSet(t, n)

    def fill():
        masks = np.arange(1 << n, dtype=np.uint64)
        return ((masks & np.uint64(t)) == np.uint64(t)).astype(np.float64)

    return Game(n, lambda m: 1.0 if m & t == t else 0.0, "unanimity",
                {"set": pset.members()}, dense_fill=fill if n <= DENSE_LIMIT else None)


def make_interaction(n: int, winners, c: float) -> Game:
    """Unanimity game scaled by c: a pure feature cross with coefficient c."""
    t = as_mask(winners, n)
    if t == 0:
        raise ValueError("interaction games need a nonempty winning set")
    c = float(c)
    pset = PlayerSet(t, n)

    def fill():
        masks = np.arange(1 << n, dtype=np.uint64)
        return np.where((masks & np.uint64(t)) == np.uint64(t), c, 0.0)

    return Game(n, lambda m: c if m & t == t else 0.0, "interaction",
                {"set": pset.members(), "c": c},
                dense_fill=fill if n <= DENSE_LIMIT else None)


def make_majority(n: int) -> Game:
    """Game worth 1 when at least half the players are present.

    Ties at even n count as a majority (2*|S| >= n).
    """
    if n < 1:
        raise ValueError("majority game needs n >= 1")

    def fill():
        return (2 * popcounts(1 << n) >= n).astype(np.float64)

    return Game(n, lambda m: 1.0 if 2 * m.bit_count() >= n else 0.0, "majority",
                dense_fill=fill if n <= DENSE_LIMIT else None)


def make_linear_crosses(c: float) -> Game:
    """Three additive players plus a single triple cross with coefficient c."""
    c = float(c)

    def fill():
        pc = popcounts(8).astype(np.float64)
        pc[7] += c
        return pc

    return Game(3, lambda m: float(m.bit_count()) + (c if m == 7 else 0.0),
                "linear-crosses", {"c": c}, dense_fill=fill)


def make_product(n: int) -> Game:
    """Game worth 1 only on the grand coalition (unanimity on N)."""
    if n < 1:
        raise ValueError("product game needs n >= 1")
    full = (1 << n) - 1

    def fill():
        out = np.zeros(1 << n, dtype=np.float64)
        out[full] = 1.0
        return out

    return Game(n, lambda m: 1.0 if m == full else 0.0, "product",
                dense_fill=fill if n <= DENSE_LIMIT else None)


def make_tabular(n: int, values: Sequence[float]) -> Game:
    """Game backed by a dense array of 2^n reals indexed by bitmask."""
    if not 1 <= n <= DENSE_LIMIT:
        raise ValueError(f"tabular games need 1 <= n <= {DENSE_LIMIT}, got {n}")
    table = np.asarray(values, dtype=np.float64)
    if table.shape != (1 << n,):
        raise ValueError(
            f"length mismatch: expected {1 << n} values for n={n}, got {table.size}")
    if not np.all(np.isfinite(table)):
        raise ValueError("tabular values must all be finite")
    table = table.copy()
    table.setflags(write=False)
    return Game(n, lambda m: float(table[m]), "tabular", dense_fill=lambda: table)


def make_mobius_game(n: int, terms: Mapping) -> Game:
    """Game reconstructed from sparse Mobius coefficients.

    `terms` maps subsets (PlayerSet, mask, or id-iterable) to coefficients;
    v(S) is the sum of coefficients over subsets of S.  Works for any
    n <= 64; the dense table is only materialized on demand (n <= 24).
    """
    coefs: dict[int, float] = {}
    for key, c in terms.items():
        mask = as_mask(key, n)
        if mask in coefs:
            raise ValueError(f"duplicate Mobius term for set {ids_from_mask(mask)}")
        coefs[mask] = float(c)
    ordered = sorted(coefs.items())

    def fn(m: int) -> float:
        return float(sum(c for t, c in ordered if t & ~m == 0))

    def fill():
        out = np.zeros(1 << n, dtype=np.float64)
        for t, c in ordered:
            out[t] = c
        # in-place zeta transform: accumulate each coefficient onto supersets
        for i in range(n):
            view = out.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]
        return out

    return Game(n, fn, "mobius", {"terms": ordered},
                dense_fill=fill if n <= DENSE_LIMIT else None)


# ---------------------------------------------------------------------------
# File-backed games
# ---------------------------------------------------------------------------

def tabular_document(game: Game) -> dict:
    """JSON-ready dense dump of a game (requires n <= 24)."""
    return {"format": "tabular", "n": game.n,
            "values": [float(v) for v in game.dense_table()]}


def mobius_document(n: int, terms: Mapping) -> dict:
    """JSON-ready sparse Mobius dump ({set ids, coef} records)."""
    records = []
    for key, c in sorted((as_mask(k, n), float(v)) for k, v in terms.items()):
        records.append({"set": list(ids_from_mask(key)), "coef": c})
    return {"format": "mobius", "n": n, "terms": records}


def _read_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "format" not in doc:
        raise ValueError(f"{path}: not a game file (missing 'format' field)")
    return doc


def load_tabular(path) -> Game:
    """Load a dense tabular game from a JSON file."""
    doc = _read_document(path)
    if doc["format"] != "tabular":
        raise ValueError(f"{path}: expected format 'tabular', got {doc['format']!r}")
    try:
        return make_tabular(int(doc["n"]), doc["values"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed tabular game ({exc})") from exc


def load_mobius(path) -> Game:
    """Load a sparse Mobius game from a JSON file."""
    doc = _read_document(path)
    if doc["format"] != "mobius":
        raise ValueError(f"{path}: expected format 'mobius', got {doc['format']!r}")
    try:
        n = int(doc["n"])
        terms = {}
        for rec in doc["terms"]:
            mask = mask_from_ids(rec["set"])
            if mask in terms:
                raise ValueError(
                    f"{path}: duplicate Mobius term for set {sorted(rec['set'])}")
            terms[mask] = float(rec["coef"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed Mobius game ({exc})") from exc
    return make_mobius_game(n, terms)


def load_game(path) -> Game:
    """Load either game file format, dispatching on its 'format' field."""
    doc = _read_document(path)
    if doc["format"] == "tabular":
        return load_tabular(path)
    if doc["format"] == "mobius":
        return load_mobius(path)
    raise ValueError(f"{path}: unknown game format {doc['format']!r}")


# ---------------------------------------------------------------------------
# Derived games
# ---------------------------------------------------------------------------

def from_function(n: int, fn: Callable[[int], float], kind: str = "function",
                  params: Mapping | None = None) -> Game:
    """Wrap an arbitrary mask -> real callable as a (memoized) game."""
    return Game(n, fn, kind, params)


def combine(alpha: float, left: Game, beta: float, right: Game) -> Game:
    """The game alpha*v + beta*w (players must match)."""
    if left.n != right.n:
        raise ValueError(f"cannot combine games on {left.n} and {right.n} players")
    alpha, beta = float(alpha), float(beta)
    return Game(left.n,
                lambda m: alpha * left.value(m) + beta * right.value(m),
                "combination", {"alpha": alpha, "beta": beta})


def relabel(game: Game, perm: Sequence[int]) -> Game:
    """The game with players renamed by perm (old player i becomes perm[i])."""
    n = game.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def fn(mask: int) -> float:
        pre = 0
        for new in range(n):
            if mask >> new & 1:
                pre |= 1 << inv[new]
        return game.value(pre)

    return Game(n, fn, "relabeled", {"perm": tuple(perm)})


# ---------------------------------------------------------------------------
# External evaluator
# ---------------------------------------------------------------------------

class ExternalGame(Game):
    """Game evaluated by a child process over a line-oriented protocol.

    Handshake: parent sends ``INIT <n>``, child answers ``OK``.  Each query
    is an n-character 0/1 string (character i is player i's membership);
    the child answers one decimal real per line.  ``QUIT`` ends the session.
    Round-trips are serialized (one in-flight request per child) and results
    are memoized in an LRU cache so a subset is sent at most once.
    """

    def __init__(self, command: str, n: int, cache_size: int = DEFAULT_EXTERNAL_CACHE):
        super().__init__(n, self._evaluate, "external", {"command": command})
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        self._lru: OrderedDict[int, float] = OrderedDict()
        self._cache_size = cache_size
        self._proto_lock = threading.Lock()
        argv = shlex.split(command)
        if not argv:
            raise ValueError("external command must not be empty")
        try:
            self._child = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, encoding="utf-8", bufsize=1)
        except OSError as exc:
            raise EvaluationError(f"could not start {argv[0]!r}: {exc}") from exc
        reply = self._round_trip(f"INIT {n}")
        if reply != "OK":
            self.close()
            raise EvaluationError(f"bad INIT handshake, child said {reply!r}")

    def _round_trip(self, line: str) -> str:
        assert self._child.stdin is not None and self._child.stdout is not None
        try:
            self._child.stdin.write(line + "\n")
            self._child.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise EvaluationError(f"child pipe closed while sending {line!r}") from exc
        reply = self._child.stdout.readline()
        if reply == "":
            code = self._child.poll()
            raise EvaluationError(f"child exited (status {code}) before replying")
        return reply.rstrip("\n")

    def _evaluate(self, mask: int) -> float:
        query = "".join("1" if mask >> i & 1 else "0" for i in range(self.n))
        reply = self._round_trip(query)
        try:
            val = float(reply)
        except ValueError:
            raise EvaluationError(f"non-numeric reply {reply!r} for subset {query}") \
                from None
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite reply {reply!r} for subset {query}")
        return val

    def value(self, subset) -> float:
        mask = as_mask(subset, self.n)
        with self._proto_lock:
            if mask in self._lru:
                self._lru.move_to_end(mask)
                return self._lru[mask]
            val = self._evaluate(mask)
            self._lru[mask] = val
            if len(self._lru) > self._cache_size:
                self._lru.popitem(last=False)
            return val

    def close(self):
        """Send QUIT, wait for the child to exit and close both pipes."""
        if self._child.stdin.closed:
            return
        try:
            self._child.communicate("QUIT\n", timeout=5)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.communicate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def attach_external(command: str, n: int,
                    cache_size: int = DEFAULT_EXTERNAL_CACHE) -> ExternalGame:
    """Spawn `command` and wrap it as a game on n players."""
    return ExternalGame(command, n, cache_size)
