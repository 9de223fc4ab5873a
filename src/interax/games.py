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
MEMO_SIZE = 1 << 20  # subsets kept by the memo of callable and external games
_FILL_BLOCK = 1 << 16  # masks per values() call while filling a dense table
_QUERY_CHUNK = 512  # external queries sent before their replies are read


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
    def full(cls, n: int) -> "PlayerSet":
        return cls((1 << n) - 1, n)

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
    """A set function v: 2^N -> R behind one batch primitive, `values`.

    Each kind defines one map from a uint64 mask array to float64 values,
    and `value` and `dense_table` call it, so a subset has one value on
    every route; a value that is not finite raises ValueError.  Callable
    and external games keep an LRU memo of at most `memo_size` subsets
    (computed once while kept there; updates are serialized, so concurrent
    readers are safe).  Closed-form and table games need no memo.
    """

    def __init__(self, n: int, values: Callable[[np.ndarray], np.ndarray], kind: str,
                 params: Mapping | None = None, memo_size: int | None = None):
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        if memo_size is not None and memo_size < 1:
            raise ValueError("memo size must be positive")
        self.n = n
        self.kind = kind
        self.params = dict(params or {})
        self._values = values
        self._memo = None if memo_size is None else OrderedDict()
        self._memo_size = memo_size
        self._lock = threading.Lock()
        self.derived: dict[str, object] = {}  # dense table, Mobius coefficients, ...

    def values(self, masks) -> np.ndarray:
        """v at every bitmask of an integer array, as float64 of the same shape."""
        masks = np.asarray(masks, dtype=np.uint64)
        flat = masks.reshape(-1)
        if flat.size and int(flat.max()) >> self.n:
            raise ValueError(f"mask {int(flat.max()):#x} out of range for {self.n} players")
        out = np.asarray(self._values(flat) if self._memo is None
                         else self._memoized(flat), dtype=np.float64)
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"the {self.kind} game has a non-finite value: subset "
                             f"{ids_from_mask(int(flat[i]))} is {float(out[i])!r}, "
                             "not finite")
        return out.reshape(masks.shape)

    def _memoized(self, masks: np.ndarray) -> np.ndarray:
        keys, where = np.unique(masks, return_inverse=True)
        keys = keys.tolist()
        with self._lock:
            found = [self._memo.get(key) for key in keys]
        fresh = iter(self._values(np.array([key for key, val in zip(keys, found)
                                            if val is None], dtype=np.uint64)).tolist())
        with self._lock:
            # each key moves to the recent end; a value stored first, maybe by
            # another thread, wins
            found = [self._memo.pop(key, next(fresh) if val is None else val)
                     for key, val in zip(keys, found)]
            self._memo.update(zip(keys, found))
            while len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)
        return np.array(found)[where]

    def value(self, subset) -> float:
        """Evaluate v on a subset (PlayerSet, bitmask, or iterable of ids)."""
        mask = as_mask(subset, self.n)
        return float(self.values(np.array([mask], dtype=np.uint64))[0])

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
        table = np.empty(1 << self.n, dtype=np.float64)
        for start in range(0, table.size, _FILL_BLOCK):
            stop = min(start + _FILL_BLOCK, table.size)
            table[start:stop] = self.values(np.arange(start, stop, dtype=np.uint64))
        table.setflags(write=False)
        with self._lock:
            return self.derived.setdefault("dense_table", table)

    def __repr__(self):
        extra = "".join(f", {k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}(n={self.n}, kind={self.kind!r}{extra})"


def spread_bits(masks: np.ndarray, players: Sequence[int]) -> np.ndarray:
    """The masks with bit j moved to bit players[j], for every j."""
    out = np.zeros_like(masks)
    for j, player in enumerate(players):
        out |= (masks >> np.uint64(j) & np.uint64(1)) << np.uint64(player)
    return out


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _with_terms(game: Game, terms: Iterable[tuple[int, float]]) -> Game:
    """Record the game's known Mobius expansion as (mask, coef) pairs, ascending.

    The exact indices read it in place of a dense 2^n sweep.  A term that
    is not finite is not recorded, so the dense route rejects the game.
    """
    terms = tuple(sorted(terms))
    if all(math.isfinite(c) for _, c in terms):
        game.derived["mobius_terms"] = terms
    return game


def make_unanimity(n: int, winners) -> Game:
    """Game worth 1 exactly when the subset covers all of `winners`."""
    t = as_mask(winners, n)
    if t == 0:
        raise ValueError("unanimity games need a nonempty winning set")
    t = np.uint64(t)
    game = Game(n, lambda m: (m & t == t).astype(np.float64), "unanimity",
                {"set": ids_from_mask(int(t))})
    return _with_terms(game, [(int(t), 1.0)])


def make_interaction(n: int, winners, c: float) -> Game:
    """Unanimity game scaled by c: a pure feature cross with coefficient c."""
    t = as_mask(winners, n)
    if t == 0:
        raise ValueError("interaction games need a nonempty winning set")
    c = float(c)
    t = np.uint64(t)
    game = Game(n, lambda m: np.where(m & t == t, c, 0.0), "interaction",
                {"set": ids_from_mask(int(t)), "c": c})
    return _with_terms(game, [(int(t), c)])


def make_majority(n: int) -> Game:
    """Game worth 1 when at least half the players are present.

    Ties at even n count as a majority (2*|S| >= n).
    """
    if n < 1:
        raise ValueError("majority game needs n >= 1")
    return Game(n, lambda m: (2 * np.bitwise_count(m) >= n).astype(np.float64),
                "majority")


def make_linear_crosses(c: float) -> Game:
    """Three additive players plus a single triple cross with coefficient c."""
    c = float(c)
    game = Game(3, lambda m: np.bitwise_count(m) + np.where(m == 7, c, 0.0),
                "linear-crosses", {"c": c})
    return _with_terms(game, [(1, 1.0), (2, 1.0), (4, 1.0), (7, c)])


def make_product(n: int) -> Game:
    """Game worth 1 only on the grand coalition (unanimity on N)."""
    if n < 1:
        raise ValueError("product game needs n >= 1")
    full = np.uint64((1 << n) - 1)
    game = Game(n, lambda m: (m == full).astype(np.float64), "product")
    return _with_terms(game, [(int(full), 1.0)])


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
    game = Game(n, lambda m: table[m], "tabular")
    game.derived["dense_table"] = table  # already the whole table
    return game


def make_mobius_game(n: int, terms: Mapping) -> Game:
    """Game reconstructed from sparse Mobius coefficients.

    `terms` maps subsets (PlayerSet, mask, or id-iterable) to coefficients;
    v(S) is the sum of coefficients over subsets of S, added in ascending
    mask order of the terms.  Works for any n <= 64.
    """
    coefs: dict[int, float] = {}
    for key, c in terms.items():
        mask = as_mask(key, n)
        if mask in coefs:
            raise ValueError(f"duplicate Mobius term for set {ids_from_mask(mask)}")
        coefs[mask] = float(c)
    ordered = sorted(coefs.items())

    def values(masks: np.ndarray) -> np.ndarray:
        out = np.zeros(masks.shape)
        for t, c in ordered:
            t = np.uint64(t)
            np.add(out, c, out=out, where=masks & t == t)
        return out

    return _with_terms(Game(n, values, "mobius", {"terms": ordered}), ordered)


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


def _read_document(path, fmt: str | None = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise ValueError(f"{path}: not a game file (missing 'format' field)")
    if fmt is not None and doc["format"] != fmt:
        raise ValueError(f"{path}: expected format {fmt!r}, got {doc['format']!r}")
    return doc


def load_tabular(path) -> Game:
    """Load a dense tabular game from a JSON file."""
    return _game_from_document(path, _read_document(path, "tabular"))


def load_mobius(path) -> Game:
    """Load a sparse Mobius game from a JSON file."""
    return _game_from_document(path, _read_document(path, "mobius"))


def load_game(path) -> Game:
    """Load either game file format, dispatching on its 'format' field."""
    return _game_from_document(path, _read_document(path))


def _game_from_document(path, doc: dict) -> Game:
    if doc["format"] == "tabular":
        try:
            return make_tabular(int(doc["n"]), doc["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed tabular game ({exc})") from exc
    if doc["format"] != "mobius":
        raise ValueError(f"{path}: unknown game format {doc['format']!r}")
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


# ---------------------------------------------------------------------------
# Derived games
# ---------------------------------------------------------------------------

def from_function(n: int, fn: Callable[[int], float], kind: str = "function",
                  params: Mapping | None = None) -> Game:
    """Wrap an arbitrary mask -> real callable as a (memoized) game."""
    return Game(n, lambda m: np.array([fn(mask) for mask in m.tolist()], dtype=np.float64),
                kind, params, memo_size=MEMO_SIZE)


def combine(alpha: float, left: Game, beta: float, right: Game) -> Game:
    """The game alpha*v + beta*w (players must match)."""
    if left.n != right.n:
        raise ValueError(f"cannot combine games on {left.n} and {right.n} players")
    alpha, beta = float(alpha), float(beta)
    return Game(left.n, lambda m: alpha * left.values(m) + beta * right.values(m),
                "combination", {"alpha": alpha, "beta": beta})


def relabel(game: Game, perm: Sequence[int]) -> Game:
    """The game with players renamed by perm (old player i becomes perm[i])."""
    n = game.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return Game(n, lambda m: game.values(spread_bits(m, inv)), "relabeled",
                {"perm": tuple(perm)})


# ---------------------------------------------------------------------------
# External evaluator
# ---------------------------------------------------------------------------

class ExternalGame(Game):
    """Game evaluated by a child process over a line-oriented protocol.

    Handshake: parent sends ``INIT <n>``, child answers ``OK``.  Each query
    is an n-character 0/1 string (character i is player i's membership);
    the child answers one decimal real per line.  ``QUIT`` ends the session.
    Subsets that miss the memo go out in chunks of at most 512 queries, one
    chunk in flight at a time, and all its replies are read before the next:
    a chunk stays below the pipe buffer, so neither side blocks the other.
    """

    # an own entry, so a wrapper installed on Game.value is not applied twice
    value = Game.value

    def __init__(self, command: str, n: int, cache_size: int = MEMO_SIZE):
        super().__init__(n, self._query, "external", {"command": command},
                         memo_size=cache_size)
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
        reply = self._exchange([f"INIT {n}"])[0]
        if reply != "OK":
            self.close()
            raise EvaluationError(f"bad INIT handshake, child said {reply!r}")

    def _exchange(self, lines: list[str]) -> list[str]:
        """Send the lines, then read one reply per line."""
        with self._proto_lock:
            try:
                self._child.stdin.write("".join(line + "\n" for line in lines))
                self._child.stdin.flush()
            except OSError as exc:
                raise EvaluationError(
                    f"child pipe closed while sending {lines[0]!r}") from exc
            replies = [self._child.stdout.readline() for _ in lines]
        if "" in replies:
            raise EvaluationError(
                f"child exited (status {self._child.poll()}) before replying")
        return [reply.rstrip("\n") for reply in replies]

    def _query(self, masks: np.ndarray) -> np.ndarray:
        bits = masks[:, None] >> np.arange(self.n, dtype=np.uint64) & np.uint64(1)
        queries = ["".join(row) for row in bits.astype(str).tolist()]
        out = np.empty(len(queries))
        for start in range(0, len(queries), _QUERY_CHUNK):
            chunk = queries[start:start + _QUERY_CHUNK]
            for i, (query, reply) in enumerate(zip(chunk, self._exchange(chunk)), start):
                try:
                    out[i] = float(reply)
                except ValueError:
                    raise EvaluationError(
                        f"non-numeric reply {reply!r} for subset {query}") from None
                if not math.isfinite(out[i]):
                    raise EvaluationError(f"non-finite reply {reply!r} for subset {query}")
        return out

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
                    cache_size: int = MEMO_SIZE) -> ExternalGame:
    """Spawn `command` and wrap it as a game on n players."""
    return ExternalGame(command, n, cache_size)
