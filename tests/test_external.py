import gc
import sys
import warnings

import numpy as np
import pytest

from interax import EvaluationError, attach_external, make_majority, stv_exact


class TestProtocol:
    def test_majority_child_matches_builtin(self, majority_child_command):
        with attach_external(majority_child_command, 3) as ext:
            builtin = make_majority(3)
            for mask in range(8):
                assert ext.value(mask) == builtin.value(mask)

    def test_indices_bit_identical_to_builtin(self, majority_child_command):
        with attach_external(majority_child_command, 3) as ext:
            got = stv_exact(ext, 2)
        want = stv_exact(make_majority(3), 2)
        assert got.values == want.values

    def test_close_releases_child_pipes(self, majority_child_command, monkeypatch):
        # an unclosed pipe warns from a finalizer, where an error-filtered
        # warning cannot propagate; the unraisable hook catches it instead
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            ext = attach_external(majority_child_command, 3)
            assert ext.value([0, 1]) == 1.0
            ext.close()
            del ext
            gc.collect()
        assert unraisable == []

    def test_memoized_single_round_trip(self):
        # child answers with a running counter: a repeated query would
        # return a different number, so equality proves memoization
        prog = ("import sys\n"
                "count = 0\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    else:\n"
                "        count += 1\n"
                "        print(float(count), flush=True)\n")
        with attach_external(f'{sys.executable} -c "{prog}"', 3) as ext:
            first = ext.value([0, 2])
            other = ext.value([1])
            assert ext.value([0, 2]) == first
            assert other != first

    def test_bad_reply_leaves_the_session_in_step(self):
        # a majority child that answers ERR for the pair {0, 1}
        prog = ("import sys\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    elif line == '11000': print('ERR', flush=True)\n"
                "    else: print(float(2 * line.count('1') >= 5), flush=True)\n")
        with attach_external(f'{sys.executable} -c "{prog}"', 5) as ext:
            with pytest.raises(EvaluationError, match="'ERR' for subset 11000"):
                ext.values(np.arange(32))
            # the replies after the bad one were read with it, not left queued
            assert ext.value([2, 3, 4]) == 1.0
            assert ext.value([1]) == 0.0

    def test_one_query_per_distinct_subset(self):
        # the child answers with its running query count
        prog = ("import sys\n"
                "count = 0\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    else:\n"
                "        count += 1\n"
                "        print(float(count), flush=True)\n")
        masks = np.random.default_rng(5).integers(0, 1 << 11, size=3000)
        with attach_external(f'{sys.executable} -c "{prog}"', 11) as ext:
            first = ext.values(np.concatenate([masks, masks[::-1]]))
            distinct = np.unique(masks).size
            assert distinct > 1000  # several chunks
            assert sorted(set(first.tolist())) == list(map(float, range(1, distinct + 1)))
            again = ext.values(masks)
            assert np.array_equal(again, first[:masks.size])
            assert ext.value(int(masks[0])) == first[0]
            # a new subset is the next query
            new = next(m for m in range(1 << 11) if m not in set(masks.tolist()))
            assert ext.value(new) == distinct + 1.0

    def test_non_numeric_reply(self):
        prog = ("import sys\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    else: print('abc', flush=True)\n")
        with attach_external(f'{sys.executable} -c "{prog}"', 3) as ext:
            with pytest.raises(EvaluationError, match="abc"):
                ext.value([0])

    def test_non_finite_reply(self):
        prog = ("import sys\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    else: print('inf', flush=True)\n")
        with attach_external(f'{sys.executable} -c "{prog}"', 3) as ext:
            with pytest.raises(EvaluationError, match="non-finite reply 'inf'"):
                ext.value([0])

    def test_child_exit_mid_session(self):
        prog = ("import sys\n"
                "sys.stdin.readline()\n"
                "print('OK', flush=True)\n")
        with attach_external(f'{sys.executable} -c "{prog}"', 3) as ext:
            with pytest.raises(EvaluationError, match="exited"):
                ext.value([0])

    def test_bad_handshake(self):
        prog = "print('NOPE', flush=True)"
        with pytest.raises(EvaluationError, match="handshake"):
            attach_external(f"{sys.executable} -c \"{prog}\"", 3)

    def test_missing_command(self):
        with pytest.raises(EvaluationError):
            attach_external("/definitely/not/a/real/binary", 3)

    def test_query_encoding_is_positional(self, majority_child_command):
        # character i of the query is player i: check an asymmetric subset
        with attach_external(majority_child_command, 5) as ext:
            assert ext.value([0, 1, 2]) == 1.0
            assert ext.value([4]) == 0.0
