"""The dispatch rules of :mod:`repro.serve.schedule` as scripted event
lists: no fork, no socket, no clock; connections are names."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.serve.schedule import WaveSchedule


def _schedule(*blocks, cap=64, ready="ab", seqs=(1,)):
    """A wave of ``(group, clients)`` blocks, positions running on."""
    positions = itertools.count()
    units = [(group, None, [(next(positions), c) for c in clients]) for group, clients in blocks]
    schedule = WaveSchedule(cap)
    for conn in ready:
        schedule.hello(conn)
    schedule.begin_wave(units, list(seqs))
    return schedule


def _sends(schedule, conns="ab", unhelloed=0):
    """What goes out now, as ``(conn, state, first position, size)``."""
    out = []
    while (send := schedule.next_send(list(conns), unhelloed)) is not None:
        out.append((send.conn, send.state, send.slots[0][0], len(send.slots)))
    return out


def test_a_late_hello_gets_the_next_block():
    """``a`` holds one block while ``b`` is forked but silent: in round
    zero ``b``'s hello takes the second block and ``a`` the third, and
    the two units of the call that forks them go to both."""
    schedule = _schedule((0, range(16)), (0, range(16, 32)), (0, range(32, 40)), ready="a")
    assert _sends(schedule, unhelloed=1) == [("a", 1, 0, 16)]
    schedule.hello("b")
    assert _sends(schedule) == [("b", 1, 16, 16), ("a", None, 32, 8)]
    schedule = _schedule((0, [3]), (0, [7]), ready="a")
    assert _sends(schedule, unhelloed=1) == [("a", 1, 0, 1)]
    schedule.hello("b")
    assert _sends(schedule) == [("b", 1, 1, 1)]


def test_state_goes_before_its_block():
    """An async drain's wave: client 3 in two groups, each on its state."""
    schedule = _schedule((0, [3]), (1, [3]), (0, [5]), seqs=(1, 2))
    assert _sends(schedule, "a") == [("a", 1, 0, 1), ("a", 2, 1, 1)]
    assert schedule.update("a", 3) == 0
    assert _sends(schedule, "a") == [("a", 1, 2, 1)]  # group 0's state again
    schedule = _schedule((0, [3]), (1, [3]), seqs=(1, 2))
    assert _sends(schedule) == [("a", 1, 0, 1), ("b", 2, 1, 1)]
    assert (schedule.update("b", 3), schedule.update("a", 3)) == (1, 0)  # b answers first


def test_the_cap_cuts_the_head_block():
    schedule = _schedule((0, range(16)), cap=5)
    assert _sends(schedule) == [("a", 1, 0, 5)]
    assert schedule.update("a", 0) == 0
    assert _sends(schedule) == [("b", 1, 5, 1)]


def test_an_update_fills_its_connections_earliest_position():
    schedule = _schedule((0, [3, 4]), (1, [3]), seqs=(1, 2))
    _sends(schedule, "a")
    updates = [("a", 3), ("b", 4), ("a", 3), ("a", 3), ("a", 9)]
    assert [schedule.update(conn, cid) for conn, cid in updates] == [0, None, 2, None, None]
    assert schedule.remaining == 1


def test_a_dead_connections_positions_come_back_as_blocks():
    schedule = _schedule((0, range(4)), (1, range(4, 6)), seqs=(1, 2))
    assert _sends(schedule, "a") == [("a", 1, 0, 4), ("a", 2, 4, 2)]
    assert [schedule.update("a", cid) for cid in (0, 1)] == [0, 1]
    schedule.dead("a")
    sends = [schedule.next_send(["b"], 0) for _ in range(3)]
    assert sends[2] is None and [tuple(send[1:]) for send in sends[:2]] == [
        (1, 0, [(2, 2), (3, 3)], True), (2, 1, [(4, 4), (5, 5)], True),
    ]


@pytest.mark.parametrize("seed", range(30))
def test_random_interleavings_keep_every_rule(seed):
    """Hellos, answers in any order, duplicated and stale updates, deaths
    and backpressure in a seeded random order: every position is filled
    exactly once by the client it was cut for, and no send breaks a rule."""
    rng = random.Random(seed)
    blocks = []
    for group in range(rng.randint(1, 3)):  # a client may sit in several groups
        clients = rng.sample(range(12), rng.randint(1, 12))
        blocks += [(group, clients[i : i + 5]) for i in range(0, len(clients), 5)]
    seqs, cap = [10 + group for group in range(blocks[-1][0] + 1)], rng.choice([1, 3, 64])
    cut_for = dict(enumerate((group, cid) for group, clients in blocks for cid in clients))
    schedule = _schedule(*blocks, cap=cap, ready="", seqs=seqs)
    live, silent, held, installed, filled, sent, deaths = [], ["w0", "w1"], {}, {}, {}, set(), 0
    for _step in range(20_000):
        if not schedule.remaining:
            break
        event = rng.random()
        if silent and event < 0.1:
            live.append(silent.pop(rng.randrange(len(silent))))
            schedule.hello(live[-1])
            held[live[-1]] = []
        elif live and event < 0.15 and deaths < 4:
            conn = live.pop(rng.randrange(len(live)))
            schedule.dead(conn)
            del held[conn]
            installed.pop(conn, None)
            deaths += 1
            silent.append(f"r{deaths}")  # its replacement, forked
        elif live and event < 0.6:
            conn = rng.choice(live)
            answers = [cid for _pos, cid, _send in held[conn]]
            cid = rng.choice(answers) if answers and event < 0.5 else rng.randrange(20)
            expected = next((p for p, c, _s in held[conn] if c == cid), None)
            assert schedule.update(conn, cid) == expected
            if expected is not None:
                held[conn] = [entry for entry in held[conn] if entry[0] != expected]
                assert expected not in filled and cut_for[expected][1] == cid
                filled[expected] = cut_for[expected]
        else:
            room = [conn for conn in live + silent if rng.random() < 0.8]
            send = schedule.next_send(room, len(silent))
            if send is None:
                continue
            assert send.conn in room and send.conn in live
            assert {cut_for[pos] for pos, _cid in send.slots} == {
                (send.group, cid) for _pos, cid in send.slots
            }
            assert send.redispatch == (send.slots[0][0] in sent)
            sent.update(pos for pos, _cid in send.slots)
            assert (send.state or installed.get(send.conn)) == seqs[send.group]
            installed[send.conn] = seqs[send.group]
            held[send.conn] += [(pos, cid, _step) for pos, cid in send.slots]
            assert len({s for _p, _c, s in held[send.conn]}) <= (1 if silent else 2)
            assert sum(map(len, held.values())) <= cap
    assert schedule.remaining == 0 and filled == cut_for
