import random

from regforge.spec import address_map

from bus_oracle import (
    ACCEPTED,
    BusSignals,
    MasterState,
    SlaveConfigBlock,
    WriteTransaction,
    build_decode_table,
    decode,
    master_step,
    slave_step,
)
from conftest import make_spec


def _table(spec):
    return build_decode_table(address_map(spec), spec)


def test_decode_inside_range():
    spec = make_spec(n_slaves=3, regs_per_slave=4)
    table = _table(spec)
    assert decode(9, table) == (2, 1)  # slave2 base 8, offset 1


def test_decode_above_all_ranges():
    spec = make_spec(n_slaves=3, regs_per_slave=4)
    assert decode(200, _table(spec)) is None


def test_decode_bijection_over_address_map():
    spec = make_spec(n_slaves=4, regs_per_slave=8)
    table = _table(spec)
    seen = set()
    for entry in address_map(spec):
        match = decode(entry.address, table)
        assert match is not None
        seen.add(match)
    assert len(seen) == len(address_map(spec))


def _master(spec, **kwargs):
    return MasterState(
        num_slaves=len(spec.slaves), decode_table=_table(spec), **kwargs
    )


def test_ready_at_issue_accepts_same_cycle():
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    master = _master(spec)
    pending = [WriteTransaction(addr=1, data=7)]
    ready = (True, True)
    signals, completed = master_step(master, pending, ready)
    assert signals.write and signals.sel == (True, False)
    assert completed and completed[0].state == ACCEPTED
    assert completed[0].accept_cycle == completed[0].issue_cycle == 0


def test_ready_low_five_cycles_then_high():
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    master = _master(spec)
    pending = [WriteTransaction(addr=0, data=1)]
    completed = []
    for cycle in range(6):
        ready = (cycle >= 5, True)
        signals, done = master_step(master, pending, ready)
        # signals held stable while the write is outstanding
        assert signals.addr == 0 and signals.write
        completed += done
    assert len(completed) == 1
    assert completed[0].issue_cycle == 0
    assert completed[0].accept_cycle == 5


def test_queued_writes_accept_in_issue_order():
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    master = _master(spec)
    pending = [WriteTransaction(addr=0, data=1), WriteTransaction(addr=4, data=2)]
    completed = []
    for _ in range(6):
        _, done = master_step(master, pending, (True, True))
        completed += done
    assert [t.addr for t in completed] == [0, 4]
    assert completed[0].accept_cycle < completed[1].accept_cycle


def test_timeout_drops_transaction():
    spec = make_spec(n_slaves=1, regs_per_slave=2)
    master = _master(spec, timeout_cycles=3)
    pending = [WriteTransaction(addr=0, data=9)]
    for _ in range(8):
        master_step(master, pending, (False,))
    assert len(master.timed_out) == 1
    assert master.current is None


def test_no_match_is_logged_not_raised():
    spec = make_spec(n_slaves=1, regs_per_slave=2)
    master = _master(spec)
    pending = [WriteTransaction(addr=99, data=1)]
    _, done = master_step(master, pending, (True,))
    assert done == []
    assert len(master.no_match) == 1


def _block(widths, resets=None, ready=False):
    resets = resets or {k: 0 for k in widths}
    return SlaveConfigBlock(widths=dict(widths), local_memory=dict(resets),
                            ready_state=ready)


def test_write_while_gate_closed_leaves_memory():
    block = _block({0: 32}, ready=False)
    bus = BusSignals(addr=0, wdata=123, write=True, sel=(True,), ready=(False,))
    out = slave_step(block, bus, 0, 0)
    assert out.local_memory == {0: 0}


def test_write_while_gate_open_updates_one_word():
    block = _block({0: 32, 1: 32}, ready=True)
    bus = BusSignals(addr=1, wdata=0xDEAD, write=True, sel=(True,), ready=(True,))
    out = slave_step(block, bus, 0, 1)
    assert out.local_memory == {0: 0, 1: 0xDEAD}


def test_data_truncated_to_register_width():
    block = _block({0: 8}, ready=True)
    bus = BusSignals(addr=0, wdata=0x1FF, write=True, sel=(True,), ready=(True,))
    out = slave_step(block, bus, 0, 0)
    assert out.local_memory[0] == 0xFF


def test_ready_is_registered_inverse_of_busy():
    block = _block({0: 8}, ready=True)
    busy = SlaveConfigBlock(widths=block.widths, local_memory=block.local_memory,
                            ready_state=True, busy_input=True)
    stepped = slave_step(busy, BusSignals(sel=(False,), ready=(True,)), 0, None)
    assert stepped.ready_state is False


def test_random_steps_match_reference_fold():
    rng = random.Random(99)
    widths = {i: rng.choice([8, 16, 32]) for i in range(4)}
    block = _block(widths, ready=False)
    reference = dict(block.local_memory)
    for step in range(1000):
        offset = rng.randrange(6)  # sometimes outside the bank
        data = rng.getrandbits(32)
        write = rng.random() < 0.7
        sel = rng.random() < 0.8
        busy = rng.random() < 0.3
        bus = BusSignals(addr=offset, wdata=data, write=write,
                         sel=(sel,), ready=(block.ready_state,))
        if write and sel and block.ready_state and offset in widths:
            reference[offset] = data & ((1 << widths[offset]) - 1)
        block = slave_step(
            SlaveConfigBlock(block.widths, block.local_memory,
                             block.ready_state, busy),
            bus, 0, offset,
        )
    assert block.local_memory == reference
