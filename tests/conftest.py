"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.cells import CellOp


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail any test that leaves a child process of its own running.

    Worker pools must reap every process they start, on every path.
    Children that are still exiting get a brief join; whatever is left
    is named in the failure, then killed so later tests start clean.
    """
    before = {proc.pid for proc in multiprocessing.active_children()}
    yield
    leaked = [proc for proc in multiprocessing.active_children()
              if proc.pid not in before]
    for proc in leaked:
        proc.join(timeout=1.0)
    alive = [proc for proc in leaked if proc.is_alive()]
    for proc in alive:
        proc.kill()
        proc.join(timeout=5.0)
    if alive:
        names = ", ".join(f"{proc.name} (pid {proc.pid})" for proc in alive)
        pytest.fail(f"test leaked child processes: {names}")


@pytest.fixture
def builder():
    return ModuleBuilder("test")


def build_mux_chain(sel2_free: bool):
    """The paper's Figure 2 circuit: three muxes from source to sink.

    ``sel2_free=False`` pins the second/third selectors to 0 (no real
    flow, only a spurious taint flow under naive logic);
    ``sel2_free=True`` makes the flow real.
    """
    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel2 = b.input("sel2", 1) if sel2_free else b.const(0, 1)
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pub1 = b.reg("pub1", 4)
        pub1.drive(pub1)
        pub2 = b.reg("pub2", 4)
        pub2.drive(pub2)
        pub3 = b.reg("pub3", 4)
        pub3.drive(pub3)
        o1 = b.named("o1", b.mux(sel1, secret, pub1))
        o2 = b.named("o2", b.mux(sel2, o1, pub2))
        o3 = b.named("o3", b.mux(sel2, o2, pub3))
    b.output("sink", o3)
    return b.build()


def random_cell_circuit(seed: int, width: int = 4, depth: int = 10):
    """A random combinational+sequential circuit over most cell ops."""
    rng = random.Random(seed)
    b = ModuleBuilder(f"rand{seed}")
    vals = [b.input(f"in{i}", width) for i in range(3)]
    secret = b.reg("secret", width)
    secret.drive(secret)
    pub = b.reg("public", width)
    pub.drive(pub)
    vals += [secret, pub]
    with b.scope("m1"):
        acc = b.reg("acc", width)
        vals.append(acc)
        for _ in range(depth):
            op = rng.choice(
                "and or xor add sub mux eq ne ult ule shl shr not slice sext redor redand".split()
            )
            a, c = rng.choice(vals), rng.choice(vals)
            if op == "and":
                v = a & c
            elif op == "or":
                v = a | c
            elif op == "xor":
                v = a ^ c
            elif op == "add":
                v = a + c
            elif op == "sub":
                v = a - c
            elif op == "mux":
                v = b.mux(a.redor(), a, c)
            elif op == "eq":
                v = a.eq(c).zext(width)
            elif op == "ne":
                v = a.ne(c).zext(width)
            elif op == "ult":
                v = a.ult(c).zext(width)
            elif op == "ule":
                v = a.ule(c).zext(width)
            elif op == "shl":
                v = a << c[1:0].zext(2)
            elif op == "shr":
                v = a >> c[1:0].zext(2)
            elif op == "not":
                v = ~a
            elif op == "slice":
                v = a[width - 1:1].zext(width)
            elif op == "sext":
                v = a[1:0].sext(width)
            elif op == "redor":
                v = a.redor().zext(width)
            else:
                v = a.redand().zext(width)
            if v.width != width:
                v = v.zext(width)
            vals.append(v)
        acc.drive(vals[-1])
    b.output("out", vals[-1] ^ vals[-2])
    return b.build()


def random_stimulus(seed: int, cycles: int, width: int = 4):
    rng = random.Random(seed)
    return [
        {f"in{i}": rng.randrange(1 << width) for i in range(3)}
        for _ in range(cycles)
    ]
