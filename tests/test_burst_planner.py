"""The burst planner on its own: hand-built side probes and caps, no system.

``StreakPlanner.plan`` is a function of the side probe (one ``Side`` per
side), the throttle decision and the ``Caps``.  Each test below builds those
records by hand on a cadence-4 rank whose host-free walk is the identity
(unless a test models a host window), and checks the plan's class, start,
count, end and full command list — one test per plan class and one per cap.
A last test keeps ARCHITECTURE.md's class table a mirror of ``PLAN_TABLE``.
"""

from pathlib import Path

from repro.dram.commands import CommandType, DramAddress
from repro.nda.burst import (
    NO_EVENT,
    PLAN_CLASSES,
    PLAN_TABLE,
    Caps,
    Side,
    StreakPlanner,
)

ACT, PRE, RD, WR = (CommandType.ACT, CommandType.PRE, CommandType.RD,
                    CommandType.WR)
STEP = 4
#: ACT horizon once a PRE issues at ``cycle`` (a tRP stand-in).
T_RP = 11


def _planner(host_free=lambda cycle: cycle, **pushes):
    return StreakPlanner(STEP, host_free,
                         lambda addr, cycle: cycle + T_RP, **pushes)


def _side(kind, at, bank, column=0, blocked=False):
    addr = DramAddress(0, 0, bank // 4, bank % 4, 7, column, 0, bank)
    return Side(addr, kind, at, blocked)


def _summary(plan):
    """(class, start, count, end, [(cycle, kind, bank, column), ...])."""
    return (plan.cls.name, plan.start, plan.count, plan.end,
            [(cycle, cmd.kind.name, cmd.addr.bank_index, cmd.addr.column)
             for cycle, cmd in plan.commands()])


def _columns(kind, start, count, bank, column=0):
    return [(start + j * STEP, kind, bank, column + j) for j in range(count)]


# -- one test per plan class ---------------------------------------------- #

def test_read_streak():
    """No drain pending: the rest of the row run, minus its last read (a
    row command follows it, decided by a re-poll)."""
    plan = _planner().plan(_side(RD, 100, 0, column=10), None, None,
                           Caps(read_run=20, reads_left=50))
    assert _summary(plan) == ("read_streak", 100, 19, 176,
                              _columns("RD", 100, 19, 0, column=10))
    assert plan.decision is None and plan.row_bank == -1


def test_drain_tail():
    """Reads done: the buffered row run of WRs."""
    plan = _planner().plan(None, _side(WR, 100, 1, column=3), True,
                           Caps(drain_run=8, pops_left=30))
    assert _summary(plan) == ("drain_tail", 100, 7, 128,
                              _columns("WR", 100, 7, 1, column=3))


def test_drain_run_absorbs_the_other_banks_row_transition():
    """Reads remain, the read needs a PRE on another bank: the plan carries
    that PRE at its horizon and the ACT ``tRP`` later, off the planned
    cycles; after the ACT the read is pushed by every planned WR."""
    plan = _planner().plan(_side(PRE, 106, 0), _side(WR, 100, 1), True,
                           Caps(drain_run=16, pops_left=30))
    assert _summary(plan) == (
        "drain_run", 100, 15, 160,
        sorted(_columns("WR", 100, 15, 1)
               + [(106, "PRE", 0, 0), (106 + T_RP, "ACT", 0, 0)]))
    assert plan.row_bank == 0 and not plan.row_gapped


def test_read_under_drain_inhibited():
    """The buffer drains but the throttle refuses it: the read run leads and
    every planned cycle counts one refused drain attempt."""
    plan = _planner().plan(_side(RD, 100, 0), _side(WR, 90, 1), False,
                           Caps(read_run=12, reads_left=50))
    assert _summary(plan) == ("read_under_drain", 100, 11, 144,
                              _columns("RD", 100, 11, 0))
    assert plan.decision is False and plan.row_bank == -1


def test_read_under_drain_absorbs_the_drains_row_transition():
    plan = _planner().plan(_side(RD, 100, 0), _side(PRE, 103, 1), True,
                           Caps(read_run=12, reads_left=50))
    assert _summary(plan) == (
        "read_under_drain", 100, 11, 144,
        sorted(_columns("RD", 100, 11, 0)
               + [(103, "PRE", 1, 0), (103 + T_RP, "ACT", 1, 0)]))
    assert plan.row_bank == 1


# -- one test per cap ----------------------------------------------------- #

def test_cap_final_read():
    """The instruction's final read is left to the per-cycle path."""
    plan = _planner().plan(_side(RD, 100, 0), None, None,
                           Caps(read_run=20, reads_left=5))
    assert _summary(plan) == ("read_streak", 100, 5, 120,
                              _columns("RD", 100, 5, 0))
    assert _planner().plan(_side(RD, 100, 0), None, None,
                           Caps(read_run=20, reads_left=1)) is None


def test_cap_stage_flip():
    """The read whose staged push flips the buffer into its drain phase
    ends the run (drains gain priority right after it) and is left out."""
    plan = _planner().plan(_side(RD, 100, 0), None, None,
                           Caps(read_run=20, reads_left=50, stage_flip=6))
    assert _summary(plan) == ("read_streak", 100, 5, 120,
                              _columns("RD", 100, 5, 0))


def test_cap_low_watermark():
    """No pop may cross the drain-low watermark."""
    plan = _planner().plan(None, _side(WR, 100, 1), True,
                           Caps(drain_run=8, pops_left=5))
    assert _summary(plan) == ("drain_tail", 100, 5, 120,
                              _columns("WR", 100, 5, 1))


def test_cap_host_data_window():
    """A host data burst on the rank over [121, 130): plan up to its start;
    the wake is the window's end, where the stream resumes."""
    def host_free(cycle):
        return 130 if 121 <= cycle < 130 else cycle

    plan = _planner(host_free).plan(_side(RD, 100, 0), None, None,
                                    Caps(read_run=20, reads_left=50,
                                         data_busy_from=121))
    assert _summary(plan) == ("read_streak", 100, 6, 130,
                              _columns("RD", 100, 6, 0))


def test_cap_refresh_deadline():
    """No planned command at or past the refresh-due cycle."""
    plan = _planner().plan(_side(RD, 100, 0), None, None,
                           Caps(read_run=20, reads_left=50, refresh_due=117))
    assert _summary(plan) == ("read_streak", 100, 4, 116,
                              _columns("RD", 100, 4, 0))
    assert _planner().plan(_side(RD, 100, 0), None, None,
                           Caps(read_run=20, reads_left=50,
                                refresh_due=100)) is None


def test_cap_slot_collision():
    """The other bank's PRE lands on a planned cycle: it is not absorbed
    but becomes the row gap, where the plan stops and the wake parks."""
    plan = _planner().plan(_side(PRE, 108, 0), _side(WR, 100, 1), True,
                           Caps(drain_run=16, pops_left=30))
    assert _summary(plan) == ("drain_run", 100, 2, 108,
                              _columns("WR", 100, 2, 1))
    assert plan.row_gapped


def test_cap_host_wanted_bank():
    """A row command on a bank the host wants means no plan; the same
    command on a bank the host leaves alone is absorbed."""
    caps = Caps(drain_run=16, pops_left=30)
    assert _planner().plan(_side(PRE, 106, 0, blocked=True),
                           _side(WR, 100, 1), True, caps) is None
    assert _planner().plan(_side(PRE, 106, 0), _side(WR, 100, 1), True,
                           caps) is not None


def test_futility_needs_the_static_push():
    """Without the write-to-read push, a pending row-hit read is not provably
    futile under a WR run: no plan."""
    assert _planner(wr_pushes_rd=False).plan(
        _side(RD, 101, 0), _side(WR, 100, 1), True,
        Caps(drain_run=16, pops_left=30)) is None


# -- the plan's own arithmetic -------------------------------------------- #

def test_plan_arithmetic():
    """``advance`` settles the column commands before a boundary and keeps
    ``due`` on the first unsettled command of either kind; the controller
    settles the row commands (``row_idx``) before calling it."""
    plan = _planner().plan(_side(PRE, 106, 0), _side(WR, 100, 1), True,
                           Caps(drain_run=16, pops_left=30))
    assert plan.command_at(3) == 112
    assert (plan.due, plan.advance(100), plan.idx) == (100, -1, 0)
    assert (plan.advance(101), plan.idx, plan.due) == (100, 1, 104)
    assert (plan.advance(107), plan.idx, plan.due) == (104, 2, 106)
    plan.row_idx = 1  # the PRE at 106 settled
    assert (plan.advance(107), plan.due) == (-1, 108)
    last = plan.command_at(plan.count - 1)
    assert (plan.advance(NO_EVENT), plan.idx, plan.due) == (
        last, plan.count, 106 + T_RP)
    plan.row_idx = 2
    assert (plan.advance(NO_EVENT), plan.due) == (-1, NO_EVENT)


# -- the documented class table -------------------------------------------- #

_HEADER = ("| class | leads | other side | futility lemma "
           "| absorbs row commands | embeds throttle decision |")


def _rendered_rows():
    def flag(value):
        return "yes" if value else "no"

    return [f"| `{row.name}` | {row.leads} | {row.other} | {row.lemma} "
            f"| {flag(row.absorbs_rows)} | {flag(row.embeds_decision)} |"
            for row in PLAN_TABLE]


def test_architecture_class_table_mirrors_plan_table():
    lines = (Path(__file__).resolve().parents[1]
             / "ARCHITECTURE.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(_HEADER) + 2  # header, then the separator row
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    table = lines[start:end]
    assert [line.split("`")[1] for line in table] == list(PLAN_CLASSES)
    assert table == _rendered_rows()

