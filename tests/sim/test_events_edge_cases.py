"""Edge cases of composite events and process interruption."""


from repro.errors import ProcessKilled
from repro.sim import Engine


class TestAllOfFailure:
    def test_allof_fails_fast_on_child_failure(self):
        eng = Engine()
        caught = []

        def failing(eng):
            yield eng.timeout(1.0)
            raise ValueError("child exploded")

        def waiter(eng):
            try:
                yield eng.all_of([
                    eng.timeout(5.0, "slow"),
                    eng.process(failing(eng)),
                ])
            except ValueError as exc:
                caught.append((eng.now, str(exc)))

        eng.process(waiter(eng))
        eng.run()
        assert caught == [(1.0, "child exploded")]

    def test_allof_with_preprocessed_children(self):
        eng = Engine()
        done = eng.timeout(0.5, "early")
        eng.run(until=1.0)  # `done` already processed
        out = []

        def waiter(eng):
            values = yield eng.all_of([done, eng.timeout(0.5, "late")])
            out.append(values)

        eng.process(waiter(eng))
        eng.run()
        assert out == [["early", "late"]]


class TestAnyOfFailure:
    def test_anyof_fails_if_first_completion_is_failure(self):
        eng = Engine()
        caught = []

        def failing(eng):
            yield eng.timeout(0.5)
            raise RuntimeError("first to finish, badly")

        def waiter(eng):
            try:
                yield eng.any_of([
                    eng.process(failing(eng)),
                    eng.timeout(5.0, "slow"),
                ])
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(waiter(eng))
        eng.run()
        assert caught == ["first to finish, badly"]

    def test_anyof_ignores_later_children(self):
        eng = Engine()
        out = []

        def waiter(eng):
            idx, value = yield eng.any_of(
                [eng.timeout(1.0, "a"), eng.timeout(1.0, "b")]
            )
            out.append((idx, value))

        eng.process(waiter(eng))
        eng.run()
        # FIFO tie-break: the first-scheduled child wins
        assert out == [(0, "a")]


class TestCompositeLateFailures:
    """Children failing after the composite resolved must be absorbed.

    Regression: a loser failing after the race was decided used to keep
    its failure un-defused; with no waiter left, the engine surfaced the
    exception at top level and crashed the whole run.
    """

    def test_anyof_loser_failure_after_winner_is_defused(self):
        eng = Engine()
        out = []

        def late_failure(eng):
            yield eng.timeout(2.0)
            raise RuntimeError("loser blew up after the race")

        def waiter(eng):
            idx, value = yield eng.any_of([
                eng.timeout(1.0, "fast"),
                eng.process(late_failure(eng)),
            ])
            out.append((idx, value))

        eng.process(waiter(eng))
        eng.run()  # must not surface the loser's RuntimeError
        assert out == [(0, "fast")]
        assert eng.now == 2.0  # the loser still ran to its failure

    def test_allof_second_failure_after_composite_failed_is_defused(self):
        eng = Engine()
        caught = []

        def failing(eng, delay, msg):
            yield eng.timeout(delay)
            raise ValueError(msg)

        def waiter(eng):
            try:
                yield eng.all_of([
                    eng.process(failing(eng, 1.0, "first")),
                    eng.process(failing(eng, 2.0, "second")),
                ])
            except ValueError as exc:
                caught.append(str(exc))

        eng.process(waiter(eng))
        eng.run()  # the second failure must not escape to top level
        assert caught == ["first"]


class TestAlreadyFiredTargets:
    def test_yield_already_failed_event_raises_into_process(self):
        eng = Engine()
        boom = eng.event()
        boom.fail(RuntimeError("stale failure"))
        boom.defused = True  # nobody waits yet; keep run() from raising
        eng.run()
        assert boom.processed
        caught = []

        def late_waiter(eng):
            try:
                yield boom
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(late_waiter(eng))
        eng.run()
        assert caught == ["stale failure"]


class TestKillScenarios:
    def test_kill_while_waiting_on_shared_event(self):
        """Killing one waiter must not disturb another on the same event."""
        eng = Engine()
        shared = eng.event()
        survived = []

        def waiter(eng, label):
            value = yield shared
            survived.append((label, value))

        victim = eng.process(waiter(eng, "victim"))
        eng.process(waiter(eng, "survivor"))

        def orchestrator(eng):
            yield eng.timeout(1.0)
            victim.kill()
            yield eng.timeout(1.0)
            shared.succeed("payload")

        eng.process(orchestrator(eng))
        eng.run()
        assert survived == [("survivor", "payload")]

    def test_killed_process_reason_in_exception(self):
        eng = Engine()
        reasons = []

        def victim(eng):
            try:
                yield eng.timeout(10.0)
            except ProcessKilled as exc:
                reasons.append(str(exc))
                raise

        p = eng.process(victim(eng))

        def killer(eng):
            yield eng.timeout(1.0)
            p.kill("maintenance window")

        eng.process(killer(eng))
        eng.run()
        assert reasons == ["maintenance window"]

    def test_kill_can_be_survived(self):
        """A process may catch ProcessKilled and continue."""
        eng = Engine()
        log = []

        def stubborn(eng):
            try:
                yield eng.timeout(10.0)
            except ProcessKilled:
                log.append("caught")
            yield eng.timeout(1.0)
            log.append(("done", eng.now))

        p = eng.process(stubborn(eng))

        def killer(eng):
            yield eng.timeout(2.0)
            p.kill()

        eng.process(killer(eng))
        eng.run()
        assert log == ["caught", ("done", 3.0)]

    def test_kill_while_resume_in_flight_cancels_delivery(self):
        """Kill delivered between a yield of an already-fired event and
        its resume entry firing: the value must never arrive, and the
        kill lands at the current yield point.

        Ordering at t=2.0: the killer's timeout fires first (it was
        scheduled first), so the kill tick sits between the victim's
        timeout and the resume entry the victim schedules by yielding
        the already-processed event.
        """
        eng = Engine()
        fired = eng.event()
        fired.succeed("payload")
        eng.run()  # `fired` processed, no waiters
        log = []
        handle = {}

        def killer(eng):
            yield eng.timeout(2.0)
            handle["victim"].kill()

        def victim(eng):
            try:
                yield eng.timeout(2.0)
                value = yield fired  # schedules an in-flight resume
                log.append(("value", value))
            except ProcessKilled:
                log.append("killed")

        eng.process(killer(eng))
        handle["victim"] = eng.process(victim(eng))
        eng.run()
        assert log == ["killed"]
        assert not handle["victim"].is_alive

    def test_kill_before_start_never_runs_the_body(self):
        """A process killed in the instant it was created, before its
        start entry fires, never runs a line of its body: the start is
        a resume in flight, and the kill cancels it on the spot."""
        eng = Engine()
        log = []
        handle = {}

        def body(eng):
            log.append("started")
            yield eng.timeout(1.0)

        def supervisor(eng):
            yield eng.timeout(1.0)
            handle["p"] = eng.process(body(eng))
            handle["p"].kill()

        eng.process(supervisor(eng))
        eng.run()
        assert log == []
        assert not handle["p"].is_alive

    def test_cancelled_resume_does_not_leak_into_new_waiters(self):
        """Pool recycling of a cancelled entry must not cancel its next
        owner: a process spawned after the kill still gets its value."""
        eng = Engine()
        fired = eng.event()
        fired.succeed("x")
        eng.run()
        got = []
        handle = {}

        def innocent(eng):
            value = yield fired
            got.append(("innocent", value))

        def killer(eng):
            yield eng.timeout(2.0)
            handle["victim"].kill()
            eng.process(innocent(eng))

        def victim(eng):
            yield eng.timeout(2.0)
            yield fired
            got.append("victim-resumed")  # must never happen

        eng.process(killer(eng))
        handle["victim"] = eng.process(victim(eng))
        eng.run()
        assert got == [("innocent", "x")]

    def test_parent_catches_processkilled_from_killed_child(self):
        eng = Engine()
        caught = []

        def child(eng):
            yield eng.timeout(10.0)

        def parent(eng):
            c = eng.process(child(eng))
            eng.process(assassin(eng, c))
            try:
                yield c
            except ProcessKilled:
                caught.append(eng.now)

        def assassin(eng, target):
            yield eng.timeout(1.0)
            target.kill()

        eng.process(parent(eng))
        eng.run()
        assert caught == [1.0]

    def test_double_kill_is_noop(self):
        eng = Engine()

        def victim(eng):
            yield eng.timeout(10.0)

        p = eng.process(victim(eng))

        def killer(eng):
            yield eng.timeout(1.0)
            p.kill()
            p.kill()

        eng.process(killer(eng))
        eng.run()
        assert not p.is_alive
