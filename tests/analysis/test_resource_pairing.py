"""resource-pairing: every acquire is released or visibly escapes."""

from __future__ import annotations

CHECK = "resource-pairing"


class TestSeededViolations:
    def test_leaked_slot_on_early_return_is_caught(self, findings_of):
        findings = findings_of(
            """
            def send(self, ring, data):
                slot = ring.acquire()
                if not self.open:
                    return  # bug: the slot is never released
                ring.write(slot, data)
                ring.release(slot)
            """,
            CHECK,
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.checker == CHECK
        assert finding.function == "send"
        assert "slot" in finding.message

    def test_leaked_shared_memory_handle_is_caught(self, findings_of):
        findings = findings_of(
            """
            def attach(name):
                segment = SharedMemory(name=name)
                data = bytes(segment.buf[:4])
                if not data:
                    return None  # bug: segment never closed on this path
                segment.close()
                return data
            """,
            CHECK,
        )
        assert len(findings) == 1

    def test_leaked_process_is_caught(self, findings_of):
        findings = findings_of(
            """
            def run(task, wanted):
                worker = Process(target=task)
                worker.start()
                if not wanted:
                    return None  # bug: started, never joined, owned by nobody
                worker.join()
                return worker.exitcode
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "worker process" in findings[0].message

    def test_leaked_pipe_end_is_caught(self, findings_of):
        findings = findings_of(
            """
            def connect(spawn):
                ours, theirs = socketpair()
                child = spawn(theirs)
                if child is None:
                    return None  # bug: our end stays open on this path
                theirs.close()
                return Channel(child, ours)
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "'ours'" in findings[0].message

    def test_leaked_accepted_socket_is_caught(self, findings_of):
        findings = findings_of(
            """
            def admit(listener, banned):
                sock, address = listener.accept()
                if address[0] in banned:
                    return None  # bug: the connection is neither closed nor owned
                return Endpoint(sock, HTTP_HEAD)
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "socket 'sock'" in findings[0].message

    def test_discarded_acquire_is_caught(self, findings_of):
        findings = findings_of(
            """
            def warm(ring):
                ring.acquire()  # bug: the slot can never be released
            """,
            CHECK,
        )
        assert len(findings) == 1


class TestCleanExemplars:
    def test_acquire_release_pair_is_clean(self, findings_of):
        assert not findings_of(
            """
            def send(ring, data):
                slot = ring.acquire()
                ring.write(slot, data)
                ring.release(slot)
            """,
            CHECK,
        )

    def test_release_in_finally_covers_all_exits(self, findings_of):
        assert not findings_of(
            """
            def send(ring, data):
                slot = ring.acquire()
                try:
                    ring.write(slot, data)
                finally:
                    ring.release(slot)
            """,
            CHECK,
        )

    def test_none_narrowing_of_nonblocking_acquire(self, findings_of):
        # ``None`` means the ring was exhausted: nothing to release there.
        assert not findings_of(
            """
            def try_send(ring, data):
                slot = ring.acquire()
                if slot is None:
                    return False
                ring.write(slot, data)
                ring.release(slot)
                return True
            """,
            CHECK,
        )

    def test_an_endpoint_owns_the_socket_it_is_given(self, findings_of):
        # Endpoint.close() closes it: handing the socket over is the release.
        assert not findings_of(
            """
            def admit(self, listener):
                try:
                    sock, address = listener.accept()
                except OSError:
                    return  # nothing to accept: nothing was acquired
                sock.setsockopt(IPPROTO_TCP, TCP_NODELAY, 1)
                self.connections.append(Endpoint(sock, HTTP_HEAD))

            def dial(address):
                sock = socket.socket()
                try:
                    sock.connect(address)
                except OSError:
                    sock.close()
                    raise
                return Endpoint(sock, HTTP_HEAD)
            """,
            CHECK,
        )

    def test_escape_via_return_moves_ownership(self, findings_of):
        assert not findings_of(
            """
            def borrow(ring):
                slot = ring.acquire()
                return slot
            """,
            CHECK,
        )

    def test_escape_into_container_moves_ownership(self, findings_of):
        assert not findings_of(
            """
            def borrow_all(ring, slots):
                slot = ring.acquire()
                slots.append(slot)
            """,
            CHECK,
        )

    def test_calls_on_the_ring_itself_keep_tracking(self, findings_of):
        # ``ring.write(slot, ...)`` is a use, not an ownership transfer —
        # a leak after it must still be caught.
        findings = findings_of(
            """
            def send(self, ring, data):
                slot = ring.acquire()
                ring.write(slot, data)
                if data is None:
                    return  # bug: used but never released
                ring.release(slot)
            """,
            CHECK,
        )
        assert len(findings) == 1

    def test_shared_memory_closed_and_unlinked_is_clean(self, findings_of):
        assert not findings_of(
            """
            def create(name, size):
                segment = SharedMemory(name=name, create=True, size=size)
                segment.close()
                segment.unlink()
            """,
            CHECK,
        )

    def test_pipe_ends_closed_or_handed_off_are_clean(self, findings_of):
        assert not findings_of(
            """
            def spawn(target, registry):
                ours, theirs = Pipe()
                worker = Process(target=target, args=(theirs,))
                try:
                    worker.start()
                finally:
                    theirs.close()
                registry.append((worker, ours))
            """,
            CHECK,
        )

    def test_plain_lock_acquire_is_not_tracked(self, findings_of):
        # Only ring-named receivers are slot acquires; a threading.Lock
        # acquire/release pattern is out of scope for this checker.
        assert not findings_of(
            """
            def guarded(lock):
                lock.acquire()
                work()
            """,
            CHECK,
        )
