"""Tests for the interrupt controller (repro.kernel.interrupts)."""

import pytest

from repro.exceptions import ClockTamperingError, SimulationError
from repro.kernel.interrupts import InterruptController, Vector


class TestInstallation:
    def test_pmk_owns_the_clock_vector(self):
        controller = InterruptController()
        controller.install(Vector.CLOCK, lambda: None,
                           owner=InterruptController.PMK_OWNER)
        assert len(controller.handlers_on(Vector.CLOCK)) == 1

    def test_guest_cannot_bind_clock_vector(self):
        controller = InterruptController()
        with pytest.raises(ClockTamperingError):
            controller.install(Vector.CLOCK, lambda: None, owner="Plinux")

    def test_guest_may_bind_other_vectors(self):
        controller = InterruptController()
        controller.install(Vector.EXTERNAL_IO, lambda: None, owner="P1")
        assert controller.handlers_on(Vector.EXTERNAL_IO)[0].owner == "P1"

    def test_uninstall(self):
        controller = InterruptController()
        registration = controller.install(Vector.EXTERNAL_IO, lambda: None,
                                          owner="P1")
        controller.uninstall(registration)
        assert controller.handlers_on(Vector.EXTERNAL_IO) == ()
        with pytest.raises(SimulationError):
            controller.uninstall(registration)


class TestDelivery:
    def test_handlers_run_in_chain_order(self):
        controller = InterruptController()
        order = []
        controller.install(Vector.EXTERNAL_IO, lambda: order.append("a"),
                           owner="P1")
        controller.install(Vector.EXTERNAL_IO, lambda: order.append("b"),
                           owner="P2")
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 2
        assert order == ["a", "b"]

    def test_handler_uninstalling_itself_mid_chain(self):
        # A delivery runs the chain as it stood when it was raised: the
        # uninstall takes effect from the next delivery on.
        controller = InterruptController()
        order = []

        def once():
            order.append("once")
            controller.uninstall(registration)

        controller.install(Vector.EXTERNAL_IO, lambda: order.append("a"),
                           owner="P1")
        registration = controller.install(Vector.EXTERNAL_IO, once,
                                          owner="P1")
        controller.install(Vector.EXTERNAL_IO, lambda: order.append("b"),
                           owner="P2")
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 3
        assert order == ["a", "once", "b"]
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 2
        assert order == ["a", "once", "b", "a", "b"]
        assert [r.owner for r in controller.handlers_on(
            Vector.EXTERNAL_IO)] == ["P1", "P2"]

    def test_handler_uninstalling_a_later_one_mid_chain(self):
        controller = InterruptController()
        order = []

        def first():
            order.append("a")
            if later in controller.handlers_on(Vector.EXTERNAL_IO):
                controller.uninstall(later)

        controller.install(Vector.EXTERNAL_IO, first, owner="P1")
        later = controller.install(Vector.EXTERNAL_IO,
                                   lambda: order.append("b"), owner="P2")
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 2
        assert order == ["a", "b"]
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 1
        assert order == ["a", "b", "a"]

    def test_dispatch_count(self):
        controller = InterruptController()
        controller.install(Vector.CLOCK, lambda: None,
                           owner=InterruptController.PMK_OWNER)
        for _ in range(5):
            controller.raise_interrupt(Vector.CLOCK)
        assert controller.dispatch_count(Vector.CLOCK) == 5


class TestMasking:
    def test_masked_vector_drops_delivery(self):
        controller = InterruptController()
        hits = []
        controller.install(Vector.EXTERNAL_IO, lambda: hits.append(1),
                           owner="P1")
        controller.mask(Vector.EXTERNAL_IO, owner="P1")
        assert controller.is_masked(Vector.EXTERNAL_IO)
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 0
        controller.unmask(Vector.EXTERNAL_IO)
        assert controller.raise_interrupt(Vector.EXTERNAL_IO) == 1
        assert hits == [1]

    def test_guest_cannot_mask_the_clock(self):
        # Sect. 2.5's core guarantee, at the vector level.
        controller = InterruptController()
        with pytest.raises(ClockTamperingError):
            controller.mask(Vector.CLOCK, owner="Plinux")
        assert not controller.is_masked(Vector.CLOCK)

    def test_pmk_may_mask_the_clock(self):
        controller = InterruptController()
        controller.mask(Vector.CLOCK, owner=InterruptController.PMK_OWNER)
        assert controller.is_masked(Vector.CLOCK)
