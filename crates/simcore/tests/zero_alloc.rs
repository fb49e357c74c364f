//! Proof of the zero-allocation steady-state dispatch contract.
//!
//! The whole point of the event arena (`simcore::arena`) is that once a
//! simulation has warmed up — every queue slot, trace buffer, and node
//! scratch structure grown to its high-water mark — pushing and popping
//! events touches the heap exactly zero times. This test installs
//! `obs::prof::CountingAlloc` as the global allocator, runs a ping-pong
//! plus timer-churn workload to warm the structures, and then asserts a
//! literal zero allocation delta over a long steady-state window.
//!
//! The same workload with heap-boxed payloads (`Sim<Box<u64>>`, the
//! pre-arena representation) must allocate once per event — the
//! contrast pins down that it is the inline arena, not luck, keeping
//! the fast path off the heap.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use simcore::{Ctx, Node, NodeId, Sim, SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A ping-pong payload: inline (`u64`) or heap-boxed (`Box<u64>`).
trait Hop: 'static {
    fn start() -> Self;
    fn next(self) -> Self;
}

impl Hop for u64 {
    fn start() -> Self {
        0
    }
    fn next(self) -> Self {
        self + 1
    }
}

impl Hop for Box<u64> {
    fn start() -> Self {
        Box::new(0)
    }
    fn next(self) -> Self {
        Box::new(*self + 1)
    }
}

/// Ping-pong node: echoes every message back to its sender after a
/// fixed delay, and keeps a cancel/re-arm timer cycling (the SDIO/PSM
/// timer reset pattern) so the tombstone path is exercised too.
#[derive(Default)]
struct Pinger {
    peer: Option<NodeId>,
    hops: u64,
    timer: Option<simcore::TimerId>,
}

impl<M: Hop> Node<M> for Pinger {
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        self.hops += 1;
        self.peer = Some(from);
        ctx.send(from, SimDuration::from_micros(13), msg.next());
        // Reset-on-activity: cancel the pending watchdog and re-arm it,
        // exactly like the SDIO demotion state machine.
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.timer = Some(ctx.set_timer(SimDuration::from_millis(5), 0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        // Watchdog fired: nudge the peer so traffic never dies out.
        let _ = tag;
        self.timer = None;
        if let Some(peer) = self.peer {
            ctx.send(peer, SimDuration::from_micros(13), M::start());
        }
    }
}

/// Run the ping-pong workload with payload type `M`; returns the
/// allocation count delta over the steady-state window (after warm-up).
fn steady_state_allocs<M: Hop>() -> u64 {
    let mut sim: Sim<M> = Sim::new(7);
    let a = sim.add_node(Box::<Pinger>::default());
    let b = sim.add_node(Box::<Pinger>::default());
    // Several concurrent ping-pong chains so the queue holds more than
    // one in-flight event and the arena cycles through multiple slots.
    for i in 0..16 {
        sim.inject(a, b, SimTime::from_micros(i), M::start());
    }

    // Warm-up: grow every structure to its high-water mark.
    sim.run_until(SimTime::from_millis(1_120));

    let (allocs_before, _) = thread_alloc_counts();
    sim.run_until(SimTime::from_millis(2_100));
    let (allocs_after, _) = thread_alloc_counts();

    let hops = sim.node::<Pinger>(a).hops + sim.node::<Pinger>(b).hops;
    assert!(hops > 10_000, "workload too small to be meaningful: {hops}");
    allocs_after - allocs_before
}

#[test]
fn dispatch_steady_state_allocates_nothing() {
    let delta = steady_state_allocs::<u64>();
    assert_eq!(delta, 0, "steady-state dispatch allocated {delta} times");
}

#[test]
fn boxed_payloads_allocate_per_event() {
    // The pre-arena representation boxes every payload: tens of
    // thousands of events must mean tens of thousands of allocations.
    let delta = steady_state_allocs::<Box<u64>>();
    assert!(
        delta > 10_000,
        "boxed payloads should allocate per event, saw only {delta}"
    );
}
