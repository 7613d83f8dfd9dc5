//! Property tests of the engine: virtual-time ordering, determinism, and
//! timeout semantics under arbitrary schedules.

use std::sync::Arc;

use darms_sim::{Engine, PollWaiter, SimDuration, SimTime};
use parking_lot::Mutex;
use proptest::prelude::*;

/// How a reader waits for the writer's flag in [`publication_log`].
#[derive(Clone, Copy)]
enum Wait {
    /// The polling loop `poll_until` replaces: check, `sleep(period)`.
    Loop,
    /// `poll_until`, parked beside the flag until the writer wakes it.
    Park,
}

/// One scenario: a witness that sleeps to `witness_at` in one hop, two
/// readers that start waiting at `t0` with poll period `period`, each on
/// its own flag, and a writer that sets both flags at `write_at`, the
/// second reader's first, its last hop scheduled `last_hop` before.
/// Returns `(time, who)` in the order things happened, and the event
/// count.
fn publication_log(
    wait: Wait,
    t0: u64,
    period: u64,
    write_at: u64,
    last_hop: u64,
    witness_at: u64,
) -> (Vec<(u64, &'static str)>, u64) {
    type Board = Arc<Mutex<(bool, Vec<PollWaiter>)>>;
    let ns = SimDuration::from_nanos;
    let mut sim = Engine::with_seed(3);
    let boards: [Board; 2] = std::array::from_fn(|_| Arc::new(Mutex::new((false, Vec::new()))));
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    sim.spawn_process("witness", move |p| async move {
        p.sleep(ns(witness_at)).await;
        l.lock().push((p.now().as_nanos(), "witness"));
    });
    for (who, board) in ["r0", "r1"].into_iter().zip(&boards) {
        let (b, l) = (board.clone(), log.clone());
        sim.spawn_process_after(who, ns(t0), move |p| async move {
            match wait {
                Wait::Loop => {
                    while !b.lock().0 {
                        p.sleep(ns(period)).await;
                    }
                }
                Wait::Park => {
                    p.poll_until(ns(period), |w| {
                        let mut board = b.lock();
                        if board.0 {
                            return Some(());
                        }
                        board.1.push(w);
                        None
                    })
                    .await
                }
            }
            l.lock().push((p.now().as_nanos(), who));
        });
    }
    let l = log.clone();
    sim.spawn_process("writer", move |p| async move {
        p.sleep(ns(write_at - last_hop)).await;
        p.sleep(ns(last_hop)).await;
        for b in boards.iter().rev() {
            let woken = {
                let mut board = b.lock();
                board.0 = true;
                std::mem::take(&mut board.1)
            };
            p.wake_pollers(woken);
        }
        l.lock().push((p.now().as_nanos(), "writer"));
    });
    let stats = sim.run();
    let out = log.lock().clone();
    (out, stats.events)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// `poll_until` sees a publication exactly when the polling loop it
    /// replaces does, at the first tick after the write (a write on a
    /// tick whose poll was already scheduled is seen a tick later), and
    /// wakes same-instant waiters in the loop's order (park order, not
    /// the order their flags were written), while costing no events for
    /// the idle ticks.
    #[test]
    fn parked_poll_matches_the_polling_loop(
        t0 in 0u64..5_000,
        period in 1u64..500,
        ticks in 0u64..12,
        offset in 0u64..500,
        mode in 0u8..3,
        hop in 0u64..500,
    ) {
        // Mode 0 writes off-tick after the park, mode 1 exactly on tick
        // `ticks`, mode 2 before the park.
        let write_at = match mode {
            0 => t0 + ticks * period + offset % period,
            1 => t0 + ticks * period,
            _ => t0.saturating_sub(offset + 1),
        };
        // The writer's last hop is scheduled after the readers' previous
        // tick, as for a write caused by a message that was in flight.
        let last_hop = (hop % period).min(write_at);
        let seen = if write_at < t0 { t0 } else { t0 + ((write_at - t0) / period + 1) * period };
        let (looped, loop_events) = publication_log(Wait::Loop, t0, period, write_at, last_hop, seen);
        let (parked, park_events) = publication_log(Wait::Park, t0, period, write_at, last_hop, seen);
        prop_assert_eq!(&parked, &looped);
        let at = |who: &str| looped.iter().find(|(_, w)| *w == who).map(|&(t, _)| t);
        prop_assert_eq!(at("r0"), Some(seen));
        prop_assert_eq!(at("r1"), Some(seen));
        prop_assert!(park_events <= loop_events);
        if write_at >= t0 {
            // The loop wakes once per tick up to `seen`, the park once.
            let idle_ticks = (seen - t0) / period - 1;
            prop_assert_eq!(park_events + 2 * idle_ticks, loop_events);
        }
    }

    /// Sleepers with arbitrary durations always wake in duration order,
    /// and the clock never runs backwards.
    #[test]
    fn sleepers_wake_in_order(mut durations in prop::collection::vec(0u64..1_000_000, 1..20)) {
        let mut sim = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(Vec::new()));
        for (i, &d) in durations.iter().enumerate() {
            let o = out.clone();
            sim.spawn_process(format!("s{i}"), move |p| async move {
                p.sleep(SimDuration::from_nanos(d)).await;
                o.lock().push((p.now(), d));
            });
        }
        let stats = sim.run();
        prop_assert_eq!(stats.processes_finished as usize, durations.len());
        let woke = out.lock().clone();
        // Wake times are the durations themselves (all started at t=0)...
        for (at, d) in &woke {
            prop_assert_eq!(at.as_nanos(), *d);
        }
        // ...and observed in non-decreasing time order.
        for w in woke.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        durations.sort();
    }

    /// recv_timeout returns at exactly the deadline when nothing arrives,
    /// and before it when a message lands earlier.
    #[test]
    fn recv_timeout_deadline_is_exact(timeout_ns in 1u64..1_000_000, msg_ns in 1u64..2_000_000) {
        let mut sim = Engine::with_seed(2);
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let rx = sim.spawn_process("rx", move |p| async move {
            let r = p.recv_timeout(SimDuration::from_nanos(timeout_ns)).await;
            *o.lock() = Some((r.is_some(), p.now()));
        });
        sim.spawn_process("tx", move |p| async move {
            p.send(rx.into(), 1u8, SimDuration::from_nanos(msg_ns));
        });
        sim.run();
        let (got, at) = out.lock().unwrap();
        if msg_ns <= timeout_ns {
            prop_assert!(got);
            prop_assert_eq!(at, SimTime::from_nanos(msg_ns));
        } else {
            prop_assert!(!got);
            prop_assert_eq!(at, SimTime::from_nanos(timeout_ns));
        }
    }

    /// Determinism: the same random scenario produces the same stats.
    #[test]
    fn runs_are_reproducible(seed in 0u64..10_000, n in 1usize..10) {
        fn run(seed: u64, n: usize) -> (u64, u64) {
            let mut sim = Engine::with_seed(seed);
            for i in 0..n {
                sim.spawn_process(format!("p{i}"), move |p| async move {
                    let jitter = p.with_rng(|r| rand::Rng::gen_range(r, 1..1000u64));
                    p.sleep(SimDuration::from_nanos(jitter * (i as u64 + 1))).await;
                });
            }
            let stats = sim.run();
            (stats.events, stats.end_time.as_nanos())
        }
        prop_assert_eq!(run(seed, n), run(seed, n));
    }
}
