//! How every actor moves. A control shard, a data node, a client and the
//! router of a sharded run are each a state machine behind [`Actor`], and all
//! are moved one way: take the mail while there is some, reading the clock
//! once per pop; once the inbox is empty, `before_block`; then sleep until
//! mail comes or the wait it asked for runs out, and get `idle` if it did. A
//! stopped actor gets `finish`. Every step is handed the latest instant read,
//! so a test can drive the unmodified machines by hand.
//!
//! One driver makes those moves in every run, on either transport:
//! [`step_all`], the executor. Every actor, each in a [`Slot`] with its
//! inbox, moves on the calling thread, and only an actor pushes into a
//! queue inbox, so no mail arrives from outside but over a socket. A `pick`
//! names which ready actor moves next; when none is ready, the [`Clock`]
//! waits for the earliest wait to run out or for mail. A run picks
//! [`round_robin`] on the runtime's real-time clock: its wait pushes out
//! what TCP sends held, then is one `ppoll` over every link of the run's
//! socket inboxes, then one `read` on each readable link. An in-process run
//! is the same clock with no links. An explored run
//! (`runtime::explore_cell`) is the same run, picked by `seeded` on
//! `VirtualTime`: a seed names one interleaving, and it repeats exactly.
//!
//! Nothing here reads the clock: the only [`Clock`] that does is private to
//! `runtime`, the one module outside tests that opts out of clippy's clock
//! ban, so no actor can name it.

use std::time::{Duration, Instant};

use wtpg_rt::backoff::XorShift;
use wtpg_rt::queue::PopResult;

use crate::error::NetError;
use crate::msg::Msg;
use crate::transport::Mailbox;

/// What one step asks of the loop.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    Continue,
    /// The actor is done: for a data node, `Shutdown` arrived or the
    /// control link is gone; for a control shard, its exit rule holds.
    Stop,
}

/// One actor as a state machine; public so that tests can step it.
#[doc(hidden)]
pub trait Actor {
    /// What the actor returns at exit.
    type Outcome;
    /// Handles one message, popped at `now`.
    fn deliver(&mut self, m: Msg, now: Instant) -> Result<Flow, NetError>;
    /// The wait `before_block` asked for ran out at `now`, nothing popped.
    fn idle(&mut self, now: Instant) -> Result<Flow, NetError>;
    /// The inbox is empty: flush and fire what must not wait, then say how
    /// long the loop may block (`Duration::MAX`: until mail), or `None` to
    /// stop.
    fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError>;
    /// Orderly exit once the actor stopped or its inbox closed; refused if
    /// its exit rule does not hold.
    fn finish(self) -> Result<Self::Outcome, NetError>;
}

/// How an executor tells the time.
#[doc(hidden)]
pub trait Clock {
    /// The time now, read once per pop.
    fn now(&mut self) -> Instant;
    /// No actor can move before `until` (`None`: before mail comes): returns
    /// once it has come, or mail has.
    ///
    /// # Errors
    /// A clock that can tell nothing will ever come may refuse.
    fn wait_until(&mut self, until: Option<Instant>) -> Result<(), NetError>;
}

/// An actor on an executor, whatever its type (see [`Slot`]).
#[doc(hidden)]
pub trait Step {
    /// `None` while the actor runs; once it stopped, whether cleanly.
    fn ended(&self) -> Option<bool>;
    /// Whether it can move at `now`: it is awake, mail (or its inbox's close)
    /// is waiting, or its wait has run out.
    fn ready(&self, now: Instant) -> bool;
    /// Its next move: a pop delivered, `before_block` on an empty inbox,
    /// `idle` once the wait ran out. `now` is the latest reading of `clock`,
    /// read again for each pop. `true` if the move stopped the actor.
    fn step(&mut self, clock: &mut dyn Clock, now: &mut Instant) -> bool;
    /// When its wait runs out, while it sleeps on one.
    fn wakes_at(&self) -> Option<Instant>;
    /// Once it stopped in error, that error, taken out: the executor ends
    /// the run with it. Its own outcome then says it stopped the run.
    fn take_error(&mut self) -> Option<NetError>;
}

/// One actor on an executor: the machine, the inbox it reads, and what it
/// returned.
#[doc(hidden)]
pub struct Slot<'i, A: Actor> {
    actor: Option<A>,
    inbox: &'i Mailbox,
    /// Since its `before_block`, asleep: until this instant, or (`None`)
    /// until mail.
    asleep: Option<Option<Instant>>,
    /// What `finish` returned, or the error that stopped the actor.
    out: Option<Result<A::Outcome, NetError>>,
}

impl<'i, A: Actor> Slot<'i, A> {
    /// The `started` actor on `inbox`, awake; one that failed to start has
    /// stopped already.
    pub fn new(started: Result<A, NetError>, inbox: &'i Mailbox) -> Self {
        let (actor, out) = match started {
            Ok(actor) => (Some(actor), None),
            Err(e) => (None, Some(Err(e))),
        };
        Slot {
            actor,
            inbox,
            asleep: None,
            out,
        }
    }

    /// What the actor returned.
    ///
    /// # Errors
    /// The actor's own error, or [`NetError::Protocol`] if it never stopped.
    pub fn outcome(self) -> Result<A::Outcome, NetError> {
        self.out
            .unwrap_or_else(|| Err(NetError::Protocol("an actor was left running".into())))
    }
}

impl<A: Actor> Step for Slot<'_, A> {
    fn ended(&self) -> Option<bool> {
        self.out.as_ref().map(Result::is_ok)
    }

    fn ready(&self, now: Instant) -> bool {
        self.actor.is_some()
            && match self.asleep {
                None => true,
                Some(until) => until.is_some_and(|t| t <= now) || self.inbox.can_pop(),
            }
    }

    fn step(&mut self, clock: &mut dyn Clock, now: &mut Instant) -> bool {
        let Some(actor) = self.actor.as_mut() else {
            return false;
        };
        let flow = match self.inbox.try_pop() {
            PopResult::Item(m) => {
                *now = clock.now();
                self.asleep = None;
                actor.deliver(m, *now)
            }
            PopResult::Closed => Ok(Flow::Stop),
            PopResult::Empty => match self.asleep {
                None => match actor.before_block(*now) {
                    Ok(Some(wait)) => {
                        self.asleep = Some(now.checked_add(wait));
                        return false;
                    }
                    Ok(None) => Ok(Flow::Stop),
                    Err(e) => Err(e),
                },
                Some(Some(until)) if until <= *now => {
                    *now = clock.now();
                    self.asleep = None;
                    actor.idle(*now)
                }
                Some(_) => return false,
            },
        };
        match flow {
            Ok(Flow::Continue) => false,
            Ok(Flow::Stop) => {
                self.out = self.actor.take().map(Actor::finish);
                true
            }
            Err(e) => {
                self.actor = None;
                self.out = Some(Err(e));
                true
            }
        }
    }

    fn wakes_at(&self) -> Option<Instant> {
        self.asleep.flatten().filter(|_| self.actor.is_some())
    }

    fn take_error(&mut self) -> Option<NetError> {
        let Some(Err(_)) = self.out else { return None };
        let stopped = Err(NetError::Protocol("an actor stopped the run".into()));
        self.out.replace(stopped).and_then(Result::err)
    }
}

/// The executor: moves every actor in `slots` on this thread until all have
/// stopped, or until one stops in error or is found to have failed to
/// start. `pick` names the one to move, of those ready at the latest
/// reading of `clock`; with none ready, the clock waits for the earliest
/// wait or for mail. `stopped` runs after each move that stopped an actor
/// cleanly.
///
/// # Errors
/// The first actor's error, at once: the others are left where they are
/// (nothing they could still do would be reported); or what `pick` or the
/// clock refuses with.
pub fn step_all(
    slots: &mut [&mut dyn Step],
    clock: &mut dyn Clock,
    mut pick: impl FnMut(&[&mut dyn Step], Instant) -> Result<Option<usize>, NetError>,
    mut stopped: impl FnMut(&[&mut dyn Step]),
) -> Result<(), NetError> {
    if let Some(e) = slots.iter_mut().find_map(|s| s.take_error()) {
        return Err(e);
    }
    let mut now = clock.now();
    let mut live = slots.iter().filter(|s| s.ended().is_none()).count();
    while live > 0 {
        match pick(slots, now)?.and_then(|i| slots.get_mut(i)) {
            Some(slot) => {
                if slot.step(clock, &mut now) {
                    if let Some(e) = slot.take_error() {
                        return Err(e);
                    }
                    live -= 1;
                    stopped(slots);
                }
            }
            None => {
                clock.wait_until(slots.iter().filter_map(|s| s.wakes_at()).min())?;
                now = clock.now();
            }
        }
    }
    Ok(())
}

/// The executor's pick in a run: the actor that moved last, for as long as
/// it is ready — so it drains its inbox before anyone else moves — then the
/// next ready one round the ring. It never refuses.
pub fn round_robin() -> impl FnMut(&[&mut dyn Step], Instant) -> Result<Option<usize>, NetError> {
    let mut at = 0;
    move |slots, now| {
        let next = (at..slots.len())
            .chain(0..at)
            .find(|&i| slots.get(i).is_some_and(|s| s.ready(now)));
        at = next.unwrap_or(at);
        Ok(next)
    }
}

/// An explored run's pick: a ready actor drawn by a `XorShift` seeded with
/// `seed`. Past `steps` picks it refuses: the run does not end.
pub(crate) fn seeded(
    seed: u64,
    steps: usize,
) -> impl FnMut(&[&mut dyn Step], Instant) -> Result<Option<usize>, NetError> {
    let (mut rng, mut asked) = (XorShift::new(seed), 0);
    move |slots, now| {
        asked += 1;
        if asked > steps {
            return Err(NetError::Protocol(format!("no end within {steps} steps")));
        }
        let ready: Vec<_> = slots.iter().zip(0..).filter(|(s, _)| s.ready(now)).collect();
        let drawn = (!ready.is_empty()).then(|| rng.next_below(ready.len() as u64) as usize);
        Ok(drawn.and_then(|k| ready.get(k)).map(|&(_, i)| i))
    }
}

/// An explored run's clock: time that moves only when no actor can, to the
/// earliest wait. A wait for mail is refused: nothing outside the executor
/// sends any.
pub(crate) struct VirtualTime(pub(crate) Instant);

impl Clock for VirtualTime {
    fn now(&mut self) -> Instant {
        self.0
    }

    fn wait_until(&mut self, until: Option<Instant>) -> Result<(), NetError> {
        let stuck = || NetError::Protocol("every actor sleeps until mail none sends".into());
        self.0 = until.ok_or_else(stuck)?;
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]
mod tests {
    use super::*;
    use crate::runtime::real_time;
    use crate::transport::Inbox;
    use std::sync::{mpsc, Arc};

    /// Sleeps once for `wait`, then stops at its first wake-up, by mail or by
    /// `idle`; returns when it fell asleep and when (and how) it woke.
    struct Nap {
        wait: Duration,
        slept: Option<Instant>,
        woke: Option<(Instant, bool)>,
    }

    impl Actor for Nap {
        type Outcome = (Instant, Instant, bool);
        fn deliver(&mut self, _: Msg, now: Instant) -> Result<Flow, NetError> {
            self.woke = Some((now, true));
            Ok(Flow::Stop)
        }
        fn idle(&mut self, now: Instant) -> Result<Flow, NetError> {
            self.woke = Some((now, false));
            Ok(Flow::Stop)
        }
        fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError> {
            self.slept.get_or_insert(now);
            Ok(Some(self.wait))
        }
        fn finish(self) -> Result<Self::Outcome, NetError> {
            let (woke, mail) = self.woke.expect("stopped by a wake-up");
            Ok((self.slept.expect("slept first"), woke, mail))
        }
    }

    /// This thread's on-CPU ns so far (`None` where /proc does not say).
    fn cpu_ns() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }

    type Napped = (Result<(Instant, Instant, bool), NetError>, Option<u64>);

    /// Steps a [`Nap`] of `wait` alone on an executor thread of its own,
    /// which reports what it returned and the on-CPU ns it spent.
    fn nap_on_executor(wait: Duration, inbox: &Inbox) -> mpsc::Receiver<Napped> {
        let (tx, rx) = mpsc::channel();
        let inbox = Arc::clone(inbox);
        let mut clock = real_time(&[&inbox]).expect("no link to clone");
        std::thread::spawn(move || {
            let cpu = cpu_ns();
            let nap = Nap { wait, slept: None, woke: None };
            let mut slot = Slot::new(Ok(nap), &inbox);
            let ran = step_all(&mut [&mut slot], &mut clock, round_robin(), |_| {});
            let spent = cpu.zip(cpu_ns()).map(|(a, b)| b - a);
            let _ = tx.send((ran.and_then(|()| slot.outcome()), spent));
        });
        rx
    }

    #[test]
    fn an_actor_asleep_until_a_deadline_idles_at_it_without_spinning() {
        let wait = Duration::from_millis(20);
        let rx = nap_on_executor(wait, &Mailbox::queue());
        let (out, cpu) = rx.recv_timeout(Duration::from_secs(20)).expect("the nap ends");
        let (slept, woke, mail) = out.expect("a clean stop");
        assert!(!mail, "nothing was sent: the wait ran out");
        assert!(woke >= slept + wait, "idle came {:?} early", slept + wait - woke);
        if let Some(ns) = cpu {
            assert!(ns < 5_000_000, "a 20 ms wait cost {ns} ns on-CPU: the executor spun");
        }
    }

    /// Fails at its first move.
    struct Fails;

    fn toy_failure<T>() -> Result<T, NetError> {
        Err(NetError::Protocol("the toy failed".into()))
    }

    impl Actor for Fails {
        type Outcome = ();
        fn deliver(&mut self, _: Msg, _: Instant) -> Result<Flow, NetError> {
            toy_failure()
        }
        fn idle(&mut self, _: Instant) -> Result<Flow, NetError> {
            toy_failure()
        }
        fn before_block(&mut self, _: Instant) -> Result<Option<Duration>, NetError> {
            toy_failure()
        }
        fn finish(self) -> Result<(), NetError> {
            Ok(())
        }
    }

    #[test]
    fn the_first_actor_to_fail_ends_the_run() {
        let cannot_start = || Err(NetError::Protocol("the toy cannot start".into()));
        for (started, why) in [(Ok(Fails), "the toy failed"), (cannot_start(), "the toy cannot start")] {
            let (nap_inbox, toy_inbox) = (Mailbox::queue(), Mailbox::queue());
            let t0 = Instant::now();
            let mut clock = VirtualTime(t0);
            let nap = Nap { wait: Duration::from_secs(30), slept: None, woke: None };
            let mut nap = Slot::new(Ok(nap), &nap_inbox);
            let mut toy = Slot::new(started, &toy_inbox);
            let ran = step_all(&mut [&mut nap, &mut toy], &mut clock, round_robin(), |_| {});
            match ran {
                Err(NetError::Protocol(e)) => assert_eq!(e, why),
                other => panic!("the run must end with the toy's error, got {other:?}"),
            }
            assert_eq!(clock.0, t0, "nobody waited out the sleeper's 30 s");
            assert_eq!(nap.ended(), None, "the sleeper is left asleep");
        }
    }

    #[test]
    fn an_in_process_wait_for_mail_is_refused_not_slept() {
        // Every actor on the executor sleeps until mail, and no link can
        // bring any: the clock refuses at once instead of sleeping forever.
        let rx = nap_on_executor(Duration::MAX, &Mailbox::queue());
        let (out, _) = rx.recv_timeout(Duration::from_secs(20)).expect("the refusal returns");
        match out {
            Err(NetError::Protocol(why)) => assert!(why.contains("no link"), "{why}"),
            other => panic!("a wait no mail can end must be refused, got {other:?}"),
        }
    }
}
