//! One loop for every actor. A control shard, a data node and a client are
//! each a state machine behind [`Actor`], and `run` alone touches an actor's
//! inbox and reads the clock for it: every step is handed the latest instant
//! the loop read, so a test can drive the unmodified machines by hand.

use std::time::{Duration, Instant};

use wtpg_rt::queue::PopResult;

use crate::error::NetError;
use crate::msg::Msg;
use crate::transport::Inbox;

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

/// Runs `actor` on `inbox`: drain without blocking, `before_block`, one
/// blocking pop. The clock is read at the start and once per pop.
pub(crate) fn run<A: Actor>(mut actor: A, inbox: &Inbox) -> Result<A::Outcome, NetError> {
    let mut now = Instant::now();
    loop {
        let popped = match inbox.try_pop() {
            PopResult::Empty => match actor.before_block(now)? {
                Some(wait) => inbox.pop_timeout(wait),
                None => return actor.finish(),
            },
            ready => ready,
        };
        now = Instant::now();
        let flow = match popped {
            PopResult::Item(m) => actor.deliver(m, now)?,
            PopResult::Empty => actor.idle(now)?,
            PopResult::Closed => Flow::Stop,
        };
        if flow == Flow::Stop {
            return actor.finish();
        }
    }
}
