//! Loopback-TCP transport: one socket per node, framed by the codec.
//!
//! The control node binds an ephemeral listener on `127.0.0.1`; every data
//! node and client opens one connection to it and announces itself with a
//! 5-byte preamble `[role: u8][id: u32 LE]` (`0` = client, `1` = data
//! node). Each connection carries [`codec`](crate::codec) frames both
//! ways.
//!
//! **Sends never block.** One thread steps every actor of a run
//! (`actor.rs`), and it cannot drain a socket it is blocked writing into, so
//! every socket is `O_NONBLOCK`. Each end's writer half is a [`MsgTx`]
//! behind a mutex that also guards its outgoing bytes: a message is encoded
//! behind whatever the kernel has not taken yet, one `write` hands over what
//! the kernel takes, and the rest is *held*, a cursor marking how far the
//! kernel got. Held bytes go out with the next send, with the next wait on
//! any link of the fabric, or when the writer drops, before its FIN. No
//! timer is needed: a send holds bytes only while its link's kernel buffers
//! are full, so the far end is readable and whoever waits on it (the
//! executor, or a blocking [`Mailbox::pop`]) does not sleep; it reads,
//! which makes room, and its next wait starts by pushing out what the
//! fabric's writers hold.
//!
//! **Receiving.** Every socket is read by exactly one [`FrameReader`] — a
//! buffer the kernel fills with as many frames as it holds per `read`,
//! decoded in place. Every inbox is one kind, a [`Mailbox::FanIn`]: the read
//! halves of the actor's links — one for a data node or a client, one per
//! accepted connection for the control node — whose frames pop round-robin
//! across the links, so a chatty one cannot starve the rest. The
//! executor's clock ([`Sockets`]) reads them: one [`ppoll(2)`](crate::poll)
//! over every open link of every fan-in it steps, then one `read` per
//! readable link, one mailbox lock at a time. A blocking [`Mailbox::pop`],
//! outside any executor, waits in one `ppoll` over its own links and a pipe
//! [`Mailbox::close`] writes to. A link that
//! reaches EOF, announces an oversized frame or fails to decode is closed
//! *alone* and leaves the poll set; the mailbox is `Closed` once every link
//! is down, or once `close` was called and what had been read is drained.
//!
//! **Teardown.** A socket's read half never learns that the local writer
//! was dropped — the mailbox holds its own clone of the descriptor — so a
//! dropped writer sends a socket-level FIN instead. Dropping the
//! control-side writers EOFs the peer mailboxes; dropping the peer-side
//! writers EOFs the control node's. There is no transport thread to join:
//! [`Fabric::service`] is empty.
//!
//! All sockets run with `TCP_NODELAY`: the protocol is request/response
//! with small frames, exactly the shape Nagle's algorithm penalises.

use std::io::{ErrorKind, PipeReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Duration;

use wtpg_obs::ByteCounts;
use wtpg_rt::queue::PopResult;

use crate::codec::{decode_payload, encode_frame_into, MAX_FRAME};
use crate::error::NetError;
use crate::msg::Msg;
use crate::poll::PollSet;
use crate::transport::{Fabric, Inbox, Mailbox, MsgTx, Transport};

/// Preamble role byte for a client connection.
const ROLE_CLIENT: u8 = 0;
/// Preamble role byte for a data-node connection.
const ROLE_DATA: u8 = 1;

/// What every socket of a fabric shares: run-wide wire-traffic counters,
/// and the fabric's writers.
#[derive(Default)]
struct Counters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    /// Some writer may hold bytes: raised by a writer left holding, taken by
    /// the flush that then visits every writer. A wait that misses a raise
    /// has a readable link, so it does not sleep.
    held: AtomicBool,
    /// Every writer of the fabric, once it is built.
    writers: OnceLock<Vec<Weak<TcpTx>>>,
}

impl Counters {
    /// Pushes out what any writer holds: every wait does, before it polls.
    fn flush(&self) {
        if !self.held.load(Ordering::Acquire) || !self.held.swap(false, Ordering::AcqRel) {
            return;
        }
        for tx in self.writers.get().into_iter().flatten().filter_map(Weak::upgrade) {
            tx.flush();
        }
    }

    fn snapshot(&self) -> ByteCounts {
        ByteCounts {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
        }
    }
}

/// A socket's writer half and the bytes the kernel has not taken yet.
struct Wire {
    stream: TcpStream,
    /// Encoded frames; `out[sent..]` are the held bytes.
    out: Vec<u8>,
    sent: usize,
}

/// A sender handle writing frames to one socket; it never blocks (module
/// docs, "Sends never block").
struct TcpTx {
    wire: Mutex<Wire>,
    counters: Arc<Counters>,
}

impl TcpTx {
    /// A writer on `stream`, which it makes non-blocking — and with it every
    /// clone of the socket, the reader's included.
    fn over(stream: TcpStream, counters: &Arc<Counters>) -> std::io::Result<Arc<TcpTx>> {
        stream.set_nonblocking(true)?;
        Ok(Arc::new(TcpTx {
            wire: Mutex::new(Wire {
                stream,
                out: Vec::new(),
                sent: 0,
            }),
            counters: Arc::clone(counters),
        }))
    }

    #[expect(
        clippy::expect_used,
        reason = "invariant: socket lock is never poisoned (no panics while held)"
    )]
    fn wire(&self) -> MutexGuard<'_, Wire> {
        self.wire
            .lock()
            .expect("invariant: socket lock is never poisoned (no panics while held)")
    }

    /// Hands the kernel what it takes of `w`'s held bytes, raising the
    /// fabric's `held` flag if some are left; `false` once the socket failed.
    fn push_held(&self, w: &mut Wire) -> bool {
        while let Some(rest) = w.out.get(w.sent..).filter(|r| !r.is_empty()) {
            match w.stream.write(rest) {
                Ok(0) => return false,
                Ok(n) => w.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if w.sent == w.out.len() {
            w.out.clear();
            w.sent = 0;
        } else {
            self.counters.held.store(true, Ordering::Release);
            if w.sent >= w.out.len() / 2 {
                // Most of the buffer is bytes the kernel took: drop them, so
                // a long hold costs a copy now and then, not unbounded room.
                w.out.drain(..w.sent);
                w.sent = 0;
            }
        }
        true
    }

    /// Pushes out what this writer holds. A failure shows at the next send.
    fn flush(&self) {
        self.push_held(&mut self.wire());
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        // What the kernel takes of the held bytes goes first — a dropping
        // writer cannot wait for the rest — then the FIN: this socket's
        // reader holds its own clone of the descriptor, so merely dropping
        // the writer would never EOF the peer (module docs, "Teardown").
        if let Ok(mut w) = self.wire.lock() {
            self.push_held(&mut w);
            let _ = w.stream.shutdown(Shutdown::Write);
        }
    }
}

impl MsgTx for TcpTx {
    fn send(&self, m: &Msg) -> bool {
        let mut w = self.wire();
        let before = w.out.len();
        encode_frame_into(&mut w.out, m);
        let len = (w.out.len() - before) as u64;
        if !self.push_held(&mut w) {
            return false;
        }
        self.counters.bytes_sent.fetch_add(len, Ordering::Relaxed);
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// The reader's buffer before any frame has asked for more.
const READ_BUF: usize = 8 * 1024;

/// The one place frames are read: a buffer filled by a single `read` per
/// wake-up — however many frames that returns — and decoded in place.
///
/// The stream is down for good (`Closed`) on EOF, on an I/O error, on a
/// header announcing more than [`MAX_FRAME`], or on a payload that does not
/// decode: a malformed frame means the stream is desynchronized and there
/// is no resync point, so the link is dropped (the peer's watchdog or the
/// control retry layer surfaces the failure).
pub(crate) struct FrameReader<R> {
    src: R,
    /// `buf[start..end]` holds bytes read and not yet consumed. Grows to
    /// the frame in hand; a consumed frame is gone by the next `fill`, and
    /// so is the room it grew once a `fill` finds nothing unconsumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    closed: bool,
    counters: Arc<Counters>,
}

impl<R: Read> FrameReader<R> {
    fn new(src: R, counters: Arc<Counters>) -> FrameReader<R> {
        FrameReader {
            src,
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
            closed: false,
            counters,
        }
    }

    /// Payload length announced by the header at the front of the unread
    /// bytes, once all four of its bytes are in.
    fn announced(&self) -> Option<usize> {
        let unread = self.buf.get(self.start..self.end)?;
        let header: [u8; 4] = unread.get(..4)?.try_into().ok()?;
        Some(u32::from_le_bytes(header) as usize)
    }

    /// Whether [`buffered`](Self::buffered) has something to say without
    /// another read: a whole frame, or a header it refuses.
    fn has_frame(&self) -> bool {
        !self.closed
            && self
                .announced()
                .is_some_and(|len| len > MAX_FRAME || self.end - self.start >= 4 + len)
    }

    /// Decodes the next frame if it is already in the buffer: `Empty` means
    /// the bytes read so far end before it does.
    fn buffered(&mut self) -> PopResult<Msg> {
        if self.closed {
            return PopResult::Closed;
        }
        let Some(len) = self.announced() else {
            return PopResult::Empty;
        };
        if len > MAX_FRAME {
            self.closed = true;
            return PopResult::Closed;
        }
        let payload_at = self.start + 4;
        let Some(payload) = self
            .buf
            .get(payload_at..self.end)
            .and_then(|unread| unread.get(..len))
        else {
            return PopResult::Empty;
        };
        let decoded = decode_payload(payload);
        self.start = payload_at + len;
        self.counters
            .bytes_received
            .fetch_add(4 + len as u64, Ordering::Relaxed);
        match decoded {
            Ok(m) => {
                self.counters.frames_received.fetch_add(1, Ordering::Relaxed);
                PopResult::Item(m)
            }
            Err(_) => {
                self.closed = true;
                PopResult::Closed
            }
        }
    }

    /// One `read` into the free tail of the buffer, which is first cut back
    /// to [`READ_BUF`] if a large frame left it empty and grown to the frame
    /// in hand. The unconsumed bytes move to the front only when the tail
    /// behind them is short — under half of [`READ_BUF`], or less than the
    /// frame in hand still lacks — so a reader filled in bursts does not
    /// copy its leftovers on every call. A buffer full of frames nobody has
    /// popped has no tail: it reads nothing and says `WouldBlock`.
    fn fill(&mut self) -> std::io::Result<usize> {
        let unread = self.end - self.start;
        let frame = match self.announced() {
            // `buffered` closes the link on such a header; a caller that
            // skipped it must not make this reserve the announced size.
            Some(len) if len > MAX_FRAME => return Err(ErrorKind::InvalidData.into()),
            Some(len) => 4 + len,
            None => 0,
        };
        let tail = self.buf.len() - self.end;
        if unread == 0 {
            (self.start, self.end) = (0, 0);
        } else if self.start > 0 && tail < frame.saturating_sub(unread).max(READ_BUF / 2) {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, unread);
        }
        if self.end == 0 && self.buf.len() > READ_BUF {
            // The frame the buffer grew for is gone and nothing trails it:
            // give the room back, or one large `Batch` makes every later
            // 30-byte frame on this link carry it for the rest of the run.
            self.buf.truncate(READ_BUF);
            self.buf.shrink_to(READ_BUF);
        }
        if self.buf.len() < self.start + frame {
            self.buf.resize(self.start + frame, 0);
        }
        let free = self.buf.get_mut(self.end..).ok_or(ErrorKind::InvalidData)?;
        if free.is_empty() {
            // A `read` into no room returns 0, which is what EOF returns.
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = self.src.read(free)?;
        self.end += n;
        Ok(n)
    }

    /// One [`fill`](Self::fill), its outcome folded into the reader's state:
    /// EOF and I/O errors close the link; `WouldBlock` is "nothing yet".
    fn refill(&mut self) {
        match self.fill() {
            Ok(n) => self.closed |= n == 0,
            Err(e) => {
                self.closed |= !matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock);
            }
        }
    }
}

/// A TCP actor's inbox: the read halves of its links (module docs,
/// "Receiving"). What a [`Mailbox::FanIn`] locks.
pub struct FanInRx {
    /// One reader per link, in accept order; a link that went down keeps its
    /// slot (and its `closed` flag) and is skipped by the poll.
    links: Vec<FrameReader<TcpStream>>,
    /// The links' fabric.
    counters: Arc<Counters>,
    /// Where the next [`try_pop`](Self::try_pop) starts looking: one past
    /// the link that delivered last.
    cursor: usize,
    /// Readable once [`Mailbox::close`] wrote to the other end.
    wake: PipeReader,
    /// `close` was called, or `ppoll` itself failed: `Closed` once drained.
    pub(crate) closed: bool,
    polled: PollSet,
}

impl FanInRx {
    /// The next frame some link has already read, one link after another.
    pub(crate) fn try_pop(&mut self) -> PopResult<Msg> {
        let n = self.links.len();
        for k in (self.cursor..n).chain(0..self.cursor) {
            if let Some(PopResult::Item(m)) = self.links.get_mut(k).map(FrameReader::buffered) {
                self.cursor = (k + 1) % n;
                return PopResult::Item(m);
            }
        }
        if self.is_closed() {
            PopResult::Closed
        } else {
            PopResult::Empty
        }
    }

    fn is_closed(&self) -> bool {
        self.closed || self.links.iter().all(|l| l.closed)
    }

    /// Whether [`try_pop`](Self::try_pop) would return at once, answered
    /// from what has been read: a whole frame is in, or the mailbox closed.
    pub(crate) fn can_pop(&self) -> bool {
        self.is_closed() || self.links.iter().any(FrameReader::has_frame)
    }

    /// One `read` on link `k`, which a poll found readable; whether the
    /// link is still open.
    pub(crate) fn refill(&mut self, k: usize) -> bool {
        self.links.get_mut(k).is_some_and(|l| {
            l.refill();
            !l.closed
        })
    }

    /// Pushes out what the fabric's writers hold, then one `ppoll` over the
    /// open links and the close pipe, then one `read` on each readable link.
    /// Call only after `try_pop` came back `Empty`: that scan is what vets
    /// the headers `fill` trusts.
    fn wait(&mut self) {
        self.counters.flush();
        let fds = self
            .links
            .iter()
            .map(|l| (!l.closed).then(|| l.src.as_fd()))
            .chain([Some(self.wake.as_fd())]);
        if self.polled.wait(fds, None).is_err() {
            self.closed = true;
            return;
        }
        for (k, link) in self.links.iter_mut().enumerate() {
            if self.polled.readable(k) {
                link.refill();
            }
        }
        self.closed |= self.polled.readable(self.links.len());
    }

    pub(crate) fn pop(&mut self) -> Option<Msg> {
        loop {
            match self.try_pop() {
                PopResult::Item(m) => return Some(m),
                PopResult::Closed => return None,
                PopResult::Empty => self.wait(),
            }
        }
    }
}

/// A fan-in mailbox reading `streams` (clones; the writers keep their own).
fn fan_in_mailbox(streams: Vec<TcpStream>, counters: &Arc<Counters>) -> Result<Inbox, NetError> {
    let links = streams
        .into_iter()
        .map(|s| FrameReader::new(s, Arc::clone(counters)))
        .collect();
    let (wake, waker) = std::io::pipe()?;
    Ok(Arc::new(Mailbox::FanIn {
        rx: Mutex::new(FanInRx {
            links,
            counters: Arc::clone(counters),
            cursor: 0,
            wake,
            closed: false,
            polled: PollSet::default(),
        }),
        waker,
    }))
}

/// Every open link of the fan-ins one executor steps, waited on together:
/// the clock's one wait (module docs, "Receiving").
pub(crate) struct Sockets {
    /// Per open link: a descriptor of its own (a `try_clone`, so the poll
    /// takes no mailbox lock), its fan-in, and its index there.
    links: Vec<(TcpStream, Inbox, usize)>,
    /// The links' fabrics, whose writers a wait pushes out first.
    fabrics: Vec<Arc<Counters>>,
    polled: PollSet,
}

impl Sockets {
    /// The links of every fan-in among `inboxes` (a queue has none).
    pub(crate) fn of<'i>(inboxes: impl IntoIterator<Item = &'i Inbox>) -> std::io::Result<Sockets> {
        let (mut links, mut fabrics) = (Vec::new(), Vec::<Arc<Counters>>::new());
        for inbox in inboxes {
            let fds = inbox.with_links(|rx| {
                if !fabrics.iter().any(|c| Arc::ptr_eq(c, &rx.counters)) {
                    fabrics.push(Arc::clone(&rx.counters));
                }
                let open = rx.links.iter().enumerate().filter(|(_, l)| !l.closed);
                open.map(|(at, l)| Ok((l.src.try_clone()?, Arc::clone(inbox), at)))
                    .collect::<std::io::Result<Vec<_>>>()
            });
            links.extend(fds.transpose()?.into_iter().flatten());
        }
        Ok(Sockets {
            links,
            fabrics,
            polled: PollSet::default(),
        })
    }

    /// Whether no link is open: no wait can end on mail.
    pub(crate) fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Pushes out what the fabrics' writers hold; then one `ppoll` over
    /// every open link for at most `timeout` (`None`: until something is
    /// readable); then one `read` on each readable link, one mailbox lock at
    /// a time. A link that went down leaves the set. With no link, a zero
    /// wait makes no syscall.
    ///
    /// # Errors
    /// What `ppoll` fails with.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.fabrics.iter().for_each(|c| c.flush());
        if self.links.is_empty() && timeout == Some(Duration::ZERO) {
            return Ok(());
        }
        let fds = self.links.iter().map(|(fd, ..)| Some(fd.as_fd()));
        self.polled.wait(fds, timeout)?;
        let (polled, mut k) = (&self.polled, 0);
        self.links.retain(|(_, inbox, at)| {
            let open = !polled.readable(k) || inbox.with_links(|rx| rx.refill(*at)) == Some(true);
            k += 1;
            open
        });
        Ok(())
    }
}

/// Opens one connection to `addr` and announces it as `(role, id)`.
fn connect(addr: SocketAddr, role: u8, id: usize) -> Result<TcpStream, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let [b0, b1, b2, b3] = (id as u32).to_le_bytes();
    stream.write_all(&[role, b0, b1, b2, b3])?;
    Ok(stream)
}

/// Accepts `data_nodes + clients` connections and returns them in the
/// order their preambles announce: data nodes by id, then clients by id.
fn accept_peers(
    listener: &TcpListener,
    data_nodes: usize,
    clients: usize,
) -> Result<Vec<TcpStream>, NetError> {
    let mut accepted: Vec<Option<TcpStream>> = (0..data_nodes + clients).map(|_| None).collect();
    for _ in 0..(data_nodes + clients) {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut preamble = [0u8; 5];
        stream.read_exact(&mut preamble)?;
        let [role, b0, b1, b2, b3] = preamble;
        let id = u32::from_le_bytes([b0, b1, b2, b3]) as usize;
        let (first, count) = match role {
            ROLE_DATA => (0, data_nodes),
            ROLE_CLIENT => (data_nodes, clients),
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown preamble role byte {other}"
                )))
            }
        };
        match accepted.get_mut(first + id).filter(|_| id < count) {
            Some(s @ None) => *s = Some(stream),
            Some(Some(_)) => {
                return Err(NetError::Protocol(format!(
                    "duplicate preamble for role {role} id {id}"
                )))
            }
            None => {
                return Err(NetError::Protocol(format!(
                    "preamble id {id} out of range for role {role}"
                )))
            }
        }
    }
    accepted
        .into_iter()
        .map(|o| o.ok_or_else(|| NetError::Protocol("missing peer connection".into())))
        .collect()
}

/// The loopback-TCP transport.
pub struct Tcp;

impl Transport for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn build(&self, data_nodes: usize, clients: usize) -> Result<Fabric, NetError> {
        let counters = Arc::new(Counters::default());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Open every peer connection, data nodes first. Connects complete
        // against the listen backlog, so it is safe to connect them all
        // before accepting any.
        let peers = (0..data_nodes)
            .map(|n| connect(addr, ROLE_DATA, n))
            .chain((0..clients).map(|c| connect(addr, ROLE_CLIENT, c)))
            .collect::<Result<Vec<_>, _>>()?;
        let accepted = accept_peers(&listener, data_nodes, clients)?;

        // Each end writes through a clone of its socket and reads the
        // original.
        let (mut to_peers, mut from_peers) = (Vec::new(), Vec::new());
        let (mut peer_inboxes, mut control_rx) = (Vec::new(), Vec::new());
        for (peer, control) in peers.into_iter().zip(accepted) {
            from_peers.push(TcpTx::over(peer.try_clone()?, &counters)?);
            to_peers.push(TcpTx::over(control.try_clone()?, &counters)?);
            peer_inboxes.push(fan_in_mailbox(vec![peer], &counters)?);
            control_rx.push(control);
        }
        let control_inbox = fan_in_mailbox(control_rx, &counters)?;
        let writers = to_peers.iter().chain(&from_peers).map(Arc::downgrade).collect();
        let _ = counters.writers.set(writers);

        let senders = |txs: Vec<Arc<TcpTx>>| -> Vec<Arc<dyn MsgTx>> {
            txs.into_iter().map(|tx| tx as Arc<dyn MsgTx>).collect()
        };
        let (mut to_data, mut data_to_control) = (senders(to_peers), senders(from_peers));
        let to_clients = to_data.split_off(data_nodes);
        let client_to_control = data_to_control.split_off(data_nodes);
        let client_inboxes = peer_inboxes.split_off(data_nodes);
        let bytes_counters = Arc::clone(&counters);
        Ok(Fabric {
            to_data,
            to_clients,
            data_to_control,
            client_to_control,
            control_inbox,
            data_inboxes: peer_inboxes,
            client_inboxes,
            service: Vec::new(),
            bytes: Arc::new(move || bytes_counters.snapshot()),
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]
mod tests {
    use super::*;
    use crate::actor::{Clock, RealTime};
    use crate::codec::encode_frame;
    use proptest::prelude::*;
    use std::time::Instant;
    use wtpg_core::partition::PartitionId;
    use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
    use wtpg_core::work::Work;

    const LONG: Duration = Duration::from_secs(5);

    /// Pops as the executor does — a frame already read, else one wait of a
    /// run's clock — until `within` has passed.
    fn pop_within(clock: &mut RealTime, inbox: &Inbox, within: Duration) -> PopResult<Msg> {
        let deadline = Instant::now() + within;
        loop {
            match inbox.try_pop() {
                PopResult::Empty if Instant::now() < deadline => {
                    clock.wait_until(Some(deadline)).expect("the poll works");
                }
                done => return done,
            }
        }
    }

    fn clock_over(inboxes: &[&Inbox]) -> RealTime {
        RealTime::over(inboxes.iter().copied()).expect("descriptors")
    }

    #[test]
    fn frames_cross_the_loopback_fabric() {
        let f = Tcp.build(2, 1).expect("loopback fabric");
        let mut clock = clock_over(&[&f.control_inbox, &f.data_inboxes[0], &f.client_inboxes[0]]);
        let m = Msg::AccessDone {
            txn: TxnId(3),
            step: 1,
            checksum: 99,
            units: 1000,
        };
        // data node 1 → control
        assert!(f.data_to_control[1].send(&m));
        assert_eq!(pop_within(&mut clock, &f.control_inbox, LONG), PopResult::Item(m.clone()));
        // control → data node 0
        assert!(f.to_data[0].send(&Msg::Shutdown));
        assert_eq!(
            pop_within(&mut clock, &f.data_inboxes[0], LONG),
            PopResult::Item(Msg::Shutdown)
        );
        // control → client 0, client 0 → control
        let ack = Msg::Commit { client: 0, txn: TxnId(8) };
        assert!(f.to_clients[0].send(&ack));
        let to_client = pop_within(&mut clock, &f.client_inboxes[0], LONG);
        assert_eq!(to_client, PopResult::Item(ack.clone()));
        assert!(f.client_to_control[0].send(&ack));
        assert_eq!(pop_within(&mut clock, &f.control_inbox, LONG), PopResult::Item(ack));
        let bytes = (f.bytes)();
        assert_eq!(bytes.frames_sent, 4);
        assert_eq!(bytes.frames_received, 4);
        assert!(bytes.bytes_sent >= 4 * 5, "each frame has ≥ 5 bytes");
        assert_eq!(bytes.bytes_sent, bytes.bytes_received);

        // Teardown: dropping the writers EOFs every reader.
        let Fabric {
            to_data,
            to_clients,
            data_to_control,
            client_to_control,
            data_inboxes,
            service,
            control_inbox,
            ..
        } = f;
        drop(to_data);
        drop(to_clients);
        drop(data_to_control);
        drop(client_to_control);
        assert!(service.is_empty(), "there is no transport thread to join");
        assert_eq!(data_inboxes[0].pop(), None, "EOF closed the data mailbox");
        assert_eq!(control_inbox.pop(), None, "and every link of the fan-in");
    }

    /// A connection that announces an unknown role fails the build, and the
    /// connections accepted before it leave nothing behind but sockets that
    /// close with the error.
    #[test]
    fn a_bad_preamble_fails_the_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let addr = listener.local_addr().expect("bound address");
        let _good = connect(addr, ROLE_DATA, 0).expect("connect");
        let _bad = connect(addr, 9, 0).expect("connect");
        let Err(err) = accept_peers(&listener, 1, 1) else {
            panic!("an unknown role byte must fail the accept");
        };
        assert!(
            matches!(err, NetError::Protocol(ref m) if m.contains("role byte 9")),
            "{err:?}"
        );
        let _dup = connect(addr, ROLE_DATA, 0).expect("connect");
        let _dup2 = connect(addr, ROLE_DATA, 0).expect("connect");
        let Err(err) = accept_peers(&listener, 1, 1) else {
            panic!("two connections for one slot must fail the accept");
        };
        assert!(
            matches!(err, NetError::Protocol(ref m) if m.contains("duplicate preamble")),
            "{err:?}"
        );
        let _far = connect(addr, ROLE_CLIENT, 1).expect("connect");
        let Err(err) = accept_peers(&listener, 1, 1) else {
            panic!("a client id past the client count must fail the accept");
        };
        assert!(
            matches!(err, NetError::Protocol(ref m) if m.contains("out of range")),
            "{err:?}"
        );
    }

    /// The census: no thread anywhere in the fabric. The control inbox is the
    /// accepted sockets themselves; every peer reads its own, a fan-in of one.
    #[test]
    fn a_tcp_fabric_has_no_service_threads() {
        let f = Tcp.build(8, 2).expect("loopback fabric");
        assert!(f.service.is_empty());
        let links = |inbox: &Inbox| {
            let Mailbox::FanIn { rx, .. } = &**inbox else {
                panic!("every TCP inbox is a fan-in");
            };
            rx.lock().expect("mailbox lock").links.len()
        };
        assert_eq!(links(&f.control_inbox), 10);
        for inbox in f.data_inboxes.iter().chain(&f.client_inboxes) {
            assert_eq!(links(inbox), 1, "a peer reads its one link");
            assert!(!inbox.push(Msg::Shutdown), "fed by its link alone");
        }
        assert!(!f.control_inbox.push(Msg::Shutdown), "fed by its links alone");
    }

    /// A fan-in over `n` raw loopback connections, with the peer ends to
    /// write arbitrary bytes into.
    fn fan_in(n: usize) -> (Inbox, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let addr = listener.local_addr().expect("bound address");
        let (mut peers, mut accepted) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let peer = TcpStream::connect(addr).expect("connect");
            peer.set_nodelay(true).expect("nodelay");
            peers.push(peer);
            accepted.push(listener.accept().expect("accept").0);
        }
        let counters = Arc::new(Counters::default());
        let inbox = fan_in_mailbox(accepted, &counters).expect("pipe");
        (inbox, peers)
    }

    #[test]
    fn frames_from_several_links_arrive_in_each_links_order() {
        let (inbox, mut peers) = fan_in(3);
        let mut clock = clock_over(&[&inbox]);
        for round in 0..40u64 {
            for (l, peer) in peers.iter_mut().enumerate() {
                peer.write_all(&encode_frame(&delta(1000 * l as u64 + round)))
                    .expect("write");
            }
        }
        let mut next = [0u64; 3];
        for _ in 0..120 {
            let popped = pop_within(&mut clock, &inbox, LONG);
            let PopResult::Item(Msg::StatsDelta { chunk, .. }) = popped else {
                panic!("120 frames were written");
            };
            let l = (chunk / 1000) as usize;
            assert_eq!(chunk % 1000, next[l], "link {l} out of order");
            next[l] += 1;
        }
        assert_eq!(next, [40; 3]);
        assert_eq!(inbox.try_pop(), PopResult::Empty);
    }

    #[test]
    fn a_frame_torn_across_writes_is_delivered_once_and_whole() {
        let (inbox, mut peers) = fan_in(2);
        let mut clock = clock_over(&[&inbox]);
        let frame = encode_frame(&delta(7));
        let tears = [&frame[..4], &frame[4..9], &frame[9..]];
        let short = Duration::from_millis(5);
        for (i, tear) in tears.iter().enumerate() {
            peers[1].write_all(tear).expect("write");
            if i + 1 < tears.len() {
                let t0 = Instant::now();
                let popped = pop_within(&mut clock, &inbox, short);
                assert_eq!(popped, PopResult::Empty, "after tear {i}");
                // The partial frame woke the poll; the waits went on for
                // what was left of the deadline and no longer.
                assert!(t0.elapsed() >= short && t0.elapsed() < LONG);
            }
        }
        assert_eq!(pop_within(&mut clock, &inbox, LONG), PopResult::Item(delta(7)));
        assert_eq!(inbox.try_pop(), PopResult::Empty, "delivered once");
        assert_eq!(pop_within(&mut clock, &inbox, short), PopResult::Empty);
    }

    /// The executor asks `can_pop` of every sleeping actor's inbox, so a
    /// fan-in must answer from what it has read: saying yes on idle links
    /// would spin the executor.
    #[test]
    fn a_fan_in_can_pop_only_once_a_whole_frame_is_read() {
        let (inbox, mut peers) = fan_in(2);
        let mut clock = clock_over(&[&inbox]);
        assert!(!inbox.can_pop(), "idle links");
        let frame = encode_frame(&delta(3));
        peers[0].write_all(&frame[..6]).expect("write");
        assert_eq!(pop_within(&mut clock, &inbox, Duration::from_millis(5)), PopResult::Empty);
        assert!(!inbox.can_pop(), "a torn frame is not a frame");
        peers[0].write_all(&frame[6..]).expect("write");
        while !inbox.can_pop() {
            clock.wait_until(Some(Instant::now() + LONG)).expect("the poll works");
        }
        assert_eq!(inbox.try_pop(), PopResult::Item(delta(3)));
        assert!(!inbox.can_pop(), "popped");
        inbox.close();
        assert!(inbox.can_pop(), "a closed mailbox pops at once");
        assert_eq!(inbox.try_pop(), PopResult::Closed);
    }

    /// Round-robin: once the quiet link's frame has been read, it is popped
    /// after at most one frame of the flooding link — and it is read by the
    /// first poll that follows its arrival, so the flood can only be ahead
    /// by what one `fill` of its buffer held.
    #[test]
    fn a_flooding_link_does_not_starve_a_quiet_one() {
        const FLOOD: u64 = 10_000;
        let (inbox, mut peers) = fan_in(2);
        let mut clock = clock_over(&[&inbox]);
        let quiet = peers.pop().expect("two peers");
        let mut loud = peers.pop().expect("two peers");
        let one = encode_frame(&delta(0)).len();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..FLOOD {
                    loud.write_all(&encode_frame(&delta(i))).expect("write");
                }
            });
            (&quiet).write_all(&encode_frame(&delta(FLOOD))).expect("write");
            let mut ahead = 0;
            for popped in 0..=FLOOD {
                let PopResult::Item(Msg::StatsDelta { chunk, .. }) =
                    pop_within(&mut clock, &inbox, LONG)
                else {
                    panic!("{popped} of {} frames arrived", FLOOD + 1);
                };
                if chunk == FLOOD {
                    ahead = popped;
                }
            }
            assert!(
                ahead <= READ_BUF.div_ceil(one) as u64 + 1,
                "{ahead} flood frames were popped before the quiet link's one"
            );
        });
    }

    #[test]
    fn a_link_that_goes_bad_is_closed_alone() {
        let (inbox, mut peers) = fan_in(4);
        let mut clock = clock_over(&[&inbox]);
        let eof = peers.remove(0);
        (&eof).write_all(&encode_frame(&delta(1))).expect("write");
        drop(eof);
        // An oversized announcement, then a frame that must not be trusted.
        peers[0]
            .write_all(&((MAX_FRAME + 1) as u32).to_le_bytes())
            .expect("write");
        peers[0].write_all(&encode_frame(&delta(66))).expect("write");
        // A well-framed payload that is not a message.
        peers[1].write_all(&5u32.to_le_bytes()).expect("write");
        peers[1].write_all(&[0xEE; 5]).expect("write");
        peers[1].write_all(&encode_frame(&delta(66))).expect("write");
        assert_eq!(pop_within(&mut clock, &inbox, LONG), PopResult::Item(delta(1)));
        // The healthy link keeps flowing however often the others are polled.
        for i in 10..20 {
            peers[2].write_all(&encode_frame(&delta(i))).expect("write");
            assert_eq!(pop_within(&mut clock, &inbox, LONG), PopResult::Item(delta(i)));
        }
        let short = Duration::from_millis(5);
        assert_eq!(pop_within(&mut clock, &inbox, short), PopResult::Empty);
        {
            let Mailbox::FanIn { rx, .. } = &*inbox else {
                panic!("a fan-in");
            };
            let rx = rx.lock().expect("mailbox lock");
            let down: Vec<bool> = rx.links.iter().map(|l| l.closed).collect();
            assert_eq!(down, [true, true, true, false]);
            assert!(!rx.closed);
        }
        // The last link hanging up is the mailbox closing.
        peers.truncate(2);
        assert_eq!(pop_within(&mut clock, &inbox, LONG), PopResult::Closed);
        assert_eq!(inbox.pop(), None);
        assert_eq!(inbox.try_pop(), PopResult::Closed);
    }

    /// On the control node's many links and on a peer's one alike.
    #[test]
    fn close_wakes_a_blocked_pop_and_drains_what_was_read() {
        let (fan, peers) = fan_in(2);
        let f = Tcp.build(1, 0).expect("loopback fabric");
        let raw = |m: &Msg| (&peers[0]).write_all(&encode_frame(m)).is_ok();
        let framed = |m: &Msg| f.to_data[0].send(m);
        let check = |inbox: &Inbox, send: &dyn Fn(&Msg) -> bool, what: &str| {
            assert!(send(&delta(1)) && send(&delta(2)));
            assert_eq!(inbox.pop(), Some(delta(1)));
            let (tx, rx) = std::sync::mpsc::channel();
            let popper = {
                let inbox = Arc::clone(inbox);
                std::thread::spawn(move || {
                    let first = inbox.pop();
                    tx.send((first, inbox.pop())).expect("the test is waiting");
                })
            };
            // Whether the popper is already in `ppoll` or not yet there, the
            // close must reach it: the pipe stays readable.
            inbox.close();
            let (first, second) = rx.recv_timeout(LONG).expect("close must wake the pop");
            popper.join().expect("popper");
            // Frames already read drain first; whether delta(2) had been read
            // when the close was seen is the kernel's business.
            assert!(first.is_none() || first == Some(delta(2)), "{what}: {first:?}");
            assert_eq!(second, None, "{what}");
            assert_eq!(inbox.try_pop(), PopResult::Closed, "{what}: closed for good");
        };
        check(&fan, &raw, "two links");
        check(&f.data_inboxes[0], &framed, "one link");
    }

    /// The executor's clock sleeps what it asks over sockets — not a
    /// millisecond, not a tick — on the control node's many links and on a
    /// peer's one alike, and a zero wait does not sleep at all.
    #[test]
    fn a_timed_wait_over_sockets_sleeps_what_it_asks_and_a_zero_one_not_at_all() {
        let (fan, _peers) = fan_in(3);
        let f = Tcp.build(1, 0).expect("loopback fabric");
        for (inbox, what) in [(&fan, "three links"), (&f.data_inboxes[0], "one link")] {
            let mut clock = clock_over(&[inbox]);
            let t0 = Instant::now();
            clock.wait_until(Some(t0 + Duration::from_millis(2))).expect("poll");
            assert!(t0.elapsed() >= Duration::from_millis(2), "{what}: {:?}", t0.elapsed());
            let t1 = Instant::now();
            clock.wait_until(Some(t1)).expect("poll");
            assert!(t1.elapsed() < Duration::from_millis(1), "{what}: {:?}", t1.elapsed());
            let ask = Duration::from_micros(100);
            let mut waits: Vec<Duration> = (0..20)
                .map(|_| {
                    let t = Instant::now();
                    clock.wait_until(Some(t + ask)).expect("poll");
                    t.elapsed()
                })
                .collect();
            waits.sort();
            let median = waits[waits.len() / 2];
            assert!(median >= ask, "{what}: median {median:?} of {waits:?}");
            assert!(median < Duration::from_micros(700), "{what}: median {median:?}");
            assert_eq!(inbox.try_pop(), PopResult::Empty);
        }
        // A blocking pop on the one link still sees the next frame.
        assert!(f.to_data[0].send(&Msg::Shutdown));
        assert_eq!(f.data_inboxes[0].pop(), Some(Msg::Shutdown));
    }

    /// Far more than the kernel buffers for a link nobody reads: every send
    /// returns `true` at once, the kernel's refusal is held, and the reader's
    /// waits push the held bytes out, every frame once and in order.
    #[test]
    fn a_send_into_a_link_nobody_reads_holds_what_the_kernel_refuses() {
        const FRAMES: u64 = 1_500;
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (writer, _) = listener.accept().expect("accept");
        let counters = Arc::new(Counters::default());
        let tx = TcpTx::over(writer, &counters).expect("non-blocking");
        let inbox = fan_in_mailbox(vec![peer], &counters).expect("pipe");
        let _ = counters.writers.set(vec![Arc::downgrade(&tx)]);
        let batch = |i: u64| Msg::Batch((0..120).map(|j| delta(i * 1000 + j)).collect());
        let sent = {
            let tx = Arc::clone(&tx);
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let ok = (0..FRAMES).all(|i| tx.send(&batch(i)));
                let _ = done.send(ok);
            });
            // A send that waited for the reader would never return.
            finished.recv_timeout(Duration::from_secs(60)).expect("the sends return")
        };
        assert!(sent, "every send returns true");
        let written = counters.bytes_sent.load(Ordering::Relaxed);
        assert!(written > 4 << 20, "{written} bytes: more than 4 MiB");
        let held = {
            let w = tx.wire();
            w.out.len() - w.sent
        };
        assert!(held > 0, "nobody read: the kernel refused some");
        assert!(counters.held.load(Ordering::Relaxed), "the flag is up");
        for i in 0..FRAMES {
            assert_eq!(inbox.pop(), Some(batch(i)), "frame {i}");
        }
        assert_eq!(tx.wire().out.len(), 0, "nothing is held");
        assert!(!counters.held.load(Ordering::Relaxed), "and down again");
        assert_eq!(counters.bytes_received.load(Ordering::Relaxed), written);
        drop(tx);
        assert_eq!(inbox.pop(), None, "the FIN follows the last frame");
    }

    impl<R: Read> FrameReader<R> {
        /// The next frame, reading as often as it takes.
        fn next(&mut self) -> PopResult<Msg> {
            loop {
                match self.buffered() {
                    PopResult::Empty => self.refill(),
                    done => return done,
                }
            }
        }
    }

    /// A `Read` that hands out `data` in pieces of the caller's choosing
    /// (cycled), then EOF.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        cuts: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let cut = self.cuts[self.reads % self.cuts.len()].max(1);
            self.reads += 1;
            let n = cut.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn reader(data: Vec<u8>, cuts: Vec<usize>) -> FrameReader<Chunked> {
        let src = Chunked {
            data,
            pos: 0,
            cuts,
            reads: 0,
        };
        FrameReader::new(src, Arc::new(Counters::default()))
    }

    fn delta(i: u64) -> Msg {
        Msg::StatsDelta {
            txn: TxnId(i),
            step: 1,
            chunk: i,
            units: 1000,
        }
    }

    /// Strategy: a message of every size class — a few bytes, a batch, and
    /// a `Submit` whose spec outgrows the reader's initial buffer.
    fn arb_msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            Just(Msg::Shutdown),
            (0u64..1_000_000).prop_map(delta),
            (0u32..16, 0u64..1_000_000).prop_map(|(client, t)| Msg::Commit {
                client,
                txn: TxnId(t)
            }),
            (0u64..1_000, 1usize..40)
                .prop_map(|(t, n)| Msg::Batch((0..n as u64).map(|i| delta(t + i)).collect())),
            (0u64..1_000, 1usize..700).prop_map(|(t, steps)| {
                let step = |p: usize| StepSpec {
                    partition: PartitionId(p as u32 % 64),
                    mode: AccessMode::Write,
                    cost: Work::from_units(1000),
                    actual_cost: Work::from_units(1000),
                };
                Msg::Submit {
                    client: 0,
                    txn: TxnId(t),
                    step: None,
                    spec: Some(TxnSpec::new(TxnId(t), (0..steps).map(step).collect())),
                }
            }),
        ]
    }

    proptest! {
        /// However the byte stream is sliced — one byte at a time, a header
        /// split across reads, a frame straddling the buffer's end or larger
        /// than it, many frames in one read — the decoded sequence is the
        /// sent one, then `Closed`, and every byte is counted once.
        #[test]
        fn a_chunked_stream_decodes_to_what_was_sent(
            msgs in proptest::collection::vec(arb_msg(), 1..24),
            cuts in proptest::collection::vec(
                prop_oneof![Just(1usize), 1usize..8, 1usize..200, Just(usize::MAX)],
                1..6,
            ),
        ) {
            let wire: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
            let total = wire.len();
            let mut r = reader(wire, cuts);
            for m in &msgs {
                prop_assert_eq!(r.next(), PopResult::Item(m.clone()));
                // Nothing consumed is retained: what the buffer holds is at
                // most what the source has handed over and no frame has
                // claimed yet.
                let consumed = r.counters.bytes_received.load(Ordering::Relaxed) as usize;
                prop_assert_eq!(r.end - r.start, r.src.pos - consumed);
            }
            prop_assert_eq!(r.next(), PopResult::Closed);
            let c = r.counters.snapshot();
            prop_assert_eq!(c.frames_received, msgs.len() as u64);
            prop_assert_eq!(c.bytes_received, total as u64);
        }
    }

    #[test]
    fn many_frames_in_one_read_are_popped_without_another() {
        let wire: Vec<u8> = (0..50).flat_map(|i| encode_frame(&delta(i))).collect();
        let mut r = reader(wire, vec![usize::MAX]);
        assert_eq!(r.next(), PopResult::Item(delta(0)));
        for i in 1..50 {
            assert_eq!(r.buffered(), PopResult::Item(delta(i)));
        }
        assert_eq!(r.src.reads, 1, "one read fetched every frame");
        assert_eq!(r.buffered(), PopResult::Empty, "try_pop never reads");
        assert_eq!(r.src.reads, 1);
        assert_eq!(r.next(), PopResult::Closed);
    }

    /// A joint poll refills every readable link, also one whose buffer is
    /// full of frames its actor has not popped yet: that refill must read
    /// nothing, not read into an empty slice and take the 0 for EOF.
    #[test]
    fn a_refill_with_no_room_reads_nothing_and_keeps_the_link() {
        let frames = READ_BUF as u64;
        let wire: Vec<u8> = (0..frames).flat_map(|i| encode_frame(&delta(i))).collect();
        let mut r = reader(wire, vec![usize::MAX]);
        r.refill();
        assert_eq!((r.start, r.end, r.src.reads), (0, READ_BUF, 1), "read full");
        assert!(r.has_frame());
        r.refill();
        assert!(!r.closed, "no room is not an EOF");
        assert_eq!((r.end, r.src.reads), (READ_BUF, 1), "nothing was read");
        for i in 0..frames {
            assert_eq!(r.next(), PopResult::Item(delta(i)));
        }
        assert_eq!(r.next(), PopResult::Closed);
    }

    #[test]
    fn a_fill_moves_the_unread_tail_only_when_room_runs_short() {
        let one = encode_frame(&delta(0)).len();
        let frames = READ_BUF / one + 10;
        let wire: Vec<u8> = (0..frames as u64).flat_map(|i| encode_frame(&delta(i))).collect();
        // Two and a half frames per read: plenty of room behind the half.
        let cut = 2 * one + one / 2;
        let mut r = reader(wire.clone(), vec![cut]);
        assert_eq!(r.next(), PopResult::Item(delta(0)));
        assert_eq!(r.buffered(), PopResult::Item(delta(1)));
        assert_eq!(r.buffered(), PopResult::Empty);
        r.fill().expect("read");
        assert_eq!((r.start, r.end), (2 * one, 2 * cut), "appended in place");
        // A buffer read full: the half frame at its very end has to move.
        let mut r = reader(wire, vec![usize::MAX]);
        let whole = READ_BUF / one;
        for i in 0..whole as u64 {
            assert_eq!(r.next(), PopResult::Item(delta(i)));
        }
        assert_eq!((r.start, r.end), (whole * one, READ_BUF));
        assert_eq!(r.buffered(), PopResult::Empty);
        r.fill().expect("read");
        assert_eq!(r.start, 0, "moved to the front");
        assert_eq!(r.buffered(), PopResult::Item(delta(whole as u64)));
        assert_eq!(r.buf.len(), READ_BUF, "small frames never grow the buffer");
    }

    #[test]
    fn a_large_frame_does_not_keep_its_buffer_after_it_is_consumed() {
        let step = |p: u32| StepSpec {
            partition: PartitionId(p % 64),
            mode: AccessMode::Write,
            cost: Work::from_units(1000),
            actual_cost: Work::from_units(1000),
        };
        let big = Msg::Submit {
            client: 0,
            txn: TxnId(9),
            step: None,
            spec: Some(TxnSpec::new(TxnId(9), (0..4000).map(step).collect())),
        };
        let mut sent = vec![delta(0), big];
        sent.extend((1..40).map(delta));
        let wire: Vec<u8> = sent.iter().flat_map(encode_frame).collect();
        assert!(wire.len() > 4 * READ_BUF, "the large frame dwarfs the initial buffer");
        for cuts in [vec![usize::MAX], vec![1000], vec![1, 7, 300]] {
            let mut r = reader(wire.clone(), cuts.clone());
            let mut grown = 0;
            for m in &sent {
                assert_eq!(r.next(), PopResult::Item(m.clone()), "{cuts:?}");
                grown = grown.max(r.buf.capacity());
            }
            assert!(grown > 4 * READ_BUF, "{cuts:?}: the buffer grew to the frame in hand");
            assert_eq!(r.next(), PopResult::Closed, "{cuts:?}");
            assert_eq!(r.buf.len(), READ_BUF, "{cuts:?}");
            assert_eq!(r.buf.capacity(), READ_BUF, "{cuts:?}: the high-water buffer was kept");
        }
    }

    #[test]
    fn an_oversize_header_closes_the_link_without_allocating_the_frame() {
        let mut wire = encode_frame(&delta(1));
        wire.extend(((MAX_FRAME + 1) as u32).to_le_bytes());
        wire.extend([0u8; 64]);
        let mut r = reader(wire, vec![usize::MAX]);
        assert_eq!(r.next(), PopResult::Item(delta(1)));
        assert_eq!(r.next(), PopResult::Closed);
        assert_eq!(r.buf.len(), READ_BUF, "the announced megabyte was never reserved");
        assert_eq!(r.next(), PopResult::Closed, "closed is for good");
    }

    #[test]
    fn eof_mid_frame_closes_the_link() {
        let mut wire = encode_frame(&delta(1));
        let whole = encode_frame(&delta(2));
        wire.extend(&whole[..whole.len() - 3]);
        let mut r = reader(wire, vec![7]);
        assert_eq!(r.next(), PopResult::Item(delta(1)));
        assert_eq!(r.next(), PopResult::Closed);
        assert_eq!(r.counters.snapshot().frames_received, 1);
    }

    #[test]
    fn a_retired_tag_closes_the_link() {
        for tag in [1u8, 2, 3, 7] {
            let mut wire = encode_frame(&delta(1));
            let payload = [&[tag][..], &7u64.to_le_bytes()].concat();
            wire.extend((payload.len() as u32).to_le_bytes());
            wire.extend(&payload);
            wire.extend(encode_frame(&delta(2)));
            let mut r = reader(wire, vec![usize::MAX]);
            assert_eq!(r.next(), PopResult::Item(delta(1)));
            assert_eq!(r.next(), PopResult::Closed, "tag {tag} must not decode");
            assert_eq!(r.next(), PopResult::Closed, "nothing after it is trusted");
        }
    }
}
