//! Loopback-TCP transport: one socket per node, framed by the codec.
//!
//! The control node binds an ephemeral listener on `127.0.0.1`; every data
//! node and client opens one connection to it and announces itself with a
//! 5-byte preamble `[role: u8][id: u32 LE]` (`0` = client, `1` = data
//! node). Each connection carries [`codec`](crate::codec) frames both
//! ways: a writer half (shared behind a mutex so a message is one atomic
//! `write_all`) and a reader thread that decodes frames into the owning
//! actor's inbox. Readers exit on EOF — dropping the last sender handle of
//! a connection is how the fabric tears itself down — and the reader
//! feeding a single-producer inbox closes it, waking any blocked actor.
//!
//! All sockets run with `TCP_NODELAY`: the protocol is request/response
//! with small frames, exactly the shape Nagle's algorithm penalises.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use wtpg_obs::ByteCounts;
use wtpg_rt::queue::BoundedQueue;

use crate::codec::{decode_payload, encode_frame, MAX_FRAME};
use crate::error::NetError;
use crate::msg::Msg;
use crate::transport::{
    control_inbox_capacity, Fabric, Inbox, MsgTx, Transport, ACTOR_INBOX_CAPACITY,
};

/// Preamble role byte for a client connection.
const ROLE_CLIENT: u8 = 0;
/// Preamble role byte for a data-node connection.
const ROLE_DATA: u8 = 1;

/// Run-wide wire-traffic counters, shared by every socket of a fabric.
#[derive(Default)]
struct Counters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ByteCounts {
        ByteCounts {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
        }
    }
}

/// A sender handle writing frames to one socket.
struct TcpTx {
    stream: Mutex<TcpStream>,
    counters: Arc<Counters>,
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        // The reader thread keeps its own clone of this socket, so merely
        // dropping the writer would never EOF the peer. A socket-level
        // write shutdown sends the FIN that lets both sides' readers
        // unwind: peer reader EOFs → peer actor exits → peer writer drops
        // → its FIN EOFs our reader.
        if let Ok(s) = self.stream.lock() {
            let _ = s.shutdown(Shutdown::Write);
        }
    }
}

impl MsgTx for TcpTx {
    fn send(&self, m: &Msg) -> bool {
        let frame = encode_frame(m);
        let mut s = self
            .stream
            .lock()
            .expect("invariant: socket lock is never poisoned (no panics while held)");
        if s.write_all(&frame).is_err() {
            return false;
        }
        self.counters
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Reads frames off `stream` into `inbox` until EOF or a malformed frame.
/// Closes the inbox on exit when `close_on_eof` (single-producer inboxes).
fn read_frames(
    mut stream: TcpStream,
    inbox: Inbox,
    counters: Arc<Counters>,
    close_on_eof: bool,
) {
    let mut header = [0u8; 4];
    loop {
        if stream.read_exact(&mut header).is_err() {
            break;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME {
            break;
        }
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_err() {
            break;
        }
        counters
            .bytes_received
            .fetch_add(4 + len as u64, Ordering::Relaxed);
        let msg = match decode_payload(&payload) {
            Ok(m) => m,
            // A malformed frame means the stream is desynchronized; there
            // is no resync point, so drop the link (the peer's watchdog or
            // the control retry layer surfaces the failure).
            Err(_) => break,
        };
        counters.frames_received.fetch_add(1, Ordering::Relaxed);
        if !inbox.push(msg) {
            break;
        }
    }
    if close_on_eof {
        inbox.close();
    }
}

fn spawn_reader(
    stream: &TcpStream,
    inbox: &Inbox,
    counters: &Arc<Counters>,
    close_on_eof: bool,
) -> Result<JoinHandle<()>, NetError> {
    let stream = stream.try_clone()?;
    let inbox = Arc::clone(inbox);
    let counters = Arc::clone(counters);
    Ok(std::thread::spawn(move || {
        read_frames(stream, inbox, counters, close_on_eof)
    }))
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

        let control_inbox: Inbox = Arc::new(BoundedQueue::new(control_inbox_capacity(
            data_nodes, clients,
        )));
        let mut data_inboxes: Vec<Inbox> = Vec::with_capacity(data_nodes);
        let mut client_inboxes: Vec<Inbox> = Vec::with_capacity(clients);
        let mut data_to_control: Vec<Arc<dyn MsgTx>> = Vec::with_capacity(data_nodes);
        let mut client_to_control: Vec<Arc<dyn MsgTx>> = Vec::with_capacity(clients);
        let mut service: Vec<JoinHandle<()>> = Vec::new();

        // Open every peer connection. Connects complete against the listen
        // backlog, so it is safe to connect them all before accepting any.
        let mut connect = |role: u8, id: u32| -> Result<(), NetError> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let [b0, b1, b2, b3] = id.to_le_bytes();
            stream.write_all(&[role, b0, b1, b2, b3])?;
            let inbox: Inbox = Arc::new(BoundedQueue::new(ACTOR_INBOX_CAPACITY));
            // The peer-side reader is this actor's only inbox producer:
            // when the control node drops its writer, EOF closes the inbox.
            service.push(spawn_reader(&stream, &inbox, &counters, true)?);
            let tx: Arc<dyn MsgTx> = Arc::new(TcpTx {
                stream: Mutex::new(stream),
                counters: Arc::clone(&counters),
            });
            if role == ROLE_DATA {
                data_inboxes.push(inbox);
                data_to_control.push(tx);
            } else {
                client_inboxes.push(inbox);
                client_to_control.push(tx);
            }
            Ok(())
        };
        for n in 0..data_nodes {
            connect(ROLE_DATA, n as u32)?;
        }
        for c in 0..clients {
            connect(ROLE_CLIENT, c as u32)?;
        }

        // Accept the control side of every connection and sort the writer
        // halves by the announced (role, id).
        let mut to_data: Vec<Option<Arc<dyn MsgTx>>> = (0..data_nodes).map(|_| None).collect();
        let mut to_clients: Vec<Option<Arc<dyn MsgTx>>> = (0..clients).map(|_| None).collect();
        for _ in 0..(data_nodes + clients) {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut preamble = [0u8; 5];
            stream.read_exact(&mut preamble)?;
            let [role, b0, b1, b2, b3] = preamble;
            let id = u32::from_le_bytes([b0, b1, b2, b3]) as usize;
            // These readers all feed the shared control inbox; none of them
            // may close it for the others.
            service.push(spawn_reader(&stream, &control_inbox, &counters, false)?);
            let tx: Arc<dyn MsgTx> = Arc::new(TcpTx {
                stream: Mutex::new(stream),
                counters: Arc::clone(&counters),
            });
            let slot = match role {
                ROLE_DATA => to_data.get_mut(id),
                ROLE_CLIENT => to_clients.get_mut(id),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unknown preamble role byte {other}"
                    )))
                }
            };
            match slot {
                Some(s @ None) => *s = Some(tx),
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
        let unwrap_all = |v: Vec<Option<Arc<dyn MsgTx>>>| -> Result<Vec<Arc<dyn MsgTx>>, NetError> {
            v.into_iter()
                .map(|o| o.ok_or_else(|| NetError::Protocol("missing peer connection".into())))
                .collect()
        };

        let bytes_counters = Arc::clone(&counters);
        Ok(Fabric {
            to_data: unwrap_all(to_data)?,
            to_clients: unwrap_all(to_clients)?,
            data_to_control,
            client_to_control,
            control_inbox,
            data_inboxes,
            client_inboxes,
            service,
            bytes: Arc::new(move || bytes_counters.snapshot()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::txn::TxnId;
    use wtpg_rt::queue::PopResult;

    #[test]
    fn frames_cross_the_loopback_fabric() {
        let f = Tcp.build(2, 1).expect("loopback fabric");
        let m = Msg::AccessDone {
            txn: TxnId(3),
            step: 1,
            checksum: 99,
            units: 1000,
        };
        // data node 1 → control
        assert!(f.data_to_control[1].send(&m));
        assert_eq!(
            f.control_inbox.pop_timeout(std::time::Duration::from_secs(5)),
            PopResult::Item(m.clone())
        );
        // control → data node 0
        assert!(f.to_data[0].send(&Msg::Shutdown));
        assert_eq!(
            f.data_inboxes[0].pop_timeout(std::time::Duration::from_secs(5)),
            PopResult::Item(Msg::Shutdown)
        );
        // control → client 0, client 0 → control
        assert!(f.to_clients[0].send(&Msg::Commit { client: 0, txn: TxnId(8) }));
        assert_eq!(
            f.client_inboxes[0].pop_timeout(std::time::Duration::from_secs(5)),
            PopResult::Item(Msg::Commit { client: 0, txn: TxnId(8) })
        );
        assert!(f.client_to_control[0].send(&Msg::Commit {
            client: 0,
            txn: TxnId(8)
        }));
        assert_eq!(
            f.control_inbox.pop_timeout(std::time::Duration::from_secs(5)),
            PopResult::Item(Msg::Commit {
                client: 0,
                txn: TxnId(8)
            })
        );
        let bytes = (f.bytes)();
        assert_eq!(bytes.frames_sent, 4);
        assert_eq!(bytes.frames_received, 4);
        assert!(bytes.bytes_sent >= 4 * 5, "each frame has ≥ 5 bytes");
        assert_eq!(bytes.bytes_sent, bytes.bytes_received);

        // Teardown: dropping the writers EOFs the readers.
        let Fabric {
            to_data,
            to_clients,
            data_to_control,
            client_to_control,
            data_inboxes,
            service,
            ..
        } = f;
        drop(to_data);
        drop(to_clients);
        drop(data_to_control);
        drop(client_to_control);
        for h in service {
            h.join().expect("reader threads exit on EOF");
        }
        assert_eq!(data_inboxes[0].pop(), None, "EOF closed the data inbox");
    }
}
