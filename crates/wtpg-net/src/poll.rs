//! `poll(2)`: how one thread waits on several descriptors at once — the
//! workspace's only foreign call outside `bench/`, and this crate's only
//! `unsafe` block.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// A reusable descriptor table: filled by [`PollSet::wait`], read back by
/// [`PollSet::readable`].
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// One `poll` for readability over `fds`, blocking for at most `timeout`
    /// (`None`: until something is readable). `None` entries keep their
    /// position and are never readable. The timeout is rounded **up** to a
    /// whole millisecond — a short wait must not turn into a busy loop of
    /// zero-timeout polls. A signal (`EINTR`) reads as an early wake-up with
    /// nothing readable: the caller owns the deadline and polls again.
    ///
    /// # Errors
    /// Whatever else `poll` fails with (`ENOMEM`, `EINVAL` past
    /// `RLIMIT_NOFILE`).
    pub(crate) fn wait<'fd>(
        &mut self,
        fds: impl Iterator<Item = Option<BorrowedFd<'fd>>>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        self.fds.clear();
        self.fds.extend(fds.map(|fd| PollFd {
            // The kernel skips a negative descriptor and zeroes its `revents`.
            fd: fd.map_or(-1, |fd| fd.as_raw_fd()),
            events: POLLIN,
            revents: 0,
        }));
        let ms = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        // SAFETY: the pointer and the count describe `self.fds`, an exclusive
        // borrow of `#[repr(C)]` records laid out as `struct pollfd`, and the
        // kernel writes only their `revents` fields. Every descriptor in it
        // is borrowed for `'fd`, which outlives this call, so none can be
        // closed and reused meanwhile.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // An interrupted call may leave `revents` unspecified.
            self.fds.iter_mut().for_each(|p| p.revents = 0);
        }
        Ok(())
    }

    /// Whether the last [`wait`](Self::wait) found its `i`-th descriptor
    /// worth a `read`: data, EOF (`POLLHUP`) or an error the read will
    /// report.
    pub(crate) fn readable(&self, i: usize) -> bool {
        self.fds.get(i).is_some_and(|p| p.revents != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsFd;
    use std::time::Instant;

    #[test]
    fn a_pipe_is_readable_once_written_and_skipped_slots_never_are() {
        let (rx, mut tx) = std::io::pipe().expect("pipe");
        let mut set = PollSet::default();
        let t0 = Instant::now();
        // 100 µs rounds up to one millisecond, not down to a zero-timeout poll.
        set.wait([None, Some(rx.as_fd())].into_iter(), Some(Duration::from_micros(100)))
            .expect("poll");
        assert!(t0.elapsed() >= Duration::from_millis(1), "{:?}", t0.elapsed());
        assert!(!set.readable(0) && !set.readable(1) && !set.readable(2));
        tx.write_all(&[7]).expect("write");
        set.wait([None, Some(rx.as_fd())].into_iter(), None).expect("poll");
        assert!(!set.readable(0) && set.readable(1));
        // A hung-up writer is worth a read too: that read is the EOF.
        let (rx, tx) = std::io::pipe().expect("pipe");
        drop(tx);
        set.wait([Some(rx.as_fd())].into_iter(), None).expect("poll");
        assert!(set.readable(0));
    }
}
