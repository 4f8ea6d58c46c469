//! `ppoll(2)`: how one thread waits on one or several descriptors at once,
//! for as long as it asks — the workspace's only foreign call outside
//! `bench/`, and this crate's only `unsafe` block. Linux only, as CI and
//! `bench/` are.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` (`time_t` is a `long` on every Linux target CI runs).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// A reusable descriptor table: filled by [`PollSet::wait`], read back by
/// [`PollSet::readable`].
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// One `ppoll` for readability over `fds`, blocking for at most
    /// `timeout` (`None`: until something is readable), to the nanosecond
    /// the kernel's timer slack allows — no rounding to milliseconds or
    /// ticks. `None` entries keep their position and are never readable. A
    /// signal (`EINTR`) reads as an early wake-up with nothing readable: the
    /// caller owns the deadline and polls again.
    ///
    /// # Errors
    /// Whatever else `ppoll` fails with (`ENOMEM`, `EINVAL` past
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
        let ts = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            // Under 10⁹: fits any `long`.
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let ts_ptr = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
        // SAFETY: the pointer and the count describe `self.fds`, an exclusive
        // borrow of `#[repr(C)]` records laid out as `struct pollfd`, and the
        // kernel writes only their `revents` fields. Every descriptor in it
        // is borrowed for `'fd`, which outlives this call, so none can be
        // closed and reused meanwhile. The timeout is null or points at `ts`,
        // a `struct timespec` alive across the call that the kernel only
        // reads; the null signal mask leaves the thread's own in place.
        let n = unsafe {
            ppoll(
                self.fds.as_mut_ptr(),
                self.fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        };
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
#[expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]
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
        set.wait([None, Some(rx.as_fd())].into_iter(), Some(Duration::from_micros(100)))
            .expect("poll");
        assert!(t0.elapsed() >= Duration::from_micros(100), "{:?}", t0.elapsed());
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
