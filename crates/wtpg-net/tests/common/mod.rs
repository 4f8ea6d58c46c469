//! What the state-machine tests share: a link that records instead of
//! delivering.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::sync::Mutex;

use wtpg_net::transport::MsgTx;
use wtpg_net::Msg;

/// The far end of one link: keeps every frame it is sent.
#[derive(Default)]
pub(crate) struct Recorder(Mutex<Vec<Msg>>);

impl MsgTx for Recorder {
    fn send(&self, m: &Msg) -> bool {
        self.0.lock().expect("recorder lock").push(m.clone());
        true
    }
}

impl Recorder {
    /// Every frame heard since the last call, as sent.
    #[allow(dead_code)] // not every test binary looks at frame boundaries
    pub(crate) fn frames(&self) -> Vec<Msg> {
        std::mem::take(&mut *self.0.lock().expect("recorder lock"))
    }

    /// Every message heard since the last call, batches unpacked.
    pub(crate) fn take(&self) -> Vec<Msg> {
        let mut out = Vec::new();
        for m in self.frames() {
            match m {
                Msg::Batch(inner) => out.extend(inner),
                plain => out.push(plain),
            }
        }
        out
    }
}
