//! Schema fixture codec ceilings.

/// Maximum frame bytes.
pub const MAX_FRAME: usize = 1 << 16;
/// Maximum steps per transaction.
pub const MAX_STEPS: u32 = 128;
/// Maximum messages per batch.
pub const MAX_BATCH: u32 = 64;
/// Maximum snapshot-exclusion entries per read order.
pub const MAX_EXCLUDE: u32 = 256;
/// Maximum entries per list of a forget notice.
pub const MAX_FORGET: u32 = 32;
