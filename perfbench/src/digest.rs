//! Result digests: a length and a 64-bit hash of a document list, so every
//! response can be checked against the oracle without keeping the oracle's
//! result lists in memory.

/// Length plus FNV-1a hash of an ascending document list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(docs: &[u32]) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &d in docs {
            hash = (hash ^ u64::from(d)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            len: docs.len(),
            hash,
        }
    }
}
