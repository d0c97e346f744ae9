//! The benchmark's own model of what the stores must hold, and the
//! checkers that compare program output against it. Nothing here calls
//! into the program: expected values are recomputed from the run's seed.

/// Mixes three words into one (splitmix64 finaliser over a xor fold).
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(21))
        ^ c.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the workloads' random choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x5eed, 1) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Fills `buf` with the value of version `version` of `key`: the version
/// as 8 little-endian bytes, then a stream derived from `(salt, key,
/// version)`. Values are at least 8 bytes long.
pub fn fill_value(buf: &mut [u8], salt: u64, key: u64, version: u64) {
    buf[..8].copy_from_slice(&version.to_le_bytes());
    let mut x = mix(salt, key, version) | 1;
    for chunk in buf[8..].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

/// Why a value read back from a store was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// Wrong length.
    Length { got: usize, want: usize },
    /// The value names a version the client never wrote (or wrote later
    /// than the bound allows).
    Version { got: u64, max: u64 },
    /// Right version, wrong bytes.
    Bytes,
}

/// Checks that `got` is exactly version `version` of `key`, byte for byte.
pub fn check_exact(
    got: &[u8],
    scratch: &mut [u8],
    salt: u64,
    key: u64,
    version: u64,
) -> Result<(), Mismatch> {
    check_at_most(got, scratch, salt, key, version).and_then(|v| {
        if v == version {
            Ok(())
        } else {
            Err(Mismatch::Version {
                got: v,
                max: version,
            })
        }
    })
}

/// Checks that `got` is some version `v <= max` of `key`, byte for byte,
/// and returns `v`. This is what a store that acknowledges writes before
/// they are durable may hold after a crash: any write up to the last one
/// sent, never a value that was not written. The expected length is
/// `scratch.len()`.
pub fn check_at_most(
    got: &[u8],
    scratch: &mut [u8],
    salt: u64,
    key: u64,
    max: u64,
) -> Result<u64, Mismatch> {
    if got.len() != scratch.len() {
        return Err(Mismatch::Length {
            got: got.len(),
            want: scratch.len(),
        });
    }
    let v = u64::from_le_bytes(got[..8].try_into().expect("values are at least 8 bytes"));
    if v > max {
        return Err(Mismatch::Version { got: v, max });
    }
    fill_value(scratch, salt, key, v);
    if scratch[..] == got[..] {
        Ok(v)
    } else {
        Err(Mismatch::Bytes)
    }
}

/// Values the map workload writes in the epoch it crashes carry this bit;
/// values it writes before the explicit checkpoint never do.
pub const SENTINEL: u64 = 1 << 63;

/// Why a recovered map entry was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum MapMismatch {
    /// A write of the crashed epoch survived recovery.
    Sentinel { key: u64, got: u64 },
    /// The entry differs from the model at the explicit checkpoint
    /// (`None` = absent).
    Value {
        key: u64,
        got: Option<u64>,
        want: Option<u64>,
    },
}

/// Checks one recovered map entry against the model value at the last
/// checkpoint (`0` in the model means absent).
pub fn check_recovered(key: u64, got: Option<u64>, model: u64) -> Result<(), MapMismatch> {
    if let Some(g) = got {
        if g & SENTINEL != 0 {
            return Err(MapMismatch::Sentinel { key, got: g });
        }
    }
    let want = (model != 0).then_some(model);
    if got == want {
        Ok(())
    } else {
        Err(MapMismatch::Value { key, got, want })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(len: usize, key: u64, version: u64) -> Vec<u8> {
        let mut v = vec![0; len];
        fill_value(&mut v, 42, key, version);
        v
    }

    #[test]
    fn exact_accepts_the_model_value_and_rejects_corruption() {
        let mut scratch = vec![0; 32];
        let good = value(32, 7, 3);
        assert_eq!(check_exact(&good, &mut scratch, 42, 7, 3), Ok(()));
        for i in [0, 8, 31] {
            let mut bad = good.clone();
            bad[i] ^= 1;
            assert!(
                check_exact(&bad, &mut scratch, 42, 7, 3).is_err(),
                "byte {i}"
            );
        }
        // An older (stale) version, another key's value, a truncated value.
        assert!(check_exact(&value(32, 7, 2), &mut scratch, 42, 7, 3).is_err());
        assert_eq!(
            check_exact(&value(32, 8, 3), &mut scratch, 42, 7, 3),
            Err(Mismatch::Bytes)
        );
        assert!(matches!(
            check_exact(&good[..16], &mut scratch, 42, 7, 3),
            Err(Mismatch::Length { .. })
        ));
    }

    #[test]
    fn at_most_accepts_older_writes_but_not_unwritten_ones() {
        let mut scratch = vec![0; 64];
        assert_eq!(
            check_at_most(&value(64, 5, 0), &mut scratch, 42, 5, 4),
            Ok(0)
        );
        assert_eq!(
            check_at_most(&value(64, 5, 4), &mut scratch, 42, 5, 4),
            Ok(4)
        );
        assert_eq!(
            check_at_most(&value(64, 5, 5), &mut scratch, 42, 5, 4),
            Err(Mismatch::Version { got: 5, max: 4 })
        );
        let mut bad = value(64, 5, 2);
        bad[40] ^= 0x80;
        assert_eq!(
            check_at_most(&bad, &mut scratch, 42, 5, 4),
            Err(Mismatch::Bytes)
        );
    }

    #[test]
    fn recovered_map_rejects_sentinels_and_lost_or_resurrected_keys() {
        assert_eq!(check_recovered(1, Some(9), 9), Ok(()));
        assert_eq!(check_recovered(1, None, 0), Ok(()));
        assert_eq!(
            check_recovered(1, Some(SENTINEL | 9), 9),
            Err(MapMismatch::Sentinel {
                key: 1,
                got: SENTINEL | 9
            })
        );
        assert!(check_recovered(1, Some(SENTINEL | 3), 0).is_err());
        assert!(check_recovered(1, None, 9).is_err());
        assert!(check_recovered(1, Some(9), 0).is_err());
        assert!(check_recovered(1, Some(8), 9).is_err());
    }
}
