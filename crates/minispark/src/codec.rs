//! Compact binary encoding for spill files.
//!
//! Spill runs are written as length-prefixed entries; each entry is a
//! [`Codec`]-encoded `(key, values)` group. The encoding is deliberately
//! simple (fixed-width little-endian integers, length-prefixed sequences):
//! spill files are process-private temporaries, so there is no versioning or
//! cross-platform concern, only round-trip fidelity — which the tests and a
//! property test pin down.

#![warn(clippy::indexing_slicing)]

/// A type that can encode itself into a byte buffer and decode itself back.
///
/// `decode` consumes bytes from the front of `input` and must return `None`
/// (leaving `input` in an unspecified state) if the bytes are malformed or
/// truncated.
pub trait Codec: Sized {
    /// Appends the encoded form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

macro_rules! impl_codec_for_int {
    ($($ty:ty),*) => {
        $(
            impl Codec for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }

                fn decode(input: &mut &[u8]) -> Option<Self> {
                    const N: usize = std::mem::size_of::<$ty>();
                    if input.len() < N {
                        return None;
                    }
                    let (head, tail) = input.split_at(N);
                    *input = tail;
                    Some(<$ty>::from_le_bytes(head.try_into().ok()?))
                }
            }
        )*
    };
}

impl_codec_for_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).and_then(|v| usize::try_from(v).ok())
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u64::decode(input)?;
        let len = usize::try_from(len).ok()?;
        // Guard against corrupt lengths: each element needs ≥ 1 byte.
        if len > input.len() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::decode(input)?).ok()?;
        if input.len() < len {
            return None;
        }
        let (head, tail) = input.split_at(len);
        *input = tail;
        String::from_utf8(head.to_vec()).ok()
    }
}

/// Encodes a value into a fresh buffer (convenience for tests and spills).
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must consume the entire buffer.
pub fn decode_exact<T: Codec>(mut input: &[u8]) -> Option<T> {
    let value = T::decode(&mut input)?;
    input.is_empty().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let encoded = encode_to_vec(&value);
        let decoded: T = decode_exact(&encoded).expect("round trip failed");
        assert_eq!(decoded, value);
    }

    #[test]
    fn integers_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(-1i32);
        round_trip(usize::MAX);
    }

    #[test]
    fn composites_round_trip() {
        round_trip((1u32, 2u64));
        round_trip((1u8, 2u16, 3u32));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(true);
        round_trip(String::from("top-k rankings"));
        round_trip(String::new());
        round_trip(vec![(1u64, vec![2u32, 3]), (4, vec![])]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let encoded = encode_to_vec(&(1u32, 2u64));
        for cut in 0..encoded.len() {
            assert!(
                decode_exact::<(u32, u64)>(&encoded[..cut]).is_none(),
                "accepted truncation at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_length_is_rejected() {
        // A Vec claiming u64::MAX elements.
        let encoded = encode_to_vec(&u64::MAX);
        assert!(decode_exact::<Vec<u32>>(&encoded).is_none());
    }

    #[test]
    fn trailing_bytes_are_rejected_by_decode_exact() {
        let mut encoded = encode_to_vec(&3u32);
        encoded.push(0xFF);
        assert!(decode_exact::<u32>(&encoded).is_none());
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(decode_exact::<bool>(&[2]).is_none());
        assert!(decode_exact::<Option<u8>>(&[9, 1]).is_none());
    }

    #[test]
    fn decode_advances_the_slice() {
        let mut buf = Vec::new();
        1u16.encode(&mut buf);
        2u16.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(u16::decode(&mut slice), Some(1));
        assert_eq!(u16::decode(&mut slice), Some(2));
        assert!(slice.is_empty());
    }
}
