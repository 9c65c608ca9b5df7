//! The hex rule for integers that must cross a wire bit-exactly.
//!
//! JSON numbers are `f64`-backed in the vendored `serde_json`, so integers
//! above 2^53 (fingerprints, seeds, byte counters, the `u128` distance
//! ledger) lose bits as numbers. They travel as lowercase hex strings
//! instead, declared once where the value is: a message field of type
//! [`Hex64`] / [`Hex128`], or a plain integer field of a derived type marked
//! `#[serde(with = "Hex64")]`. The rule is the field's declaration, not a
//! call someone has to remember.

use serde::{Deserialize, Reader, Serialize, Writer};

/// A `u64` that travels as a lowercase hex string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hex64(pub u64);

impl Serialize for Hex64 {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.string(&format!("{:x}", self.0));
    }
}

impl Deserialize for Hex64 {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        let text = String::deserialize(input).map_err(|_| "must be a hex string")?;
        u64::from_str_radix(&text, 16)
            .map(Hex64)
            .map_err(|_| format!("invalid hex u64 {text:?}"))
    }
}

/// A `u128` that travels as a lowercase hex string (see [`Hex64`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hex128(pub u128);

impl Serialize for Hex128 {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.string(&format!("{:x}", self.0));
    }
}

impl Deserialize for Hex128 {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        let text = String::deserialize(input).map_err(|_| "must be a hex string")?;
        u128::from_str_radix(&text, 16)
            .map(Hex128)
            .map_err(|_| format!("invalid hex u128 {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn hex_newtypes_round_trip_full_range_integers_as_strings() {
        for v in [0u64, 1, 0xF1617E, u64::MAX, (1 << 53) + 1] {
            assert_eq!(
                serde_json::to_value(&Hex64(v)),
                Value::String(format!("{v:x}"))
            );
            assert_eq!(
                serde_json::from_value::<Hex64>(&serde_json::to_value(&Hex64(v))),
                Ok(Hex64(v))
            );
        }
        for v in [0u128, u128::from(u64::MAX) + 1, u128::MAX] {
            assert_eq!(
                serde_json::from_value::<Hex128>(&serde_json::to_value(&Hex128(v))),
                Ok(Hex128(v))
            );
        }
        assert_eq!(
            serde_json::to_value(&Hex128(u128::MAX)),
            Value::String("f".repeat(32))
        );
        // The rule is "a hex string": numbers, non-hex and overflow are errors.
        for bad in [
            Value::Number(17.0),
            Value::String("not hex".to_string()),
            Value::Null,
            Value::String("1ffffffffffffffff".to_string()),
        ] {
            assert!(serde_json::from_value::<Hex64>(&bad).is_err(), "{bad:?}");
        }
        let overflow = Value::String("1".repeat(33));
        assert!(serde_json::from_value::<Hex128>(&overflow).is_err());
        assert!(serde_json::from_value::<Hex128>(&Value::Number(1.0)).is_err());
    }
}
