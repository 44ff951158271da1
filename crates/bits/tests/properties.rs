//! Property-based tests for the bit-value types: signed views, `norm`,
//! pattern parsing totality, and matching.

use lisa_bits::{BitPattern, Bits, Tern};
use proptest::prelude::*;

/// A strategy producing (width, value) pairs with value masked to width.
fn bits_strategy() -> impl Strategy<Value = Bits> {
    (1u32..=128, any::<u128>()).prop_map(|(w, v)| Bits::from_u128_wrapped(w, v))
}

fn tern_vec() -> impl Strategy<Value = Vec<Tern>> {
    prop::collection::vec(
        prop_oneof![Just(Tern::Zero), Just(Tern::One), Just(Tern::DontCare)],
        1..=128,
    )
}

proptest! {
    #[test]
    fn signed_unsigned_views_agree_mod_2w(a in bits_strategy()) {
        let w = a.width();
        let signed = a.to_i128();
        let round = Bits::from_i128_wrapped(w, signed);
        prop_assert_eq!(round, a);
    }

    #[test]
    fn norm_shifted_value_is_normalised(a in bits_strategy()) {
        // Shifting left by norm() puts the first significant bit just
        // below the sign bit (or yields 0 / -1 for degenerate values).
        let n = a.norm();
        let w = a.width();
        prop_assert!(n < w);
        if n < w - 1 {
            let shifted = Bits::from_i128_wrapped(w, a.to_i128() << n).to_i128();
            // After normalisation the bit below the sign differs from the sign.
            let sign = shifted < 0;
            let below = shifted >> (w - 2) & 1 == 1;
            prop_assert_ne!(sign, below);
        }
    }

    #[test]
    fn pattern_display_parse_round_trip(terns in tern_vec()) {
        let p = BitPattern::from_terns(&terns).unwrap();
        let reparsed: BitPattern = p.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, p);
    }

    #[test]
    fn pattern_parse_never_panics(s in "\\PC{0,40}") {
        let _ = s.parse::<BitPattern>();
    }

    #[test]
    fn fully_specified_pattern_matches_only_itself(w in 1u32..=64, v in any::<u128>()) {
        let terns: Vec<Tern> = (0..w)
            .rev()
            .map(|i| if v >> i & 1 == 1 { Tern::One } else { Tern::Zero })
            .collect();
        let p = BitPattern::from_terns(&terns).unwrap();
        let v = v & ((1 << w) - 1);
        prop_assert!(p.is_fully_specified());
        prop_assert!(p.matches_u128(v));
        prop_assert!(!p.matches_u128(v ^ 1));
    }

    #[test]
    fn overlap_is_symmetric(ta in tern_vec(), tb in tern_vec()) {
        let a = BitPattern::from_terns(&ta).unwrap();
        let b = BitPattern::from_terns(&tb).unwrap();
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn any_pattern_matches_everything(w in 1u32..=128, v in any::<u128>()) {
        prop_assert!(BitPattern::any(w).matches_u128(v));
    }
}
