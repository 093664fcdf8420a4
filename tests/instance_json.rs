//! Instance files are input from outside the process: every JSON instance
//! is built through `GInstance::new`, so a file that breaks the model is a
//! typed load error instead of a panic deep inside the engine. Random
//! bytes and single-byte mutations of valid files load as an error or as
//! a valid instance, never a panic.

use dbp_core::demand::VSize;
use dbp_core::instance::{GInstance, Instance};
use dbp_core::item::Size;
use proptest::prelude::*;

/// A one-item instance file; `cap` and `size` are raw JSON (a number at
/// D = 1, an array at D = 3).
fn one_item(cap: &str, id: u32, arrival: u64, departure: u64, size: &str) -> String {
    format!(
        r#"{{"capacity":{cap},"items":[{{"id":{id},"arrival":{arrival},"departure":{departure},"size":{size},"region":0}}]}}"#
    )
}

/// `(what, file, expected error fragment)` for every way a one-item file
/// can break the model, spelled at D = 1 (`scalar`) or D = 3.
fn hostile(scalar: bool) -> Vec<(&'static str, String, &'static str)> {
    let (cap, ok, big, zero, zero_cap) = if scalar {
        ("10", "3", "11", "0", "0")
    } else {
        ("[10,10,10]", "[3,3,3]", "[3,11,3]", "[0,0,0]", "[10,0,10]")
    };
    vec![
        (
            "departure == arrival",
            one_item(cap, 0, 5, 5, ok),
            "departure <= arrival",
        ),
        (
            "departure < arrival",
            one_item(cap, 0, 7, 3, ok),
            "departure <= arrival",
        ),
        ("size > capacity", one_item(cap, 0, 0, 5, big), "> capacity"),
        (
            "zero capacity",
            one_item(zero_cap, 0, 0, 5, ok),
            "capacity must be positive",
        ),
        ("id != index", one_item(cap, 1, 0, 5, ok), "expected r0"),
        ("zero size", one_item(cap, 0, 0, 5, zero), "zero size"),
    ]
}

fn assert_refused<Sz: dbp_core::demand::Demand>(scalar: bool) {
    for (what, json, fragment) in hostile(scalar) {
        let err = serde_json::from_str::<GInstance<Sz>>(&json)
            .err()
            .unwrap_or_else(|| panic!("{what}: accepted {json}"))
            .to_string();
        assert!(err.contains("invalid instance"), "{what}: {err}");
        assert!(err.contains(fragment), "{what}: {err}");
    }
}

#[test]
fn hostile_scalar_instance_files_are_typed_errors() {
    assert_refused::<Size>(true);
    let valid: Instance = serde_json::from_str(&one_item("10", 0, 0, 5, "3")).unwrap();
    assert_eq!(valid.len(), 1);
    assert_eq!(
        serde_json::from_str::<Instance>(&serde_json::to_string(&valid).unwrap()).unwrap(),
        valid
    );
}

#[test]
fn hostile_vector_instance_files_are_typed_errors() {
    assert_refused::<VSize<3>>(false);
    let valid: GInstance<VSize<3>> =
        serde_json::from_str(&one_item("[10,10,10]", 0, 0, 5, "[3,3,3]")).unwrap();
    assert_eq!(valid.len(), 1);
}

/// A valid file with three items, at D = 1 (`scalar`) or D = 3.
fn valid_file(scalar: bool) -> String {
    let (cap, s) = if scalar {
        ("10", ["3", "7", "10"])
    } else {
        ("[10,10,10]", ["[3,0,1]", "[7,2,9]", "[10,10,10]"])
    };
    format!(
        r#"{{"capacity":{cap},"items":[{{"id":0,"arrival":0,"departure":5,"size":{},"region":0}},{{"id":1,"arrival":2,"departure":9,"size":{},"region":1}},{{"id":2,"arrival":2,"departure":3,"size":{},"region":0}}]}}"#,
        s[0], s[1], s[2]
    )
}

/// Loading `bytes` either fails or yields an instance `GInstance::new`
/// accepts as it stands; a panic fails the calling property.
fn load_is_err_or_valid<Sz: dbp_core::demand::Demand>(bytes: &[u8]) -> bool {
    match serde_json::from_reader::<_, GInstance<Sz>>(bytes) {
        Err(_) => true,
        Ok(inst) => GInstance::new(inst.capacity(), inst.items().to_vec()).is_ok(),
    }
}

/// Bytes a JSON instance is made of, weighted so random strings often
/// get past the tokenizer.
const JSONISH: &[u8] = b"{}[],:\"0123456789-.e capacityitemsidarrivaldeparturesizeregion";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes — raw, or drawn from JSON's alphabet — never panic
    /// the loader at D = 1 or D = 3.
    #[test]
    fn random_bytes_are_refused_or_valid(
        raw in proptest::collection::vec(0u8..=255, 0..160),
        picks in proptest::collection::vec(0usize..JSONISH.len(), 0..160),
    ) {
        let jsonish: Vec<u8> = picks.iter().map(|&k| JSONISH[k]).collect();
        for bytes in [&raw, &jsonish] {
            prop_assert!(load_is_err_or_valid::<Size>(bytes), "{bytes:?}");
            prop_assert!(load_is_err_or_valid::<VSize<3>>(bytes), "{bytes:?}");
        }
    }

    /// Every single-byte mutation of a valid D = 1 or D = 3 file loads
    /// as an error or as a model-valid instance, under both readings.
    #[test]
    fn single_byte_mutations_are_refused_or_valid(pos in 0usize..4096, byte in 0u8..=255) {
        for scalar in [true, false] {
            let mut bytes = valid_file(scalar).into_bytes();
            let at = pos % bytes.len();
            bytes[at] = byte;
            let shown = String::from_utf8_lossy(&bytes).into_owned();
            prop_assert!(load_is_err_or_valid::<Size>(&bytes), "{shown}");
            prop_assert!(load_is_err_or_valid::<VSize<3>>(&bytes), "{shown}");
        }
    }
}

#[test]
fn the_mutated_files_start_valid() {
    let d1: Instance = serde_json::from_str(&valid_file(true)).unwrap();
    let d3: GInstance<VSize<3>> = serde_json::from_str(&valid_file(false)).unwrap();
    assert_eq!((d1.len(), d3.len()), (3, 3));
}
