//! Instance files are input from outside the process: every JSON instance
//! is built through `GInstance::new`, so a file that breaks the model is a
//! typed load error instead of a panic deep inside the engine.

use dbp_core::demand::VSize;
use dbp_core::instance::{GInstance, Instance};

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
    assert_refused::<dbp_core::item::Size>(true);
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
