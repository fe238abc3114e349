//! Round-trip coverage of every derive shape the workspace's new tagged
//! payloads use — most importantly `AnyInstance`'s form: an enum whose
//! tuple variants carry structs of `Vec`s, nested tuples, and `Option`s
//! (the problem-announce frame), next to the named-field and unit
//! variants the protocol messages already exercised.

use serde::{decode, encode, Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    weight: u64,
    profit: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct VecPayload {
    capacity: u64,
    items: Vec<Inner>,
    scale: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NestedPayload {
    /// The `BasicNode` shape: options of tuples, with ids and flags.
    parent: Option<(u32, bool)>,
    solution: Option<f64>,
    children: Option<(u32, u32)>,
}

/// The `AnyInstance` shape: a tagged enum over struct payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Tagged {
    Flat(VecPayload),
    Deep(Vec<NestedPayload>),
    Named { id: u32, label: String },
    Unit,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HoldsEnum {
    before: u8,
    tag: Tagged,
    after: u16,
}

fn samples() -> Vec<Tagged> {
    vec![
        Tagged::Flat(VecPayload {
            capacity: 31,
            items: vec![
                Inner {
                    weight: 5,
                    profit: 9,
                },
                Inner {
                    weight: 1,
                    profit: 2,
                },
            ],
            scale: 0.125,
        }),
        Tagged::Deep(vec![
            NestedPayload {
                parent: None,
                solution: Some(7.0),
                children: Some((1, 2)),
            },
            NestedPayload {
                parent: Some((0, true)),
                solution: None,
                children: None,
            },
        ]),
        Tagged::Named {
            id: 99,
            label: "wire".to_string(),
        },
        Tagged::Unit,
    ]
}

#[test]
fn every_tagged_shape_round_trips() {
    for value in samples() {
        let bytes = encode(&value);
        let back: Tagged = decode(&bytes).expect("round trip");
        assert_eq!(back, value);
    }
}

#[test]
fn enum_inside_struct_round_trips() {
    for tag in samples() {
        let value = HoldsEnum {
            before: 3,
            tag,
            after: 512,
        };
        let bytes = encode(&value);
        let back: HoldsEnum = decode(&bytes).expect("round trip");
        assert_eq!(back, value);
    }
}

#[test]
fn variant_tags_are_stable_and_invalid_tags_rejected() {
    // The derive assigns tags in declaration order — the wire format
    // contract the announce frame depends on.
    assert_eq!(encode(&Tagged::Unit)[0], 3);
    let named = encode(&Tagged::Named {
        id: 1,
        label: String::new(),
    });
    assert_eq!(named[0], 2);

    // An out-of-range tag must error, never panic or misdecode.
    let mut bytes = encode(&Tagged::Unit);
    bytes[0] = 200;
    assert!(decode::<Tagged>(&bytes).is_err());
}

/// A flat struct of floats and counters encoded next to a `String`
/// address — the field mix of a handshake payload that carries a listen
/// address beside a summary of state. This pins that encoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RejoinShaped {
    incumbent: f64,
    table_codes: u32,
    pool_len: u32,
}

#[test]
fn rejoin_shaped_payloads_round_trip_next_to_strings() {
    for (summary, addr) in [
        (
            RejoinShaped {
                incumbent: -127.25,
                table_codes: 4096,
                pool_len: 0,
            },
            "127.0.0.1:45107",
        ),
        (
            RejoinShaped {
                incumbent: f64::INFINITY,
                table_codes: 0,
                pool_len: u32::MAX,
            },
            "[::1]:1",
        ),
    ] {
        // Encoded exactly as the rejoin frame lays it out: address
        // string, then the summary struct.
        let mut bytes = Vec::new();
        addr.to_string().ser(&mut bytes);
        summary.ser(&mut bytes);

        let mut r = bytes.as_slice();
        let got_addr = String::de(&mut r).expect("address decodes");
        let got_summary = RejoinShaped::de(&mut r).expect("summary decodes");
        assert!(r.is_empty(), "nothing may trail the summary");
        assert_eq!(got_addr, addr);
        assert_eq!(got_summary, summary);
    }
}

#[test]
fn truncated_payloads_error_cleanly() {
    for value in samples() {
        let bytes = encode(&value);
        for cut in 0..bytes.len() {
            assert!(
                decode::<Tagged>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
