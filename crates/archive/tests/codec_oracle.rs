//! The `.gar` payload codec and the frame checksum against their oracles.
//!
//! The codec oracle is the `serde::Value`-tree codec that `binfmt` used
//! before payloads took the serde shim's direct path: `encode_value` and
//! `decode_value` below are that codec as it was, plus the varint
//! overflow check both paths now share. A payload is decoded the old way
//! as `T::from_value(decode_value(bytes))`. The direct codec must write
//! the same bytes and, on any payload, give the same value or fail where
//! the oracle fails:
//!
//! - random archives, encoded both ways;
//! - the same payloads after byte-level mutations (bit flips, overwrites,
//!   truncations, insertions, deletions): the bytes a CRC-valid frame
//!   would hand the decoder if its checksum were recomputed;
//! - value-level mutations that keep the bytes well formed: objects with
//!   shuffled keys, unknown keys, duplicate keys (the first one wins),
//!   missing keys and values of the wrong shape.
//!
//! The checksum oracle is the bytewise CRC32C table: the SSE4.2 path
//! (`crc32c`, on x86-64 hosts that have it) and the slicing-by-8 path
//! (`crc32c_append_portable`) must agree with it over random lengths,
//! alignments and incremental splits.
//!
//! CI runs both properties at 1 000 cases:
//! `PROPTEST_CASES=1000 cargo test --release -p granula-archive --test codec_oracle`.

use granula_archive::binfmt::{decode_payload, encode_payload};
use granula_archive::crc::{crc32c, crc32c_append, crc32c_append_portable};
use granula_archive::{ArchiveStore, BinError, JobArchive, JobMeta, RunMeta, MAX_VALUE_DEPTH};
use granula_model::{Actor, Info, InfoSource, InfoValue, Mission, OperationTree, SourceRecord};
use proptest::prelude::*;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};

// ------------------------------------------------------------ the oracle

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, BinError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or(BinError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(BinError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the tagged encoding of a value.
fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            put_varint(out, *u);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(pairs) => {
            out.push(TAG_OBJECT);
            put_varint(out, pairs.len() as u64);
            for (k, val) in pairs {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, BinError> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or(BinError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(BinError::Truncated)?;
    *pos = end;
    String::from_utf8(slice.to_vec()).map_err(|_| BinError::BadUtf8)
}

/// Decodes one tagged value starting at `pos`, advancing it.
fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, BinError> {
    decode_value_at(bytes, pos, 0)
}

fn decode_value_at(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, BinError> {
    if depth >= MAX_VALUE_DEPTH {
        return Err(BinError::TooDeep(MAX_VALUE_DEPTH));
    }
    let tag = *bytes.get(*pos).ok_or(BinError::Truncated)?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => {
            let b = *bytes.get(*pos).ok_or(BinError::Truncated)?;
            *pos += 1;
            Ok(Value::Bool(b != 0))
        }
        TAG_INT => Ok(Value::Int(unzigzag(get_varint(bytes, pos)?))),
        TAG_UINT => Ok(Value::UInt(get_varint(bytes, pos)?)),
        TAG_FLOAT => {
            let end = pos.checked_add(8).ok_or(BinError::Truncated)?;
            let slice = bytes.get(*pos..end).ok_or(BinError::Truncated)?;
            *pos = end;
            let bits = u64::from_le_bytes(slice.try_into().expect("8-byte slice"));
            Ok(Value::Float(f64::from_bits(bits)))
        }
        TAG_STR => Ok(Value::Str(get_str(bytes, pos)?)),
        TAG_ARRAY => {
            let n = get_varint(bytes, pos)? as usize;
            let remaining = bytes.len().saturating_sub(*pos);
            if n > remaining {
                return Err(BinError::Truncated);
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_at(bytes, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = get_varint(bytes, pos)? as usize;
            let remaining = bytes.len().saturating_sub(*pos);
            if n > remaining / 2 {
                return Err(BinError::Truncated);
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let key = get_str(bytes, pos)?;
                let val = decode_value_at(bytes, pos, depth + 1)?;
                pairs.push((key, val));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(BinError::BadTag(other)),
    }
}

fn oracle_encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&value.to_value(), &mut out);
    out
}

fn oracle_decode<T: Deserialize>(payload: &[u8]) -> Result<T, BinError> {
    let mut pos = 0;
    let value = decode_value(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(BinError::TrailingBytes(payload.len() - pos));
    }
    Ok(T::from_value(&value)?)
}

// -------------------------------------------------------------- helpers

fn payload<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_payload(value, &mut out);
    out
}

/// Decodes `bytes` as `T` both ways: both fail, or both give the same
/// value (compared by its bytes, so NaN floats compare too). Returns
/// whether they succeeded.
fn agree<T: Serialize + Deserialize + std::fmt::Debug>(
    bytes: &[u8],
) -> Result<bool, TestCaseError> {
    match (decode_payload::<T>(bytes), oracle_decode::<T>(bytes)) {
        (Ok(direct), Ok(oracle)) => {
            prop_assert_eq!(payload(&direct), oracle_encode(&oracle));
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        (direct, oracle) => Err(TestCaseError::fail(format!(
            "direct {direct:?} but oracle {oracle:?} on {bytes:02x?}"
        ))),
    }
}

/// The payload's verdict for every type a frame holds, plus the tree.
fn agree_all(bytes: &[u8]) -> Result<bool, TestCaseError> {
    agree::<RunMeta>(bytes)?;
    agree::<Value>(bytes)?;
    agree::<JobArchive>(bytes)
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn text(rng: &mut TestRng, max: u64) -> String {
    const CHARS: [char; 10] = ['a', 'Z', '0', '-', '_', ' ', '/', '@', 'é', '✓'];
    (0..rng.below(max + 1))
        .map(|_| *pick(rng, &CHARS))
        .collect()
}

/// An integer anywhere in `u64`, biased towards short varints.
fn wide(rng: &mut TestRng) -> u64 {
    let shift = rng.below(64) as u32;
    rng.next_u64() >> shift
}

fn random_archive(rng: &mut TestRng) -> JobArchive {
    let mut tree = OperationTree::new();
    let root = tree
        .add_root(Actor::new("Job", "0"), Mission::new(text(rng, 8), "0"))
        .expect("fresh tree");
    let mut ids = vec![root];
    for _ in 0..rng.below(24) {
        let parent = *pick(rng, &ids);
        let actor = Actor::new(text(rng, 8), text(rng, 3));
        let mission = Mission::new(text(rng, 10), text(rng, 3));
        ids.push(
            tree.add_child(parent, actor, mission)
                .expect("parent exists"),
        );
    }
    for _ in 0..rng.below(40) {
        let value = match rng.below(4) {
            0 => InfoValue::Int(wide(rng) as i64),
            1 => InfoValue::Float(f64::from_bits(rng.next_u64())),
            2 => InfoValue::Text(text(rng, 16)),
            _ => InfoValue::Series(
                (0..rng.below(6))
                    .map(|_| (wide(rng), f64::from_bits(rng.next_u64())))
                    .collect(),
            ),
        };
        let source = if rng.below(2) == 0 {
            InfoSource::Raw {
                records: (0..rng.below(3))
                    .map(|_| SourceRecord::new(text(rng, 12), text(rng, 40)))
                    .collect(),
            }
        } else {
            InfoSource::Derived {
                rule: text(rng, 8),
                inputs: (0..rng.below(3)).map(|_| text(rng, 20)).collect(),
            }
        };
        let info = Info {
            name: text(rng, 10),
            value,
            source,
        };
        let target = *pick(rng, &ids);
        tree.set_info(target, info).expect("target exists");
    }
    let meta = JobMeta {
        job_id: text(rng, 12),
        platform: text(rng, 8),
        algorithm: text(rng, 4),
        dataset: text(rng, 6),
        nodes: rng.next_u64() as u32,
        model: text(rng, 6),
    };
    JobArchive::new(meta, tree)
}

/// Keys that name real fields somewhere in a payload, so that inserted and
/// renamed keys collide with the schema.
const KEYS: [&str; 16] = [
    "meta", "tree", "ops", "root", "id", "actor", "parent", "children", "infos", "name", "value",
    "source", "Int", "Raw", "Derived", "x",
];

fn small_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(wide(rng) as i64),
        3 => Value::UInt(wide(rng)),
        4 => Value::Float(f64::from_bits(rng.next_u64())),
        5 => Value::Str(text(rng, 6)),
        6 => Value::Array(
            (0..rng.below(3))
                .map(|_| small_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(3))
                .map(|_| (pick(rng, &KEYS).to_string(), small_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn count_nodes(v: &Value) -> u64 {
    1 + match v {
        Value::Array(items) => items.iter().map(count_nodes).sum(),
        Value::Object(pairs) => pairs.iter().map(|(_, v)| count_nodes(v)).sum(),
        _ => 0,
    }
}

/// Applies one structural edit to the `target`-th node (pre-order).
fn edit_node(v: &mut Value, target: &mut u64, rng: &mut TestRng) {
    if *target == 0 {
        *target = u64::MAX;
        match v {
            Value::Object(pairs) if rng.below(6) != 0 => {
                let at = rng.below(pairs.len() as u64 + 1) as usize;
                match rng.below(5) {
                    0 => {
                        for i in (1..pairs.len()).rev() {
                            pairs.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                    }
                    1 => pairs.insert(at, (text(rng, 4), small_value(rng, 2))),
                    2 if !pairs.is_empty() => {
                        let key = pick(rng, pairs).0.clone();
                        pairs.insert(at, (key, small_value(rng, 2)));
                    }
                    3 if !pairs.is_empty() => {
                        pairs.remove(at.min(pairs.len() - 1));
                    }
                    _ if !pairs.is_empty() => {
                        let i = at.min(pairs.len() - 1);
                        pairs[i].0 = pick(rng, &KEYS).to_string();
                    }
                    _ => {}
                }
            }
            Value::Array(items) if !items.is_empty() && rng.below(2) == 0 => {
                let i = rng.below(items.len() as u64) as usize;
                if rng.below(2) == 0 {
                    items.remove(i);
                } else {
                    let copy = items[i].clone();
                    items.insert(i, copy);
                }
            }
            other => *other = small_value(rng, 2),
        }
        return;
    }
    *target -= 1;
    match v {
        Value::Array(items) => items
            .iter_mut()
            .for_each(|item| edit_node(item, target, rng)),
        Value::Object(pairs) => pairs
            .iter_mut()
            .for_each(|(_, item)| edit_node(item, target, rng)),
        _ => {}
    }
}

/// A well-formed payload one to three structural edits away from `value`.
fn value_mutant(value: &Value, rng: &mut TestRng) -> Vec<u8> {
    let mut v = value.clone();
    for _ in 0..1 + rng.below(3) {
        let mut target = rng.below(count_nodes(&v));
        edit_node(&mut v, &mut target, rng);
    }
    let mut out = Vec::new();
    encode_value(&v, &mut out);
    out
}

/// `bytes` after one to three byte-level mutations.
fn byte_mutant(bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut b = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(b.len() as u64 + 1) as usize;
        match rng.below(7) {
            0 if at < b.len() => b[at] ^= 1 << rng.below(8),
            1 if at < b.len() => b[at] = rng.next_u64() as u8,
            2 if at < b.len() => b[at] = rng.below(9) as u8, // a tag, or one past
            3 => b.truncate(at),
            4 => {
                let junk: Vec<u8> = (0..1 + rng.below(4))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                b.splice(at..at, junk);
            }
            5 => {
                let end = (at + 1 + rng.below(8) as usize).min(b.len());
                b.drain(at.min(end)..end);
            }
            _ => {
                let end = (at + 1 + rng.below(8) as usize).min(b.len());
                let copy = b[at.min(end)..end].to_vec();
                let to = rng.below(b.len() as u64 + 1) as usize;
                b.splice(to..to, copy);
            }
        }
    }
    b
}

/// The bytewise CRC32C table walk, the checksum's oracle.
fn crc32c_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

// ---------------------------------------------------------------- tests

proptest! {
    #[test]
    fn direct_codec_matches_the_value_oracle(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed_u64(seed);
        let archive = random_archive(&mut rng);
        let bytes = payload(&archive);
        prop_assert_eq!(&bytes, &oracle_encode(&archive));
        prop_assert!(agree_all(&bytes)?);
        let run = RunMeta::new(text(&mut rng, 6), wide(&mut rng), text(&mut rng, 12));
        prop_assert_eq!(payload(&run), oracle_encode(&run));
        prop_assert!(agree::<RunMeta>(&payload(&run))?);
        let value = archive.to_value();
        for _ in 0..8 {
            agree_all(&byte_mutant(&bytes, &mut rng))?;
            agree_all(&value_mutant(&value, &mut rng))?;
        }
    }

    #[test]
    fn crc32c_paths_match_the_bytewise_table(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        skip in 0usize..8,
        split in any::<usize>(),
    ) {
        // Skipping up to 7 bytes moves the start through every alignment.
        let data = &data[skip.min(data.len())..];
        let split = split % (data.len() + 1);
        let (head, tail) = data.split_at(split);
        let expected = crc32c_bytewise(data);
        prop_assert_eq!(crc32c(data), expected);
        prop_assert_eq!(crc32c_append_portable(0, data), expected);
        prop_assert_eq!(crc32c_append(crc32c(head), tail), expected);
        prop_assert_eq!(crc32c_append_portable(crc32c_append_portable(0, head), tail), expected);
    }
}

/// Every job of every committed matrix fixture, and a fixed storm of
/// mutants of one of them, which must include payloads both paths accept
/// and payloads both reject.
#[test]
fn committed_fixtures_and_their_mutants_agree() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/matrix");
    let mut stores: Vec<ArchiveStore> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|entry| ArchiveStore::load(entry.expect("entry").path()).expect("fixture loads"))
        .collect();
    assert!(stores.len() >= 5);
    for archive in stores.iter().flat_map(ArchiveStore::iter) {
        let bytes = payload(archive);
        assert_eq!(bytes, oracle_encode(archive));
        assert!(agree_all(&bytes).unwrap());
    }
    let archive = stores.swap_remove(0).iter().next().cloned().expect("a job");
    let (bytes, value) = (payload(&archive), archive.to_value());
    let mut rng = TestRng::from_seed_u64(42);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..100 {
        for mutant in [
            byte_mutant(&bytes, &mut rng),
            value_mutant(&value, &mut rng),
        ] {
            match agree::<JobArchive>(&mutant) {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(e) => panic!("{e:?}"),
            }
        }
    }
    assert!(
        accepted > 10 && rejected > 10,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Keys in any order, unknown keys skipped, the first duplicate wins, and
/// a missing key is an error: the `from_field` rules, on the direct path.
#[test]
fn object_keys_follow_the_from_field_rules() {
    let run = RunMeta::new("r1", 7, "label");
    let Value::Object(pairs) = run.to_value() else {
        panic!("a struct is an object");
    };
    let encode = |pairs: Vec<(String, Value)>| {
        let mut out = Vec::new();
        encode_value(&Value::Object(pairs), &mut out);
        out
    };
    let mut reversed = pairs.clone();
    reversed.reverse();
    reversed.insert(1, ("unknown".into(), Value::Array(vec![Value::Null; 3])));
    assert_eq!(decode_payload::<RunMeta>(&encode(reversed)).unwrap(), run);
    let mut duplicated = pairs.clone();
    duplicated.push(("run_id".into(), Value::Str("second".into())));
    assert_eq!(decode_payload::<RunMeta>(&encode(duplicated)).unwrap(), run);
    let mut bad_duplicate = pairs.clone();
    bad_duplicate.push(("run_id".into(), Value::Int(3)));
    assert_eq!(
        decode_payload::<RunMeta>(&encode(bad_duplicate)).unwrap(),
        run
    );
    let missing = pairs[1..].to_vec();
    assert!(matches!(
        decode_payload::<RunMeta>(&encode(missing)),
        Err(BinError::De(_))
    ));
    // Keys are compared as bytes, but an unknown key must still be UTF-8.
    let mut bad_key = vec![TAG_OBJECT, 4, 2, 0xC3, 0x28, TAG_NULL];
    bad_key.extend_from_slice(&encode(pairs)[2..]);
    assert!(decode_payload::<RunMeta>(&bad_key).is_err());
    assert!(matches!(
        oracle_decode::<RunMeta>(&bad_key),
        Err(BinError::BadUtf8)
    ));
}
