//! Generated tests of the wire codec: seeded random JSON values and
//! request lines, rendered, cut short and edited, through
//! `json::parse` and `proto::parse_request`.
//!
//! Every case is drawn from a `SimRng` seeded by its index, so a failure
//! names a seed that reproduces it.

use rlpm_serve::json::{self, ParseError, Value, MAX_DEPTH};
use rlpm_serve::proto::{self, ErrorCode, REQUEST_TYPES};
use simkit::SimRng;

/// The characters strings are drawn from: every escape class the
/// renderer writes (`"`, `\`, the five short escapes, `\u00XX` control
/// characters), `/` and DEL, which it writes raw, JSON punctuation, and
/// multi-byte UTF-8 up to a four-byte scalar.
const STRING_CHARS: &[char] = &[
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{08}',
    '\u{0C}',
    '\u{00}',
    '\u{01}',
    '\u{1F}',
    '/',
    '\u{7F}',
    'a',
    'Z',
    '0',
    ' ',
    '{',
    ']',
    ':',
    ',',
    '\u{E9}',
    '\u{20AC}',
    '\u{1F600}',
];

/// The characters random edits insert: JSON's structural and number
/// characters, escapes, literal letters, whitespace, a raw control
/// character and multi-byte UTF-8.
const EDIT_CHARS: &[char] = &[
    '{',
    '}',
    '[',
    ']',
    ',',
    ':',
    '"',
    '\\',
    'u',
    '0',
    '9',
    '-',
    '+',
    '.',
    'e',
    'E',
    't',
    'n',
    'f',
    ' ',
    '\n',
    '\u{01}',
    'x',
    '\u{E9}',
    '\u{1F600}',
];

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.uniform_usize(items.len())]
}

fn random_string(rng: &mut SimRng) -> String {
    let len = rng.uniform_usize(8);
    (0..len).map(|_| pick(rng, STRING_CHARS)).collect()
}

/// A finite number: small and 2^53-range integers, short decimals,
/// negative zero, and arbitrary bit patterns (subnormals, extremes).
fn random_number(rng: &mut SimRng) -> f64 {
    match rng.uniform_usize(5) {
        0 => rng.uniform_usize(1000) as f64,
        1 => (rng.next_u64() >> 11) as f64,
        2 => rng.uniform_in(-1e3, 1e3),
        3 => -0.0,
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|x| x.is_finite())
            .unwrap_or(f64::MIN_POSITIVE),
    }
}

fn random_scalar(rng: &mut SimRng) -> Value {
    match rng.uniform_usize(4) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Num(random_number(rng)),
        _ => Value::Str(random_string(rng)),
    }
}

/// A random value at nesting level `depth` with containers nested
/// `spine` levels below it along one path, beside random shallow
/// siblings. No value sits deeper than [`MAX_DEPTH`], the deepest the
/// parser accepts.
fn random_value(rng: &mut SimRng, depth: usize, spine: usize) -> Value {
    if spine == 0 && (depth == MAX_DEPTH || rng.chance(0.75)) {
        return random_scalar(rng);
    }
    let len = usize::from(spine > 0) + rng.uniform_usize(3);
    let at = rng.uniform_usize(len.max(1));
    let items: Vec<Value> = (0..len)
        .map(|i| {
            if i == at && spine > 0 {
                random_value(rng, depth + 1, spine - 1)
            } else {
                random_value(rng, depth + 1, 0)
            }
        })
        .collect();
    if rng.chance(0.5) {
        Value::Arr(items)
    } else {
        Value::Obj(items.into_iter().map(|v| (random_string(rng), v)).collect())
    }
}

/// The value of case `seed`: nested anywhere from zero to
/// [`MAX_DEPTH`] levels deep, every tenth case exactly that deep.
fn case(seed: u64) -> Value {
    let mut rng = SimRng::seed_from(seed);
    let spine = if seed.is_multiple_of(10) {
        MAX_DEPTH
    } else {
        rng.uniform_usize(MAX_DEPTH + 1)
    };
    random_value(&mut rng, 0, spine)
}

/// A value of case `seed` nested at most 12 levels deep, short enough
/// to parse at every cut.
fn shallow_case(seed: u64) -> Value {
    let mut rng = SimRng::seed_from(seed);
    let spine = rng.uniform_usize(13);
    random_value(&mut rng, 0, spine)
}

/// The byte offset a parse error points at.
fn offset(e: &ParseError) -> usize {
    match e {
        ParseError::Unexpected(at)
        | ParseError::BadNumber(at)
        | ParseError::BadString(at)
        | ParseError::TooDeep(at)
        | ParseError::Trailing(at) => *at,
    }
}

/// Parses `text`, requiring a typed error to point inside it, and an
/// accepted value to render back to text that parses to itself.
fn parse_total(text: &str) -> Result<Value, ParseError> {
    let parsed = json::parse(text);
    match &parsed {
        Ok(v) => assert_eq!(json::parse(&v.render()).as_ref(), Ok(v), "{text:?}"),
        Err(e) => assert!(offset(e) <= text.len(), "{e:?} past the end of {text:?}"),
    }
    parsed
}

/// `text` with one to three random character edits: a deletion, an
/// insertion or a replacement from [`EDIT_CHARS`].
fn edit(rng: &mut SimRng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.uniform_usize(3) {
        let at = rng.uniform_usize(chars.len() + 1);
        match rng.uniform_usize(3) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = pick(rng, EDIT_CHARS),
            _ => chars.insert(at, pick(rng, EDIT_CHARS)),
        }
    }
    chars.into_iter().collect()
}

/// Every strict prefix of `text` that ends on a character boundary.
fn prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len())
        .filter(|&end| text.is_char_boundary(end))
        .map(|end| &text[..end])
}

#[test]
fn generated_values_round_trip_compact_and_pretty() {
    for seed in 0..300 {
        let v = case(seed);
        let compact = v.render();
        assert!(
            !compact.contains('\n'),
            "seed {seed}: a wire line holds no raw newline"
        );
        assert_eq!(
            json::parse(&compact),
            Ok(v.clone()),
            "seed {seed}: {compact}"
        );
        let pretty = v.render_pretty();
        assert_eq!(json::parse(&pretty), Ok(v), "seed {seed}: {pretty}");
    }
}

#[test]
fn generated_values_nest_to_the_depth_limit_and_no_further() {
    let deepest = (0..100).step_by(10).map(case);
    for (i, v) in deepest.enumerate() {
        assert!(json::parse(&v.render()).is_ok(), "case {i}");
        let wrapped = Value::Arr(vec![v]).render();
        assert!(
            matches!(json::parse(&wrapped), Err(ParseError::TooDeep(_))),
            "case {i}: one level past MAX_DEPTH must be refused"
        );
    }
}

#[test]
fn cut_or_followed_rendered_values_are_typed_errors() {
    for seed in 0..200 {
        let v = shallow_case(seed);
        for text in [v.render(), v.render_pretty()] {
            for prefix in prefixes(&text) {
                // Only a number can be cut to a shorter valid value.
                let parsed = parse_total(prefix);
                assert!(
                    parsed.is_err() || matches!(v, Value::Num(_)),
                    "seed {seed}: prefix {prefix:?} parsed"
                );
            }
            for stray in ['x', ',', ':', ']', '}', '"', '['] {
                let followed = format!("{text}{stray}");
                assert_eq!(
                    json::parse(&followed),
                    Err(ParseError::Trailing(text.len())),
                    "seed {seed}: {followed:?}"
                );
            }
        }
    }
}

#[test]
fn random_edits_of_rendered_values_parse_or_fail_typed() {
    for seed in 0..300 {
        let v = case(seed);
        let mut rng = SimRng::seed_from(seed ^ 0xED17);
        for text in [v.render(), v.render_pretty()] {
            for _ in 0..16 {
                let _ = parse_total(&edit(&mut rng, &text));
            }
        }
    }
}

/// A random value for a request field: mostly what the field takes
/// (names, small integers, booleans), but also integers past `u32` and
/// past 2^53, fractions, negatives, and the wrong JSON type.
fn random_field(rng: &mut SimRng) -> Value {
    match rng.uniform_usize(10) {
        0 => Value::str(pick(rng, &["video", "mixed", "idle", "e1", "rlpm", "xu3"])),
        1 | 2 => Value::num_u64(rng.uniform_usize(200) as u64),
        3 | 4 => Value::num_u64((1 << 32) | (rng.next_u64() >> 40)),
        5 => Value::Num(9_007_199_254_740_994.0),
        6 => Value::Num(-1.0),
        7 => Value::Num(2.5),
        8 => Value::Bool(rng.chance(0.5)),
        _ => random_value(rng, 1, 0),
    }
}

/// The fields each request type reads, in [`REQUEST_TYPES`] order.
const FIELDS: [&[&str]; 7] = [
    &["version"],
    &["scenario", "policy", "soc", "secs", "seed"],
    &["scenario", "soc", "episodes", "episode-secs", "seed"],
    &["experiment", "quick"],
    &["scenario", "policy", "soc", "lanes", "secs", "seed"],
    &[],
    &[],
];

/// A random request line: usually a known `type`, each of its fields
/// set to a random value half the time, an optional `id`, and a field
/// it does not read; sometimes an unknown or non-string `type`, or none.
fn random_request(rng: &mut SimRng) -> Value {
    let mut members = Vec::new();
    if rng.chance(0.5) {
        members.push(("id".to_owned(), random_value(rng, 1, 0)));
    }
    let kind = rng.uniform_usize(REQUEST_TYPES.len());
    match rng.uniform_usize(10) {
        0 => members.push(("type".to_owned(), Value::str("bogus"))),
        1 => members.push(("type".to_owned(), random_field(rng))),
        2 => {}
        _ => members.push(("type".to_owned(), Value::str(REQUEST_TYPES[kind]))),
    }
    for field in FIELDS[kind] {
        if rng.chance(0.5) {
            members.push(((*field).to_owned(), random_field(rng)));
        }
    }
    if rng.chance(0.3) {
        let other = pick(rng, &FIELDS[..5]);
        members.push((pick(rng, other).to_owned(), random_field(rng)));
    }
    Value::Obj(members)
}

/// Validates one line as the server does, JSON first, then the request:
/// the outcome is a request or a typed error of either layer.
fn validate(line: &str) -> Result<proto::Envelope, String> {
    let parsed = parse_total(line).map_err(|e| format!("json: {e}"))?;
    match proto::parse_request(&parsed) {
        Ok(envelope) => {
            assert_eq!(
                parsed.get("type").and_then(Value::as_str),
                Some(envelope.request.wire_name()),
                "{line}"
            );
            assert_eq!(envelope.id, proto::request_id(&parsed), "{line}");
            Ok(envelope)
        }
        Err(e) => {
            assert!(
                matches!(e.code, ErrorCode::BadRequest | ErrorCode::UnknownType),
                "{line}: {e:?}"
            );
            Err(format!("request: {}", e.message))
        }
    }
}

#[test]
fn random_and_truncated_request_lines_get_typed_errors() {
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..1000 {
        let mut rng = SimRng::seed_from(seed);
        let line = random_request(&mut rng).render();
        match validate(&line) {
            Ok(_) => accepted += 1,
            Err(_) => refused += 1,
        }
        // A request line is an object: no strict prefix is valid JSON.
        for prefix in prefixes(&line) {
            assert!(validate(prefix).is_err(), "seed {seed}: {prefix:?}");
        }
        for _ in 0..8 {
            let _ = validate(&edit(&mut rng, &line));
        }
    }
    assert!(
        accepted > 50 && refused > 50,
        "{accepted} accepted, {refused} refused"
    );
}
