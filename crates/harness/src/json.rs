//! Minimal JSON value, serializer, and parser.
//!
//! The result cache persists job artifacts as JSON files; the workspace
//! builds with no registry access, so instead of `serde`/`serde_json`
//! this module implements the small subset the harness needs: a value
//! tree, a compact serializer whose `f64` formatting round-trips
//! exactly (Rust's shortest-representation float printing), and a
//! recursive-descent parser.
//!
//! Non-finite numbers cannot be represented in JSON; they serialize as
//! `null`, which makes the artifact fail decoding on reload — the cache
//! then treats it as a miss and recomputes, which is the safe behavior.
//!
//! # Example
//!
//! ```
//! use nemscmos_harness::json::Json;
//!
//! let v = Json::Obj(vec![
//!     ("delay".into(), Json::Num(1.25e-10)),
//!     ("tags".into(), Json::Arr(vec![Json::Str("or8".into())])),
//! ]);
//! let text = v.render();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use nemscmos_numeric::stats::Summary;
use nemscmos_spice::stats::{Counter, SolverStats};

/// A JSON value. Object keys keep insertion order (stable serialization
/// for content addressing).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number.
    Num(f64),
    /// An integer (counters, sizes). Kept separate from [`Num`](Json::Num)
    /// so it renders without a fractional suffix — `1039`, not `1039.0`.
    /// The parser yields `Int` for any number token without `.`/`e`/`E`
    /// that fits an `i64`, and the numeric codecs accept either form, so
    /// artifacts written before this variant existed still decode.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a finite `Num` or an `Int`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) if v.is_finite() => Some(*v),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The integer, if this is an `Int` or an integral `Num`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(v)
                if v.is_finite()
                    && v.fract() == 0.0
                    && (i64::MIN as f64..=i64::MAX as f64).contains(v) =>
            {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest string that parses back to
                    // the same f64 (always contains '.', 'e', or is integral
                    // — all valid JSON).
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => out.push_str(&format!("{i}")),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not produced by our serializer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // Digit-only tokens become `Int`; anything fractional/exponential (or
    // too large for i64) stays a float. Old artifacts render integral
    // floats as e.g. `4.0`, so they keep parsing as `Num`.
    if !text.bytes().any(|c| matches!(c, b'.' | b'e' | b'E')) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

/// Conversion between a result type and its cached JSON artifact.
///
/// Implement this for any experiment result that should be cacheable.
/// `from_json` returns `None` on any shape mismatch — the cache treats
/// that as a miss and recomputes.
pub trait JsonCodec: Sized {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
    /// Decodes a value; `None` on mismatch.
    fn from_json(v: &Json) -> Option<Self>;
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

impl JsonCodec for u64 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Num(*self as f64),
        }
    }
    fn from_json(v: &Json) -> Option<u64> {
        if let Json::Int(i) = v {
            return u64::try_from(*i).ok();
        }
        // Legacy form: counters were serialized as floats (`1039.0`).
        let f = v.as_f64()?;
        (f >= 0.0 && f.fract() == 0.0 && f <= 2f64.powi(53)).then_some(f as u64)
    }
}

impl JsonCodec for usize {
    fn to_json(&self) -> Json {
        (*self as u64).to_json()
    }
    fn from_json(v: &Json) -> Option<usize> {
        u64::from_json(v).map(|n| n as usize)
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Option<String> {
        v.as_str().map(str::to_owned)
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(JsonCodec::to_json).collect())
    }
    fn from_json(v: &Json) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<A: JsonCodec, B: JsonCodec> JsonCodec for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(v: &Json) -> Option<(A, B)> {
        match v.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

impl JsonCodec for Summary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), self.count.to_json()),
            ("mean".into(), Json::Num(self.mean)),
            ("std_dev".into(), Json::Num(self.std_dev)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ])
    }
    fn from_json(v: &Json) -> Option<Summary> {
        Some(Summary {
            count: usize::from_json(v.get("count")?)?,
            mean: v.get("mean")?.as_f64()?,
            std_dev: v.get("std_dev")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    }
}

impl JsonCodec for SolverStats {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(counter, n)| (counter.key().into(), n.to_json()))
                .collect(),
        )
    }
    fn from_json(v: &Json) -> Option<SolverStats> {
        let mut stats = SolverStats::ZERO;
        for counter in Counter::ALL {
            *stats.get_mut(counter) = match v.get(counter.key()) {
                Some(x) => u64::from_json(x)?,
                None if counter.is_required() => return None,
                // Cache entries written before an optional counter
                // existed decode with it at zero.
                None => 0,
            };
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.5),
            Json::Num(-1.25e-300),
            Json::Num(6.02214076e23),
            Json::Int(0),
            Json::Int(1039),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Str("hello \"world\"\n\tπ".into()),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn integers_render_bare_and_floats_keep_suffix() {
        assert_eq!(Json::Int(1039).render(), "1039");
        // Integral floats keep their fractional suffix, so the legacy
        // float form of a counter still round-trips as `Num` and the two
        // variants never collide in rendered output.
        assert_eq!(Json::Num(1039.0).render(), "1039.0");
        assert_eq!(Json::parse("1039.0").unwrap(), Json::Num(1039.0));
        assert_eq!(Json::parse("1039").unwrap(), Json::Int(1039));
        // Digit-only tokens too large for i64 fall back to Num.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(1e20)
        );
        // Either numeric variant satisfies the numeric accessors.
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert_eq!(Json::Int(7).as_i64(), Some(7));
        assert_eq!(Json::Num(7.0).as_i64(), Some(7));
        assert_eq!(Json::Num(7.5).as_i64(), None);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            (
                "b".into(),
                Json::Obj(vec![("x".into(), Json::Str(String::new()))]),
            ),
            ("c".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn float_bits_survive_round_trip() {
        let tricky = [1.0 / 3.0, f64::MIN_POSITIVE, 1e-308 * 0.5, 0.1 + 0.2];
        for &x in &tricky {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x:e}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "nul", "\"abc", "1.2.3", "{}x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "aA\n"
        );
    }

    #[test]
    fn codec_round_trips_composites() {
        let v: Vec<(f64, f64)> = vec![(0.0, 1.5), (2.5, -3.0)];
        assert_eq!(Vec::<(f64, f64)>::from_json(&v.to_json()), Some(v));

        let s = Summary {
            count: 4,
            mean: 1.0,
            std_dev: 0.5,
            min: 0.1,
            max: 2.0,
        };
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));

        // The float form written by older builds still decodes.
        let float_form = Json::parse(
            r#"{"newton":12.0,"lu":12.0,"rejected":1.0,"accepted":40.0,"nonconv":0.0}"#,
        )
        .unwrap();
        let decoded = SolverStats::from_json(&float_form).unwrap();
        assert_eq!(decoded.newton_iterations, 12);
        assert_eq!(decoded.steps_accepted, 40);

        // Entries cached before the fast-path counters existed decode
        // with those counters at zero.
        let legacy =
            Json::parse(r#"{"newton":12,"lu":12,"rejected":1,"accepted":40,"nonconv":0}"#).unwrap();
        let decoded = SolverStats::from_json(&legacy).unwrap();
        assert_eq!(decoded.newton_iterations, 12);
        assert_eq!(decoded.slot_cache_hits, 0);
        assert_eq!(decoded.bypass_solves, 0);
        assert_eq!(decoded.batched_evals, 0);
        assert_eq!(decoded.device_eval_ns, 0);
        assert_eq!(decoded.linear_solve_ns, 0);

        // Entries from the linear-algebra-fast-path era (slot/bypass keys
        // present, attribution keys absent) also default the new trio.
        let pre_attr = Json::parse(
            r#"{"newton":2,"lu":2,"rejected":0,"accepted":4,"nonconv":0,
                "slot_hits":1,"sym_reuse":1,"refac_fb":0,"bypass":1}"#,
        )
        .unwrap();
        let decoded = SolverStats::from_json(&pre_attr).unwrap();
        assert_eq!(decoded.slot_cache_hits, 1);
        assert_eq!(decoded.batched_evals, 0);
        assert_eq!(decoded.device_eval_ns, 0);
        assert_eq!(decoded.linear_solve_ns, 0);
        assert_eq!(decoded.fill_nnz, 0);
        assert_eq!(decoded.ordering_ns, 0);
    }

    #[test]
    fn solver_stats_codec_covers_every_counter() {
        // A distinct value per counter round-trips, as a bare integer.
        let st = SolverStats::from_fn(|c| 1_000 + 37 * c as u64);
        let encoded = st.to_json();
        assert_eq!(SolverStats::from_json(&encoded), Some(st));
        let Json::Obj(pairs) = &encoded else {
            panic!("SolverStats encodes as an object")
        };
        assert_eq!(pairs.len(), Counter::COUNT);
        for ((key, v), counter) in pairs.iter().zip(Counter::ALL) {
            assert_eq!(key, counter.key());
            assert_eq!(*v, Json::Int(st.get(counter) as i64));
        }

        // Removing a key: optional counters decode as zero, required
        // ones make the whole entry a cache miss.
        for counter in Counter::ALL {
            let pruned = Json::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| k != counter.key())
                    .cloned()
                    .collect(),
            );
            let decoded = SolverStats::from_json(&pruned);
            if counter.is_required() {
                assert_eq!(decoded, None, "{counter:?}");
            } else {
                let mut expect = st;
                *expect.get_mut(counter) = 0;
                assert_eq!(decoded, Some(expect), "{counter:?}");
            }
        }
    }

    #[test]
    fn solver_stats_encoding_keeps_its_original_prefix() {
        // The first fourteen counters render exactly as before the
        // counter table existed; later rows append after them.
        let st = SolverStats {
            newton_iterations: 12,
            lu_factorizations: 12,
            step_rejections: 1,
            steps_accepted: 40,
            nonconvergence_events: 0,
            slot_cache_hits: 7,
            symbolic_reuses: 6,
            refactor_fallbacks: 1,
            bypass_solves: 3,
            batched_evals: 9,
            device_eval_ns: 123_456,
            linear_solve_ns: 654_321,
            fill_nnz: 2_048,
            ordering_ns: 77,
            ..Default::default()
        };
        let rendered = st.to_json().render();
        let original = r#"{"newton":12,"lu":12,"rejected":1,"accepted":40,"nonconv":0,"slot_hits":7,"sym_reuse":6,"refac_fb":1,"bypass":3,"batched":9,"eval_ns":123456,"solve_ns":654321,"fill_nnz":2048,"ordering_ns":77"#;
        let rest = rendered
            .strip_prefix(original)
            .unwrap_or_else(|| panic!("{rendered}"));
        assert!(rest == "}" || rest.starts_with(','), "{rendered}");
    }

    #[test]
    fn codec_rejects_shape_mismatch() {
        assert_eq!(f64::from_json(&Json::Str("1.0".into())), None);
        assert_eq!(u64::from_json(&Json::Num(-1.0)), None);
        assert_eq!(u64::from_json(&Json::Num(1.5)), None);
        assert_eq!(u64::from_json(&Json::Int(-1)), None);
        assert_eq!(u64::from_json(&Json::Int(7)), Some(7));
        assert_eq!(Vec::<f64>::from_json(&Json::Arr(vec![Json::Null])), None);
    }
}
