//! The `FTBB-*` stdout line codec.
//!
//! The daemon talks to its launcher through single-line, machine-parseable
//! stdout records: `FTBB-READY` (listener bound), `FTBB-METRICS` (interval
//! snapshots), `FTBB-OUTCOME` (final report), `FTBB-JOB` / `FTBB-SERVICE`
//! (service mode). They all share one shape — `TAG key=value key=value …`
//! with whitespace-free values — so the formatter and the field scanner
//! live here once instead of being hand-rolled per tag, and
//! `line_codec!` derives a line's parsed struct, renderer and parser
//! from one row per field. Parsers are total: any malformed line yields
//! `None`, never a panic, because launchers scan whole stdout streams that
//! also carry arbitrary diagnostic output.

use ftbb_core::{PhaseTimes, TimeCategory};
use ftbb_runtime::TransportStats;
use std::collections::HashMap;
use std::fmt::{Display, Write};

/// Builds one `TAG key=value …` line field by field.
pub(crate) struct LineWriter(String);

impl LineWriter {
    /// Start a line with its tag.
    pub(crate) fn new(tag: &str) -> LineWriter {
        let mut out = String::with_capacity(256);
        out.push_str(tag);
        LineWriter(out)
    }

    /// Append one ` key=value` field. Neither side may contain
    /// whitespace (debug-asserted): the scanner splits on it.
    pub(crate) fn push(&mut self, key: &str, value: impl Display) {
        let start = self.0.len() + 1;
        write!(self.0, " {key}={value}").expect("writing to a String cannot fail");
        debug_assert!(
            !self.0[start..].contains(char::is_whitespace),
            "line fields must be whitespace-free: {}",
            &self.0[start..]
        );
    }

    /// The finished line.
    pub(crate) fn finish(self) -> String {
        self.0
    }
}

/// Render one `TAG key=value …` line. Values must not contain whitespace
/// (debug-asserted): the scanner splits on it.
pub fn render_line(tag: &str, fields: &[(&str, String)]) -> String {
    let mut line = LineWriter::new(tag);
    for (k, v) in fields {
        line.push(k, v);
    }
    line.finish()
}

/// A struct that occupies several fields of a line, under keys it owns
/// (the `group()` encoding of [`line_codec!`]).
pub(crate) trait LineGroup: Sized {
    /// Append every field of the group.
    fn put(&self, line: &mut LineWriter);
    /// Read the group back; `None` if any of its keys is missing or
    /// malformed.
    fn get(f: &Fields) -> Option<Self>;
}

/// Every transport counter, under the key its declaration names.
impl LineGroup for TransportStats {
    fn put(&self, line: &mut LineWriter) {
        for (key, value) in self.keyed() {
            line.push(key, value);
        }
    }

    fn get(f: &Fields) -> Option<Self> {
        TransportStats::from_keyed(|key| f.u64(key))
    }
}

/// The Figure-3 breakdown: `<category>_s` seconds with microsecond
/// resolution, in [`TimeCategory::ALL`] order.
impl LineGroup for PhaseTimes {
    fn put(&self, line: &mut LineWriter) {
        for cat in TimeCategory::ALL {
            line.push(
                &format!("{}_s", cat.name()),
                format_args!("{:.6}", self.get(cat)),
            );
        }
    }

    fn get(f: &Fields) -> Option<Self> {
        let mut phase = PhaseTimes::default();
        for cat in TimeCategory::ALL {
            phase.add(cat, f.f64(&format!("{}_s", cat.name()))?);
        }
        Some(phase)
    }
}

/// Declares one `FTBB-*` line once and derives its parsed struct, its
/// renderer and its parser, so a field is one row instead of three
/// listings that must be kept in step.
///
/// Each row reads `field: Type = encoding("key") <- value`, in line
/// order: `field: Type` is the parsed struct's public field, `value` the
/// expression (over the renderer's arguments) that fills it, and the
/// encoding says how it crosses the line —
///
/// * `num` — `Display` out, `FromStr` back (integers, `bool`);
/// * `added` — like `num`, but a line without the key parses as the
///   type's default: for a key added after lines without it were written
///   (and hand-written by readers);
/// * `secs` — an `f64` as decimal seconds with microsecond resolution;
/// * `bits` — an `f64` as its exact bit pattern ([`render_f64_bits`]);
/// * `group()` — a [`LineGroup`], which brings its own keys.
///
/// A row may end in `; "key" = expr`: a render-only companion field
/// (a human-readable duplicate or a derived ratio) the parser ignores.
macro_rules! line_codec {
    (
        tag $tag:literal;
        $(#[$smeta:meta])*
        pub struct $Parsed:ident;
        $(#[$rmeta:meta])*
        pub fn $render:ident($($arg:ident: $Arg:ty),+);
        $(#[$pmeta:meta])*
        pub fn $parse:ident;
        fields {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty = $enc:ident($($key:literal)?) <- $value:expr
                $(; $xkey:literal = $xvalue:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $Parsed {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        $(#[$rmeta])*
        pub fn $render($($arg: $Arg),+) -> String {
            let mut line = $crate::lines::LineWriter::new($tag);
            $(
                line_codec!(@put $enc($($key)?) line, $value);
                $( line.push($xkey, $xvalue); )?
            )*
            line.finish()
        }

        $(#[$pmeta])*
        pub fn $parse(line: &str) -> Option<$Parsed> {
            let f = $crate::lines::Fields::parse($tag, line)?;
            Some($Parsed {
                $( $field: line_codec!(@get $enc($($key)?) f), )*
            })
        }
    };
    (@put num($key:literal) $line:ident, $v:expr) => { $line.push($key, $v) };
    (@put added($key:literal) $line:ident, $v:expr) => { $line.push($key, $v) };
    (@put secs($key:literal) $line:ident, $v:expr) => {
        $line.push($key, format_args!("{:.6}", $v))
    };
    (@put bits($key:literal) $line:ident, $v:expr) => {
        $line.push($key, $crate::lines::render_f64_bits($v))
    };
    (@put group() $line:ident, $v:expr) => { $crate::lines::LineGroup::put(&$v, &mut $line) };
    (@get num($key:literal) $f:ident) => { $f.get($key)?.parse().ok()? };
    (@get added($key:literal) $f:ident) => {
        match $f.get($key) {
            Some(v) => v.parse().ok()?,
            None => Default::default(),
        }
    };
    (@get secs($key:literal) $f:ident) => { $f.f64($key)? };
    (@get bits($key:literal) $f:ident) => { $f.f64_bits($key)? };
    (@get group() $f:ident) => { $crate::lines::LineGroup::get(&$f)? };
}
pub(crate) use line_codec;

/// The parsed fields of one `TAG key=value …` line, with typed accessors.
/// Obtained from [`Fields::parse`]; borrowed from the input line.
pub struct Fields<'a> {
    map: HashMap<&'a str, &'a str>,
}

impl<'a> Fields<'a> {
    /// Scan `line` as a `tag key=value …` record. `None` if the tag does
    /// not match or any token after it lacks a `=`.
    pub fn parse(tag: &str, line: &'a str) -> Option<Fields<'a>> {
        let rest = line.trim().strip_prefix(tag)?;
        // The tag must be a whole token: either the line is exactly the
        // tag, or a space follows it.
        let rest = if rest.is_empty() {
            rest
        } else {
            rest.strip_prefix(' ')?
        };
        let mut map = HashMap::new();
        for pair in rest.split_whitespace() {
            let (k, v) = pair.split_once('=')?;
            map.insert(k, v);
        }
        Some(Fields { map })
    }

    /// Raw field value.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.map.get(key).copied()
    }

    /// Field parsed as `u64`.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// Field parsed as `u32`.
    pub fn u32(&self, key: &str) -> Option<u32> {
        self.get(key)?.parse().ok()
    }

    /// Field parsed as `f64` (decimal text; see [`Fields::f64_bits`] for
    /// the exact-bits encoding).
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Field parsed as `bool` (`true`/`false`).
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// Field carrying exact `f64` bits in the `{:#018x}` form
    /// ([`render_f64_bits`]); survives round trips bit-for-bit where
    /// decimal text would not.
    pub fn f64_bits(&self, key: &str) -> Option<f64> {
        let hex = self.get(key)?.strip_prefix("0x")?;
        u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
    }
}

/// Render an `f64` as its exact bit pattern (`0x…`, 16 hex digits) for a
/// field that must round-trip bit-for-bit.
pub fn render_f64_bits(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let line = render_line(
            "FTBB-TEST",
            &[
                ("id", "7".to_string()),
                ("ok", "true".to_string()),
                ("x", render_f64_bits(-0.125)),
                ("rate", "1.5".to_string()),
            ],
        );
        let f = Fields::parse("FTBB-TEST", &line).expect("parses");
        assert_eq!(f.u32("id"), Some(7));
        assert_eq!(f.u64("id"), Some(7));
        assert_eq!(f.bool("ok"), Some(true));
        assert_eq!(f.f64_bits("x"), Some(-0.125));
        assert_eq!(f.f64("rate"), Some(1.5));
        assert_eq!(f.get("missing"), None);
        assert_eq!(f.u64("ok"), None);
    }

    #[test]
    fn parse_is_total_and_tag_strict() {
        assert!(Fields::parse("FTBB-TEST", "FTBB-TEST").is_some());
        assert!(Fields::parse("FTBB-TEST", "  FTBB-TEST a=1  ").is_some());
        assert!(Fields::parse("FTBB-TEST", "FTBB-TESTY a=1").is_none());
        assert!(Fields::parse("FTBB-TEST", "FTBB-OTHER a=1").is_none());
        assert!(Fields::parse("FTBB-TEST", "FTBB-TEST a=1 naked").is_none());
        assert!(Fields::parse("FTBB-TEST", "").is_none());
        assert!(Fields::parse("FTBB-TEST", "noise before FTBB-TEST a=1").is_none());
    }
}
