//! The one format of the `BENCH_*.json` bench artifacts: a flat JSON
//! object with one `"key": value` line per entry. Nested blocks are
//! flattened into `_`-joined keys (`extract_bound_verdict`).
//! [`BenchRecord::parse`] accepts exactly what [`BenchRecord::to_json`]
//! writes, so an accepted text round-trips byte for byte.

use std::fmt;

/// One artifact value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number and the decimals it is printed with.
    Num(f64, usize),
    /// A bool.
    Bool(bool),
    /// A string with no `"`, `\` or control character, printed unescaped.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(value, decimals) => write!(out, "{value:.decimals$}"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Str(s) => write!(out, "\"{s}\""),
        }
    }
}

/// A bench artifact: `key → value` entries in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRecord {
    entries: Vec<(String, Value)>,
}

fn plain_key(key: &str) -> bool {
    !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

impl BenchRecord {
    /// Appends `key`. A key outside `[A-Za-z0-9_]+`, a repeated key or a
    /// value `parse` could not read back is a bug in the writer and panics.
    pub fn put(&mut self, key: &str, value: Value) -> &mut Self {
        let fresh = plain_key(key) && self.get(key).is_err();
        assert!(fresh, "bench key {key:?} is malformed or repeated");
        let text = value.to_string();
        assert!(parse_value(&text).is_ok(), "bench value {key:?}: {text}");
        self.entries.push((key.to_string(), value));
        self
    }

    /// Appends a number printed with `decimals` digits after the point.
    pub fn put_num(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.put(key, Value::Num(value, decimals))
    }

    /// Appends a count.
    pub fn put_int(&mut self, key: &str, value: u64) -> &mut Self {
        self.put_num(key, value as f64, 0)
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        let entry = self.entries.iter().find(|(k, _)| k == key);
        entry.map(|e| &e.1).ok_or(format!("missing key {key:?}"))
    }

    /// The number under `key`.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Num(value, _) => Ok(*value),
            _ => Err(format!("key {key:?} is not a number")),
        }
    }

    /// `{`, one `  "key": value` line per entry, `}` and a newline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out += &format!("  \"{key}\": {value}{comma}\n");
        }
        out + "}\n"
    }

    /// Reads the layout [`BenchRecord::to_json`] writes. Anything else — a
    /// nested object, a repeated key, a number `to_json` would print
    /// differently (`1e3`, `NaN`, `01`), an escaped string — is an error
    /// naming the key or line at fault.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let body = text.strip_prefix("{\n").ok_or("no `{` line first")?;
        let body = body
            .strip_suffix("}\n")
            .filter(|b| b.is_empty() || b.ends_with('\n'))
            .ok_or_else(|| format!("no `}}` line after {body:?}"))?;
        let lines: Vec<&str> = body.split_terminator('\n').collect();
        let mut record = BenchRecord::default();
        for (i, line) in lines.iter().enumerate() {
            let (key, value) = line
                .strip_prefix("  \"")
                .and_then(|entry| entry.split_once("\": "))
                .filter(|(key, _)| plain_key(key))
                .ok_or_else(|| format!("line {line:?} is not `  \"key\": value`"))?;
            let value = match value.strip_suffix(',') {
                Some(value) if i + 1 < lines.len() => value,
                _ if i + 1 < lines.len() => return Err(format!("no `,` after key {key:?}")),
                _ => value,
            };
            let value = parse_value(value).map_err(|e| format!("key {key:?}: {e}"))?;
            if record.get(key).is_ok() {
                return Err(format!("duplicate key {key:?}"));
            }
            record.entries.push((key.to_string(), value));
        }
        Ok(record)
    }
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Ok(b) = text.parse() {
        return Ok(Value::Bool(b));
    }
    if let Some(s) = text.strip_prefix('"') {
        return match s.strip_suffix('"') {
            Some(s) if !s.chars().any(|c| c == '"' || c == '\\' || c.is_control()) => {
                Ok(Value::Str(s.to_string()))
            }
            _ => Err(format!("{text} is not an escape-free string")),
        };
    }
    // A number must print back to the same text, which rules out
    // exponents, a leading `+` or zero, NaN and infinities.
    let decimals = text.split_once('.').map_or(0, |(_, frac)| frac.len());
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() && format!("{value:.decimals$}") == text => {
            Ok(Value::Num(value, decimals))
        }
        _ => Err(format!("{text} is not a plain decimal number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_artifacts_round_trip_byte_for_byte() {
        for text in [
            include_str!("../../../BENCH_fastpath.json"),
            include_str!("../../../BENCH_wire.json"),
            include_str!("../../../BENCH_durability.json"),
            include_str!("../../../BENCH_trace.json"),
            include_str!("../../../BENCH_tenancy.json"),
            include_str!("../../../BENCH_autotune.json"),
        ] {
            let back = BenchRecord::parse(text).map(|r| r.to_json());
            assert_eq!(back.as_deref(), Ok(text));
        }
    }

    #[test]
    fn writes_what_it_reads() {
        let mut rec = BenchRecord::default();
        rec.put_num("delta", -1.952, 3).put_int("n", 8);
        rec.put("verdict", Value::Str("extract".into()));
        let text = "{\n  \"delta\": -1.952,\n  \"n\": 8,\n  \"verdict\": \"extract\"\n}\n";
        assert_eq!(rec.to_json(), text);
        assert_eq!(BenchRecord::parse(text).as_ref(), Ok(&rec));
        assert!(rec.num("verdict").is_err() && rec.num("absent").is_err());
        assert_eq!(BenchRecord::parse("{\n}\n"), Ok(BenchRecord::default()));
    }

    #[test]
    fn parse_rejects_what_to_json_does_not_write() {
        let nested = "  \"extract_bound\": {\"traces\": 32, \"verdict\": \"extract\"}";
        for (body, key) in [
            (nested, "extract_bound"),
            ("  \"samples\": 1,\n  \"samples\": 2", "samples"),
            ("  \"speedup\": NaN", "speedup"),
            ("  \"speedup\": inf", "speedup"),
            ("  \"speedup\": 1e3", "speedup"),
            ("  \"copy_reduction\": null", "copy_reduction"),
            ("  \"frames\": 01", "frames"),
            ("  samples: 1", "samples"),
            ("  \"verdict\": \"ex\\\"tract\"", "verdict"),
            ("  \"a\": 1\n  \"b\": 2", "\"a\""),
            ("  \"a\": 1,", "\"a\""),
        ] {
            let err = BenchRecord::parse(&format!("{{\n{body}\n}}\n")).unwrap_err();
            assert!(err.contains(key), "{body:?}: {err:?} does not name {key}");
        }
        let unclosed = BenchRecord::parse("{\n  \"samples\": 1\n").unwrap_err();
        assert!(unclosed.contains("samples"), "{unclosed}");
        for text in ["", "{}", "{\n}", "{\n  \"a\": 1}\n"] {
            assert!(BenchRecord::parse(text).is_err(), "{text:?}");
        }
    }
}
