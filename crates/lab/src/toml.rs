//! A minimal TOML reader for scenario specs.
//!
//! The workspace builds offline (no registry), so this is a small
//! hand-rolled parser covering the subset the scenario format uses:
//!
//! * `key = value` pairs with string, float/integer, boolean and array
//!   values (arrays may nest and mix, e.g. `[["interactive", 100.0]]`);
//! * `[table]` headers and `[[array-of-tables]]` headers (one nesting
//!   level of dotted names is *not* supported — scenario specs are flat);
//! * `#` comments and blank lines.
//!
//! Anything outside that subset is a parse error with a line number —
//! a scenario spec should never silently lose a key.

use std::collections::BTreeMap;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// Any numeric literal (TOML integers are widened).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `[ ... ]`, possibly nested.
    Arr(Vec<Value>),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, moved out, if this is a string.
    pub fn into_str(self) -> Option<String> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// One flat table of keys.
pub type Table = BTreeMap<String, Value>;

/// A parsed spec file: root keys, named tables, and arrays of tables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    /// Keys above the first header.
    pub root: Table,
    /// `[name]` tables.
    pub tables: BTreeMap<String, Table>,
    /// `[[name]]` arrays of tables, in file order.
    pub arrays: BTreeMap<String, Vec<Table>>,
}

/// Parses a scenario TOML document.
pub fn parse(text: &str) -> Result<Document, String> {
    enum Target {
        Root,
        Table(String),
        Array(String, usize),
    }
    let mut doc = Document::default();
    let mut target = Target::Root;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            let name = name.trim().to_string();
            check_name(&name).map_err(&at)?;
            let list = doc.arrays.entry(name.clone()).or_default();
            list.push(Table::new());
            target = Target::Array(name, list.len() - 1);
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            let name = name.trim().to_string();
            check_name(&name).map_err(&at)?;
            if doc.tables.contains_key(&name) {
                return Err(at(format!("duplicate table [{name}]")));
            }
            doc.tables.insert(name.clone(), Table::new());
            target = Target::Table(name);
            continue;
        }
        let Some(eq) = find_top_level_eq(line) else {
            return Err(at(format!(
                "expected `key = value` or a [header], got {line:?}"
            )));
        };
        let key = line[..eq].trim().to_string();
        check_name(&key).map_err(&at)?;
        let (value, rest) = parse_value(line[eq + 1..].trim()).map_err(&at)?;
        if !rest.trim().is_empty() {
            return Err(at(format!("trailing content after value: {rest:?}")));
        }
        let table = match &target {
            Target::Root => &mut doc.root,
            Target::Table(name) => doc.tables.get_mut(name).expect("current table"),
            Target::Array(name, idx) => &mut doc.arrays.get_mut(name).expect("current array")[*idx],
        };
        if table.insert(key.clone(), value).is_some() {
            return Err(at(format!("duplicate key {key:?}")));
        }
    }
    Ok(doc)
}

/// Strips a `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the `=` separating key from value (keys are bare, so the first
/// `=` outside a string is it).
fn find_top_level_eq(line: &str) -> Option<usize> {
    line.find('=')
}

fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(format!(
            "bad key/table name {name:?} (bare [a-zA-Z0-9_-] only)"
        ));
    }
    Ok(())
}

/// Parses one value off the front of `s`; returns it and the rest.
fn parse_value(s: &str) -> Result<(Value, &str), String> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    other => return Err(format!("unknown string escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        return Err("unterminated string".to_string());
    }
    if let Some(mut rest) = s.strip_prefix('[') {
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::Arr(items), after));
            }
            let (item, after) = parse_value(rest)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else if !rest.starts_with(']') {
                return Err(format!("expected ',' or ']' in array, got {rest:?}"));
            }
        }
    }
    if let Some(rest) = s.strip_prefix("true") {
        return Ok((Value::Bool(true), rest));
    }
    if let Some(rest) = s.strip_prefix("false") {
        return Ok((Value::Bool(false), rest));
    }
    // Number: consume the numeric token.
    let end = s
        .char_indices()
        .find(|(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E' | '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 {
        return Err(format!("expected a value, got {s:?}"));
    }
    let token: String = s[..end].chars().filter(|&c| c != '_').collect();
    let n: f64 = token
        .parse()
        .map_err(|_| format!("bad number {:?}", &s[..end]))?;
    Ok((Value::Num(n), &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_shape() {
        let doc = parse(
            r#"
# A scenario.
name = "fig13-overload"

[workload]
service = "exponential"
mean_us = 10.0
loads = [0.8, 1.2, 1.4]
conns = 2752

[[case]]
label = "ZygOS (static)"
host = "sim:zygos"

[[case]]
label = "tenants"
admission = true
slo_classes = [["interactive", 100.0], ["batch", 1000.0]]

[claims]
loose_sheds_first = true
"#,
        )
        .expect("parses");
        assert_eq!(doc.root["name"], Value::Str("fig13-overload".into()));
        let w = &doc.tables["workload"];
        assert_eq!(w["mean_us"], Value::Num(10.0));
        assert_eq!(
            w["loads"],
            Value::Arr(vec![Value::Num(0.8), Value::Num(1.2), Value::Num(1.4)])
        );
        let cases = &doc.arrays["case"];
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[1]["admission"], Value::Bool(true));
        let classes = cases[1]["slo_classes"].as_arr().expect("array");
        assert_eq!(
            classes[0],
            Value::Arr(vec![Value::Str("interactive".into()), Value::Num(100.0)])
        );
        assert_eq!(doc.tables["claims"]["loose_sheds_first"], Value::Bool(true));
    }

    #[test]
    fn comments_and_underscored_numbers() {
        let doc = parse("a = 50_000 # fifty k\nb = \"x # not a comment\"\n").expect("parses");
        assert_eq!(doc.root["a"], Value::Num(50_000.0));
        assert_eq!(doc.root["b"], Value::Str("x # not a comment".into()));
        // An escaped quote must not end the string for the comment scan.
        let doc = parse("c = \"a\\\"b # not a comment\" # real comment\n").expect("parses");
        assert_eq!(doc.root["c"], Value::Str("a\"b # not a comment".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").expect_err("reject");
        assert!(e.starts_with("line 2:"), "{e}");
        let e = parse("x = 1\nx = 2").expect_err("duplicate");
        assert!(e.contains("duplicate key"), "{e}");
        let e = parse("[t]\n[t]").expect_err("duplicate table");
        assert!(e.contains("duplicate table"), "{e}");
        assert!(parse("a = [1, 2").is_err(), "unterminated array");
        assert!(parse("a = \"oops").is_err(), "unterminated string");
    }
}
