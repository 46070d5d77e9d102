//! Per-file analysis context: which lines are test code, which lines
//! carry `// ppep-lint: allow(...)` suppressions, and bracket-matching
//! over the token stream.

use crate::lexer::{lex, LexOutput, Token};
use crate::rules::expand_rule_alias;
use std::collections::{BTreeMap, BTreeSet};

/// A lexed source file plus the line classifications rules need.
pub struct SourceFile {
    /// Workspace-relative path, used in diagnostics and allowlists.
    pub path: String,
    /// Cargo package name the file belongs to (e.g. `ppep-core`).
    pub crate_name: String,
    /// All code tokens.
    pub tokens: Vec<Token>,
    /// Inclusive line ranges that are test-only code.
    test_spans: Vec<(u32, u32)>,
    /// Per-line suppressed rule names.
    suppressed: BTreeMap<u32, BTreeSet<String>>,
}

impl SourceFile {
    /// Lexes and classifies one file.
    pub fn parse(path: &str, crate_name: &str, src: &str) -> Self {
        let LexOutput { tokens, comments } = lex(src);
        let test_spans = test_spans(&tokens);
        let mut suppressed: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for c in &comments {
            let Some(rules) = parse_allow_directive(&c.text) else {
                continue;
            };
            // A trailing directive suppresses its own line; a directive
            // on a line of its own suppresses the next code line.
            let target = if tokens.iter().any(|t| t.line == c.line) {
                c.line
            } else {
                tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|l| *l > c.line)
                    .unwrap_or(c.line)
            };
            suppressed.entry(target).or_default().extend(rules);
        }
        Self {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            tokens,
            test_spans,
            suppressed,
        }
    }

    /// True when `line` is inside `#[cfg(test)]` / `#[test]` code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans
            .iter()
            .any(|(a, b)| (*a..=*b).contains(&line))
    }

    /// True when `rule` is suppressed on `line` by an inline directive.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed
            .get(&line)
            .is_some_and(|set| set.contains(rule))
    }
}

/// Index of the token matching the opening bracket at `open` (which
/// must be `(`, `[` or `{`). Returns the last token index on
/// unbalanced input rather than panicking.
pub fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parses `ppep-lint: allow(rule, rule, ...)` from a comment body.
/// Returns the expanded rule-name set, or `None` when the comment is
/// not a directive.
fn parse_allow_directive(text: &str) -> Option<Vec<String>> {
    let rest = text.trim().strip_prefix("ppep-lint:")?.trim();
    let inner = rest.strip_prefix("allow(")?;
    let inner = inner.split(')').next()?;
    let mut out = Vec::new();
    for raw in inner.split(',') {
        let name = raw.trim();
        if !name.is_empty() {
            out.extend(expand_rule_alias(name));
        }
    }
    Some(out)
}

/// Finds inclusive line spans of items marked `#[cfg(test)]` or
/// `#[test]` (the attribute line through the item's closing brace or
/// semicolon).
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let attr_open = i + 1;
        let attr_close = matching_bracket(tokens, attr_open);
        let body = &tokens[attr_open + 1..attr_close];
        let is_test_attr = match body.first() {
            Some(t) if t.is_ident("test") => true,
            Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = attr_close + 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes, then find the end of the item:
        // the matching `}` of its first top-level `{`, or a `;`.
        let mut j = attr_close + 1;
        while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
            j = matching_bracket(tokens, j + 1) + 1;
        }
        let mut end = tokens.len().saturating_sub(1);
        while j < tokens.len() {
            if tokens[j].is_punct(";") {
                end = j;
                break;
            }
            if tokens[j].is_punct("{") {
                end = matching_bracket(tokens, j);
                break;
            }
            j += 1;
        }
        let end_line = tokens.get(end).map_or(start_line, |t| t.line);
        spans.push((start_line, end_line));
        i = end + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_span_covers_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", "ppep-core", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_fn_with_extra_attributes() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() {\n    boom();\n}\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", "ppep-core", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn trailing_and_standalone_suppressions() {
        let src = "let a = x; // ppep-lint: allow(raw-f64)\n// ppep-lint: allow(stale-projection, dropped-transient)\nlet b = y;\n";
        let f = SourceFile::parse("x.rs", "ppep-core", src);
        assert!(f.is_suppressed("raw-f64", 1));
        assert!(!f.is_suppressed("stale-projection", 1));
        assert!(f.is_suppressed("stale-projection", 3));
        assert!(f.is_suppressed("dropped-transient", 3));
    }

    #[test]
    fn group_alias_expands() {
        let src = "// ppep-lint: allow(L2)\npub fn f(x: f64) {}\n";
        let f = SourceFile::parse("x.rs", "ppep-models", src);
        assert!(f.is_suppressed("raw-f64", 2));
        assert!(!f.is_suppressed("unguarded-output", 2));
    }
}
