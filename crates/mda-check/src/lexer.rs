//! A lightweight hand-rolled Rust source scanner for `mda-lint`.
//!
//! The lint rules are token-pattern rules; what they need from a lexer is
//! not a full grammar but a *scrubbed* view of the source where comment and
//! string/char-literal contents can never produce false matches, plus the
//! comment texts themselves (lint directives live in comments) and a map of
//! which lines belong to `#[cfg(test)]` items. This module produces exactly
//! that: comments and literal bodies are blanked to spaces character for
//! character, so every surviving byte sits at its original line and column.
//!
//! Handled literal forms: line and (nested) block comments, string and byte
//! string literals with escapes, raw (byte) strings with arbitrary `#`
//! fences, and char literals — including the `'a'`-vs-`'a` lifetime
//! ambiguity, resolved with the standard two-character lookahead.

/// A comment's text and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// Comment body, delimiters stripped.
    pub text: String,
}

/// The scrubbed view of one source file.
#[derive(Debug, Clone)]
pub struct Scrubbed {
    /// Source lines with comments and literal bodies blanked to spaces.
    pub lines: Vec<String>,
    /// Every comment with its starting line.
    pub comments: Vec<Comment>,
    /// Per line (0-based index), whether it is inside a `#[cfg(test)]`
    /// item (attribute line included).
    pub in_test: Vec<bool>,
}

impl Scrubbed {
    /// Whether the 1-based `line` lies inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Scrubs `src`: blanks comments and literal bodies, collects comment
/// texts, and marks `#[cfg(test)]` regions.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut comments = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();

    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    while i < n {
        let c = bytes[i];
        // Line comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let line = out.matches('\n').count() + 1;
            let start = i + 2;
            let mut j = start;
            while j < n && bytes[j] != '\n' {
                j += 1;
            }
            comments.push(Comment { line, text: bytes[start..j].iter().collect() });
            for &b in &bytes[i..j] {
                out.push(blank(b));
            }
            i = j;
            continue;
        }
        // Block comment (nests).
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let line = out.matches('\n').count() + 1;
            let start = i + 2;
            let mut depth = 1usize;
            let mut j = start;
            while j < n && depth > 0 {
                if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = j.saturating_sub(2).max(start);
            comments.push(Comment { line, text: bytes[start..end].iter().collect() });
            for &b in &bytes[i..j] {
                out.push(blank(b));
            }
            i = j;
            continue;
        }
        // Raw (byte) string: r"...", r#"..."#, br#"..."# etc.
        if c == 'r' || (c == 'b' && i + 1 < n && bytes[i + 1] == 'r') {
            let after_r = if c == 'r' { i + 1 } else { i + 2 };
            let mut hashes = 0usize;
            let mut j = after_r;
            while j < n && bytes[j] == '#' {
                hashes += 1;
                j += 1;
            }
            let is_raw = j < n && bytes[j] == '"'
                // `r` must not be the tail of an identifier (e.g. `var"`
                // cannot happen, but `r` in `for"` could only follow a
                // non-ident char anyway; guard on the previous char).
                && (i == 0 || !is_ident_char(bytes[i - 1]));
            if is_raw {
                // Copy the prefix and opening quote, blank the body.
                for &b in &bytes[i..=j] {
                    out.push(b);
                }
                let mut k = j + 1;
                'raw: while k < n {
                    if bytes[k] == '"' {
                        let mut h = 0usize;
                        while h < hashes && k + 1 + h < n && bytes[k + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            for q in 0..=hashes {
                                out.push(bytes[k + q]);
                            }
                            k += hashes + 1;
                            break 'raw;
                        }
                    }
                    out.push(blank(bytes[k]));
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        // String / byte string with escapes.
        if c == '"' || (c == 'b' && i + 1 < n && bytes[i + 1] == '"') {
            let open = if c == '"' { i } else { i + 1 };
            for &b in &bytes[i..=open] {
                out.push(b);
            }
            let mut j = open + 1;
            while j < n {
                if bytes[j] == '\\' && j + 1 < n {
                    out.push(blank(bytes[j]));
                    out.push(blank(bytes[j + 1]));
                    j += 2;
                    continue;
                }
                if bytes[j] == '"' {
                    out.push('"');
                    j += 1;
                    break;
                }
                out.push(blank(bytes[j]));
                j += 1;
            }
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' && (i == 0 || !is_ident_char(bytes[i - 1])) {
            let is_char = if i + 1 < n && bytes[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && bytes[i + 2] == '\'' && bytes[i + 1] != '\''
            };
            if is_char {
                out.push('\'');
                let mut j = i + 1;
                while j < n {
                    if bytes[j] == '\\' && j + 1 < n {
                        out.push(' ');
                        out.push(' ');
                        j += 2;
                        continue;
                    }
                    if bytes[j] == '\'' {
                        out.push('\'');
                        j += 1;
                        break;
                    }
                    out.push(' ');
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }

    let lines: Vec<String> = out.split('\n').map(str::to_string).collect();
    let in_test = mark_test_regions(&lines);
    Scrubbed { lines, comments, in_test }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Marks the lines covered by `#[cfg(test)]` items (the attribute itself,
/// any stacked attributes, and the item's braced body). Works byte-wise:
/// every structural character it cares about is ASCII.
fn mark_test_regions(lines: &[String]) -> Vec<bool> {
    let text = lines.join("\n");
    let bytes = text.as_bytes();
    let mut in_test = vec![false; lines.len()];

    let skip_attr = |bytes: &[u8], mut i: usize| -> usize {
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    };

    let mut search_from = 0usize;
    while let Some(found) = find_cfg_test(&text[search_from..]) {
        let attr_start = search_from + found;
        // Walk past the attribute's closing bracket, then any stacked
        // attributes and whitespace, to reach the item itself.
        let mut j = skip_attr(bytes, attr_start);
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                j = skip_attr(bytes, j);
                continue;
            }
            break;
        }
        // The item's extent: its brace-matched body, or a terminating `;`
        // for bodiless items (`#[cfg(test)] use ...;`).
        let mut end = j;
        let mut brace = 0i32;
        let mut entered = false;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => {
                    brace += 1;
                    entered = true;
                }
                b'}' => {
                    brace -= 1;
                    if entered && brace == 0 {
                        break;
                    }
                }
                b';' if !entered => break,
                _ => {}
            }
            end += 1;
        }
        let count_nl =
            |upto: usize| bytes[..upto.min(bytes.len())].iter().filter(|&&b| b == b'\n').count();
        let start_line = count_nl(attr_start);
        let end_line = count_nl(end);
        for flag in in_test.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        search_from = attr_start + 1;
        if search_from >= text.len() {
            break;
        }
    }
    in_test
}

/// Finds the next `#[cfg(test)]`-style attribute (also matches
/// `#[cfg(all(test, ...))]` and friends), returning its byte offset.
fn find_cfg_test(text: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("#[cfg(") {
        let at = from + pos;
        let rest = &text[at..];
        let close = rest.find(']').unwrap_or(rest.len());
        let attr = &rest[..close];
        // `test` as a standalone token inside the cfg predicate.
        let mut idx = 0usize;
        let found = loop {
            match attr[idx..].find("test") {
                None => break false,
                Some(p) => {
                    let s = idx + p;
                    let before_ok = s == 0
                        || !attr[..s].ends_with(|ch: char| ch.is_alphanumeric() || ch == '_');
                    let after = &attr[s + 4..];
                    let after_ok = !after.starts_with(|ch: char| ch.is_alphanumeric() || ch == '_');
                    if before_ok && after_ok {
                        break true;
                    }
                    idx = s + 4;
                }
            }
        };
        if found {
            return Some(at);
        }
        from = at + 6;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = \"Vec::new()\"; // Vec::new in a comment\nlet b = 1;";
        let s = scrub(src);
        assert!(!s.lines[0].contains("Vec::new"));
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.contains("Vec::new in a comment"));
        assert_eq!(s.lines[1], "let b = 1;");
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "let s = r#\"panic!(\"x\")\"#; let c = '\\u{1F600}'; let l: &'static str = s;";
        let s = scrub(src);
        assert!(!s.lines[0].contains("panic!"));
        assert!(s.lines[0].contains("'static"), "lifetime survives: {}", s.lines[0]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let s = scrub(src);
        assert!(s.lines[0].contains("let x = 1;"));
        assert!(!s.lines[0].contains("outer"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn after() {}";
        let s = scrub(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn cfg_test_attribute_on_single_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}";
        let s = scrub(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn cfg_all_test_matches_but_not_testing_ident() {
        assert!(find_cfg_test("#[cfg(all(test, feature = \"x\"))]").is_some());
        assert!(find_cfg_test("#[cfg(feature = \"testing\")]").is_none());
    }
}
