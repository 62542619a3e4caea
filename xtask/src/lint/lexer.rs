//! The mask-lint tokenizer.
//!
//! Classifies every character of a Rust source file as **code**, **comment
//! text**, or **string/char-literal content**, and exposes the result as
//! per-line parallel views. This is what makes mask-lint v2 token-aware:
//! the v1 scanner truncated lines at the first `//` (even inside a string
//! literal) and counted braces inside strings, so both its forbid-lists
//! and its `#[cfg(test)]` span tracking could be fooled. The lexer handles:
//!
//! - line comments (`//`, `///`, `//!`) and nested block comments
//!   (`/* /* */ */`), including doc block comments;
//! - string literals with escapes (`"a \" b"`), multi-line strings, and
//!   byte/C-string prefixes (`b"..."`, `c"..."`);
//! - raw strings with any hash depth (`r"..."`, `r#"..."#`, `br##"..."##`);
//! - char and byte-char literals (`'{'`, `'\''`, `b'\n'`), disambiguated
//!   from lifetimes (`'a`, `'static`, `'_`).
//!
//! It is still not a parser — no AST, no macro expansion — but every
//! character lands in exactly one class, which is all the analysis passes
//! need.

/// One scanned source line: parallel views of the same text.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    /// The original text, without the trailing newline.
    #[cfg_attr(not(test), expect(dead_code, reason = "read by the lexer tests"))]
    pub raw: String,
    /// The code view: comments and the *contents* of string/char literals
    /// are blanked with spaces (delimiters kept), so token searches never
    /// match inside either and char columns still line up with `raw`.
    pub code: String,
    /// The comment view: the text of every comment on this line (after the
    /// `//` marker, or the interior of a `/* */`), concatenated in order.
    pub comment: String,
    /// Byte offset in `raw` where a `//`-style comment starts, when one
    /// does: the column a stale `lint: allow` annotation is reported at.
    pub comment_start: Option<usize>,
}

impl Line {
    /// True when the line carries no code (only whitespace and comments).
    #[cfg_attr(not(test), expect(dead_code, reason = "read by the lexer tests"))]
    pub(crate) fn code_is_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// Lexer state across lines (strings and block comments span newlines).
enum St {
    Code,
    LineComment,
    /// Nested block comment depth.
    Block(u32),
    /// Inside `"..."`; the flag records a pending backslash escape.
    Str(bool),
    /// Inside `r##"..."##`; the count is the closing hash depth.
    RawStr(u32),
}

/// Scans `source` into classified lines.
pub(crate) fn scan(source: &str) -> Vec<Line> {
    let cs: Vec<(usize, char)> = source.char_indices().collect();
    let at = |i: usize| cs.get(i).map(|&(_, c)| c);
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut comment_start: Option<usize> = None;
    let mut line_start = 0usize;
    let mut st = St::Code;
    let mut i = 0usize;
    while i < cs.len() {
        let (off, c) = cs[i];
        if c == '\n' {
            lines.push(Line {
                raw: source[line_start..off].trim_end_matches('\r').to_string(),
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                comment_start: comment_start.take(),
            });
            line_start = off + 1;
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            i += 1;
            continue;
        }
        match st {
            St::Code => match c {
                '/' if at(i + 1) == Some('/') => {
                    comment_start = Some(off - line_start);
                    code.push_str("  ");
                    st = St::LineComment;
                    i += 2;
                }
                '/' if at(i + 1) == Some('*') => {
                    code.push_str("  ");
                    st = St::Block(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    st = St::Str(false);
                    i += 1;
                }
                'r' if !prev_is_ident(&cs, i) => {
                    // Raw string? `r` + zero or more `#` + `"`.
                    let mut j = i + 1;
                    while at(j) == Some('#') {
                        j += 1;
                    }
                    if at(j) == Some('"') {
                        // Keep the delimiter chars readable in the code
                        // view: r, hashes, then the quote.
                        let n = (j - i - 1) as u32;
                        code.push('r');
                        for _ in 0..n {
                            code.push('#');
                        }
                        code.push('"');
                        st = St::RawStr(n);
                        i = j + 1;
                    } else {
                        code.push('r');
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime.
                    if at(i + 1) == Some('\\') {
                        // Escaped char literal: consume through the close.
                        code.push('\'');
                        i += 1;
                        let mut esc = false;
                        while let Some(&(_, c2)) = cs.get(i) {
                            if c2 == '\n' {
                                break;
                            }
                            if esc {
                                code.push(' ');
                                esc = false;
                            } else if c2 == '\\' {
                                code.push(' ');
                                esc = true;
                            } else if c2 == '\'' {
                                code.push('\'');
                                i += 1;
                                break;
                            } else {
                                code.push(' ');
                            }
                            i += 1;
                        }
                    } else if at(i + 2) == Some('\'') && at(i + 1) != Some('\'') {
                        // One-char literal such as `'{'` or `'x'`.
                        code.push('\'');
                        code.push(' ');
                        code.push('\'');
                        i += 3;
                    } else {
                        // A lifetime (`'a`, `'static`, `'_`): plain code.
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && at(i + 1) == Some('/') {
                    code.push_str("  ");
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && at(i + 1) == Some('*') {
                    code.push_str("  ");
                    st = St::Block(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            St::Str(esc) => {
                if esc {
                    code.push(' ');
                    st = St::Str(false);
                } else if c == '\\' {
                    code.push(' ');
                    st = St::Str(true);
                } else if c == '"' {
                    code.push('"');
                    st = St::Code;
                } else {
                    code.push(' ');
                }
                i += 1;
            }
            St::RawStr(hashes) => {
                let closes = c == '"' && (1..=hashes as usize).all(|k| at(i + k) == Some('#'));
                if closes {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    st = St::Code;
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if line_start < source.len() {
        lines.push(Line {
            raw: source[line_start..].trim_end_matches('\r').to_string(),
            code,
            comment,
            comment_start,
        });
    }
    lines
}

/// True when the char before index `i` can be part of an identifier (so a
/// letter at `i` is a suffix of a larger name, not a keyword/prefix).
fn prev_is_ident(cs: &[(usize, char)], i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|p| cs.get(p))
        .is_some_and(|&(_, c)| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_lines(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_blanked_and_collected() {
        let l = &scan("let x = 1; // trailing note\n")[0];
        assert_eq!(l.code.trim_end(), "let x = 1;");
        assert!(l.comment.contains("trailing note"));
        assert_eq!(l.comment_start, Some(11));
        assert_eq!(l.raw, "let x = 1; // trailing note");
    }

    #[test]
    fn slashes_inside_strings_do_not_start_a_comment() {
        let l = &scan("let u = \"https://example\"; bad()\n")[0];
        assert!(l.code.contains("bad()"), "{:?}", l.code);
        assert!(l.comment.is_empty());
        assert_eq!(l.comment_start, None);
    }

    #[test]
    fn string_contents_are_blanked_but_delimiters_kept() {
        let l = &scan("let s = \"HashMap{}\";\n")[0];
        assert_eq!(l.code, "let s = \"         \";");
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let l = &scan(r#"let q = "a \" b"; f()"#)[0];
        assert!(l.code.contains("f()"), "{:?}", l.code);
        assert!(!l.code.contains('a'), "contents blanked: {:?}", l.code);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = &scan("let s = r#\"{ \" }\"# ; x()\n")[0];
        assert!(l.code.contains("x()"), "{:?}", l.code);
        assert!(!l.code.contains('{'), "{:?}", l.code);
    }

    #[test]
    fn char_literals_are_blanked_but_lifetimes_are_code() {
        let l = &scan("if c == '{' { f::<'a>(); }\n")[0];
        assert!(!l.code.contains("'{'"), "{:?}", l.code);
        assert!(l.code.contains("<'a>"), "{:?}", l.code);
        let braces = l.code.matches(['{', '}']).count();
        assert_eq!(braces, 2, "only the real block braces: {:?}", l.code);
    }

    #[test]
    fn escaped_char_literals() {
        let l = &scan("let q = '\\''; let n = '\\n'; g()\n")[0];
        assert!(l.code.contains("g()"), "{:?}", l.code);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = code_lines("a(); /* x /* y */ still comment */ b();\n/* open\nstill */ c();\n");
        assert!(lines[0].contains("a();") && lines[0].contains("b();"));
        assert!(!lines[0].contains("still comment"));
        assert!(lines[1].trim().is_empty(), "{:?}", lines[1]);
        assert!(lines[2].contains("c();"));
    }

    #[test]
    fn multiline_strings_span_lines() {
        let lines = code_lines("let s = \"first {\nsecond }\"; done()\n");
        assert!(!lines[0].contains('{'));
        assert!(!lines[1].contains('}'));
        assert!(lines[1].contains("done()"));
    }

    #[test]
    fn doc_comment_text_is_preserved_for_safety_checks() {
        let l = &scan("/// # Safety\n")[0];
        assert!(l.comment.contains("# Safety"), "{:?}", l.comment);
        assert!(l.code_is_blank());
    }

    #[test]
    fn last_line_without_newline_is_kept() {
        let lines = scan("a();\nb()");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].code, "b()");
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let l = &scan("let var = 1; takeptr(\"s\")\n")[0];
        assert!(l.code.contains("takeptr"), "{:?}", l.code);
    }
}
