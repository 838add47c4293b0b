//! detlint's one lexer.
//!
//! The item parser needs identifiers with their spelling, string literal
//! *contents* (to distinguish `expect("invariant: …")` from a bare
//! `expect("oops")`), and punctuation it can bracket-match (turbofish,
//! generics, attribute groups); the waiver reader needs each line's
//! comment text. This module lexes the Rust surface — nested block
//! comments, ordinary/byte/raw/raw-byte strings (`"…"`, `b"…"`, `r#"…"#`,
//! `br#"…"#`, `c"…"`), char and byte-char literals, lifetimes, raw
//! identifiers (`r#type` lexes as the identifier `type` with a raw
//! marker) — into a flat token stream with line numbers, and sets the
//! comments aside with theirs. Text inside a literal is never a comment,
//! and text inside a comment is never a token.
//!
//! The lexer is total: any byte soup produces a token stream without
//! panicking (property-tested in `tests/graph.rs`).

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword. Raw identifiers (`r#match`) carry the
    /// name without the `r#` sigil; `raw` distinguishes them so `r#fn`
    /// is never parsed as the `fn` keyword.
    Ident { name: String, raw: bool },
    /// Any string-ish literal (`"…"`, `b"…"`, `r#"…"#`, `br#"…"#`,
    /// `c"…"`), carrying its uninterpreted contents.
    Str(String),
    /// A char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// A numeric literal.
    Num,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// One punctuation character (`::` is two `Punct(':')` tokens).
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based line of the token's first character.
    pub line: usize,
    /// The token itself.
    pub kind: TokKind,
}

impl Tok {
    /// The identifier name, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident { name, .. } => Some(name),
            _ => None,
        }
    }

    /// True if this token is the given non-raw identifier/keyword.
    /// (`r#fn` is *not* the keyword `fn`.)
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(&self.kind, TokKind::Ident { name, raw: false } if name == kw)
    }

    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One line's share of a comment: a line comment's text after the `//`,
/// or the part of a block comment that lies on this line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// The comment text on that line, delimiters removed.
    pub text: String,
}

/// Lex `source` into a token stream. Comments vanish; literals keep their
/// contents only where the parser needs them (strings).
pub fn tokenize(source: &str) -> Vec<Tok> {
    tokenize_with_comments(source).0
}

/// [`tokenize`], plus the comments it skipped, in source order.
pub fn tokenize_with_comments(source: &str) -> (Vec<Tok>, Vec<Comment>) {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Consume `\n`-aware: every newline bumps the line counter exactly once
    // no matter which literal/comment state it occurs in.
    macro_rules! bump {
        ($n:expr) => {{
            for k in 0..$n {
                if chars.get(i + k) == Some(&'\n') {
                    line += 1;
                }
            }
            i += $n;
        }};
    }

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < chars.len() {
        let c = chars[i];
        let at_line = line;

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            let mut text = String::new();
            bump!(2);
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    bump!(2);
                } else if chars[i] == '\n' {
                    comments.push(Comment {
                        line,
                        text: std::mem::take(&mut text),
                    });
                    bump!(1);
                } else {
                    text.push(chars[i]);
                    bump!(1);
                }
            }
            comments.push(Comment { line, text });
            continue;
        }

        // Identifier-led forms: raw identifiers, raw strings, byte strings,
        // byte chars, c-strings, and plain identifiers. Resolving these
        // here (longest match first) is what keeps `br#"…"#` from lexing
        // as the identifier `br` followed by garbage.
        if is_ident_start(c) {
            // Raw string / raw byte string: r"…" r#"…"# br"…" br#"…"#,
            // plus raw c-strings cr#"…"#.
            let prefix_len = match c {
                'r' => Some(0usize),
                'b' | 'c' if chars.get(i + 1) == Some(&'r') => Some(1usize),
                _ => None,
            };
            if let Some(extra) = prefix_len {
                let mut j = i + extra + 1;
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    // Raw string body: ends at `"` + `hashes` hashes.
                    let mut content = String::new();
                    bump!(j + 1 - i);
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut seen = 0usize;
                            while seen < hashes && chars.get(i + 1 + seen) == Some(&'#') {
                                seen += 1;
                            }
                            if seen == hashes {
                                bump!(1 + hashes);
                                break 'raw;
                            }
                        }
                        content.push(chars[i]);
                        bump!(1);
                    }
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Str(content),
                    });
                    continue;
                }
                // Raw identifier r#name.
                if c == 'r' && hashes == 1 && chars.get(j).copied().is_some_and(is_ident_start) {
                    let mut name = String::new();
                    let mut k = j;
                    while k < chars.len() && is_ident_cont(chars[k]) {
                        name.push(chars[k]);
                        k += 1;
                    }
                    bump!(k - i);
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Ident { name, raw: true },
                    });
                    continue;
                }
            }
            // Byte string b"…" / c-string c"…".
            if (c == 'b' || c == 'c') && chars.get(i + 1) == Some(&'"') {
                bump!(1); // the prefix; the quote is handled below
            } else if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                // Byte char b'x'.
                bump!(1);
            } else {
                let mut name = String::new();
                let mut k = i;
                while k < chars.len() && is_ident_cont(chars[k]) {
                    name.push(chars[k]);
                    k += 1;
                }
                bump!(k - i);
                toks.push(Tok {
                    line: at_line,
                    kind: TokKind::Ident { name, raw: false },
                });
                continue;
            }
        }

        let c = chars[i];

        // Ordinary (escaped) string literal.
        if c == '"' {
            let mut content = String::new();
            bump!(1);
            while i < chars.len() {
                if chars[i] == '\\' {
                    content.push('\\');
                    if let Some(&e) = chars.get(i + 1) {
                        content.push(e);
                    }
                    bump!(2);
                } else if chars[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    content.push(chars[i]);
                    bump!(1);
                }
            }
            toks.push(Tok {
                line: at_line,
                kind: TokKind::Str(content),
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            match chars.get(i + 1) {
                Some('\\') => {
                    // The quote, the backslash and the escaped char (which
                    // may itself be `'` or `\`), then on to the closing
                    // quote: `\u{…}` and `\x..` run longer.
                    bump!(3);
                    while i < chars.len() && chars[i] != '\'' {
                        bump!(1);
                    }
                    bump!(1);
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Char,
                    });
                    continue;
                }
                Some(&m) if chars.get(i + 2) == Some(&'\'') && m != '\'' => {
                    bump!(3);
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Char,
                    });
                    continue;
                }
                Some(&m) if is_ident_start(m) => {
                    // Lifetime: 'ident (not followed by a closing quote).
                    let mut k = i + 1;
                    while k < chars.len() && is_ident_cont(chars[k]) {
                        k += 1;
                    }
                    bump!(k - i);
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Lifetime,
                    });
                    continue;
                }
                _ => {
                    bump!(1);
                    toks.push(Tok {
                        line: at_line,
                        kind: TokKind::Punct('\''),
                    });
                    continue;
                }
            }
        }

        // Numeric literal (digits plus enough continuation to swallow
        // `0xff_u64`, `1.5e-3`, `1_000`). The parser never looks inside.
        if c.is_ascii_digit() {
            let mut k = i;
            while k < chars.len()
                && (chars[k].is_ascii_alphanumeric()
                    || chars[k] == '_'
                    || (chars[k] == '.' && chars.get(k + 1).is_some_and(|d| d.is_ascii_digit()))
                    || ((chars[k] == '+' || chars[k] == '-')
                        && k > i
                        && (chars[k - 1] == 'e' || chars[k - 1] == 'E')
                        && chars[k.saturating_sub(1)].is_ascii_alphanumeric()
                        && chars.get(k + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                k += 1;
            }
            bump!(k - i);
            toks.push(Tok {
                line: at_line,
                kind: TokKind::Num,
            });
            continue;
        }

        // Everything else: one punctuation character.
        bump!(1);
        toks.push(Tok {
            line: at_line,
            kind: TokKind::Punct(c),
        });
    }
    (toks, comments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn raw_byte_strings_are_single_literals() {
        // The regression the v2 parser depends on: `br#"…"#` must lex as
        // one Str token, not as the identifier `br` plus soup.
        let toks = tokenize(r###"let x = br#"unwrap() "quoted" inside"#; f(x);"###);
        let strs: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, [r#"unwrap() "quoted" inside"#]);
        assert_eq!(
            idents(r###"let x = br#"unwrap()"#; f(x);"###),
            ["let", "x", "f", "x"]
        );
    }

    #[test]
    fn multiline_raw_byte_strings_keep_line_numbers() {
        let toks = tokenize("let a = br#\"line\none\ntwo\"#;\nfn after() {}\n");
        let after = toks.iter().find(|t| t.is_kw("fn")).expect("fn token");
        assert_eq!(
            after.line, 4,
            "raw-string newlines must advance the line counter"
        );
    }

    #[test]
    fn raw_identifiers_carry_their_name() {
        let toks = tokenize("fn r#match(r#type: u32) {}");
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident { name, raw: true } if name == "match")));
        // And a raw `r#fn` is not the `fn` keyword.
        let toks = tokenize("let r#fn = 1;");
        assert_eq!(toks.iter().filter(|t| t.is_kw("fn")).count(), 0);
    }

    #[test]
    fn expect_messages_are_visible() {
        let toks = tokenize(r#"x.expect("invariant: journal has capacity");"#);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Str(s) if s.starts_with("invariant:"))));
    }

    #[test]
    fn nested_turbofish_in_call_position() {
        // The full nested-generic gauntlet the call-graph extractor walks.
        let toks = tokenize("frob::<Vec<BTreeMap<u32, Vec<u8>>>>(x)");
        assert_eq!(toks[0].ident(), Some("frob"));
        // `>>>` must come through as three separate Punct('>') so the
        // parser's angle matching can pair each one.
        let closes = toks.iter().filter(|t| t.is_punct('>')).count();
        let opens = toks.iter().filter(|t| t.is_punct('<')).count();
        assert_eq!(opens, 4);
        assert_eq!(closes, 4);
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let toks =
            tokenize("fn f<'a>(x: &'a str, c: char) -> bool { c == 'x' && c != b'\\n' as char }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn comments_keep_their_lines() {
        let (toks, comments) =
            tokenize_with_comments("a(); // one\n/* two\nthree */ b(); /* x /* y */ z */\n");
        let lines: Vec<(usize, &str)> =
            comments.iter().map(|c| (c.line, c.text.as_str())).collect();
        assert_eq!(
            lines,
            [
                (1, " one"),
                (2, " two"),
                (3, "three "),
                (3, " x /* y */ z ")
            ]
        );
        assert_eq!(
            toks.iter().find(|t| t.ident() == Some("b")).map(|t| t.line),
            Some(3)
        );
    }

    #[test]
    fn escaped_quote_and_backslash_chars_end_where_they_end() {
        // Neither `'\''` nor `'\\'` may run on and swallow what follows.
        let (toks, comments) =
            tokenize_with_comments("f('\\'', '\\\\', '\\u{41}'); g(); // after\n");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
        assert!(toks.iter().any(|t| t.ident() == Some("g")));
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn comments_vanish_entirely() {
        let toks = tokenize("a(); /* x.unwrap() /* nested */ */ // b.unwrap()\nc();");
        let names = toks.iter().filter_map(|t| t.ident()).collect::<Vec<_>>();
        assert_eq!(names, ["a", "c"]);
    }

    #[test]
    fn tokenizer_is_total_on_junk() {
        for junk in [
            "r#",
            "br#\"unterminated",
            "'",
            "\"open",
            "b'",
            "0x",
            "'\\",
            "r#\"\n",
        ] {
            let _ = tokenize(junk); // must not panic
            let a = tokenize(junk);
            let b = tokenize(junk);
            assert_eq!(a, b, "tokenize must be deterministic on {junk:?}");
        }
    }
}
