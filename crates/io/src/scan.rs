//! The one place `snap-io` turns bytes into numbers and numbers into
//! bytes: a reader `read_to_end`s its input and walks it with a
//! [`Scanner`], a writer puts its tokens through a [`Printer`].

use crate::IoError;
use std::io::{self, Write};
use std::ops::RangeInclusive;

/// What fits a `u32`: `n`, `m` and every weight.
pub(crate) const U32: RangeInclusive<u64> = 0..=u32::MAX as u64;

/// A *blank* separates tokens within a line: space, tab, `\r`, vertical
/// tab or form feed. `\n` alone ends a line.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// A cursor over a whole input file. Only [`Scanner::next_line`] moves it
/// past a `\n`, so the line of an error is the number of `\n` before the
/// cursor plus one — counted when an error is built, never in the loop.
pub(crate) struct Scanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Scanner { buf, pos: 0 }
    }

    /// Offset of the cursor, for [`Scanner::error_at`].
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether no line is left. Text after the last `\n` is a line; the
    /// empty string after it is not.
    pub(crate) fn at_eof(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Skip blanks; the byte under the cursor, or `None` at the line's end.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.buf.get(self.pos) {
            if !is_blank(b) {
                return (b != b'\n').then_some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Move to the start of the next line, over what is left of this one.
    pub(crate) fn next_line(&mut self) {
        let rest = &self.buf[self.pos..];
        let newline = rest.iter().position(|&b| b == b'\n');
        self.pos += newline.map_or(rest.len(), |at| at + 1);
    }

    /// The next token of the line; empty at the line's end.
    pub(crate) fn word(&mut self) -> &'a [u8] {
        self.peek();
        let rest = &self.buf[self.pos..];
        let end = rest.iter().position(|&b| is_blank(b) || b == b'\n');
        let word = &rest[..end.unwrap_or(rest.len())];
        self.pos += word.len();
        word
    }

    /// The next token of the line as a decimal within `range` (which ends
    /// below 2^60): an optional `+`, then digits up to a blank, a `\n` or
    /// the end of the input. `what` names the value in the error.
    #[inline]
    pub(crate) fn number(
        &mut self,
        what: &str,
        range: RangeInclusive<u64>,
    ) -> Result<u64, IoError> {
        if self.peek() == Some(b'+') {
            self.pos += 1;
        }
        let start = self.pos;
        let mut value = 0u64;
        while let Some(&b) = self.buf.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 || value > *range.end() {
                break;
            }
            value = value * 10 + u64::from(digit);
            self.pos += 1;
        }
        let ended = self
            .buf
            .get(self.pos)
            .is_none_or(|&b| is_blank(b) || b == b'\n');
        if self.pos > start && ended && range.contains(&value) {
            return Ok(value);
        }
        Err(self.not_in(what, range))
    }

    #[cold]
    fn not_in(&self, what: &str, range: RangeInclusive<u64>) -> IoError {
        let (min, max) = range.into_inner();
        self.error(format!("{what}: expected a number in {min}..={max}"))
    }

    /// [`Scanner::number`] if the line has another token.
    pub(crate) fn optional(
        &mut self,
        what: &str,
        range: RangeInclusive<u64>,
    ) -> Result<Option<u64>, IoError> {
        self.peek().map(|_| self.number(what, range)).transpose()
    }

    /// A parse error at the cursor's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> IoError {
        self.error_at(self.pos, message)
    }

    /// A parse error at the line holding offset `pos`.
    pub(crate) fn error_at(&self, pos: usize, message: impl Into<String>) -> IoError {
        let line = 1 + self.buf[..pos].iter().filter(|&&b| b == b'\n').count();
        let message = message.into();
        IoError::Parse { line, message }
    }
}

/// The writing side: tokens separated by one space, lines ended by `\n`,
/// collected in one buffer that goes to the writer every 64 KiB.
pub(crate) struct Printer<W: Write> {
    writer: W,
    out: Vec<u8>,
}

impl<W: Write> Printer<W> {
    pub(crate) fn new(writer: W) -> Self {
        let out = Vec::new();
        Printer { writer, out }
    }

    pub(crate) fn word(&mut self, word: impl AsRef<[u8]>) -> &mut Self {
        if !matches!(self.out.last(), None | Some(b'\n')) {
            self.out.push(b' ');
        }
        self.out.extend_from_slice(word.as_ref());
        self
    }

    pub(crate) fn number(&mut self, value: impl Into<u64>) -> &mut Self {
        let mut value = value.into();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                return self.word(&digits[at..]);
            }
        }
    }

    pub(crate) fn end_line(&mut self) -> io::Result<()> {
        self.out.push(b'\n');
        if self.out.len() >= 64 * 1024 {
            self.writer.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Hand over what the last [`Printer::end_line`] kept.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.writer.write_all(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of<T>(result: Result<T, IoError>) -> usize {
        crate::parse_error(result).0
    }

    #[test]
    fn numbers_blanks_and_line_ends() {
        let mut sc = Scanner::new(b" \t7\x0b+08\r\n\n42");
        assert_eq!(sc.number("a", 0..=9).unwrap(), 7);
        assert_eq!(sc.number("b", 0..=9).unwrap(), 8);
        assert_eq!(sc.peek(), None);
        assert_eq!(line_of(sc.number("c", 0..=9)), 1);
        sc.next_line();
        assert_eq!(sc.peek(), None);
        assert!(!sc.at_eof());
        sc.next_line();
        assert_eq!(sc.peek(), Some(b'4'));
        assert_eq!(sc.number("d", 0..=42).unwrap(), 42);
        assert!(sc.at_eof());
        assert_eq!(line_of(sc.number("e", 0..=9)), 3);
    }

    #[test]
    fn rejects_what_is_not_a_bounded_decimal() {
        for bad in [
            "x", "-1", "+", "1x", "1.5", "1e3", "0x10", "١", "12é", "10", "0", "",
        ] {
            let mut sc = Scanner::new(bad.as_bytes());
            assert!(sc.number("v", 1..=9).is_err(), "{bad:?}");
        }
        let mut sc = Scanner::new(b"\n\n 99999999999999999999999999");
        sc.next_line();
        sc.next_line();
        assert_eq!(line_of(sc.number("v", U32)), 3);
        let mut sc = Scanner::new(b"4294967295 4294967296");
        assert_eq!(sc.number("v", U32).unwrap(), 4294967295);
        assert!(sc.number("v", U32).is_err());
    }

    #[test]
    fn words_stop_at_blanks_and_line_ends() {
        let mut sc = Scanner::new(b"p  sp\nq");
        assert_eq!(sc.word(), b"p");
        assert_eq!(sc.word(), b"sp");
        assert_eq!(sc.word(), b"");
        assert_eq!(line_of::<()>(Err(sc.error("here"))), 1);
        sc.next_line();
        assert_eq!(sc.word(), b"q");
        assert_eq!(line_of::<()>(Err(sc.error_at(0, "there"))), 1);
    }

    #[test]
    fn printer_separates_tokens_and_formats_as_display() {
        let mut sink = Vec::new();
        let mut out = Printer::new(&mut sink);
        out.word("#").number(0u32).number(10u32).word("x y");
        out.end_line().unwrap();
        out.end_line().unwrap();
        out.number(u32::MAX).number(8589934590u64).number(u64::MAX);
        out.finish().unwrap();
        let want = format!("# 0 10 x y\n\n4294967295 8589934590 {}", u64::MAX);
        assert_eq!(String::from_utf8(sink).unwrap(), want);
    }

    #[test]
    fn printer_hands_over_full_buffers_only() {
        let mut sink = Vec::new();
        let mut out = Printer::new(&mut sink);
        out.word("a").end_line().unwrap();
        assert!(out.writer.is_empty());
        out.word(vec![b'b'; 64 * 1024]).end_line().unwrap();
        assert_eq!(out.writer.len(), 2 + 64 * 1024 + 1);
        out.word("c");
        out.finish().unwrap();
        assert_eq!(sink.len(), 2 + 64 * 1024 + 1 + 1);
    }
}
