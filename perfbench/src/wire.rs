//! An in-process NDJSON connection for `aero_serve::serve_ndjson`: the
//! server reads request lines from a channel and writes reply lines
//! into another, each stamped with the instant the server finished
//! writing it, so client latency includes the wire's in-order reply
//! writer without the benchmark's own parsing.

use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// The server's input: request lines as the client sends them. EOF
/// when the client drops its sender.
pub struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl LineReader {
    pub fn new(rx: Receiver<String>) -> Self {
        LineReader { rx, buf: Vec::new(), pos: 0 }
    }
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: every completed line goes to the client with
/// the instant it was completed.
pub struct LineWriter {
    tx: Sender<(Instant, String)>,
    buf: Vec<u8>,
}

impl LineWriter {
    pub fn new(tx: Sender<(Instant, String)>) -> Self {
        LineWriter { tx, buf: Vec::new() }
    }
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]).into_owned();
            if self.tx.send((Instant::now(), text)).is_err() {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"));
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn lines_pass_through_in_order() {
        let (tx, rx) = mpsc::channel();
        tx.send("a\n".to_string()).unwrap();
        tx.send("bc\n".to_string()).unwrap();
        drop(tx);
        let lines: Vec<String> = LineReader::new(rx).lines().map(Result::unwrap).collect();
        assert_eq!(lines, ["a", "bc"]);

        let (tx, rx) = mpsc::channel();
        let mut w = LineWriter::new(tx);
        write!(w, "x").unwrap();
        writeln!(w, "y\nz").unwrap();
        drop(w);
        let got: Vec<String> = rx.iter().map(|(_, l)| l).collect();
        assert_eq!(got, ["xy", "z"]);
    }
}
