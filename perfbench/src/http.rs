//! A minimal HTTP/1.1 client for the monitor's front door: one request per
//! connection (the server closes after each reply), and a reader for the
//! `/events` server-sent-event stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout for every request.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A reply's status and body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Send one request and read the whole reply.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed reply: {raw:?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok(Reply { status, body })
}

/// The body of a `POST /submit`.
pub fn submit_body(sql: &str, tenant: &str) -> String {
    format!("{{\"sql\":\"{sql}\",\"tenant\":\"{tenant}\"}}")
}

/// The unsigned integer field `key` of a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string field `key` of a flat JSON object (no escapes).
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &body[at..];
    Some(&rest[..rest.find('"')?])
}

/// One server-sent event.
#[derive(Debug, Default)]
pub struct Frame {
    /// `event:` name.
    pub event: String,
    /// `data:` payload.
    pub data: String,
}

/// An open `/events` stream.
pub struct Events {
    reader: BufReader<TcpStream>,
}

impl Events {
    /// Subscribe to `GET /events` and read past the response head.
    /// Returns the stream and a handle that can shut its socket down.
    pub fn open(addr: SocketAddr) -> std::io::Result<(Events, TcpStream)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(b"GET /events HTTP/1.1\r\nHost: perfbench\r\n\r\n")?;
        let handle = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("events stream closed in its head"));
            }
            if line == "\r\n" || line == "\n" {
                return Ok((Events { reader }, handle));
            }
        }
    }

    /// The next frame; `None` once the stream ends.
    pub fn next_frame(&mut self) -> Option<Frame> {
        let mut frame = Frame::default();
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                if !frame.event.is_empty() {
                    return Some(frame);
                }
            } else if let Some(v) = line.strip_prefix("event: ") {
                frame.event = v.to_string();
            } else if let Some(v) = line.strip_prefix("data: ") {
                frame.data = v.to_string();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_json_fields() {
        let body = "{\"id\":42,\"label\":\"x\",\"state\":\"finished\",\"rows\":7}";
        assert_eq!(json_u64(body, "id"), Some(42));
        assert_eq!(json_u64(body, "rows"), Some(7));
        assert_eq!(json_str(body, "state"), Some("finished"));
        assert_eq!(json_u64(body, "missing"), None);
    }
}
