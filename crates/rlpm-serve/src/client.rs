//! A minimal protocol client: write one request line, stream events to a
//! callback, return the terminal response.
//!
//! This is what `rlpm-sim client` wraps and what the integration tests
//! drive; it deliberately speaks raw [`Value`]s rather than typed
//! responses so a future server can add fields without breaking older
//! clients (the protocol's forward-compatibility rule).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::json::{self, Value};
use crate::proto::EVENT_TYPES;

/// Sends one request line over an established reader/writer pair and
/// reads until the terminal response.
///
/// The line and its newline go out in one write. Every event line (a
/// `type` listed in [`EVENT_TYPES`]) is handed to `on_event`; the first
/// non-event line is returned. Unparseable server output and premature
/// EOF are `InvalidData` / `UnexpectedEof` errors.
pub fn roundtrip<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    request_line: &str,
    mut on_event: impl FnMut(&Value),
) -> io::Result<Value> {
    let mut line = request_line.trim_end().to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()?;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before the terminal response",
            ));
        }
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable server line ({e}): {line:?}"),
            )
        })?;
        let type_name = value.get("type").and_then(Value::as_str).unwrap_or("");
        if EVENT_TYPES.contains(&type_name) {
            on_event(&value);
            continue;
        }
        return Ok(value);
    }
}

/// Connects to the server socket at `path` and runs one
/// [`roundtrip`].
pub fn request_over_socket(
    path: &Path,
    request_line: &str,
    on_event: impl FnMut(&Value),
) -> io::Result<Value> {
    let stream = UnixStream::connect(path)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    roundtrip(&mut reader, &mut writer, request_line, on_event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_streams_events_then_returns_the_response() {
        let server_output = "\
{\"type\":\"accepted\",\"id\":1}
{\"type\":\"progress\",\"id\":1,\"source\":\"e1\",\"done\":1,\"total\":2}
{\"type\":\"result\",\"id\":1,\"payload\":{\"ok\":true}}
";
        let mut reader = io::Cursor::new(server_output.as_bytes().to_vec());
        let mut writer: Vec<u8> = Vec::new();
        let mut events = Vec::new();
        let response = roundtrip(
            &mut reader,
            &mut writer,
            "{\"type\":\"status\",\"id\":1}",
            |e| {
                events.push(
                    e.get("type")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                );
            },
        );
        assert_eq!(events, ["accepted", "progress"]);
        let response = match response {
            Ok(v) => v,
            Err(e) => panic!("roundtrip failed: {e}"),
        };
        assert_eq!(response.get("type").and_then(Value::as_str), Some("result"));
        assert_eq!(
            String::from_utf8_lossy(&writer),
            "{\"type\":\"status\",\"id\":1}\n",
            "request line written with exactly one newline"
        );
    }

    #[test]
    fn eof_before_response_is_an_error() {
        let mut reader = io::Cursor::new(b"{\"type\":\"accepted\",\"id\":1}\n".to_vec());
        let mut writer: Vec<u8> = Vec::new();
        let outcome = roundtrip(&mut reader, &mut writer, "{\"type\":\"status\"}", |_| {});
        assert_eq!(
            outcome.err().map(|e| e.kind()),
            Some(io::ErrorKind::UnexpectedEof)
        );
    }

    #[test]
    fn garbage_from_the_server_is_invalid_data() {
        let mut reader = io::Cursor::new(b"not json\n".to_vec());
        let mut writer: Vec<u8> = Vec::new();
        let outcome = roundtrip(&mut reader, &mut writer, "{\"type\":\"status\"}", |_| {});
        assert_eq!(
            outcome.err().map(|e| e.kind()),
            Some(io::ErrorKind::InvalidData)
        );
    }
}
