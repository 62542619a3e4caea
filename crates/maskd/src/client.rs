//! A small blocking client for the daemon.
//!
//! One `TcpStream` per call (the daemon speaks `Connection: close`), no
//! polling: [`Client::wait`] rides the chunked `/jobs/{id}/events` stream,
//! which the server holds open until the job completes — so waiting is a
//! blocking read, not a sleep loop, and the client library stays free of
//! clocks (clippy's `disallowed-methods` ban on `Instant::now` applies to
//! this crate like any other). Responses are read by
//! `http::read_response`, with the head and body readers that parse the
//! server's requests.
//!
//! Used by `examples/sweep_client.rs` and `tests/daemon_e2e.rs`, both of
//! which byte-compare served results against direct
//! [`JobPool`](mask_core::JobPool) runs.

use crate::http;
use crate::json::{self, Value};
use crate::wire::{self, JobSpec};
use mask_common::stats::SimStats;
use std::fmt;
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, write).
    Io(std::io::Error),
    /// The daemon answered with an error status; the body is its JSON
    /// error document (429/503 backpressure lands here).
    Http {
        /// Response status code.
        status: u16,
        /// Response body (JSON error document).
        body: String,
    },
    /// The response was unreadable or not what the protocol promises.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Http { status, body } => write!(f, "HTTP {status}: {body}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Answer to a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitReply {
    /// Daemon-assigned job id.
    pub id: u64,
    /// `queued` or (on a store hit) `done`.
    pub status: String,
    /// Whether the result store answered without simulating.
    pub store_hit: bool,
}

/// Answer to a status query.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReply {
    /// `queued`, `running`, or `done`.
    pub status: String,
    /// Whether the result came from the store.
    pub store_hit: bool,
    /// Dispatch position, once dispatched.
    pub dispatch_seq: Option<u64>,
    /// The result, once done.
    pub result: Option<SimStats>,
}

/// A blocking daemon client bound to one address.
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7870`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Client { addr: addr.into() }
    }

    fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let payload = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: maskd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        )?;
        stream.flush()?;
        let (status, body) = http::read_response(&mut BufReader::new(stream))
            .map_err(|e| ClientError::Protocol(e.message().to_owned()))?;
        String::from_utf8(body)
            .map(|text| (status, text))
            .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))
    }

    fn call_ok(&self, method: &str, path: &str, body: Option<&str>) -> Result<Value, ClientError> {
        let (status, text) = self.call(method, path, body)?;
        if !(200..300).contains(&status) {
            return Err(ClientError::Http { status, body: text });
        }
        json::parse(&text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Raw `POST /jobs` with an arbitrary body — the rejection-path
    /// escape hatch for tests that submit deliberately malformed specs.
    pub fn submit_raw(&self, body: &str) -> Result<Value, ClientError> {
        self.call_ok("POST", "/jobs", Some(body))
    }

    /// Raw request to an arbitrary path — the rejection-path escape hatch
    /// for tests probing unknown routes and wrong methods.
    pub fn get_raw(&self, method: &str, path: &str) -> Result<Value, ClientError> {
        self.call_ok(method, path, None)
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<bool, ClientError> {
        let doc = self.call_ok("GET", "/healthz", None)?;
        Ok(doc.get("ok").and_then(Value::as_bool).unwrap_or(false))
    }

    /// `GET /store/stats` — the raw telemetry document.
    pub fn store_stats(&self) -> Result<Value, ClientError> {
        self.call_ok("GET", "/store/stats", None)
    }

    /// `POST /jobs`.
    pub fn submit(&self, spec: &JobSpec) -> Result<SubmitReply, ClientError> {
        let doc = self.call_ok("POST", "/jobs", Some(&spec.to_value().serialize()))?;
        let id = doc
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("submission reply missing `id`".into()))?;
        Ok(SubmitReply {
            id,
            status: doc
                .get("status")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            store_hit: doc
                .get("store_hit")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }

    /// `GET /jobs/{id}`.
    pub fn job(&self, id: u64) -> Result<JobReply, ClientError> {
        let doc = self.call_ok("GET", &format!("/jobs/{id}"), None)?;
        let result = match doc.get("result") {
            Some(v) => Some(wire::stats_from_value(v).map_err(|e| ClientError::Protocol(e.msg))?),
            None => None,
        };
        Ok(JobReply {
            status: doc
                .get("status")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            store_hit: doc
                .get("store_hit")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            dispatch_seq: doc.get("dispatch_seq").and_then(Value::as_u64),
            result,
        })
    }

    /// `GET /jobs/{id}/events` — blocks until the job completes, then
    /// returns every JSONL event line (lifecycle + epoch frames).
    pub fn events(&self, id: u64) -> Result<Vec<String>, ClientError> {
        let (status, text) = self.call("GET", &format!("/jobs/{id}/events"), None)?;
        if status != 200 {
            return Err(ClientError::Http { status, body: text });
        }
        Ok(text.lines().map(str::to_owned).collect())
    }

    /// Submits nothing, simulates nothing: rides the events stream until
    /// the job is done, then fetches its final state.
    pub fn wait(&self, id: u64) -> Result<JobReply, ClientError> {
        let _ = self.events(id)?;
        let reply = self.job(id)?;
        if reply.status != "done" {
            return Err(ClientError::Protocol(format!(
                "events stream ended but job {id} is `{}`",
                reply.status
            )));
        }
        Ok(reply)
    }
}
