//! A minimal HTTP/1.1 client for driving `repro serve`, and a reader for
//! the Prometheus text the daemons expose on `/metrics`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Generous next to any single run at these scales, and well inside the
/// ladder's own time limit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// One response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A client connection, kept alive between requests when the server
/// allows it and reopened when the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Result<Conn, String> {
        let addr = addr
            .parse()
            .map_err(|e| format!("bad daemon address '{addr}': {e}"))?;
        Ok(Conn { addr, stream: None })
    }

    /// Sends one request and reads the whole response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: ladder\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let result = read_reply(reader, request.as_bytes());
        match &result {
            Ok((_, keep_alive)) if *keep_alive => {}
            _ => self.stream = None,
        }
        result.map(|(reply, _)| reply)
    }
}

/// Writes `request`, then reads a `Content-Length`-framed response;
/// returns it with whether the server keeps the connection open.
fn read_reply(reader: &mut BufReader<TcpStream>, request: &[u8]) -> io::Result<(Reply, bool)> {
    reader.get_mut().write_all(request)?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut length = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("response head cut short".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| invalid("response without Content-Length".into()))?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((Reply { status, body }, keep_alive))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// One `GET` on a fresh connection.
pub fn get(addr: &str, path: &str) -> Result<Reply, String> {
    Conn::new(addr)?
        .send("GET", path, "")
        .map_err(|e| format!("GET {path} on {addr} failed: {e}"))
}

/// A parsed Prometheus text scrape: `(metric, labels, value)` samples.
pub struct Scrape {
    samples: Vec<(String, BTreeMap<String, String>, f64)>,
}

impl Scrape {
    /// `GET /metrics` from `addr` (on a router: every node, labelled).
    pub fn take(addr: &str) -> Result<Scrape, String> {
        let reply = get(addr, "/metrics")?;
        if reply.status != 200 {
            return Err(format!("GET /metrics on {addr} answered {}", reply.status));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&reply.body)))
    }

    fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                let value: f64 = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)),
                    None => (series, BTreeMap::new()),
                };
                Some((name.to_string(), labels, value))
            })
            .collect();
        Scrape { samples }
    }

    /// Sum of `metric` over every series whose labels include `filter`.
    pub fn sum(&self, metric: &str, filter: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|(name, labels, _)| {
                name == metric
                    && filter
                        .iter()
                        .all(|(k, v)| labels.get(*k).is_some_and(|l| l == v))
            })
            .map(|(_, _, value)| value)
            .sum()
    }

    /// `metric` summed per value of the `key` label (per `node` on a
    /// router's aggregated scrape).
    pub fn by_label(
        &self,
        metric: &str,
        key: &str,
        filter: &[(&str, &str)],
    ) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, labels, value) in &self.samples {
            if name != metric
                || !filter
                    .iter()
                    .all(|(k, v)| labels.get(*k).is_some_and(|l| l == v))
            {
                continue;
            }
            if let Some(label) = labels.get(key) {
                *out.entry(label.clone()).or_insert(0.0) += value;
            }
        }
        out
    }
}

/// `a="x",b="y"` → map. Label values here never hold quotes or commas
/// (phase names, routes, `host:port` nodes).
fn parse_labels(text: &str) -> BTreeMap<String, String> {
    text.split(',')
        .filter_map(|pair| {
            let (key, value) = pair.split_once('=')?;
            Some((
                key.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            ))
        })
        .collect()
}
