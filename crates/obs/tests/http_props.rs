//! Malformed requests never panic or hang the metrics server.
//!
//! Every connection that sends anything gets a well-formed HTTP response:
//! a 4xx for a request the parser refuses (over-long lines, too many
//! headers, bytes that are not UTF-8, a bad or oversized
//! `Content-Length`), or the routed answer otherwise. `/healthz` keeps
//! answering afterwards.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use tpupoint_obs::{Health, MetricsServer, Response, ServeHooks};

fn hooks() -> ServeHooks {
    ServeHooks {
        metrics: Box::new(|| "tpupoint_up 1\n".to_owned()),
        health: Box::new(Health::healthy),
        status: Box::new(|| "{}".to_owned()),
        phases: Box::new(|| "{}".to_owned()),
        quit: Box::new(|| {}),
        route: Some(Box::new(|request| {
            (request.path == "/echo").then(|| Response::text(200, request.body.clone()))
        })),
    }
}

/// Sends `bytes`, half-closes, and reads the whole answer. A server that
/// hangs fails the read timeout.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(bytes).expect("request sent");
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("the server answers and closes");
    response
}

/// Parses a response, checking it is well formed, and returns its status
/// and body.
fn parse_response(response: &[u8]) -> (u16, String) {
    let text = String::from_utf8(response.to_vec()).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("a header block");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let length: usize = lines
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("a Content-Length")
        .parse()
        .unwrap();
    assert_eq!(length, body.len(), "{text:?}");
    (status, body.to_owned())
}

fn healthz(addr: SocketAddr) -> (u16, String) {
    parse_response(&exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// A small deterministic generator for building requests from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max)).map(|_| self.next() as u8).collect()
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }

    /// Raw bytes, or a request built from plausible and hostile parts.
    fn request(&mut self) -> Vec<u8> {
        if self.below(4) == 0 {
            return self.bytes(600);
        }
        let mut out = Vec::new();
        let method = self.pick(&["GET", "POST", "DELETE", "", "G\u{e9}T", "\u{0}"]);
        let path = self.pick(&["/metrics", "/healthz", "/echo", "/status?x=1", "/", "*"]);
        out.extend_from_slice(format!("{method} {path}").as_bytes());
        match self.below(6) {
            0 => out.extend(std::iter::repeat_n(b'a', 9_000)),
            1 => out.extend_from_slice(&[0xff, 0xfe]),
            _ => {}
        }
        out.extend_from_slice(b" HTTP/1.1\r\n");
        let headers = match self.below(5) {
            0 => 95 + self.below(10),
            _ => self.below(6),
        };
        let body = self.bytes(200);
        for _ in 0..headers {
            match self.below(12) {
                0 => {
                    out.extend_from_slice(b"X-Long: ");
                    out.extend(std::iter::repeat_n(b'b', 8_200));
                    out.extend_from_slice(b"\r\n");
                }
                1 => out.extend_from_slice(b"X-Bytes: \xc3\x28\r\n"),
                2 => {
                    let value =
                        self.pick(&["99999999", "-1", "abc", "", "65537", "18446744073709551616"]);
                    out.extend_from_slice(format!("Content-Length: {value}\r\n").as_bytes());
                }
                3 => {
                    out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes())
                }
                4 => out.extend_from_slice(b"no colon here\n"),
                _ => out.extend_from_slice(format!("X-H{}: v\r\n", self.below(100)).as_bytes()),
            }
        }
        if self.below(5) > 0 {
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(&body);
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn arbitrary_requests_get_well_formed_answers(seed in any::<u64>()) {
        let server = MetricsServer::bind("127.0.0.1:0", hooks()).unwrap();
        let addr = server.local_addr();
        let request = SplitMix(seed).request();
        let response = exchange(addr, &request);
        if !request.is_empty() {
            let (status, _) = parse_response(&response);
            prop_assert!(
                matches!(status, 200 | 400 | 404 | 413 | 431),
                "status {status} for {:?}",
                String::from_utf8_lossy(&request)
            );
        }
        prop_assert_eq!(healthz(addr), (200, "ok\n".to_owned()));
        server.shutdown();
    }
}

fn status_for(request: &[u8]) -> u16 {
    let server = MetricsServer::bind("127.0.0.1:0", hooks()).unwrap();
    let addr = server.local_addr();
    let (status, _) = parse_response(&exchange(addr, request));
    assert_eq!(healthz(addr).0, 200);
    server.shutdown();
    status
}

#[test]
fn over_long_request_lines_are_refused() {
    let mut request = b"GET /".to_vec();
    request.extend(std::iter::repeat_n(b'a', 8_192));
    request.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(status_for(&request), 400);
}

#[test]
fn over_long_headers_and_too_many_headers_are_refused() {
    let mut long = b"GET /metrics HTTP/1.1\r\nX-Long: ".to_vec();
    long.extend(std::iter::repeat_n(b'b', 8_192));
    long.extend_from_slice(b"\r\n\r\n");
    assert_eq!(status_for(&long), 431);
    let many: String = (0..101).map(|i| format!("X-H{i}: v\r\n")).collect();
    assert_eq!(
        status_for(format!("GET /metrics HTTP/1.1\r\n{many}\r\n").as_bytes()),
        431
    );
    let enough: String = (0..100).map(|i| format!("X-H{i}: v\r\n")).collect();
    assert_eq!(
        status_for(format!("GET /metrics HTTP/1.1\r\n{enough}\r\n").as_bytes()),
        200
    );
}

#[test]
fn non_utf8_request_lines_are_refused() {
    assert_eq!(status_for(b"GET /m\xffetrics HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(status_for(b"GET /metrics HTTP/1.1\r\nX: \xff\r\n\r\n"), 400);
}

#[test]
fn bad_and_oversized_content_lengths_are_refused() {
    let post = |length: &str| format!("POST /echo HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhi");
    assert_eq!(status_for(post("65537").as_bytes()), 413);
    assert_eq!(status_for(post("18446744073709551616").as_bytes()), 400);
    assert_eq!(status_for(post("two").as_bytes()), 400);
    let server = MetricsServer::bind("127.0.0.1:0", hooks()).unwrap();
    let (status, body) = parse_response(&exchange(server.local_addr(), post("2").as_bytes()));
    assert_eq!((status, body.as_str()), (200, "hi"));
    server.shutdown();
}
